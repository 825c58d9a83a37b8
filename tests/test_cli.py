import functools
import json
import logging
import re
import wave

import numpy as np
import pytest

from binsed import (
    FrontendConfig,
    frontend,
    gen_random_model,
    load_features,
    mel_spectrogram,
    save,
    save_file,
)
from binsed.cli import chunk_audio, main, read_wav
from binsed.errors import InputFormatError
from binsed.model_io import Model, gen_random_float_model, save_float_model
from binsed.executor import NetworkSpec
from tests.conftest import (
    binary_first_layers,
    with_frontend_fields,
    with_layers,
    with_output_shift,
)


def write_wav(path, samples, rate=16000, channels=1, width=2):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(rate)
        w.writeframes(np.asarray(samples, dtype="<i2").tobytes())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, reference_model):
    d = tmp_path_factory.mktemp("cli")
    t = np.arange(4 * 16000)
    tone = (0.4 * np.sin(2 * np.pi * 1000 * t / 16000) * 32767).astype("<i2")
    write_wav(d / "tone.wav", tone)
    write_wav(d / "silence.wav", np.zeros(51200, "<i2"))
    write_wav(d / "short.wav", np.zeros(16000, "<i2"))
    write_wav(d / "ten_sec.wav", np.zeros(160000, "<i2"))
    write_wav(d / "stereo.wav", np.zeros(1000, "<i2"), channels=2)
    write_wav(d / "slow.wav", np.zeros(1000, "<i2"), rate=8000)
    save_file(reference_model, d / "model.bsed")
    return d


# ---------------------------------------------------------------------------
# WAV parsing and chunking
# ---------------------------------------------------------------------------


def test_read_wav_roundtrip(workdir):
    samples = read_wav(workdir / "tone.wav")
    assert samples.dtype == np.dtype("<i2")
    assert len(samples) == 64000


def test_read_wav_rejects_stereo(workdir):
    with pytest.raises(InputFormatError, match="mono"):
        read_wav(workdir / "stereo.wav")


def test_read_wav_rejects_wrong_rate(workdir):
    with pytest.raises(InputFormatError, match="16000"):
        read_wav(workdir / "slow.wav")


def test_read_wav_refusals_name_file_and_part(workdir, tmp_path):
    good = (workdir / "tone.wav").read_bytes()
    cases = [(good[:30], "bad header"), (good[:-3], "data chunk holds 127997 bytes")]
    for data, part in cases:
        path = tmp_path / "bad.wav"
        path.write_bytes(data)
        with pytest.raises(InputFormatError, match=f"^WAV file {re.escape(str(path))}: {part}"):
            read_wav(path)
    with pytest.raises(InputFormatError, match="cannot open"):
        read_wav(tmp_path / "absent.wav")


def test_mutated_wav_files_raise_only_input_format_errors(tmp_path):
    # A damaged header or a short file must fail as an InputFormatError (CLI
    # exit 2), never as a bare error from the wave module or numpy.
    write_wav(tmp_path / "small.wav", np.arange(-500, 500))
    good = (tmp_path / "small.wav").read_bytes()
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(1500):
        data = bytearray(good)
        data[int(rng.integers(64))] = int(rng.integers(256))
        cases.append(bytes(data))
    cases += [good[:n] for n in range(len(good))]
    refused = 0
    for data in cases:
        try:
            read_wav(_written(tmp_path, data))
        except InputFormatError:
            refused += 1
    assert refused > len(good)


def _written(tmp_path, data: bytes):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(data)
    return path


def test_chunk_default_centered():
    clip = np.arange(160000)  # 10 s
    chunks = chunk_audio(clip, 51200, all_chunks=False)
    assert len(chunks) == 1
    # patch centered on the clip middle: starts at 5.0 s - 1.6 s
    assert chunks[0][0] == 160000 // 2 - 25600
    assert len(chunks[0]) == 51200


def test_chunk_short_zero_padded():
    clip = np.ones(16000, dtype=np.int16)
    chunks = chunk_audio(clip, 51200, all_chunks=False)
    assert len(chunks) == 1
    assert len(chunks[0]) == 51200
    assert (chunks[0][16000:] == 0).all()


def test_chunk_all_mode():
    clip = np.zeros(160000, dtype=np.int16)
    chunks = chunk_audio(clip, 51200, all_chunks=True)
    assert len(chunks) == 3  # trailing 6400-sample remainder discarded
    clip = np.zeros(40000, dtype=np.int16)
    assert len(chunk_audio(clip, 51200, all_chunks=True)) == 1  # only chunk, padded


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_extract_silence(workdir, frontend_cfg):
    out = workdir / "sil.bft"
    assert main(["extract", "--wav", str(workdir / "silence.wav"),
                 "--out", str(out)]) == 0
    patches, cfg = load_features(out.read_bytes())
    assert len(patches) == 1
    direct = mel_spectrogram(np.zeros(51200, dtype=np.int16), cfg)
    assert (patches[0].values == direct.values).all()


def test_extract_all_chunks(workdir):
    out = workdir / "ten.bft"
    assert main(["extract", "--wav", str(workdir / "ten_sec.wav"),
                 "--out", str(out), "--all-chunks"]) == 0
    patches, _ = load_features(out.read_bytes())
    assert len(patches) == 3


def test_infer_deterministic_stdout(workdir, capsys):
    argv = ["infer", "--model", str(workdir / "model.bsed"),
            "--wav", str(workdir / "tone.wav"), "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert 0 <= payload["prediction"] < 28
    assert len(payload["scores"]) == 28


def test_infer_reports_saturation_on_stderr(workdir, capsys):
    argv = ["infer", "--model", str(workdir / "model.bsed"),
            "--wav", str(workdir / "silence.wav")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert re.fullmatch(r"time: frontend \d+\.\d{4}s, network \d+\.\d{4}s, "
                        r"saturated 0\n", err)
    assert re.fullmatch(r"prediction: \d+\nscores:( -?\d+){28}\n", out)
    # At Q11 the features span +-16, so silence's log floor, ln(1e-10) =
    # -23.0, clips in every one of the 64 x 400 values.  Stdout is unchanged.
    save_file(gen_random_model(1, FrontendConfig(output_qformat=11)), workdir / "q11.bsed")
    assert main(["infer", "--model", str(workdir / "q11.bsed"),
                 "--wav", str(workdir / "silence.wav")]) == 0
    out_q11, err = capsys.readouterr()
    assert err.endswith(", saturated 25600\n")
    assert re.fullmatch(r"prediction: \d+\nscores:( -?\d+){28}\n", out_q11)


def test_extract_reports_saturation_total_on_stderr(workdir, capsys, monkeypatch):
    out = workdir / "sat.bft"
    argv = ["extract", "--wav", str(workdir / "ten_sec.wav"), "--out", str(out),
            "--all-chunks"]
    assert main(argv) == 0
    assert capsys.readouterr() == (f"wrote 3 patch(es) to {out}\n",
                                   "saturated 0 feature values\n")
    # 3 silent patches at Q11: every value clips (see the infer test above)
    monkeypatch.setattr(frontend, "FrontendConfig",
                        functools.partial(FrontendConfig, output_qformat=11))
    assert main(argv) == 0
    assert capsys.readouterr() == (f"wrote 3 patch(es) to {out}\n",
                                   "saturated 76800 feature values\n")
    patches, _ = load_features(out.read_bytes())
    assert [p.qformat for p in patches] == [11, 11, 11]


def test_infer_tiled_matches_monolithic(workdir, capsys):
    base = ["--model", str(workdir / "model.bsed"),
            "--wav", str(workdir / "tone.wav"), "--json"]
    assert main(["infer"] + base) == 0
    mono = json.loads(capsys.readouterr().out)
    assert main(["infer", "--tiled", "--tiles", "4"] + base) == 0
    tiled = json.loads(capsys.readouterr().out)
    assert mono["scores"] == tiled["scores"]
    assert mono["prediction"] == tiled["prediction"]


def test_infer_tiled_default_is_l1_tile_count(workdir, capsys, caplog):
    # 6 tiles is the fewest whose working set fits the 64 KiB L1 budget on
    # the reference topology; stdout equals the monolithic run's.
    base = ["--model", str(workdir / "model.bsed"),
            "--wav", str(workdir / "tone.wav"), "--json"]
    assert main(["infer"] + base) == 0
    mono = json.loads(capsys.readouterr().out)
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    assert main(["infer", "--tiled", "--threads", "1"] + base) == 0
    tiled = json.loads(capsys.readouterr().out)
    assert {**tiled, "mode": "monolithic"} == mono
    assert any("tile plan: 6 tiles, 1 workers, halo 20" in r.getMessage()
               for r in caplog.records)


def test_infer_tiles_implies_tiled(workdir, capsys, caplog):
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    assert main(["infer", "--model", str(workdir / "model.bsed"), "--wav",
                 str(workdir / "tone.wav"), "--tiles", "3", "--threads", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "tiled"
    assert any("tile plan: 3 tiles, 1 workers" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("flag, value, message", [
    ("--tiles", "0", "tile count must be in [1, 100], got 0"),
    ("--threads", "0", "threads must be >= 1, got 0"),
    ("--threads", "-5", "threads must be >= 1, got -5"),
], ids=["tiles_0", "threads_0", "threads_minus_5"])
def test_infer_refuses_counts_below_one(workdir, capsys, flag, value, message):
    assert main(["infer", "--model", str(workdir / "model.bsed"),
                 "--wav", str(workdir / "silence.wav"), flag, value]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["infer", "--model", "m", "--wav", "w", "--monolithic"],
    ["quantize", "--float", "f", "--out", "o", "--qformat-bits", "32"],
    ["bench", "--model", "m", "--wav", "w"],
], ids=["monolithic", "qformat_bits", "bench_wav"])
def test_retired_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_infer_oracle_flag(workdir, capsys):
    assert main(["infer", "--model", str(workdir / "model.bsed"),
                 "--wav", str(workdir / "silence.wav"), "--oracle", "--json"]) == 0
    err = capsys.readouterr().err
    assert "oracle agreement: True" in err


def test_gen_model_and_quantize_agree(workdir, capsys):
    m1 = workdir / "g1.bsed"
    fm = workdir / "g1.npz"
    assert main(["gen-model", "--seed", "11", "--out", str(m1),
                 "--float-out", str(fm)]) == 0
    capsys.readouterr()
    m2 = workdir / "g2.bsed"
    assert main(["quantize", "--float", str(fm), "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_quantize_refuses_model_infer_cannot_load(workdir, capsys):
    fm = workdir / "narrow.npz"
    save_float_model(gen_random_float_model(3, input_shape=(64, 200, 1)), fm)
    out = workdir / "narrow.bsed"
    assert main(["quantize", "--float", str(fm), "--out", str(out)]) == 2
    assert not out.exists()
    assert "network input_shape (64, 200, 1) does not match the frontend patch shape " \
        "(64, 400, 1)" in capsys.readouterr().err


def test_gen_model_describe(workdir, capsys):
    assert main(["gen-model", "--seed", "1", "--out", str(workdir / "d.bsed"),
                 "--describe"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert len(spec["layers"]) == 7


def test_footprint_json(workdir, capsys):
    assert main(["footprint", "--model", str(workdir / "model.bsed"),
                 "--tiles", "4", "--json"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    total = rows[-1]
    assert total["row"] == "Total"
    assert total["weight_bytes"] == 58176
    assert total["fits_l2"] is True


def test_footprint_fixed16_prices_its_tiles(workdir, capsys):
    # L3's and L4's weights at 2 B each are 884,736 B before any activation
    assert main(["footprint", "--model", str(workdir / "model.bsed"),
                 "--variant", "fixed16", "--tiles", "4", "--json"]) == 0
    total = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert total["tile_peak_bytes"] == 1152000
    assert total["fits_l1"] is False


def test_footprint_zero_tiles_exits_2(workdir, capsys):
    assert main(["footprint", "--model", str(workdir / "model.bsed"), "--tiles", "0"]) == 2
    assert "tile count must be in [1, 100], got 0" in capsys.readouterr().err


def test_footprint_strict_fixed16_exits_5(workdir, capsys):
    assert main(["footprint", "--model", str(workdir / "model.bsed"),
                 "--variant", "fixed16", "--strict"]) == 5
    capsys.readouterr()


def test_bench_json_rows(workdir, capsys):
    assert main(["bench", "--model", str(workdir / "model.bsed"),
                 "--reps", "1", "--no-naive", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(l) for l in lines]
    names = [r.get("row") for r in rows if "row" in r]
    assert names[0] == "Mel bins" and names[-1] == "Total"
    assert len(names) == 9


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_bad_wav_exits_2(workdir, capsys):
    assert main(["infer", "--model", str(workdir / "model.bsed"),
                 "--wav", str(workdir / "stereo.wav")]) == 2
    capsys.readouterr()


def test_corrupt_model_exits_3(workdir, capsys):
    bad = workdir / "corrupt.bsed"
    blob = bytearray((workdir / "model.bsed").read_bytes())
    blob[40] ^= 0xFF
    bad.write_bytes(bytes(blob))
    assert main(["infer", "--model", str(bad),
                 "--wav", str(workdir / "silence.wav")]) == 3
    capsys.readouterr()


def test_truncated_model_exits_3(workdir, capsys):
    bad = workdir / "trunc.bsed"
    bad.write_bytes((workdir / "model.bsed").read_bytes()[:100])
    assert main(["infer", "--model", str(bad),
                 "--wav", str(workdir / "silence.wav")]) == 3
    capsys.readouterr()


def test_output_shift_beyond_range_exits_3(workdir, reference_model, capsys):
    path = workdir / "shift60.bsed"
    path.write_bytes(save(with_output_shift(reference_model, 6, 60)))
    assert main(["infer", "--model", str(path),
                 "--wav", str(workdir / "silence.wav")]) == 3
    assert "layer 6: output_shift 60" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"window": 400}, "frontend config: window must cover 32 ms"),
    ({"output_qformat": 11}, "network input_qformat 10 does not match frontend "
                             "output_qformat 11"),
    ({"fft_size": 10 ** 9}, "frontend config: fft_size must be in [window, 8 * window]"),
    ({"sample_rate": 48000, "window": 1536, "hop": 384, "fft_size": 2048},
     "frontend config: sample_rate must be 16000 Hz"),
], ids=["window", "qformat", "fft_size", "sample_rate"])
def test_inconsistent_frontend_exits_3(workdir, reference_model, capsys, fields, message):
    path = workdir / "frontend.bsed"
    path.write_bytes(save(with_frontend_fields(reference_model, **fields)))
    assert main(["infer", "--model", str(path),
                 "--wav", str(workdir / "silence.wav")]) == 3
    assert message in capsys.readouterr().err


def test_layer_kind_order_exits_3(workdir, reference_model, capsys):
    path = workdir / "binary_first.bsed"
    path.write_bytes(save(with_layers(reference_model, binary_first_layers(reference_model))))
    assert main(["infer", "--model", str(path),
                 "--wav", str(workdir / "silence.wav")]) == 3
    assert "network: layer kinds must run fixed_conv" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["no_layers.npz", "one_array.npy"])
def test_malformed_float_archive_exits_2(workdir, capsys, name):
    path = workdir / name
    if name.endswith(".npz"):
        np.savez(path, meta=np.array(json.dumps({"input_shape": [64, 400, 1],
                                                 "classes": 28})))
    else:
        np.save(path, np.zeros(3))
    assert main(["quantize", "--float", str(path),
                 "--out", str(workdir / "never.bsed")]) == 2
    assert "not a float model archive" in capsys.readouterr().err
    assert not (workdir / "never.bsed").exists()


def test_damaged_float_archive_exits_2(workdir, capsys):
    # a member whose bytes no longer match its CRC is read only when quantize
    # reaches it; it must still exit 2 and write nothing
    path = workdir / "damaged.npz"
    save_float_model(gen_random_float_model(2), path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    out = workdir / "never.bsed"
    assert main(["quantize", "--float", str(path), "--out", str(out)]) == 2
    assert re.search(r"not a float model archive: .*damaged\.npz: member layer\d_\w+: Bad CRC-32",
                     capsys.readouterr().err)
    assert not out.exists()


def test_shape_mismatch_exits_3(workdir, reference_model, capsys):
    # a model whose declared input width disagrees with its frontend's frames
    # is refused at load, so infer never reaches the executor's shape check
    h, w, c = reference_model.network.input_shape
    twisted = Model(
        NetworkSpec(reference_model.network.layers, (h, w // 2, c),
                    reference_model.network.input_qformat,
                    reference_model.network.classes),
        reference_model.frontend)
    path = workdir / "twisted.bsed"
    path.write_bytes(save(twisted))
    assert main(["infer", "--model", str(path),
                 "--wav", str(workdir / "silence.wav")]) == 3
    assert "network input_shape (64, 200, 1) does not match" in capsys.readouterr().err
