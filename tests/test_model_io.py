import hashlib
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings

from binsed import (
    FixedTensor,
    FrontendConfig,
    binarize_weights,
    choose_qformat,
    fold_batchnorm,
    footprint,
    gen_random_model,
    load,
    load_features,
    run_monolithic,
    save,
    save_features,
    unpack_weights,
)
from binsed.errors import (
    BadMagicError,
    CrcError,
    InputFormatError,
    ModelFormatError,
    TrailingDataError,
    TruncatedError,
    VersionError,
)
from binsed.model_io import (
    gen_random_float_model,
    load_float_model,
    network_spec_json,
    quantize_model,
    save_float_model,
)
from tests.conftest import (
    binary_first_layers,
    random_mel_input,
    small_topologies,
    with_fixed_fields,
    with_frontend_fields,
    with_layers,
    with_output_shift,
)


# ---------------------------------------------------------------------------
# qformat selection
# ---------------------------------------------------------------------------


def test_qformat_uniform_unit_interval():
    rng = np.random.default_rng(0)
    assert choose_qformat(rng.uniform(-1, 1, 20000), 16) == 15


def test_qformat_wide_range():
    rng = np.random.default_rng(1)
    # needs 8 integer bits to cover 99.9% of [-200, 200]
    assert choose_qformat(rng.uniform(-200, 200, 20000), 16) == 7


def test_qformat_all_zero_degenerate():
    assert choose_qformat([0.0], 16) == 15
    assert choose_qformat(np.zeros(10), 32) == 31


def test_qformat_monotone_under_larger_values():
    rng = np.random.default_rng(2)
    base = rng.uniform(-3, 3, 5000)
    f0 = choose_qformat(base, 16)
    for scale in (2, 10, 100):
        grown = np.concatenate([base, np.full(100, scale * 3.0)])
        assert choose_qformat(grown, 16) <= f0


def test_qformat_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        choose_qformat([], 16)
    with pytest.raises(ValueError):
        choose_qformat([1.0, np.nan], 16)


# ---------------------------------------------------------------------------
# batch-norm folding
# ---------------------------------------------------------------------------


def test_fold_identity_bn():
    f = fold_batchnorm([1.0], [0.0], [0.0], [1.0], acc_range=(-100, 100))
    assert f.polarity[0] == 1 and f.threshold[0] == 0


def test_fold_worked_example():
    # BN(x) = 2(x-3) - 1 >= 0  <=>  x >= 3.5
    f = fold_batchnorm([2.0], [-1.0], [3.0], [1.0], acc_range=(-100, 100))
    assert f.polarity[0] == 1 and f.threshold[0] == 4


def test_fold_negative_gamma():
    # BN(x) = -(x-0)/2 >= 0  <=>  x <= 0
    f = fold_batchnorm([-1.0], [0.0], [0.0], [2.0], acc_range=(-100, 100))
    assert f.polarity[0] == -1 and f.threshold[0] == 0


def test_fold_rejects_zero_gamma():
    with pytest.raises(ValueError, match="gamma is zero"):
        fold_batchnorm([0.0], [0.0], [0.0], [1.0])


def test_fold_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="sigma"):
        fold_batchnorm([1.0], [0.0], [0.0], [0.0])


def test_fold_with_value_scale():
    # value = x * 2**-3; BN(v) = v - 1 >= 0  <=>  x >= 8
    f = fold_batchnorm([1.0], [-1.0], [0.0], [1.0], value_qformat=3,
                       acc_range=(-50, 50))
    assert f.threshold[0] == 8


def test_fold_random_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(200):
        gamma = rng.uniform(0.1, 4.0, 4) * rng.choice([-1.0, 1.0], 4)
        beta = rng.normal(0, 2, 4)
        mu = rng.normal(0, 10, 4)
        sigma = rng.uniform(0.3, 20, 4)
        fold_batchnorm(gamma, beta, mu, sigma, acc_range=(-1152, 1152))


# ---------------------------------------------------------------------------
# weight binarization
# ---------------------------------------------------------------------------


def test_binarize_weights_signs():
    w = np.array([[[[0.3, -0.7]]]])
    assert unpack_weights(binarize_weights(w)).ravel().tolist() == [1, -1]


def test_binarize_weights_zero_is_plus_one():
    w = np.zeros((1, 1, 1, 1))
    assert unpack_weights(binarize_weights(w)).ravel().tolist() == [1]


def test_binarize_weights_rejects_nan():
    w = np.zeros((1, 1, 1, 2))
    w[0, 0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        binarize_weights(w)


def test_binarize_weights_random_oracle():
    rng = np.random.default_rng(4)
    w = rng.normal(0, 1, (3, 3, 3, 40))
    got = unpack_weights(binarize_weights(w))
    want = np.where(w >= 0, 1, -1)
    assert (got == want).all()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_save_load_save_identical_bytes(reference_model):
    blob = save(reference_model)
    again = save(load(blob))
    assert blob == again


def test_roundtrip_preserves_inference(reference_model):
    rng = np.random.default_rng(5)
    x = random_mel_input(rng)
    before = run_monolithic(x, reference_model.network)
    after = run_monolithic(x, load(save(reference_model)).network)
    assert (before.scores == after.scores).all()
    assert before.prediction == after.prediction


@settings(max_examples=30, deadline=None)
@given(small_topologies())
def test_roundtrip_over_random_topologies(case):
    # 400 frames and the topology's mel bins make the frontend's patch, so load accepts it
    table, (h, _, _), classes, seed = case
    fm = gen_random_float_model(seed, table=table, input_shape=(h, 400, 1), classes=classes)
    model = quantize_model(fm, FrontendConfig(mel_bins=h))
    blob = save(model)
    back = load(blob)
    assert save(back) == blob
    x = random_mel_input(np.random.default_rng(seed), model.frontend)
    before = run_monolithic(x, model.network)
    assert (run_monolithic(x, back.network).scores == before.scores).all()


def test_truncation_detected(reference_model):
    blob = save(reference_model)
    with pytest.raises(TruncatedError, match=rf"^container is {len(blob) - 1} bytes, "
                                             rf"expected {len(blob)}$"):
        load(blob[:-1])
    with pytest.raises(TruncatedError, match="^container is 5 bytes, header needs 12$"):
        load(blob[:5])


def test_bad_magic_detected(reference_model):
    blob = save(reference_model)
    with pytest.raises(BadMagicError, match=r"bad magic b'XXXX', expected b'BSED'"):
        load(b"XXXX" + blob[4:])


def test_version_mismatch_detected(reference_model):
    blob = bytearray(save(reference_model))
    blob[4] = 99
    with pytest.raises(VersionError, match="^format version 99, this build reads 1$"):
        load(bytes(blob))


def test_crc_detected(reference_model):
    blob = bytearray(save(reference_model))
    blob[100] ^= 0xFF  # flip a payload bit
    with pytest.raises(CrcError, match="^payload CRC mismatch$"):
        load(bytes(blob))


def test_trailing_bytes_rejected(reference_model):
    blob = save(reference_model)
    with pytest.raises(TrailingDataError, match="^1 unexpected trailing bytes$"):
        load(blob + b"\x00")
    # a layer count of 6 leaves the seventh layer unread in the payload
    with pytest.raises(TrailingDataError, match=r"^\d+ unexpected trailing payload bytes$"):
        load(with_payload_bytes(blob, 52 + 10, struct.pack("<H", 6)))


@pytest.mark.parametrize("layer_index, shift", [(6, 53), (6, 60), (6, 255), (0, 60)])
def test_output_shift_beyond_exact_range_rejected_at_load(reference_model,
                                                          layer_index, shift):
    blob = save(with_output_shift(reference_model, layer_index, shift))
    with pytest.raises(ModelFormatError,
                       match=rf"layer {layer_index}: output_shift {shift} "):
        load(blob)


def test_output_shift_at_exact_limit_loads(reference_model):
    model = load(save(with_output_shift(reference_model, 6, 52)))
    assert model.network.layers[6].fixed.output_shift == 52


@pytest.mark.parametrize("fields, message", [
    ({"window": 400}, "frontend config: window must cover 32 ms"),
    ({"log_floor": 0.0}, "frontend config: log_floor must be a finite number > 0"),
    ({"log_floor": -1e-10}, "frontend config: log_floor must be a finite number > 0"),
    ({"sample_rate": 48000, "window": 1536, "hop": 384, "fft_size": 2048},
     "frontend config: sample_rate must be 16000 Hz, got 48000"),
    ({"fft_size": 4097}, r"frontend config: fft_size must be in \[window, 8 \* window\]"),
    ({"hop": 160}, "frontend config: hop must cover 8 ms"),
    ({"frames": 401}, r"frontend config: frames \* hop must cover 3.2 s"),
    ({"fmax": 8000.5}, "frontend config: need 0 <= fmin < fmax <= Nyquist"),
], ids=["window", "zero_log_floor", "negative_log_floor", "sample_rate", "fft_size",
        "hop", "frames", "fmax"])
def test_invalid_frontend_config_rejected_at_load(reference_model, fields, message):
    blob = save(with_frontend_fields(reference_model, **fields))
    with pytest.raises(ModelFormatError, match=message):
        load(blob)


def test_invalid_frontend_config_in_feature_file_rejected(reference_model):
    cfg = with_frontend_fields(reference_model, window=400).frontend
    blob = save_features(random_mel_input(np.random.default_rng(0)), cfg)
    with pytest.raises(ModelFormatError, match="frontend config: window must cover 32 ms"):
        load_features(blob)


def test_frontend_network_qformat_mismatch_rejected_at_load(reference_model):
    blob = save(with_frontend_fields(reference_model, output_qformat=9))
    with pytest.raises(ModelFormatError,
                       match="network input_qformat 10 does not match "
                             "frontend output_qformat 9"):
        load(blob)


def with_payload_bytes(blob: bytes, offset: int, value: bytes) -> bytes:
    """The container with payload bytes [offset, offset + len(value)) replaced
    and the CRC recomputed, as a model written elsewhere might read."""
    data = bytearray(blob)
    data[12 + offset:12 + offset + len(value)] = value
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[12:-4])))
    return bytes(data)


def test_huge_fft_size_rejected_at_load(reference_model):
    # fft_size is the frontend block's fourth u32; a mel_spectrogram of this
    # size would ask for a (400, 500000001) complex array
    blob = with_payload_bytes(save(reference_model), 12, struct.pack("<I", 10 ** 9))
    with pytest.raises(TruncatedError, match=r"frontend config: fft_size must be in "
                                             r"\[window, 8 \* window\] = \[512, 4096\], "
                                             r"got 1000000000"):
        load(blob)


@pytest.mark.parametrize("layer_index, input_qformat", [(0, 10), (6, 0)])
def test_bias_qformat_off_accumulator_scale_rejected_at_load(reference_model, layer_index,
                                                            input_qformat):
    wq = reference_model.network.layers[layer_index].fixed.weights_qformat
    wrong = input_qformat + wq + (1 if layer_index == 0 else 10)
    blob = save(with_fixed_fields(reference_model, layer_index, bias_qformat=wrong))
    with pytest.raises(TruncatedError,
                       match=rf"^network: layer {layer_index}: bias_qformat {wrong} is not "
                             rf"the input qformat {input_qformat} plus weights_qformat {wq}$"):
        load(blob)


def test_layer_kind_order_rejected_at_load(reference_model):
    blob = save(with_layers(reference_model, binary_first_layers(reference_model)))
    with pytest.raises(TruncatedError, match="network: layer kinds must run fixed_conv, "
                                             "any number of binary_conv, then final_conv"):
        load(blob)


def test_patch_shape_mismatch_rejected_at_load(reference_model):
    # the network header follows the 52-byte frontend block: height, width, channels
    blob = with_payload_bytes(save(reference_model), 52 + 2, struct.pack("<H", 200))
    with pytest.raises(TruncatedError,
                       match=r"network input_shape \(64, 200, 1\) does not match the "
                             r"frontend patch shape \(64, 400, 1\)"):
        load(blob)


# Payload offsets in the seed-1 reference model: the network header at 52
# (its layer count at 62), layer 0's header at 64, its fixed-point header at
# 72, its int16 weights at 80, its fold polarity at 784 and layer 1's header
# at 944.
@pytest.mark.parametrize("offset, value, message", [
    (64 + 3, b"\x03", "layer 0: stride must be 1 or 2, got 3"),
    (72 + 3, b"\x08", "layer 0: output_bitwidth 8 is not 16 or 32"),
    (72 + 4, b"\x00", "layer 0: binarizing fixed layer needs a fold"),
    (80, struct.pack("<h", 32767), "layer 0: weights and bias: worst-case accumulator"),
    (784, b"\x02", "layer 0: polarity entries must be -1 or \\+1"),
    (944 + 4, struct.pack("<H", 31), "network: layer 1 expects 31 input channels, gets 32"),
    (52 + 8, struct.pack("<H", 27), "network: final layer emits 28 channels, expected 27"),
    (64, b"\x07", "unknown layer kind code 7"),
    (72 + 5, b"\x08", "bad weight storage width 8"),
    (52 + 10, struct.pack("<H", 8), r"payload ends at byte \d+, needed \d+"),
], ids=["stride", "output_bitwidth", "has_fold", "accumulator", "polarity",
        "in_channels", "classes", "kind_code", "weight_storage", "layer_count"])
def test_load_refusals_name_layer_and_field(reference_model, offset, value, message):
    with pytest.raises(TruncatedError, match=message):
        load(with_payload_bytes(save(reference_model), offset, value))


def mutations(blob: bytes, span: int, count: int, seed: int):
    """count copies of blob, each with one byte of the first span payload
    bytes changed and the CRC recomputed."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        offset = int(rng.integers(span))
        old = blob[12 + offset]
        yield with_payload_bytes(blob, offset, bytes([(old + int(rng.integers(1, 256))) % 256]))


@pytest.mark.parametrize("span", [264, None], ids=["headers", "anywhere"])
def test_mutated_models_raise_only_model_format_errors(reference_model, span):
    # Past the CRC, a corrupt field must still fail as a ModelFormatError
    # (CLI exit 3), never as a bare ValueError (exit 2) or a crash.
    blob = save(reference_model)
    refused = 0
    for data in mutations(blob, span or len(blob) - 16, 1500, seed=6):
        try:
            load(data)
        except ModelFormatError:
            refused += 1
    assert refused > 0


def test_mutated_feature_files_raise_only_model_format_errors(frontend_cfg):
    blob = save_features([random_mel_input(np.random.default_rng(0))], frontend_cfg)
    refused = 0
    for data in mutations(blob, 52 + 12, 1500, seed=7):
        try:
            load_features(data)
        except ModelFormatError:
            refused += 1
    assert refused > 0


def test_flipped_float_archives_raise_only_input_format_errors(tmp_path):
    # A float archive's members are read lazily, past np.load; a flipped bit
    # anywhere must fail as an InputFormatError (CLI exit 2), never as a bare
    # BadZipFile or a .npy header parse error.
    table = (("fixed_conv", 3, 3, 16, 1), ("binary_conv", 3, 3, 16, 1),
             ("final_conv", 1, 1, 4, 1))
    path = tmp_path / "fm.npz"
    save_float_model(gen_random_float_model(3, table=table, input_shape=(3, 20, 1),
                                            classes=4), path)
    good = path.read_bytes()
    rng = np.random.default_rng(9)
    refused = 0
    for _ in range(200):
        data = bytearray(good)
        for _ in range(int(rng.integers(1, 5))):
            data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(data))
        try:
            load_float_model(path)
        except InputFormatError:
            refused += 1
    assert refused > 150


# ---------------------------------------------------------------------------
# random model generation
# ---------------------------------------------------------------------------


def test_gen_model_deterministic():
    assert save(gen_random_model(3)) == save(gen_random_model(3))
    assert save(gen_random_model(3)) != save(gen_random_model(4))


def test_gen_models_pass_fold_verification():
    # construction runs the exhaustive fold check internally
    for seed in range(1, 21):
        gen_random_model(seed)


def test_gen_model_matches_reference_footprint(reference_model):
    from binsed import footprint

    report = footprint(reference_model.network)
    assert report["weight_bytes"] == 58176


def test_stored_weight_width_is_priced(reference_model):
    # one weight past int16 makes the final layer store, and price, 4 B per weight
    weights = reference_model.network.layers[6].fixed.weights.copy()
    weights[0, 0, 0, 0] = 40000
    model = with_fixed_fields(reference_model, 6, weights=weights)
    assert model.network.layers[6].weight_bytes() == 4 * weights.size
    assert footprint(model.network)["weight_bytes"] == 58176 + 2 * weights.size
    assert len(save(model)) == len(save(reference_model)) + 2 * weights.size
    assert load(save(model)).network.layers[6].fixed.weight_bits == 32


def test_int32_min_weight_is_stored_and_refused(reference_model):
    # |INT32_MIN| is not an int32: the width and the accumulator bound see it
    weights = reference_model.network.layers[6].fixed.weights.copy()
    weights[0, 0, 0, 0] = -2 ** 31
    model = with_fixed_fields(reference_model, 6, weights=weights)
    assert model.network.layers[6].fixed.weight_bits == 32
    with pytest.raises(TruncatedError, match="^layer 6: weights and bias: worst-case "
                                             "accumulator 274877910280 overflows"):
        load(save(model))


def test_saved_model_bytes_are_pinned(reference_model):
    # the seed-1 model file must keep its bytes: the format is byte-stable
    assert hashlib.sha256(save(reference_model)).hexdigest() == \
        "394af2fdde442705bbd01aa3f25e8feb8aa72b7428aff4f23ff6a98dfe5e2cb9"


def test_quantize_model_equals_gen(reference_model):
    fm = gen_random_float_model(1)
    assert save(quantize_model(fm)) == save(reference_model)


# ---------------------------------------------------------------------------
# feature files and float archives
# ---------------------------------------------------------------------------


def test_features_roundtrip(frontend_cfg):
    from binsed import mel_spectrogram

    rng = np.random.default_rng(6)
    audio = (rng.uniform(-0.5, 0.5, 51200) * 32767).astype(np.int16)
    patch = mel_spectrogram(audio, frontend_cfg)
    blob = save_features([patch, patch], frontend_cfg)
    patches, cfg = load_features(blob)
    assert len(patches) == 2
    assert cfg == frontend_cfg
    assert (patches[0].values == patch.values).all()
    assert patches[0].qformat == patch.qformat


def test_feature_patches_are_int16_at_their_priced_size(reference_model, frontend_cfg):
    from binsed import mel_spectrogram
    from binsed.executor import _boundary_bytes

    audio = (np.random.default_rng(7).uniform(-0.5, 0.5, 51200) * 32767).astype(np.int16)
    patch = mel_spectrogram(audio, frontend_cfg)
    (loaded,), _ = load_features(save_features(patch, frontend_cfg))
    priced = _boundary_bytes(reference_model.network, 0, 64, 400, "binary")
    assert priced == 51_200
    for p in (patch, loaded):
        assert p.values.dtype == np.int16
        assert p.values.nbytes == priced


def test_saved_feature_bytes_are_pinned(frontend_cfg):
    rng = np.random.default_rng(8)
    blob = save_features([random_mel_input(rng) for _ in range(3)], frontend_cfg)
    assert len(blob) == 12 + 52 + 12 + 3 * 64 * 400 * 2 + 4
    assert hashlib.sha256(blob).hexdigest() == \
        "209891dcf2a08e4d10ccf0ff0ffef6c30c619bcd01278befd4820ff10e1a2ab7"


def traced_peak(fn):
    """tracemalloc peak of one call of fn, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def recording():
    """64 s of int16 noise: 20 consecutive 3.2 s patches."""
    rng = np.random.default_rng(12)
    return (rng.uniform(-0.5, 0.5, 20 * 51200) * 32767).astype(np.int16)


def extract(recording, cfg):
    """What `binsed extract --all-chunks` does, with the file kept in memory."""
    from binsed import mel_spectrogram
    from binsed.cli import chunk_audio

    return save_features([mel_spectrogram(c, cfg)
                          for c in chunk_audio(recording, cfg.patch_samples, True)], cfg)


def test_extract_peak_memory(recording, frontend_cfg):
    # The int16 patches, which are the payload's parts as they are, and the
    # joined file are the large arrays; the container is written without a
    # further copy.
    blob = extract(recording, frontend_cfg)  # warm-up: window and filterbank caches
    peak = traced_peak(lambda: extract(recording, frontend_cfg))
    patches = 20 * 64 * 400 * 2
    bound = patches + 2 * len(blob) + 256 * 1024
    assert peak < bound, f"peak {peak:,} B, bound {bound:,} B"


def test_load_features_peak_memory(recording, frontend_cfg):
    # Only the int16 patches themselves: the payload is read through a view
    # and each patch copied out of it once, with no widening.
    blob = extract(recording, frontend_cfg)
    peak = traced_peak(lambda: load_features(blob))
    bound = 20 * 64 * 400 * 2 + 256 * 1024
    assert peak < bound, f"peak {peak:,} B, bound {bound:,} B"


def test_save_features_refuses_32_bit_patches(frontend_cfg):
    # int16 storage would wrap 70,000 to 4,464
    patch = FixedTensor(1, 1, 1, np.array([[[70000]]], dtype=np.int32), 10, 32)
    with pytest.raises(ValueError, match="feature patches are 16-bit, got bitwidth 32"):
        save_features(patch, frontend_cfg)


def test_feature_bitwidth_other_than_16_rejected(frontend_cfg):
    # the patch header's bitwidth byte follows the frontend block, the count and the qformat
    blob = save_features([random_mel_input(np.random.default_rng(0))], frontend_cfg)
    with pytest.raises(TruncatedError, match="^feature bitwidth 32 is not 16$"):
        load_features(with_payload_bytes(blob, 52 + 3, b"\x20"))


def test_feature_truncation_detected(frontend_cfg):
    from binsed import mel_spectrogram

    patch = mel_spectrogram(np.zeros(51200), frontend_cfg)
    blob = save_features(patch, frontend_cfg)
    with pytest.raises(TruncatedError):
        load_features(blob[:-2])


def test_float_model_archive_roundtrip(tmp_path):
    fm = gen_random_float_model(9)
    path = tmp_path / "fm.npz"
    save_float_model(fm, path)
    back = load_float_model(path)
    assert save(quantize_model(back)) == save(quantize_model(fm))


def test_float_archive_without_layers_rejected(tmp_path):
    path = tmp_path / "fm.npz"
    np.savez(path, meta=np.array(json.dumps({"input_shape": [64, 400, 1], "classes": 28})))
    with pytest.raises(InputFormatError, match="bad meta entry 'layers'"):
        load_float_model(path)


def test_single_array_file_rejected_as_float_archive(tmp_path):
    path = tmp_path / "fm.npy"
    np.save(path, np.zeros(3))
    with pytest.raises(InputFormatError, match="holds a single array, not an .npz archive"):
        load_float_model(path)


def test_network_spec_json(reference_model):
    import json

    spec = json.loads(network_spec_json(reference_model))
    assert spec["input_shape"] == [64, 400, 1]
    assert spec["classes"] == 28
    assert len(spec["layers"]) == 7
    assert spec["layers"][1]["kind"] == "binary_conv"
    assert spec["layers"][1]["stride"] == 2
