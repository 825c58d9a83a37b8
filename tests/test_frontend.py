import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binsed import (
    FrontendConfig,
    mel_filterbank,
    mel_scale,
    mel_spectrogram,
    mel_to_hz,
    stft_power,
)
from binsed.errors import InputFormatError
from binsed.frontend import STFT_BLOCK_BYTES, _hann, stft_block_frames
from binsed.oracle import direct_dft


def test_mel_scale_anchor_points():
    assert mel_scale(0.0) == 0.0
    assert mel_scale(700.0) == pytest.approx(2595.0 * math.log10(2.0), abs=1e-9)
    assert mel_scale(700.0) == pytest.approx(781.173, abs=1e-3)
    assert mel_scale(8000.0) == pytest.approx(2840.03, abs=1e-2)


def test_mel_scale_inverse():
    f = np.linspace(0, 8000, 33)
    assert np.allclose(mel_to_hz(mel_scale(f)), f, atol=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        FrontendConfig(fmin=9000.0)


def test_timing_is_fixed():
    cfg = FrontendConfig()
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "fft_size", "mel_bins", "fmin", "fmax", "log_floor", "log_compress", "output_qformat"]
    assert (cfg.sample_rate, cfg.window, cfg.hop, cfg.frames, cfg.patch_samples) == \
        (16000, 512, 128, 400, 51200)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.window = 400


def test_fft_size_at_most_eight_windows():
    assert FrontendConfig(fft_size=4096).spectrum_bins == 2049
    with pytest.raises(ValueError, match="fft_size must be in .* = \\[512, 4096\\], got 4097"):
        FrontendConfig(fft_size=4097)
    with pytest.raises(ValueError, match="got 511"):
        FrontendConfig(fft_size=511)


@pytest.mark.parametrize("floor", [0.0, -1e-10, math.nan, math.inf])
def test_log_floor_must_be_finite_positive(floor):
    with pytest.raises(ValueError, match="log_floor must be a finite number > 0"):
        FrontendConfig(log_floor=floor)


def test_filterbank_is_shared_and_read_only(frontend_cfg):
    fb = mel_filterbank(frontend_cfg)
    assert fb is mel_filterbank(frontend_cfg)
    with pytest.raises(ValueError, match="read-only"):
        fb[0, 0] = 1.0


def test_filterbank_shape_and_positivity(frontend_cfg):
    fb = mel_filterbank(frontend_cfg)
    assert fb.shape == (64, 257)
    assert (fb >= 0).all()
    assert (fb.sum(axis=1) > 0).all()
    # flat spectrum excites every mel bin
    assert (fb @ np.ones(257) > 0).all()


def test_filterbank_covers_interior_bins(frontend_cfg):
    fb = mel_filterbank(frontend_cfg)
    bin_hz = np.arange(257) * frontend_cfg.sample_rate / frontend_cfg.fft_size
    interior = (bin_hz > frontend_cfg.fmin) & (bin_hz < frontend_cfg.fmax)
    assert (fb[:, interior].sum(axis=0) > 0).all()


def test_frame_count_is_400(frontend_cfg):
    p = stft_power(np.zeros(51200), frontend_cfg)
    assert p.shape == (257, 400)
    m = mel_spectrogram(np.zeros(51200), frontend_cfg)
    assert m.shape == (64, 400, 1)


def test_short_audio_zero_padded(frontend_cfg):
    assert stft_power(np.zeros(16000), frontend_cfg).shape == (257, 400)


def test_audio_too_long_rejected(frontend_cfg):
    with pytest.raises(ValueError, match="patch limit"):
        stft_power(np.zeros(51201), frontend_cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_audio_rejected(frontend_cfg, bad):
    audio = np.zeros(51200)
    audio[[1234, 40000]] = bad
    with pytest.raises(InputFormatError, match=r"sample 1234 is -?(nan|inf)"):
        mel_spectrogram(audio, frontend_cfg)


def test_zero_audio_hits_log_floor(frontend_cfg):
    m = mel_spectrogram(np.zeros(51200, dtype=np.int16), frontend_cfg)
    expected = round(math.log(frontend_cfg.log_floor) * 2 ** frontend_cfg.output_qformat)
    assert (m.values == expected).all()


def test_sine_1khz_peaks_at_bin_32(frontend_cfg):
    # 1000 Hz * 512 / 16000 = bin 32 exactly
    t = np.arange(51200)
    audio = np.sin(2 * np.pi * 1000.0 * t / 16000.0)
    p = stft_power(audio, frontend_cfg)
    interior = range(2, 399)  # frames whose window lies inside the signal
    peaks = p[:, interior].argmax(axis=0)
    assert (peaks == 32).all()
    # Hann leakage into the neighbor bins
    assert (p[31, interior] > 0).all() and (p[33, interior] > 0).all()


def test_impulse_affects_only_covering_frames(frontend_cfg):
    audio = np.zeros(51200)
    audio[25600] = 1.0
    p = stft_power(audio, frontend_cfg)
    energy = p.sum(axis=0)
    nonzero = np.nonzero(energy > 1e-20)[0]
    win = _hann(frontend_cfg.window)
    # frame t covers samples [t*hop - 256, t*hop + 256); a frame reacts iff the
    # window weight at the impulse position is nonzero
    expected = []
    for t in range(400):
        i = 25600 - (t * 128 - 256)
        if 0 <= i < 512 and win[i] > 0:
            expected.append(t)
            # impulse spectrum is flat: every bin carries win[i]**2
            assert p[:, t] == pytest.approx(np.full(257, win[i] ** 2), rel=1e-9)
    assert nonzero.tolist() == expected


def gather_power(audio, cfg):
    """The STFT power spectrum with frames gathered through an index matrix."""
    a = audio / 32768.0 if audio.dtype == np.int16 else audio.astype(np.float64)
    a = np.pad(a, (0, cfg.patch_samples - len(a)))
    half = cfg.window // 2
    padded = np.pad(a, (half, half), mode="reflect")
    frames = padded[np.arange(cfg.frames)[:, None] * cfg.hop + np.arange(cfg.window)]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.window) / cfg.window)
    spectra = np.fft.rfft(frames * hann, n=cfg.fft_size, axis=1)
    return (spectra.real ** 2 + spectra.imag ** 2).T


@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 51200), pcm=st.booleans(),
       fft_size=st.integers(512, 4096), seed=st.integers(0, 2 ** 32 - 1))
@example(length=1, pcm=True, fft_size=512, seed=0)
@example(length=51200, pcm=False, fft_size=512, seed=0)
@example(length=51200, pcm=True, fft_size=4096, seed=1)
def test_stft_power_equals_index_gather(length, pcm, fft_size, seed):
    cfg = FrontendConfig(fft_size=fft_size)
    rng = np.random.default_rng(seed)
    if pcm:
        audio = rng.integers(-32768, 32768, length).astype(np.int16)
    else:
        audio = rng.uniform(-1.0, 1.0, length)
    p = stft_power(audio, cfg)
    assert p.shape == (fft_size // 2 + 1, cfg.frames)
    assert p.dtype == np.float64
    assert p.tobytes() == np.ascontiguousarray(gather_power(audio, cfg)).tobytes()


@settings(max_examples=25, deadline=None)
@given(length=st.integers(1, 51200), level=st.integers(0, 15),
       fft_size=st.integers(512, 4096), seed=st.integers(0, 2 ** 32 - 1))
@example(length=51200, level=15, fft_size=4096, seed=1)
@example(length=1, level=0, fft_size=512, seed=0)
def test_pcm_and_float_input_give_identical_features(length, level, fft_size, seed):
    # int16 PCM is padded as int16 and float samples as float64; the same
    # samples, as PCM or as PCM * 2**-15, must give the same bytes.
    cfg = FrontendConfig(fft_size=fft_size)
    rng = np.random.default_rng(seed)
    pcm = rng.integers(-(1 << level), 1 << level, length, endpoint=True)
    pcm = np.clip(pcm, -32768, 32767).astype(np.int16)
    real = pcm * 2.0 ** -15
    assert stft_power(pcm, cfg).tobytes() == stft_power(real, cfg).tobytes()
    a, b = mel_spectrogram(pcm, cfg), mel_spectrogram(real, cfg)
    assert a.values.dtype == b.values.dtype == np.int16
    assert a.values.tobytes() == b.values.tobytes()


def test_mel_spectrogram_peak_memory(frontend_cfg):
    # The padded audio and the power buffer live through the STFT; besides
    # them only one block's windowed frames and complex spectrum may be alive.
    cfg = frontend_cfg
    audio = (np.random.default_rng(5).uniform(-0.5, 0.5, 51200) * 32767).astype(np.int16)
    mel_spectrogram(audio, cfg)  # warm-up: window and filterbank caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mel_spectrogram(audio, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bins = cfg.spectrum_bins
    power = cfg.frames * bins * 8
    padded = (cfg.patch_samples + cfg.window) * 2  # int16 PCM stays int16
    block = stft_block_frames(cfg) * (cfg.window * 8 + bins * 16)
    bound = power + padded + block + 256 * 1024
    assert bound <= 2 * 2 ** 20
    assert peak < bound, f"peak {peak:,} B, bound {bound:,} B"


def test_stft_blocks_are_byte_sized():
    assert stft_block_frames(FrontendConfig()) == 63
    assert stft_block_frames(FrontendConfig(fft_size=4096)) == 7
    for fft_size in (512, 1000, 4096):
        cfg = FrontendConfig(fft_size=fft_size)
        assert stft_block_frames(cfg) * cfg.spectrum_bins * 16 <= STFT_BLOCK_BYTES


def test_stft_matches_direct_dft(frontend_cfg):
    rng = np.random.default_rng(123)
    audio = rng.uniform(-1, 1, 51200)
    p = stft_power(audio, frontend_cfg)
    # recompute a few frames from first principles
    half = frontend_cfg.window // 2
    padded = np.pad(audio, (half, half), mode="reflect")
    win = _hann(frontend_cfg.window)
    for t in (0, 1, 57, 200, 399):
        frame = padded[t * 128:t * 128 + 512] * win
        ref = np.abs(direct_dft(frame)) ** 2
        num = np.linalg.norm(p[:, t] - ref)
        den = np.linalg.norm(ref)
        assert num <= 1e-6 * den


def test_sine_at_mel_center_wins_its_bin(frontend_cfg):
    fb = mel_filterbank(frontend_cfg)
    edges = mel_to_hz(np.linspace(mel_scale(frontend_cfg.fmin),
                                  mel_scale(frontend_cfg.fmax),
                                  frontend_cfg.mel_bins + 2))
    t = np.arange(51200)
    for j in (8, 16, 24, 32, 40, 48, 56):
        freq = edges[j + 1]  # center of filter j
        audio = 0.5 * np.sin(2 * np.pi * freq * t / 16000.0)
        m = mel_spectrogram(audio, frontend_cfg)
        winners = m.values[:, 2:399, 0].argmax(axis=0)
        assert (winners == j).all(), f"filter {j} at {freq:.1f} Hz"


def test_white_noise_finite_no_saturation(frontend_cfg):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        audio = rng.uniform(-1.0, 1.0, 51200)
        m = mel_spectrogram(audio, frontend_cfg)
        assert m.saturated == 0
        assert np.isfinite(m.to_real()).all()


def test_deterministic(frontend_cfg):
    rng = np.random.default_rng(9)
    audio = (rng.uniform(-0.5, 0.5, 51200) * 32767).astype(np.int16)
    a = mel_spectrogram(audio, frontend_cfg)
    b = mel_spectrogram(audio.copy(), frontend_cfg)
    assert (a.values == b.values).all()


def test_linear_mel_flag(frontend_cfg):
    cfg = FrontendConfig(log_compress=False, output_qformat=4)
    audio = np.zeros(51200)
    m = mel_spectrogram(audio, cfg)
    assert (m.values == 0).all()
