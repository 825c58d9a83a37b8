"""Audio frontend: 16 kHz mono PCM -> fixed-point 64x400 log-Mel patch.

Windows of 32 ms (512 samples) every 8 ms (128 samples), one-sided power
spectrum, 64 triangular Mel filters, log compression, quantization.  3.2 s of
audio yields exactly 400 frames; frame t is centered on sample t*hop via
reflect padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blas import single_thread
from .errors import InputFormatError
from .tensors import FixedTensor, quantize_real

PATCH_SECONDS = 3.2
SAMPLE_RATE = 16000  # the only rate read_wav accepts; there is no resampling
MAX_FFT_WINDOWS = 8  # fft_size cap, so a model file cannot ask for an unbounded spectrum


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = SAMPLE_RATE
    window: int = 512
    hop: int = 128
    fft_size: int = 512
    mel_bins: int = 64
    frames: int = 400
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10
    log_compress: bool = True
    # Default chosen by the 99.9% coverage rule over frontend outputs for a
    # mixed calibration batch (silence, tones, noise); see demos/01_frontend.py.
    output_qformat: int = 10

    def __post_init__(self):
        if self.sample_rate != SAMPLE_RATE:
            raise ValueError(f"sample_rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")
        if self.window != round(0.032 * self.sample_rate):
            raise ValueError("window must cover 32 ms")
        if self.hop != round(0.008 * self.sample_rate):
            raise ValueError("hop must cover 8 ms")
        if self.frames * self.hop != round(PATCH_SECONDS * self.sample_rate):
            raise ValueError("frames * hop must cover 3.2 s")
        if not self.window <= self.fft_size <= MAX_FFT_WINDOWS * self.window:
            raise ValueError(f"fft_size must be in [window, {MAX_FFT_WINDOWS} * window] = "
                             f"[{self.window}, {MAX_FFT_WINDOWS * self.window}], "
                             f"got {self.fft_size}")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError("need 0 <= fmin < fmax <= Nyquist")
        if not 0.0 < self.log_floor < np.inf:
            raise ValueError(f"log_floor must be a finite number > 0, got {self.log_floor}")

    @property
    def patch_samples(self) -> int:
        return self.frames * self.hop

    @property
    def spectrum_bins(self) -> int:
        return self.fft_size // 2 + 1


def mel_scale(f):
    """Hz -> mel, HTK convention 2595*log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse of mel_scale."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _filterbank_cached(sample_rate, fft_size, mel_bins, fmin, fmax) -> np.ndarray:
    n_bins = fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / fft_size
    edges = mel_to_hz(np.linspace(mel_scale(fmin), mel_scale(fmax), mel_bins + 2))
    fb = np.zeros((mel_bins, n_bins))
    for j in range(mel_bins):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False  # cached and shared by every caller
    return fb


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular Mel filterbank, shape [mel_bins][fft_size/2+1], non-negative.

    Filter centers are equally spaced on the mel scale between fmin and fmax;
    each filter rises linearly (in Hz) from its left neighbor's center and
    falls to its right neighbor's center.  The array is cached and read-only.
    """
    return _filterbank_cached(cfg.sample_rate, cfg.fft_size, cfg.mel_bins, cfg.fmin, cfg.fmax)


@lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    # Periodic Hann, the STFT-analysis variant; cached, so read-only.
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


def _as_float_audio(audio) -> np.ndarray:
    a = np.asarray(audio)
    if a.ndim != 1:
        raise ValueError(f"expected mono audio, got ndim={a.ndim}")
    if a.dtype == np.int16:
        return a.astype(np.float64) / 32768.0
    a = a.astype(np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputFormatError(f"audio sample {i} is {a[i]}, not a finite number")
    return a


def stft_power(audio, cfg: FrontendConfig) -> np.ndarray:
    """One-sided power spectrogram, shape [fft_size/2+1][frames].

    Accepts int16 PCM (scaled by 1/32768) or float samples.  Audio shorter
    than 3.2 s is zero-padded on the right; longer audio is rejected (chunking
    is the caller's job).  Frame t covers ``window`` samples centered at
    t*hop, with reflect padding at the edges.
    """
    a = _as_float_audio(audio)
    total = cfg.patch_samples
    if len(a) > total:
        raise ValueError(f"audio has {len(a)} samples, patch limit is {total}")
    if len(a) < total:
        a = np.pad(a, (0, total - len(a)))
    half = cfg.window // 2
    padded = np.pad(a, (half, half), mode="reflect")
    # a strided view; the window multiply makes the only frame copy
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.window)[::cfg.hop][:cfg.frames]
    spectra = np.fft.rfft(frames * _hann(cfg.window), n=cfg.fft_size, axis=1)
    power = spectra.real ** 2
    power += spectra.imag ** 2
    return power.T


def mel_spectrogram(audio, cfg: FrontendConfig | None = None) -> FixedTensor:
    """Full frontend: audio -> quantized [mel_bins][frames][1] FixedTensor."""
    cfg = cfg or FrontendConfig()
    power = stft_power(audio, cfg)
    with single_thread():
        mel = mel_filterbank(cfg) @ power
    if cfg.log_compress:
        np.log(np.maximum(mel, cfg.log_floor, out=mel), out=mel)
    return quantize_real(mel[:, :, None], cfg.output_qformat, bitwidth=16)
