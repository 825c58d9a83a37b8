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
# Complex spectrum of one STFT block: 63 frames at fft_size 512, 7 at 4096.
STFT_BLOCK_BYTES = 256 * 1024


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


def stft_block_frames(cfg: FrontendConfig) -> int:
    """Frames per STFT block: as many complex spectra as fit STFT_BLOCK_BYTES."""
    return max(1, STFT_BLOCK_BYTES // (16 * cfg.spectrum_bins))


@lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    # Periodic Hann, the STFT-analysis variant; cached, so read-only.
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


def _padded_audio(audio, cfg: FrontendConfig) -> np.ndarray:
    """Float64 patch, zero-padded to 3.2 s, with ``window // 2`` samples of
    reflect padding on each side, built in one buffer.

    int16 PCM is scaled by 2**-15 once, straight into the buffer (exact, and
    the same as dividing by 32768).  Float samples must be finite.
    """
    a = np.asarray(audio)
    if a.ndim != 1:
        raise ValueError(f"expected mono audio, got ndim={a.ndim}")
    total = cfg.patch_samples
    if len(a) > total:
        raise ValueError(f"audio has {len(a)} samples, patch limit is {total}")
    half = cfg.window // 2
    padded = np.zeros(total + 2 * half)
    body = padded[half:half + len(a)]
    if a.dtype == np.int16:
        np.multiply(a, 1.0 / 32768.0, out=body, dtype=np.float64)
    else:
        body[:] = a
        finite = np.isfinite(body)
        if not finite.all():
            i = int(np.argmin(finite))
            raise InputFormatError(f"audio sample {i} is {body[i]}, not a finite number")
    # reflect about the first and last samples of the zero-padded patch
    padded[:half] = padded[2 * half:half:-1]
    padded[half + total:] = padded[half + total - 2:total - 2:-1]
    return padded


def _block_power(frames: np.ndarray, fft_size: int, out: np.ndarray) -> None:
    # the block's windowed frames and complex spectrum die on return
    spectrum = np.fft.rfft(frames * _hann(frames.shape[1]), n=fft_size, axis=1)
    np.square(spectrum.real, out=out)
    imag = spectrum.imag
    out += np.square(imag, out=imag)


def stft_power(audio, cfg: FrontendConfig) -> np.ndarray:
    """One-sided power spectrogram, shape [fft_size/2+1][frames].

    Accepts int16 PCM (scaled by 1/32768) or float samples.  Audio shorter
    than 3.2 s is zero-padded on the right; longer audio is rejected (chunking
    is the caller's job).  Frame t covers ``window`` samples centered at
    t*hop, with reflect padding at the edges.

    Two arrays live for the whole call: the padded audio and the
    [frames][bins] power buffer, returned transposed.  Frames are strided
    views of the padded audio; they are windowed, transformed and squared
    ``stft_block_frames(cfg)`` at a time, so the only other copies are one
    block's windowed frames and its complex spectrum.  Each frame's
    arithmetic does not depend on the block it falls in.
    """
    padded = _padded_audio(audio, cfg)
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.window)[::cfg.hop][:cfg.frames]
    power = np.empty((cfg.frames, cfg.spectrum_bins))
    step = stft_block_frames(cfg)
    for start in range(0, cfg.frames, step):
        _block_power(frames[start:start + step], cfg.fft_size, power[start:start + step])
    return power.T


def mel_spectrogram(audio, cfg: FrontendConfig | None = None) -> FixedTensor:
    """Full frontend: audio -> quantized [mel_bins][frames][1] FixedTensor."""
    cfg = cfg or FrontendConfig()
    power = stft_power(audio, cfg)
    with single_thread():
        mel = mel_filterbank(cfg) @ power
    del power  # free the spectrogram before quantization's temporaries
    if cfg.log_compress:
        np.log(np.maximum(mel, cfg.log_floor, out=mel), out=mel)
    return quantize_real(mel[:, :, None], cfg.output_qformat, bitwidth=16)
