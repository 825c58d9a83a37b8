"""Audio frontend: 16 kHz mono PCM -> fixed-point 64x400 log-Mel patch.

Windows of 32 ms (512 samples) every 8 ms (128 samples), one-sided power
spectrum, 64 triangular Mel filters, log compression, quantization.  3.2 s of
audio yields exactly 400 frames; frame t is centered on sample t*hop via
reflect padding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .blas import single_thread
from .errors import InputFormatError
from .tensors import FixedTensor, quantize_real

# The paper's fixed timing; model and feature files store it, and load refuses
# any other value.
SAMPLE_RATE = 16000  # the only rate read_wav accepts; there is no resampling
WINDOW = 512  # 32 ms
HOP = 128  # 8 ms
FRAMES = 400
PATCH_SAMPLES = FRAMES * HOP
PATCH_SECONDS = PATCH_SAMPLES / SAMPLE_RATE
MAX_FFT_WINDOWS = 8  # fft_size cap, so a model file cannot ask for an unbounded spectrum
# Complex spectrum of one STFT block: 63 frames at fft_size 512, 7 at 4096.
STFT_BLOCK_BYTES = 256 * 1024


def check_timing(sample_rate: int, window: int, hop: int, frames: int) -> None:
    """Refuse a stored frontend timing other than the fixed one."""
    if sample_rate != SAMPLE_RATE:
        raise ValueError(f"sample_rate must be {SAMPLE_RATE} Hz, got {sample_rate}")
    if window != WINDOW:
        raise ValueError("window must cover 32 ms")
    if hop != HOP:
        raise ValueError("hop must cover 8 ms")
    if frames != FRAMES:
        raise ValueError("frames * hop must cover 3.2 s")


@dataclass(frozen=True)
class FrontendConfig:
    # the fixed timing, readable from a config like its fields
    sample_rate: ClassVar[int] = SAMPLE_RATE
    window: ClassVar[int] = WINDOW
    hop: ClassVar[int] = HOP
    frames: ClassVar[int] = FRAMES
    patch_samples: ClassVar[int] = PATCH_SAMPLES

    fft_size: int = 512
    mel_bins: int = 64
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10
    log_compress: bool = True
    # Default chosen by the 99.9% coverage rule over frontend outputs for a
    # mixed calibration batch (silence, tones, noise); see demos/01_frontend.py.
    output_qformat: int = 10

    def __post_init__(self):
        if not WINDOW <= self.fft_size <= MAX_FFT_WINDOWS * WINDOW:
            raise ValueError(f"fft_size must be in [window, {MAX_FFT_WINDOWS} * window] = "
                             f"[{WINDOW}, {MAX_FFT_WINDOWS * WINDOW}], got {self.fft_size}")
        if not (0 <= self.fmin < self.fmax <= SAMPLE_RATE / 2):
            raise ValueError("need 0 <= fmin < fmax <= Nyquist")
        if not 0.0 < self.log_floor < np.inf:
            raise ValueError(f"log_floor must be a finite number > 0, got {self.log_floor}")

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
def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular Mel filterbank, shape [mel_bins][fft_size/2+1], non-negative.

    Filter centers are equally spaced on the mel scale between fmin and fmax;
    each filter rises linearly (in Hz) from its left neighbor's center and
    falls to its right neighbor's center.  The array is cached and read-only.
    """
    bin_hz = np.arange(cfg.spectrum_bins) * SAMPLE_RATE / cfg.fft_size
    edges = mel_to_hz(np.linspace(mel_scale(cfg.fmin), mel_scale(cfg.fmax), cfg.mel_bins + 2))
    fb = np.zeros((cfg.mel_bins, cfg.spectrum_bins))
    for j in range(cfg.mel_bins):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fb[j] = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False  # cached and shared by every caller
    return fb


def stft_block_frames(cfg: FrontendConfig) -> int:
    """Frames per STFT block: as many complex spectra as fit STFT_BLOCK_BYTES."""
    return max(1, STFT_BLOCK_BYTES // (16 * cfg.spectrum_bins))


@lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    # Periodic Hann, the STFT-analysis variant; cached, so read-only.
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


def _padded_audio(audio) -> np.ndarray:
    """The patch, zero-padded to 3.2 s, with ``window // 2`` samples of
    reflect padding on each side, built in one buffer.

    int16 PCM stays int16 (2 bytes a sample; _block_power scales it).  Any
    other samples are copied into a float64 buffer and must be finite.
    """
    a = np.asarray(audio)
    if a.ndim != 1:
        raise ValueError(f"expected mono audio, got ndim={a.ndim}")
    total = PATCH_SAMPLES
    if len(a) > total:
        raise ValueError(f"audio has {len(a)} samples, patch limit is {total}")
    half = WINDOW // 2
    pcm = a.dtype == np.int16
    padded = np.zeros(total + 2 * half, dtype=np.int16 if pcm else np.float64)
    body = padded[half:half + len(a)]
    body[:] = a
    if not pcm:
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
    if frames.dtype == np.int16:
        # 2**-15 is exact, so these are the samples / 32768 of the float path
        windowed = np.multiply(frames, 2.0 ** -15, dtype=np.float64)
        windowed *= _hann(frames.shape[1])
    else:
        windowed = frames * _hann(frames.shape[1])
    spectrum = np.fft.rfft(windowed, n=fft_size, axis=1)
    np.square(spectrum.real, out=out)
    imag = spectrum.imag
    out += np.square(imag, out=imag)


def stft_power(audio, cfg: FrontendConfig) -> np.ndarray:
    """One-sided power spectrogram, shape [fft_size/2+1][frames].

    Accepts int16 PCM (scaled by 1/32768) or float samples.  Audio shorter
    than 3.2 s is zero-padded on the right; longer audio is rejected (chunking
    is the caller's job).  Frame t covers ``window`` samples centered at
    t*hop, with reflect padding at the edges.

    Two arrays live for the whole call: the padded audio (int16 for int16
    PCM, else float64) and the [frames][bins] power buffer, returned
    transposed.  Frames are strided views of the padded audio; they are
    scaled to float64 (PCM only), windowed, transformed and squared
    ``stft_block_frames(cfg)`` at a time, so the only other copies are one
    block's windowed frames and its complex spectrum.  Each frame's
    arithmetic does not depend on the block it falls in, nor on the input
    dtype: PCM gives the same power as its samples / 32768 given as floats.
    """
    padded = _padded_audio(audio)
    frames = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)[::HOP][:FRAMES]
    power = np.empty((FRAMES, cfg.spectrum_bins))
    step = stft_block_frames(cfg)
    for start in range(0, FRAMES, step):
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
