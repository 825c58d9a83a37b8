"""Output checks, all run outside the timed regions.

Expected outputs are computed once per distinct input of a round and every
op is compared against them:

* clip and stream: the scores of every op have one entry per class, the
  divisor is the final map's area, and the prediction is the lowest-index
  argmax.  They equal ``run_monolithic`` (one thread) on the same patch, so a
  tiled or threaded op that disagrees fails.  One seeded patch per run is
  also run through ``oracle.reference_network_run``.
* extract: every patch agrees within one Q10 step with ``reference_features``
  below, which shares no code with ``frontend.py``; the serialized bytes of
  every op equal bytes whose ``load_features`` round trip returns identical
  patches.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def expected_divisor(net) -> int:
    h, w, _ = net.shape_chain()[-1]
    return h * w


def score_problems(out: dict, classes: int, divisor: int) -> list[str]:
    """Properties every clip/stream op must have, whatever the input."""
    scores = out["scores"]
    problems = []
    if len(scores) != classes:
        problems.append(f"{len(scores)} scores, expected {classes}")
    if out["divisor"] != divisor:
        problems.append(f"divisor {out['divisor']}, expected {divisor}")
    if scores and out["prediction"] != scores.index(max(scores)):
        problems.append(f"prediction {out['prediction']} is not the lowest-index argmax")
    return problems


def result_dict(result) -> dict:
    return {"scores": [int(s) for s in result.scores], "divisor": int(result.divisor),
            "prediction": int(result.prediction)}


# ---------------------------------------------------------------------------
# independent frontend reference
# ---------------------------------------------------------------------------


def _hz_to_mel(f: float) -> float:
    return 2595.0 * math.log10(1.0 + f / 700.0)


def _mel_to_hz(m: float) -> float:
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def reference_filterbank(cfg) -> np.ndarray:
    """HTK triangles, one scalar weight at a time."""
    bins = cfg.fft_size // 2 + 1
    lo, hi = _hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax)
    step = (hi - lo) / (cfg.mel_bins + 1)
    edges = [_mel_to_hz(lo + i * step) for i in range(cfg.mel_bins + 2)]
    fb = np.zeros((cfg.mel_bins, bins))
    for j in range(cfg.mel_bins):
        left, centre, right = edges[j], edges[j + 1], edges[j + 2]
        for k in range(bins):
            f = k * cfg.sample_rate / cfg.fft_size
            if left < f < right:
                fb[j, k] = (f - left) / (centre - left) if f <= centre \
                    else (right - f) / (right - centre)
    return fb


def reference_features(chunk: np.ndarray, cfg, filterbank: np.ndarray) -> np.ndarray:
    """[mel_bins][frames] integer features from a direct DFT of reflect-padded
    periodic-Hann frames."""
    from binsed import oracle

    a = np.zeros(cfg.patch_samples)
    a[:len(chunk)] = np.asarray(chunk, dtype=np.float64) / 32768.0
    half = cfg.window // 2
    padded = np.concatenate([a[half:0:-1], a, a[-2:-half - 2:-1]])
    n = np.arange(cfg.window)
    hann = np.sin(np.pi * n / cfg.window) ** 2
    frames = np.zeros((cfg.frames, cfg.fft_size))
    for t in range(cfg.frames):
        frames[t, :cfg.window] = padded[t * cfg.hop:t * cfg.hop + cfg.window] * hann
    spectrum = oracle.direct_dft(frames)
    power = np.abs(spectrum) ** 2
    mel = filterbank @ power.T
    if cfg.log_compress:
        mel = np.log(np.maximum(mel, cfg.log_floor))
    q = np.round(mel * 2.0 ** cfg.output_qformat)
    return np.clip(q, -32768, 32767)


def feature_problems(patches, chunks, cfg) -> list[str]:
    """Each program patch must lie within one quantization step of the reference."""
    fb = reference_filterbank(cfg)
    problems = []
    for i, (p, c) in enumerate(zip(patches, chunks)):
        ref = reference_features(c, cfg, fb)
        worst = float(np.abs(p.values[:, :, 0].astype(np.float64) - ref).max())
        if worst > 1:
            problems.append(f"patch {i}: differs from the reference by {worst:.0f} steps")
    return problems


def roundtrip_problems(blob: bytes, patches, cfg) -> list[str]:
    from binsed import model_io

    back, back_cfg = model_io.load_features(blob)
    if back_cfg != cfg:
        return ["load_features returned another frontend config"]
    if len(back) != len(patches):
        return [f"load_features returned {len(back)} patches, saved {len(patches)}"]
    for i, (a, b) in enumerate(zip(back, patches)):
        if (a.shape, a.qformat, a.bitwidth) != (b.shape, b.qformat, b.bitwidth) \
                or not np.array_equal(a.values, b.values):
            return [f"patch {i} changed in the save/load round trip"]
    return []


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()
