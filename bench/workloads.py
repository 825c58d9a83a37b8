"""Seeded inputs and the timed operation of each benchmark workload.

Nothing here imports ``binsed`` at module level: a cold-start process starts its
set-up timer before the first import of the package, so import time counts
as set-up.  ``import_binsed`` puts the checkout's ``src`` first on the path
and refuses any other copy of the package.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("clip", "stream", "extract")
SAMPLE_RATE = 16000
CLIP_POOL = 8  # clips per round of the clip workload
EXTRACT_POOL = 2  # recordings per round of the extract workload
RECORDING_SECONDS = 64.0  # 20 consecutive 3.2 s patches
TILES = 4  # the `binsed infer --tiled` default


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def import_binsed():
    """Import the package from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import binsed
    except ImportError as e:
        sys.exit(f"bench: cannot import binsed from {src}: {e}")
    if Path(binsed.__file__).resolve().parent != src / "binsed":
        sys.exit(f"bench: binsed imported from {binsed.__file__}, not from {src}")
    return binsed


# ---------------------------------------------------------------------------
# seeded audio
# ---------------------------------------------------------------------------


def _db(level_db: float) -> float:
    return 10.0 ** (level_db / 20.0)


def _segment(rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of one of: noise at one of three levels, a chord of 1-3 tones,
    a linear chirp, or silence.  Float, full scale = 1."""
    kind = rng.integers(4)
    t = np.arange(n) / SAMPLE_RATE
    if kind == 0:
        return rng.normal(0.0, _db(rng.choice([-40.0, -20.0, -6.0])), n)
    if kind == 1:
        out = np.zeros(n)
        for _ in range(rng.integers(1, 4)):
            f = rng.uniform(100.0, 7000.0)
            out += _db(rng.uniform(-26.0, -10.0)) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        return out
    if kind == 2:
        f0, f1 = rng.uniform(50.0, 7900.0, 2)
        dur = max(n / SAMPLE_RATE, 1e-9)
        phase = 2 * np.pi * (f0 * t + (f1 - f0) * t * t / (2 * dur))
        return _db(rng.uniform(-20.0, -6.0)) * np.sin(phase)
    return np.zeros(n)


def _to_pcm(x: np.ndarray) -> np.ndarray:
    return np.clip(np.round(x * 32767.0), -32768, 32767).astype(np.int16)


def make_clip(rng: np.random.Generator) -> np.ndarray:
    """One clip of 1-6 s; shorter than 3.2 s is padded, longer is cropped."""
    return _to_pcm(_segment(rng, int(rng.uniform(1.0, 6.0) * SAMPLE_RATE)))


def make_recording(rng: np.random.Generator) -> np.ndarray:
    """RECORDING_SECONDS of back-to-back 0.5-4 s segments of mixed kinds."""
    total = int(RECORDING_SECONDS * SAMPLE_RATE)
    parts, n = [], 0
    while n < total:
        m = min(int(rng.uniform(0.5, 4.0) * SAMPLE_RATE), total - n)
        parts.append(_segment(rng, m))
        n += m
    return _to_pcm(np.concatenate(parts))


def make_audio(workload: str, seed: int) -> list[np.ndarray]:
    """The audio of one round of a workload; the same seed gives the same audio."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "clip":
        return [make_clip(rng) for _ in range(CLIP_POOL)]
    if workload == "stream":
        return [make_recording(rng)]
    return [make_recording(rng) for _ in range(EXTRACT_POOL)]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Pipeline:
    """A loaded model and the operation one workload times."""

    model: object
    plan: object | None
    threads: int
    inputs: list  # one entry per op of a round
    op: Callable  # op(input) -> InferenceResult (clip, stream) or bytes (extract)
    patches_per_op: int


def prepare(workload: str, model_path, audio: list[np.ndarray], threads: int) -> Pipeline:
    """Load the model and build the op; the caller times this plus a first op."""
    import_binsed()
    from binsed import cli, executor, frontend, model_io

    model = model_io.load_file(model_path)
    cfg, net = model.frontend, model.network
    n = cfg.patch_samples

    if workload == "clip":
        # `binsed infer` default: centre patch, monolithic run.
        def op(clip):
            chunk = cli.chunk_audio(clip, n, all_chunks=False)[0]
            x = frontend.mel_spectrogram(chunk, cfg)
            return executor.run_monolithic(x, net, threads=threads)
        return Pipeline(model, None, threads, list(audio), op, 1)

    if workload == "stream":
        # `binsed infer --tiled` default on consecutive patches of a recording.
        plan = executor.plan_tiles(net, TILES)

        def op(patch):
            x = frontend.mel_spectrogram(patch, cfg)
            return executor.run_tiled(x, net, plan, threads=threads)
        patches = cli.chunk_audio(audio[0], n, all_chunks=True)
        return Pipeline(model, plan, threads, patches, op, 1)

    # `binsed extract --all-chunks`, with the file kept in memory.
    def op(recording):
        patches = [frontend.mel_spectrogram(c, cfg)
                   for c in cli.chunk_audio(recording, n, all_chunks=True)]
        return model_io.save_features(patches, cfg)
    per_op = len(cli.chunk_audio(audio[0], n, all_chunks=True))
    return Pipeline(model, None, threads, list(audio), op, per_op)
