"""Command-line surface: feature extraction, inference on WAV files,
quantization, model generation, footprint and benchmark reports.

Exit codes: 0 success, 2 input format, 3 corrupt model, 4 shape mismatch,
5 memory budget exceeded (footprint --strict).  Timing fields and the
frontend's saturation count (feature values clipped to the 16-bit range) go
to stderr so stdout stays byte-identical across runs with the same inputs and
flags (benchmark timing output excepted).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
import wave

import numpy as np

from . import executor, frontend, model_io, oracle, timing
from .errors import (
    BinsedError,
    BudgetExceededError,
    InputFormatError,
    ModelFormatError,
    ShapeMismatchError,
)

log = logging.getLogger("binsed")

EXIT_INPUT_FORMAT = 2
EXIT_MODEL_CORRUPT = 3
EXIT_SHAPE_MISMATCH = 4
EXIT_BUDGET_EXCEEDED = 5


def read_wav(path) -> np.ndarray:
    """Read a 16 kHz mono 16-bit PCM WAV file; anything else is refused with
    an InputFormatError that names the file and the part that failed."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise InputFormatError(f"WAV file {path}: cannot open: {e}") from e
    with f:
        # The wave module reports a damaged header with whatever its chunk
        # reader raises (wave.Error, EOFError, a bare RuntimeError from a
        # seek past the file, ...), and which differs between versions.
        try:
            with wave.open(f, "rb") as wav:
                rate, channels = wav.getframerate(), wav.getnchannels()
                width, declared = wav.getsampwidth(), wav.getnframes()
                frames = wav.readframes(declared)
        except Exception as e:
            raise InputFormatError(
                f"WAV file {path}: bad header: {str(e) or type(e).__name__}") from e
    if rate != frontend.SAMPLE_RATE:
        raise InputFormatError(f"WAV file {path}: sample rate {rate} Hz, expected "
                               f"{frontend.SAMPLE_RATE} (no resampling)")
    if channels != 1:
        raise InputFormatError(f"WAV file {path}: {channels} channels, expected mono")
    if width != 2:
        raise InputFormatError(f"WAV file {path}: bit depth {8 * width}, expected 16")
    if len(frames) != 2 * declared:
        raise InputFormatError(f"WAV file {path}: data chunk holds {len(frames)} bytes, "
                               f"its header declares {declared} 16-bit samples")
    return np.frombuffer(frames, dtype="<i2")


def chunk_audio(samples: np.ndarray, patch: int, all_chunks: bool) -> list[np.ndarray]:
    """Split a clip into 3.2 s patches.

    Default mode extracts one patch centered on the middle of the clip; short
    clips are zero-padded.  All-chunks mode takes consecutive non-overlapping
    patches, discarding a trailing partial one unless it is the only chunk.
    """
    if len(samples) <= patch:
        return [np.pad(samples, (0, patch - len(samples)))]
    if all_chunks:
        return [samples[i:i + patch]
                for i in range(0, len(samples) - patch + 1, patch)]
    start = min(max(0, len(samples) // 2 - patch // 2), len(samples) - patch)
    return [samples[start:start + patch]]


def cmd_extract(args) -> int:
    cfg = frontend.FrontendConfig()
    samples = read_wav(args.wav)
    patches = [frontend.mel_spectrogram(chunk, cfg)
               for chunk in chunk_audio(samples, cfg.patch_samples, args.all_chunks)]
    with open(args.out, "wb") as f:
        f.write(model_io.save_features(patches, cfg))
    print(f"wrote {len(patches)} patch(es) to {args.out}")
    print(f"saturated {sum(p.saturated for p in patches)} feature values",
          file=sys.stderr)
    return 0


def cmd_infer(args) -> int:
    model = model_io.load_file(args.model)
    samples = read_wav(args.wav)
    chunk = chunk_audio(samples, model.frontend.patch_samples, all_chunks=False)[0]

    t0 = time.perf_counter()
    x = frontend.mel_spectrogram(chunk, model.frontend)
    t_frontend = time.perf_counter() - t0

    tiled = args.tiled or args.tiles is not None
    t0 = time.perf_counter()
    if tiled:
        tiles = args.tiles if args.tiles is not None \
            else executor.l1_tile_count(model.network)
        plan = executor.plan_tiles(model.network, tiles)
        result = executor.run_tiled(x, model.network, plan, threads=args.threads)
    else:
        result = executor.run_monolithic(x, model.network, threads=args.threads)
    t_network = time.perf_counter() - t0

    if args.oracle:
        sums, divisor = oracle.reference_network_run(model.network, x)
        agree = bool((sums == result.scores).all() and divisor == result.divisor)
        print(f"oracle agreement: {agree}", file=sys.stderr)
        if not agree:
            raise BinsedError("fast path disagrees with the reference oracle")

    payload = {
        "prediction": result.prediction,
        "scores": [int(s) for s in result.scores],
        "divisor": result.divisor,
        "score_qformat": result.score_qformat,
        "real_scores": [float(s) for s in result.real_scores()],
        "mode": "tiled" if tiled else "monolithic",
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"prediction: {result.prediction}")
        print("scores:", " ".join(str(int(s)) for s in result.scores))
    print(f"time: frontend {t_frontend:.4f}s, network {t_network:.4f}s, "
          f"saturated {x.saturated}", file=sys.stderr)
    return 0


def cmd_quantize(args) -> int:
    fm = model_io.load_float_model(args.float)
    model = model_io.quantize_model(fm)
    net = model.network
    try:  # write only what infer will load
        model_io.check_frontend_coupling(net.input_shape, net.input_qformat, model.frontend)
    except ValueError as e:
        raise InputFormatError(f"float model archive: {e}") from e
    model_io.save_file(model, args.out)
    print(f"wrote quantized model to {args.out}")
    return 0


def cmd_gen_model(args) -> int:
    model = model_io.gen_random_model(args.seed)
    model_io.save_file(model, args.out)
    if args.float_out:
        model_io.save_float_model(model_io.gen_random_float_model(args.seed),
                                  args.float_out)
    if args.describe:
        print(model_io.network_spec_json(model))
    else:
        print(f"wrote model (seed {args.seed}) to {args.out}")
    return 0


def _footprint_payload(report: dict) -> list[dict]:
    rows = [{"row": r["name"], "weight_bytes": r["weight_bytes"],
             "bookkeeping_bytes": r["bookkeeping_bytes"]} for r in report["layers"]]
    summary = {k: report[k] for k in report
               if k not in ("layers", "tiles") and not k.startswith("_")}
    rows.append({"row": "Total", **summary})
    return rows


def cmd_footprint(args) -> int:
    model = model_io.load_file(args.model)
    budget = executor.MemoryBudget()
    plan = None if args.tiles is None else executor.plan_tiles(model.network, args.tiles)
    report = executor.footprint(model.network, budget, plan,
                                weight_mode=args.variant)
    rows = _footprint_payload(report)
    if args.json:
        for row in rows:
            print(json.dumps(row))
    else:
        for r in report["layers"]:
            print(f"{r['name']:<14} weights {r['weight_bytes']:>8,} B  "
                  f"bookkeeping {r['bookkeeping_bytes']:>6,} B")
        print(f"weights total      {report['weight_bytes']:>10,} B "
              f"({report['weight_bytes'] / 1000:.1f} kB)")
        print(f"with bookkeeping   {report['weight_total_bytes']:>10,} B")
        print(f"activation peak    {report['activation_peak_bytes']:>10,} B")
        print(f"total              {report['total_bytes']:>10,} B "
              f"({report['total_bytes'] / 1000:.1f} kB)")
        verdict = "fits" if report["fits_l2"] else "exceeds"
        print(f"L2 budget {budget.l2_bytes:,} B: {verdict}")
        if plan is not None:
            print(f"tile peak          {report['tile_peak_bytes']:>10,} B "
                  f"(L1 budget {budget.l1_bytes:,} B: "
                  f"{'fits' if report['fits_l1'] else 'exceeds'})")
    if args.strict and not report["fits_l2"]:
        raise BudgetExceededError(
            f"total {report['total_bytes']} B exceeds L2 budget {budget.l2_bytes} B")
    return 0


def cmd_bench(args) -> int:
    model = model_io.load_file(args.model)
    report = timing.bench(model.network, model.frontend,
                          repetitions=args.reps, threads=args.threads,
                          include_naive=not args.no_naive)
    print(report.to_json_lines() if args.json else report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsed",
        description="Binary neural network sound event detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="WAV -> fixed-point Mel feature file")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--all-chunks", action="store_true",
                   help="extract every consecutive 3.2 s chunk, not one centered patch")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("infer", help="classify a WAV clip")
    p.add_argument("--model", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--tiled", action="store_true",
                   help="run in tiles: --tiles of them, by default the fewest "
                        "whose working set fits the 64 KiB L1 budget")
    p.add_argument("--tiles", type=int, default=None,
                   help="tile count (implies --tiled)")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("quantize", help="float model archive -> quantized model")
    p.add_argument("--float", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("gen-model", help="seeded random model on the reference topology")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--float-out", default=None,
                   help="also write the float model archive for quantize")
    p.add_argument("--describe", action="store_true",
                   help="print the network descriptor as JSON")
    p.set_defaults(fn=cmd_gen_model)

    p = sub.add_parser("footprint", help="memory footprint report")
    p.add_argument("--model", required=True)
    p.add_argument("--tiles", type=int, default=None)
    p.add_argument("--variant", choices=("binary", "fixed16"), default="binary")
    p.add_argument("--json", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="exit 5 if the L2 budget is exceeded")
    p.set_defaults(fn=cmd_footprint)

    p = sub.add_parser("bench", help="per-layer benchmark report")
    p.add_argument("--model", required=True)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-naive", action="store_true",
                   help="skip the slow packed-vs-naive comparison")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("BINSED_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputFormatError as e:
        log.error("input format: %s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_FORMAT
    except ModelFormatError as e:
        log.error("model: %s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL_CORRUPT
    except ShapeMismatchError as e:
        log.error("shape: %s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SHAPE_MISMATCH
    except BudgetExceededError as e:
        log.error("budget: %s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except ValueError as e:
        log.error("invalid argument: %s", e)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_FORMAT
    except BinsedError as e:
        log.error("%s", e)
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
