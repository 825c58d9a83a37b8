"""The binsed benchmark: int16 PCM to argmax, end to end and layer by layer.

    python3 bench/run.py --workload clip --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --short     # every workload, a few ops

With ``--trace 0`` the run times SETUPS cold starts, each in a fresh process
(coldstart.py), then times the workload's op closed-loop in this process for
``--seconds``, then measures each op's allocation peak in a separate pass.
With ``--trace 1`` it runs the traced pass instead (see tracing.py).  Either way every output
is checked (see checks.py), a record of the run goes to ``bench/out/``, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in both modes, one process each, and fails if a metric named in
``BENCHMARK.json`` is missing or has another unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib.util import find_spec
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads
from workloads import OUT_DIR, ROOT

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 16  # cold-start processes per end-to-end run
P90_MIN_OPS = 100  # ops a run needs for ten samples beyond its p90
PEAK_ROUNDS = 2  # rounds of ops measured under tracemalloc
CHILD_TIMEOUT_S = 170


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_meta(threads: int, plan) -> dict:
    from binsed import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threadpoolctl_installed": find_spec("threadpoolctl") is not None,
        "popcount": kernels.resolve_popcount_name(),
        "threads": threads,
        "tile_plan": {"tiles": plan.tile_count, "halo": plan.halo,
                      "in_ranges": [list(r) for r in plan.in_ranges]},
        "git_rev": git_rev(),
    }


# ---------------------------------------------------------------------------
# expected outputs and per-run checks
# ---------------------------------------------------------------------------


def expected_outputs(workload: str, pipe, seed: int):
    """Per distinct op input: the output every op on it must reproduce.

    Returns (expected, chunks, save_sets, problems): chunks are the 3.2 s
    patches of a round, save_sets the patch lists one op serializes.
    """
    from binsed import cli, executor, frontend, model_io, oracle

    cfg, net = pipe.model.frontend, pipe.model.network
    n = cfg.patch_samples
    problems: list[str] = []
    if workload == "extract":
        expected, chunks, save_sets = [], [], []
        for rec in pipe.inputs:
            rec_chunks = cli.chunk_audio(rec, n, all_chunks=True)
            patches = [frontend.mel_spectrogram(c, cfg) for c in rec_chunks]
            blob = model_io.save_features(patches, cfg)
            problems += checks.feature_problems(patches, rec_chunks, cfg)
            problems += checks.roundtrip_problems(blob, patches, cfg)
            expected.append({"sha256": checks.digest(blob), "bytes": len(blob)})
            chunks += rec_chunks
            save_sets.append(patches)
        return expected, chunks, save_sets, problems

    if workload == "clip":
        chunks = [cli.chunk_audio(c, n, all_chunks=False)[0] for c in pipe.inputs]
    else:
        chunks = list(pipe.inputs)
    features = [frontend.mel_spectrogram(c, cfg) for c in chunks]
    expected = [checks.result_dict(executor.run_monolithic(x, net, 1)) for x in features]
    divisor = checks.expected_divisor(net)
    for i, e in enumerate(expected):
        problems += [f"input {i}: {p}" for p in checks.score_problems(e, net.classes, divisor)]
    k = int(np.random.default_rng([seed, 99]).integers(len(features)))
    sums, div = oracle.reference_network_run(net, features[k])
    if [int(s) for s in sums] != expected[k]["scores"] or div != expected[k]["divisor"]:
        problems.append(f"input {k}: run_monolithic disagrees with the reference oracle")
    return expected, chunks, [[x] for x in features], problems


def summarize(workload: str, out) -> dict:
    """A small, exactly comparable digest of one op's output."""
    if workload == "extract":
        return {"sha256": checks.digest(out), "bytes": len(out)}
    return checks.result_dict(out)


def op_problems(workload: str, got: dict, want: dict, net) -> list[str]:
    problems = []
    if workload != "extract":
        problems += checks.score_problems(got, net.classes, checks.expected_divisor(net))
    if got != want:
        problems.append("output differs from the checked reference")
    return problems


def peak_alloc_mib(pipe, rounds: int) -> float:
    """Largest tracemalloc peak of one op over whole rounds, at the workload's
    threads.  Threads interleave their allocations differently on every op,
    so one op's peak varies; the largest over a few rounds does not."""
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(rounds):
            for x in pipe.inputs:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                pipe.op(x)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2 ** 20


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def cold_setup_s(workload: str, seed: int, model_path, threads: int) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "coldstart.py"), "--workload", workload,
           "--seed", str(seed), "--model", str(model_path), "--threads", str(threads)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, pipe, model_path, expected, record) -> tuple[dict, int, int, list]:
    net = pipe.model.network
    setups = [cold_setup_s(args.workload, args.seed, model_path, pipe.threads)
              for _ in range(1 if args.short else SETUPS)]

    pipe.op(pipe.inputs[0])  # untimed, like the first op of set-up
    latency_ns = []
    attempted = failed = 0
    problems: list[str] = []
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, x in enumerate(pipe.inputs):
            attempted += 1
            t = time.perf_counter_ns()
            try:
                out = pipe.op(x)
            except Exception as e:  # counted as a failed op, the run goes on
                latency_ns.append(time.perf_counter_ns() - t)
                failed += 1
                errors.append(f"input {i}: {type(e).__name__}: {e}")
                continue
            latency_ns.append(time.perf_counter_ns() - t)
            p = op_problems(args.workload, summarize(args.workload, out), expected[i], net)
            if p:
                failed += 1
                problems.append(f"input {i}: {p[0]}")
        # Whole rounds only; stop at the round boundary nearest --seconds.
        now = time.perf_counter()
        if args.short or now - start + (now - round_start) / 2 >= args.seconds:
            break

    lat = [t / 1e6 for t in latency_ns]
    busy_s = sum(lat) / 1e3
    patches = pipe.patches_per_op * len(lat)
    patch_s = pipe.model.frontend.patch_samples / pipe.model.frontend.sample_rate
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "realtime_x": (patch_s * patches / busy_s, "s/s"),
        "peak_alloc_mib": (peak_alloc_mib(pipe, 1 if args.short else PEAK_ROUNDS), "MiB"),
    }
    if args.workload != "extract":
        from binsed import executor
        macs = executor.count_macs(net)["total_same_pad"]
        record["gmac_per_s"] = patches * macs / busy_s / 1e9
    record.update(setup_s_samples=setups, latency_ms=lat, errors=errors[:20])
    if len(lat) >= P90_MIN_OPS:
        record["latency_p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return metrics, attempted, failed, problems


def traced(args, pipe, plan, model_path, chunks, save_sets, record):
    net = pipe.model.network
    spans = tracing.Spans()
    samples, failed, problems = tracing.trace_rounds(
        pipe, plan, model_path, chunks, save_sets,
        0.0 if args.short else args.seconds, spans)
    rounds = len(samples["mel"])
    thread_path = "tiled" if args.workload == "stream" else "monolithic"
    metrics = tracing.per_layer_metrics(samples, net, plan, thread_path)
    record.update(rounds=rounds, thread_path=thread_path, samples_ms=samples,
                  spans=[list(s) for s in spans.records])
    return metrics, rounds, failed, problems


def run_one(args) -> int:
    workloads.import_binsed()
    from binsed import executor, model_io

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="model-", dir=OUT_DIR))
    try:
        model_path = tmp / "model.bsed"
        model_io.save_file(model_io.gen_random_model(args.seed), model_path)
        audio = workloads.make_audio(args.workload, args.seed)
        pipe = workloads.prepare(args.workload, model_path, audio, workloads.nproc())
        expected, chunks, save_sets, problems = expected_outputs(args.workload, pipe, args.seed)
        plan = pipe.plan or executor.plan_tiles(pipe.model.network, workloads.TILES)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "short": args.short,
                  "meta": run_meta(pipe.threads, plan)}
        if args.trace:
            metrics, attempted, failed, op_probs = traced(
                args, pipe, plan, model_path, chunks, save_sets, record)
        else:
            metrics, attempted, failed, op_probs = end_to_end(
                args, pipe, model_path, expected, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems += op_probs
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, problems=problems[:20])
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for p in problems[:10]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload} trace={args.trace}: attempted {attempted}, failed {failed}, "
          f"correct {correct}; record in {out_file.relative_to(ROOT)}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:>14.6g} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, checked against BENCHMARK.json
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for tr, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(tr)] + (["--short"] if args.short else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:
                result = {}
            print(json.dumps({"workload": name, "trace": tr, **result}))
            got = result.get("metrics", {})
            for m in spec[key]:
                entry = got.get(m["name"])
                if not isinstance(entry, dict) or not isinstance(entry.get("value"), (int, float)):
                    print(f"MISSING: {name} trace={tr}: {m['name']}", file=sys.stderr)
                    ok = False
                elif entry.get("unit") != m["unit"]:
                    print(f"WRONG UNIT: {name} trace={tr}: {m['name']} is "
                          f"{entry.get('unit')!r}, expected {m['unit']!r}", file=sys.stderr)
                    ok = False
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                print(f"FAILED: {name} trace={tr} exited {proc.returncode}", file=sys.stderr)
                ok = False
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one round of ops per run, to check the output quickly")
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
