"""Traced pass: the per-layer split, timed from outside the package.

``traced_network`` replays the executor's monolithic layer loop on one
patch, single-threaded, calling the public kernels directly and recording
each call as a span.  Its scores must equal ``run_monolithic`` bit for bit.
A round of ``trace_rounds`` times, on one patch, the frontend, model loading,
feature serialization, the untraced executor paths and the traced replay, so
that for every round

    sum(kernel spans) + unattributed + tracing overhead = traced replay time

where unattributed = monolithic (1 thread) - sum(kernel spans) and tracing
overhead = traced replay - monolithic (1 thread).  Spans stay in memory and
are written out with the run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROOT_SPAN = "executor.traced"


class Spans:
    """In-memory span log: (op, name, parent, start_ns, end_ns)."""

    def __init__(self):
        self.records: list[tuple] = []

    def call(self, op: int, name: str, fn, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.records.append((op, name, ROOT_SPAN, t0, time.perf_counter_ns()))
        return out


def _unpack_int32(t):
    from binsed import tensors
    return tensors.unpack(t).astype(np.int32)


def _pool(values):
    from binsed import kernels
    pool = kernels.global_avg_pool(values)
    return pool, kernels.predict(pool.sums)


def traced_network(x, net, spans: Spans, op: int) -> dict:
    """One traced forward pass; returns scores, divisor and prediction."""
    from binsed import executor, kernels, tensors

    start = time.perf_counter_ns()
    cur = x
    for i, layer in enumerate(net.layers):
        p = f"kernels.L{i}"
        if layer.kind == executor.FIXED_CONV:
            acc = spans.call(op, f"{p}.conv2d_fixed", kernels.conv2d_fixed,
                             cur, layer.fixed, layer.stride)
            cur = spans.call(op, f"{p}.binarize_sign", kernels.binarize_sign, acc, layer.fold)
        elif layer.kind == executor.BINARY_CONV:
            acc = spans.call(op, f"{p}.conv2d_binary", kernels.conv2d_binary,
                             cur, layer.weights, layer.stride)
            cur = spans.call(op, f"{p}.threshold_activation",
                             kernels.threshold_activation, acc, layer.fold)
        else:
            dense = spans.call(op, f"{p}.unpack", _unpack_int32, cur)
            ft = tensors.FixedTensor(cur.height, cur.width, cur.channels, dense, 0, 32)
            cur = spans.call(op, f"{p}.conv2d_fixed", kernels.conv2d_fixed,
                             ft, layer.fixed, layer.stride)
    pool, prediction = spans.call(op, "kernels.pool", _pool, cur.values)
    spans.records.append((op, ROOT_SPAN, None, start, time.perf_counter_ns()))
    return {"scores": [int(s) for s in pool.sums], "divisor": int(pool.count),
            "prediction": int(prediction)}


def _ms(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return (time.perf_counter_ns() - t0) / 1e6, out


def trace_rounds(pipe, plan, model_path, chunks, save_sets, seconds: float,
                 spans: Spans):
    """Rounds for ``seconds``, at least one.  Round r works on chunks[r % len];
    save_sets[r % len] is the patch list one op of the workload serializes.
    Returns (samples, failed rounds, problems)."""
    from binsed import executor, frontend, model_io
    from checks import result_dict

    cfg, net = pipe.model.frontend, pipe.model.network
    samples: dict[str, list[float]] = {}
    problems: list[str] = []
    failed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        chunk = chunks[r % len(chunks)]
        row = {}
        row["stft"], _ = _ms(frontend.stft_power, chunk, cfg)
        row["mel"], x = _ms(frontend.mel_spectrogram, chunk, cfg)
        row["load"], _ = _ms(model_io.load_file, model_path)
        row["save"], _ = _ms(model_io.save_features, save_sets[r % len(save_sets)], cfg)
        first = len(spans.records)
        # The untraced and traced runs swap places every round, so neither
        # always inherits the cache state the other leaves behind.
        if r % 2:
            row["traced"], traced = _ms(traced_network, x, net, spans, r)
        row["mono1"], mono1 = _ms(executor.run_monolithic, x, net, 1)
        if not r % 2:
            row["traced"], traced = _ms(traced_network, x, net, spans, r)
        row["monoN"], monoN = _ms(executor.run_monolithic, x, net, pipe.threads)
        row["tiled1"], tiled1 = _ms(executor.run_tiled, x, net, plan, 1)
        row["tiledN"], tiledN = _ms(executor.run_tiled, x, net, plan, pipe.threads)
        own = spans.records[first:]
        kernel_ns = sum(e - s for _, _, parent, s, e in own if parent == ROOT_SPAN)
        row["spans"] = kernel_ns / 1e6
        row["unattributed"] = row["mono1"] - row["spans"]
        row["overhead"] = row["traced"] - row["mono1"]
        for _, name, parent, s, e in own:
            if parent == ROOT_SPAN:
                row[name] = row.get(name, 0.0) + (e - s) / 1e6

        want = result_dict(mono1)
        before = len(problems)
        for label, got in (("threads", result_dict(monoN)), ("tiled", result_dict(tiled1)),
                           ("tiled threads", result_dict(tiledN)), ("traced", traced)):
            if got != want:
                problems.append(f"round {r}: {label} scores differ from run_monolithic")
        root = own[-1]
        if any(s < root[3] or e > root[4] for _, _, _, s, e in own[:-1]):
            problems.append(f"round {r}: kernel spans fall outside the traced replay")
        failed += len(problems) > before
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
        r += 1
    return samples, failed, problems


def per_layer_metrics(samples: dict, net, plan, thread_path: str) -> dict:
    """Medians over rounds, plus the static accounting figures."""
    from binsed import executor

    med = {k: statistics.median(v) for k, v in samples.items()}
    m = {
        "frontend.mel_spectrogram_ms": (med["mel"], "ms"),
        "frontend.stft_power_ms": (med["stft"], "ms"),
        "model_io.load_file_ms": (med["load"], "ms"),
        "model_io.save_features_ms": (med["save"], "ms"),
    }
    macs = executor.count_macs(net)["layers"]
    for i in range(len(net.layers)):
        names = [k for k in samples if k.startswith(f"kernels.L{i}.")]
        for k in names:
            m[f"{k}_ms"] = (med[k], "ms")
        layer_ms = statistics.median(
            [sum(samples[k][r] for k in names) for r in range(len(samples["mel"]))])
        m[f"kernels.L{i}.gmac_per_s"] = (macs[i]["macs_same_pad"] / layer_ms / 1e6, "GMAC/s")
    m["kernels.pool_ms"] = (med["kernels.pool"], "ms")

    one, many = ("tiled1", "tiledN") if thread_path == "tiled" else ("mono1", "monoN")
    input_w = net.input_shape[1]
    fp = executor.footprint(net, plan=plan)
    m.update({
        "executor.monolithic_ms": (med["mono1"], "ms"),
        "executor.unattributed_ms": (med["unattributed"], "ms"),
        "executor.tracing_overhead_ms": (med["overhead"], "ms"),
        "executor.tiled_ms": (med["tiled1"], "ms"),
        "executor.tiling_overhead": (med["tiled1"] / med["mono1"], "ratio"),
        "executor.halo_recompute_ratio": (
            sum(hi - lo for lo, hi in plan.in_ranges) / input_w, "ratio"),
        "executor.thread_speedup": (med[one] / med[many], "ratio"),
        "executor.weight_bytes": (fp["weight_bytes"], "B"),
        "executor.footprint_total_bytes": (fp["total_bytes"], "B"),
        "executor.tile_peak_bytes": (fp["tile_peak_bytes"], "B"),
    })
    return m
