"""Per-layer timing report: the paper's per-layer and whole-network MAC/s.

Every layer row times the executor's own layer function, so the report shows
what inference runs; the comparisons reuse those rows or time the same
fused binary kernel.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .executor import (
    BINARY_CONV,
    NetworkSpec,
    check_input,
    count_macs,
    is_reference_topology,
    layer_table,
    prepare_layer,
    run_layer,
    run_monolithic,
)
from .frontend import FrontendConfig, mel_spectrogram
from .kernels import resolve_popcount_name
from .tensors import unpack, unpack_weights


@dataclass
class BenchReport:
    rows: list[dict] = field(default_factory=list)
    comparisons: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json_lines(self) -> str:
        lines = [json.dumps({"meta": self.meta})]
        lines += [json.dumps(row) for row in self.rows]
        for key, value in self.comparisons.items():
            lines.append(json.dumps({"comparison": key, **value}))
        return "\n".join(lines)

    def to_text(self) -> str:
        out = [f"{'Layer':<14} {'MACs':>12} {'Time [ms]':>10} {'MAC/s':>12}"]
        for r in self.rows:
            macs = f"{r['macs']:,}" if r["macs"] is not None else "-"
            rate = f"{r['mac_per_s']:.3g}" if r["mac_per_s"] is not None else "-"
            out.append(f"{r['row']:<14} {macs:>12} {r['time_s'] * 1e3:>10.2f} {rate:>12}")
        for key, value in self.comparisons.items():
            pretty = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in value.items())
            out.append(f"[{key}] {pretty}")
        return "\n".join(out)


def _median_time(fn, repetitions: int) -> float:
    fn()  # warm-up, discarded
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench(net: NetworkSpec, frontend_cfg=None, repetitions: int = 3,
          threads: int = 1, include_naive: bool = True) -> BenchReport:
    """Per-layer timing report plus packed-vs-naive and popcount comparisons.

    Layer rows time each layer single-threaded on its own cached input, with
    its step prepared beforehand, as inference keeps it; the Total row times
    one end-to-end frontend + run_monolithic at ``threads``.  Each binary
    layer's packed time is its layer row; the naive comparison runs the
    triple-loop oracle once per binary layer, so it dominates the wall time
    of the benchmark itself.  The popcount comparison times the largest
    binary layer's prepared fused kernel with each backend.  Timing fields
    vary run to run; everything else (MACs, row structure) is deterministic.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    cfg = frontend_cfg or FrontendConfig()
    # every timed kernel does the same work whatever the audio
    rng = np.random.default_rng(0)
    audio = (rng.uniform(-0.5, 0.5, cfg.patch_samples) * 32767).astype(np.int16)

    mel_time = _median_time(lambda: mel_spectrogram(audio, cfg), repetitions)
    x = mel_spectrogram(audio, cfg)
    check_input(x, net)

    macs = count_macs(net)
    names = net.layer_names()
    # each layer's step is prepared once, as inference keeps it, and not timed
    inputs, steps = [x], []
    for layer in net.layers:
        steps.append(prepare_layer(layer, inputs[-1], None))
        inputs.append(run_layer(layer, inputs[-1], None, steps[-1]))

    rows = [{"row": "Mel bins", "group": "Mel bins", "macs": None,
             "time_s": mel_time, "mac_per_s": None}]
    for i, layer in enumerate(net.layers):
        t = _median_time(lambda layer=layer, xin=inputs[i], step=steps[i]:
                         run_layer(layer, xin, None, step), repetitions)
        m = macs["layers"][i]["macs_same_pad"]
        group = names[i]
        if is_reference_topology(net) and i >= len(net.layers) - 2:
            group = "5./6. Layer"  # last two layers are merged in firmware reports
        rows.append({"row": names[i], "group": group, "macs": m,
                     "time_s": t, "mac_per_s": m / t if t > 0 else None})

    # The total is timed end to end at the requested thread count, not summed
    # from the single-threaded layer rows.
    total_macs = macs["total_same_pad"]
    total_time = _median_time(
        lambda: run_monolithic(mel_spectrogram(audio, cfg), net, threads), repetitions)
    rows.append({"row": "Total", "group": "Total", "macs": total_macs,
                 "time_s": total_time,
                 "mac_per_s": total_macs / total_time if total_time > 0 else None})

    binary = [i for i, layer in enumerate(net.layers) if layer.kind == BINARY_CONV]
    comparisons = {}
    if include_naive:
        for i in binary:
            layer = net.layers[i]
            packed_t = rows[i + 1]["time_s"]
            dense_in = unpack(inputs[i])
            dense_w = unpack_weights(layer.weights)
            t0 = time.perf_counter()
            oracle.naive_binary_conv(dense_in, dense_w, layer.stride)
            naive_t = time.perf_counter() - t0
            comparisons[f"packed_vs_naive/{names[i]}"] = {
                "packed_s": packed_t, "naive_s": naive_t,
                "speedup": naive_t / packed_t if packed_t > 0 else float("inf"),
            }
    if binary:
        biggest = max(binary, key=lambda i: macs["layers"][i]["macs_same_pad"])
        layer = net.layers[biggest]
        xin = inputs[biggest]
        times = {}
        for backend in ("native", "portable"):
            try:
                step = prepare_layer(layer, xin, None, layer_table(layer, backend))
            except ValueError:  # no native instruction in this numpy
                times[backend] = None
                continue
            times[backend] = _median_time(
                lambda step=step: run_layer(layer, xin, None, step), repetitions)
        comparisons["popcount_native_vs_portable"] = {
            "layer": names[biggest],
            "native_s": times["native"],
            "portable_s": times["portable"],
        }

    meta = {"threads": threads, "repetitions": repetitions,
            "popcount": resolve_popcount_name(), "rows": len(rows)}
    return BenchReport(rows=rows, comparisons=comparisons, meta=meta)
