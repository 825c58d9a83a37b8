"""Per-layer benchmark: timing, MAC/s, packed-vs-naive and popcount backends.

Numbers are machine-specific; the stable findings are the orderings: binary
layers deliver the highest MAC/s, the packed kernel beats the unpacked oracle
by orders of magnitude, and the native popcount instruction beats the
shift-and-mask fallback.
"""

from binsed import bench, gen_random_model, run_monolithic, run_tiled, plan_tiles
from binsed.tensors import FixedTensor

import numpy as np
import time

model = gen_random_model(1)
report = bench(model.network, model.frontend, repetitions=3, threads=1)
print(report.to_text())

best_bin = max(r["mac_per_s"] for r in report.rows if "Bin" in r["row"])
first = next(r["mac_per_s"] for r in report.rows if r["row"] == "First Layer")
print(f"\nbinary layers peak at {best_bin / 1e9:.1f} GMAC/s vs "
      f"{first / 1e9:.2f} GMAC/s for the fixed-point first layer "
      f"({best_bin / first:.0f}x): xor+popcount turns 32 MACs into 2 ops")

# --- threads -------------------------------------------------------------------
rng = np.random.default_rng(0)
vals = rng.integers(-20000, 12000, (64, 400, 1)).astype(np.int32)
x = FixedTensor(64, 400, 1, vals, model.frontend.output_qformat, 16)
plan = plan_tiles(model.network, 4)
for label, fn in (
    ("monolithic 1 thread ", lambda: run_monolithic(x, model.network, threads=1)),
    ("monolithic 8 threads", lambda: run_monolithic(x, model.network, threads=8)),
    ("4 tiles     1 thread ", lambda: run_tiled(x, model.network, plan, threads=1)),
    ("4 tiles     8 threads", lambda: run_tiled(x, model.network, plan, threads=8)),
):
    fn()  # warm up
    t0 = time.perf_counter()
    for _ in range(5):
        fn()
    print(f"{label}: {(time.perf_counter() - t0) / 5 * 1e3:6.1f} ms")
print("(all four paths produce bit-identical scores)")
