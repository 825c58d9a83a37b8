"""One cold start: time a fresh process's set-up of a workload, print it.

Set-up runs from the first import of ``binsed`` through loading the model,
planning tiles and the first op, so it includes every lazy cache and table a
new process fills.  ``run.py`` starts several of these per run and reports
their median as ``setup_s``.

    python3 bench/coldstart.py --workload clip --seed 1 --model M --threads 2
"""

from __future__ import annotations

import argparse
import time

import workloads


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--model", required=True)
    ap.add_argument("--threads", type=int, required=True)
    args = ap.parse_args()

    audio = workloads.make_audio(args.workload, args.seed)
    t0 = time.perf_counter()
    pipe = workloads.prepare(args.workload, args.model, audio, args.threads)
    pipe.op(pipe.inputs[0])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
