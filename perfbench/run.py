#!/usr/bin/env python3
"""Benchmark launcher for stepalign.

    python3 perfbench/run.py --workload paper-fold --seed 0 --seconds 8 --trace 0

Runs fold 0 of the paper's protocol on one workload from the checkout's
own ``src/``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it wraps the library's module boundaries and reports
per-module self time and counts. The last line of standard output is the
JSON result; the line before it describes the machine and the run.
Records and span traces land in ``perfbench/out/``.

BLAS and OpenMP are pinned to one thread before numpy loads, and all
load comes from this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the inference pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import stepalign
    if Path(stepalign.__file__).resolve().parent != ROOT / "src" / "stepalign":
        print(f"stepalign imported from {stepalign.__file__}, not from the "
              f"checkout's src/", file=sys.stderr)
        return 2
    import bench
    info, result = bench.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), BENCH_DIR / "out")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
