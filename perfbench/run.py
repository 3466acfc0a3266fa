"""Benchmark of ldslab's generate -> learn -> evaluate -> cluster flow.

Run from the repository root::

    python3 perfbench/run.py --workload paper-200k --seed 42 --seconds 20 --trace 0

Workloads are listed in ``flows.WORKLOADS``; metrics in ``metrics.py``.  The
program is imported from ``src/`` of the checkout this file sits in, and
nowhere else.  The seed fixes every input: data seed = seed, learn seed =
seed + 1, holdout seed = seed + 2 (the default 42 gives the paper's 42/43).

Every run starts with an untimed warm-up pass at a tiny size.  With
``--trace 0`` the flow is then repeated at least ``bench.MIN_PASSES`` times and
until ``--seconds`` have passed, and the end-to-end metrics are medians over
the passes.  With ``--trace 1`` each round is one traced pass followed by one
untraced pass, and the per-layer metrics are medians over the traced passes.

Output: one JSON line with the environment, sizes, checks and details, then
as the last line ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every phase and output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_program() -> None:
    """Put the checkout's src first on sys.path and import ldslab from there only."""
    if not os.path.isfile(os.path.join(SRC, "ldslab", "__init__.py")):
        raise SystemExit(f"perfbench: no ldslab sources under {SRC}")
    sys.path.insert(0, SRC)
    import ldslab

    found = os.path.abspath(ldslab.__file__)
    if not found.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: ldslab imported from {found}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)  # flows.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    import bench
    import flows

    if args.workload not in flows.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(flows.WORKLOADS)}")
    info, out = bench.measure(flows.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(info))
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
