"""Benchmark command for tfctx.

    python3 tfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports tfctx from ``src/`` there and
works in ``.tfbench_runs/`` there, which it removes on exit. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Failed correctness checks are
listed on standard error. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BLAS_THREADS = 1
WORKLOAD_NAMES = ("train_dct_tfe", "eval_att_tfe", "gradcheck")


def fix_blas_threads() -> None:
    """Set the BLAS thread count; call before numpy loads, so that a run
    does not depend on the caller's environment."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks corpora and network for the self-test")
    args = parser.parse_args(argv)

    fix_blas_threads()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# numpy {np.__version__}, {blas['name']} {blas['version']}, "
          f"{BLAS_THREADS} BLAS thread(s), workload {args.workload}, seed {args.seed}")
    work_dir = os.path.join(root, ".tfbench_runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = workloads.run(args.workload, work_dir, args.seed, args.seconds,
                               bool(args.trace), args.size == "tiny")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in result.pop("failures"):
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
