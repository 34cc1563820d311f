"""Toy train step time per context-block variant, for reference figures.

    python3 tfbench/variant_steps.py [--seconds 15] [--seed 1]

Runs the train_dct_tfe workload's set-up and timed steps once per variant
(none, SE, Att, DCT, Att+TFE, DCT+TFE) with the same BLAS thread count as
run.py, and prints the median step wall and CPU time.
"""

import argparse
import os
import shutil
import statistics
import sys

from run import fix_blas_threads

VARIANTS = [("none", ("none", False)), ("se", ("se", False)), ("att", ("att_gcm", False)),
            ("dct", ("dct_gcm", False)), ("att_tfe", ("att_gcm", True)),
            ("dct_tfe", ("dct_gcm", True))]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    fix_blas_threads()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from tracer import Tracer

    for label, block in VARIANTS:
        work_dir = os.path.join(os.getcwd(), ".tfbench_runs", f"variant-{label}-{os.getpid()}")
        os.makedirs(work_dir)
        try:
            wl = workloads.TrainDctTfe(work_dir, args.seed, tiny=False, block=block)
            clock = workloads.Clock(args.seconds, Tracer(), traced=False)
            wl.execute(clock)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        walls = [w * 1e3 for w, _, _ in clock.units]
        cpus = [c * 1e3 for _, c, _ in clock.units]
        print(f"{label:8s} step_ms_p50={statistics.median(walls):7.1f} "
              f"cpu_ms_p50={statistics.median(cpus):7.1f} steps={len(walls)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
