"""Record the reference outputs of the workloads from the current source.

    python3 perfbench/record.py --workload all --seeds 0-31 [--scale full]

For each seed it sets the workload up and runs one op in this process,
then merges the outputs, as they come out, into
``reference/<workload>.json``. Run it on the commit whose outputs later
commits are checked against; to re-check a claim on a new seed, record
that seed on the parent commit first.
"""

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import BLAS_THREADS  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text):
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    for name in names:
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=out)
            try:
                output = workloads.op(name, workloads.setup(name, args.scale, seed, workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            reference.store(name, args.scale, {seed: output})
            print(f"{name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
