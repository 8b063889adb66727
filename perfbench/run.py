"""Pipeline benchmark of rdpgtest: one workload, one seed, one run.

    python3 perfbench/run.py --workload test_large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of the workload:

``op_s``         median wall seconds of one op, after a warm-up op, scaled
                 to the nominal host speed of ``probe.py``
``peak_rss_mb``  peak resident memory of the process that ran the ops
``setup_s``      process start to inputs ready (import and input
                 generation), each scaled by its own process's probe,
                 median over three fresh processes

With ``--trace 1`` it reports the per-layer metrics of a run that
alternates untraced and traced ops (see ``worker.py``). Every op's output
is checked against the recorded reference (``reference.py``); a mismatch
or an exception counts as a failed op. Human-readable lines come first;
the last line of standard output is the JSON result. Details of the run
(samples, quartiles, context, failures) go to ``perfbench/_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKER = os.path.join(HERE, "worker.py")

# Same as workloads.NAMES; this process does not import the package, so
# that it can refuse to run cleanly when the package is missing.
WORKLOADS = ("test_large", "null_heavy", "power_grid", "dissim_io")
SETUP_PROCESSES = 3
DEADLINE_S = 170.0
# One BLAS thread: on a shared 2-vCPU host a second thread made an op's
# time depend on what else the host ran, which the single-threaded probe
# does not see. The statistic's last bits depend on the thread count, so
# it is fixed: the references were recorded with one thread.
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def spawn(args, deadline):
    """Run one worker process; returns its JSON result."""
    argv = [sys.executable, WORKER, *args, "--spawned", repr(time.monotonic())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:g} s deadline") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_once(workload, seed, seconds, trace, scale):
    """One run of one workload; returns ``(result, details)``."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-{scale}-seed{seed}-trace{trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=OUT)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--scale", scale]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(spawn([*common, "--workdir", workdir, "--setup-only"], deadline))
        spans_path = os.path.join(OUT, tag + "-spans.json")
        extra = ["--trace", "1", "--spans", spans_path] if trace else []
        main = spawn([*common, "--workdir", workdir, *extra], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = main.get("op_seconds", [])
    setup_wall, setup_scaled = [], []
    if trace:
        metrics = main.get("layers", {})
    elif plain:
        setups.append(main)
        setup_wall = [s["setup_s"] for s in setups]
        setup_scaled = [s["setup_scaled_s"] for s in setups]
        metrics = {
            "op_s": {"value": statistics.median(main["op_scaled_seconds"]), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        }
    else:
        metrics = {}
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "context": {
            **main["context"],
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": worker_env()["OPENBLAS_NUM_THREADS"],
            "python": sys.version.split()[0],
        },
        "reference": main.get("reference"),
        "warmup_s": main.get("warmup_s"),
        "op_seconds": plain,
        "probe_seconds": main.get("probe_seconds"),
        "probe_nominal_s": main.get("probe_nominal_s"),
        "op_scaled_seconds": main.get("op_scaled_seconds"),
        "traced_op_seconds": main.get("traced_op_seconds"),
        "setup_seconds": setup_wall,
        "setup_probe_seconds": [s["setup_probe_s"] for s in setups],
        "setup_scaled_seconds": setup_scaled,
        "failures": main["failures"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    result = {
        "correct": main["failed"] == 0 and bool(metrics),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return result, details


def describe(result, details):
    """Human-readable lines for one run."""
    ctx = details["context"]
    lines = [
        f"# {details['workload']} seed={details['seed']} trace={details['trace']} sizes={json.dumps(ctx['sizes'])}",
        f"# context: sha={ctx['git_sha']} source={ctx['source_sha256'][:12]} nproc={ctx['nproc']} "
        f"OPENBLAS_NUM_THREADS={ctx['OPENBLAS_NUM_THREADS']} blas={ctx['numpy_blas']} "
        f"numpy={ctx['numpy']} scipy={ctx['scipy']}",
        f"# reference: {details['reference']}; ops_failed = {result['failed']}/{result['attempted']}"
        f" = {result['failed'] / max(result['attempted'], 1):g}",
    ]
    lines += [f"#   failure: {f.strip()}" for f in details["failures"]]
    plain = details["op_seconds"]
    if plain and not details["probe_seconds"]:
        lines.append(f"# untraced op wall s: median {statistics.median(plain):.6g}, n={len(plain)}")
    elif plain:
        scaled = details["op_scaled_seconds"]
        low, high = quartiles(scaled)
        lines.append(
            f"# op_s: median {statistics.median(scaled):.6g} s, quartiles [{low:.6g}, {high:.6g}], "
            f"n={len(scaled)}; wall median {statistics.median(plain):.6g} s, warm-up {details['warmup_s']:.6g} s; "
            f"host probe median {statistics.median(details['probe_seconds']):.6g} s, "
            f"nominal {details['probe_nominal_s']:g} s"
        )
        lines.append(
            f"# setup_s: wall median {statistics.median(details['setup_seconds']):.6g} s over "
            f"{len(details['setup_seconds'])} processes, each scaled by its own probe"
        )
    for name, entry in result["metrics"].items():
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke test sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rdpgtest", "__init__.py")):
        print(f"error: no rdpgtest package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        if args.workload != "all":
            result, details = run_once(args.workload, args.seed, args.seconds, args.trace, args.scale)
            print("\n".join(describe(result, details)))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, details = run_once(workload, args.seed, args.seconds, trace, args.scale)
                print("\n".join(describe(result, details)), flush=True)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, entry in result["metrics"].items():
                    combined["metrics"][f"{workload}.{name}"] = entry
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
