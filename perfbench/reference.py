"""Reference outputs and the check of each operation against them.

References live in ``reference/<workload>.json`` as
``{"scale": {"seed": outputs}}``, recorded by ``record.py`` from the
package as it stood when they were taken, whatever it output then. For a
seed without a recorded reference, every op of a run is checked against
the run's own first op instead (exact equality), and the run says so.
"""

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

STATISTIC_RTOL = 1e-12
DISSIMILARITY_ATOL = 1e-12


def path_for(workload, directory=REFERENCE_DIR):
    return os.path.join(directory, f"{workload}.json")


def load(workload, scale, seed, directory=REFERENCE_DIR):
    """Recorded outputs for ``(workload, scale, seed)``, or None."""
    try:
        with open(path_for(workload, directory), encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        return None
    return recorded.get(scale, {}).get(str(seed))


def store(workload, scale, outputs_by_seed, directory=REFERENCE_DIR):
    """Merge ``{seed: outputs}`` into the workload's reference file, one
    seed per line."""
    path = path_for(workload, directory)
    try:
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        recorded = {}
    table = recorded.setdefault(scale, {})
    for seed, outputs in outputs_by_seed.items():
        table[str(seed)] = outputs
    blocks = []
    for name in sorted(recorded):
        rows = sorted(recorded[name].items(), key=lambda item: int(item[0]))
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(out, sort_keys=True)}" for seed, out in rows)
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")


def compare(output, reference, *, exact=False):
    """Mismatches of one op's ``output`` against ``reference``, as messages.

    The statistic may differ by a relative 1e-12 and dissimilarities by an
    absolute 1e-12, which a different BLAS thread count can cause; p-values,
    decisions, rejection counts and accuracies must be equal. ``exact``
    demands equality everywhere (an op against an earlier op of one run).
    """
    if set(output) != set(reference):
        return [f"output keys {sorted(output)} != reference keys {sorted(reference)}"]
    problems = []
    for key, want in reference.items():
        got = output[key]
        if key == "statistic" and not exact:
            if not math.isclose(got, want, rel_tol=STATISTIC_RTOL, abs_tol=0.0):
                problems.append(f"statistic {got!r} != {want!r} (rel tol {STATISTIC_RTOL:g})")
        elif key == "dissimilarity" and not exact:
            if len(got) != len(want):
                problems.append(f"dissimilarity has {len(got)} entries, reference {len(want)}")
                continue
            worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            if not worst <= DISSIMILARITY_ATOL:
                problems.append(f"dissimilarity off by {worst:.3g} (abs tol {DISSIMILARITY_ATOL:g})")
        elif got != want:
            problems.append(f"{key} {got!r} != {want!r}")
    return problems
