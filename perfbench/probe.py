"""Host-speed probe: rescale measured seconds to a nominal host speed.

The benchmark runs on shared hosts whose CPU speed drifts by tens of per
cent over seconds to minutes, the same for every program on the host. The
probe is a fixed single-threaded kernel that does not touch rdpgtest:
numpy ufuncs, a numpy sort and an interpreted Python loop, the kinds of
work a workload op is made of. Timed in the same process right before and
after an op, it gives the host's speed during that op; ``scaled`` turns
the op's wall seconds into seconds on a host where the probe takes
``NOMINAL_S``. A change to rdpgtest moves the ops but not the probe, so it
shows in full.
"""

import time

import numpy as np

# About the probe's median on the 2-vCPU Xeon VM where the benchmark was
# written. Any fixed value would do: it only sets the scale.
NOMINAL_S = 0.1

_VECTOR = np.random.default_rng(0).standard_normal(200_000)
# Every array the probe writes is this one: a probe that allocated its
# temporaries would time the allocator, whose cost depends on what the
# process allocated before (a fresh 1.6 MB block may or may not need new
# pages), instead of the host's speed.
_BUFFER = np.empty_like(_VECTOR)


def _pass():
    start = time.perf_counter()
    for _ in range(30):
        np.multiply(_VECTOR, _VECTOR, out=_BUFFER)
        np.negative(_BUFFER, out=_BUFFER)
        np.exp(_BUFFER, out=_BUFFER)
    for _ in range(15):
        np.copyto(_BUFFER, _VECTOR)
        _BUFFER.sort()
    table = {}
    for i in range(250_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def run():
    """Mean seconds of one pass of the probe kernel, over two passes."""
    return (_pass() + _pass()) / 2


def measure():
    """``run()`` after one untimed warm-up pass, for a fresh process."""
    _pass()
    return run()


def scaled(seconds, probe_seconds):
    """``seconds`` measured while the probe took ``probe_seconds``, in seconds
    on a host where the probe takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / probe_seconds


def scaled_ops(op_seconds, probes):
    """Scale each op by the mean of the probes just before and after it;
    ``probes`` has one more entry than ``op_seconds``."""
    if len(probes) != len(op_seconds) + 1:
        raise ValueError(f"{len(op_seconds)} ops need {len(op_seconds) + 1} probes, got {len(probes)}")
    return [scaled(op, (before + after) / 2) for op, before, after in zip(op_seconds, probes, probes[1:])]
