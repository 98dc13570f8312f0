"""A fixed reference kernel that calibrates timings to the host's current speed.

On a shared virtual machine the speed of interpreted Python drifts by 10-30%
over seconds to minutes, as neighbours load the host, in wall time and CPU
time alike. Runs minutes apart then disagree by more than any useful
regression bound, however long each run is. The benchmark therefore times
this kernel between its operations and reports each timing scaled by
``sum(NOMINAL_MS[p]) / (mean of sum(pass[p]) over the run's passes)``,
summed over the parts ``p`` that stand for the timed work: the time the work
would take on a host where those parts take ``NOMINAL_MS``. Means, not
medians: the kernel runs for a fixed share of the op time, spread over the
run, so the two means weigh the host's slow and fast spells alike. A pass
lasts milliseconds and an op seconds, so their medians do not.

The kernel uses the standard library only, so no change to ``bionode`` moves
it. Its two parts stand in for the two kinds of work the workloads do, which
drift by different amounts: ``scan`` is interpreted Python, small objects
walked through generator expressions (blacklist lookups, roster builds, the
per-account loops of the Fath rebase and the vote loops), and ``modexp`` is
1024-bit modular exponentiation (the proofs).
"""

from __future__ import annotations

from time import perf_counter

# Typical milliseconds of each part on the machine where the bounds were set
# (a 2-vCPU Intel Xeon virtual machine, Python 3.11.7). Only ratios to them
# matter.
NOMINAL_MS = {"scan": 15.0, "modexp": 22.0}


class _Entry:
    __slots__ = ("node", "start", "end")

    def __init__(self, node: str, start: int, end: int):
        self.node, self.start, self.end = node, start, end

    def covers(self, now: int) -> bool:
        return self.start <= now < self.end


_ENTRIES = [_Entry(f"n{i * 7 % 1000:03d}", i, i + 400) for i in range(300)]
_IDS = [f"n{i:03d}" for i in range(1000)]
_MODULUS = 2**1024 - 1093337
_EXPONENT = 2**160 + 7


def _scan() -> int:
    return sum(1 for n in _IDS if any(e.node == n and e.covers(250) for e in _ENTRIES))


def _modexp() -> int:
    x = 3
    for _ in range(30):
        x = pow(x, _EXPONENT, _MODULUS)
    return x


PARTS = {"scan": _scan, "modexp": _modexp}


def run() -> dict[str, float]:
    """Seconds each part of one pass of the kernel took."""
    times = {}
    for name, part in PARTS.items():
        start = perf_counter()
        part()
        times[name] = perf_counter() - start
    return times
