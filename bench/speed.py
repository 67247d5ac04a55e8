"""Machine-speed probe that scales measured times to a reference speed.

Other load on a shared machine slows this process by up to a third for
seconds at a time, in CPU time as well as wall time.  A fixed piece of
pure-Python work, timed between ops, measures that slowdown.  A time
measured next to a probe is multiplied by scale(probe) = REFERENCE_S /
probe, so it reads as it would on the lightly loaded reference machine.
The probe is benchmark code: no change to rkdom changes it.
"""

from __future__ import annotations

import json
from time import perf_counter

# Probe time on the lightly loaded reference machine, a shared 2-core
# x86-64 VM running CPython 3.11.
REFERENCE_S = 0.00105

# A fixed 16-vertex graph for the branch-and-bound half of the probe.
_ADJ = tuple(((0xB5A3 * (v + 7)) ^ (0x3C1F << (v % 5))) & 0xFFFF & ~(1 << v)
             for v in range(16))
_NODE_CAP = 300


def _work() -> int:
    # A capped dominating-set branch and bound over bitmask rows with
    # per-vertex counters, as in the solvers; dict and string traffic and
    # pure-Python JSON encoding, as in the CLI.  Together they track the
    # slowdown of both workloads better than either kind alone.
    n = len(_ADJ)
    cover = [0] * n
    best = n
    nodes = 0

    def rec(pos: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if size >= best or nodes > _NODE_CAP:
            return
        if pos == n:
            if all(cover):
                best = size
            return
        row = _ADJ[pos] | 1 << pos
        v = row
        while v:
            low = v & -v
            cover[low.bit_length() - 1] += 1
            v ^= low
        rec(pos + 1, size + 1)
        v = row
        while v:
            low = v & -v
            cover[low.bit_length() - 1] -= 1
            v ^= low
        rec(pos + 1, size)

    rec(0, 0)
    counts: dict[str, int] = {}
    for i in range(600):
        key = f"k{i % 37}"
        counts[key] = counts.get(key, 0) + len(str(i))
    doc = {"schema": "1", "values": {"a": [1, 2, 3], "b": {"c": "xyz" * 5}},
           "n": 12}
    total = best
    for i in range(30):
        total += len(json.dumps(doc, indent=2))
        total += len(f"{i}:{doc['n']}".split(":"))
    return total + len("".join(counts))


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scale(probe_s: float) -> float:
    return REFERENCE_S / probe_s
