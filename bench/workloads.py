"""Benchmark workloads: seeded corpora of CLI ops and their output checks.

Every op is one `rkdom` CLI invocation that reads a single graph6 line on
stdin.  A corpus is a stratified grid: every parameter cell gets the same
number of seeded G(n, p) graphs, so two seeds differ only in which graphs
fill each cell, never in the mix of sizes and k.  The op order is then
shuffled with the same seed.

rkdom is imported inside the functions, not at module level, so that the
import is part of the timed set-up and the tracer can patch it first.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

PROBS = (0.2, 0.35, 0.5, 0.65, 0.8)

# One per-op deadline for every workload, in reference seconds (see
# speed.py).  Over 4000 n = 8 `compute --quantity all` ops, the slowest op
# that finished took about 0.6 s; the known hard d_R^k instances at n = 8
# take from several seconds to over a minute.  An op that hits the
# deadline is aborted and counted as failed.
DEADLINE_S = 1.0


@dataclass(frozen=True)
class Op:
    graph6: str
    k: int
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Op]]


def _graph6(n: int, prob: float, rng: random.Random) -> str:
    from rkdom.graphs import FamilySpec, encode_graph6, generate
    spec = FamilySpec("random-gnp", n=n, prob=prob, seed=rng.getrandbits(32))
    return encode_graph6(generate(spec))


def _verify_ng(rng: random.Random) -> list[Op]:
    return [Op(_graph6(n, p, rng), k,
               ("verify", "--graph", "-", "--k", str(k), "--nordhaus-gaddum"))
            for _ in range(20) for n in (5, 6, 7) for p in PROBS
            for k in (1, 2, 3)]


def _gamma_large(rng: random.Random) -> list[Op]:
    probs = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
    return [Op(_graph6(n, p, rng), k,
               ("compute", "--graph", "-", "--k", str(k), "--quantity", q))
            for _ in range(12) for n in range(12, 17) for p in probs
            for k in (1, 2, 3) for q in ("gamma-kr", "gamma-k")]


def _compute_n8(rng: random.Random) -> list[Op]:
    return [Op(_graph6(8, p, rng), k,
               ("compute", "--graph", "-", "--k", str(k), "--quantity", "all"))
            for _ in range(40) for p in PROBS for k in (1, 2, 3)]


WORKLOADS = {w.name: w for w in (
    Workload("verify-ng",
             "verify --nordhaus-gaddum, n 5-7, k 1-3: pool enumeration, the "
             "d_R^k search and repeated solves of one instance dominate",
             _verify_ng),
    Workload("gamma-large",
             "compute gamma-kr or gamma-k, n 12-16: the roman branch and "
             "bound dominates and pool and domatic code is never called",
             _gamma_large),
    Workload("compute-n8",
             "compute --quantity all at n = 8: pool enumeration in typical "
             "ops, a d_R^k proof search tail cut by the per-op deadline",
             _compute_n8),
)}


def build_corpus(workload: Workload, seed: int) -> tuple[Op, list[Op]]:
    """The warm-up op and the shuffled corpus.

    The warm-up op is the first grid cell's (smallest n and p, k = 1), so
    its cost, part of set-up time, barely depends on the seed.
    """
    rng = random.Random(seed)
    ops = workload.build(rng)
    warm_up = ops[0]
    rng.shuffle(ops)
    return warm_up, ops


def check_output(op: Op, code: int | None, stdout: str) -> str | None:
    """Return why an op's result is wrong, or None when it checks out.

    A verify op must exit 0 (every applicable bound holds).  A compute op
    must exit 0 and every witness must pass the package validator for its
    quantity, with weight or size equal to the reported value.
    """
    from rkdom.domatic import validate_family, validate_partition
    from rkdom.graphs import parse_graph6
    from rkdom.roman import (is_k_dominating, labeling_from_string,
                             validate_rkdf, weight)
    if code is None:
        return f"deadline of {DEADLINE_S} s exceeded"
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if op.argv[0] == "verify":
        return None
    if payload["graph"]["graph6"] != op.graph6 or payload["k"] != op.k:
        return "graph or k echoed wrongly"
    g = parse_graph6(op.graph6)
    k = op.k
    for res in payload["results"]:
        quantity, value, w = res["quantity"], res["value"], res["witness"]
        if quantity == "gamma_k":
            members = [v for v, bit in enumerate(w) if bit == "1"]
            ok = (len(w) == g.n and set(w) <= {"0", "1"}
                  and is_k_dominating(g, k, members) and len(members) == value)
        elif quantity == "gamma_kr":
            f = labeling_from_string(w)
            ok = not validate_rkdf(g, k, f) and weight(f) == value
        elif quantity == "d_k":
            ok = not validate_partition(g, k, w) and len(w) == value
        elif quantity == "d_rk":
            fam = [labeling_from_string(s) for s in w]
            ok = not validate_family(g, k, fam) and len(fam) == value
        else:
            return f"unknown quantity {quantity!r}"
        if not ok:
            return f"{quantity} witness does not certify value {value}"
    return None
