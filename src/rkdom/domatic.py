"""Roman (k,k)-dominating families and exact domatic numbers.

A family is a tuple of pairwise-distinct RkDFs whose labels sum to at
most 2k at every vertex; d_R^k is the largest family size.  d_k is the
largest number of blocks in a partition of V into k-dominating sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, check_k, check_order, vertex_mask
from .roman import (Labeling, SolveResult, Violation, _decode, _multiples,
                    enumerate_rkdfs, is_k_dominating, validate_rkdf)

DEFAULT_DRK_N_LIMIT = 8
DEFAULT_DRK_K_LIMIT = 4
DEFAULT_DK_LIMIT = 10

VertexPartition = tuple[tuple[int, ...], ...]
Family = tuple[Labeling, ...]


def validate_family(g: Graph, k: int,
                    fam: Sequence[Labeling]) -> list[Violation]:
    """Check the three family invariants; empty result means valid.

    Member-level structural or RkDF failures are reported with the member
    index.  Structural failures abort the duplicate and capacity checks.
    """
    members = tuple(tuple(f) for f in fam)
    violations: list[Violation] = []
    structural = False
    for i, f in enumerate(members):
        for v in validate_rkdf(g, k, f):
            violations.append(Violation(v.kind, vertex=v.vertex, member=i,
                                        detail=f"member {i}: {v.detail}"))
            if v.kind in ("length-mismatch", "value-out-of-range"):
                structural = True
    if structural:
        return violations

    seen: dict[Labeling, int] = {}
    for i, f in enumerate(members):
        if f in seen:
            violations.append(Violation(
                "duplicate-function", member=i,
                detail=f"member {i} duplicates member {seen[f]}"))
        else:
            seen[f] = i

    for v in range(g.n):
        total = sum(f[v] for f in members)
        if total > 2 * k:
            violations.append(Violation(
                "capacity-exceeded", vertex=v,
                detail=f"vertex {v} sums to {total}, capacity is {2 * k}"))
    return violations


# ---------------------------------------------------------------------------
# d_R^k: exact packing solver
# ---------------------------------------------------------------------------

def check_drk(n: int, k: int, max_n: int | None) -> int:
    """The vertex limit d_rk_exact runs under, max_n or else its own;
    refuses k < 1 and, naming the solver, k or n above its guard."""
    check_k(k, "d_rk solver", DEFAULT_DRK_K_LIMIT)
    return check_order("d_rk solver", n, max_n, DEFAULT_DRK_N_LIMIT)


def d_rk_exact(g: Graph, k: int, max_n: int | None = None,
               by_key: bool = True) -> SolveResult:
    """Exact Roman (k,k)-domatic number with an optimal family witness.

    The candidates are the valid RkDFs by weight, held as the byte-packed
    keys of enumerate_rkdfs; within a weight level they come in
    lexicographic order of values with by_key, else in the enumerator's
    walk order (passed on to each of its calls).  The search branches on
    inclusion with per-vertex residual capacities, records the indices
    of the members it chose and decodes only the family it returns.  The
    candidates are generated lazily, by weight level.  The first
    enumerator walk gives the lightest level, whose weight is gamma_kR
    (returned as the result's gamma_kr), and the gamma_kR + 1 level.
    Every level from gamma_kR to 2n is non-empty: raising one label of
    an RkDF by one keeps it an RkDF (0 -> 1 removes a zero, 1 -> 2 only
    adds a 2-neighbour).  So one walk of the next heavier level, up to
    2n, always lengthens the list; it is made only when a node runs past
    the end of the list and the remaining-capacity/weight quotient at
    that level's weight could still beat the incumbent, so heavy levels
    that no family can use are never enumerated.  Depth is cut by the
    proven upper bounds min-degree+2k, max(Delta,k-1)+k and 2kn/gamma_kR,
    and by the quotient.  The witness is the first optimal family in the
    include-first search order: with by_key it is the documented one,
    the first in (weight, values) order; without it, an optimal family
    that walk order tends to reach in fewer scan steps, since its
    smallest supports spread their weight most evenly over the
    capacities.  The value and gamma_kR do not depend on the order.
    """
    n = g.n
    # the enumerator runs under the same limit, so max_n lifts both guards
    limit = check_drk(n, k, max_n)

    packed = enumerate_rkdfs(g, k, min(n, 2 * k), n + 1, limit, by_key).keys
    # a key's bytes are its labels and 256 = 1 (mod 255), so key % 255 is
    # its weight while that is below 255, as every level up to 2n is for
    # n < 128
    gkr = packed[0] % 255
    delta, Delta = g.min_degree(), g.max_degree()
    ub = min(delta + 2 * k,
             max(Delta, k - 1) + k,
             (2 * k * n) // gkr)

    # Residual capacities are packed like the keys, so a key is what its
    # candidate takes off them: (rescap | high) - key keeps each top bit
    # exactly when that field does not underflow; fields stay at or below
    # 2k <= 8, far below 128, so no borrow crosses a byte.
    mul = _multiples(n)
    high = mul[128]

    def grow(count: int, captotal: int) -> bool:
        """Append the next weight level; False once it would pass 2n or
        the quotient cut closes it."""
        w = packed[-1] % 255 + 1
        if w > 2 * n or count + captotal // w <= best:
            return False
        packed.extend(enumerate_rkdfs(g, k, w, w, limit, by_key).keys)
        return True

    # One search: each strict improvement records its family, so the last
    # one recorded is the first optimal family in search order.  Branches
    # that cannot beat the incumbent are cut; reaching the upper bound
    # ends the search.
    nodes = 0
    best = 0
    chosen: list[int] = []
    found: tuple[int, ...] = ()

    def search(idx: int, rescap: int, count: int, captotal: int) -> bool:
        nonlocal best, nodes, found
        nodes += 1
        if count > best:
            best = count
            found = tuple(chosen)
            if best == ub:
                return True
        base = rescap | high
        i = idx
        while i < len(packed) or grow(count, captotal):
            key = packed[i]
            w = key % 255
            if count + captotal // w <= best:
                break
            left = base - key
            if left & high == high:
                chosen.append(i)
                if search(i + 1, left ^ high, count + 1, captotal - w):
                    return True
                chosen.pop()
            i += 1
        return False

    search(0, mul[2 * k], 0, 2 * k * n)
    del search      # frees the self-referencing closure now (see _roman_bb)
    assert found
    family: Family = tuple(_decode(packed[i], n) for i in found)
    return SolveResult("d_rk", best, family, nodes, gamma_kr=gkr)


# ---------------------------------------------------------------------------
# d_k: partition into k-dominating sets
# ---------------------------------------------------------------------------

def d_k_exact(g: Graph, k: int, max_n: int | None = None) -> SolveResult:
    """Exact k-domatic number with a VertexPartition witness.

    V itself is always k-dominating (nothing lies outside it), so the
    value is at least 1.  A vertex in one block needs k neighbors in every
    other block, giving the ceiling d <= min-degree//k + 1.  With two or
    more blocks each block has vertices outside it, so it is at least as
    large as a minimum k-dominating set and d * gamma_k <= n (Cockayne
    and Hedetniemi 1977); two size bounds give ceilings without solving
    gamma_k.  At k = 1 a block of one vertex dominates only if that vertex
    is adjacent to all others, so with U such vertices d <= U + (n - U)//2.
    At k >= 2 a block has at least k vertices, and at least kn/(Delta + k),
    since each outside vertex has k neighbours in it and each of its
    vertices at most Delta outside it; so d <= n // max(k, ceil(kn/(Delta
    + k))).  Block counts d are tried downward from the least ceiling
    over canonical block assignments, and nodes_explored counts the nodes
    of every count tried.  Vertex pos joins one of the blocks 0 to
    used - 1 opened so far, or opens block used, and must leave itself
    and each assigned neighbour able to get k neighbours in every other
    block from the vertices still unassigned.  That check of the vertex
    placed last charges each of the d - used empty blocks k neighbours
    among the n - pos unassigned vertices, so used + (n - pos) >= d holds
    at every node (at the root, d <= min-degree//k + 1 <= n).  So no cut
    for blocks left empty is needed; the leaf's used == d test only
    guards this argument.
    """
    check_k(k)
    n = g.n
    check_order("d_k solver", n, max_n, DEFAULT_DK_LIMIT)
    adj = g.adj

    if k == 1:
        universal = sum(row.bit_count() == n - 1 for row in adj)
        most = universal + (n - universal) // 2
    else:
        most = n // max(k, -(-k * n // (g.max_degree() + k)))
    ub = min(g.min_degree() // k + 1, most)
    nodes = 0
    block: list[int] = []     # vertex mask of each block, one per count

    def feasible(v: int, unassigned: int) -> bool:
        """v can still get k neighbours in every block but its own."""
        row = adj[v]
        headroom = (row & unassigned).bit_count()
        short = 0
        for b in block:
            if not b >> v & 1:
                have = (row & b).bit_count()
                if have < k:
                    short += k - have
                    if short > headroom:
                        return False
        return True

    def rec(pos: int, used: int, unassigned: int) -> bool:
        nonlocal nodes
        nodes += 1
        if pos == n:
            return used == d
        bit = 1 << pos
        rest = unassigned ^ bit
        for c in range(min(used + 1, d)):
            block[c] |= bit
            ok = feasible(pos, rest)
            # pos is no longer unassigned for its assigned neighbours
            u = adj[pos] & ~rest
            while ok and u:
                low = u & -u
                ok = feasible(low.bit_length() - 1, rest)
                u ^= low
            if ok and rec(pos + 1, max(used, c + 1), rest):
                return True
            block[c] ^= bit
        return False

    for d in range(ub, 1, -1):
        block = [0] * d
        if rec(0, 0, (1 << n) - 1):
            break
    else:
        d, block = 1, [(1 << n) - 1]
    del rec     # frees the self-referencing closure now (see _roman_bb)
    witness: VertexPartition = tuple(
        tuple(v for v in range(n) if b >> v & 1) for b in block)
    return SolveResult("d_k", d, witness, nodes)


def validate_partition(g: Graph, k: int,
                       blocks: Iterable[Iterable[int]]) -> list[Violation]:
    """Check that blocks partition V and each block k-dominates."""
    violations = []
    seen = 0
    blocks = [tuple(b) for b in blocks]
    for i, block in enumerate(blocks):
        bmask = vertex_mask(block)
        if bmask & seen:
            violations.append(Violation("block-overlap", member=i,
                                        detail=f"block {i} overlaps earlier blocks"))
        seen |= bmask
        if not is_k_dominating(g, k, block):
            violations.append(Violation("zero-vertex-undercovered", member=i,
                                        detail=f"block {i} is not {k}-dominating"))
    if seen != (1 << g.n) - 1:
        violations.append(Violation("vertex-uncovered",
                                    detail="blocks do not cover every vertex"))
    return violations
