"""Explicit Roman (k,k)-dominating families and closed-form values.

Every generator here materializes a family whose validity is checkable by
validate_family; the closed forms return exact values for the graph
classes where one is known, and None elsewhere.  All index arithmetic is
0-based; cyclic constructions reduce indices modulo the part size.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .domatic import Family
from .graphs import (ConstructionError, FamilySpec, Graph, check_k, generate,
                     kdelta_copy_order, vertex_mask)
from .roman import Labeling

DEFAULT_KDELTA_K_LIMIT = 2


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_gamma_kr(spec: FamilySpec, k: int) -> int | None:
    """Known exact gamma_kR for complete graphs, complete bipartite graphs
    and any family whose order is at most 2k.  None when no closed form
    applies."""
    check_k(k)
    n = spec.order()
    if spec.kind == "complete":
        return min(n, 2 * k)
    if spec.kind == "complete-bipartite":
        p, q = sorted((spec.p, spec.q))  # type: ignore[type-var]
        if p < k or p == q == k:
            return p + q
        if p >= 3 * k:
            return 4 * k
        # remaining range: k <= p <= 3k with p + q >= 2k + 1
        return k + p
    if n <= 2 * k:
        return n
    return None


def closed_form_d_rk(spec: FamilySpec, k: int) -> int | None:
    """Known exact d_R^k for complete graphs, the trivial graph, empty
    graphs at k=1, and any graph once k reaches 2^n.  None otherwise."""
    check_k(k)
    n = spec.order()
    if n == 1:
        return 1 if k == 1 else 2
    if k >= 2 ** n:
        return 2 ** n
    if spec.kind == "complete":
        if n >= 2 * k:
            return n
        if k >= 2 and 2 * k - 2 <= n <= 2 * k - 1:
            return 2 * k - 1
        return None
    if spec.kind == "empty" and k == 1:
        return 1
    return None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _labeling(n: int, rest: int,
              *marks: tuple[int, Iterable[int]]) -> Labeling:
    """The labeling of order n that is rest everywhere except on the
    vertices of each (value, vertices) mark."""
    vals = [rest] * n
    for value, vertices in marks:
        for v in vertices:
            vals[v] = value
    return tuple(vals)


def family_complete(n: int, k: int) -> tuple[Graph, Family]:
    """K_n together with the n rotations of k consecutive 2s (indices mod n).

    Requires n >= 2k; every vertex then sums to exactly 2k across the
    family, so the product bound gamma_kR * d_R^k = 2kn is attained.  The
    graph is built first, so its order guard fires before any member is.
    """
    check_k(k)
    if n < 2 * k:
        raise ConstructionError(f"cyclic complete-graph family needs n >= 2k, "
                                f"got n={n}, k={k}")
    g = generate(FamilySpec("complete", n=n))
    return g, tuple(_labeling(n, 0, (2, [(i + t) % n for t in range(k)]))
                    for i in range(n))


def family_balanced_bipartite(t: int, k: int) -> tuple[Graph, Family]:
    """K_{tk,tk} together with its tk paired-rotation family.

    Member i places 2 on k cyclically consecutive vertices of each side
    (same offsets in both parts), 0 elsewhere; every vertex sums to 2k.
    Requires t >= 3, the regime where (p+q)/2 is the proven ceiling.
    """
    check_k(k)
    if t < 3:
        raise ConstructionError(f"balanced bipartite family needs t >= 3, got {t}")
    p = t * k
    g = generate(FamilySpec("complete-bipartite", p=p, q=p))
    return g, tuple(
        _labeling(2 * p, 0, (2, [side + (i + s) % p for s in range(k)
                                 for side in (0, p)]))
        for i in range(p))


def family_near_order(g: Graph, k: int) -> Family:
    """2k-1 functions of weight about n: one per distinguished vertex plus
    the all-1 labeling.

    For j in 0..2k-3, member j labels vertex j with 2 and everything else
    with 1; the last member is all-1.  Distinguished vertices sum to
    exactly 2k, the rest to 2k-1.  Requires k >= 2 and n >= 2k-2.
    """
    check_k(k)
    if k < 2:
        raise ConstructionError(f"near-order family needs k >= 2, got {k}")
    if g.n < 2 * k - 2:
        raise ConstructionError(f"near-order family needs n >= 2k-2 = "
                                f"{2 * k - 2}, got n={g.n}")
    return tuple(_labeling(g.n, 1, (2, [j])) for j in range(2 * k - 2)) \
        + (_labeling(g.n, 1),)


def family_nontrivial(g: Graph, k: int) -> Family:
    """The three-function family showing d_R^k >= 3 on nontrivial graphs.

    With distinguished vertex 0: (1 at 0, 2 elsewhere), (2 at 0, 1
    elsewhere), and all-1.  Requires n >= 2 and k >= 2.
    """
    check_k(k)
    if k < 2:
        raise ConstructionError(f"nontrivial family needs k >= 2, got {k}")
    if g.n < 2:
        raise ConstructionError("nontrivial family needs n >= 2")
    return (_labeling(g.n, 2, (1, [0])), _labeling(g.n, 1, (2, [0])),
            _labeling(g.n, 1))


def family_kdelta_sharpness(k: int,
                            max_k: int = DEFAULT_KDELTA_K_LIMIT,
                            ) -> tuple[Graph, Family]:
    """Sharpness witness for the bound d_R^k <= min-degree + 2k.

    Builds the graph of k clique copies plus an apex (min degree k^2) and
    the family of k^2 + 2k functions attaining the bound: the f-type
    functions put 2 on the k attachment vertices of their own copy and on
    one k-block of every other copy; the h-type functions label the apex 1
    and put 2 on one k-block near the top of every copy.  Copy c holds
    vertices c*m to c*m + m - 1 and the apex is k*m; block(c, start) is
    the k vertices of copy c from offset start on.  f-type member (i, s)
    puts 2 on block(i, 0) and on block(j, (i*k + s + 1)*k) for every
    j != i; h-type member l, for l from 1 to 2k, puts 1 on the apex and
    2 on block(i, k^3 + l*k) for every i.
    """
    check_k(k, "kdelta sharpness", max_k)
    m = kdelta_copy_order(k)
    n = k * m + 1
    g = generate(FamilySpec("kdelta-sharpness", k=k), max_n=max(n, 64))

    def block(c: int, start: int) -> range:
        """k vertices of clique copy c from offset start on."""
        assert start + k <= m, "block index escapes the clique copy"
        return range(c * m + start, c * m + start + k)

    f = [_labeling(n, 0, (2, [v for j in range(k) for v in
                              block(j, 0 if j == i else (i * k + s + 1) * k)]))
         for i in range(k) for s in range(k)]
    h = [_labeling(n, 0, (1, [k * m]),
                   (2, [v for i in range(k) for v in block(i, k ** 3 + l * k)]))
         for l in range(1, 2 * k + 1)]
    return g, tuple(f + h)


def family_from_balanced_subgraphs(
        g: Graph, k: int,
        subgraphs: Sequence[tuple[Iterable[int], Iterable[int]]]) -> Family:
    """Family built from 2k or 2k-1 balanced bipartite subgraphs (X_i, Y_i).

    Member i labels Y_i with 2, X_i with 0 and the rest with 1; with 2k-1
    subgraphs the all-1 labeling is appended.  Preconditions: X_i and Y_i
    disjoint and nonempty with |X_i| = |Y_i|, every X_i vertex has >= k
    neighbors in Y_i, and per-vertex membership counts balance (equal to k
    on both sides in the 2k case, merely equal in the 2k-1 case); then
    every vertex sums to exactly 2k.
    """
    check_k(k)
    pairs = [(sorted(set(x)), sorted(set(y))) for x, y in subgraphs]
    d = len(pairs)
    if d not in (2 * k, 2 * k - 1):
        raise ConstructionError(f"need 2k={2 * k} or 2k-1={2 * k - 1} "
                                f"subgraphs, got {d}")
    adj = g.adj
    for i, (x, y) in enumerate(pairs):
        if any(v < 0 or v >= g.n for v in x + y):
            raise ConstructionError(f"subgraph {i}: vertex out of range")
        if set(x) & set(y):
            raise ConstructionError(f"subgraph {i}: X and Y intersect")
        if not x:
            raise ConstructionError(f"subgraph {i}: X is empty")
        if len(x) != len(y):
            raise ConstructionError(f"subgraph {i}: |X|={len(x)} but |Y|={len(y)}")
        ymask = vertex_mask(y)
        for v in x:
            if (adj[v] & ymask).bit_count() < k:
                raise ConstructionError(
                    f"subgraph {i}: vertex {v} has fewer than {k} "
                    f"neighbors in Y")
    for u in range(g.n):
        in_x = sum(1 for x, _ in pairs if u in x)
        in_y = sum(1 for _, y in pairs if u in y)
        if d == 2 * k and not in_x == in_y == k:
            raise ConstructionError(
                f"vertex {u} is in {in_x} X-sides and {in_y} Y-sides, "
                f"needs {k} of each")
        if d == 2 * k - 1 and in_x != in_y:
            raise ConstructionError(
                f"vertex {u} is in {in_x} X-sides but {in_y} Y-sides, "
                f"counts must balance")

    members = [_labeling(g.n, 1, (0, x), (2, y)) for x, y in pairs]
    if d == 2 * k - 1:
        members.append(_labeling(g.n, 1))
    if len(set(members)) != len(members):
        raise ConstructionError("subgraphs induce duplicate functions")
    return tuple(members)
