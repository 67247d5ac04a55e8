"""Brute-force oracles: the independent checks of the exact solvers.

Each oracle computes one quantity by the most direct search there is and
shares no enumeration, search or packing with the solver it checks.  So
this module imports only `graphs` and, from `roman`, the validator
`validate_rkdf` and the `Labeling` type; a test reads these imports and
runs every oracle with the rest of `roman` and `domatic` patched to
raise.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import sub
from typing import Iterator

from .graphs import Graph, check_k, check_order
from .roman import Labeling, validate_rkdf

DEFAULT_ORACLE_LIMIT = 10
DEFAULT_DRK_ORACLE_N_LIMIT = 6
DEFAULT_DRK_ORACLE_K_LIMIT = 3


def naive_rkdfs(g: Graph, k: int) -> Iterator[Labeling]:
    """Every RkDF of g in lexicographic order, lazily, by filtering all
    3^n labelings through validate_rkdf.

    Deliberately naive and apart from enumerate_rkdfs: the oracles, and
    the tests of the enumerator and the solvers, check against it.
    """
    return (f for f in product((0, 1, 2), repeat=g.n)
            if not validate_rkdf(g, k, f))


def gamma_kr_oracle(g: Graph, k: int, max_n: int | None = None) -> int:
    """Minimum RkDF weight by exhausting all 3^n labelings.

    Deliberately naive: the only work beyond enumeration order is the
    validity filter.  Serves as the independent check for gamma_kr_exact.
    """
    check_k(k)
    check_order("oracle", g.n, max_n, DEFAULT_ORACLE_LIMIT)
    return min(map(sum, naive_rkdfs(g, k)))  # the all-1 labeling is valid


def gamma_k_oracle(g: Graph, k: int, max_n: int | None = None) -> int:
    """Minimum k-dominating set size by a scan over supports by size.

    Tries the sets S of each size s = min(k, n), ..., n - 1 in
    `combinations` order and returns the first s at which every vertex
    outside some S has k neighbours in it; else n, since V itself
    k-dominates.  A set smaller than k gives no outside vertex k
    neighbours, so no smaller size works unless S = V.  Reads nothing of
    g but g.adj, and shares no search with gamma_k_exact, which it checks;
    `bounds.solve_all` takes gamma_k's value from it.
    """
    check_k(k)
    adj = g.adj
    n = len(adj)
    check_order("gamma_k oracle", n, max_n, DEFAULT_ORACLE_LIMIT)
    bits = [1 << v for v in range(n)]
    pairs = list(zip(bits, adj))
    for size in range(min(k, n), n):
        for s in map(sum, combinations(bits, size)):
            for bit, row in pairs:
                if not bit & s and (row & s).bit_count() < k:
                    break
            else:
                return size
    return n


def d_rk_oracle(g: Graph, k: int,
                max_n: int | None = None) -> int:
    """Maximum family size by a 0/1 knapsack over residual capacities.

    Takes the RkDFs of the naive 3^n filter (naive_rkdfs) one at a time
    and maps each reachable tuple of per-vertex residual capacities (2k
    at the start) to the most members that reach it; a labeling extends
    every state it fits under.  Independent check for d_rk_exact: it
    shares no enumeration, search or capacity packing with the solver.
    """
    check_k(k, "d_rk oracle", DEFAULT_DRK_ORACLE_K_LIMIT)
    check_order("d_rk oracle", g.n, max_n, DEFAULT_DRK_ORACLE_N_LIMIT)
    most = {(2 * k,) * g.n: 0}
    for f in naive_rkdfs(g, k):
        # the snapshot keeps f out of the states it has just made
        for caps, count in list(most.items()):
            left = tuple(map(sub, caps, f))
            if min(left) >= 0 and most.get(left, -1) <= count:
                most[left] = count + 1
    return max(most.values())
