"""Shared corpus helpers for the test suite."""

from __future__ import annotations

from typing import Iterator

from hypothesis import settings

from rkdom import FamilySpec, Graph, generate

# Reruns of the full suite must be byte-identical (acceptance criterion),
# so property tests replay a fixed example stream.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def graph6_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs u < v of order n in column-major order (0,1),
    (0,2), (1,2), (0,3), ...: the graph6 bit order."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in edge-mask order."""
    pairs = graph6_pairs(n)
    for mask in range(1 << len(pairs)):
        edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
        yield Graph(n, edges, label=f"n{n}-mask{mask}")


def complete(n: int) -> Graph:
    return generate(FamilySpec("complete", n=n))


def cycle(n: int) -> Graph:
    return generate(FamilySpec("cycle", n=n))


def empty(n: int) -> Graph:
    return generate(FamilySpec("empty", n=n))


def bipartite(p: int, q: int) -> Graph:
    return generate(FamilySpec("complete-bipartite", p=p, q=q))


def star(q: int) -> Graph:
    return bipartite(1, q)


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], label=f"P_{n}")


def gnp(n: int, prob: float, seed: int) -> Graph:
    return generate(FamilySpec("random-gnp", n=n, prob=prob, seed=seed))
