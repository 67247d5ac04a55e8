"""Labeling validation and the gamma_kR / gamma_k solvers."""

from __future__ import annotations

import functools
import hashlib
import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, bipartite, complete, cycle, empty, gnp, path
from rkdom import (GuardError, complement, enumerate_rkdfs, gamma_k_exact,
                   gamma_k_oracle, gamma_kr_exact, gamma_kr_oracle,
                   is_k_dominating, labeling_from_string, labeling_to_string,
                   validate_rkdf, weight)
from rkdom import roman
from rkdom.graphs import FamilySpec, Graph, generate
from rkdom.oracles import naive_rkdfs


class TestValidateRkdf:
    def test_all_ones_always_valid(self):
        for g in (complete(4), cycle(5), empty(3)):
            for k in (1, 2, 3):
                assert validate_rkdf(g, k, (1,) * g.n) == []

    def test_all_zero_on_k3(self):
        vs = validate_rkdf(complete(3), 1, (0, 0, 0))
        assert len(vs) == 3
        assert all(v.kind == "zero-vertex-undercovered" for v in vs)
        assert sorted(v.vertex for v in vs) == [0, 1, 2]

    def test_k5_two_twos_at_k2(self):
        f = (2, 2, 0, 0, 0)
        assert validate_rkdf(complete(5), 2, f) == []
        assert weight(f) == 4

    def test_length_mismatch_aborts(self):
        vs = validate_rkdf(complete(3), 1, (0, 0))
        assert [v.kind for v in vs] == ["length-mismatch"]

    def test_out_of_range_aborts_semantic_check(self):
        vs = validate_rkdf(complete(3), 1, (3, 0, 0))
        assert [v.kind for v in vs] == ["value-out-of-range"]
        assert vs[0].vertex == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_rkdf(complete(2), 0, (1, 1))


class TestWeight:
    @pytest.mark.parametrize("f,w", [
        ((1, 1, 1), 3),
        ((2, 0, 0, 0, 2), 4),
        ((0, 0, 0, 0), 0),
    ])
    def test_examples(self, f, w):
        assert weight(f) == w

    def test_matches_partition_form(self):
        f = (0, 1, 2, 2, 1, 0)
        v1 = sum(1 for x in f if x == 1)
        v2 = sum(1 for x in f if x == 2)
        assert weight(f) == v1 + 2 * v2


class TestLabelingStrings:
    def test_roundtrip(self):
        f = (2, 0, 0, 2, 0)
        assert labeling_to_string(f) == "20020"
        assert labeling_from_string("20020") == f

    def test_rejects_bad_strings(self):
        for bad in ("", "301", "2x0"):
            with pytest.raises(ValueError):
                labeling_from_string(bad)


def all_levels(g, k):
    """Every RkDF of g in (weight, values) order, one [w, w] walk each."""
    return [f for w in range(2 * g.n + 1)
            for f in enumerate_rkdfs(g, k, w, w).labelings]


class TestEnumerate:
    def test_single_vertex(self):
        assert enumerate_rkdfs(complete(1), 1, 0, 2).labelings == [(1,), (2,)]

    def test_restricted_space_when_k_exceeds_degree(self):
        res = enumerate_rkdfs(empty(2), 3, 0, 4)
        assert res.labelings == [(1, 1), (1, 2), (2, 1)]
        assert enumerate_rkdfs(empty(2), 3, 4, 4).labelings == [(2, 2)]
        assert len(all_levels(empty(8), 9)) == 2 ** 8

    def test_k2_frozen_set(self):
        # The six valid labelings of K_2 at k=1, from the 3^2 filter.
        assert enumerate_rkdfs(complete(2), 1, 0, 4).labelings == [
            (0, 2), (1, 1), (2, 0), (1, 2), (2, 1)]
        assert sorted(all_levels(complete(2), 1)) == [
            (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]

    def test_matches_naive_filter(self):
        # every labelled graph with n <= 4, so k > Delta is covered too,
        # and every window [lo, hi] with 0 <= lo <= hi <= 2n + 1
        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        for g in graphs:
            for k in (1, 2, 3):
                expect = list(naive_rkdfs(g, k))
                for lo in range(2 * g.n + 2):
                    for hi in range(lo, 2 * g.n + 2):
                        ws = [sum(f) for f in expect if lo <= sum(f) <= hi]
                        light = min(ws, default=None)
                        want = [f for f in expect if light is not None
                                and light <= sum(f) <= min(light + 1, hi)]
                        want.sort(key=sum)   # stable: lex within a level
                        got = enumerate_rkdfs(g, k, lo, hi).labelings
                        assert got == want, (g.label, k, lo, hi)

    def test_walk_order(self):
        # by_key=False keeps each level in the order the walk reaches it:
        # supports S by size, then in combinations order, and per support
        # its zero sets, combinations of C(S) from the highest vertex down
        def walk_level(g, k, w):
            n = g.n
            for size in range(n + 1):
                for s in combinations(range(n), size):
                    smask = sum(1 << v for v in s)
                    cover = [v for v in reversed(range(n)) if v not in s
                             and (g.adj[v] & smask).bit_count() >= k]
                    z = n + size - w
                    if 0 <= z <= len(cover):
                        for zs in combinations(cover, z):
                            yield tuple(2 if v in s else 0 if v in zs else 1
                                        for v in range(n))

        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        graphs += [gnp(6, 0.5, 3), gnp(7, 0.3, 4), gnp(7, 0.7, 5)]
        for g in graphs:
            n = g.n
            for k in (1, 2, 3):
                windows = [(w, w) for w in range(2 * n + 2)]
                windows += [(min(n, 2 * k), n + 1), (0, 2 * n + 1)]
                for lo, hi in windows:
                    got = enumerate_rkdfs(g, k, lo, hi, by_key=False)
                    ws = [sum(f) for f in got.labelings]
                    want = [f for w in sorted(set(ws))
                            for f in walk_level(g, k, w)]
                    assert got.labelings == want, (g.label, k, lo, hi)
                    # the levels of by_key, each in another order; the
                    # bytes of a key sum to its weight, and 256 = 1 mod 255
                    by_weight = sorted(got.keys, key=lambda x: (x % 255, x))
                    assert by_weight == enumerate_rkdfs(g, k, lo, hi).keys
                    assert got == enumerate_rkdfs(g, k, lo, hi, by_key=False)

    def test_lexicographic_order(self):
        for w in range(11):
            level = enumerate_rkdfs(cycle(5), 1, w, w).labelings
            assert level == sorted(level)
        got = enumerate_rkdfs(cycle(5), 1, 0, 10).labelings
        lightest = [f for f in got if sum(f) == sum(got[0])]
        assert got == sorted(lightest) + sorted(got[len(lightest):])

    def test_weight_levels_concatenate_to_sorted_pool(self):
        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        graphs += [gnp(6, 0.5, 3), gnp(7, 0.3, 4), gnp(7, 0.7, 5)]
        for g in graphs:
            for k in (1, 2, 3):   # includes k > Delta, where no 0 fits
                expect = sorted(naive_rkdfs(g, k), key=lambda f: (sum(f), f))
                assert all_levels(g, k) == expect, (g.label, k)
                w = 2 * g.n + 1
                assert enumerate_rkdfs(g, k, w, w).labelings == []
                with pytest.raises(ValueError):
                    enumerate_rkdfs(g, k, -1, -1)

    def test_large_k_matches_naive_filter(self):
        # k >= n, and k beyond what a byte counts: no vertex is covered,
        # and no count may spill into the next byte
        for g in (empty(3), path(4), complete(4)):
            for k in (5, 127, 128, 200):
                expect = sorted(naive_rkdfs(g, k), key=lambda f: (sum(f), f))
                assert all_levels(g, k) == expect, (g.label, k)
                both = enumerate_rkdfs(g, k, min(g.n, 2 * k), g.n + 1)
                assert both.labelings == [f for f in expect
                                          if sum(f) in (g.n, g.n + 1)]

    def test_keys_are_the_labelings_as_big_endian_bytes(self):
        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        graphs += [gnp(6, 0.5, 3), gnp(7, 0.3, 4), gnp(7, 0.7, 5)]
        for g in graphs:
            for k in (1, 2, 3):
                windows = [(w, w) for w in range(2 * g.n + 1)]
                windows.append((min(g.n, 2 * k), g.n + 1))
                for lo, hi in windows:
                    res = enumerate_rkdfs(g, k, lo, hi)
                    assert res.n == g.n
                    assert res.keys == [int.from_bytes(bytes(f), "big")
                                        for f in res.labelings]
                    assert res.labelings == [tuple(key.to_bytes(g.n, "big"))
                                             for key in res.keys]
                    ws = [sum(f) for f in res.labelings]
                    assert all(a < b for a, b, wa, wb in zip(
                        res.keys, res.keys[1:], ws, ws[1:]) if wa == wb), \
                        (g.label, k, lo, hi)

    def test_narrow_window_on_a_large_order(self):
        # one 2 covers K_24 at k=1, so the walk ends after the supports of
        # size 1; one over all 2^24 supports would not finish
        n = 24
        res = enumerate_rkdfs(complete(n), 1, 0, 3, max_n=n)
        weight_2 = [tuple(2 if v == t else 0 for v in range(n))
                    for t in range(n)]
        weight_3 = [tuple(2 if v == t else 1 if v == u else 0
                          for v in range(n))
                    for t in range(n) for u in range(n) if u != t]
        assert len(weight_2) == 24 and len(weight_3) == 552
        assert res.labelings == sorted(weight_2) + sorted(weight_3)

    def test_lightest_level_is_gamma_kr(self):
        # d_rk_exact walks [0, n + 1] and takes the first level as
        # gamma_kR, which no level below min(n, 2k) may undercut; k 1-3
        # puts n on both sides of 2k
        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        graphs += [gnp(n, p, seed) for n in (6, 7, 8) for p in (0.3, 0.6)
                   for seed in (1, 2)]
        for g in graphs:
            for k in (1, 2, 3):
                start = min(g.n, 2 * k)
                for w in range(start):
                    assert enumerate_rkdfs(g, k, w, w).labelings == []
                lightest = next(w for w in range(start, 2 * g.n + 1)
                                if enumerate_rkdfs(g, k, w, w).labelings)
                gkr = gamma_kr_exact(g, k).value
                assert lightest == gkr, (g.label, k)
                first = enumerate_rkdfs(g, k, start, g.n + 1).labelings[0]
                assert sum(first) == gkr, (g.label, k)
                assert enumerate_rkdfs(g, k, 0, g.n + 1).labelings[0] \
                    == first, (g.label, k)

    def test_every_level_from_gamma_kr_to_2n_is_non_empty(self):
        # raising one label by one keeps an RkDF an RkDF, which is what
        # lets d_rk_exact walk one heavier level at a time
        graphs = [g for n in range(1, 5) for g in all_graphs(n)]
        graphs += [gnp(n, p, seed) for n in (6, 7, 8) for p in (0.3, 0.6)
                   for seed in (1, 2)]
        for g in graphs:
            for k in (1, 2, 3):
                gkr = gamma_kr_exact(g, k).value
                for w in range(gkr, 2 * g.n + 1):
                    assert enumerate_rkdfs(g, k, w, w).labelings, \
                        (g.label, k, w)

    def test_guards(self):
        with pytest.raises(GuardError):
            enumerate_rkdfs(cycle(11), 1, 0, 22)
        with pytest.raises(GuardError):
            enumerate_rkdfs(empty(21), 25, 0, 42)
        # k > Delta has no larger guard of its own
        with pytest.raises(GuardError):
            enumerate_rkdfs(empty(11), 1, 0, 22)
        # n > 128: TestPackedCounts


class TestGammaKrOracle:
    @pytest.mark.parametrize("g,k,expect", [
        (complete(1), 1, 1),
        (complete(2), 1, 2),
        (path(3), 1, 2),
    ])
    def test_examples(self, g, k, expect):
        assert gamma_kr_oracle(g, k) == expect

    def test_guard(self):
        with pytest.raises(GuardError):
            gamma_kr_oracle(empty(11), 1)


class TestGammaKrExact:
    @pytest.mark.parametrize("g,k,expect", [
        (complete(5), 1, 2),
        (cycle(4), 1, 3),
        (bipartite(3, 3), 1, 4),
        (complete(1), 1, 1),
        (complete(1), 3, 1),
    ])
    def test_examples(self, g, k, expect):
        assert gamma_kr_exact(g, k).value == expect

    def test_order_at_most_2k_forces_n(self):
        for g in all_graphs(3):
            assert gamma_kr_exact(g, 2).value == 3

    def test_witnesses_are_lex_least(self):
        assert gamma_kr_exact(complete(5), 1).witness == (0, 0, 0, 0, 2)
        assert gamma_kr_exact(cycle(4), 1).witness == (0, 1, 0, 2)
        assert gamma_kr_exact(complete(2), 1).witness == (0, 2)

    def test_witness_matches_brute_force_lex_minimum(self):
        for g in all_graphs(4):
            for k in (1, 2):
                res = gamma_kr_exact(g, k)
                optima = [f for f in naive_rkdfs(g, k)
                          if weight(f) == res.value]
                assert res.witness == min(optima), (g.label, k)

    def test_witness_certifies_value(self):
        for g in (cycle(6), path(5), gnp(7, 0.5, 3), bipartite(2, 4)):
            for k in (1, 2, 3):
                res = gamma_kr_exact(g, k)
                assert validate_rkdf(g, k, res.witness) == []
                assert weight(res.witness) == res.value

    def test_agrees_with_oracle_exhaustive_n3(self):
        for g in all_graphs(3):
            for k in (1, 2, 3):
                assert gamma_kr_exact(g, k).value == gamma_kr_oracle(g, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 7), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 3), st.sampled_from([0.25, 0.5, 0.75]))
    def test_agrees_with_oracle_random(self, n, seed, k, prob):
        g = gnp(n, prob, seed)
        assert gamma_kr_exact(g, k).value == gamma_kr_oracle(g, k)

    def test_monotone_in_k(self):
        for g in (cycle(5), gnp(6, 0.5, 11), complete(5)):
            vals = [gamma_kr_exact(g, k).value for k in (1, 2, 3, 4)]
            assert vals == sorted(vals)

    def test_guard(self):
        with pytest.raises(GuardError):
            gamma_kr_exact(empty(17), 1)
        assert gamma_kr_exact(empty(17), 1, max_n=17).value == 17

    def test_deterministic_reruns(self):
        g = gnp(7, 0.5, 5)
        a = gamma_kr_exact(g, 2)
        b = gamma_kr_exact(g, 2)
        assert (a.value, a.witness, a.nodes_explored) == \
               (b.value, b.witness, b.nodes_explored)


# (n, p, seed, k) -> (gamma_k value, set mask, nodes), (gamma_kR value,
# labeling, nodes).  Values and witnesses were recorded when the two
# solvers were separate searches; the node counts were re-recorded when
# the value came to be proven in ascending-degree order before the
# witness pass, again when the residual Delta bound became a cut, again
# when that cut took a per-position slope and the proof pass the
# lightest label first, again when the proof pass took the peeling
# order, again when it came to place vertices 0-2 first, in index
# order, and the witness pass to take their labels from it, and again
# when the proof pass came to fix the labels of isolated and pendant
# vertices past that prefix.
PINNED_SOLVES = [
    ((12, 0.3, 1, 1), (3, "010000110000", 53), (5, "010000220000", 26)),
    ((12, 0.3, 1, 2), (8, "111111100100", 72), (11, "012101221100", 171)),
    ((13, 0.25, 7, 1), (6, "1111001000100", 74),
     (8, "0100101002012", 53)),
    ((13, 0.25, 7, 2), (8, "0110111010110", 83),
     (12, "0102101202012", 156)),
    ((14, 0.2, 3, 1), (4, "10100000000011", 79),
     (8, "00002020000220", 107)),
    ((12, 0.5, 2, 2), (4, "101100001000", 65), (7, "000012020002", 99)),
    # added before the deficiency bound became incremental: k = 3 and 4
    # give more than one need level, n = 15 and 16 reach the solver guard,
    # and G(10, 0.2, 3) has k = 4 above its maximum degree 3
    ((12, 0.4, 5, 3), (6, "010110101100", 88), (12, "020210202201", 244)),
    ((13, 0.5, 8, 4), (7, "1111000101001", 111),
     (13, "0002002202221", 412)),
    ((14, 0.3, 2, 3), (10, "01110101111101", 102),
     (14, "00110021121221", 158)),
    ((15, 0.15, 4, 1), (5, "000001111000001", 119),
     (9, "000001222000002", 120)),
    ((15, 0.15, 4, 3), (13, "111111101111110", 49),
     (15, "111111111111111", 40)),
    ((15, 0.5, 6, 2), (4, "101000001000100", 228),
     (8, "000000200002202", 480)),
    ((15, 0.5, 6, 3), (6, "111110001000000", 408),
     (10, "002120002000102", 533)),
    ((16, 0.15, 9, 2), (10, "1100010011101111", 180),
     (15, "0120010220102211", 206)),
    ((16, 0.5, 11, 3), (7, "1101101100010000", 273),
     (12, "0001202100022020", 953)),
    ((16, 0.5, 11, 4), (8, "1101101100011000", 211),
     (14, "2001202100022020", 897)),
    ((10, 0.2, 3, 4), (10, "1111111111", 22), (10, "1111111111", 22)),
]

# (family, n, k) -> the same pins as above, on the edgeless and complete
# graphs, recorded before the deficiency bound became incremental; the
# gamma_kR node counts were re-recorded when the residual Delta bound
# became a cut and when it took a per-position slope.
PINNED_FAMILY_SOLVES = [
    (("empty", 9, 1), (9, "111111111", 10), (9, "111111111", 10)),
    (("empty", 6, 2), (6, "111111", 7), (6, "111111", 7)),
    (("complete", 8, 3), (3, "11100000", 24), (6, "00000222", 9)),
    (("complete", 7, 8), (7, "1111111", 8), (7, "1111111", 8)),
]


def _assert_pinned(g, k, gk, gkr):
    for res, (value, witness, nodes) in ((gamma_k_exact(g, k), gk),
                                         (gamma_kr_exact(g, k), gkr)):
        assert (res.value, labeling_to_string(res.witness),
                res.nodes_explored) == (value, witness, nodes)


@pytest.mark.parametrize("case,gk,gkr", PINNED_SOLVES)
def test_pinned_value_witness_and_nodes(case, gk, gkr):
    n, prob, seed, k = case
    _assert_pinned(gnp(n, prob, seed), k, gk, gkr)


@pytest.mark.parametrize("case,gk,gkr", PINNED_FAMILY_SOLVES)
def test_pinned_family_solves(case, gk, gkr):
    family, n, k = case
    _assert_pinned({"empty": empty, "complete": complete}[family](n), k,
                   gk, gkr)


@functools.cache
def _corpus_solves():
    """(value, witness, nodes) lines of both solvers on 150 seeded G(n, p)
    graphs (n 8-13, p 0.15-0.8, k 1-4) and their complements."""
    lines = []
    for i in range(150):
        g = gnp(8 + i % 6, (0.15, 0.3, 0.45, 0.6, 0.8)[i % 5], 100 + i)
        k = 1 + i // 6 % 4
        for graph in (g, complement(g)):
            for solve in (gamma_kr_exact, gamma_k_exact):
                res = solve(graph, k)
                lines.append((res.value, labeling_to_string(res.witness),
                              res.nodes_explored))
    return lines


# One SHA-256 over the values and witnesses of the corpus, recorded before
# the value came to be proven in ascending-degree order.  It holds across
# any change that keeps every optimum and the lex-least witness.
CORPUS_VALUES_PIN = \
    "e29fd8f17225fd00cff5b280e173515ae007abb96182d8b9eac1060cf1ac2a24"

# One SHA-256 over value, witness and nodes, re-recorded when the value
# came to be proven in ascending-degree order, when the residual Delta
# bound became a cut, when it took a per-position slope, when the proof
# pass took the peeling order, when it came to settle the witness's
# first three labels and when it came to fix the labels of isolated and
# pendant vertices.  Any change to a cut, a label set or order, a vertex
# order or the node count changes it.
CORPUS_PIN = "cc3b26131cefaa4dc4488eaf857ac359abc758ab6c1c7c36df3a73ce88b874cd"


def test_corpus_values_pin():
    digest = hashlib.sha256()
    for value, witness, _ in _corpus_solves():
        digest.update(f"{value} {witness}\n".encode())
    assert digest.hexdigest() == CORPUS_VALUES_PIN


def test_corpus_pin():
    digest = hashlib.sha256()
    for value, witness, nodes in _corpus_solves():
        digest.update(f"{value} {witness} {nodes}\n".encode())
    assert digest.hexdigest() == CORPUS_PIN


def _first_optimum(labelings, cost, valid):
    """The first labeling in the given order among the valid ones of
    least cost."""
    best = first = None
    for f in labelings:
        if (best is None or cost(f) < best) and valid(f):
            best, first = cost(f), f
    return best, first


def _peeling_order(g, prefix=roman._PREFIX):
    """Vertices 0 to prefix - 1 first, then each next vertex has the
    fewest neighbours among the vertices not yet taken, ties going to the
    lowest index."""
    order = list(range(min(prefix, g.n)))
    left = (1 << g.n) - 1 ^ (1 << len(order)) - 1
    while left:
        x = min((v for v in range(g.n) if left >> v & 1),
                key=lambda v: (g.adj[v] & left).bit_count())
        order.append(x)
        left ^= 1 << x
    return order


def _witness_corpus():
    for n in range(1, 5):
        yield from all_graphs(n)
    for n in (5, 6, 7):
        for prob in (0.25, 0.5, 0.75):
            for seed in range(4):
                yield gnp(n, prob, 300 + 10 * n + seed)
    # up to 5 vertices, and on cycles, the proof order is the index order,
    # so the one pass is the witness pass and must try the labels in the
    # caller's order; bipartite(3, 3) takes one pass too, since once 0, 1
    # and 2 are placed the other side has no neighbours left, but
    # bipartite(4, 4) takes two: vertex 3 then has four, the rest one
    for n in (5, 6, 7, 8):
        yield cycle(n)
    for p in (3, 4):
        yield bipartite(p, p)
    # two passes, with isolated and pendant vertices above the prefix,
    # whose labels the proof pass fixes: a pendant on 0, 1 and 2 (K_2 on
    # 0 and 3 in the first), K_2 components past the prefix, and a star
    # centred at 3
    for i, (n, edges) in enumerate((
            (7, [(0, 3), (1, 2), (1, 4), (2, 4), (4, 5)]),
            (8, [(1, 5), (1, 3), (3, 4), (4, 6), (6, 7), (2, 7), (0, 4)]),
            (7, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]),
            (8, [(3, 4), (3, 5), (3, 6), (3, 7), (0, 3), (1, 2)]),
            (8, [(2, 6), (0, 1), (1, 3), (3, 4), (4, 5), (5, 7), (3, 5)]))):
        yield Graph(n, edges, label=f"leaves-{i}")


def test_witnesses_are_first_optima_in_brute_force_order(monkeypatch):
    # the solvers' vertex order must not leak into the witness: gamma_kR's
    # is the first optimal RkDF in product((0, 1, 2)) order, gamma_k's the
    # first optimal k-dominating mask in product((1, 0)) order, although
    # the proof pass tries the labels lightest first after its prefix
    tables = []     # one `_positions` table per pass
    positions = roman._positions
    monkeypatch.setattr(roman, "_positions",
                        lambda *args: tables.append(args) or positions(*args))
    passes = set()
    for g in _witness_corpus():
        two = _peeling_order(g) != list(range(g.n))
        for k in (1, 2, 3):
            tables.clear()
            gkr = gamma_kr_exact(g, k)
            passes.add(("gamma_kr", len(tables)))
            assert len(tables) == 1 + two, (g.label, k)
            first = min(naive_rkdfs(g, k), key=sum)  # first of equal sums
            assert (gkr.value, gkr.witness) == (sum(first), first), \
                (g.label, k)
            tables.clear()
            gk = gamma_k_exact(g, k)
            passes.add(("gamma_k", len(tables)))
            assert len(tables) == 1 + two, (g.label, k)
            assert (gk.value, gk.witness) == _first_optimum(
                product((1, 0), repeat=g.n), sum,
                lambda s: is_k_dominating(
                    g, k, [v for v in range(g.n) if s[v]])), (g.label, k)
    # both paths are covered for both alphabets
    assert passes == {(q, p) for q in ("gamma_kr", "gamma_k") for p in (1, 2)}


def test_a_wrong_proved_value_is_loud(monkeypatch):
    # a proof pass that labels a pendant vertex 1 at k = 1, where the leaf
    # property allows 0 or 1, proves 8 on the star centred at 3 (gamma_kR
    # is 4); the witness pass still finds the weight-4 witness, so only
    # the check that it ends at the proved value reports the fault
    star = next(g for g in _witness_corpus() if g.label == "leaves-3")
    assert gamma_kr_exact(star, 1).value == 4
    proof_labels = roman._proof_labels
    monkeypatch.setattr(roman, "_proof_labels", lambda *args: [
        (1,) if labs == (0, 1) else labs for labs in proof_labels(*args)])
    with pytest.raises(AssertionError):
        gamma_kr_exact(star, 1)


def _gamma_k_brute(g, k):
    """Independent minimum k-dominating set size by subset enumeration."""
    for size in range(0, g.n + 1):
        for s in combinations(range(g.n), size):
            if is_k_dominating(g, k, s):
                return size
    raise AssertionError("V itself always k-dominates")


class TestGammaK:
    @pytest.mark.parametrize("g,k,expect", [
        (complete(5), 2, 2),
        (empty(4), 1, 4),
        (cycle(4), 2, 2),
    ])
    def test_examples(self, g, k, expect):
        assert gamma_k_exact(g, k).value == expect

    def test_witness_is_lex_least_set(self):
        res = gamma_k_exact(complete(5), 2)
        assert res.witness == (1, 1, 0, 0, 0)

    def test_witness_matches_first_set_in_lex_order(self):
        # combinations() yields index tuples in set-lex order
        for g in all_graphs(4):
            for k in (1, 2):
                res = gamma_k_exact(g, k)
                first = next(s for s in combinations(range(g.n), res.value)
                             if is_k_dominating(g, k, s))
                mask = tuple(1 if v in first else 0 for v in range(g.n))
                assert res.witness == mask, (g.label, k)

    def test_witness_certifies(self):
        for g in (cycle(6), gnp(8, 0.4, 2), bipartite(3, 4)):
            for k in (1, 2):
                res = gamma_k_exact(g, k)
                members = [v for v in range(g.n) if res.witness[v]]
                assert is_k_dominating(g, k, members)
                assert len(members) == res.value

    def test_agrees_with_brute_force(self):
        for g in all_graphs(4):
            for k in (1, 2):
                assert gamma_k_exact(g, k).value == _gamma_k_brute(g, k)
        for seed in range(6):
            g = gnp(6, 0.5, seed)
            assert gamma_k_exact(g, 2).value == _gamma_k_brute(g, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 8), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 3), st.sampled_from([0.25, 0.5, 0.75]))
    def test_agrees_with_brute_force_random(self, n, seed, k, prob):
        g = gnp(n, prob, seed)
        assert gamma_k_exact(g, k).value == _gamma_k_brute(g, k)

    def test_guard(self):
        with pytest.raises(GuardError):
            gamma_k_exact(empty(21), 1)


def _oracle_corpus():
    """Seeded G(n, p) graphs at n 6-10, 5 probabilities from 0.15 to 0.8,
    10 seeds each, with their complements: 500 graphs, 2000 (graph, k)
    pairs at k 1-4."""
    rng = random.Random(2028)
    for n in range(6, 11):
        for prob in (0.15, 0.3, 0.5, 0.65, 0.8):
            for _ in range(10):
                g = gnp(n, prob, rng.getrandbits(32))
                yield g
                yield complement(g)


class TestGammaKOracle:
    def test_agrees_with_solver_on_every_graph_up_to_5(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                for k in (1, 2, 3):
                    assert gamma_k_oracle(g, k) == \
                        gamma_k_exact(g, k).value, (g.label, k)

    def test_agrees_with_solver_on_random_graphs(self):
        for g in _oracle_corpus():
            for k in (1, 2, 3, 4):
                assert gamma_k_oracle(g, k) == gamma_k_exact(g, k).value, \
                    (g.label, k)

    def test_closed_forms(self):
        # n = 0 has no Graph; the oracle reads only adj
        assert gamma_k_oracle(SimpleNamespace(adj=[]), 1) == 0
        for k in (1, 2, 5):
            assert gamma_k_oracle(complete(1), k) == 1
        for n in range(1, 11):
            for k in (1, 2, 3, n, n + 1):
                assert gamma_k_oracle(empty(n), k) == n
                assert gamma_k_oracle(complete(n), k) == min(k, n)
        for g in (cycle(6), path(5), gnp(7, 0.6, 1)):
            for k in (g.n, g.n + 2):
                assert gamma_k_oracle(g, k) == g.n

    def test_guard(self):
        with pytest.raises(GuardError) as exc:
            gamma_k_oracle(empty(11), 1)
        assert str(exc.value) == "gamma_k oracle guard is n <= 10, got 11"
        assert gamma_k_oracle(empty(11), 1, max_n=11) == 11
        assert gamma_k_oracle(complete(11), 3, max_n=11) == 3

    def test_independent_of_the_solvers(self, monkeypatch):
        cases = [(g, k) for g in (cycle(7), gnp(8, 0.5, 3), gnp(10, 0.3, 4))
                 for k in (1, 2, 3)]
        expect = [gamma_k_exact(g, k).value for g, k in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a solver helper")

        for name in ("_roman_bb", "_packed_rows", "enumerate_rkdfs"):
            monkeypatch.setattr(roman, name, refuse)
        assert [gamma_k_oracle(SimpleNamespace(adj=g.adj), k)
                for g, k in cases] == expect


def _root_top(g):
    """The largest number of neighbours a vertex after the first position
    has among the vertices after it.  Both passes of the solvers place
    vertex 0 first.  The slope of the residual Delta bound at a position
    is k + top there, at least 2k for gamma_kR; top only falls as the
    positions advance."""
    after = (1 << g.n) - 2
    return max((g.adj[u] & after).bit_count() for u in range(1, g.n))


class TestDeltaCut:
    """Both solvers against independent checks, on graphs chosen to put
    the per-position slope of the residual Delta bound in every regime:
    for gamma_kR at its 2k floor (top <= k) and above it (top > k), and
    for gamma_k, which has no floor, below 2k (top < k)."""

    def _corpus(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for k in (1, 2, 3, 4):
                    yield g, k
        for n in (6, 7, 8):
            for prob in (0.15, 0.85):
                for seed in range(3):
                    g = gnp(n, prob, 500 + 10 * n + seed)
                    for k in (1, 2, 3, 4):
                        yield g, k

    def test_both_regimes_are_covered(self):
        # on the random graphs alone, from the root on: gamma_kR slopes
        # above the 2k floor (top > k), and slopes below 2k (top < k),
        # where gamma_kR's sits at its floor and gamma_k's, which has no
        # floor, is k + top; the sparse G(n, 0.15) graphs at k 3-4 have it
        tops = [(_root_top(g), k) for g, k in self._corpus() if g.n >= 6]
        assert any(top > k for top, k in tops)
        assert any(top < k for top, k in tops)

    def test_gamma_kr_agrees_with_oracle(self):
        for g, k in self._corpus():
            assert gamma_kr_exact(g, k).value == gamma_kr_oracle(g, k), \
                (g.label, k)

    def test_gamma_k_agrees_with_brute_force(self):
        for g, k in self._corpus():
            assert gamma_k_exact(g, k).value == _gamma_k_brute(g, k), \
                (g.label, k)


def _large_gnp(n, prob, seed):
    return generate(FamilySpec("random-gnp", n=n, prob=prob, seed=seed),
                    max_n=128)


class TestPackedCounts:
    """The branch and bound counts neighbours in one byte per vertex; its
    tables against their definitions, and its solves at the limits of the
    bytes."""

    def _graphs(self):
        # every graph up to 4 vertices, then sparse to dense random graphs
        # up to the 128 vertices that bytes allow, and a few named ones
        for n in range(1, 5):
            yield from all_graphs(n)
        for n, prob in ((7, 0.5), (8, 0.3), (9, 0.5), (16, 0.3), (17, 0.2),
                        (40, 0.1), (128, 0.05)):
            for seed in range(3):
                yield _large_gnp(n, prob, 600 + seed)
        yield from (cycle(9), bipartite(3, 3), bipartite(4, 5))

    def test_peeling_order(self):
        for g in self._graphs():
            nb = roman._packed_rows(g.adj)
            for prefix in (0, 1, roman._PREFIX, g.n):
                order = [step[0] for step in
                         roman._positions(nb, 1, 0, prefix, [()] * g.n)]
                assert order == _peeling_order(g, prefix), (g.label, prefix)
        assert _peeling_order(bipartite(3, 3), 0) == [0, 3, 1, 4, 2, 5]
        assert _peeling_order(bipartite(3, 3)) == list(range(6))
        assert _peeling_order(bipartite(4, 4)) == [0, 1, 2, 4, 5, 6, 3, 7]
        for g in (cycle(9), complete(9), empty(9)):
            assert _peeling_order(g, 0) == _peeling_order(g) == list(range(9))
        # up to 5 vertices the proof order is the index order: the prefix
        # takes all of n <= 3, and after it one vertex is left at n = 4,
        # and at n = 5 two, which tie
        assert roman._PREFIX == 3
        for n in range(1, 6):
            for g in all_graphs(n):
                nb = roman._packed_rows(g.adj)
                assert [step[0] for step in roman._positions(
                    nb, 1, 0, min(roman._PREFIX, n), [()] * n)] == \
                    list(range(n))
        # six can take two passes: 3 has two neighbours left, 4 and 5 one
        assert _peeling_order(Graph(6, [(3, 4), (3, 5)])) == [0, 1, 2, 4, 3, 5]

    def test_position_tables(self):
        for g in self._graphs():
            n = g.n
            nb = roman._packed_rows(g.adj)
            # nb[v] is the key of the 0/1 labeling of N(v), the encoding of
            # the enumerator's keys
            assert nb == [int.from_bytes(bytes(row >> w & 1
                                               for w in range(n)), "big")
                          for row in g.adj]
            for k, floor in ((1, 2), (3, 0)):
                for prefix in (0, roman._PREFIX, n):
                    after = (1 << n) - 1
                    for x, row, rowtop, sh, bit, up, ut, degr, slope, \
                            labs in roman._positions(
                                nb, k, floor, prefix,
                                [(v,) for v in range(n)]):
                        after ^= 1 << x
                        later = [u for u in range(n) if after >> u & 1]
                        top = max(((g.adj[u] & after).bit_count()
                                   for u in later), default=0)
                        sh_x = 8 * (n - 1 - x)     # x's byte, as in a key
                        assert (row, rowtop, sh, bit) == \
                               (nb[x], nb[x] << 7, sh_x, 1 << sh_x + 7)
                        assert up == sum(nb[u] for u in later)
                        assert ut == sum(1 << 8 * (n - 1 - u) + 7
                                         for u in later)
                        assert degr == (g.adj[x] & after).bit_count()
                        assert slope == max(floor, k + top), g.label
                        assert labs == (x,)     # the labels of x

    @pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 64, 128])
    def test_packed_rows_match_the_per_neighbour_sum(self, n):
        # one table entry per row byte: the orders fill one byte, spill
        # one vertex into the next, and reach the 128-vertex limit
        unit = roman._units(n)
        graphs = [Graph(n), Graph(n, combinations(range(n), 2)),
                  *(_large_gnp(n, prob, 700 + n) for prob in (0.1, 0.5, 0.9))]
        for g in graphs:
            assert roman._packed_rows(g.adj) == [
                sum(unit[u] for u in range(n) if row >> u & 1)
                for row in g.adj]

    def test_packed_rows_refuse_129_vertices(self):
        with pytest.raises(GuardError, match=r"need n <= 128, got 129$"):
            roman._packed_rows([0] * 129)

    def test_refuses_more_than_128_vertices_before_any_search(
            self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search started")
        # every search reads the word table after the rows
        monkeypatch.setattr(roman, "_multiples", no_search)
        monkeypatch.setattr(roman, "_positions", no_search)
        g = Graph(129, [], label="E_129")
        messages = set()
        for solve in (gamma_kr_exact, gamma_k_exact,
                      lambda g, k, max_n: enumerate_rkdfs(g, k, 0, 3, max_n)):
            with pytest.raises(GuardError) as refused:
                solve(g, 1, max_n=129)
            messages.add(str(refused.value))
        assert messages == {"packed counts hold one byte per vertex, so "
                            "they need n <= 128, got 129"}

    def test_128_vertices(self):
        g = Graph(128, [], label="E_128")
        for solve in (gamma_kr_exact, gamma_k_exact):
            res = solve(g, 1, max_n=128)
            assert (res.value, res.witness) == (128, (1,) * 128)

    def test_k_far_above_n(self):
        # the 2-neighbour bytes are biased by 128 - min(k, n), not 128 - k
        for solve in (gamma_kr_exact, gamma_k_exact):
            res = solve(complete(6), 300)
            assert (res.value, res.witness) == (6, (1,) * 6)

    def test_loose_incumbent(self):
        # any incumbent above the optimum gives the same value and
        # witness; with 400 on 64 vertices, h = (best - weight - 1) // 2
        # reaches 199, and only the min(h, k) clamp keeps the need test's
        # bytes below 256
        g = _large_gnp(64, 0.9, 1)
        for k, gk, gkr in ((1, 2, 3), (2, 3, 6)):
            for alphabet, value, tight in (((2, 0), 2 * gk, 2 * g.n + 1),
                                           ((0, 1, 2), gkr, g.n + 1)):
                loose = roman._roman_bb(g, k, alphabet, 400)
                assert loose[:2] == roman._roman_bb(g, k, alphabet,
                                                    tight)[:2]
                assert loose[0] == value

    # (n, p, seed, k) -> gamma_k value and set, gamma_kR value and
    # labeling, recorded before the counts were packed
    @pytest.mark.parametrize("case,gk,gkr", [
        ((24, 0.1, 4, 1), (9, "111011101010001000000000"),
         (13, "001011022210002000010000")),
        ((24, 0.15, 0, 2), (12, "111011010000010111000110"),
         (21, "101001000120001212021222")),
        ((30, 0.08, 0, 1), (11, "110000011000101101101000001000"),
         (18, "101000002000102002000102201102")),
        ((30, 0.06, 5, 2), (19, "111011001010101101010111011110"),
         (30, "111000001211021222202111012102")),
    ])
    def test_sparse_graphs_above_the_guard(self, case, gk, gkr):
        n, prob, seed, k = case
        g = _large_gnp(n, prob, seed)
        for res, pinned in ((gamma_k_exact(g, k, max_n=n), gk),
                            (gamma_kr_exact(g, k, max_n=n), gkr)):
            assert (res.value, labeling_to_string(res.witness)) == pinned


class TestKnownInequalities:
    """Spec-level invariants tying gamma_k and gamma_kr together."""

    def _corpus(self):
        for g in all_graphs(4):
            for k in (1, 2, 3):
                yield g, k
        for seed in range(8):
            yield gnp(6, 0.5, seed), (seed % 3) + 1

    def test_sandwich_between_gamma_k_and_twice(self):
        for g, k in self._corpus():
            gk = gamma_k_exact(g, k).value
            gkr = gamma_kr_exact(g, k).value
            assert gk <= gkr <= 2 * gk

    def test_order_and_2k_thresholds(self):
        for g, k in self._corpus():
            gkr = gamma_kr_exact(g, k).value
            if g.n <= 2 * k:
                assert gkr == g.n
            else:
                assert gkr >= 2 * k

    def test_min_lower_bound(self):
        for g, k in self._corpus():
            gk = gamma_k_exact(g, k).value
            gkr = gamma_kr_exact(g, k).value
            assert gkr >= min(g.n, gk + k)

    def test_degree_lower_bound(self):
        for g, k in self._corpus():
            if g.max_degree() >= k:
                gkr = gamma_kr_exact(g, k).value
                assert gkr >= -(-2 * g.n * k // (g.max_degree() + k))


def _certified_value(g, k, quantity, witness):
    """The weight (gamma_kr) or size (gamma_k) of witness, or None when it
    does not validate on g."""
    if quantity == "gamma_kr":
        return None if validate_rkdf(g, k, witness) else weight(witness)
    members = [v for v, x in enumerate(witness) if x]
    return len(members) if is_k_dominating(g, k, members) else None


class TestMetamorphic:
    """Relations between solves that hold by the definitions, on graphs
    above the oracle guard (n > 10), where the values are otherwise
    checked only against pins recorded from the solvers themselves.
    Seeded loops, so every order and k in range is drawn."""

    SOLVERS = (gamma_kr_exact, gamma_k_exact)
    PROBS = (0.2, 0.3, 0.4, 0.5)

    def _gnp(self, n, rng):
        return gnp(n, rng.choice(self.PROBS), rng.getrandbits(32))

    def test_disjoint_union_adds_up(self):
        rng = random.Random(2401)
        for i in range(60):
            n1, n2, k = 5 + i % 4, 5 + i // 4 % 4, 1 + i % 3
            g1, g2 = self._gnp(n1, rng), self._gnp(n2, rng)
            union = Graph(n1 + n2, [*g1.edges(), *((u + n1, v + n1)
                                                   for u, v in g2.edges())])
            for solve in self.SOLVERS:
                r1, r2, r = solve(g1, k), solve(g2, k), solve(union, k)
                # the optimal labelings of the union are the products of
                # the parts' ones, so the lex-least is their concatenation
                assert (r.value, r.witness) == (r1.value + r2.value,
                                                r1.witness + r2.witness), \
                    (g1.adj, g2.adj, k, solve.__name__)

    def test_relabelling_keeps_the_value(self):
        rng = random.Random(2402)
        for i in range(60):
            n, k = 12 + i % 3, 1 + i // 3 % 3
            g = self._gnp(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            for solve in self.SOLVERS:
                r, s = solve(g, k), solve(h, k)
                moved = [0] * n
                for v, val in enumerate(r.witness):
                    moved[perm[v]] = val
                assert (s.value,
                        _certified_value(h, k, s.quantity, s.witness),
                        _certified_value(h, k, r.quantity, tuple(moved))) \
                    == (r.value,) * 3, (g.adj, perm, k, solve.__name__)

    def test_adding_an_edge_never_raises_the_value(self):
        rng = random.Random(2403)
        for i in range(60):
            n, k = 12 + i % 3, 1 + i // 3 % 3
            g = self._gnp(n, rng)
            missing = [(u, v) for v in range(n) for u in range(v)
                       if not g.has_edge(u, v)]
            plus = Graph(n, [*g.edges(), rng.choice(missing)])
            for solve in self.SOLVERS:
                assert solve(plus, k).value <= solve(g, k).value, \
                    (g.adj, plus.adj, k, solve.__name__)
