"""Family validation and the d_R^k / d_k solvers."""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, bipartite, complete, cycle, empty, gnp, path
from rkdom import (FamilySpec, GuardError, closed_form_d_rk, complement,
                   d_k_exact, d_rk_exact, d_rk_oracle, enumerate_rkdfs,
                   gamma_k_exact, gamma_kr_exact, generate,
                   labeling_to_string, solve_all, validate_family,
                   validate_partition, weight)
from rkdom.graphs import Graph
from rkdom.oracles import naive_rkdfs


class TestValidateFamily:
    def test_constant_pair_on_trivial_graph(self):
        fam = [(1,), (2,)]
        assert validate_family(complete(1), 2, fam) == []

    def test_duplicate_function(self):
        f = (1, 1)
        vs = validate_family(complete(2), 2, [f, f])
        assert [v.kind for v in vs] == ["duplicate-function"]
        assert vs[0].member == 1

    def test_rotation_family_on_k3(self):
        members = [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
        assert validate_family(complete(3), 1, members) == []
        for v in range(3):
            assert sum(f[v] for f in members) == 2

    def test_capacity_exceeded(self):
        vs = validate_family(complete(2), 1, [(2, 0), (2, 1)])
        kinds = {v.kind for v in vs}
        assert "capacity-exceeded" in kinds
        bad = next(v for v in vs if v.kind == "capacity-exceeded")
        assert bad.vertex == 0

    def test_member_rkdf_failure_carries_index(self):
        vs = validate_family(complete(3), 1, [(0, 0, 2), (0, 1, 0)])
        assert any(v.member == 1 and v.kind == "zero-vertex-undercovered"
                   for v in vs)

    def test_structural_failure_aborts_family_checks(self):
        vs = validate_family(complete(3), 1, [(0, 2), (0, 2)])
        assert all(v.kind == "length-mismatch" for v in vs)

    def test_accepts_family_objects(self):
        fam = ((2, 0), (0, 2))
        assert validate_family(complete(2), 1, fam) == []


class TestDrkOracle:
    @pytest.mark.parametrize("g,k,expect", [
        (complete(2), 1, 2),
        (complete(1), 1, 1),
        (complete(4), 2, 4),
        (complete(3), 2, 3),
    ])
    def test_examples(self, g, k, expect):
        assert d_rk_oracle(g, k) == expect

    def test_guards(self):
        with pytest.raises(GuardError):
            d_rk_oracle(empty(7), 1)
        with pytest.raises(GuardError):
            d_rk_oracle(empty(2), 4)

    def test_independent_of_the_solver_enumerator(self, monkeypatch):
        import rkdom.domatic

        def broken(*args, **kwargs):
            raise AssertionError("the oracle must not use enumerate_rkdfs")

        monkeypatch.setattr(rkdom.domatic, "enumerate_rkdfs", broken)
        assert d_rk_oracle(complete(3), 1) == 3

    def test_independent_of_the_solver_packing(self, monkeypatch):
        import rkdom.domatic

        def broken(*args, **kwargs):
            raise AssertionError("the oracle must not pack capacities")

        want = d_rk_exact(cycle(5), 2).value
        # the solver's packing helpers: the word table of its capacities
        # and the key decoder of its family; its candidates arrive packed
        # as the enumerator's keys, which the test above keeps from the
        # oracle
        for helper in ("_multiples", "_decode"):
            with monkeypatch.context() as m:
                m.setattr(rkdom.domatic, helper, broken)
                with pytest.raises(AssertionError):
                    d_rk_exact(cycle(5), 2)   # the patch reaches the solver
        monkeypatch.setattr(rkdom.domatic, "_multiples", broken)
        monkeypatch.setattr(rkdom.domatic, "_decode", broken)
        assert d_rk_oracle(complete(3), 1) == 3
        assert d_rk_oracle(cycle(5), 2) == want


class TestDrkExact:
    @pytest.mark.parametrize("g,k,expect", [
        (complete(3), 1, 3),
        (empty(4), 1, 1),
        (complete(1), 2, 2),
        (empty(2), 4, 4),          # 2^n functions once k >= 2^n
        (cycle(4), 1, 2),
        (complete(4), 2, 4),
        (complete(3), 2, 3),
        (bipartite(3, 3), 1, 3),
    ])
    def test_examples(self, g, k, expect):
        assert d_rk_exact(g, k).value == expect

    def test_cycle_values(self):
        # C_n, n 3-8, where no closed form applies: 3 when 3 divides n and
        # 2 otherwise at k = 1, and 3 at k = 2, in both candidate orders
        for n in range(3, 9):
            for k, want in ((1, 3 if n % 3 == 0 else 2), (2, 3)):
                for by_key in (True, False):
                    assert d_rk_exact(cycle(n), k,
                                      by_key=by_key).value == want
        # E_n and K_n, n 1-6, k 1-4: closed_form_d_rk gives 19 of these 48
        # cells no value; the oracle checks each at n <= 5 and k <= 3
        table = {"empty": ([1, 2, 2, 2], [1, 3, 4, 4], [1, 3, 4, 5],
                           [1, 3, 5, 6], [1, 3, 5, 6], [1, 3, 5, 7]),
                 "complete": ([1, 2, 2, 2], [2, 3, 4, 4], [3, 3, 4, 5],
                              [4, 4, 5, 6], [5, 5, 5, 6], [6, 6, 6, 7])}
        open_cells = 0
        for kind, rows in table.items():
            for n, row in enumerate(rows, start=1):
                spec = FamilySpec(kind, n=n)
                g = generate(spec)
                for k, want in enumerate(row, start=1):
                    assert d_rk_exact(g, k).value == want
                    if n <= 5 and k <= 3:
                        assert d_rk_oracle(g, k) == want
                    form = closed_form_d_rk(spec, k)
                    assert form in (None, want)
                    open_cells += form is None
        assert open_cells == 19

    def test_witness_certifies(self):
        for g in (cycle(5), complete(5), gnp(6, 0.5, 4), bipartite(2, 3)):
            for k in (1, 2):
                res = d_rk_exact(g, k)
                fam = res.witness
                assert isinstance(fam, tuple)
                assert len(fam) == res.value
                assert validate_family(g, k, fam) == []

    def test_agrees_with_oracle_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for g in all_graphs(n):
                for k in (1, 2, 3):
                    assert d_rk_exact(g, k).value == d_rk_oracle(g, k)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 5), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 2), st.sampled_from([0.3, 0.5, 0.7]))
    def test_agrees_with_oracle_random(self, n, seed, k, prob):
        g = gnp(n, prob, seed)
        assert d_rk_exact(g, k).value == d_rk_oracle(g, k)

    def test_always_at_least_one_and_two_for_k2(self):
        for g in (empty(3), path(4), cycle(5)):
            assert d_rk_exact(g, 1).value >= 1
            assert d_rk_exact(g, 2).value >= 2

    def test_product_bound(self):
        for g in (cycle(6), gnp(7, 0.5, 8), complete(6)):
            for k in (1, 2):
                gkr = gamma_kr_exact(g, k).value
                drk = d_rk_exact(g, k).value
                assert gkr * drk <= 2 * k * g.n

    def test_product_equality_forces_uniform_families(self):
        # K_n at k=1 attains gamma_kr * d_rk = 2n; check the witness shape.
        g = complete(4)
        res = d_rk_exact(g, 1)
        gkr = gamma_kr_exact(g, 1).value
        assert gkr * res.value == 2 * g.n
        for f in res.witness:
            assert weight(f) == gkr
        for v in range(g.n):
            assert sum(f[v] for f in res.witness) == 2

    def test_guards(self):
        with pytest.raises(GuardError):
            d_rk_exact(empty(9), 1)
        with pytest.raises(GuardError):
            d_rk_exact(empty(2), 5)
        assert d_rk_exact(empty(9), 1, max_n=9).value == 1

    def test_deterministic_reruns(self):
        g = gnp(6, 0.5, 21)
        a = d_rk_exact(g, 2)
        b = d_rk_exact(g, 2)
        assert (a.value, a.witness, a.nodes_explored) == \
               (b.value, b.witness, b.nodes_explored)

    def test_witness_matches_plain_branch_and_bound(self):
        # reference semantics: include-first DFS over the (weight, values)
        # sorted pool, updating on strict improvement, no other pruning;
        # the witness is the family that sets the final optimum; the pool
        # is the naive 3^n filter, independent of the solver's enumerator
        def reference(g, k):
            pool = sorted(naive_rkdfs(g, k), key=lambda f: (sum(f), f))
            best = -1
            best_members = None

            def rec(idx, rescap, chosen):
                nonlocal best, best_members
                if len(chosen) > best:
                    best = len(chosen)
                    best_members = tuple(chosen)
                for i in range(idx, len(pool)):
                    c = pool[i]
                    if all(rescap[v] >= c[v] for v in range(g.n)):
                        rec(i + 1, [rescap[v] - c[v] for v in range(g.n)],
                            chosen + [c])

            rec(0, [2 * k] * g.n, [])
            return best, best_members

        corpus = list(all_graphs(3)) + [cycle(4), path(4), gnp(5, 0.5, 31)]
        for g in corpus:
            for k in (1, 2):
                value, members = reference(g, k)
                res = d_rk_exact(g, k)
                assert res.value == value, (g.label, k)
                assert res.witness == members, (g.label, k)


class TestDrkPinned:
    """Values and witnesses recorded from the earlier two-pass search
    (value pass, then a witness pass), with its node counts as ceilings."""

    @pytest.mark.parametrize("g,k,members,nodes_before", [
        # value = upper bound: the search stops when it reaches it
        (complete(5), 1, ("00002", "00020", "00200", "02000", "20000"), 6),
        # value = upper bound
        (cycle(6), 1, ("002002", "020020", "200200"), 8),
        # value < upper bound: the cuts close the search
        (bipartite(2, 3), 1, ("12000", "00112"), 7),
        # value < upper bound
        (cycle(5), 2, ("11111", "02022", "11211"), 6),
        (gnp(7, 0.5, 8), 2, ("1002012", "1220010", "1000222", "1022200"), 10),
        (gnp(8, 0.6, 5), 1, ("00021000", "02000010", "00101201"), 169),
        (gnp(8, 0.6, 5), 2, ("12000020", "02020020", "10022101",
                             "10201102", "10201201"), 60),
    ])
    def test_witness_and_node_ceiling(self, g, k, members, nodes_before):
        res = d_rk_exact(g, k)
        assert res.value == len(members)
        assert tuple(map(labeling_to_string, res.witness)) == members
        assert res.nodes_explored <= nodes_before

    # Recorded from the search over the fully enumerated, sorted pool,
    # with its node counts as ceilings: (n, p, seed, k, graph witness,
    # graph nodes, complement witness, complement nodes).
    @pytest.mark.parametrize("n,p,seed,k,members,nodes,co_members,co_nodes", [
        (7, 0.3, 11, 1, ("2002000", "0210102"), 7,
         ("1000200", "1020000", "0002002", "0200020"), 17),
        (7, 0.5, 12, 2, ("1111111", "0102212", "1111121"), 4,
         ("2000102", "0002022", "0012120", "2210200"), 5),
        (7, 0.7, 13, 3,
         ("1111111", "0022220", "0102122", "1211111", "2120102"), 9,
         ("1111111", "1111112", "1111121", "1111211", "1112111"), 6),
        (8, 0.4, 21, 1, ("02002010", "10010112"), 9,
         ("00000120", "01020000", "21000000", "00201001"), 9),
        (8, 0.5, 22, 2, ("00210221", "02012120", "21110102", "21112001"), 13,
         ("02200010", "00021012", "00220200", "20001210", "02002012"), 6),
        (8, 0.6, 23, 3, ("10002122", "10202102", "11111111", "12020120",
                         "12220100"), 97,
         ("11111111", "02121021", "11111112", "11111211", "11112111"), 7),
        (8, 0.7, 24, 1, ("00200000", "00000120", "00010002", "02011000",
                         "20001100"), 6,
         ("00102011", "00120200"), 3),
        (7, 0.6, 25, 2, ("2120000", "0100122", "0102102", "0102120"), 5,
         ("1011022", "1111111", "1211200"), 8),
    ])
    def test_graph_and_complement(self, n, p, seed, k, members, nodes,
                                  co_members, co_nodes):
        g = gnp(n, p, seed)
        for h, fam, ceiling in ((g, members, nodes),
                                (complement(g), co_members, co_nodes)):
            res = d_rk_exact(h, k)
            assert res.value == len(fam)
            assert tuple(map(labeling_to_string, res.witness)) == fam
            assert res.nodes_explored <= ceiling


# One SHA-256 over (value, witness, nodes) of d_rk_exact on every graph
# with n <= 4 at k 1-4 and on 60 G(n,p) graphs (n 6-8) and their
# complements, recorded while each weight level was a walk of its own and
# capacities were packed five bits per vertex.  Any change to the
# candidate list, the packing or a cut changes it; k = 4 puts a capacity
# of 8 in the fields.
DRK_CORPUS_PIN = \
    "86d03182e48cdbcd664475715e740e508e24d02fd1e8648982b5315390bb85ae"


# The same digest over the walk-order search (by_key=False) that verify
# and sweep run: it moves with any change to the enumerator's walk order,
# the packing or a cut.
DRK_WALK_CORPUS_PIN = \
    "4f9677943543788cf2ba62c0e472cb6e7f6395866cbabc4d6e4f28fe2954439f"


@functools.cache
def drk_corpus():
    corpus = [(g, k) for n in range(1, 5) for g in all_graphs(n)
              for k in (1, 2, 3, 4)]
    for i in range(60):
        g = gnp(6 + i % 3, (0.3, 0.5, 0.7, 0.85)[i % 4], 700 + i)
        k = 1 + i // 3 % 4
        corpus += [(g, k), (complement(g), k)]
    return corpus


# The same two digests over value and family alone: they hold across a
# cut that moves node counts but keeps every value and witness.
DRK_VALUES_PIN = \
    "e55a44faa42e7f818c1676791164edb0f7dca76acde799e560719be1c6c9cd76"
DRK_WALK_VALUES_PIN = \
    "5542b1d4a3abb34379a70b4a5151ab69d046a8bdcf3a494da6836ebe58132136"


@functools.cache
def drk_solves(by_key):
    """(value, family, nodes) lines of d_rk_exact over the corpus."""
    lines = []
    for g, k in drk_corpus():
        res = d_rk_exact(g, k, by_key=by_key)
        fam = " ".join(map(labeling_to_string, res.witness))
        lines.append((res.value, fam, res.nodes_explored))
    return lines


def drk_digest(by_key, nodes=True):
    digest = hashlib.sha256()
    for value, fam, count in drk_solves(by_key):
        tail = f" {count}" if nodes else ""
        digest.update(f"{value} {fam}{tail}\n".encode())
    return digest.hexdigest()


def test_drk_corpus_pin():
    assert drk_digest(True) == DRK_CORPUS_PIN


def test_drk_walk_corpus_pin():
    assert drk_digest(False) == DRK_WALK_CORPUS_PIN


def test_drk_values_pin():
    assert drk_digest(True, nodes=False) == DRK_VALUES_PIN


def test_drk_walk_values_pin():
    assert drk_digest(False, nodes=False) == DRK_WALK_VALUES_PIN


def test_walk_order_finds_an_optimal_family():
    # the value and gamma_kR do not depend on the candidate order; the
    # family is a different optimal one, and the same on every call
    for g, k in drk_corpus():
        doc, walk = d_rk_exact(g, k), d_rk_exact(g, k, by_key=False)
        assert (walk.value, walk.gamma_kr) == (doc.value, doc.gamma_kr), \
            (g.adj, k)
        assert len(walk.witness) == walk.value
        assert validate_family(g, k, walk.witness) == [], (g.adj, k)
        again = d_rk_exact(g, k, by_key=False)
        assert (again.value, again.witness, again.nodes_explored) == \
            (walk.value, walk.witness, walk.nodes_explored)


def test_solve_all_family_fills_every_capacity_at_product_equality():
    # gamma_kR * d_R^k = 2kn forces every optimal family, the walk-order
    # one that solve_all keeps included, to have uniform weight gamma_kR
    # and to fill every capacity: what the gammast-eq record re-checks
    equalities = 0
    for g, k in drk_corpus():
        drk = d_rk_exact(g, k, by_key=False)
        if drk.gamma_kr * drk.value != 2 * k * g.n:
            continue
        equalities += 1
        vals = solve_all(g, k)
        fam = vals.d_rk_family
        assert fam == drk.witness and len(fam) == vals.d_rk
        assert all(weight(f) == vals.gamma_kr for f in fam), (g.adj, k)
        assert all(sum(f[v] for f in fam) == 2 * k
                   for v in range(g.n)), (g.adj, k)
    assert equalities == 19   # of the 420 solves; order-independent


def test_one_walk_for_the_light_levels(monkeypatch):
    import rkdom.domatic

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return enumerate_rkdfs(*args, **kwargs)

    # levels 2 and 3 of C_5 at k=1 are empty; gamma_1R(C_5) = 4
    monkeypatch.setattr(rkdom.domatic, "enumerate_rkdfs", counted)
    assert d_rk_exact(cycle(5), 1).value == 2
    assert len(calls) == 1

    for n in range(1, 5):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                gkr = gamma_kr_exact(g, k).value
                both = enumerate_rkdfs(g, k, min(n, 2 * k), n + 1).labelings
                assert both == (enumerate_rkdfs(g, k, gkr, gkr).labelings
                                + enumerate_rkdfs(g, k, gkr + 1,
                                                  gkr + 1).labelings)


class TestDkExact:
    @pytest.mark.parametrize("g,k,expect", [
        (complete(4), 1, 4),
        (empty(5), 1, 1),
        (empty(3), 2, 1),
        (complete(5), 2, 2),
        (cycle(4), 1, 2),
    ])
    def test_examples(self, g, k, expect):
        assert d_k_exact(g, k).value == expect

    def test_witness_is_valid_partition(self):
        for g in (complete(5), cycle(6), gnp(7, 0.6, 13), path(5)):
            for k in (1, 2):
                res = d_k_exact(g, k)
                assert len(res.witness) == res.value
                assert validate_partition(g, k, res.witness) == []

    def test_brute_force_agreement(self):
        # independent check: maximize block count over all set partitions
        from itertools import product as iproduct
        from rkdom import is_k_dominating

        def brute(g, k):
            best = 1
            n = g.n
            for colors in iproduct(range(n), repeat=n):
                used = sorted(set(colors))
                if used != list(range(len(used))):
                    continue
                blocks = [[v for v in range(n) if colors[v] == c]
                          for c in used]
                if all(is_k_dominating(g, k, b) for b in blocks):
                    best = max(best, len(blocks))
            return best

        for g in all_graphs(4):
            for k in (1, 2, 3):
                assert d_k_exact(g, k).value == brute(g, k)

    def test_at_most_d_rk(self):
        for g in (complete(4), cycle(5), gnp(6, 0.5, 17), empty(4)):
            for k in (1, 2):
                assert d_k_exact(g, k).value <= d_rk_exact(g, k).value

    def test_guard(self):
        with pytest.raises(GuardError):
            d_k_exact(empty(11), 1)


class TestDkPinned:
    """Value, witness and node count recorded from the search that kept a
    per-vertex count of neighbours in each block; the block masks that
    replaced it visit the same nodes.  The block-size ceilings moved the
    counts of (8, 0.6, 100, 1), 208 -> 175, and of (10, 0.8, 9, 1),
    2349 -> 272, and no value or witness."""

    @pytest.mark.parametrize("n,p,seed,k,blocks,nodes", [
        # the first block count tried (the least ceiling) succeeds
        (6, 0.5, 1, 1, ((0, 1, 2, 4), (3, 5)), 7),
        (7, 0.9, 10, 3, ((0, 1, 5), (2, 3, 4, 6)), 11),
        (9, 0.8, 6, 3, ((0, 1, 2, 4, 8), (3, 5, 6, 7)), 10),
        (10, 0.7, 7, 2, ((0, 1, 6), (2, 3, 4, 5), (7, 8, 9)), 34),
        (10, 0.8, 12, 1, ((0, 2), (1, 3), (4,), (5, 6), (7, 8), (9,)), 36),
        # the first block count fails and a smaller one succeeds
        (8, 0.6, 100, 1, ((0, 3), (1, 4), (2, 5), (6, 7)), 175),
        (10, 0.6, 100, 1, ((0, 1, 3), (2, 9), (4, 7, 8), (5, 6)), 355),
        (10, 0.8, 102, 2, ((0, 1, 2, 5), (3, 4, 6), (7, 8, 9)), 75),
        (10, 0.9, 102, 3, ((0, 1, 2, 3, 4, 5, 9), (6, 7, 8)), 346),
        (10, 0.9, 104, 3, ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9)), 274),
        # min-degree // k + 1 = 7, but no vertex is adjacent to all others,
        # so every block has two or more and 5 is the first count tried
        (10, 0.8, 9, 1, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)), 272),
    ])
    def test_value_witness_and_nodes(self, n, p, seed, k, blocks, nodes):
        res = d_k_exact(gnp(n, p, seed), k)
        assert res.value == len(blocks)
        assert res.witness == blocks
        assert res.nodes_explored == nodes

    def test_block_size_ceiling_below_min_degree_ceiling(self):
        # The complement of C_9 (graph6 HUzvvx}) at k = 2: blocks hold at
        # least ceil(2*9 / (6 + 2)) = 3 vertices, so the first count tried
        # is 9 // 3 = 3, below min-degree // k + 1 = 4.  Starting from 4
        # (no block-size ceiling, n // k, or a floor for the ceiling)
        # explores 48 nodes.
        g = complement(cycle(9))
        res = d_k_exact(g, 2)
        assert res.value == 3
        assert res.witness == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        assert res.nodes_explored == 17


class TestMetamorphic:
    """Relations between d_k and d_R^k solves that hold by the
    definitions, on graphs of order 7-8: above the d_R^k oracle guard
    (n <= 6) and within the d_R^k solver guard (n <= 8).  d_R^k runs in
    both candidate orders.  Seeded loops, so every order and k in range
    is drawn."""

    PROBS = (0.3, 0.5, 0.7)

    def _gnp(self, n, rng):
        return gnp(n, rng.choice(self.PROBS), rng.getrandbits(32))

    @staticmethod
    def _values(g, k):
        """d_k, then d_R^k in (weight, values) and in walk order."""
        return (d_k_exact(g, k).value, d_rk_exact(g, k).value,
                d_rk_exact(g, k, by_key=False).value)

    def test_disjoint_union(self):
        # a block of the union meets both parts (a part outside it would
        # have no neighbours in it), so it restricts to a block of each;
        # merging surplus blocks keeps k-domination, so d_k is the
        # smaller of the parts' values.  Pairing up the members of two
        # families gives one of the union, so d_R^k is at least the
        # smaller.
        rng = random.Random(2501)
        for i in range(60):
            n1 = 3 + i % 3
            n2 = 7 + i // 3 % 2 - n1
            k = 1 + i // 6 % 3
            g1, g2 = self._gnp(n1, rng), self._gnp(n2, rng)
            union = Graph(n1 + n2, [*g1.edges(), *((u + n1, v + n1)
                                                   for u, v in g2.edges())])
            dk1, drk1, _ = self._values(g1, k)
            dk2, drk2, _ = self._values(g2, k)
            dk, drk, drk_walk = self._values(union, k)
            assert dk == min(dk1, dk2), (g1.adj, g2.adj, k)
            assert drk == drk_walk >= min(drk1, drk2), (g1.adj, g2.adj, k)

    def test_relabelling_keeps_the_values(self):
        rng = random.Random(2502)
        for i in range(60):
            n, k = 7 + i % 2, 1 + i // 2 % 3
            g = self._gnp(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            vals = self._values(g, k)
            assert vals[1] == vals[2] and self._values(h, k) == vals, \
                (g.adj, perm, k)
            for by_key in (True, False):
                fam = d_rk_exact(h, k, by_key=by_key).witness
                assert validate_family(h, k, fam) == [], (g.adj, perm, k)
            assert validate_partition(h, k, d_k_exact(h, k).witness) == []

    def test_adding_an_edge_never_lowers_the_values(self):
        # every k-dominating partition and RkDF family of G is one of G + e
        rng = random.Random(2503)
        for i in range(60):
            n, k = 7 + i % 2, 1 + i // 2 % 3
            g = self._gnp(n, rng)
            missing = [(u, v) for v in range(n) for u in range(v)
                       if not g.has_edge(u, v)]
            if not missing:
                continue
            plus = Graph(n, [*g.edges(), rng.choice(missing)])
            dk, drk, drk_walk = self._values(g, k)
            dk_plus, drk_plus, drk_walk_plus = self._values(plus, k)
            assert drk == drk_walk and drk_plus == drk_walk_plus, (g.adj, k)
            assert dk_plus >= dk and drk_plus >= drk, (g.adj, plus.adj, k)


class TestPartitionValidator:
    def test_detects_overlap_and_gap(self):
        g = complete(3)
        vs = validate_partition(g, 1, [(0, 1), (1, 2)])
        assert [(v.kind, v.member) for v in vs] == [("block-overlap", 1)]
        vs = validate_partition(g, 1, [(0, 1)])
        assert [v.kind for v in vs] == ["vertex-uncovered"]
        assert validate_partition(g, 1, [(0, 1), (2,)]) == []

    def test_block_that_does_not_k_dominate(self):
        # on the path 0-1-2, {1, 2} dominates but {0} misses vertex 2
        g = path(3)
        vs = validate_partition(g, 1, [(1, 2), (0,)])
        assert [(v.kind, v.member, v.detail) for v in vs] == [
            ("zero-vertex-undercovered", 1, "block 1 is not 1-dominating")]



# Each solve on a graph where its recursion runs, including the witness
# pass of `_roman_bb` that unwinds with _Found (n = 12 takes two passes,
# K_4 one) and d_k counts that fail before one succeeds.
SOLVES = {
    "gamma_kr two passes": lambda: gamma_kr_exact(gnp(12, 0.3, 1), 2),
    "gamma_kr one pass": lambda: gamma_kr_exact(complete(4), 1),
    "gamma_k": lambda: gamma_k_exact(gnp(12, 0.3, 1), 1),
    "d_rk": lambda: d_rk_exact(gnp(6, 0.5, 2), 2),
    "d_rk walk order": lambda: d_rk_exact(gnp(6, 0.5, 2), 2, by_key=False),
    "d_k": lambda: d_k_exact(gnp(8, 0.6, 3), 1),
    "solve_all": lambda: solve_all(gnp(6, 0.5, 2), 2),
}


@pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES)
def test_solves_leave_no_cyclic_garbage(solve):
    # a recursive closure refers to itself; a solve that did not break
    # that cycle would leave its closures to the cyclic collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        solve()                 # fills the per-size caches
        gc.collect()
        solve()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def fewest_twos(n: int, d: int) -> int:
    """T(d): the fewest 2s that d distinct vectors of {1,2}^n hold, which
    is every vector with fewer than j 2s and then the rest with j."""
    total = 0
    for j in range(n + 1):
        take = min(d, math.comb(n, j))
        total += take * j
        d -= take
    return total


def drk_floor(n: int, k: int) -> int:
    """F(n, k) = max{d <= 2^n : d + ceil(T(d)/n) <= 2k}.

    A {1,2}-labeling has no 0, so it is an RkDF of every graph.  d of
    them with their 2s spread evenly load no vertex above d + ceil(T(d)/n),
    so F(n, k) <= d_R^k of every graph of order n.  When Delta < k no 0
    has k neighbours labelled 2, the RkDFs are exactly {1,2}^n, and the
    loads summed over the vertices give equality."""
    return max(d for d in range(1, 2 ** n + 1)
               if d + -(-fewest_twos(n, d) // n) <= 2 * k)


class TestLowDegreeFloor:
    def test_floor_table(self):
        # n 1-10 (rows) at k 1-8 (columns)
        assert [[drk_floor(n, k) for k in range(1, 9)]
                for n in range(1, 11)] == [
            [1, 2, 2, 2, 2, 2, 2, 2], [1, 3, 4, 4, 4, 4, 4, 4],
            [1, 3, 4, 5, 7, 8, 8, 8], [1, 3, 5, 6, 7, 9, 10, 11],
            [1, 3, 5, 6, 8, 9, 11, 12], [1, 3, 5, 7, 8, 10, 11, 13],
            [1, 3, 5, 7, 8, 10, 11, 13], [1, 3, 5, 7, 9, 10, 12, 13],
            [1, 3, 5, 7, 9, 10, 12, 14], [1, 3, 5, 7, 9, 11, 12, 14]]

    def test_floor_holds_and_is_tight_below_k(self):
        rng = random.Random(2020)
        below = 0
        for seed in range(300):
            n, k = rng.randint(2, 7), rng.randint(1, 3)
            g = gnp(n, rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)), seed)
            value = d_rk_exact(g, k).value
            assert drk_floor(n, k) <= value, (g.adj, k)
            if g.max_degree() < k:
                below += 1
                assert drk_floor(n, k) == value, (g.adj, k)
        assert below == 129

    def test_floor_is_the_value_on_empty_graphs(self):
        for n in range(1, 9):
            for k in range(1, 5):
                assert drk_floor(n, k) == d_rk_exact(empty(n), k).value
