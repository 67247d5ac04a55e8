"""Explicit families and closed-form values."""

from __future__ import annotations

import hashlib
import re

import pytest

from conftest import complete, cycle, empty, path
from rkdom import (ConstructionError, FamilySpec, Graph, GuardError,
                   closed_form_d_rk, closed_form_gamma_kr, d_rk_exact,
                   encode_graph6,
                   family_balanced_bipartite, family_complete,
                   family_from_balanced_subgraphs, family_kdelta_sharpness,
                   family_near_order, family_nontrivial, gamma_kr_exact,
                   generate, validate_family)


class TestClosedFormGammaKr:
    @pytest.mark.parametrize("spec,k,expect", [
        (FamilySpec("complete", n=7), 2, 4),
        (FamilySpec("complete-bipartite", p=2, q=5), 2, 4),
        (FamilySpec("complete-bipartite", p=3, q=3), 1, 4),
        (FamilySpec("cycle", n=4), 3, 4),
        (FamilySpec("complete-bipartite", p=1, q=1), 1, 2),
        (FamilySpec("complete-bipartite", p=2, q=2), 2, 4),
    ])
    def test_examples(self, spec, k, expect):
        assert closed_form_gamma_kr(spec, k) == expect

    def test_none_when_no_closed_form(self):
        assert closed_form_gamma_kr(FamilySpec("cycle", n=7), 1) is None
        assert closed_form_gamma_kr(
            FamilySpec("random-gnp", n=9, prob=0.5, seed=1), 2) is None

    def test_overlapping_bipartite_cases_agree(self):
        # p = 3k sits in two cases; both give 4k.
        spec = FamilySpec("complete-bipartite", p=3, q=9)
        assert closed_form_gamma_kr(spec, 1) == 4

    def test_agrees_with_solver_complete(self):
        for n in range(1, 9):
            for k in (1, 2, 3):
                spec = FamilySpec("complete", n=n)
                assert closed_form_gamma_kr(spec, k) == \
                    gamma_kr_exact(generate(spec), k).value

    def test_agrees_with_solver_bipartite(self):
        for p in range(1, 5):
            for q in range(p, 5):
                for k in (1, 2, 3):
                    spec = FamilySpec("complete-bipartite", p=p, q=q)
                    assert closed_form_gamma_kr(spec, k) == \
                        gamma_kr_exact(generate(spec), k).value

    def test_agrees_with_solver_small_order(self):
        for spec in (FamilySpec("cycle", n=4), FamilySpec("empty", n=3),
                     FamilySpec("cycle", n=5)):
            for k in (2, 3):
                value = closed_form_gamma_kr(spec, k)
                if value is not None:
                    assert value == gamma_kr_exact(generate(spec), k).value


class TestClosedFormDrk:
    @pytest.mark.parametrize("spec,k,expect", [
        (FamilySpec("complete", n=6), 3, 6),
        (FamilySpec("complete", n=5), 3, 5),
        (FamilySpec("empty", n=3), 1, 1),
        (FamilySpec("complete", n=1), 1, 1),
        (FamilySpec("complete", n=1), 5, 2),
        (FamilySpec("empty", n=1), 2, 2),
        (FamilySpec("empty", n=2), 4, 4),
        (FamilySpec("cycle", n=3), 8, 8),      # k >= 2^n
    ])
    def test_examples(self, spec, k, expect):
        assert closed_form_d_rk(spec, k) == expect

    def test_none_cases(self):
        # no closed form for K_n when n < 2k-2 (and k < 2^n)
        assert closed_form_d_rk(FamilySpec("complete", n=2), 3) is None
        assert closed_form_d_rk(FamilySpec("cycle", n=5), 1) is None
        assert closed_form_d_rk(FamilySpec("empty", n=3), 2) is None

    def test_agrees_with_solver(self):
        specs = [FamilySpec("complete", n=n) for n in range(1, 8)]
        specs += [FamilySpec("empty", n=n) for n in range(1, 6)]
        specs += [FamilySpec("cycle", n=n) for n in range(3, 7)]
        for spec in specs:
            for k in (1, 2, 3, 4):
                value = closed_form_d_rk(spec, k)
                if value is None:
                    continue
                g = generate(spec)
                if g.n > 8 or k > 4:
                    continue
                assert d_rk_exact(g, k).value == value, (spec, k)

    def test_complete_graph_small_order_ceiling(self):
        # below order 2k the family size never exceeds 2k-1, even where no
        # exact closed form exists (n < 2k-2)
        for k in (2, 3, 4):
            for n in range(1, 2 * k):
                assert d_rk_exact(complete(n), k).value <= 2 * k - 1


class TestFamilyComplete:
    def test_frozen_small_families(self):
        assert family_complete(3, 1)[1] == (
            (2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert family_complete(4, 2)[1] == (
            (2, 2, 0, 0), (0, 2, 2, 0), (0, 0, 2, 2), (2, 0, 0, 2))
        assert family_complete(2, 1)[1] == ((2, 0), (0, 2))

    def test_refusal_below_2k(self):
        with pytest.raises(ConstructionError):
            family_complete(3, 2)

    def test_order_guard_before_members(self):
        with pytest.raises(GuardError):
            family_complete(65, 1)

    def test_grid_validates_with_full_capacity(self):
        for k in (1, 2, 3, 4):
            for n in range(2 * k, 11):
                fam = family_complete(n, k)[1]
                g = complete(n)
                assert len(fam) == n
                assert validate_family(g, k, fam) == []
                for v in range(n):
                    assert sum(f[v] for f in fam) == 2 * k


class TestFamilyBalancedBipartite:
    def test_examples(self):
        g, fam = family_balanced_bipartite(3, 1)
        assert g.n == 6 and len(fam) == 3
        assert all(sum(f[v] for f in fam) == 2 for v in range(6))

        g, fam = family_balanced_bipartite(4, 1)
        assert g.n == 8 and len(fam) == 4

        g, fam = family_balanced_bipartite(3, 2)
        assert g.n == 12 and len(fam) == 6
        assert all(sum(f[v] for f in fam) == 4 for v in range(12))

    def test_refusal_below_t3(self):
        with pytest.raises(ConstructionError):
            family_balanced_bipartite(2, 1)

    def test_grid_validates(self):
        for t in (3, 4, 5):
            for k in (1, 2, 3):
                g, fam = family_balanced_bipartite(t, k)
                assert len(fam) == t * k == (g.n // 2)
                assert validate_family(g, k, fam) == []


class TestFamilyNearOrder:
    def test_k2_on_k2(self):
        fam = family_near_order(complete(2), 2)
        assert fam == ((2, 1), (1, 2), (1, 1))
        assert [sum(f[v] for f in fam) for v in range(2)] == [4, 4]

    def test_c4_k2(self):
        g = cycle(4)
        fam = family_near_order(g, 2)
        assert len(fam) == 3
        assert validate_family(g, 2, fam) == []
        sums = [sum(f[v] for f in fam) for v in range(4)]
        # distinguished vertices hit capacity, the rest sit one below
        assert sums == [4, 4, 3, 3]

    def test_k5_k3(self):
        g = complete(5)
        fam = family_near_order(g, 3)
        assert len(fam) == 5
        assert validate_family(g, 3, fam) == []
        sums = [sum(f[v] for f in fam) for v in range(5)]
        assert sums == [6, 6, 6, 6, 5]

    def test_refusals(self):
        with pytest.raises(ConstructionError):
            family_near_order(complete(3), 1)
        with pytest.raises(ConstructionError):
            family_near_order(complete(3), 3)  # n < 2k-2

    def test_grid_validates(self):
        for k in (2, 3, 4):
            for g in (complete(2 * k - 2), cycle(max(3, 2 * k - 2)),
                      empty(2 * k), path(2 * k)):
                if g.n < 2 * k - 2:
                    continue
                fam = family_near_order(g, k)
                assert len(fam) == 2 * k - 1
                assert validate_family(g, k, fam) == []


class TestFamilyNontrivial:
    def test_examples(self):
        assert family_nontrivial(complete(2), 2) == (
            (1, 2), (2, 1), (1, 1))
        assert family_nontrivial(path(3), 2) == (
            (1, 2, 2), (2, 1, 1), (1, 1, 1))
        fam = family_nontrivial(complete(2), 3)
        assert [sum(f[v] for f in fam) for v in range(2)] == [4, 4]

    def test_refusals(self):
        with pytest.raises(ConstructionError):
            family_nontrivial(complete(1), 2)
        with pytest.raises(ConstructionError):
            family_nontrivial(complete(3), 1)

    def test_grid_validates(self):
        for k in (2, 3, 4):
            for g in (complete(2), path(3), cycle(5), empty(4)):
                fam = family_nontrivial(g, k)
                assert len(fam) == 3
                assert validate_family(g, k, fam) == []


class TestFamilyKdeltaSharpness:
    def test_k1(self):
        g, fam = family_kdelta_sharpness(1)
        assert g.n == 5
        assert len(fam) == g.min_degree() + 2 == 3
        assert validate_family(g, 1, fam) == []
        apex = 4
        # apex labels across the family: 0 from the f-type function, then 1
        # from each h-type function; total hits capacity 2k = 2.
        assert [f[apex] for f in fam] == [0, 1, 1]
        assert all(sum(f[v] for f in fam) <= 2 for v in range(g.n))

    def test_k2(self):
        g, fam = family_kdelta_sharpness(2)
        assert g.n == 37
        assert len(fam) == g.min_degree() + 4 == 8
        assert validate_family(g, 2, fam) == []
        assert all(sum(f[v] for f in fam) <= 4 for v in range(g.n))

    def test_k1_solver_confirms_equality(self):
        g, fam = family_kdelta_sharpness(1)
        assert d_rk_exact(g, 1).value == len(fam) == 3

    def test_guard_and_override(self):
        with pytest.raises(GuardError):
            family_kdelta_sharpness(3)
        # copy order k^3 + (2k+1)k = 48, so 3*48 + 1 = 145 vertices
        g, fam = family_kdelta_sharpness(3, max_k=3)
        assert g.n == 145
        assert len(fam) == 9 + 6 == g.min_degree() + 6
        assert validate_family(g, 3, fam) == []


class TestFamilyFromBalancedSubgraphs:
    def test_k2_pair(self):
        fam = family_from_balanced_subgraphs(
            complete(2), 1, [([0], [1]), ([1], [0])])
        assert fam == ((0, 2), (2, 0))

    def test_c4_pair(self):
        g = cycle(4)
        fam = family_from_balanced_subgraphs(
            g, 1, [([0, 1], [2, 3]), ([2, 3], [0, 1])])
        assert validate_family(g, 1, fam) == []
        assert all(sum(f[v] for f in fam) == 2 for v in range(4))

    def test_2k_minus_1_case_appends_all_ones(self):
        g = complete(6)
        fam = family_from_balanced_subgraphs(
            g, 2, [([0, 1], [2, 3]), ([2, 3], [4, 5]), ([4, 5], [0, 1])])
        assert len(fam) == 4
        assert fam[-1] == (1,) * 6
        assert validate_family(g, 2, fam) == []
        assert all(sum(f[v] for f in fam) == 4 for v in range(6))

    def test_unbalanced_refusal(self):
        with pytest.raises(ConstructionError, match="subgraph 0"):
            family_from_balanced_subgraphs(
                complete(3), 1, [([0, 1], [2]), ([2], [0])])

    def test_membership_condition_refusal(self):
        with pytest.raises(ConstructionError, match="vertex"):
            family_from_balanced_subgraphs(
                complete(4), 1, [([0], [1]), ([0], [1])])

    def test_low_degree_refusal(self):
        # X vertex with no neighbor in Y
        with pytest.raises(ConstructionError, match="fewer than"):
            family_from_balanced_subgraphs(
                empty(2), 1, [([0], [1]), ([1], [0])])

    def test_wrong_count_refusal(self):
        with pytest.raises(ConstructionError, match="subgraphs"):
            family_from_balanced_subgraphs(complete(2), 1, [([0], [1])] * 3)

    A, B, C = [0, 1, 2], [3, 4, 5], [6, 7, 8]

    @pytest.mark.parametrize("n, k, subgraphs, message", [
        (2, 1, [([0], [2]), ([1], [0])], "subgraph 0: vertex out of range"),
        (2, 1, [([1], [0]), ([0], [0, 1])],
         "subgraph 1: X and Y intersect"),
        (2, 1, [([], []), ([1], [0])], "subgraph 0: X is empty"),
        (6, 2, [([0, 1], [2, 3]), ([2, 3], [4, 5]), ([0, 1], [4, 5])],
         "vertex 0 is in 2 X-sides but 0 Y-sides, counts must balance"),
        # every vertex balances, but (A, B) gives the same member twice
        (9, 3, [(A, B), (B, C), (C, A), (A, B), (B, A)],
         "subgraphs induce duplicate functions"),
    ], ids=["out-of-range", "intersect", "empty-x", "unbalanced-2k-1",
            "duplicate"])
    def test_refusal_messages(self, n, k, subgraphs, message):
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            family_from_balanced_subgraphs(complete(n), k, subgraphs)


def _family_grid():
    """(builder, args) over a grid that reaches every builder's refusals
    next to its members."""
    for k in range(1, 7):
        for n in range(2, 13):
            yield family_complete, (n, k)
    for t in range(3, 7):
        for k in range(1, 5):
            yield family_balanced_bipartite, (t, k)
    for g in [complete(1), complete(2)] + [cycle(n) for n in range(3, 11)]:
        for k in range(1, 6):
            yield family_near_order, (g, k)
            yield family_nontrivial, (g, k)
    for k in (1, 2, 3):
        yield family_kdelta_sharpness, (k, 3)
    A, B, C = [0, 1, 2], [3, 4, 5], [6, 7, 8]
    for g, k, pairs in [
            (complete(2), 1, [([0], [1]), ([1], [0])]),
            (cycle(4), 1, [([0, 1], [2, 3]), ([2, 3], [0, 1])]),
            (complete(6), 2, [([0, 1], [2, 3]), ([2, 3], [4, 5]),
                              ([4, 5], [0, 1])]),
            (complete(6), 2, [([0, 1], [2, 3]), ([2, 3], [4, 5]),
                              ([4, 5], [0, 1]), ([3, 2], [1, 0])]),
            (complete(9), 3, [(A, B), (B, C), (C, A), (A, B), (B, A)])]:
        yield family_from_balanced_subgraphs, (g, k, pairs)


# sha256 over every member, in order, and every refusal of _family_grid,
# recorded before the builders shared one labeling helper.
FAMILY_GRID_PIN = ("2a1127954b42317bbee0d65bd411dc66"
                   "19fed790db6e21f60bbdfab7e597a9ac")


def test_family_grid_pin():
    digest = hashlib.sha256()
    for build, args in _family_grid():
        try:
            out = build(*args)
        except ConstructionError as exc:
            out = f"refused: {exc}"
        if isinstance(out[0], Graph):
            out = out[1]
        args = tuple(encode_graph6(a) if isinstance(a, Graph) else a
                     for a in args)
        digest.update(repr((build.__name__, args, out)).encode())
    assert digest.hexdigest() == FAMILY_GRID_PIN
