"""Bound records, witnesses and complement-sum checks."""

from __future__ import annotations

import functools
import json
from itertools import combinations

import pytest

from conftest import all_graphs, bipartite, complete, cycle, empty, gnp, star
from rkdom import (Graph, GuardError, SolvedValues, check_graph,
                   check_nordhaus_gaddum, complement, d_rk_exact, d_rk_oracle,
                   gamma_kr_exact, report_csv_rows, report_dict, report_json,
                   solve_all, surplus_bipartite_witness, violations)


def _by_id(records):
    return {r.theorem_id: r for r in records}


class TestSolveAll:
    def test_values_and_family_witness(self):
        vals = solve_all(complete(3), 1)
        assert (vals.gamma_k, vals.gamma_kr, vals.d_k, vals.d_rk) == (1, 2, 3, 3)
        assert vals.d_rk_family is not None
        assert len(vals.d_rk_family) == 3

    def test_gamma_kr_read_off_the_pool_matches_the_search(self):
        # solve_all takes gamma_kR from d_rk_exact's lightest weight level,
        # so the enumerator is cross-checked against the branch and bound
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [gnp(n, p, seed) for n in (6, 7, 8)
                   for p in (0.2, 0.35, 0.5, 0.65, 0.8) for seed in (1, 2)]
        for g in graphs:
            for k in (1, 2, 3):
                assert solve_all(g, k).gamma_kr == \
                    gamma_kr_exact(g, k).value, (g.label, k)


class TestCheckGraph:
    def test_k3_product_equality(self):
        g = complete(3)
        recs = _by_id(check_graph(g, 1, solve_all(g, 1)))
        gammast = recs["gammast"]
        assert (gammast.lhs, gammast.rhs) == (6, 6)
        assert gammast.holds and gammast.equality
        assert recs["gammast-eq"].applicable and recs["gammast-eq"].holds

    def test_k5_sum_equality_branch(self):
        g = complete(5)
        recs = _by_id(check_graph(g, 1, solve_all(g, 1)))
        c1 = recs["c1"]
        assert (c1.lhs, c1.rhs) == (7, 7) and c1.holds and c1.equality
        eq = recs["c1-eq"]
        assert eq.applicable and eq.holds and (eq.lhs, eq.rhs) == (1, 1)

    def test_empty_graph_sv_biconditional(self):
        g = empty(4)
        recs = _by_id(check_graph(g, 1, solve_all(g, 1)))
        sv = recs["SV"]
        assert sv.applicable and sv.holds and (sv.lhs, sv.rhs) == (1, 1)

    def test_1dn_biconditional_both_directions(self):
        complete_recs = _by_id(check_graph(complete(4), 1,
                                           solve_all(complete(4), 1)))
        assert complete_recs["1d=n"].holds
        c5 = cycle(5)
        cycle_recs = _by_id(check_graph(c5, 1, solve_all(c5, 1)))
        assert cycle_recs["1d=n"].holds
        assert cycle_recs["1d=n"].lhs == 0 and cycle_recs["1d=n"].rhs == 0

    def test_mapping_record(self):
        g = empty(2)
        recs = _by_id(check_graph(g, 4, solve_all(g, 4)))
        assert recs["mapping"].applicable
        assert recs["mapping"].holds and recs["mapping"].lhs == 4

    def test_obs_family(self):
        g = empty(4)
        recs = _by_id(check_graph(g, 2, solve_all(g, 2)))
        assert recs["obs"].applicable and recs["obs"].holds
        assert recs["obs2"].applicable and recs["obs2"].holds
        cor = recs["obs2-cor"]
        assert cor.applicable and cor.holds and cor.lhs == 3

    def test_kpq_record_uses_tightest_case(self):
        g = bipartite(3, 3)
        recs = _by_id(check_graph(g, 1, solve_all(g, 1)))
        kpq = recs["Kpq"]
        assert kpq.applicable and (kpq.lhs, kpq.rhs) == (3, 3)
        non_bip = _by_id(check_graph(cycle(5), 1, solve_all(cycle(5), 1)))
        assert not non_bip["Kpq"].applicable

    def test_all_hold_on_small_corpus(self):
        for n in (1, 2, 3):
            for g in all_graphs(n):
                for k in (1, 2, 3):
                    recs = check_graph(g, k, solve_all(g, k))
                    assert violations(recs) == []

    def test_inapplicable_records_flagged(self):
        g = cycle(5)  # not regular? it is regular; use star for reg check
        recs = _by_id(check_graph(star(3), 1, solve_all(star(3), 1)))
        assert not recs["reg"].applicable
        assert not recs["mapping"].applicable
        assert not recs["obs2"].applicable

    def test_v0_sees_a_level_below_its_floor(self, monkeypatch):
        # d_rk_exact opens its first enumerator window at 0, so a broken
        # walk that returns a level lighter than min(n, 2k) shows in
        # gamma_kR and fails V0; a window opened at min(n, 2k) hid it
        import rkdom.domatic
        real = rkdom.domatic.enumerate_rkdfs

        def lighter(g, k, lo, hi, *args):
            res = real(g, k, lo, hi, *args)
            if lo <= 2:     # prepend (2, 0, ..., 0), weight 2
                return res._replace(keys=[2 << 8 * (g.n - 1)] + res.keys)
            return res

        monkeypatch.setattr(rkdom.domatic, "enumerate_rkdfs", lighter)
        g = cycle(6)
        vals = solve_all(g, 2)
        assert vals.gamma_kr == 2
        v0 = _by_id(check_graph(g, 2, vals))["V0"]
        assert (v0.lhs, v0.rhs, v0.holds) == (4, 2, False)


class TestSurplusWitness:
    def test_k3_witness_is_lex_least(self):
        w = surplus_bipartite_witness(complete(3), 1)
        assert w is not None
        assert w.Y == (0,) and w.X == (1, 2)

    def test_empty_graph_has_none(self):
        for k in (1, 2):
            assert surplus_bipartite_witness(empty(5), k) is None

    def test_c4_k2_none_matches_gamma(self):
        # gamma_2R(C_4) = 4 = n, so no witness may exist
        assert surplus_bipartite_witness(cycle(4), 2) is None

    def test_witness_shape_is_legal(self):
        for seed in range(5):
            g = gnp(6, 0.5, seed)
            for k in (1, 2):
                w = surplus_bipartite_witness(g, k)
                if w is None:
                    continue
                assert len(w.X) > len(w.Y) >= k
                assert not set(w.X) & set(w.Y)
                ymask = 0
                for v in w.Y:
                    ymask |= 1 << v
                assert all((g.adj[v] & ymask).bit_count() >= k for v in w.X)

    def test_biconditional_small_exhaustive(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                for k in (1, 2):
                    gkr = gamma_kr_exact(g, k).value
                    witness = surplus_bipartite_witness(g, k)
                    assert (gkr < g.n) == (witness is not None), (g.label, k)

    def test_matches_brute_force(self):
        def brute(g, k):
            # Y in sorted-tuple order; X is the first |Y| + 1 eligible
            # vertices, those outside Y with k neighbours in it
            ys = sorted(y for r in range(1, g.n + 1)
                        for y in combinations(range(g.n), r))
            for y in ys:
                if len(y) < k:
                    continue
                eligible = [v for v in range(g.n) if v not in y and
                            sum(g.adj[v] >> u & 1 for u in y) >= k]
                if len(eligible) > len(y):
                    return y, tuple(eligible[:len(y) + 1])
            return None

        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [gnp(n, p, seed) for n in (6, 7) for p in (0.3, 0.6)
                   for seed in (1, 2)]
        for g in graphs:
            for k in (1, 2, 3):
                w = surplus_bipartite_witness(g, k)
                got = None if w is None else (w.Y, w.X)
                assert got == brute(g, k), (g.label, k)

    def test_guard(self):
        # the witness scan's limit is fixed: no max_n lifts it
        with pytest.raises(GuardError,
                           match="^witness search guard is n <= 10, got 11$"):
            surplus_bipartite_witness(empty(11), 1)


class TestNordhausGaddum:
    def test_c5_self_complementary_sum(self):
        g = cycle(5)
        recs = _by_id(check_nordhaus_gaddum(g, 1, solve_all(g, 1)))
        expected = 2 * d_rk_oracle(cycle(5), 1)
        assert recs["knord"].lhs == expected == 4
        assert recs["knord"].holds
        assert recs["knord-k1"].applicable and recs["knord-k1"].holds

    def test_k4_regular_bound_arithmetic(self):
        g = complete(4)
        recs = _by_id(check_nordhaus_gaddum(g, 2, solve_all(g, 2)))
        reg = recs["regnord"]
        assert reg.applicable
        # n=4, delta=3, k=2: max(6, 7, 5, 8) = 8
        assert reg.rhs == 8 and reg.holds
        fc = recs["final-cor"]
        assert fc.applicable and fc.rhs == 4 + 8 - 4 and fc.holds

    def test_trivial_graph(self):
        g = complete(1)
        recs = _by_id(check_nordhaus_gaddum(g, 1, solve_all(g, 1)))
        assert recs["knord"].lhs == 2 and recs["knord"].rhs == 3
        assert recs["knord"].holds and not recs["knord"].equality
        assert not recs["knord-eq"].applicable

    def test_equality_necessary_condition_on_corpus(self):
        for n in (2, 3, 4):
            for g in all_graphs(n):
                for k in (1, 2):
                    recs = check_nordhaus_gaddum(g, k, solve_all(g, k))
                    assert violations(recs) == [], (g.label, k)

    def test_guard_propagates(self):
        # G fits a raised guard; its complement K_9 hits the default one
        g = empty(9)
        vals = solve_all(g, 1, max_n=9)
        with pytest.raises(GuardError):
            check_nordhaus_gaddum(g, 1, vals)

    def test_graph_solved_once(self, monkeypatch):
        import rkdom.bounds
        from rkdom import cli
        solved = []
        real = rkdom.bounds.d_rk_exact

        def counting(g, k, **kw):
            solved.append(g.adj)
            return real(g, k, **kw)

        monkeypatch.setattr(rkdom.bounds, "d_rk_exact", counting)
        cli._verify_records(cycle(6), 2, None, True)
        assert len(solved) == 2 and solved[0] != solved[1]


class TestReports:
    def test_report_dict_schema(self):
        g = complete(3)
        vals = solve_all(g, 1)
        rep = report_dict(g, 1, vals, check_graph(g, 1, vals))
        assert rep["schema"] == "1"
        assert rep["graph"]["graph6"] == "Bw"
        assert rep["graph"]["regular"] is True
        assert rep["values"] == {"gamma_k": 1, "gamma_kr": 2,
                                 "d_k": 3, "d_rk": 3}
        ids = [r["theorem_id"] for r in rep["records"]]
        assert ids == sorted(ids)
        assert {"theorem_id", "applicable", "lhs", "rhs", "holds",
                "equality", "notes"} == set(rep["records"][0])

    def test_csv_rows_align_with_records(self):
        g = cycle(4)
        vals = solve_all(g, 1)
        records = check_graph(g, 1, vals)
        rows = report_csv_rows(g, 1, vals, records)
        assert len(rows) == len(records)
        assert all(len(row) == 18 for row in rows)
        assert rows[0][11] == records[0].theorem_id


ALL_THEOREM_IDS = {
    "eq1-lo", "eq1-hi", "eq23", "V0", "V1", "Delta", "gammast",
    "gammast-eq", "Th2", "c1", "c1-eq", "kdelta", "reg", "Delta1", "cor1-lo",
    "cor1-hi", "obs", "obs2", "obs2-cor", "mapping", "SV", "1d=n", "Kpq",
    "knord", "knord-eq", "knord-k1", "regnord", "final-cor"}

# Every fixed notes text check_graph and check_nordhaus_gaddum can emit;
# the Kpq case lists are checked separately.
ALL_FIXED_NOTES = {
    "", "floor 1 at k=1, floor 2 once k >= 2",
    "n <= 2k forces gamma_kr = n", "n >= 2k+1 forces gamma_kr >= 2k",
    "ceil(2nk/(Delta+k)) <= gamma_kr", "needs Delta >= k",
    "optimal family re-validated: uniform weight and full capacity",
    "product equality not attained", "no family witness supplied",
    "needs n >= 2", "biconditional as 0/1 indicators", "graph not regular",
    "cross-multiplied rational bound", "needs k >= Delta+1",
    "needs k >= 2, n >= 2k-2", "needs k >= 2, n >= 2k-2, k >= Delta+1",
    "needs k >= 2^n", "stated for k = 1 only",
    "biconditional as 0/1 indicators; consistent reading d_rk(K_n) = n "
    "adopted over the superseded transcription d_rk(K_n) = 1",
    "stated for k = 1 and n >= 2 only", "graph is not complete bipartite",
    "gamma_kr = n and d_rk = 2k exclude a surplus witness",
    "hypotheses gamma_kr = n, d_rk = 2k not met",
    "witness search guard is n <= 10",
    "equality requires Delta - delta = 1", "sum below the ceiling",
    "needs a regular graph, k >= 2 and n >= 2"}

KPQ_CASES = {"p<k or p=q=k", "k<=p<=3k", "p>=3k"}


@functools.cache
def _report_corpus() -> tuple:
    """(graph, k, values, records) reports over every theorem id and note."""
    corpus = []

    def add(g, k, vals=None, nordhaus=True):
        vals = vals or solve_all(g, k)
        records = check_graph(g, k, vals)
        corpus.append((g, k, vals, records))
        if nordhaus:
            corpus.append((g, k, vals,
                           records + check_nordhaus_gaddum(g, k, vals)))

    for n in range(1, 5):
        for g in all_graphs(n):
            for k in range(1, 5):
                add(g, k)
    for n in range(2, 7):
        add(complete(n), 1)
    for p in range(1, 5):
        for q in range(p, 9 - p):
            for k in range(1, 4):
                add(bipartite(p, q), k)
    # product equality with a family that fails re-validation, and with
    # no family at all
    g = complete(3)
    bad = solve_all(g, 1).d_rk_family[:2] + ((0, 0, 0),)
    add(g, 1, SolvedValues(1, 2, 3, 3, bad))
    add(g, 1, SolvedValues(1, 2, 3, 3))
    # no graph with n <= 5 reaches the knord ceiling n + 4k - 2; at k = 1
    # pick d_rk(G) so that the sum with the solved complement does
    drk_co = d_rk_exact(complement(g), 1).value
    add(g, 1, SolvedValues(1, 2, 3, g.n + 2 - drk_co))
    # above the witness-search guard; the values only feed the records
    add(cycle(11), 1, SolvedValues(4, 8, 3, 3), nordhaus=False)
    for label in ('say "K_3"', "back\\slash", "caf\u00e9 \U0001d53e",
                  "tab\tnew\nline\x7f"):
        g = Graph(3, [(0, 1), (1, 2)], label=label)
        add(g, 2)
    return tuple(corpus)


class TestReportJson:
    def test_corpus_covers_every_id_and_note(self):
        records = [r for *_, recs in _report_corpus() for r in recs]
        assert {r.theorem_id for r in records} == ALL_THEOREM_IDS
        notes = {r.notes for r in records}
        assert ALL_FIXED_NOTES <= notes
        kpq = {r.notes for r in records
               if r.theorem_id == "Kpq" and r.notes.startswith("cases: ")}
        assert {case for note in kpq
                for case in note[len("cases: "):].split(", ")} == KPQ_CASES
        assert notes - ALL_FIXED_NOTES == kpq

    def test_records_come_in_theorem_id_order(self):
        # reports print records as built: the 23 per-graph records, then
        # the 5 complement-sum ones, each part in theorem_id order
        for *_, records in _report_corpus():
            assert len(records) in (23, 28)
            for part in (records[:23], records[23:]):
                ids = [r.theorem_id for r in part]
                assert ids == sorted(ids)

    def test_equals_json_dumps_indent_2(self):
        for g, k, vals, records in _report_corpus():
            expected = json.dumps(report_dict(g, k, vals, records), indent=2)
            assert report_json(g, k, vals, records) == expected, (g.label, k)

    def test_equals_json_dumps_after_the_record_cache_overflows(self):
        # render the corpus, then make more than maxsize misses with
        # other graphs' records, so that corpus records are evicted from
        # the bounded record-text cache and rendered anew
        from rkdom.bounds import _record_json
        corpus = _report_corpus()
        for g, k, vals, records in corpus:
            report_json(g, k, vals, records)
        info = _record_json.cache_info()
        for i in range(info.maxsize):
            if _record_json.cache_info().misses > info.misses + info.maxsize:
                break
            g = gnp(7 + i % 3, 0.5, 3000 + i)
            vals = SolvedValues(50 + i, 60 + i, 70 + i, 80 + i)
            report_json(g, 1, vals, check_graph(g, 1, vals))
        after = _record_json.cache_info()
        assert after.misses > info.misses + info.maxsize
        assert after.currsize == info.maxsize
        for g, k, vals, records in corpus:
            expected = json.dumps(report_dict(g, k, vals, records), indent=2)
            assert report_json(g, k, vals, records) == expected, (g.label, k)

    def test_no_records(self):
        g = complete(3)
        vals = solve_all(g, 1)
        assert report_json(g, 1, vals, []) == \
            json.dumps(report_dict(g, 1, vals, []), indent=2)

    def test_record_fields_have_exact_json_types(self):
        # report_json renders flags through a bool table and lhs/rhs with
        # %d, which match json.dumps only for exact bools and plain ints
        for *_, records in _report_corpus():
            for r in records:
                assert type(r.applicable) is bool, r
                assert type(r.holds) is bool, r
                assert type(r.equality) is bool, r
                assert type(r.lhs) is int and type(r.rhs) is int, r
