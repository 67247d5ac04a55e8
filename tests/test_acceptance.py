"""Acceptance gate: exact-value reproduction and property sweeps.

Each test covers one criterion at tolerance zero and prints a single
PASS/FAIL line; the whole module is expected to stay within minutes.
"""

from __future__ import annotations

from pathlib import Path

from conftest import all_graphs, bipartite, complete, cycle, empty, gnp, star
from rkdom import (FamilySpec, check_graph, check_nordhaus_gaddum,
                   closed_form_gamma_kr, d_rk_exact, d_rk_oracle,
                   family_balanced_bipartite, family_complete,
                   family_from_balanced_subgraphs, family_kdelta_sharpness,
                   family_near_order, family_nontrivial, gamma_kr_exact,
                   gamma_kr_oracle, generate, solve_all, validate_family,
                   violations)
from rkdom.cli import main

PROBS = (0.2, 0.35, 0.5, 0.65, 0.8)


def _report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"ACCEPTANCE {criterion}: {status}")
    for item in failures[:10]:
        print(f"  - {item}")
    assert not failures, f"{criterion}: {failures[:10]}"


def _gamma_random_instances():
    for i in range(50):
        n = 5 + (i % 4)
        yield gnp(n, PROBS[i % 5], 1000 + i), (i % 3) + 1


def _drk_random_instances():
    for i in range(25):
        n = 5 + (i % 2)
        yield gnp(n, PROBS[i % 5], 2000 + i), (i % 2) + 1


def test_criterion_1_closed_form_reproduction():
    failures = []

    for n in range(1, 9):
        for k in (1, 2, 3):
            got = gamma_kr_exact(complete(n), k).value
            want = min(n, 2 * k)
            if got != want:
                failures.append(f"gamma_kr(K_{n}, k={k}) = {got}, want {want}")

    for k in (1, 2, 3):
        for n in range(2 * k, 7):
            got = d_rk_exact(complete(n), k).value
            if got != n:
                failures.append(f"d_rk(K_{n}, k={k}) = {got}, want {n}")
    for k in (2, 3):
        for n in (2 * k - 2, 2 * k - 1):
            if n <= 6:
                got = d_rk_exact(complete(n), k).value
                if got != 2 * k - 1:
                    failures.append(
                        f"d_rk(K_{n}, k={k}) = {got}, want {2 * k - 1}")

    for p in range(1, 6):
        for q in range(p, 6):
            for k in (1, 2, 3):
                spec = FamilySpec("complete-bipartite", p=p, q=q)
                want = closed_form_gamma_kr(spec, k)
                got = gamma_kr_exact(generate(spec), k).value
                if got != want:
                    failures.append(
                        f"gamma_kr(K_{{{p},{q}}}, k={k}) = {got}, want {want}")

    got = d_rk_exact(bipartite(3, 3), 1).value
    if got != 3:
        failures.append(f"d_rk(K_{{3,3}}, k=1) = {got}, want 3")

    got = d_rk_exact(empty(2), 4).value
    if got != 4:
        failures.append(f"d_rk(empty_2, k=4) = {got}, want 4")

    _report("criterion-1 closed-form reproduction", failures)


def test_criterion_2_construction_validity():
    failures = []

    def check(label, g, k, fam):
        problems = validate_family(g, k, fam)
        if problems:
            failures.append(f"{label}: {problems[0].detail}")

    for k in (1, 2, 3, 4):
        for n in range(2 * k, 11):
            check(f"complete(n={n},k={k})", complete(n), k,
                  family_complete(n, k)[1])
    for t in (3, 4, 5):
        for k in (1, 2, 3):
            g, fam = family_balanced_bipartite(t, k)
            check(f"balanced-bipartite(t={t},k={k})", g, k, fam)
    for k in (2, 3, 4):
        for g in (complete(max(2, 2 * k - 2)), cycle(max(3, 2 * k - 2)),
                  empty(2 * k), bipartite(2, max(2, 2 * k - 4))):
            if g.n >= 2 * k - 2:
                check(f"near-order({g.label},k={k})", g, k,
                      family_near_order(g, k))
    for k in (2, 3, 4):
        for g in (complete(2), cycle(4), empty(5)):
            check(f"nontrivial({g.label},k={k})", g, k,
                  family_nontrivial(g, k))
    check("from-subgraphs(K_2,k=1)", complete(2), 1,
          family_from_balanced_subgraphs(complete(2), 1,
                                         [([0], [1]), ([1], [0])]))
    check("from-subgraphs(K_6,k=2)", complete(6), 2,
          family_from_balanced_subgraphs(
              complete(6), 2,
              [([0, 1], [2, 3]), ([2, 3], [4, 5]), ([4, 5], [0, 1])]))

    for k in (1, 2):
        g, fam = family_kdelta_sharpness(k)
        check(f"kdelta-sharpness(k={k})", g, k, fam)
        want = g.min_degree() + 2 * k
        if len(fam) != want:
            failures.append(f"kdelta-sharpness(k={k}) has {len(fam)} "
                            f"functions, want {want}")
    g1, fam1 = family_kdelta_sharpness(1)
    confirmed = d_rk_exact(g1, 1).value
    if confirmed != len(fam1):
        failures.append(f"solver says d_rk = {confirmed} on the 5-vertex "
                        f"sharpness graph, construction has {len(fam1)}")

    _report("criterion-2 construction validity", failures)


def test_criterion_3_oracle_equivalence():
    failures = []

    for g in all_graphs(4):
        for k in (1, 2, 3):
            exact = gamma_kr_exact(g, k).value
            oracle = gamma_kr_oracle(g, k)
            if exact != oracle:
                failures.append(
                    f"gamma_kr {g.label} k={k}: exact {exact} != oracle {oracle}")
    for g, k in _gamma_random_instances():
        exact = gamma_kr_exact(g, k).value
        oracle = gamma_kr_oracle(g, k)
        if exact != oracle:
            failures.append(
                f"gamma_kr {g.label} k={k}: exact {exact} != oracle {oracle}")

    for g in all_graphs(4):
        for k in (1, 2):
            exact = d_rk_exact(g, k).value
            oracle = d_rk_oracle(g, k)
            if exact != oracle:
                failures.append(
                    f"d_rk {g.label} k={k}: exact {exact} != oracle {oracle}")
    for g, k in _drk_random_instances():
        exact = d_rk_exact(g, k).value
        oracle = d_rk_oracle(g, k)
        if exact != oracle:
            failures.append(
                f"d_rk {g.label} k={k}: exact {exact} != oracle {oracle}")

    _report("criterion-3 oracle equivalence", failures)


def _sweep_corpus():
    for g in all_graphs(4):
        for k in (1, 2, 3):
            yield g, k
    yield from _gamma_random_instances()
    yield from _drk_random_instances()
    named = [cycle(n) for n in range(3, 9)]
    named += [star(q) for q in range(2, 8)]
    named += [bipartite(p, q) for p in range(1, 5) for q in range(p, 5)]
    for g in named:
        for k in (1, 2, 3):
            yield g, k


def test_criterion_4_theorem_sweep():
    failures = []
    instances = 0
    applicable = 0
    for g, k in _sweep_corpus():
        instances += 1
        vals = solve_all(g, k)
        records = check_graph(g, k, vals)
        records += check_nordhaus_gaddum(g, k, vals)
        applicable += sum(1 for r in records if r.applicable)
        for r in violations(records):
            failures.append(f"{g.label} k={k} {r.theorem_id}: "
                            f"lhs={r.lhs} rhs={r.rhs}")
    print(f"  swept {instances} instances, {applicable} applicable records")
    _report("criterion-4 theorem sweep", failures)


def test_criterion_5_determinism(capsys):
    failures = []

    argv = ["sweep", "--n-max", "6", "--k-max", "2", "--count", "8",
            "--seed", "42", "--exhaustive-upto", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    if first != second:
        failures.append("sweep --seed 42 output differs between runs")

    for g, k in [(cycle(6), 1), (gnp(7, 0.5, 77), 2), (bipartite(3, 4), 2)]:
        a = solve_all(g, k)
        b = solve_all(g, k)
        if (a.gamma_k, a.gamma_kr, a.d_k, a.d_rk) != \
           (b.gamma_k, b.gamma_kr, b.d_k, b.d_rk):
            failures.append(f"values differ between runs on {g.label} k={k}")
        if a.d_rk_family != b.d_rk_family:
            failures.append(f"witness differs between runs on {g.label} k={k}")

    with capsys.disabled():
        _report("criterion-5 determinism", failures)


def test_criterion_6_limits_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    failures = []
    if "k >= 3" not in text and "k ≥ 3" not in text:
        failures.append("README does not document the k >= 3 sharpness limit")
    _report("criterion-6 limits documented", failures)
