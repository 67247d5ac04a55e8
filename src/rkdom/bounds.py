"""Inequality and characterization checks over exactly solved values.

Every known bound relating gamma_k, gamma_kR, d_k and d_R^k is evaluated
as one BoundRecord.  Unless a record's notes say otherwise, holds is the
literal truth of lhs <= rhs; equality/biconditional checks use lhs == rhs
(0/1 indicators for biconditionals).  Records whose hypotheses fail carry
applicable=False and are never counted as violations.  All arithmetic is
exact integer arithmetic; rational bounds are cross-multiplied or floored.
"""

from __future__ import annotations

import functools
import json
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .domatic import Family, d_k_exact, d_rk_exact, validate_family
from .graphs import Graph, check_k, check_order, complement, \
    complete_bipartite_parts, encode_graph6, vertex_mask
from .oracles import gamma_k_oracle
from .roman import weight

DEFAULT_WITNESS_LIMIT = 10


class BoundRecord(NamedTuple):
    theorem_id: str
    applicable: bool
    lhs: int
    rhs: int
    holds: bool
    equality: bool
    notes: str = ""


class BipartiteWitness(NamedTuple):
    """Disjoint vertex sets with |X| > |Y| >= k and every X vertex having
    at least k neighbors in Y; certifies gamma_kr < n."""

    X: tuple[int, ...]
    Y: tuple[int, ...]


class SolvedValues(NamedTuple):
    """Exactly solved quantities for one (graph, k) pair.

    d_rk_family optionally carries an optimal family so equality clauses
    can be re-validated (solve_all's comes from the walk-order search).
    """

    gamma_k: int
    gamma_kr: int
    d_k: int
    d_rk: int
    d_rk_family: Family | None = None


def solve_all(g: Graph, k: int, max_n: int | None = None) -> SolvedValues:
    """Solve all four quantities exactly on one (graph, k) pair.

    d_R^k and d_k come from their exact solvers.  gamma_kR is not
    searched for separately: it is the weight of the lightest RkDF,
    which d_rk_exact reads off the first weight level of its pool.  max_n
    raises or lowers every solver's n guard at once (the CLI's MAX_N
    knob); None keeps each solver's own limit.  d_rk_exact runs first,
    so a graph above its guard is refused with its message.

    Only gamma_k's value is read, never its witness, so it comes from
    gamma_k_oracle, the scan over supports by size, which runs no witness
    pass as gamma_k_exact does.  Its guard (n <= 10) is above
    d_rk_exact's (n <= 8) and follows max_n like every other, so it
    refuses no graph d_rk_exact has let through.

    d_R^k is searched in the enumerator's walk order (by_key=False), so
    d_rk_family is an optimal family but not the documented (weight,
    values)-first witness that `compute` prints.  Its one reader, the
    gammast-eq record, holds for any optimal family: when gamma_kR *
    d_R^k = 2kn, d members of weight at least gamma_kR sum to at most
    2kn, so each weighs exactly gamma_kR and every capacity is full.
    """
    drk = d_rk_exact(g, k, by_key=False, max_n=max_n)
    return SolvedValues(gamma_k=gamma_k_oracle(g, k, max_n=max_n),
                        gamma_kr=drk.gamma_kr, d_rk=drk.value,
                        d_k=d_k_exact(g, k, max_n=max_n).value,
                        d_rk_family=drk.witness)


@functools.cache
def _witness_sides(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every subset Y of range(n) that can be a witness's Y, k <= |Y| and
    2|Y| + 1 <= n, as (sorted index tuple, vertex mask), in lexicographic
    order of the tuples; built once per (n, k) with 2k + 1 <= n."""
    return tuple((y, vertex_mask(y)) for y in sorted(
        combo for size in range(k, (n - 1) // 2 + 1)
        for combo in combinations(range(n), size)))


def surplus_bipartite_witness(g: Graph, k: int) -> BipartiteWitness | None:
    """Search for disjoint X, Y with |X| > |Y| >= k and every X vertex
    having >= k neighbors in Y.

    Returns the lexicographically least (Y, X) pair (subsets ordered as
    sorted index tuples), or None when no pair exists.  Such a witness
    exists exactly when gamma_kr(g) < n.
    """
    check_k(k)
    n = g.n
    check_order("witness search", n, None, DEFAULT_WITNESS_LIMIT)
    if 2 * k + 1 > n:   # no Y fits; also keeps the cache bounded
        return None
    adj = g.adj
    for y, ymask in _witness_sides(n, k):
        pool = [v for v in range(n)
                if not ymask >> v & 1
                and (adj[v] & ymask).bit_count() >= k]
        if len(pool) > len(y):
            return BipartiteWitness(X=tuple(pool[:len(y) + 1]), Y=y)
    return None


def _rec(theorem_id: str, applicable: bool, lhs: int, rhs: int,
         relation: str = "<=", notes: str = "",
         needs: str = "") -> BoundRecord:
    """One record; needs, the unmet hypothesis, is the notes of a record
    that does not apply."""
    holds = lhs <= rhs if relation == "<=" else lhs == rhs
    # the tuple BoundRecord(...) builds, minus its Python-level __new__
    return tuple.__new__(BoundRecord, (theorem_id, applicable, lhs, rhs,
                                       holds, lhs == rhs,
                                       notes if applicable else needs))


_BICONDITIONAL = "biconditional as 0/1 indicators"


def check_graph(g: Graph, k: int, vals: SolvedValues) -> list[BoundRecord]:
    """Evaluate every per-graph bound for one solved (graph, k) pair.

    Returns records in theorem_id order, the order reports print them;
    complement-sum bounds live in check_nordhaus_gaddum.
    """
    check_k(k)
    n = g.n
    delta, Delta = g.min_degree(), g.max_degree()
    gk, gkr, dk, drk = vals.gamma_k, vals.gamma_kr, vals.d_k, vals.d_rk

    complete = g.is_complete()
    notes_1dn = _BICONDITIONAL
    if complete:
        notes_1dn += ("; consistent reading d_rk(K_n) = n adopted over the "
                      "superseded transcription d_rk(K_n) = 1")

    parts = complete_bipartite_parts(g)
    if parts is None:
        kpq = BoundRecord("Kpq", False, drk, 0, True, False,
                          "graph is not complete bipartite")
    else:
        p, q = parts
        cases = []
        if p < k or p == q == k:
            cases.append(("p<k or p=q=k", 2 * k))
        if p + q >= 2 * k + 1 and k <= p <= 3 * k:
            cases.append(("k<=p<=3k", 2 * k * (p + q) // (k + p)))
        if p >= 3 * k:
            cases.append(("p>=3k", (p + q) // 2))
        kpq = _rec("Kpq", True, drk, min(b for _, b in cases),
                   notes="cases: " + ", ".join(c for c, _ in cases))

    if n <= DEFAULT_WITNESS_LIMIT:
        witness = surplus_bipartite_witness(g, k)
        th2 = _rec("Th2", n >= 2 and gkr == n and drk == 2 * k,
                   int(witness is None), 1, relation="==",
                   notes="gamma_kr = n and d_rk = 2k exclude a surplus "
                         "witness",
                   needs="hypotheses gamma_kr = n, d_rk = 2k not met")
        v1 = _rec("V1", True, int(gkr < n), int(witness is not None),
                  relation="==", notes=_BICONDITIONAL)
    else:
        guard = f"witness search guard is n <= {DEFAULT_WITNESS_LIMIT}"
        th2, v1 = (BoundRecord(theorem_id, False, 0, 0, True, True, guard)
                   for theorem_id in ("Th2", "V1"))

    if n <= 2 * k:
        v0 = _rec("V0", True, gkr, n, relation="==",
                  notes="n <= 2k forces gamma_kr = n")
    else:
        v0 = _rec("V0", True, 2 * k, gkr,
                  notes="n >= 2k+1 forces gamma_kr >= 2k")

    sum_eq = gkr + drk == n + 2 * k
    split_eq = (gkr == n and drk == 2 * k) or (gkr == 2 * k and drk == n)

    gammast_eq = gkr * drk == 2 * k * n
    if gammast_eq and vals.d_rk_family is not None:
        fam = vals.d_rk_family
        ok = (not validate_family(g, k, fam)
              and all(weight(f) == gkr for f in fam)
              and all(sum(f[v] for f in fam) == 2 * k for v in range(n)))
        gammast_rec = BoundRecord(
            "gammast-eq", True, int(ok), 1, ok, ok,
            "optimal family re-validated: uniform weight and full capacity")
    else:
        gammast_rec = BoundRecord(
            "gammast-eq", False, 0, 1, True, False,
            "product equality not attained" if not gammast_eq
            else "no family witness supplied")

    ceil_bound = -(-2 * n * k // (Delta + k)) if Delta >= k else 0
    obs2_app = k >= 2 and n >= 2 * k - 2
    return [    # in theorem_id order
        _rec("1d=n", k == 1 and n >= 2, int(drk == n), int(complete),
             relation="==", notes=notes_1dn,
             needs="stated for k = 1 and n >= 2 only"),
        _rec("Delta", Delta >= k, ceil_bound, gkr,
             notes="ceil(2nk/(Delta+k)) <= gamma_kr",
             needs="needs Delta >= k"),
        _rec("Delta1", True, drk, max(Delta, k - 1) + k),
        kpq,
        _rec("SV", k == 1, int(drk == 1), int(g.is_empty()), relation="==",
             notes=_BICONDITIONAL, needs="stated for k = 1 only"),
        th2,
        v0,
        v1,
        _rec("c1", n >= 2, gkr + drk, n + 2 * k, needs="needs n >= 2"),
        # the one record that keeps its notes when it does not apply
        _rec("c1-eq", n >= 2, int(sum_eq), int(split_eq), relation="==",
             notes=_BICONDITIONAL, needs=_BICONDITIONAL),
        _rec("cor1-hi", True, drk * min(n, gk + k), 2 * k * n,
             notes="cross-multiplied rational bound"),
        _rec("cor1-lo", True, dk, drk),
        _rec("eq1-hi", True, gkr, 2 * gk),
        _rec("eq1-lo", True, gk, gkr),
        _rec("eq23", True, 1 if k == 1 else 2, drk,
             notes="floor 1 at k=1, floor 2 once k >= 2"),
        _rec("gammast", True, gkr * drk, 2 * k * n),
        gammast_rec,
        _rec("kdelta", True, drk, delta + 2 * k),
        _rec("mapping", k >= 2 ** n, drk, 2 ** n, relation="==",
             needs="needs k >= 2^n"),
        _rec("obs", k >= Delta + 1, drk, 2 * k - 1,
             needs="needs k >= Delta+1"),
        _rec("obs2", obs2_app, 2 * k - 1, drk,
             needs="needs k >= 2, n >= 2k-2"),
        _rec("obs2-cor", obs2_app and k >= Delta + 1, drk, 2 * k - 1,
             relation="==", needs="needs k >= 2, n >= 2k-2, k >= Delta+1"),
        _rec("reg", delta == Delta, drk, max(2 * k - 1, delta + k),
             needs="graph not regular"),
    ]


def check_nordhaus_gaddum(g: Graph, k: int,
                          vals: SolvedValues,
                          max_n: int | None = None) -> list[BoundRecord]:
    """Complement-sum bounds for one solved (graph, k) pair, in
    theorem_id order.

    d_rk of the graph comes from vals; d_rk is solved only on the
    complement, which must fit the d_rk guards (GuardError otherwise).
    Only its value is read, so it is searched in the enumerator's walk
    order (by_key=False), which finds a largest family sooner.
    """
    check_k(k)
    n = g.n
    delta, Delta = g.min_degree(), g.max_degree()
    drk_co = d_rk_exact(complement(g), k, by_key=False, max_n=max_n).value
    total = vals.d_rk + drk_co
    regular = delta == Delta
    return [
        _rec("final-cor", regular and k >= 2 and n >= 2, total, n + 4 * k - 4,
             needs="needs a regular graph, k >= 2 and n >= 2"),
        _rec("knord", True, total, n + 4 * k - 2),
        _rec("knord-eq", total == n + 4 * k - 2, Delta - delta, 1,
             relation="==", notes="equality requires Delta - delta = 1",
             needs="sum below the ceiling"),
        _rec("knord-k1", k == 1, total, n + 2,
             needs="stated for k = 1 only"),
        _rec("regnord", regular, total,
             max(4 * k - 2, n + 2 * k - 1, n + 3 * k - 2 - delta,
                 3 * k + delta - 1), needs="graph not regular"),
    ]


def violations(records: list[BoundRecord]) -> list[BoundRecord]:
    """Applicable records that do not hold (always empty on sound solvers)."""
    return [r for r in records if r.applicable and not r.holds]


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

GRAPH_FIELDS = ("name", "graph6", "n", "delta", "Delta", "regular")
VALUE_FIELDS = SolvedValues._fields[:4]
CSV_COLUMNS = [*GRAPH_FIELDS, "k", *VALUE_FIELDS, *BoundRecord._fields]


def graph_fields(g: Graph) -> tuple:
    """The GRAPH_FIELDS of g, in that order."""
    return (g.label or "", encode_graph6(g), g.n, g.min_degree(),
            g.max_degree(), g.is_regular())


def _report(graph, k, values, records) -> dict:
    """The report schema: its keys, nesting and order."""
    return {"schema": "1", "graph": dict(zip(GRAPH_FIELDS, graph)), "k": k,
            "values": dict(zip(VALUE_FIELDS, values)), "records": records}


def report_dict(g: Graph, k: int, vals: SolvedValues,
                records: list[BoundRecord]) -> dict:
    """One (graph, k) report matching the documented JSON schema."""
    return _report(graph_fields(g), k, vals, [r._asdict() for r in records])


# report_json formats the text json.dumps(report_dict(...), indent=2)
# prints, without the pure-Python encoder that any indent selects.
_JSON_BOOL = {False: "false", True: "true"}


def _slotted(shape: dict) -> str:
    """shape as json.dumps(..., indent=2) prints it, each "%s" value
    unquoted into a %-format slot."""
    return json.dumps(shape, indent=2).replace('"%s"', "%s")


_REPORT_TEMPLATE = _slotted(_report(["%s"] * len(GRAPH_FIELDS), "%s",
                                    ["%s"] * len(VALUE_FIELDS), "%s"))
# a record's lines sit four spaces deeper, inside the "records" list
_RECORD_TEMPLATE = "    " + _slotted(
    dict.fromkeys(BoundRecord._fields, "%s")).replace("\n", "\n    ")


@functools.lru_cache(maxsize=1024)
def _record_json(r: BoundRecord) -> str:
    """One record's text in report_json.  Records that compare equal
    print the same text, and a run of reports repeats few of them: the
    900 of a verify-ng benchmark pass hold under 500 distinct records."""
    esc, flag = encode_basestring_ascii, _JSON_BOOL
    return _RECORD_TEMPLATE % (esc(r.theorem_id), flag[r.applicable], r.lhs,
                               r.rhs, flag[r.holds], flag[r.equality],
                               esc(r.notes))


def report_json(g: Graph, k: int, vals: SolvedValues,
                records: list[BoundRecord]) -> str:
    """The report_dict text as json.dumps(..., indent=2) prints it, with
    the same key order and the same \\uXXXX escapes.

    Record flags must be exact bools and lhs/rhs plain ints: the bool
    table would print a flag of 1 as true where json.dumps prints 1.
    """
    esc, flag = encode_basestring_ascii, _JSON_BOOL
    name, graph6, n, delta, Delta, regular = graph_fields(g)
    body = ",\n".join(map(_record_json, records))
    return _REPORT_TEMPLATE % (
        esc(name), esc(graph6), n, delta, Delta, flag[regular], k,
        *vals[:4], f"[\n{body}\n  ]" if records else "[]")


def report_csv_rows(g: Graph, k: int, vals: SolvedValues,
                    records: list[BoundRecord]) -> list[list]:
    """Flatten one report into CSV rows (one per record), in the order
    of CSV_COLUMNS."""
    head = [*graph_fields(g), k, *vals[:4]]
    return [head + list(r) for r in records]
