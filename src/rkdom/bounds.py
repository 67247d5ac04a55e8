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
    return SolvedValues(
        gamma_k=gamma_k_oracle(g, k, max_n=max_n),
        gamma_kr=drk.gamma_kr,
        d_k=d_k_exact(g, k, max_n=max_n).value,
        d_rk=drk.value,
        d_rk_family=drk.witness,
    )


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
         relation: str = "<=", notes: str = "") -> BoundRecord:
    holds = lhs <= rhs if relation == "<=" else lhs == rhs
    # the tuple BoundRecord(...) builds, minus its Python-level __new__
    return tuple.__new__(BoundRecord, (theorem_id, applicable, lhs, rhs,
                                       holds, lhs == rhs, notes))


def check_graph(g: Graph, k: int, vals: SolvedValues) -> list[BoundRecord]:
    """Evaluate every per-graph bound for one solved (graph, k) pair.

    Returns records in theorem_id order, the order reports print them;
    complement-sum bounds live in check_nordhaus_gaddum.
    """
    check_k(k)
    n = g.n
    delta, Delta = g.min_degree(), g.max_degree()
    gk, gkr, dk, drk = vals.gamma_k, vals.gamma_kr, vals.d_k, vals.d_rk

    app_1dn = k == 1 and n >= 2
    complete = g.is_complete()
    notes_1dn = "biconditional as 0/1 indicators"
    if app_1dn and complete:
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
        bound = min(b for _, b in cases)
        kpq = _rec("Kpq", True, drk, bound,
                   notes="cases: " + ", ".join(c for c, _ in cases))

    if n <= DEFAULT_WITNESS_LIMIT:
        witness = surplus_bipartite_witness(g, k)
        th2_app = n >= 2 and gkr == n and drk == 2 * k
        th2 = _rec("Th2", th2_app, int(witness is None), 1, relation="==",
                   notes="gamma_kr = n and d_rk = 2k exclude a surplus "
                         "witness" if th2_app
                   else "hypotheses gamma_kr = n, d_rk = 2k not met")
        v1 = _rec("V1", True, int(gkr < n), int(witness is not None),
                  relation="==", notes="biconditional as 0/1 indicators")
    else:
        guard = f"witness search guard is n <= {DEFAULT_WITNESS_LIMIT}"
        th2 = BoundRecord("Th2", False, 0, 0, True, True, guard)
        v1 = BoundRecord("V1", False, 0, 0, True, True, guard)

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
    cor_app = obs2_app and k >= Delta + 1
    return [    # in theorem_id order
        _rec("1d=n", app_1dn, int(drk == n), int(complete), relation="==",
             notes=notes_1dn if app_1dn
             else "stated for k = 1 and n >= 2 only"),
        _rec("Delta", Delta >= k, ceil_bound, gkr,
             notes="ceil(2nk/(Delta+k)) <= gamma_kr"
             if Delta >= k else "needs Delta >= k"),
        _rec("Delta1", True, drk, max(Delta, k - 1) + k),
        kpq,
        _rec("SV", k == 1, int(drk == 1), int(g.is_empty()), relation="==",
             notes="biconditional as 0/1 indicators"
             if k == 1 else "stated for k = 1 only"),
        th2,
        v0,
        v1,
        _rec("c1", n >= 2, gkr + drk, n + 2 * k,
             notes="" if n >= 2 else "needs n >= 2"),
        _rec("c1-eq", n >= 2, int(sum_eq), int(split_eq), relation="==",
             notes="biconditional as 0/1 indicators"),
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
             notes="" if k >= 2 ** n else "needs k >= 2^n"),
        _rec("obs", k >= Delta + 1, drk, 2 * k - 1,
             notes="" if k >= Delta + 1 else "needs k >= Delta+1"),
        _rec("obs2", obs2_app, 2 * k - 1, drk,
             notes="" if obs2_app else "needs k >= 2, n >= 2k-2"),
        _rec("obs2-cor", cor_app, drk, 2 * k - 1, relation="==",
             notes="" if cor_app
             else "needs k >= 2, n >= 2k-2, k >= Delta+1"),
        _rec("reg", delta == Delta, drk, max(2 * k - 1, delta + k),
             notes="" if delta == Delta else "graph not regular"),
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
    at_equality = total == n + 4 * k - 2
    regular = delta == Delta
    reg_bound = max(4 * k - 2, n + 2 * k - 1, n + 3 * k - 2 - delta,
                    3 * k + delta - 1)
    fc_app = regular and k >= 2 and n >= 2
    return [
        _rec("final-cor", fc_app, total, n + 4 * k - 4,
             notes="" if fc_app
             else "needs a regular graph, k >= 2 and n >= 2"),
        _rec("knord", True, total, n + 4 * k - 2),
        _rec("knord-eq", at_equality, Delta - delta, 1, relation="==",
             notes="equality requires Delta - delta = 1"
             if at_equality else "sum below the ceiling"),
        _rec("knord-k1", k == 1, total, n + 2,
             notes="" if k == 1 else "stated for k = 1 only"),
        _rec("regnord", regular, total, reg_bound,
             notes="" if regular else "graph not regular"),
    ]


def violations(records: list[BoundRecord]) -> list[BoundRecord]:
    """Applicable records that do not hold (always empty on sound solvers)."""
    return [r for r in records if r.applicable and not r.holds]


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_dict(g: Graph, k: int, vals: SolvedValues,
                records: list[BoundRecord]) -> dict:
    """One (graph, k) report matching the documented JSON schema."""
    return {
        "schema": "1",
        "graph": {
            "name": g.label or "",
            "graph6": encode_graph6(g),
            "n": g.n,
            "delta": g.min_degree(),
            "Delta": g.max_degree(),
            "regular": g.is_regular(),
        },
        "k": k,
        "values": {
            "gamma_k": vals.gamma_k,
            "gamma_kr": vals.gamma_kr,
            "d_k": vals.d_k,
            "d_rk": vals.d_rk,
        },
        "records": [r._asdict() for r in records],
    }


# report_json formats the text json.dumps(report_dict(...), indent=2)
# prints, without the pure-Python encoder that any indent selects.
_JSON_BOOL = {False: "false", True: "true"}

_REPORT_TEMPLATE = """{
  "schema": "1",
  "graph": {
    "name": %s,
    "graph6": %s,
    "n": %d,
    "delta": %d,
    "Delta": %d,
    "regular": %s
  },
  "k": %d,
  "values": {
    "gamma_k": %d,
    "gamma_kr": %d,
    "d_k": %d,
    "d_rk": %d
  },
  "records": %s
}"""

_RECORD_TEMPLATE = """    {
      "theorem_id": %s,
      "applicable": %s,
      "lhs": %d,
      "rhs": %d,
      "holds": %s,
      "equality": %s,
      "notes": %s
    }"""


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
    body = ",\n".join(map(_record_json, records))
    return _REPORT_TEMPLATE % (
        esc(g.label or ""), esc(encode_graph6(g)), g.n, g.min_degree(),
        g.max_degree(), flag[g.is_regular()], k, vals.gamma_k, vals.gamma_kr,
        vals.d_k, vals.d_rk, f"[\n{body}\n  ]" if records else "[]")


CSV_COLUMNS = ["name", "graph6", "n", "delta", "Delta", "regular", "k",
               "gamma_k", "gamma_kr", "d_k", "d_rk", "theorem_id",
               "applicable", "lhs", "rhs", "holds", "equality", "notes"]


def report_csv_rows(g: Graph, k: int, vals: SolvedValues,
                    records: list[BoundRecord]) -> list[list]:
    """Flatten one report into CSV rows (one per record), its columns in
    report_dict's order."""
    report = report_dict(g, k, vals, [])
    head = [*report["graph"].values(), k, *report["values"].values()]
    return [head + list(r) for r in records]
