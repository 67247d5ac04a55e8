"""Command-line front end.

Subcommands: gen (emit graph6 for a named family), compute (exact values
or oracle values as JSON), construct (materialize a family, self-validated
before printing), verify (bound report for one graph), sweep (randomized
plus exhaustive corpus of bound reports).

Exit codes: 0 success / all bounds hold, 1 verification violation, 2 usage
error, 3 guard refusal, 4 I/O or parse error, 70 internal error (a
construction or a compute witness failed its own validator).  Diagnostics
go to stderr; stdout carries only data and is byte-identical across
identical invocations.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .graphs import (FAMILIES, MAX_VERTICES, ConstructionError, FamilySpec,
                     Graph, GuardError, ParseError, check_order,
                     encode_graph6, generate, parse_edge_list, parse_graph6)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_IO = 4
EXIT_INTERNAL = 70

ENV_MAX_N = "RKDOM_MAX_N"

_SWEEP_PROBS = (0.2, 0.35, 0.5, 0.65, 0.8)


@functools.cache
def _module(name: str):
    """The package's module name, imported on the first call.

    Every module of the package except graphs is reached only through
    here, by the subcommands that use it, so `gen` loads nothing more
    and a gamma solve loads roman alone.  Callers read a function off the
    module when they call it, so rebinding it there (as the benchmark
    tracer does) takes effect.
    """
    return importlib.import_module(f"{__package__}.{name}")


class InternalError(Exception):
    """A result that failed its own validator; each arg is one line."""


def _fail(code: int, *lines: str, kind: str = "error") -> int:
    for line in lines:
        print(f"rkdom: {kind}: {line}", file=sys.stderr)
    return code


def _max_n(args) -> int | None:
    """Effective MAX_N knob: flag beats environment; hard ceiling 64."""
    value = getattr(args, "max_n", None)
    if value is None:
        raw = os.environ.get(ENV_MAX_N)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}")
    if value is None:
        return None
    if value < 1:
        raise ValueError("max-n must be >= 1")
    return min(value, MAX_VERTICES)


def _read_graph(args) -> tuple[Graph, int | None]:
    """The input graph and the MAX_N knob (`_max_n`), which it is parsed
    under.  The knob is read after the input and before parsing, so an
    unreadable input exits 4 and a bad knob exits 2 before a parse error."""
    source = args.graph
    if source == "-":
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            text = exc.object.decode("latin-1")  # one character per byte
    else:
        with open(source, "r", encoding="ascii") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"byte {exc.start}: not ASCII") from None
    max_n = _max_n(args)
    parse = parse_edge_list if args.format == "edgelist" else parse_graph6
    g = parse(text, max_n)
    # The parsers strip and split on Unicode whitespace, so stdin text
    # can parse and still hold non-ASCII; a parse error keeps its message.
    # Every character before the first non-ASCII one is a single byte.
    if not text.isascii():
        offset = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError(f"byte {offset}: not ASCII")
    return g, max_n


def _listed(flags: Sequence[str]) -> str:
    *head, last = [f"--{flag}" for flag in flags]
    return f"{', '.join(head)} and {last}" if head else last


def _require(what: str, flags: Sequence[str], optional: Sequence[str],
             args) -> None:
    """Usage error naming every flag in flags that was not given, or else
    every flag of optional outside flags that was given."""
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{what} needs {_listed(missing)}")
    unused = [flag for flag in optional
              if flag not in flags and getattr(args, flag) is not None]
    if unused:
        raise ValueError(f"{what} does not use {_listed(unused)}")


def _spec_from_args(args) -> FamilySpec:
    params = FAMILIES[args.family].params
    _require(f"--family {args.family}", params, FamilySpec._fields[1:], args)
    return FamilySpec(args.family, **{p: getattr(args, p) for p in params})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    g = generate(_spec_from_args(args), _max_n(args))
    print(encode_graph6(g))
    return EXIT_OK


def _json_list(items: Iterable[str], indent: int) -> str:
    """A non-empty list of JSON texts as json.dumps(..., indent=2) lays it
    out when its items start indent spaces in."""
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _labeling_json(f) -> str:
    # a digit string needs no escape
    return f'"{_module("roman").labeling_to_string(f)}"'


def _set_check(g: Graph, k: int, mask) -> tuple:
    """The gamma_k witness check: the size of the set a 0/1 mask holds,
    and a violation unless the set k-dominates."""
    members = [v for v, x in enumerate(mask) if x]
    roman = _module("roman")
    return len(members), [] if roman.is_k_dominating(g, k, members) else [
        roman.Violation("undominated", detail=f"set is not {k}-dominating")]


# quantity -> (exact solve, witness renderer, witness check, oracle solve
# or None).  A solve is named "module.function" and called as
# function(graph, k, max_n=...), looked up through _module when it runs,
# so rebinding it in its module takes effect.  A renderer gives the
# witness's text in the compute payload; a check gives the witness's size
# and what the package validator for its quantity finds wrong with it.
_SOLVERS = {
    "gamma-k": ("roman.gamma_k_exact", _labeling_json, _set_check,
                "oracles.gamma_k_oracle"),
    "gamma-kr": ("roman.gamma_kr_exact", _labeling_json,
                 lambda g, k, f: (
                     sum(f), _module("roman").validate_rkdf(g, k, f)),
                 "oracles.gamma_kr_oracle"),
    "d-k": ("domatic.d_k_exact",
            lambda blocks: _json_list(
                [_json_list(map(str, b), 10) for b in blocks], 8),
            lambda g, k, b: (
                len(b), _module("domatic").validate_partition(g, k, b)),
            None),
    "d-rk": ("domatic.d_rk_exact",
             lambda fam: _json_list(map(_labeling_json, fam), 8),
             lambda g, k, fam: (
                 len(fam), _module("domatic").validate_family(g, k, fam)),
             "oracles.d_rk_oracle"),
}

# compute prints the text json.dumps(payload, indent=2) gives, without
# the pure-Python encoder that any indent selects.
_COMPUTE_TEMPLATE = """{
  "schema": "1",
  "graph": {
    "graph6": %s,
    "n": %d
  },
  "k": %d,
  "results": [
%s
  ]
}"""

_RESULT_TEMPLATE = """    {
      "quantity": "%s",
      "method": "%s",
      "value": %d,
      "witness": %s,
      "nodes_explored": %s
    }"""


def _compute_one(g: Graph, k: int, quantity: str, oracle: bool,
                 max_n: int | None) -> str:
    """The text of one result in the compute payload."""
    exact, show, check, by_oracle = _SOLVERS[quantity]
    module, _, name = (by_oracle if oracle else exact).partition(".")
    res = getattr(_module(module), name)(g, k, max_n=max_n)
    if oracle:
        return _RESULT_TEMPLATE % (quantity.replace("-", "_"), "oracle",
                                   res, "null", "null")
    size, problems = check(g, k, res.witness)
    if problems or size != res.value:
        raise InternalError(f"{res.quantity} = {res.value} is not certified "
                            f"by its witness of size {size}",
                            *(f"{p.kind}: {p.detail}" for p in problems))
    return _RESULT_TEMPLATE % (res.quantity, "exact", res.value,
                               show(res.witness), res.nodes_explored)


def _cmd_compute(args) -> int:
    g, max_n = _read_graph(args)
    wanted = _SOLVERS if args.quantity == "all" else (args.quantity,)
    # refused before any solve, not after the ones listed before it
    for q in wanted if args.oracle else ():
        if _SOLVERS[q][3] is None:
            raise ValueError(f"no oracle for quantity {q}")
    results = [_compute_one(g, args.k, q, args.oracle, max_n) for q in wanted]
    print(_COMPUTE_TEMPLATE % (encode_basestring_ascii(encode_graph6(g)), g.n,
                               args.k, ",\n".join(results)))
    return EXIT_OK


def _parse_subgraphs(text: str) -> list[tuple[list[int], list[int]]]:
    """Parse "0,1:2,3;2,3:0,1" into [(X, Y), ...] pairs."""
    pairs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        sides = part.split(":")
        if len(sides) != 2:
            raise ValueError(f"subgraph {part!r} must be 'X:Y'")
        try:
            pairs.append(tuple([int(t) for t in side.split(",") if t.strip()]
                               for side in sides))
        except ValueError:
            raise ValueError(f"subgraph {part!r} has non-integer vertices") \
                from None
    if not pairs:
        raise ValueError("no subgraphs given")
    return pairs


# construct name -> (the flags it needs, builder of (graph, family) from
# the constructions module, the arguments and the --graph input, read
# only for names that need it)
_CONSTRUCTIONS = {
    "complete": (("n",), lambda c, a, g: c.family_complete(a.n, a.k)),
    "balanced-bipartite": (
        ("t",), lambda c, a, g: c.family_balanced_bipartite(a.t, a.k)),
    "near-order": (("graph",),
                   lambda c, a, g: (g, c.family_near_order(g, a.k))),
    "nontrivial": (("graph",),
                   lambda c, a, g: (g, c.family_nontrivial(g, a.k))),
    "kdelta-sharpness": ((), lambda c, a, g: c.family_kdelta_sharpness(a.k)),
    "from-subgraphs": (("graph", "subgraphs"), lambda c, a, g: (
        g, c.family_from_balanced_subgraphs(g, a.k,
                                            _parse_subgraphs(a.subgraphs)))),
}


def _cmd_construct(args) -> int:
    flags, build = _CONSTRUCTIONS[args.name]
    _require(f"construct {args.name}", flags,
             ("n", "t", "graph", "subgraphs"), args)
    g, fam = build(_module("constructions"), args,
                   _read_graph(args)[0] if "graph" in flags else None)
    # the built families carry the fixed guard 64; hold them to MAX_N too
    check_order(g.label, g.n, _max_n(args), MAX_VERTICES)

    problems = _module("domatic").validate_family(g, args.k, fam)
    if problems:
        raise InternalError(*(f"{p.kind}: {p.detail}" for p in problems))
    print(encode_graph6(g))
    for f in fam:
        print(_module("roman").labeling_to_string(f))
    print(f"valid {len(fam)} functions")
    return EXIT_OK


def _verify_records(g: Graph, k: int, max_n: int | None, nordhaus: bool):
    bounds = _module("bounds")
    vals = bounds.solve_all(g, k, max_n=max_n)
    records = bounds.check_graph(g, k, vals)
    if nordhaus:
        records = records + bounds.check_nordhaus_gaddum(g, k, vals,
                                                         max_n=max_n)
    return vals, records


def _cmd_verify(args) -> int:
    g, max_n = _read_graph(args)
    vals, records = _verify_records(g, args.k, max_n, args.nordhaus_gaddum)
    bounds = _module("bounds")
    if args.output == "csv":
        import csv      # here, its one user, to keep it off every start-up
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(bounds.CSV_COLUMNS)
        writer.writerows(bounds.report_csv_rows(g, args.k, vals, records))
    else:
        print(bounds.report_json(g, args.k, vals, records))
    return EXIT_VIOLATION if bounds.violations(records) else EXIT_OK


def _sweep_orders(args) -> range:
    """The orders the seeded G(n,p) instances cycle over: from the first
    one not swept exhaustively up to n-max, and no more than count of
    them, since instance j takes the (j mod len)-th."""
    lo = max(2, args.exhaustive_upto + 1)
    return range(lo, min(args.n_max, lo + args.count - 1) + 1)


def _sweep_instances(args):
    """Deterministic corpus: exhaustive small graphs then seeded G(n,p)."""
    for n in range(1, args.exhaustive_upto + 1):
        for mask in range(1 << n * (n - 1) // 2):
            g = Graph.from_pairs(n, mask, f"exhaustive(n={n},mask={mask})")
            for k in range(1, args.k_max + 1):
                yield g, k
    ns = _sweep_orders(args)
    for j in range(args.count if ns else 0):
        n = ns[j % len(ns)]
        prob = _SWEEP_PROBS[j % len(_SWEEP_PROBS)]
        spec = FamilySpec("random-gnp", n=n, prob=prob, seed=args.seed + j)
        g = generate(spec)
        yield g, (j % args.k_max) + 1


def _cmd_sweep(args) -> int:
    if args.k_max < 1:
        raise ValueError("k-max must be >= 1")
    if args.count < 0:
        raise ValueError("count must be >= 0")
    if args.exhaustive_upto < 0:
        raise ValueError("exhaustive-upto must be >= 0")
    max_n = _max_n(args)
    bounds, domatic = _module("bounds"), _module("domatic")
    # A corpus past the d_rk solver's guards is refused before the first
    # report, not after the reports below it (2^(M(M-1)/2) on M vertices
    # alone).  The (order, k) pairs are checked in corpus order, so the
    # refusal names the first one the solver would refuse; each loop
    # stops at most one past a limit.  Seeded instance j takes order
    # ns[j mod len(ns)] and k = j mod k_max + 1, so its pairs repeat
    # after len(ns) * k_max instances.
    for n in range(1, args.exhaustive_upto + 1):
        for k in range(1, args.k_max + 1):
            domatic.check_drk(n, k, max_n)
    ns = _sweep_orders(args)
    for j in range(min(args.count, len(ns) * args.k_max)):
        domatic.check_drk(ns[j % len(ns)], j % args.k_max + 1, max_n)
    instances = records_count = applicable = bad = 0
    for g, k in _sweep_instances(args):
        vals, records = _verify_records(g, k, max_n, args.nordhaus_gaddum)
        instances += 1
        records_count += len(records)
        applicable += sum(1 for r in records if r.applicable)
        bad += len(bounds.violations(records))
        print(json.dumps(bounds.report_dict(g, k, vals, records),
                         separators=(",", ":")))
    summary = {"schema": "1", "summary": {"instances": instances,
                                          "records": records_count,
                                          "applicable": applicable,
                                          "violations": bad}}
    print(json.dumps(summary, separators=(",", ":")))
    return EXIT_VIOLATION if bad else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for every call."""
    parser = argparse.ArgumentParser(
        prog="rkdom",
        description="Exact Roman k-domination and Roman (k,k)-domatic "
                    "computations on small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a named family member as graph6")
    p_gen.add_argument("--family", required=True,
                       choices=tuple(FAMILIES))
    for param in FamilySpec._fields[1:]:
        p_gen.add_argument(f"--{param}",
                           type=float if param == "prob" else int)

    p_compute = sub.add_parser("compute", help="compute exact or oracle values")
    p_compute.add_argument("--graph", required=True,
                           help="path to a graph file, or - for stdin")
    p_compute.add_argument("--format", choices=("graph6", "edgelist"),
                           default="graph6")
    p_compute.add_argument("--k", type=int, required=True)
    p_compute.add_argument("--quantity", required=True,
                           choices=(*_SOLVERS, "all"))
    p_compute.add_argument("--oracle", action="store_true",
                           help="use the brute-force oracle instead")

    p_construct = sub.add_parser("construct",
                                 help="materialize an explicit family")
    p_construct.add_argument("--name", required=True,
                             choices=tuple(_CONSTRUCTIONS))
    p_construct.add_argument("--k", type=int, required=True)
    p_construct.add_argument("--n", type=int)
    p_construct.add_argument("--t", type=int)
    p_construct.add_argument("--graph", help="input graph for graph-based "
                                             "constructions (- for stdin)")
    p_construct.add_argument("--format", choices=("graph6", "edgelist"),
                             default="graph6")
    p_construct.add_argument("--subgraphs",
                             help="X:Y pairs, e.g. '0,1:2,3;2,3:0,1'")

    p_verify = sub.add_parser("verify", help="bound report for one graph")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--format", choices=("graph6", "edgelist"),
                          default="graph6")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--nordhaus-gaddum", action="store_true",
                          help="also solve the complement and check "
                               "complement-sum bounds")
    p_verify.add_argument("--output", choices=("json", "csv"), default="json")

    p_sweep = sub.add_parser("sweep", help="streamed bound reports over a corpus")
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--k-max", type=int, required=True)
    p_sweep.add_argument("--count", type=int, required=True,
                         help="number of random instances")
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--exhaustive-upto", type=int, default=4,
                         help="also run every graph with at most this many "
                              "vertices (default 4)")
    p_sweep.add_argument("--nordhaus-gaddum", action="store_true")
    # --max-n is the last option of every subcommand
    for p, func in ((p_gen, _cmd_gen), (p_compute, _cmd_compute),
                    (p_construct, _cmd_construct), (p_verify, _cmd_verify),
                    (p_sweep, _cmd_sweep)):
        p.add_argument("--max-n", type=int)
        p.set_defaults(func=func)
    return parser


# How many distinct argvs main keeps parsed.  A caller that runs main in a
# loop (a benchmark, a library driver) repeats a few argvs with different
# stdin graphs; the bench workloads use 3 and 6.
_PARSED_ARGVS = 32


@functools.lru_cache(maxsize=_PARSED_ARGVS)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """The parsed argv, kept for the next call with the same argv.

    A failing parse raises SystemExit, which is never cached, so its
    usage error is printed on every call.  Callers get the shared
    Namespace and must copy it before handing it on.
    """
    return _build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parsed = _parse(tuple(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args = argparse.Namespace(**vars(parsed))
    try:
        return args.func(args)
    except InternalError as exc:
        return _fail(EXIT_INTERNAL, *exc.args, kind="internal")
    except (GuardError, ConstructionError) as exc:
        return _fail(EXIT_GUARD, str(exc))
    except (ParseError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
