"""Span tracer that wraps rkdom's public functions from outside the package.

Modules import functions by name (`from .roman import gamma_kr_exact`), so
one function is bound in several module namespaces.  `install` replaces
every binding in every loaded `rkdom` module and `remove` restores them.
Spans stay in memory as [name, start, end, parent, op, work, key].
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The `constructions` module is not traced: only `construct` calls it,
# and no solve path does.
TRACED = {
    "graphs": ("parse_graph6", "encode_graph6", "complement"),
    "roman": ("enumerate_rkdfs", "gamma_kr_exact", "gamma_k_exact"),
    "domatic": ("d_rk_exact", "d_k_exact"),
    "bounds": ("solve_all", "check_graph", "surplus_bipartite_witness",
               "check_nordhaus_gaddum", "report_dict"),
    "cli": ("main",),
}
SOLVERS = ("roman.gamma_kr_exact", "roman.gamma_k_exact",
           "domatic.d_rk_exact", "domatic.d_k_exact")
ENUMERATOR = "roman.enumerate_rkdfs"
# Called as f(graph, k, ...); repeated (graph, k) keys within one op are
# the redundant solves a shared per-instance context would remove.
KEYED = (ENUMERATOR, "roman.gamma_kr_exact", "domatic.d_rk_exact")

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _work(name: str, result) -> int:
    if name in SOLVERS:
        return result.nodes_explored
    if name == ENUMERATOR:
        return len(result.labelings)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, op: int) -> None:
        """Start attributing spans to op; drops any stack an abort left."""
        self.op = op
        self._stack.clear()

    def install(self) -> None:
        for mod, fns in TRACED.items():
            for fn in fns:
                original = getattr(importlib.import_module(f"rkdom.{mod}"), fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for name, module in list(sys.modules.items()):
                    if (name == "rkdom" or name.startswith("rkdom.")) \
                            and getattr(module, fn, None) is original:
                        setattr(module, fn, wrapper)
                        self._patched.append((module, fn, original))

    def remove(self) -> None:
        for module, fn, original in reversed(self._patched):
            setattr(module, fn, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (args[0].adj, args[1]) if keyed else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                    0, key]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _work(name, result)
            return result

        return traced


def summarize(spans: list[list], scales: list[float],
              aborted: set[int]) -> dict[str, float]:
    """Per-function calls, self time and work, plus redundancy ratios.

    Self time is a span's duration minus the durations of its direct
    children, times its op's entry in scales (see speed.py).
    `redundant_frac` is 1 - distinct/calls with distinct counted as
    (graph, k) keys within one op.  Spans of aborted ops are partial and
    left out.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    work: Counter = Counter()
    keys = defaultdict(set)
    for i, (name, start, end, _, op, done, key) in enumerate(spans):
        if op in aborted:
            continue
        calls[name] += 1
        self_s[name] += (end - start - child[i]) * scales[op]
        work[name] += done
        if key is not None:
            keys[name].add((op, key))
    out: dict[str, float] = {}
    for name in NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in SOLVERS:
        out[f"{name}.nodes"] = work[name]
    out[f"{ENUMERATOR}.labelings"] = work[ENUMERATOR]
    for name in KEYED:
        out[f"{name}.redundant_frac"] = \
            1 - len(keys[name]) / calls[name] if calls[name] else 0.0
    labelings = work[ENUMERATOR]
    out["domatic.d_rk_exact.nodes_per_labeling"] = \
        work["domatic.d_rk_exact"] / labelings if labelings else 0.0
    return out


def op_nodes(spans: list[list]) -> dict[int, dict[str, int]]:
    """Solver nodes per op: {op: {solver: nodes}}."""
    per_op: dict[int, dict[str, int]] = defaultdict(dict)
    for name, _, _, _, op, done, _ in spans:
        if name in SOLVERS:
            per_op[op][name] = per_op[op].get(name, 0) + done
    return per_op
