"""The oracles share nothing with the solvers they check."""

from __future__ import annotations

import ast
import sys

from conftest import complete, cycle, empty, gnp
from rkdom import domatic, oracles, roman

# What oracles.py may take from the package besides all of graphs: the
# validator the naive filter runs and the labeling type.
FROM_ROMAN = {"validate_rkdf", "Labeling"}


def _foreign_imports(tree: ast.Module) -> list[str]:
    """Every import of the module other than graphs, FROM_ROMAN and the
    standard library, as text; importlib counts, since it could load a
    solver by name."""
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            where = "." * node.level + (node.module or "")
            if where == ".graphs":
                continue
            allowed = FROM_ROMAN if where == ".roman" else set()
            bad += [f"from {where} import {alias.name}"
                    for alias in node.names if alias.name not in allowed]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            bad += [f"import {m}" for m in modules
                    if m.partition(".")[0] not in sys.stdlib_module_names
                    or m.partition(".")[0] == "importlib"]
    return bad


def test_oracles_import_no_solver_and_call_none(monkeypatch):
    with open(oracles.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    assert _foreign_imports(tree) == []

    # Indirect use, through validate_rkdf or a module-level helper, is
    # what the imports cannot show: every oracle must still give the
    # solvers' values with every other function of roman and domatic
    # raising when called.
    cases = [(g, k) for g in (complete(3), cycle(5), empty(4),
                              gnp(5, 0.5, 3), gnp(6, 0.3, 4))
             for k in (1, 2, 3)]
    expect = [(list(oracles.naive_rkdfs(g, k)),
               roman.gamma_kr_exact(g, k).value,
               roman.gamma_k_exact(g, k).value,
               domatic.d_rk_exact(g, k).value) for g, k in cases]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"an oracle called {name}")
        return call

    patched = []
    for module in (roman, domatic):
        for name, value in vars(module).items():
            if (callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                    and value is not roman.validate_rkdf):
                monkeypatch.setattr(module, name, refuse(name))
                patched.append(name)
    assert {"enumerate_rkdfs", "_packed_rows", "_multiples", "_roman_bb",
            "d_rk_exact", "validate_family"} <= set(patched)
    got = [(list(oracles.naive_rkdfs(g, k)), oracles.gamma_kr_oracle(g, k),
            oracles.gamma_k_oracle(g, k), oracles.d_rk_oracle(g, k))
           for g, k in cases]
    assert got == expect
