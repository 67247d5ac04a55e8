"""pytest plugin: fail the run when a statement of a function body in the
rkdom package is never executed.

Run it over the whole tier-1 suite, with the package and this directory
importable:

    PYTHONPATH=src:tools python -m pytest -q -p stmt_coverage

Standard library only.  A `sys.settrace` tracer, set when pytest
configures and removed when the session ends, records the lines executed
in the package's source files.  Then `ast` lists the statements of every
function body, nested ones included; a docstring, and a `nonlocal` or
`global` declaration, compiles to no code and does not count.  A
statement counts as executed when any line from its first (decorators
included) to its last was; so a line holding two statements covers
both.  Code that only a subprocess runs counts as never executed.  A
partial selection of tests reports what it leaves out, so the check
means something on the full suite alone.  Tracing makes the suite run
about three times slower.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys

_DECLARATIONS = (ast.Nonlocal, ast.Global)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _body_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement in a function body of tree that compiles to code."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        body = node.body
        if ast.get_docstring(node, clean=False) is not None:
            body = body[1:]
        stack = list(body)
        while stack:
            stmt = stack.pop()
            if not isinstance(stmt, _DECLARATIONS):
                out.append(stmt)
            if isinstance(stmt, _FUNCTIONS):
                continue    # its body is listed as a function of its own
            for field in ("body", "orelse", "finalbody"):
                stack.extend(getattr(stmt, field, ()))
            for handler in getattr(stmt, "handlers", ()):
                stack.extend(handler.body)
            for case in getattr(stmt, "cases", ()):
                stack.extend(case.body)
    return out


def missed_statements(package_dir: str, executed: dict[str, set[int]]
                      ) -> list[tuple[str, int]]:
    """(file, line) of each function-body statement in the package's
    source files that no executed line falls in, in order."""
    missed = []
    for entry in sorted(os.listdir(package_dir)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(package_dir, entry)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        lines = executed.get(path, set())
        for stmt in _body_statements(tree):
            first = min([stmt.lineno, *(d.lineno for d in
                                        getattr(stmt, "decorator_list", ()))])
            if lines.isdisjoint(range(first, stmt.end_lineno + 1)):
                missed.append((path, stmt.lineno))
    return sorted(missed)


class StatementCoverage:
    """Records the lines executed in each source file of one package
    directory from the start of the run, and fails the session when a
    function-body statement there never ran."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = package_dir
        self.prefix = package_dir + os.sep
        # file name -> its executed lines, for the package's files
        self.lines: dict[str, set[int]] = {}
        # file name -> the line tracer of its frames, or None outside the
        # package; one per file, so a traced call makes no garbage
        self.tracers: dict[str, object] = {}
        self.missed: list[tuple[str, int]] = []

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return self.tracers[name]
        except KeyError:
            pass
        if not name.startswith(self.prefix):
            self.tracers[name] = None
            return None
        add = self.lines.setdefault(name, set()).add

        def tracer(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return tracer
        self.tracers[name] = tracer
        return tracer

    def pytest_sessionfinish(self, session) -> None:
        sys.settrace(None)
        self.missed = missed_statements(self.package_dir, self.lines)
        if self.missed:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter) -> None:
        if not self.missed:
            terminalreporter.write_line("stmt_coverage: every function-body "
                                        "statement was executed")
            return
        terminalreporter.write_line(
            f"stmt_coverage: {len(self.missed)} function-body statements "
            f"never executed:", red=True)
        for path, line in self.missed:
            terminalreporter.write_line(f"  {path}:{line}")


def pytest_configure(config) -> None:
    package = importlib.util.find_spec("rkdom")
    plugin = StatementCoverage(os.path.dirname(package.origin))
    config.pluginmanager.register(plugin)
    sys.settrace(plugin.trace)
