"""CLI subcommands, exit codes and output determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import rkdom
from conftest import gnp
from rkdom.cli import main
from rkdom.graphs import FAMILIES, Graph, encode_graph6

K3 = "Bw\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete_3_is_bw(self, capsys):
        code, out, _ = run(capsys, ["gen", "--family", "complete", "--n", "3"])
        assert code == 0 and out == "Bw\n"

    def test_random_gnp_deterministic(self, capsys):
        argv = ["gen", "--family", "random-gnp", "--n", "8",
                "--prob", "0.5", "--seed", "42"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0 and out1 == out2

    # Recorded with the per-pair SplitMix64 generator.  Orders 63 and 64
    # take the long-form header (n = 64 also two-word rows); the seeds
    # include negative ones and ones of 2^64 and above, which reduce mod
    # 2^64; prob 0 and 1 give E_n and K_n, and 0.9999999999999999 the
    # largest threshold below 2^64.  The long texts are pinned by sha256.
    @pytest.mark.parametrize("n, prob, seed, out", [
        ("1", "0.5", "0", "@"),
        ("2", "1", "-1", "A_"),
        ("2", "0", "5", "A?"),
        ("7", "0.5", "-2", "FE]LG"),
        ("7", "0.9999999999999999", "18446744073709551621", "F~~~w"),
        ("16", "0.35", "3", "Oe_R`KHAHOGoBLFHA@UPM"),
        ("62", "0.5", "-7", "295208810a2ee70ac7ea73b344f80e5a"
                            "a7a250cf3289625e6e17e970ff41d991"),
        ("63", "0.3", "18446744073709551616",
         "f8f9b369dd60c6450a515f708f8a7d012d7b025af0943ef8fc015cd3e2fe2a9d"),
        ("63", "1", "2", "fd45b03e3649f5756c58167b5d354ccc"
                         "dcf8baa96ec9c024dc3684c1fd8d23df"),
        ("64", "0.5", "-3", "59156e1cb77c50a5da72b1a07c03c061"
                            "5e69e159ba15e873240d768f9d89b53b"),
        ("64", "0", "9", "3c9026d35564a23789fb036bcdda9a74"
                         "25f47bff2230ec75389b37d2b06c8647"),
        ("64", "0.9999999999999999", "-18446744073709551617",
         "eead7b6934bbb4ea38f670f01245e401c66ed90308b3f7e38c4a52d55e168511"),
    ])
    def test_random_gnp_pinned(self, capsys, n, prob, seed, out):
        code, got, _ = run(capsys, ["gen", "--family", "random-gnp", "--n", n,
                                    "--prob", prob, "--seed", seed])
        if int(n) >= 62:
            got = hashlib.sha256(got.encode()).hexdigest()
        else:
            got = got.removesuffix("\n")
        assert code == 0 and got == out

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--family", "complete"])
        assert code == 2 and "needs --n" in err

    @pytest.mark.parametrize("argv, needs", [
        # only the missing flags are named, not those given
        (["--family", "complete-bipartite", "--p", "2"],
         "--family complete-bipartite needs --q"),
        (["--family", "random-gnp", "--n", "3", "--seed", "1"],
         "--family random-gnp needs --prob"),
        (["--family", "random-gnp", "--n", "3"],
         "--family random-gnp needs --prob and --seed"),
        (["--family", "random-gnp"],
         "--family random-gnp needs --n, --prob and --seed"),
    ])
    def test_missing_parameters_are_all_named(self, capsys, argv, needs):
        code, out, err = run(capsys, ["gen", *argv])
        assert code == 2 and out == "" and err == f"rkdom: error: {needs}\n"

    def test_guard_refusal(self, capsys):
        code, _, err = run(capsys, ["gen", "--family", "kdelta-sharpness",
                                    "--k", "3"])
        assert code == 3 and "guard" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, ["gen", "--family", "complete", "--n", "3",
                                  "--bogus"])
        assert code == 2


@pytest.mark.parametrize("argv, code, out", [
    (["gen", "--family", "complete", "--n", "3"], 0, "Bw\n"),
    (["gen", "--family", "complete", "--n", "65"], 3, ""),
])
def test_entry_exits_with_the_code_of_main(capsys, monkeypatch, argv, code,
                                           out):
    # the console script's entry point reads sys.argv and exits with
    # main's return code
    import rkdom.cli as cli
    monkeypatch.setattr(sys, "argv", ["rkdom", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code and capsys.readouterr().out == out


def test_import_leaves_csv_unloaded():
    # csv is imported by verify --output csv alone, not at start-up
    src = os.path.dirname(os.path.dirname(rkdom.__file__))
    code = "import sys, rkdom.cli; print('csv' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


# The modules a fresh interpreter loads for `import rkdom.cli` and then
# one main(argv) call with stdin, as "rkdom" and "rkdom.*" names, and
# whether it loaded dataclasses.
FOOTPRINT = """
import io, sys
before = set(sys.modules)
import rkdom.cli
argv = sys.argv[1:]
if argv:
    sys.stdin, out = io.StringIO("Bw\\n"), sys.stdout
    sys.stdout = io.StringIO()
    code = rkdom.cli.main(argv)
    sys.stdout = out
    assert code == 0, code
added = set(sys.modules) - before
print(sorted(m for m in added if m.partition(".")[0] == "rkdom"),
      "dataclasses" in added)
"""

BASE = ["rkdom", "rkdom.cli", "rkdom.graphs"]


@pytest.mark.parametrize("argv, loaded", [
    ([], BASE),
    (["gen", "--family", "random-gnp", "--n", "9", "--prob", "0.5",
      "--seed", "1"], BASE),
    (["compute", "--graph", "-", "--k", "2", "--quantity", "gamma-kr"],
     sorted(BASE + ["rkdom.roman"])),
    (["compute", "--graph", "-", "--k", "2", "--quantity", "gamma-k"],
     sorted(BASE + ["rkdom.roman"])),
    (["compute", "--graph", "-", "--k", "2", "--quantity", "gamma-kr",
      "--oracle"], sorted(BASE + ["rkdom.oracles", "rkdom.roman"])),
    (["compute", "--graph", "-", "--k", "2", "--quantity", "d-rk"],
     sorted(BASE + ["rkdom.domatic", "rkdom.roman"])),
    (["verify", "--graph", "-", "--k", "1", "--nordhaus-gaddum"],
     ["rkdom", "rkdom.bounds", "rkdom.cli", "rkdom.domatic", "rkdom.graphs",
      "rkdom.oracles", "rkdom.roman"]),
    (["construct", "--name", "complete", "--k", "1", "--n", "3"],
     ["rkdom", "rkdom.cli", "rkdom.constructions", "rkdom.domatic",
      "rkdom.graphs", "rkdom.roman"]),
], ids=["import", "gen", "compute-gamma-kr", "compute-gamma-k",
        "compute-gamma-kr-oracle", "compute-d-rk", "verify", "construct"])
def test_subcommands_load_only_what_they_run(argv, loaded):
    # every module but graphs is imported by the subcommands that use
    # it, and no module of the package uses dataclasses
    src = os.path.dirname(os.path.dirname(rkdom.__file__))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (0, f"{loaded} False\n"), \
        done.stderr


# Every subcommand's handler and its options in order, each as (option
# strings, dest, type name, required, default, choices): what the parser
# registers, independent of the help text layout, which varies between
# Python versions.
HELP = (("-h", "--help"), "help", None, False, "==SUPPRESS==", None)
MAX_N = (("--max-n",), "max_n", "int", False, None, None)
FORMAT = (("--format",), "format", None, False, "graph6",
          ("graph6", "edgelist"))
OPTIONS = {
    "gen": ("_cmd_gen", [
        HELP,
        (("--family",), "family", None, True, None,
         ("complete", "cycle", "empty", "complete-bipartite", "random-gnp",
          "kdelta-sharpness")),
        (("--n",), "n", "int", False, None, None),
        (("--p",), "p", "int", False, None, None),
        (("--q",), "q", "int", False, None, None),
        (("--prob",), "prob", "float", False, None, None),
        (("--seed",), "seed", "int", False, None, None),
        (("--k",), "k", "int", False, None, None),
        MAX_N]),
    "compute": ("_cmd_compute", [
        HELP,
        (("--graph",), "graph", None, True, None, None),
        FORMAT,
        (("--k",), "k", "int", True, None, None),
        (("--quantity",), "quantity", None, True, None,
         ("gamma-k", "gamma-kr", "d-k", "d-rk", "all")),
        (("--oracle",), "oracle", None, False, False, None),
        MAX_N]),
    "construct": ("_cmd_construct", [
        HELP,
        (("--name",), "name", None, True, None,
         ("complete", "balanced-bipartite", "near-order", "nontrivial",
          "kdelta-sharpness", "from-subgraphs")),
        (("--k",), "k", "int", True, None, None),
        (("--n",), "n", "int", False, None, None),
        (("--t",), "t", "int", False, None, None),
        (("--graph",), "graph", None, False, None, None),
        FORMAT,
        (("--subgraphs",), "subgraphs", None, False, None, None),
        MAX_N]),
    "verify": ("_cmd_verify", [
        HELP,
        (("--graph",), "graph", None, True, None, None),
        FORMAT,
        (("--k",), "k", "int", True, None, None),
        (("--nordhaus-gaddum",), "nordhaus_gaddum", None, False, False,
         None),
        (("--output",), "output", None, False, "json", ("json", "csv")),
        MAX_N]),
    "sweep": ("_cmd_sweep", [
        HELP,
        (("--n-max",), "n_max", "int", True, None, None),
        (("--k-max",), "k_max", "int", True, None, None),
        (("--count",), "count", "int", True, None, None),
        (("--seed",), "seed", "int", True, None, None),
        (("--exhaustive-upto",), "exhaustive_upto", "int", False, 4, None),
        (("--nordhaus-gaddum",), "nordhaus_gaddum", None, False, False,
         None),
        MAX_N]),
}


def test_subcommand_options_are_pinned():
    import rkdom.cli as cli
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    got = {name: (p.get_default("func").__name__, [
        (tuple(a.option_strings), a.dest, a.type and a.type.__name__,
         a.required, a.default, a.choices and tuple(a.choices))
        for a in p._actions]) for name, p in sub.choices.items()}
    assert got == OPTIONS


class TestLazyPackage:
    """rkdom resolves each public name from its module on first access."""

    def test_every_public_name_resolves(self):
        import rkdom.bounds
        import rkdom.constructions
        import rkdom.domatic
        import rkdom.graphs
        import rkdom.oracles
        import rkdom.roman
        modules = (rkdom.bounds, rkdom.constructions, rkdom.domatic,
                   rkdom.graphs, rkdom.oracles, rkdom.roman)
        for name in rkdom.__all__:
            value = getattr(rkdom, name)
            assert any(getattr(m, name, None) is value for m in modules), name

    def test_star_import(self):
        namespace = {}
        exec("from rkdom import *", namespace)
        assert set(rkdom.__all__) <= set(namespace)
        assert namespace["gamma_kr_exact"] is rkdom.roman.gamma_kr_exact

    def test_dir_lists_all(self):
        assert set(rkdom.__all__) <= set(dir(rkdom))
        assert "__version__" in dir(rkdom)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rkdom.no_such_name
        assert getattr(rkdom, "main", None) is None
        with pytest.raises(ImportError):
            exec("from rkdom import no_such_name", {})


# The exact stdout of gen for every family kind and of construct for
# every name: (argv, stdin or None, stdout), each exiting 0.
PINNED_OUTPUT = [
    (["gen", "--family", "complete", "--n", "3"], None, "Bw\n"),
    (["gen", "--family", "cycle", "--n", "5"], None, "Dhc\n"),
    (["gen", "--family", "empty", "--n", "4"], None, "C?\n"),
    (["gen", "--family", "complete-bipartite", "--p", "2", "--q", "3"], None,
     "D]o\n"),
    (["gen", "--family", "random-gnp", "--n", "8", "--prob", "0.5",
      "--seed", "42"], None, "G]jFco\n"),
    (["gen", "--family", "kdelta-sharpness", "--k", "1"], None, "D~_\n"),
    (["construct", "--name", "complete", "--k", "1", "--n", "3"], None,
     "Bw\n200\n020\n002\nvalid 3 functions\n"),
    (["construct", "--name", "balanced-bipartite", "--k", "1", "--t", "3"],
     None, "EFz_\n200200\n020020\n002002\nvalid 3 functions\n"),
    (["construct", "--name", "kdelta-sharpness", "--k", "1"], None,
     "D~_\n20000\n00201\n00021\nvalid 3 functions\n"),
    (["construct", "--name", "near-order", "--k", "2", "--graph", "-"],
     "A_\n", "A_\n21\n12\n11\nvalid 3 functions\n"),
    (["construct", "--name", "nontrivial", "--k", "2", "--graph", "-"],
     "Bw\n", "Bw\n122\n211\n111\nvalid 3 functions\n"),
    (["construct", "--name", "from-subgraphs", "--k", "1", "--graph", "-",
      "--subgraphs", "0,1:2,3;2,3:0,1"], "Cr\n",
     "Cr\n0022\n2200\nvalid 2 functions\n"),
]


@pytest.mark.parametrize("argv, stdin, out", PINNED_OUTPUT,
                         ids=[" ".join(argv[:3]) for argv, _, _ in
                              PINNED_OUTPUT])
def test_pinned_output(capsys, monkeypatch, argv, stdin, out):
    assert run(capsys, argv, stdin, monkeypatch)[:2] == (0, out)


def test_pinned_output_covers_every_name():
    import rkdom.cli as cli
    pinned = {(argv[0], argv[2]) for argv, _, _ in PINNED_OUTPUT}
    assert pinned == {("gen", kind) for kind in FAMILIES} | \
        {("construct", name) for name in cli._CONSTRUCTIONS}


# A flag that defaults to None and that the kind or name does not use is
# refused before anything is read or built: (argv, error message).
UNUSED_FLAGS = [
    (["gen", "--family", "complete", "--n", "3", "--k", "2"],
     "--family complete does not use --k"),
    (["gen", "--family", "kdelta-sharpness", "--k", "1", "--n", "5",
      "--seed", "3"], "--family kdelta-sharpness does not use --n and --seed"),
    (["gen", "--family", "complete-bipartite", "--p", "2", "--q", "3",
      "--prob", "0.5"], "--family complete-bipartite does not use --prob"),
    (["gen", "--family", "random-gnp", "--n", "4", "--prob", "0.5",
      "--seed", "1", "--p", "2"], "--family random-gnp does not use --p"),
    (["construct", "--name", "complete", "--k", "1", "--n", "3",
      "--graph", "/no/such/file"], "construct complete does not use --graph"),
    (["construct", "--name", "kdelta-sharpness", "--k", "1", "--t", "2",
      "--n", "4"], "construct kdelta-sharpness does not use --n and --t"),
    (["construct", "--name", "near-order", "--k", "2", "--graph", "-",
      "--subgraphs", "0:1"], "construct near-order does not use --subgraphs"),
    (["construct", "--name", "balanced-bipartite", "--k", "1", "--t", "3",
      "--n", "6"], "construct balanced-bipartite does not use --n"),
]


@pytest.mark.parametrize("argv, error", UNUSED_FLAGS,
                         ids=[" ".join(argv[:3]) for argv, _ in UNUSED_FLAGS])
def test_unused_flag_is_usage_error(capsys, argv, error):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err == f"rkdom: error: {error}\n"


@pytest.mark.parametrize("argv, out", [
    (["gen", "--family", "complete", "--n", "3"], "Bw\n"),
    (["construct", "--name", "kdelta-sharpness", "--k", "1"], "D~_\n"),
])
def test_max_n_is_not_refused_as_unused(capsys, argv, out):
    code, got, _ = run(capsys, [*argv, "--max-n", "5"])
    assert code == 0 and got.startswith(out)


class TestCompute:
    def test_d_rk_of_k3(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "d-rk"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["results"][0]["value"] == 3
        assert payload["results"][0]["witness"] == ["002", "020", "200"]

    def test_all_quantities_in_dependency_order(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "all"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert [r["quantity"] for r in payload["results"]] == \
            ["gamma_k", "gamma_kr", "d_k", "d_rk"]
        assert [r["value"] for r in payload["results"]] == [1, 2, 3, 3]

    def test_oracle_flag(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "gamma-kr", "--oracle"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["method"] == "oracle" and result["value"] == 2
        assert result["witness"] is None

    @pytest.mark.parametrize("quantity, oracle", [
        ("gamma-k", False), ("gamma-kr", False), ("d-k", False),
        ("d-rk", False), ("all", False), ("gamma-k", True),
        ("gamma-kr", True), ("d-rk", True)])
    def test_stdout_is_json_dumps_indent_2(self, capsys, monkeypatch,
                                           quantity, oracle):
        # "E\\|O" holds a backslash, which the JSON text escapes
        for text, k in (("E\\|O", 1), ("Bw", 1), ("D??", 2), ("@", 1),
                        (encode_graph6(gnp(6, 0.6, 3)), 2)):
            code, out, _ = run(capsys, ["compute", "--graph", "-", "--k",
                                        str(k), "--quantity", quantity,
                                        *(["--oracle"] if oracle else [])],
                               stdin=text + "\n", monkeypatch=monkeypatch)
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            results = json.loads(out)["results"]
            assert all((r["method"] == "oracle") == oracle for r in results)
            if oracle:
                assert all(r["witness"] is None and
                           r["nodes_explored"] is None for r in results)

    def test_witness_json_matches_json_dumps(self):
        # the witness starts 6 spaces in, so each of its lines after the
        # first is 6 spaces further in than json.dumps puts it
        for quantity, witness, value in (
                ("gamma-k", (1, 0, 0, 1), "1001"),
                ("gamma-kr", (2, 0, 1), "201"),
                ("d-k", ((0,), (1, 2)), [[0], [1, 2]]),
                ("d-k", (tuple(range(12)),), [list(range(12))]),
                ("d-rk", ((0, 0, 2), (2, 2, 0)), ["002", "220"]),
                ("d-rk", ((1,),), ["1"])):
            show = rkdom.cli._SOLVERS[quantity][1]
            assert show(witness) == \
                json.dumps(value, indent=2).replace("\n", "\n      ")

    def test_compute_stdout_pin(self, capsys, monkeypatch):
        digest = hashlib.sha256()
        for i in range(30):
            stdin = encode_graph6(gnp(4 + i % 5, PROBS[i % 5], 1200 + i))
            for quantity in ("gamma-k", "gamma-kr", "d-rk"):
                for extra in ([], ["--oracle"]):
                    code, out, _ = run(capsys, [
                        "compute", "--graph", "-", "--k", str(1 + i % 3),
                        "--quantity", quantity, *extra],
                        stdin=stdin + "\n", monkeypatch=monkeypatch)
                    digest.update(f"{code}\n{out}".encode())
        for i in range(6):
            stdin = encode_graph6(gnp(12 + i % 5, PROBS[i % 5], 1300 + i))
            for quantity in ("gamma-k", "gamma-kr"):
                code, out, _ = run(capsys, [
                    "compute", "--graph", "-", "--k", str(1 + i % 3),
                    "--quantity", quantity],
                    stdin=stdin + "\n", monkeypatch=monkeypatch)
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == COMPUTE_STDOUT_PIN

    def test_solvers_are_looked_up_when_called(self, capsys, monkeypatch):
        # the benchmark tracer wraps solvers by rebinding their names in
        # the module that defines them, rkdom.roman, rkdom.domatic or
        # rkdom.oracles, and the CLI reads every solver from there when it
        # runs, so that is the one place to patch; a table that held the
        # functions would bypass it
        import rkdom.domatic
        import rkdom.oracles
        import rkdom.roman
        called = []
        names = ("gamma_k_exact", "gamma_kr_exact", "d_k_exact",
                 "d_rk_exact", "gamma_k_oracle", "gamma_kr_oracle",
                 "d_rk_oracle")
        for name in names:
            module = (rkdom.oracles if name.endswith("_oracle") else
                      rkdom.domatic if name.startswith("d_") else rkdom.roman)
            solver = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _name=name, _solver=solver, **kw:
                                called.append(_name) or _solver(*a, **kw))
        for quantity, oracle in (("all", []), ("gamma-k", ["--oracle"]),
                                 ("gamma-kr", ["--oracle"]),
                                 ("d-rk", ["--oracle"])):
            code, _, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                      "--quantity", quantity, *oracle],
                             stdin=K3, monkeypatch=monkeypatch)
            assert code == 0
        assert called == list(names)

    def test_oracle_unavailable_for_d_k(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "d-k", "--oracle"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 2 and "no oracle" in err
        # all --oracle is refused before any oracle runs: none is called,
        # and on 11 vertices no oracle guard or k check speaks first.  The
        # CLI reads each oracle from its defining module, rkdom.oracles,
        # the one place to patch.
        import rkdom.oracles as oracles
        monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        for name in ("gamma_k_oracle", "gamma_kr_oracle", "d_rk_oracle"):
            monkeypatch.setattr(oracles, name, None)
        for k in ("1", "0"):
            code, out, err = run(capsys, ["compute", "--graph", "-", "--k", k,
                                          "--quantity", "all", "--oracle"],
                                 stdin=encode_graph6(Graph(11, [])) + "\n",
                                 monkeypatch=monkeypatch)
            assert code == 2 and out == ""
            assert err == "rkdom: error: no oracle for quantity d-k\n"

    def test_edgelist_format(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["compute", "--graph", "-", "--format",
                                    "edgelist", "--k", "1",
                                    "--quantity", "gamma-kr"],
                           stdin="n 3\n0 1\n1 2\n2 0\n", monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["results"][0]["value"] == 2

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "gamma-kr"],
                           stdin="A_?\n", monkeypatch=monkeypatch)
        assert code == 4 and "trailing garbage" in err

    @pytest.mark.parametrize("count", ["1_0", "+3", "\uff13"])
    def test_edgelist_count_must_be_ascii_decimal(self, capsys, monkeypatch,
                                                 count):
        # stdin gets the same answer as a file: exit 4, not a solve
        code, out, err = run(capsys, ["compute", "--graph", "-", "--format",
                                      "edgelist", "--k", "1",
                                      "--quantity", "gamma-kr"],
                             stdin=f"n {count}\n0 1\n",
                             monkeypatch=monkeypatch)
        assert code == 4 and out == "" and "line 1" in err
        assert "ASCII decimal" in err

    def test_non_ascii_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"B\xffw\n")
        code, out, err = run(capsys, ["compute", "--graph", str(path),
                                      "--k", "1", "--quantity", "gamma-kr"])
        assert code == 4 and out == "" and "byte 1" in err

    @pytest.mark.parametrize("fmt, text, offset", [
        ("graph6", "\u00a0Bw\n", 0),
        ("edgelist", "n\u00a03\n0 1\n", 1),
    ])
    def test_non_ascii_stdin_is_parse_error(self, capsys, monkeypatch, fmt,
                                            text, offset):
        # the same answer as the same bytes in a file, not a stripped parse
        code, out, err = run(capsys, ["compute", "--graph", "-", "--format",
                                      fmt, "--k", "1",
                                      "--quantity", "gamma-kr"],
                             stdin=text, monkeypatch=monkeypatch)
        assert code == 4 and out == ""
        assert f"byte {offset}: not ASCII" in err

    def test_undecodable_stdin_is_parse_error(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"B\xc3\xa9\xffw\n"),
                                 encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                      "--quantity", "gamma-kr"])
        assert code == 4 and out == "" and "byte 1:" in err

    @pytest.mark.parametrize("raw, encoding, errors", [
        (b"B\xc3\xa9w\n", "utf-8", "strict"),
        (b"B\xffw\n", "ascii", "surrogateescape"),
    ])
    def test_non_ascii_graph6_stdin_names_the_offset(self, capsys,
                                                     monkeypatch, raw,
                                                     encoding, errors):
        # byte 1 is the first non-ASCII one, not a graph6 value of 233
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding=encoding,
                                 errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                      "--quantity", "gamma-kr"])
        assert code == 4 and out == ""
        assert "byte 1: not ASCII" in err and "range" not in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(capsys, ["compute", "--graph", "/no/such/file",
                                  "--k", "1", "--quantity", "gamma-kr"])
        assert code == 4

    def test_guard_refusal_exit_code(self, capsys, monkeypatch):
        big = "H" + "?" * 6  # empty graph on 9 vertices
        code, _, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                  "--quantity", "d-rk"],
                         stdin=big + "\n", monkeypatch=monkeypatch)
        assert code == 3

    def test_max_n_flag_raises_guard(self, capsys, monkeypatch):
        big = "H" + "?" * 6
        code, out, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "d-rk", "--max-n", "9"],
                           stdin=big + "\n", monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["results"][0]["value"] == 1

    def test_env_knob_lowers_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("RKDOM_MAX_N", "2")
        code, _, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "gamma-kr"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 3 and "guard" in err

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RKDOM_MAX_N", "2")
        code, out, _ = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "gamma-kr", "--max-n", "8"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["results"][0]["value"] == 2

    # On the path 0-1-2 at k = 1, each exact solver's result with its
    # value one too high, and with a witness of the right size that its
    # quantity's validator rejects (vertex 2 is left undominated).
    @pytest.mark.parametrize("quantity, solver, bad", [
        ("gamma-k", "roman.gamma_k_exact", {"value": 2}),
        ("gamma-k", "roman.gamma_k_exact", {"witness": (1, 0, 0)}),
        ("gamma-kr", "roman.gamma_kr_exact", {"value": 3}),
        ("gamma-kr", "roman.gamma_kr_exact", {"witness": (2, 0, 0)}),
        ("d-k", "domatic.d_k_exact", {"value": 3}),
        ("d-k", "domatic.d_k_exact", {"witness": ((0,), (1, 2))}),
        ("d-rk", "domatic.d_rk_exact", {"value": 3}),
        ("d-rk", "domatic.d_rk_exact",
         {"witness": ((0, 2, 0), (2, 0, 0))})])
    def test_uncertified_witness_is_internal_error(self, capsys, monkeypatch,
                                                   quantity, solver, bad):
        import importlib
        module, _, name = solver.partition(".")
        module = importlib.import_module(f"rkdom.{module}")
        argv = ["compute", "--graph", "-", "--k", "1", "--quantity", quantity]
        code, out, _ = run(capsys, argv, stdin="Bg\n",
                           monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == \
            {"gamma-k": 1, "gamma-kr": 2, "d-k": 2, "d-rk": 2}[quantity]
        solve = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: solve(
            *args, **kwargs)._replace(**bad))
        code, out, err = run(capsys, argv, stdin="Bg\n",
                             monkeypatch=monkeypatch)
        assert (code, out) == (70, "")
        assert err.startswith("rkdom: internal: ")


class TestConstruct:
    def test_complete_family_output(self, capsys):
        code, out, _ = run(capsys, ["construct", "--name", "complete",
                                    "--k", "1", "--n", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Bw"
        assert lines[1:4] == ["200", "020", "002"]
        assert lines[4] == "valid 3 functions"

    def test_kdelta_sharpness(self, capsys):
        code, out, _ = run(capsys, ["construct", "--name", "kdelta-sharpness",
                                    "--k", "1"])
        assert code == 0
        assert out.splitlines()[-1] == "valid 3 functions"

    def test_near_order_reads_graph(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["construct", "--name", "near-order",
                                    "--k", "2", "--graph", "-"],
                           stdin="A_\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.splitlines()[1:4] == ["21", "12", "11"]

    def test_from_subgraphs(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["construct", "--name", "from-subgraphs",
                                    "--k", "1", "--graph", "-",
                                    "--subgraphs", "0,1:2,3;2,3:0,1"],
                           stdin="Cr\n", monkeypatch=monkeypatch)
        # Cr is a 4-cycle: edges 01, 02, 13, 23
        assert code == 0
        assert out.splitlines()[1:3] == ["0022", "2200"]

    @pytest.mark.parametrize("argv", [
        ["--name", "complete", "--k", "1", "--n", "10", "--max-n", "5"],
        ["--name", "balanced-bipartite", "--k", "1", "--t", "3",
         "--max-n", "5"],
        ["--name", "kdelta-sharpness", "--k", "1", "--max-n", "4"],
    ])
    def test_built_graph_obeys_max_n(self, capsys, argv):
        code, out, err = run(capsys, ["construct", *argv])
        assert code == 3 and out == "" and "guard is" in err

    def test_precondition_refusal(self, capsys):
        code, _, err = run(capsys, ["construct", "--name", "complete",
                                    "--k", "2", "--n", "3"])
        assert code == 3 and "n >= 2k" in err

    @pytest.mark.parametrize("name", ["near-order", "nontrivial",
                                      "from-subgraphs"])
    def test_missing_graph_is_usage_error(self, capsys, name):
        code, out, err = run(capsys, ["construct", "--name", name,
                                      "--k", "2"])
        assert code == 2 and out == ""
        assert f"construct {name} needs --graph" in err

    def test_missing_subgraphs_is_reported_before_the_graph_is_read(
            self, capsys):
        code, out, err = run(capsys, ["construct", "--name", "from-subgraphs",
                                      "--k", "1", "--graph", "/no/such/file"])
        assert code == 2 and out == ""
        assert err == "rkdom: error: construct from-subgraphs needs " \
                      "--subgraphs\n"

    def test_bad_subgraph_string_is_usage_error(self, capsys, monkeypatch):
        code, _, _ = run(capsys, ["construct", "--name", "from-subgraphs",
                                  "--k", "1", "--graph", "-",
                                  "--subgraphs", "0,1"],
                         stdin="Cr\n", monkeypatch=monkeypatch)
        assert code == 2

    def test_subgraph_precondition_refusal(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["construct", "--name", "from-subgraphs",
                                      "--k", "1", "--graph", "-",
                                      "--subgraphs", "0:0;1:0"],
                             stdin="A_\n", monkeypatch=monkeypatch)
        assert (code, out) == (3, "")
        assert err == "rkdom: error: subgraph 0: X and Y intersect\n"

    def test_failed_self_validation_is_internal_error(self, capsys,
                                                      monkeypatch):
        # a construction that does not pass its own validator must never
        # print silently; force that path by faking a violation
        # construct reads validate_family from rkdom.domatic when it runs
        from rkdom.roman import Violation
        import rkdom.domatic as domatic
        monkeypatch.setattr(domatic, "validate_family",
                            lambda g, k, fam: [Violation("capacity-exceeded",
                                                         detail="forced")])
        code, out, err = run(capsys, ["construct", "--name", "complete",
                                      "--k", "1", "--n", "3"])
        assert code == 70
        assert out == "" and "forced" in err


NORDHAUS_GADDUM_IDS = [
    "1d=n", "Delta", "Delta1", "Kpq", "SV", "Th2", "V0", "V1", "c1", "c1-eq",
    "cor1-hi", "cor1-lo", "eq1-hi", "eq1-lo", "eq23", "gammast",
    "gammast-eq", "kdelta", "mapping", "obs", "obs2", "obs2-cor", "reg",
    "final-cor", "knord", "knord-eq", "knord-k1", "regnord"]

PROBS = (0.2, 0.35, 0.5, 0.65, 0.8)

# One SHA-256 over the exit code and stdout of verify on 30 seeded G(n,p)
# graphs (n 4-7, k 1-3), as JSON and as CSV, each with and without
# --nordhaus-gaddum: 120 calls.  Recorded while check_graph and
# check_nordhaus_gaddum still sorted their records on every call and
# report_json formatted every record anew.
VERIFY_STDOUT_PIN = \
    "cf24e70f3a40289bb1f976716b6b2a3610a1ceddfed37d2e0dc040d49289399d"

# One SHA-256 over the exit code and stdout of compute for gamma-k,
# gamma-kr and d-rk, exact and --oracle, on 30 seeded G(n,p) graphs (n
# 4-8, k 1-3; d-rk --oracle exits 3 above n = 6), then of gamma-k and
# gamma-kr on 6 graphs with n 12-16: 192 calls.  Recorded while compute
# built its payload as a dict and wrote it with a recursive JSON writer.
# Exact d-k is left out: its nodes_explored moved with its block-size
# ceilings, and TestDkPinned pins its values and witnesses.
COMPUTE_STDOUT_PIN = \
    "653550b4ead13c55e1f6fdec6bcd1b81d9f6ffcf1dac53216a387568ba771ab0"


class TestVerify:
    def test_trivial_graph_all_hold(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["verify", "--graph", "-", "--k", "2",
                                    "--nordhaus-gaddum"],
                           stdin="@\n", monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["values"]["d_rk"] == 2
        assert all(r["holds"] for r in rep["records"] if r["applicable"])

    def test_k3_report(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["verify", "--graph", "-", "--k", "1"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 0
        rep = json.loads(out)
        assert rep["graph"]["graph6"] == "Bw"
        assert rep["values"] == {"gamma_k": 1, "gamma_kr": 2,
                                 "d_k": 3, "d_rk": 3}

    def test_csv_output(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["verify", "--graph", "-", "--k", "1",
                                    "--output", "csv"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,graph6,n,delta,Delta,regular,k,")
        assert len(lines) > 10

    def test_no_gamma_kr_search_per_nordhaus_gaddum_op(self, monkeypatch):
        # solve_all reads gamma_kR off d_rk_exact's lightest RkDF weight
        # level and takes gamma_k from the support scan, so no branch and
        # bound runs
        import rkdom.cli as cli
        import rkdom.roman as roman
        from conftest import complete, cycle, gnp
        inner = roman._roman_bb
        alphabets = []

        def counting(g, k, alphabet, best):
            alphabets.append(alphabet)
            return inner(g, k, alphabet, best)

        monkeypatch.setattr(roman, "_roman_bb", counting)
        for g, k in ((complete(3), 1), (cycle(5), 2), (gnp(7, 0.5, 3), 3)):
            alphabets.clear()
            cli._verify_records(g, k, None, True)
            assert alphabets == [], (g.label, k)

    def test_max_n_reaches_the_gamma_k_scan(self, monkeypatch):
        # d_rk_exact runs first, so a lowered max_n is refused with its
        # message, not the scan's
        import rkdom.bounds as bounds
        import rkdom.cli as cli
        from rkdom import gamma_k_exact
        from rkdom.graphs import GuardError
        from rkdom.roman import SolveResult
        with pytest.raises(GuardError) as exc:
            cli._verify_records(gnp(7, 0.5, 3), 1, 5, True)
        assert str(exc.value) == "d_rk solver guard is n <= 5, got 7"
        # with d_R^k and d_k stubbed, 11 vertices reach the scan, whose
        # guard max_n lifts as it lifts every solver's
        monkeypatch.setattr(bounds, "d_rk_exact", lambda g, k, **kw:
                            SolveResult("d_rk", 1, (), 0, gamma_kr=g.n))
        monkeypatch.setattr(bounds, "d_k_exact", lambda g, k, **kw:
                            SolveResult("d_k", 1, (), 0))
        g = gnp(11, 0.4, 3)
        with pytest.raises(GuardError) as exc:
            bounds.solve_all(g, 2)
        assert str(exc.value) == "gamma_k oracle guard is n <= 10, got 11"
        assert bounds.solve_all(g, 2, max_n=11).gamma_k == \
            gamma_k_exact(g, 2).value

    def test_verify_deterministic(self, capsys, monkeypatch):
        argv = ["verify", "--graph", "-", "--k", "2", "--nordhaus-gaddum"]
        code1, out1, _ = run(capsys, argv, stdin=K3, monkeypatch=monkeypatch)
        code2, out2, _ = run(capsys, argv, stdin=K3, monkeypatch=monkeypatch)
        assert code1 == code2 == 0 and out1 == out2

    def test_nordhaus_gaddum_record_order(self, capsys, monkeypatch):
        # the per-graph records sorted by id, then the complement-sum
        # records sorted by id, in JSON and CSV alike
        argv = ["verify", "--graph", "-", "--k", "2", "--nordhaus-gaddum"]
        code, out, _ = run(capsys, argv, stdin="Dhc\n",
                           monkeypatch=monkeypatch)
        ids = [r["theorem_id"] for r in json.loads(out)["records"]]
        assert code == 0 and ids == NORDHAUS_GADDUM_IDS
        code, out, _ = run(capsys, [*argv, "--output", "csv"],
                           stdin="Dhc\n", monkeypatch=monkeypatch)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert code == 0 and [row[11] for row in rows] == NORDHAUS_GADDUM_IDS

    def test_verify_stdout_pin(self, capsys, monkeypatch):
        digest = hashlib.sha256()
        for i in range(30):
            stdin = encode_graph6(gnp(4 + i % 4, PROBS[i % 5], 1100 + i))
            argv = ["verify", "--graph", "-", "--k", str(1 + i % 3)]
            for extra in ([], ["--nordhaus-gaddum"], ["--output", "csv"],
                          ["--output", "csv", "--nordhaus-gaddum"]):
                code, out, _ = run(capsys, argv + extra, stdin=stdin + "\n",
                                   monkeypatch=monkeypatch)
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == VERIFY_STDOUT_PIN


class TestSweep:
    ARGV = ["sweep", "--n-max", "5", "--k-max", "2", "--count", "4",
            "--seed", "42", "--exhaustive-upto", "3"]

    def test_summary_and_exit(self, capsys):
        code, out, _ = run(capsys, self.ARGV)
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])["summary"]
        # n=1: 1 graph, n=2: 2, n=3: 8 -> 11 graphs x 2 k-values + 4 random
        assert summary["instances"] == 26
        assert summary["violations"] == 0
        first = json.loads(lines[0])
        assert first["schema"] == "1" and "records" in first

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = run(capsys, self.ARGV)
        code2, out2, _ = run(capsys, self.ARGV)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_nordhaus_gaddum_flag_adds_records(self, capsys):
        argv = ["sweep", "--n-max", "3", "--k-max", "1", "--count", "1",
                "--seed", "7", "--exhaustive-upto", "2", "--nordhaus-gaddum"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        first = json.loads(out.splitlines()[0])
        ids = {r["theorem_id"] for r in first["records"]}
        assert "knord" in ids and "regnord" in ids


    def test_k_max_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n-max", "5", "--k-max", "0",
                                      "--count", "3", "--seed", "1"])
        assert code == 2 and out == "" and "k-max" in err

    def test_negative_count_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n-max", "3", "--k-max", "1",
                                      "--count", "-1", "--seed", "1",
                                      "--exhaustive-upto", "1"])
        assert code == 2 and out == "" and "count" in err

    def test_negative_exhaustive_upto_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n-max", "3", "--k-max", "1",
                                      "--count", "1", "--seed", "1",
                                      "--exhaustive-upto", "-3"])
        assert code == 2 and out == "" and "exhaustive-upto" in err

    @pytest.mark.parametrize("upto, flags, env", [
        (9, [], None), (5, ["--max-n", "4"], None), (4, [], "3")])
    def test_exhaustive_upto_above_guard_is_refused(self, capsys, monkeypatch,
                                                    upto, flags, env):
        # refused before the first report, not after 2^(M(M-1)/2) of them;
        # each upto is one above the limit in force
        monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        if env is not None:
            monkeypatch.setenv("RKDOM_MAX_N", env)
        code, out, err = run(capsys, ["sweep", "--n-max", "3", "--k-max", "1",
                                      "--count", "1", "--seed", "1",
                                      "--exhaustive-upto", str(upto), *flags])
        assert code == 3 and out == ""
        assert err == (f"rkdom: error: d_rk solver guard is n <= {upto - 1}, "
                       f"got {upto}\n")

    @pytest.mark.parametrize("argv, reached", [
        (["--n-max", "9", "--k-max", "1", "--count", "10",
          "--exhaustive-upto", "1"], "n=9"),
        (["--n-max", "6", "--k-max", "1", "--count", "5",
          "--exhaustive-upto", "1", "--max-n", "5"], "n=6"),
        (["--n-max", "8", "--k-max", "5", "--count", "5",
          "--exhaustive-upto", "0"], "k=5"),
        (["--n-max", "1", "--k-max", "5", "--count", "0",
          "--exhaustive-upto", "1"], "k=5"),
    ])
    def test_corpus_past_a_guard_is_refused(self, capsys, monkeypatch, argv,
                                            reached):
        # refused before the first report, not after the reports below it;
        # each corpus reaches one above the limit in force
        monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        code, out, err = run(capsys, ["sweep", "--seed", "1", *argv])
        what, _, got = reached.partition("=")
        assert code == 3 and out == ""
        assert err == (f"rkdom: error: d_rk solver guard is {what} <= "
                       f"{int(got) - 1}, got {got}\n")

    @pytest.mark.parametrize("argv, message", [
        # the exhaustive n = 9 graphs come before the seeded ones up to 12
        (["--k-max", "2", "--exhaustive-upto", "9"], "n <= 8, got 9"),
        # seeded instance 4 takes k = 5, before instance 5 takes k = 6
        (["--k-max", "6", "--exhaustive-upto", "0"], "k <= 4, got 5"),
        # each exhaustive graph takes k = 1, 2, ... in turn
        (["--k-max", "6", "--exhaustive-upto", "1"], "k <= 4, got 5"),
    ], ids=["order", "seeded-k", "exhaustive-k"])
    def test_refusal_names_the_first_instance_refused(self, capsys,
                                                      monkeypatch, argv,
                                                      message):
        monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        code, out, err = run(capsys, ["sweep", "--n-max", "12", "--count",
                                      "20", "--seed", "1", *argv])
        assert code == 3 and out == ""
        assert err == f"rkdom: error: d_rk solver guard is {message}\n"

    def test_count_short_of_the_guard_runs(self, capsys, monkeypatch):
        # orders 2..9 and k 1..5 are offered, but 4 instances reach only
        # n = 5 and k = 4
        monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        code, out, _ = run(capsys, ["sweep", "--n-max", "9", "--k-max", "5",
                                    "--count", "4", "--seed", "1",
                                    "--exhaustive-upto", "0"])
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()[:-1]]
        assert [(r["graph"]["n"], r["k"]) for r in reports] == \
            [(2, 1), (3, 2), (4, 3), (5, 4)]

    @pytest.mark.parametrize("n_max", [10 ** 18, 10 ** 19])
    def test_huge_n_max_builds_no_list_of_orders(self, capsys, n_max):
        # one 2-vertex instance; the orders up to n_max are never listed
        code, out, _ = run(capsys, ["sweep", "--n-max", str(n_max),
                                    "--k-max", "1", "--count", "1",
                                    "--seed", "1", "--exhaustive-upto", "0"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert json.loads(lines[0])["graph"]["n"] == 2

    def test_exhaustive_upto_at_guard_runs(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n-max", "3", "--k-max", "1",
                                    "--count", "0", "--seed", "1",
                                    "--exhaustive-upto", "3", "--max-n", "3"])
        assert code == 0 and json.loads(out.splitlines()[-1])[
            "summary"]["instances"] == 11


class TestArgumentValidation:
    def test_k_zero_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["compute", "--graph", "-", "--k", "0",
                                    "--quantity", "gamma-kr"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 2 and "k must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["compute", "--quantity", "gamma-k", "--oracle"],
        ["compute", "--quantity", "gamma-kr", "--oracle"],
        ["compute", "--quantity", "d-rk", "--oracle"],
        ["construct", "--name", "near-order"],
        ["construct", "--name", "nontrivial"],
    ], ids=["gamma-k-oracle", "gamma-kr-oracle", "d-rk-oracle", "near-order",
            "nontrivial"])
    def test_k_zero_is_usage_error_on_every_path(self, capsys, monkeypatch,
                                                 argv):
        # 11 vertices: above every oracle's vertex guard, so k is checked
        # before any guard or construction precondition
        monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        code, out, err = run(capsys, [*argv, "--graph", "-", "--k", "0"],
                             stdin=encode_graph6(Graph(11)) + "\n",
                             monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "rkdom: error: k must be >= 1, got 0\n"

    def test_bad_env_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RKDOM_MAX_N", "many")
        code, _, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                    "--quantity", "gamma-kr"],
                           stdin=K3, monkeypatch=monkeypatch)
        assert code == 2 and "RKDOM_MAX_N" in err

    FROM_SUBGRAPHS = ["construct", "--name", "from-subgraphs", "--k", "1",
                      "--graph", "-", "--subgraphs"]

    @pytest.mark.parametrize("argv, env, stdin, code, message", [
        (["compute", "--graph", "-", "--k", "1", "--quantity", "gamma-kr",
          "--max-n", "0"], None, K3, 2, "max-n must be >= 1"),
        (["compute", "--graph", "-", "--k", "1", "--quantity", "gamma-kr"],
         "0", K3, 2, "max-n must be >= 1"),
        ([*FROM_SUBGRAPHS, ";"], None, "Cr\n", 2, "no subgraphs given"),
        ([*FROM_SUBGRAPHS, "0,x:2,3;2,3:0,1"], None, "Cr\n", 2,
         "subgraph '0,x:2,3' has non-integer vertices"),
        (["verify", "--graph", "-", "--k", "1", "--format", "edgelist"],
         None, "n 0\n", 4, "line 1: vertex count must be >= 1"),
    ], ids=["max-n-flag", "max-n-env", "no-subgraphs", "non-integer-vertex",
            "edge-list-order-zero"])
    def test_refusals(self, capsys, monkeypatch, argv, env, stdin, code,
                      message):
        if env is None:
            monkeypatch.delenv("RKDOM_MAX_N", raising=False)
        else:
            monkeypatch.setenv("RKDOM_MAX_N", env)
        got, out, err = run(capsys, argv, stdin=stdin,
                            monkeypatch=monkeypatch)
        assert (got, out, err) == (code, "", f"rkdom: error: {message}\n")

    READ_ARGVS = (["compute", "--k", "1", "--quantity", "gamma-kr"],
                  ["verify", "--k", "1"])

    @pytest.mark.parametrize("argv", READ_ARGVS)
    def test_missing_file_beats_bad_env(self, capsys, monkeypatch, tmp_path,
                                        argv):
        monkeypatch.setenv("RKDOM_MAX_N", "many")
        code, _, err = run(capsys, argv + ["--graph",
                                           str(tmp_path / "absent.g6")])
        assert code == 4 and "absent.g6" in err

    @pytest.mark.parametrize("argv", READ_ARGVS)
    def test_bad_env_beats_malformed_graph(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("RKDOM_MAX_N", "many")
        code, _, err = run(capsys, argv + ["--graph", "-"], stdin="B!\n",
                           monkeypatch=monkeypatch)
        assert code == 2 and "RKDOM_MAX_N" in err

    @pytest.mark.parametrize("argv", READ_ARGVS)
    def test_max_n_is_read_once(self, capsys, monkeypatch, argv):
        import rkdom.cli
        calls = []
        real = rkdom.cli._max_n
        monkeypatch.setattr(rkdom.cli, "_max_n",
                            lambda args: calls.append(1) or real(args))
        code, _, _ = run(capsys, argv + ["--graph", "-"], stdin=K3,
                         monkeypatch=monkeypatch)
        assert code == 0 and len(calls) == 1

    # GuardError, ConstructionError and ParseError are ValueErrors too, so
    # each is told apart only while its clause comes before ValueError's
    @pytest.mark.parametrize("error, code", [
        (rkdom.GuardError("guard"), 3),
        (rkdom.ConstructionError("construction"), 3),
        (rkdom.ParseError("parse"), 4),
        (OSError("io"), 4),
        (ValueError("usage"), 2),
    ], ids=["guard", "construction", "parse", "os", "usage"])
    def test_exit_code_table(self, capsys, monkeypatch, error, code):
        import rkdom.cli

        def failing(args):
            raise error

        monkeypatch.setattr(rkdom.cli, "_read_graph", failing)
        got, out, err = run(capsys, ["compute", "--graph", "-", "--k", "1",
                                     "--quantity", "gamma-kr"])
        assert (got, out, err) == (code, "", f"rkdom: error: {error}\n")


class TestRepeatedCalls:
    """main() reuses one parser and keeps recent argvs parsed; a call must
    not depend on earlier ones."""

    GAMMA_KR = ["compute", "--graph", "-", "--k", "1", "--quantity",
                "gamma-kr"]

    def test_same_argv_reads_each_stdin_graph(self, capsys, monkeypatch):
        # K_3 then C_5 under one argv: gamma_1R is 2, then 4
        for stdin, value in ((K3, 2), ("Dhc\n", 4), (K3, 2)):
            code, out, _ = run(capsys, self.GAMMA_KR, stdin=stdin,
                               monkeypatch=monkeypatch)
            assert code == 0
            assert json.loads(out)["results"][0]["value"] == value

    def test_bad_argv_is_reported_on_every_call(self, capsys):
        for _ in range(2):
            code, out, err = run(capsys, [*self.GAMMA_KR, "--bogus"])
            assert code == 2 and out == ""
            assert err.startswith("usage: rkdom")
            assert err.endswith("unrecognized arguments: --bogus\n")

    def test_env_knob_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.setenv("RKDOM_MAX_N", "2")
        code, _, err = run(capsys, self.GAMMA_KR, stdin=K3,
                           monkeypatch=monkeypatch)
        assert code == 3 and "guard" in err
        monkeypatch.delenv("RKDOM_MAX_N")
        code, out, _ = run(capsys, self.GAMMA_KR, stdin=K3,
                           monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["results"][0]["value"] == 2

    def test_a_command_mutating_its_arguments_leaks_nothing(self, capsys,
                                                            monkeypatch):
        import rkdom.cli as cli
        real = cli._spec_from_args

        def bumping(args):
            args.n += 1
            return real(args)

        monkeypatch.setattr(cli, "_spec_from_args", bumping)
        argv = ["gen", "--family", "complete", "--n", "3"]
        outs = [run(capsys, argv)[1] for _ in range(2)]
        assert outs == ["C~\n", "C~\n"]   # K_4 both times, never K_5

    def test_mixed_calls_match_fresh_processes(self, capsys, tmp_path,
                                               monkeypatch):
        k3 = tmp_path / "k3.g6"
        k3.write_text(K3)
        e9 = tmp_path / "e9.g6"
        e9.write_text("H" + "?" * 6 + "\n")   # empty graph on 9 vertices
        # (argv, RKDOM_MAX_N or None)
        calls = [
            (["compute", "--graph", str(k3), "--k", "1", "--quantity", "all"],
             None),
            (["compute", "--graph", str(k3), "--k", "1", "--bogus"], None),
            (["compute", "--graph", str(e9), "--k", "1", "--quantity", "d-rk"],
             None),
            (["verify", "--graph", str(k3), "--k", "2", "--nordhaus-gaddum"],
             None),
            (["compute", "--graph", str(k3), "--k", "1",
              "--quantity", "gamma-kr"], "2"),
            (["gen", "--family", "complete"], None),
            (["compute", "--graph", str(e9), "--k", "2",
              "--quantity", "gamma-kr"], None),
            (["verify", "--graph", str(k3), "--k", "1", "--output", "csv"],
             None),
            (["sweep"], None),
        ]
        src = os.path.dirname(os.path.dirname(rkdom.__file__))
        alone = []
        for argv, max_n in calls:
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("RKDOM_MAX_N", None)
            if max_n is not None:
                env["RKDOM_MAX_N"] = max_n
            alone.append(subprocess.run(
                [sys.executable, "-m", "rkdom.cli", *argv],
                capture_output=True, text=True, env=env))
        assert sorted({r.returncode for r in alone}) == [0, 2, 3]
        for _ in range(2):
            for (argv, max_n), ref in zip(calls, alone):
                if max_n is None:
                    monkeypatch.delenv("RKDOM_MAX_N", raising=False)
                else:
                    monkeypatch.setenv("RKDOM_MAX_N", max_n)
                code = main(argv)
                out = capsys.readouterr().out
                assert (code, out) == (ref.returncode, ref.stdout), argv
