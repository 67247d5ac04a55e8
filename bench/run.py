"""rkdom benchmark: drives the real CLI in-process on seeded corpora.

    python3 bench/run.py --workload verify-ng --seed 1 --seconds 15 --trace 0

Run from the repository root; rkdom is imported from ./src.  One client,
one process, one thread, closed loop: each op is `rkdom.cli.main(argv)`
with one graph6 line on stdin and stdout captured, and the next op starts
when it returns.

A run does, in order:
  1. set-up: import rkdom.cli, build the corpus from --seed, one warm-up
     op.  `setup_s` is the median of SETUP_SAMPLES set-ups, each in a
     fresh interpreter.
  2. a check pass over the corpus, untraced and timed.  Every output is
     validated and its SHA-256 kept as the reference.
  3. more passes over the whole corpus until --seconds have elapsed.
     Every output must match the check pass byte for byte.  With
     --trace 0 they are untraced, at least MIN_PASSES with the check
     pass, and one traced rerun of the slowest ops gives their solver
     nodes.  With --trace 1 they are traced, at least two, and give the
     per-layer metrics, whose counts must repeat exactly.

Every time is scaled to the reference machine's speed (see speed.py).

The last stdout line is the result object; the line before it is a report
with sample counts, stdout digest, exact counts and the slowest ops.
`--workload all` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import probe, scale  # noqa: E402
from tracer import NAMES, Tracer, op_nodes, summarize  # noqa: E402
from workloads import (DEADLINE_S, WORKLOADS, Op, build_corpus,  # noqa: E402
                       check_output)

SETUP_SAMPLES = 5
MIN_PASSES = 2
PROBE_EVERY_S = 0.1
SLOWEST = 5
# An op still running after DEADLINE_S (reference seconds, see speed.py)
# in the check pass is failed.  Later passes do not run it again: every
# pass charges it DEADLINE_S and counts it failed.  The ops that
# finished run under SAFETY times the deadline, so a slow spell cannot
# abort them in one pass and not another.
SAFETY = 10


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_op(main, op: Op, deadline_s: float
           ) -> tuple[int | None, str, float, float]:
    """Run one op: exit code (None when aborted), stdout, wall and CPU s."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = \
        io.StringIO(op.graph6 + "\n"), out, io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    cpu, start = process_time(), perf_counter()
    try:
        code = main(list(op.argv))
    except DeadlineExceeded:
        code = None
    finally:
        elapsed, cpu = perf_counter() - start, process_time() - cpu
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed, cpu


def setup(workload: str, seed: int):
    """Import the CLI, build the corpus and run one warm-up op.

    Returns (cli module, corpus, seconds taken scaled to reference speed).
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    probes = [probe() for _ in range(5)]  # the first two warm the probe up
    start = perf_counter()
    cli = importlib.import_module("rkdom.cli")
    warm_up, ops = build_corpus(WORKLOADS[workload], seed)
    run_op(cli.main, warm_up, DEADLINE_S)
    elapsed = perf_counter() - start
    probes += [probe() for _ in range(3)]
    return cli, ops, elapsed * scale(statistics.median(probes[2:]))


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time measured in SETUP_SAMPLES fresh interpreters."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(repr(run.setup(sys.argv[2], int(sys.argv[3]))[2]))")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(proc.stdout))
    return samples


@dataclass
class Pass:
    codes: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    layers: dict | None = None
    nodes_by_op: dict | None = None


def _restrict(p: Pass, keep: list[int]) -> Pass:
    """The timings of a pass, for the ops in keep only."""
    return Pass(*([column[i] for i in keep] for column in (
        p.codes, p.digests, p.latencies, p.cpus, p.scales)))


def run_pass(cli, ops: list[Op], deadline_s: float,
             tracer: Tracer | None = None, keep_outputs: bool = False
             ) -> Pass:
    if tracer is not None:
        tracer.install()
    main = cli.main  # looked up after install, so the wrapper is called
    p = Pass()
    probes = [probe()]
    probe_before = []
    last = perf_counter()
    try:
        for i, op in enumerate(ops):
            if perf_counter() - last >= PROBE_EVERY_S:
                probes.append(probe())
                last = perf_counter()
            probe_before.append(len(probes) - 1)
            if tracer is not None:
                tracer.begin_op(i)
            code, out, elapsed, cpu = run_op(
                main, op, deadline_s / scale(probes[-1]))
            p.codes.append(code)
            p.digests.append(hashlib.sha256(out.encode()).digest())
            p.latencies.append(elapsed)
            p.cpus.append(cpu)
            if keep_outputs:
                p.outputs.append(out)
    finally:
        if tracer is not None:
            tracer.remove()
    probes.append(probe())
    # Each op is scaled by the mean of the probes just before and after it.
    p.scales = [scale((probes[j] + probes[j + 1]) / 2) for j in probe_before]
    if tracer is not None:
        aborted = {i for i, code in enumerate(p.codes) if code is None}
        p.layers = summarize(tracer.spans, p.scales, aborted)
        p.nodes_by_op = op_nodes(tracer.spans)
    return p


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def per_op_median(passes: list[Pass], attr: str) -> list[float]:
    """Each op's scaled time, as its median over passes.

    What the speed probe misses of a slow spell hits different ops in
    different passes; from three passes on, the median drops it.
    """
    return [statistics.median(column) for column in zip(
        *([t * s for t, s in zip(getattr(p, attr), p.scales)]
          for p in passes))]


def _all_ops(n: int, live: list[int], times: list[float]) -> list[float]:
    """Per-op times over the whole corpus; an aborted op is charged
    DEADLINE_S."""
    out = [DEADLINE_S] * n
    for i, t in zip(live, times):
        out[i] = t
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, ops, _ = setup(workload, seed)
    setups = setup_seconds(workload, seed)

    start = perf_counter()
    ref = run_pass(cli, ops, DEADLINE_S, keep_outputs=True)
    problems = [check_output(op, code, out)
                for op, code, out in zip(ops, ref.codes, ref.outputs)]
    stdout_sha = hashlib.sha256("".join(ref.outputs).encode()).hexdigest()
    ref.outputs = []
    wrong = [f"op {i}: {why}" for i, why in enumerate(problems)
             if why is not None and ref.codes[i] is not None]
    live = [i for i, code in enumerate(ref.codes) if code is not None]
    live_ops = [ops[i] for i in live]

    # The check pass is the first untraced timed pass.  A --trace 1 run
    # then makes only traced passes, at least two, to compare their counts.
    plain = [_restrict(ref, live)]
    traced: list[Pass] = []
    while (len(plain) < MIN_PASSES and not trace
           or trace and len(traced) < 2
           or perf_counter() - start < seconds):
        p = run_pass(cli, live_ops, SAFETY * DEADLINE_S,
                     Tracer() if trace else None)
        (traced if trace else plain).append(p)

    if trace:
        # Counts must repeat exactly; only times may differ.
        exact = [name for name in traced[0].layers
                 if not name.endswith(".self_s")]
        counts = {name: traced[0].layers[name] for name in exact}
        for p in traced[1:]:
            for name in exact:
                if p.layers[name] != counts[name]:
                    wrong.append(f"{name}: {p.layers[name]} and "
                                 f"{counts[name]} in two traced passes")
        nodes_by_op = {live[j]: nodes
                       for j, nodes in traced[0].nodes_by_op.items()}
    else:
        counts = None
    passes = len(plain) + len(traced)
    attempted = len(ops) * passes
    failed = (len(ops) - len(live)) * passes
    ok_ops = 0
    for p in plain + traced:
        for i, code, digest in zip(live, p.codes, p.digests):
            if code != ref.codes[i] or digest != ref.digests[i]:
                failed += 1
                wrong.append(f"op {i}: exit code or stdout differs from "
                             "the check pass")
            elif problems[i] is not None:
                failed += 1
            elif p.layers is None:
                ok_ops += 1

    n = len(ops)
    per_op = _all_ops(n, live, per_op_median(plain, "latencies"))
    if trace:
        layers = dict(traced[0].layers)
        for name in NAMES:
            layers[f"{name}.self_s"] = statistics.median(
                p.layers[f"{name}.self_s"] for p in traced)
        layers["trace_overhead_frac"] = (
            sum(per_op_median(traced, "latencies"))
            / sum(per_op_median(plain, "latencies")) - 1)
        metrics = {name: _metric(value, _layer_unit(name), len(traced))
                   for name, value in layers.items()}
    else:
        metrics = {
            "throughput_ops_s": _metric(
                ok_ops / len(plain) / sum(per_op), "1/s", n),
            "latency_p50_ms": _metric(statistics.median(per_op) * 1e3,
                                      "ms", n),
            "latency_p95_ms": _metric(
                statistics.quantiles(per_op, n=20)[-1] * 1e3, "ms", n),
            "cpu_s": _metric(
                sum(_all_ops(n, live, per_op_median(plain, "cpus"))), "s", n),
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB", 1),
            "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        }

    slowest = sorted(range(n), key=per_op.__getitem__)[-SLOWEST:]
    if not trace:
        # Solver nodes of the slowest ops, from one traced rerun of each.
        rerun = [i for i in slowest if ref.codes[i] is not None]
        p = run_pass(cli, [ops[i] for i in rerun], SAFETY * DEADLINE_S,
                     Tracer())
        nodes_by_op = {rerun[j]: nodes for j, nodes in p.nodes_by_op.items()}
    return {
        "workload": workload,
        "why": WORKLOADS[workload].why,
        "seed": seed,
        "trace": int(trace),
        "corpus_ops": n,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "deadline_s": DEADLINE_S,
        "failed_frac": _metric(failed / attempted, "ratio", attempted),
        "stdout_sha256": stdout_sha,
        "counts": counts,
        "slowest": [{"graph6": ops[i].graph6, "k": ops[i].k,
                     "command": " ".join(ops[i].argv),
                     "latency_ms": per_op[i] * 1e3,
                     "aborted": ref.codes[i] is None,
                     "nodes": nodes_by_op.get(i, {})}
                    for i in reversed(slowest)],
        "wrong": wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("frac", "per_labeling")):
        return "ratio"
    return "count"


def result_line(report: dict) -> dict:
    return {"correct": not report["wrong"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in report["metrics"].items()}}


def print_table(report: dict) -> None:
    rows = dict(report["metrics"])
    if not report["trace"]:
        rows["failed_frac"] = report["failed_frac"]
    print(f"{report['workload']} seed={report['seed']} "
          f"corpus={report['corpus_ops']} passes={report['passes']}",
          file=sys.stderr)
    for name, m in rows.items():
        print(f"  {name:48} {m['value']:>14.6g} {m['unit']:6} "
              f"n={m['samples']}", file=sys.stderr)
    for why in report["wrong"][:10]:
        print(f"  WRONG {why}", file=sys.stderr)


def run_all(args) -> dict:
    """Every workload in its own process; metric names get a prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rkdom" / "cli.py").is_file():
        print(f"bench: {ROOT / 'src' / 'rkdom'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print_table(report)
        print(json.dumps(report))
        result = result_line(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
