"""cqcount benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fptras-lihom --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Set-up writes every op's query and database files under
`perfbench/.work/<workload>/` and is repeated SETUP_REPEATS times. The run
then makes passes over the workload's ops, each op one `cli.cmd_count`
call, one after the other in this one thread, until another pass would not
fit in `--seconds` (and at least 11 ops have run, for the tail). Every op's
output is checked against a reference counted beforehand.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each pass twice
with the same seeds, untraced and then traced, checks that the outputs are
identical, and reports the per-layer metrics of the traced passes; spans go
to `perfbench/.work/<workload>/spans.jsonl`.

End-to-end times are CPU times scaled to a reference host speed. A fixed
calibration kernel runs before every op and after it; an op's CPU time is
multiplied by REFERENCE_CAL_S over the mean of the two kernel times. On a
shared host the speed of the same code swings by 1.5-2x within seconds, and
the scaling takes that swing out (NOTES.md, "Host noise").

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. The line before it gives
details: pass count, tail percentile, failed ratio, worst relative error,
the raw wall-clock figures and the kernel's median time.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
TAIL_BEYOND = 10


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest sample with at least `beyond` samples strictly above it,
    and its percentile (the share of samples at or below it, in %)."""
    s = sorted(samples)
    i = len(s) - 1 - beyond
    while i >= 0 and s[i] == s[i + 1]:
        i -= 1
    if i < 0:
        raise ValueError(f"need more than {beyond} distinct tail samples, got {len(s)}")
    return s[i], 100.0 * (i + 1) / len(s)


def _calibration_graph(n: int = 40) -> list[list[int]]:
    graph: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in random.Random(f"calibration/{v}").sample(range(n), 3):
            if u != v and u not in graph[v]:
                graph[v].append(u)
                graph[u].append(v)
    return graph


_CAL_GRAPH = _calibration_graph()
# Process time of calibration_work() on the 2-vCPU host the benchmark was
# built on, at a quiet moment.
REFERENCE_CAL_S = 0.0045


def calibration_work() -> int:
    """Fixed pure-Python work of the kinds the program's hot loops do, in
    about equal parts: recursive backtracking over a graph with set and list
    churn and a dict keyed by frozensets, and a plain integer loop. A host
    under load slows the first kind more than the program and the second
    less, so the kernel holds both. It uses nothing from cqcount, so no
    change to the program changes its time."""

    def extend(path, seen, depth):
        if depth == 0:
            return 1
        total = 0
        for w in _CAL_GRAPH[path[-1]]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                total += extend(path, seen, depth - 1)
                path.pop()
                seen.discard(w)
        return total

    memo: dict = {}
    total = 0
    for v in range(len(_CAL_GRAPH)):
        total += extend([v], {v}, 3)
        for w in _CAL_GRAPH[v]:
            key = frozenset((v, w))
            memo[key] = memo.get(key, 0) + v * w
    for i in range(30_000):
        total += i * i
    return total + len(memo)


def calibrate() -> float:
    """Process time of one calibration_work() call, in seconds."""
    start = time.process_time()
    calibration_work()
    return time.process_time() - start


def scaled(cpu_s: float, cal_before: float, cal_after: float) -> float:
    """CPU time at reference speed: `cpu_s` scaled by REFERENCE_CAL_S over
    the mean kernel time measured around it."""
    return cpu_s * REFERENCE_CAL_S / ((cal_before + cal_after) / 2)


def setup(workload: str, seed: int, work: Path):
    """Import cqcount afresh and write every op's files; returns the modules
    and, per op, (query path, db path, instance)."""
    for name in [m for m in sys.modules if m == "cqcount" or m.startswith("cqcount.")]:
        del sys.modules[name]
    cq = importlib.import_module("cqcount")
    mods = {m: importlib.import_module(f"cqcount.{m}") for m in tr.WRAPPED}
    files = {}
    for spec in wl.WORKLOADS[workload]:
        inst = spec.build(cq, wl.instance_rng(seed, spec.name))
        qpath, dpath = work / f"{spec.name}.query.txt", work / f"{spec.name}.db.json"
        cq.dump_query(inst.query, qpath)
        cq.dump_database(inst.database, dpath)
        files[spec.name] = (str(qpath), str(dpath), inst)
    return mods, files


def run_op(cli, spec, files, seed: int):
    """One closed-loop request: ((wall seconds, CPU seconds), report or None,
    error)."""
    qpath, dpath, _ = files[spec.name]
    cfg = spec.config(cli, seed)
    report, error = None, None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        report = cli.cmd_count(qpath, dpath, cfg)
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return (time.perf_counter() - wall, time.process_time() - cpu), report, error


def output_of(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "duration_seconds"}


def relative_error(spec, report: dict, reference: int) -> float:
    value = report["estimate"] if spec.method == "fptras" else report["count"]
    if reference == 0:
        return 0.0 if value == 0 else math.inf
    return abs(value - reference) / reference


def within(spec, rel_err: float) -> bool:
    return rel_err <= (wl.EPSILON if spec.method == "fptras" else 0.0)


class Run:
    """Ops attempted and failed, their latencies and relative errors.
    Latencies are scaled CPU times; raw_* are the wall-clock ones."""

    def __init__(self, specs, files, references, seed: int):
        self.specs, self.files, self.references, self.seed = specs, files, references, seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.by_op: dict[str, list[float]] = {s.name: [] for s in specs}
        self.raw_latencies: list[float] = []
        self.raw_by_op: dict[str, list[float]] = {s.name: [] for s in specs}
        self.rel_errs: list[float] = []
        self.cals: list[float] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def one_pass(self, cli, pass_index: int, tracer=None):
        """Run every op once; returns (seconds, reports by op name)."""
        reports = {}
        start = time.perf_counter()
        cal = calibrate()
        for spec in self.specs:
            seed = wl.op_seed(self.seed, pass_index, spec.name)
            if tracer is None:
                (wall, cpu), report, error = run_op(cli, spec, self.files, seed)
            else:
                tracer.op_id += 1
                with tracer.span(tr.OP_SPAN):
                    (wall, cpu), report, error = run_op(cli, spec, self.files, seed)
            cal_before, cal = cal, calibrate()
            self.cals.append(cal)
            latency = scaled(cpu, cal_before, cal)
            self.attempted += 1
            self.latencies.append(latency)
            self.by_op[spec.name].append(latency)
            self.raw_latencies.append(wall)
            self.raw_by_op[spec.name].append(wall)
            if error is not None:
                self.fail(f"pass {pass_index} {spec.name}: {error}")
                continue
            err = relative_error(spec, report, self.references[spec.name])
            self.rel_errs.append(err)
            if not within(spec, err):
                self.fail(f"pass {pass_index} {spec.name}: relative error {err}")
            reports[spec.name] = report
        return time.perf_counter() - start, reports


def timed_loop(seconds: float, step, enough, min_steps: int = 1) -> list:
    """Call step(i) until another step of the longest length so far would
    end after `seconds`, enough() holds and min_steps steps have run."""
    out, lengths = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        lengths.append(time.perf_counter() - t0)
        if (time.perf_counter() - start + max(lengths) > seconds and enough()
                and len(out) >= min_steps):
            return out


def check_rerun(run: Run, cli, first_reports: dict) -> None:
    """Re-running the first op with its pass-0 seed gives the same output."""
    spec = run.specs[0]
    if spec.name not in first_reports:
        return
    _, report, error = run_op(cli, spec, run.files, wl.op_seed(run.seed, 0, spec.name))
    if error is not None or output_of(report) != output_of(first_reports[spec.name]):
        run.fail(f"re-run of {spec.name} with the same seed differs: {error or report}")


def end_to_end(run: Run, cli, seconds: float, setup_s: float, min_passes: int):
    passes = timed_loop(
        seconds,
        lambda i: run.one_pass(cli, i),
        lambda: len(run.latencies) > TAIL_BEYOND,
        min_passes,
    )
    check_rerun(run, cli, passes[0][1])
    tail, pct = tail_percentile(run.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_seconds(run.by_op), "s"),
        "op_p50_ms": (1e3 * statistics.median(run.latencies), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"passes": len(passes), "op_tail_percentile": round(pct, 2),
              "op_tail_beyond": TAIL_BEYOND,
              "raw_wall_s": pass_seconds(run.raw_by_op),
              "raw_op_p50_ms": 1e3 * statistics.median(run.raw_latencies),
              "raw_op_tail_ms": 1e3 * tail_percentile(run.raw_latencies)[0],
              "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in run.by_op.items()}}
    return metrics, detail


def pass_seconds(by_op: dict[str, list[float]]) -> float:
    """One pass over the ops, as the sum of each op's median latency."""
    return sum(statistics.median(v) for v in by_op.values())


def traced(run: Run, cli, mods, seconds: float, work: Path):
    tracer = tr.Tracer()
    ops_index: list[dict] = []

    def pair(i: int):
        plain_s, plain = run.one_pass(cli, i)
        with tr.installed(tracer, mods):
            traced_s, seen = run.one_pass(cli, i, tracer)
        ops_index.extend({"pass": i, "name": s.name} for s in run.specs)
        for name, report in seen.items():
            if name in plain and output_of(report) != output_of(plain[name]):
                run.fail(f"pass {i} {name}: traced output differs from untraced")
        return traced_s - plain_s, seen

    pairs = timed_loop(seconds, pair, lambda: True)
    check_rerun(run, cli, pairs[0][1])
    td_spec = next((s for s in run.specs if s.backend == "td-dp"), None)
    bf_us = 0.0
    if td_spec is not None:
        bf_us = bruteforce_us_per_hom_call(run, cli, mods, td_spec, pairs[0][1])
    tracer.write(work / "spans.jsonl", ops_index)
    traced_reports = [r for _, seen in pairs for r in seen.values()]
    exact_limit = cli.DEFAULT_LIMITS["fhw_vertex_limit"]
    small_ops = sum(
        1
        for _, seen in pairs
        for name, report in seen.items()
        if report["method"] == "fhw" and run.files[name][2].n_vars <= exact_limit
    )
    metrics = layer_metrics(tracer, traced_reports, len(pairs), small_ops)
    metrics["trace.overhead_s"] = (statistics.median(p[0] for p in pairs), "s")
    metrics["homsolver.td_over_bruteforce_per_hom_call"] = (
        _per(metrics["reduction.us_per_hom_call"][0], bf_us), "ratio")
    return metrics, {"passes": len(pairs), "spans": len(tracer)}


def bruteforce_us_per_hom_call(run: Run, cli, mods, td_spec, td_reports) -> float:
    """Time per hom call of the bruteforce backend on a td-dp op's own
    instance and pass-0 seed; its output must equal the td-dp one."""
    spec = dataclasses.replace(td_spec, backend="bruteforce")
    tracer = tr.Tracer()
    with tr.installed(tracer, mods):
        _, report, error = run_op(cli, spec, run.files, wl.op_seed(run.seed, 0, spec.name))
    td_report = td_reports.get(spec.name)
    if error is not None or td_report is None:
        run.fail(f"bruteforce run of the td-dp instance failed: {error}")
        return 0.0
    if output_of(report) | {"hom_backend": "td-dp"} != output_of(td_report):
        run.fail("td-dp and bruteforce outputs differ on the same seed")
    _, incl, _ = tracer.totals()
    return 1e6 * _per(incl["reduction.edgefree_restricted"], report["oracle_stats"]["hom_calls"])


def _per(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: tr.Tracer, reports: list[dict], n_passes: int, small_ops: int):
    calls, incl, selfs = tracer.totals()
    c = tracer.counts
    stats: Counter = Counter()
    for r in reports:
        stats.update(r.get("oracle_stats") or {})

    def per_pass(x):
        return x / n_passes

    fhw_small = calls["widths.fhw_exact_small"] + calls["automata.fhw_exact_small"]
    return {
        "qmodel.load_s": (per_pass(selfs["cli.load_query"] + selfs["cli.load_database"]), "s"),
        "qmodel.normalize_s": (per_pass(selfs["cli.normalize_equalities"]), "s"),
        "cli.self_s": (per_pass(selfs[tr.OP_SPAN]), "s"),
        "reduction.edgefree_s": (per_pass(incl["reduction.edgefree_restricted"]), "s"),
        "reduction.hom_calls": (per_pass(stats["hom_calls"]), "count"),
        "reduction.us_per_hom_call": (
            1e6 * _per(incl["reduction.edgefree_restricted"], stats["hom_calls"]), "us"),
        "reduction.colourings_per_edgefree_call": (
            _per(c["colourings_edgefree"], c["edgefree_after_colouring"]), "count"),
        "reduction.witness_per_colouring": (_per(c["witness_found"], c["colourings"]), "ratio"),
        "reduction.oracle_queries": (per_pass(c["oracle_queries"]), "count"),
        "reduction.edgefree_calls": (per_pass(stats["edgefree_calls"]), "count"),
        "reduction.memo_hit_ratio": (_per(c["memo_hits"], c["oracle_queries"]), "ratio"),
        "reduction.probe_s": (per_pass(incl["reduction.count_edges_exact_oracle"]), "s"),
        "reduction.walk_s": (per_pass(incl["reduction.single_walk_estimate"]), "s"),
        "reduction.walks": (per_pass(stats["estimator_walks"]), "count"),
        "reduction.restarts": (per_pass(stats["restarts"]), "count"),
        "homsolver.hom_exists_td.calls": (per_pass(calls["reduction.hom_exists_td"]), "count"),
        "homsolver.us_per_td_call": (
            1e6 * _per(incl["reduction.hom_exists_td"], calls["reduction.hom_exists_td"]), "us"),
        "widths.treewidth_exact_s": (per_pass(selfs["reduction.treewidth_exact"]), "s"),
        "widths.fhw_exact_small.calls.cli": (per_pass(calls["widths.fhw_exact_small"]), "count"),
        "widths.fhw_exact_small.calls.automata": (
            per_pass(calls["automata.fhw_exact_small"]), "count"),
        "widths.fhw_exact_small.calls_per_small_op": (_per(fhw_small, small_ops), "count"),
        "widths.fhw_exact_small_s": (
            per_pass(selfs["widths.fhw_exact_small"] + selfs["automata.fhw_exact_small"]), "s"),
        "widths.treewidth_heuristic_s": (
            per_pass(selfs["widths.treewidth_heuristic"] + selfs["automata.treewidth_heuristic"]),
            "s"),
        "widths.fhw_of_td_s": (
            per_pass(selfs["widths.fhw_of_td"] + selfs["automata.fhw_of_td"]), "s"),
        "widths.make_nice_s": (
            per_pass(selfs["reduction.make_nice"] + selfs["automata.make_nice"]), "s"),
        "lp.solve_min.calls": (per_pass(calls["widths.solve_min"]), "count"),
        "lp.solve_min_s": (per_pass(selfs["widths.solve_min"]), "s"),
        "automata.build_s": (per_pass(selfs["automata.build_automaton"]), "s"),
        "automata.sol_bag.calls": (per_pass(calls["automata.sol_bag"]), "count"),
        "automata.sol_bag_s": (per_pass(selfs["automata.sol_bag"]), "s"),
        "automata.states": (per_pass(c["states"]), "count"),
        "automata.transitions": (per_pass(c["transitions"]), "count"),
        "automata.slice_dp_s": (per_pass(selfs["automata.count_slice_exact"]), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cqcount" / "__init__.py").is_file():
        print(f"error: no cqcount package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / "perfbench" / ".work" / args.workload
    work.mkdir(parents=True, exist_ok=True)

    setup_times = []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        mods, files = setup(args.workload, args.seed, work)
        cpu = time.process_time() - start
        cal_before, cal = cal, calibrate()
        setup_times.append(scaled(cpu, cal_before, cal))
    specs = wl.WORKLOADS[args.workload]
    references = {s.name: files[s.name][2].reference() for s in specs}
    run = Run(specs, files, references, args.seed)
    cli = mods["cli"]

    if args.trace:
        metrics, detail = traced(run, cli, mods, args.seconds, work)
    else:
        metrics, detail = end_to_end(run, cli, args.seconds, statistics.median(setup_times),
                                     wl.MIN_PASSES.get(args.workload, 1))
    detail.update(
        workload=args.workload,
        seed=args.seed,
        ops=run.attempted,
        failed_ratio=run.failed / run.attempted,
        rel_err_max=max(run.rel_errs, default=0.0),
        cal_ms=1e3 * statistics.median(run.cals),
        problems=run.problems,
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
