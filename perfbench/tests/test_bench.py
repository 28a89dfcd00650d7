"""Tests of the benchmark itself: the tail rule, the scaling by the
calibration kernel, self-time arithmetic, the reference counters, and that
tracing changes no output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cqcount  # noqa: E402
from cqcount import automata, cli, reduction, widths  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = {"reduction": reduction, "automata": automata, "widths": widths, "cli": cli}


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_is_highest_sample_with_ten_beyond():
    assert run.tail_percentile(range(1, 101)) == (90, 90.0)
    assert run.tail_percentile(range(1, 21)) == (10, 50.0)
    assert run.tail_percentile(list(range(11, 0, -1))) == (1, 100 / 11)


def test_tail_skips_ties_so_ten_lie_strictly_beyond():
    samples = [1] * 5 + [2] * 15
    assert run.tail_percentile(samples) == (1, 25.0)


def test_tail_needs_eleven_distinct_enough_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))
    with pytest.raises(ValueError):
        run.tail_percentile([3.0] * 50)


# ---------------------------------------------------------------------------
# scaling by the calibration kernel
# ---------------------------------------------------------------------------

def test_scaled_divides_by_mean_kernel_time():
    ref = run.REFERENCE_CAL_S
    assert run.scaled(0.5, ref, ref) == pytest.approx(0.5)
    # a host twice as slow around the op gives the same scaled time
    assert run.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert run.scaled(0.3, ref, 2 * ref) == pytest.approx(0.2)


def test_calibration_work_is_fixed():
    assert run.calibration_work() == run.calibration_work()
    assert run.calibrate() > 0


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    intervals = [(0.0, 10.0), (1.0, 3.0), (2.0, 5.0), (8.0, 12.0), (2.5, 2.75)]
    parents = [-1, 0, 0, 0, 2]
    got = spans.self_times(intervals, parents)
    # children cover [1, 5] and [8, 10] of the root; the grandchild only
    # shortens its own parent
    assert got == pytest.approx([4.0, 2.0, 2.75, 4.0, 0.25])


def test_tracer_totals_split_inclusive_and_self():
    t = spans.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    calls, incl, selfs = t.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert selfs["outer"] == pytest.approx(incl["outer"] - incl["inner"])
    assert selfs["inner"] == pytest.approx(incl["inner"])


# ---------------------------------------------------------------------------
# references and generators
# ---------------------------------------------------------------------------

def test_random_regular_is_simple_regular_and_seeded():
    edges = wl.random_regular(16, 4, random.Random(3))
    assert edges == wl.random_regular(16, 4, random.Random(3))
    assert len(edges) == len(set(edges)) == 32
    assert all(u < v for u, v in edges)
    assert all(len(n) == 4 for n in wl.neighbours(edges, 16))


@pytest.mark.parametrize("op", ["p3-12", "p4-8"])
def test_lihom_reference_matches_bruteforce(op):
    spec = next(s for s in wl.WORKLOADS["fptras-lihom"] if s.name == op)
    inst = spec.build(cqcount, random.Random(5))
    assert inst.reference() == cqcount.count_answers_bruteforce(inst.query, inst.database)


@pytest.mark.parametrize(
    "build",
    [wl.path_query(4, 10), wl.cycle_query(3, 1, 10), wl.cycle_query(4, 2, 10),
     wl.cycle_query(5, 2, 8)],
)
def test_walk_set_references_match_bruteforce(build):
    inst = build(cqcount, random.Random(7))
    assert inst.reference() == cqcount.count_answers_bruteforce(inst.query, inst.database)


# ---------------------------------------------------------------------------
# transparency of the wrappers
# ---------------------------------------------------------------------------

def _tiny_lihom():
    edges = wl.random_regular(8, 4, random.Random(11))
    return cqcount.gen_li_hom(wl.P3, edges)


@pytest.mark.parametrize("backend", ["bruteforce", "td-dp"])
@pytest.mark.parametrize("probe_budget", [20_000, 50])
def test_tracing_leaves_estimate_and_oracle_stats_unchanged(backend, probe_budget):
    q, d = _tiny_lihom()

    def count():
        stats = reduction.OracleStats()
        est = reduction.approx_count_answers(
            q, d, wl.EPSILON, wl.DELTA, 9, backend=backend, stats=stats,
            probe_budget=probe_budget,
        )
        return est, stats.as_dict()

    plain = count()
    tracer = spans.Tracer()
    with spans.installed(tracer, MODULES):
        traced = count()
    assert traced == plain
    assert len(tracer) > 0
    if probe_budget == 50:
        assert plain[1]["estimator_walks"] > 0
        assert tracer.counts["oracle_queries"] > tracer.counts["edgefree_restricted"]


def test_installed_restores_every_attribute():
    before = {(m, a): getattr(MODULES[m], a) for m, attrs in spans.WRAPPED.items() for a in attrs}
    with spans.installed(spans.Tracer(), MODULES):
        assert all(getattr(MODULES[m], a) is not fn for (m, a), fn in before.items())
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in before.items())


def test_traced_cli_runs_give_identical_reports(tmp_path):
    files = {}
    specs = [wl.WORKLOADS["fptras-lihom"][0], wl.WORKLOADS["fhw-plain"][2]]
    for spec in specs:
        inst = spec.build(cqcount, random.Random(2))
        qp, dp = tmp_path / f"{spec.name}.q", tmp_path / f"{spec.name}.db"
        cqcount.dump_query(inst.query, qp)
        cqcount.dump_database(inst.database, dp)
        files[spec.name] = (str(qp), str(dp), inst)
    for spec in specs:
        _, plain, err = run.run_op(cli, spec, files, 4)
        assert err is None
        tracer = spans.Tracer()
        with spans.installed(tracer, MODULES):
            _, traced, err = run.run_op(cli, spec, files, 4)
        assert err is None
        assert run.output_of(traced) == run.output_of(plain)
        assert run.relative_error(spec, plain, files[spec.name][2].reference()) <= wl.EPSILON
