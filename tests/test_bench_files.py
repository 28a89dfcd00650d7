"""Every BENCH_*.json at the repository root covers the benchmark it reports.

A change that claims a speed-up checks in perfbench runs of its parent and
of itself (README, "Benchmark"); such a file must name every workload and
every end-to-end metric that BENCHMARK.json declares, for both sides.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_covers_every_workload_and_end_to_end_metric(path):
    bench = json.loads(path.read_text())
    metrics = {m["name"] for m in DECLARED["end_to_end"]}
    for workload in (w["name"] for w in DECLARED["workloads"]):
        entry = bench["workloads"][workload]
        assert entry["pairs"], workload
        for pair in entry["pairs"]:
            for side in SIDES:
                assert metrics <= set(pair[side]["result"]["metrics"]), (workload, side)
        for metric in metrics:
            assert set(SIDES) <= set(entry["summary"][metric]), (workload, metric)
        for side in SIDES:
            assert entry["trace"][side]["passes"] >= 1, (workload, side)
