"""Pinned outputs of the seeded corpus, so that a change meant to keep every
output shows that it did.

identity.json holds one row per run:
- fptras: corpus_instance seeds 0-59 on both hom backends, with the exact
  probe (probe_budget 20000) and without it (0), at epsilon 0.3, delta 0.2
  and the corpus seed: the estimate and every OracleStats field;
- fhw: plain_cq_instance seeds 0-79 and 30001-30040 through
  count_answers_fhw_pipeline: the count, the fhw and whether it is exact.

A change that alters these outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_identity.py --rewrite

and says in CHANGES.md why they changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from cqcount import OracleStats, approx_count_answers, count_answers_fhw_pipeline
from cqcount.reduction import HOM_BACKENDS

from conftest import corpus_instance, plain_cq_instance

PINNED = Path(__file__).with_name("identity.json")


def fptras_rows():
    for seed in range(60):
        q, d = corpus_instance(seed)
        for backend in HOM_BACKENDS:
            for probe in (20_000, 0):
                stats = OracleStats()
                estimate = approx_count_answers(
                    q, d, 0.3, 0.2, seed, backend, stats, probe_budget=probe
                )
                yield {"seed": seed, "backend": backend, "probe_budget": probe,
                       "estimate": estimate, **stats.as_dict()}


def fhw_rows():
    for seed in [*range(80), *range(30001, 30041)]:
        got = count_answers_fhw_pipeline(*plain_cq_instance(seed))
        yield {"seed": seed, "count": got.count, "fhw": str(got.fhw), "exact": got.exact}


ROWS = {"fptras": fptras_rows, "fhw": fhw_rows}


@pytest.mark.parametrize("name", ROWS)
def test_outputs_match_pinned_rows(name):
    want = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    got = list(ROWS[name]())
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name} row {i} differs: pinned {w}, now {g}"
    assert len(got) == len(want), f"{name}: {len(want)} rows pinned, {len(got)} now"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    parts = []
    for name, rows in ROWS.items():
        body = ",\n".join(f"    {json.dumps(row)}" for row in rows())
        parts.append(f'  "{name}": [\n{body}\n  ]')
    PINNED.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
