"""Pinned outputs of the seeded corpus, so that a change meant to keep every
output shows that it did.

identity.json holds one row per run:
- fptras: corpus_instance seeds 0-59 on both hom backends, with the exact
  probe (probe_budget 20000) and without it (0), at epsilon 0.3, delta 0.2
  and the corpus seed: the estimate and every OracleStats field;
- fhw: plain_cq_instance seeds 0-79 and 30001-30040 through
  count_answers_fhw_pipeline: the count, the fhw and whether it is exact;
- cli: cli.main runs over graphs on string names, whose sets iterate in
  an order that string hashing decides: the argv, the exit code, the report
  without duration_seconds (None when there is none) and the error: lines;
- clique: fptras runs, as in the fptras rows, whose disequality cliques
  have three or more variables: a K3 over domains wider than one 32-bit
  word, a K4 whose boxes draw several blocks of samples, a K3 with a pendant
  K2 and two K3s. On td-dp their colourings are decoded from the high bytes
  of the generator's 32-bit words, in an order that the Python version
  could in principle change. bruteforce decides their boxes exactly and
  draws no colouring, so its rows pin the estimate and the counters of that
  path: no colourings and one hom call per box with no empty layer.

One process sees one string hash seed, so CI runs this file under two
PYTHONHASHSEED values. A change that alters these outputs on purpose
rewrites the file with

    PYTHONPATH=src python tests/test_identity.py --rewrite

and says in CHANGES.md why they changed.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cqcount import (
    Database,
    OracleStats,
    approx_count_answers,
    cli,
    count_answers_fhw_pipeline,
    gen_hampath,
    gen_li_hom,
    parse_query,
)
from cqcount.reduction import HOM_BACKENDS, ImplicitAnswerHypergraph

from conftest import corpus_instance, plain_cq_instance
from helpers import k3_with_pendant

PINNED = Path(__file__).with_name("identity.json")


def fptras_runs(q, d, seed):
    for backend in HOM_BACKENDS:
        for probe in (20_000, 0):
            stats = OracleStats()
            estimate = approx_count_answers(
                q, d, 0.3, 0.2, seed, backend, stats, probe_budget=probe
            )
            yield {"backend": backend, "probe_budget": probe,
                   "estimate": estimate, **stats.as_dict()}


def fptras_rows():
    for seed in range(60):
        for row in fptras_runs(*corpus_instance(seed), seed):
            yield {"seed": seed, **row}


def clique_instances():
    star = [(0, 1), (0, 2), (0, 3)]
    for n in (33, 64):
        # A cycle with one chord: only the chord's ends have three
        # neighbours, so the star has 12 answers over n values, more than
        # one 32-bit word of draws per colouring.
        cycle = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
        yield f"star-c{n}", gen_li_hom(star, cycle)
    # One K4 over 4 values: at delta 0.2 each box has 14 * 4**4 = 3,584
    # samples, several blocks of them.
    yield "ham-k4", gen_hampath(list(itertools.combinations(range(4), 2)), 4)
    yield "k3-pendant", k3_with_pendant()
    # Two K3s of one size: a sample colours the domain once per clique.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    yield "two-k3", (
        parse_query("q(a, x) :- E(a, b), E(b, c), E(x, y), E(y, z), "
                    "a != b, b != c, a != c, x != y, y != z, x != z"),
        Database.make(range(5), {"E": (2, edges + [(v, u) for u, v in edges])}),
    )


def clique_rows():
    for case, (q, d) in clique_instances():
        for row in fptras_runs(q, d, 3):
            yield {"case": case, **row}


def fhw_rows():
    for seed in [*range(80), *range(30001, 30041)]:
        got = count_answers_fhw_pipeline(*plain_cq_instance(seed))
        yield {"seed": seed, "count": got.count, "fhw": str(got.fhw), "exact": got.exact}


QUERIES = {
    "q": "q(x, y) :- E(x, y), E(y, z), !E(z, x), x != z",
    # A K3 of disequalities draws one rng.randrange(3) per value, decoded
    # in blocks of samples by _draw_values, a path that the single K2 of q
    # never takes.
    "k3": "q(x, y, z) :- E(x, y), E(y, z), x != y, y != z, x != z",
    # A K4 of disequalities over 5 values: most of its colourings leave a
    # colour class empty, and those are counted but not searched.
    "ham": "q(a, b, c, e) :- E(a, b), E(b, c), E(c, e), "
           "a != b, a != c, a != e, b != c, b != e, c != e",
    # A K3 plus a pendant K2 of disequalities, so each sample draws through
    # both branches of _colour_classes, one sample at a time, and a negated
    # atom on a repeated variable, over the graph with self-loops.
    "mix": "q(x, y, z) :- E(x, y), E(y, z), E(z, w), !E(y, y), "
           "x != y, y != z, x != z, z != w",
    # Its count needs frontier_limit 659, and its bag tables have at most
    # 42 rows.
    "path": "q(x, w) :- E(x, y), E(y, z), E(z, w)",
    # Three two-edge arms: the nice decomposition has two join nodes.
    "star": "q(x, b0, b1) :- E(x, a0), E(a0, b0), E(x, a1), E(a1, b1), "
            "E(x, a2), E(a2, b2)",
    # Acyclic with a ternary atom and a free interior variable: width 1,
    # found by the same rho* search as any other query, and forgetting y
    # splits the slice DP's label groups.
    "tern": "q(y, v) :- E(x, y), T(y, z, w), E(w, v)",
    # A 4-cycle with a chord still solves a packing LP for its bags.
    "chord": "q(a, c) :- E(a, b), E(b, c), E(c, d), E(d, a), E(a, c)",
    # Over both vertex limits of 4: the min-fill branches of tw and fhw,
    # whose ties _vkey breaks on string names.
    "path11": "q(y0) :- " + ", ".join(f"E(y{i}, y{i + 1})" for i in range(10)),
}


def databases() -> dict[str, dict]:
    """The circulant digraph on 14 tree names with offsets 1, 3 and 4, on its
    own, on its first 5 names, with self-loops on oak and fir, and with a
    ternary T of offsets (1, 2) and (1, 5)."""
    names = ["ash", "birch", "cedar", "elm", "fir", "hazel", "holly", "larch",
             "lime", "maple", "oak", "pine", "rowan", "yew"]
    n = len(names)
    edges = sorted([names[i], names[(i + k) % n]] for i in range(n) for k in (1, 3, 4))
    triples = sorted([names[i], names[(i + 1) % n], names[(i + k) % n]]
                     for i in range(n) for k in (2, 5))
    few = names[:5]

    def doc(domain, **relations):
        return {"domain": domain, "relations": {
            name: {"arity": len(tuples[0]), "tuples": tuples}
            for name, tuples in relations.items()}}

    return {
        "trees": doc(names, E=edges),
        "few": doc(few, E=[e for e in edges if e[0] in few and e[1] in few]),
        "loops": doc(names, E=edges + [["oak", "oak"], ["fir", "fir"]]),
        "ternary": doc(names, E=edges, T=triples),
    }


def cli_argvs():
    # probe_budget 0 skips the exact probe, so the walks run too.
    fptras = ["--method", "fptras", "--epsilon", "0.25", "--delta", "0.1", "--seed", "5"]
    for query, db in [("q", "trees"), ("k3", "trees"), ("ham", "few"), ("mix", "loops")]:
        for probe in (20_000, 0):
            for backend in HOM_BACKENDS:
                yield ["count", "--query", f"{query}.txt", "--db", f"{db}.json", *fptras,
                       "--hom-backend", backend, "--limit", f"probe_budget={probe}"]
    # frontier_limit 658 and 100 and state_limit 41 exit 4. The bag tables
    # are made in node order, so an error names the first bag over a limit.
    for query, limits in [
        ("path", []), ("path", ["frontier_limit=659"]), ("path", ["frontier_limit=658"]),
        ("path", ["frontier_limit=100"]), ("path", ["state_limit=42"]),
        ("path", ["state_limit=41"]), ("star", []), ("tern", []),
    ]:
        yield ["count", "--query", f"{query}.txt", "--db", "ternary.json", "--method", "fhw",
               *[arg for limit in limits for arg in ("--limit", limit)]]
    for query, limits in [
        ("path", []), ("chord", []),
        ("path11", ["tw_vertex_limit=4", "fhw_vertex_limit=4"]), ("tern", []),
    ]:
        yield ["analyze", "--query", f"{query}.txt", "--measures", "tw,fhw,rho",
               *[arg for limit in limits for arg in ("--limit", limit)]]


def cli_rows():
    rows = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in QUERIES.items():
            Path(tmp, f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        for name, doc in databases().items():
            Path(tmp, f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv in cli_argvs():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(argv)
                report = json.loads(out.getvalue()) if out.getvalue() else None
                if report is not None:
                    del report["duration_seconds"]
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error:")]
                rows.append({"argv": argv, "exit": code, "report": report, "errors": errors})
        finally:
            os.chdir(cwd)
    return rows


ROWS = {"fptras": fptras_rows, "fhw": fhw_rows, "cli": cli_rows, "clique": clique_rows}


def pinned() -> dict[str, list]:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ROWS)
def test_outputs_match_pinned_rows(name):
    want = pinned()[name]
    got = list(ROWS[name]())
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name} row {i} differs: pinned {w}, now {g}"
    assert len(got) == len(want), f"{name}: {len(want)} rows pinned, {len(got)} now"


def exact_on_bruteforce(query: str) -> bool:
    """Whether bruteforce decides the boxes of QUERIES[query] exactly, with
    no colour sample: its disequality cover has a clique of three or more."""
    q = parse_query(QUERIES[query])
    ih = ImplicitAnswerHypergraph(q, Database.make([0], {"E": (2, [])}))
    return ih.evaluator("bruteforce").exact


def test_both_hom_backends_give_the_same_cli_report():
    # The two backends answer every search alike, so each pinned fptras run
    # of a K2-only cover reports the same as on the other backend, apart
    # from hom_backend. A cover with a clique of k >= 3 is colour-coded on
    # td-dp only, so there the runs agree on the exit code, the error lines,
    # the estimate and the counters that count no sample.
    runs: dict[tuple, dict] = {}
    for row in pinned()["cli"]:
        argv = list(row["argv"])
        if "--hom-backend" not in argv:
            continue
        at = argv.index("--hom-backend")
        backend = argv[at + 1]
        del argv[at : at + 2]
        report = dict(row["report"])
        assert report.pop("hom_backend") == backend
        runs.setdefault(tuple(argv), {})[backend] = (row["exit"], report, row["errors"])
    assert len(runs) == 8
    exact = 0
    for argv, by_backend in runs.items():
        if exact_on_bruteforce(argv[argv.index("--query") + 1].removesuffix(".txt")):
            exact += 1
            keys = ("edgefree_calls", "estimator_walks", "restarts")
            by_backend = {
                backend: (code, report["estimate"],
                          {k: report["oracle_stats"][k] for k in keys}, errors)
                for backend, (code, report, errors) in by_backend.items()
            }
        assert by_backend["bruteforce"] == by_backend["td-dp"], argv
    assert exact == 6


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    parts = []
    for name, rows in ROWS.items():
        body = ",\n".join(f"    {json.dumps(row)}" for row in rows())
        parts.append(f'  "{name}": [\n{body}\n  ]')
    PINNED.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
