"""Command-line interface: reports, exit codes, limits, generators."""

from __future__ import annotations

import json
import re

import jsonschema
import pytest

from cqcount import Database, dump_database, gen_hampath
from cqcount.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    LIMITS_ENV_VAR,
    REPORT_SCHEMA,
    main,
)

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.fixture
def instance(tmp_path):
    """A fixed on-disk instance: E over {0,1,2} with six directed edges."""
    query = tmp_path / "q.txt"
    query.write_text("q(x, y) :- E(x, y), x != y", encoding="utf-8")
    plain = tmp_path / "plain.txt"
    plain.write_text("q(x, y) :- E(x, y)", encoding="utf-8")
    db = tmp_path / "d.json"
    d = Database.make(
        ["0", "1", "2"],
        {"E": (2, [("0", "1"), ("1", "0"), ("1", "2"),
                   ("2", "1"), ("0", "2"), ("2", "0")])},
    )
    dump_database(d, db)
    return {"query": str(query), "plain": str(plain), "db": str(db)}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_exact(capsys, instance):
    code, doc, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_OK
    assert doc["count"] == 6
    assert doc["method"] == "exact"
    assert "estimate" not in doc
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_count_fptras_reproducible(capsys, instance):
    argv = [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fptras", "--epsilon", "0.25", "--delta", "0.1",
        "--seed", "11",
    ]
    code, doc1, _ = run(capsys, argv)
    assert code == EXIT_OK
    jsonschema.validate(doc1, REPORT_SCHEMA)
    assert doc1["estimate"] == 6
    assert doc1["seed"] == 11
    assert doc1["oracle_stats"]["edgefree_calls"] > 0
    assert "count" not in doc1
    _, doc2, _ = run(capsys, argv)
    assert doc2["estimate"] == doc1["estimate"]


def test_count_fptras_td_backend(capsys, instance):
    code, doc, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fptras", "--epsilon", "0.3", "--delta", "0.2",
        "--seed", "4", "--hom-backend", "td-dp",
    ])
    assert code == EXIT_OK
    assert doc["estimate"] == 6
    assert doc["hom_backend"] == "td-dp"


def test_count_fptras_long_path(capsys, tmp_path):
    # 1,100 variables: a search that recursed once per variable would pass
    # Python's recursion limit.
    xs = [f"x{i}" for i in range(1100)]
    body = ", ".join(f"E({a}, {b})" for a, b in zip(xs, xs[1:]))
    query = tmp_path / "q.txt"
    query.write_text(f"q(x0) :- {body}, x0 != x1099", encoding="utf-8")
    db = tmp_path / "d.json"
    edges = [(u, v) for u in "abc" for v in "abc" if u != v]
    dump_database(Database.make(list("abc"), {"E": (2, edges)}), db)
    docs = {}
    for backend in ("bruteforce", "td-dp"):
        code, docs[backend], _ = run(capsys, [
            "count", "--query", str(query), "--db", str(db), "--method", "fptras",
            "--epsilon", "0.25", "--delta", "0.1", "--seed", "1",
            "--hom-backend", backend,
        ])
        assert code == EXIT_OK
    assert docs["bruteforce"]["estimate"] == docs["td-dp"]["estimate"] == 3
    assert docs["bruteforce"]["oracle_stats"] == docs["td-dp"]["oracle_stats"]


def test_count_fhw(capsys, instance):
    code, doc, _ = run(capsys, [
        "count", "--query", instance["plain"], "--db", instance["db"],
        "--method", "fhw",
    ])
    assert code == EXIT_OK
    assert doc["count"] == 6
    assert doc["widths"]["fhw"] == "1"
    assert doc["widths"]["exact"] is True
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_count_normalizes_equalities(capsys, tmp_path, instance):
    query = tmp_path / "eq.txt"
    query.write_text("q(x, y) :- E(x, y), x = y", encoding="utf-8")
    code, doc, _ = run(capsys, [
        "count", "--query", str(query), "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_OK
    assert doc["count"] == 0  # no self-loops in the fixture


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_parse_error_query(capsys, tmp_path, instance):
    bad = tmp_path / "bad.txt"
    bad.write_text("q(x :- E(x)", encoding="utf-8")
    code, doc, err = run(capsys, [
        "count", "--query", str(bad), "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_PARSE
    assert doc is None
    assert "error" in err


def test_exit_parse_error_db(capsys, tmp_path, instance):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, _ = run(capsys, [
        "count", "--query", instance["plain"], "--db", str(bad),
        "--method", "exact",
    ])
    assert code == EXIT_PARSE


def test_exit_validation_contradiction(capsys, tmp_path, instance):
    bad = tmp_path / "contra.txt"
    bad.write_text("q(x) :- E(x, y), x != x", encoding="utf-8")
    code, _, _ = run(capsys, [
        "count", "--query", str(bad), "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_VALIDATION


def test_exit_validation_missing_relation(capsys, tmp_path, instance):
    q = tmp_path / "missing.txt"
    q.write_text("q(x) :- Nope(x)", encoding="utf-8")
    code, _, _ = run(capsys, [
        "count", "--query", str(q), "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_VALIDATION


def test_exit_validation_fptras_needs_params(capsys, instance):
    code, _, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fptras",
    ])
    assert code == EXIT_VALIDATION
    assert "epsilon" in err


def test_exit_validation_epsilon_range(capsys, instance):
    code, _, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fptras", "--epsilon", "1.5", "--delta", "0.1",
        "--seed", "1",
    ])
    assert code == EXIT_VALIDATION


def test_exit_validation_fhw_on_disequalities(capsys, instance):
    code, _, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fhw",
    ])
    assert code == EXIT_VALIDATION


def test_exit_validation_missing_file(capsys, instance):
    code, _, _ = run(capsys, [
        "count", "--query", "/nonexistent/q.txt", "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_VALIDATION


def test_exit_validation_unknown_limit(capsys, instance):
    code, _, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "exact", "--limit", "warp_speed=9",
    ])
    assert code == EXIT_VALIDATION
    assert "warp_speed" in err


def test_exit_budget_exhausted(capsys, instance):
    code, _, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "exact", "--limit", "enum_budget=3",
    ])
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_limits_file_from_environment(capsys, tmp_path, monkeypatch, instance):
    limits = tmp_path / "limits.json"
    limits.write_text(json.dumps({"enum_budget": 3}), encoding="utf-8")
    monkeypatch.setenv(LIMITS_ENV_VAR, str(limits))
    code, _, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "exact",
    ])
    assert code == EXIT_BUDGET
    # An explicit flag overrides the file.
    code, doc, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "exact", "--limit", "enum_budget=100000",
    ])
    assert code == EXIT_OK
    assert doc["count"] == 6


FPTRAS = ["--method", "fptras", "--epsilon", "0.25", "--delta", "0.1", "--seed", "11"]


@pytest.mark.parametrize("limit, method", [
    ("oracle_cap=0", FPTRAS),  # used to divide by zero
    ("enum_budget=none", ["--method", "exact"]),
    ("probe_budget=none", FPTRAS),
    ("enum_budget=-1", ["--method", "exact"]),  # used to be accepted silently
    ("fhw_limit=1.5", ["--method", "fhw"]),  # rationals are written p/q
    ("fhw_limit=3/0", ["--method", "fhw"]),
    ("fhw_limit=-3/2", ["--method", "fhw"]),
    ("walk_budget=none", FPTRAS),
])
def test_exit_validation_bad_limit_flag(capsys, instance, limit, method):
    code, _, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        *method, "--limit", limit,
    ])
    assert code == EXIT_VALIDATION
    assert limit.partition("=")[0] in err


@pytest.mark.parametrize("content, named", [
    ({"oracle_cap": "x"}, "oracle_cap"),
    ([1, 2], "JSON object"),
    ({"fhw_limit": 1.5}, "fhw_limit"),
    ({"fhw_limit": True}, "fhw_limit"),
    ({"fhw_limit": "1.5"}, "fhw_limit"),
])
def test_exit_validation_bad_limits_file(
    capsys, tmp_path, monkeypatch, instance, content, named
):
    limits = tmp_path / "limits.json"
    limits.write_text(json.dumps(content), encoding="utf-8")
    monkeypatch.setenv(LIMITS_ENV_VAR, str(limits))
    code, _, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"], *FPTRAS,
    ])
    assert code == EXIT_VALIDATION
    assert named in err


def test_exit_budget_fhw_limit(capsys, tmp_path, instance):
    query = tmp_path / "tri.txt"
    query.write_text("q(x, y, z) :- E(x, y), E(y, z), E(z, x)", encoding="utf-8")
    code, _, err = run(capsys, [
        "count", "--query", str(query), "--db", instance["db"],
        "--method", "fhw", "--limit", "fhw_limit=1",
    ])
    assert code == EXIT_BUDGET
    assert "hypertreewidth" in err


def test_exit_budget_frontier_limit(capsys, instance):
    code, _, err = run(capsys, [
        "count", "--query", instance["plain"], "--db", instance["db"],
        "--method", "fhw", "--limit", "frontier_limit=10",
    ])
    assert code == EXIT_BUDGET
    assert re.search(r"more than 10 state-set entries at decomposition node \d+", err)


@pytest.mark.parametrize("via", ["flag", "file"])
def test_fhw_limit_rational(capsys, tmp_path, monkeypatch, instance, via):
    # fhw is rational: 3/2 admits a triangle and refuses a 4-cycle (fhw 2).
    queries = {
        "tri": ("q(x, y, z) :- E(x, y), E(y, z), E(z, x)", EXIT_OK),
        "c4": ("q(x, y, z, w) :- E(x, y), E(y, z), E(z, w), E(w, x)", EXIT_BUDGET),
    }
    extra = []
    if via == "flag":
        extra = ["--limit", "fhw_limit=3/2"]
    else:
        limits = tmp_path / "limits.json"
        limits.write_text(json.dumps({"fhw_limit": "3/2"}), encoding="utf-8")
        monkeypatch.setenv(LIMITS_ENV_VAR, str(limits))
    for name, (text, expected) in queries.items():
        query = tmp_path / f"{name}.txt"
        query.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, [
            "count", "--query", str(query), "--db", instance["db"],
            "--method", "fhw", *extra,
        ])
        assert code == expected, (name, err)
    assert "hypertreewidth 2 exceeds the limit 3/2" in err


def test_exit_budget_walk_budget(capsys, instance):
    argv = [
        "count", "--query", instance["query"], "--db", instance["db"], *FPTRAS,
        "--limit", "probe_budget=0",
    ]
    code, doc, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert doc["oracle_stats"]["estimator_walks"] > 0
    code, _, err = run(capsys, argv + ["--limit", "walk_budget=10"])
    assert code == EXIT_BUDGET
    assert "walk budget is 10" in err


def test_count_fhw_default_limits_over_fourteen_values(capsys, tmp_path):
    # A bag holding one variable has one partial solution per value, so a
    # state_limit of 14 refused every database with more than 14 values.
    n = 16
    db = tmp_path / "k16.json"
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    dump_database(Database.make(list(range(n)), {"E": (2, edges)}), db)
    query = tmp_path / "tri.txt"
    query.write_text("q(x, y, z) :- E(x, y), E(y, z), E(z, x)", encoding="utf-8")
    code, doc, err = run(capsys, [
        "count", "--query", str(query), "--db", str(db), "--method", "fhw",
    ])
    assert code == EXIT_OK, err
    assert doc["count"] == n * (n - 1) * (n - 2)


@pytest.mark.parametrize("domain, relation, named", [
    ([0, 1], {"arity": "2", "tuples": [[0, 1]]}, "relation F"),
    ([0, 1], {"arity": 2.5, "tuples": []}, "relation F"),  # used to be accepted
    ([0, 1], {"arity": 2, "tuples": 5}, "relation F"),
    ([0, 1], {"arity": 2, "tuples": [5]}, "relation F"),
    ([0, 1], {"arity": 2, "tuples": [[[1], 0]]}, "relation F"),
    (5, {"arity": 2, "tuples": [[0, 1]]}, "domain"),
], ids=["str-arity", "float-arity", "int-tuples", "int-tuple", "list-value", "int-domain"])
def test_exit_validation_malformed_database(
    capsys, tmp_path, instance, domain, relation, named
):
    # F is malformed; the query reads only the well-formed E.
    good = {"arity": 2, "tuples": [[0, 1]]}
    db = tmp_path / "bad.json"
    db.write_text(
        json.dumps({"domain": domain, "relations": {"E": good, "F": relation}}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, [
        "count", "--query", instance["plain"], "--db", str(db), "--method", "exact",
    ])
    assert code == EXIT_VALIDATION
    assert named in err


@pytest.mark.parametrize("which", ["query", "db"])
def test_exit_parse_not_utf8(capsys, tmp_path, instance, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("q(é) :- E(é, y)".encode("latin-1"))
    files = {"query": instance["plain"], "db": instance["db"], which: str(bad)}
    code, doc, err = run(capsys, [
        "count", "--query", files["query"], "--db", files["db"], "--method", "exact",
    ])
    assert code == EXIT_PARSE
    assert doc is None
    assert "utf-8" in err


def test_out_flag_is_a_usage_error(capsys, instance):
    # JSON is the only output format, so there is no --out flag to choose it
    with pytest.raises(SystemExit) as exc:
        main([
            "count", "--query", instance["plain"], "--db", instance["db"],
            "--method", "exact", "--out", "json",
        ])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("atoms, exact, fhw", [
    ("E(x0, x1), E(x1, x2), E(x2, x0)", True, "3/2"),
    # 10 variables, over the default fhw_vertex_limit of 8: heuristic branch
    (", ".join(f"E(x{i}, x{i + 1})" for i in range(9)), False, "1"),
])
def test_count_and_analyze_report_the_same_fhw(
    capsys, tmp_path, instance, atoms, exact, fhw
):
    query = tmp_path / "q.txt"
    query.write_text(f"q(x0, x2) :- {atoms}", encoding="utf-8")
    count = ["count", "--query", str(query), "--db", instance["db"]]
    code, counted, _ = run(capsys, count + ["--method", "fhw"])
    assert code == EXIT_OK
    assert counted["widths"] == {"fhw": fhw, "exact": exact}
    _, reference, _ = run(capsys, count + ["--method", "exact"])
    assert counted["count"] == reference["count"]
    code, analyzed, _ = run(capsys, ["analyze", "--query", str(query), "--measures", "fhw"])
    assert code == EXIT_OK
    assert analyzed["measures"]["fhw"]["value"] == fhw
    assert analyzed["measures"]["fhw"]["exact"] is exact


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_all_measures(capsys, tmp_path):
    q = tmp_path / "tri.txt"
    q.write_text("q(x, y, z) :- E(x, y), E(y, z), E(z, x)", encoding="utf-8")
    code, doc, _ = run(capsys, ["analyze", "--query", str(q)])
    assert code == EXIT_OK
    assert doc["measures"]["tw"]["value"] == 2
    assert doc["measures"]["tw"]["exact"] is True
    assert doc["measures"]["fhw"]["value"] == "3/2"
    assert doc["measures"]["rho"]["value"] == "3/2"
    assert all(w == "1/2" for w in doc["measures"]["rho"]["weights"].values())
    nodes = doc["measures"]["tw"]["decomposition"]["nodes"]
    assert any(len(n["bag"]) == 3 for n in nodes)


def test_analyze_subset_and_unknown_measure(capsys, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("q(x) :- E(x, y)", encoding="utf-8")
    code, doc, _ = run(capsys, ["analyze", "--query", str(q), "--measures", "tw"])
    assert code == EXIT_OK
    assert list(doc["measures"]) == ["tw"]
    code, _, _ = run(capsys, ["analyze", "--query", str(q), "--measures", "zz"])
    assert code == EXIT_VALIDATION


def test_analyze_limit_exceeded_is_inline(capsys, tmp_path):
    q = tmp_path / "big.txt"
    atoms = ", ".join(f"E(y{i}, y{i+1})" for i in range(10))
    q.write_text(f"q(y0) :- {atoms}", encoding="utf-8")
    code, doc, _ = run(capsys, [
        "analyze", "--query", str(q), "--measures", "fhw",
        "--limit", "fhw_vertex_limit=4", "--limit", "tw_vertex_limit=4",
    ])
    assert code == EXIT_OK
    # Over the exact-width cap the tool falls back to the heuristic witness.
    assert doc["measures"]["fhw"]["exact"] is False
    assert doc["measures"]["fhw"]["value"] == "1"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _write_graph(path, edges):
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")


def test_gen_hampath_files_and_count(capsys, tmp_path):
    g = tmp_path / "k4.txt"
    _write_graph(g, K4)
    code, doc, _ = run(capsys, [
        "gen", "hampath", "--n", "4", "--graph", str(g),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    code, report, _ = run(capsys, [
        "count", "--query", doc["query"], "--db", doc["db"],
        "--method", "exact",
    ])
    assert code == EXIT_OK
    assert report["count"] == 24


def test_gen_lihom_single_edge(capsys, tmp_path):
    g = tmp_path / "edge.txt"
    _write_graph(g, [(0, 1)])
    code, doc, _ = run(capsys, [
        "gen", "lihom", "--pattern", str(g), "--target", str(g),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    code, report, _ = run(capsys, [
        "count", "--query", doc["query"], "--db", doc["db"],
        "--method", "exact",
    ])
    assert report["count"] == 2


def test_gen_random_deterministic_bytes(capsys, tmp_path):
    argv = ["gen", "random", "--vars", "4", "--atoms", "3", "--domain", "4",
            "--p-neg", "0.3", "--p-diseq", "0.3", "--seed", "9"]
    code, doc1, _ = run(capsys, argv + ["--out-dir", str(tmp_path / "a")])
    assert code == EXIT_OK
    code, doc2, _ = run(capsys, argv + ["--out-dir", str(tmp_path / "b")])
    assert code == EXIT_OK
    for key in ("query", "db"):
        with open(doc1[key], "rb") as f1, open(doc2[key], "rb") as f2:
            assert f1.read() == f2.read()


def test_gen_then_all_methods_agree(capsys, tmp_path):
    code, doc, _ = run(capsys, [
        "gen", "random", "--vars", "3", "--atoms", "3", "--domain", "3",
        "--p-neg", "0", "--p-diseq", "0", "--seed", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    counts = {}
    for method in ("exact", "fhw"):
        extra = ["--limit", "state_limit=100000"] if method == "fhw" else []
        code, report, _ = run(capsys, [
            "count", "--query", doc["query"], "--db", doc["db"],
            "--method", method, *extra,
        ])
        assert code == EXIT_OK
        counts[method] = report["count"]
    code, report, _ = run(capsys, [
        "count", "--query", doc["query"], "--db", doc["db"],
        "--method", "fptras", "--epsilon", "0.25", "--delta", "0.1",
        "--seed", "3",
    ])
    assert code == EXIT_OK
    assert counts["exact"] == counts["fhw"]
    assert abs(report["estimate"] - counts["exact"]) <= 0.25 * counts["exact"]
