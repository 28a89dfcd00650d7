"""Command-line interface: reports, exit codes, limits, generators."""

from __future__ import annotations

import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from cqcount import (
    Database,
    approx_count_answers,
    automata,
    cli,
    count_answers_bruteforce,
    count_answers_fhw_pipeline,
    dump_database,
    gen_hampath,
    qmodel,
    reduction,
    treewidth_exact,
    widths,
)
from cqcount.cli import (
    DEFAULT_LIMITS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    LIMITS_ENV_VAR,
    REPORT_SCHEMA,
    RunConfig,
    cmd_analyze,
    cmd_count,
    main,
)
from cqcount.errors import (
    BudgetExceededError,
    CqcountError,
    DatabaseParseError,
    LimitExceededError,
    QueryParseError,
    QueryValidationError,
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


def test_variable_only_in_a_disequality(capsys, instance, tmp_path):
    # z occurs in no relation atom, only in x != z, and the query is still
    # accepted: z ranges over the whole domain. The query hypergraph has no
    # edge holding z, so the measures that cover vertices by edges fail. In
    # the second query z is existential: Query.make adds it to the
    # existential variables from the disequality, since no atom holds it.
    query = tmp_path / "lone.txt"
    for text, answers in [
        ("q(x, z) :- E(x, y), x != z", 6),
        ("q(x) :- E(x, y), x != z", 3),
    ]:
        query.write_text(text, encoding="utf-8")
        count = ["count", "--query", str(query), "--db", instance["db"]]
        code, doc, _ = run(capsys, [*count, "--method", "exact"])
        assert code == EXIT_OK
        assert doc["count"] == answers
        for backend in ("bruteforce", "td-dp"):
            code, doc, _ = run(capsys, [*count, *FPTRAS, "--hom-backend", backend])
            assert code == EXIT_OK
            assert doc["estimate"] == answers
        code, doc, _ = run(capsys, ["analyze", "--query", str(query)])
        assert code == EXIT_OK
        for measure in ("fhw", "rho"):
            assert doc["measures"][measure]["error"] == "uncoverable-vertex"
        assert "error" not in doc["measures"]["tw"]


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


# The files the table below names, written under tmp_path: graphs for gen
# and queries for count, which reads them against the instance's database.
FILES = {
    "loop": "0 1\n1 1\n", "far": "0 5\n", "letter": "a 1\n", "edge": "0 1\n", "none": "",
    "not-an-atom": "q(x) :- E(x, y), (x)",
    "no-operator": "q(x) :- E(x, y), x y",
    "free-var-merged": "q(x) :- x = y",
}


def _count(query):
    return ["count", "--query", query, "--db", "db", "--method", "exact"]


def _gen_random(n_vars, n_atoms, p_neg):
    return ["gen", "random", "--vars", str(n_vars), "--atoms", str(n_atoms), "--domain", "2",
            "--p-neg", str(p_neg), "--p-diseq", "0", "--seed", "1"]


@pytest.mark.parametrize("argv, want, message", [
    (_count("not-an-atom"), EXIT_PARSE,
     "unexpected token '(' at position 17 (expected an atom)"),
    (_count("no-operator"), EXIT_PARSE,
     "unexpected token 'y' at position 19 (expected '(' or '!=' or '=')"),
    # x and y merge into x, which then occurs in no atom.
    (_count("free-var-merged"), EXIT_VALIDATION,
     "query invalid after equality removal: variable(s) occur in no atom: x"),
    (["gen", "hampath", "--n", "3", "--graph", "loop"], EXIT_VALIDATION,
     "self-loop 1-1 not allowed"),
    (["gen", "hampath", "--n", "3", "--graph", "far"], EXIT_VALIDATION,
     "edge 0-5 outside vertex range [0, 3)"),
    (["gen", "hampath", "--n", "1", "--graph", "edge"], EXIT_VALIDATION,
     "gen_hampath needs n >= 2"),
    (["gen", "hampath", "--n", "3", "--graph", "letter"], EXIT_PARSE,
     "graph line 1: vertices must be integers"),
    (["gen", "lihom", "--pattern", "none", "--target", "edge"], EXIT_VALIDATION,
     "gen_li_hom needs a nonempty pattern edge list"),
    (_gen_random(0, 1, 0), EXIT_VALIDATION,
     "gen_random needs n_vars, n_atoms, domain_size >= 1"),
    (_gen_random(2, 1, 2), EXIT_VALIDATION, "probabilities must lie in [0, 1]"),
    # One atom has at most three variable slots.
    (_gen_random(5, 1, 0), EXIT_VALIDATION,
     "infeasible parameters: 1 atoms provide only 3 variable slots for 5 variables"),
], ids=["query-not-an-atom", "query-no-operator", "query-free-var-merged", "gen-self-loop",
        "gen-vertex-out-of-range", "gen-hampath-n-1", "gen-vertex-not-integer",
        "gen-empty-pattern", "gen-no-variables", "gen-probability-above-1",
        "gen-too-few-slots"])
def test_bad_input_ends_in_one_error_line(capsys, tmp_path, instance, argv, want, message):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = {name: str(tmp_path / name) for name in FILES}
    out = tmp_path / "out"
    if argv[0] == "gen":
        argv = argv + ["--out-dir", str(out)]
    argv = [instance["db"] if arg == "db" else paths.get(arg, arg) for arg in argv]
    code, doc, err = run(capsys, argv)
    assert (code, doc) == (want, None)
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


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


@pytest.mark.parametrize("limits, key", [
    ({"walk_budgett": 10}, "walk_budgett"),
    ({"walk_budget": -5}, "walk_budget"),
    ({"fhw_limit": Fraction(-1, 2)}, "fhw_limit"),
    ({"fhw_limit": 1.5}, "fhw_limit"),
])
def test_limits_built_in_code_are_checked_before_any_work(monkeypatch, instance, limits, key):
    # A RunConfig or an analyze limits dict built in code passes the same
    # check as --limit: a misspelt key is not ignored, and a bad value does
    # not reach the estimator.
    def no_work(path):
        raise AssertionError("a file was loaded")

    monkeypatch.setattr(cli, "load_query", no_work)
    cfg = RunConfig("fptras", 0.3, 0.2, 1, limits=limits)
    with pytest.raises(QueryValidationError, match=key):
        cmd_count(instance["query"], instance["db"], cfg)
    with pytest.raises(QueryValidationError, match=key):
        cmd_analyze(instance["query"], ["tw"], limits)


@pytest.mark.parametrize("method, limits", [
    ("fhw", {"fhw_limit": "3/2"}),
    ("fhw", {"fhw_limit": Fraction(3, 2)}),
    ("fhw", {"state_limit": None}),
    ("fptras", {"probe_budget": 500}),
])
def test_limits_built_in_code_that_pass_the_check(instance, method, limits):
    cfg = RunConfig(method, 0.3, 0.2, 4, limits=limits)
    doc = cmd_count(instance["plain"], instance["db"], cfg)
    assert doc.get("count", doc.get("estimate")) == 6


# Per CLI limit, the constant that holds its default (None for fhw_limit)
# and every library parameter with that default, first the one the CLI
# passes the limit to.
LIMIT_DEFAULTS = {
    "enum_budget": (qmodel.ENUM_BUDGET, [
        (count_answers_bruteforce, "budget"),
        (qmodel.enumerate_answers_bruteforce, "budget"),
        (qmodel.iter_solutions, "budget"),
    ]),
    "probe_budget": (reduction.PROBE_BUDGET, [
        (approx_count_answers, "probe_budget"),
        (reduction.estimate_edges, "probe_budget"),
    ]),
    "oracle_cap": (reduction.ORACLE_CAP, [(approx_count_answers, "initial_cap")]),
    "walk_budget": (reduction.WALK_BUDGET, [
        (approx_count_answers, "walk_budget"),
        (reduction.estimate_edges, "walk_budget"),
    ]),
    "state_limit": (automata.STATE_LIMIT, [(count_answers_fhw_pipeline, "state_limit")]),
    "frontier_limit": (automata.FRONTIER_LIMIT, [
        (count_answers_fhw_pipeline, "frontier_limit"),
        (automata.count_slice_exact, "frontier_limit"),
    ]),
    "fhw_vertex_limit": (widths.FHW_EXACT_VERTEX_LIMIT, [
        (count_answers_fhw_pipeline, "exact_width_vertex_limit"),
        (widths.fhw_exact_small, "vertex_limit"),
    ]),
    "fhw_limit": (None, [(count_answers_fhw_pipeline, "fhw_limit")]),
    "tw_vertex_limit": (widths.TW_EXACT_VERTEX_LIMIT, [(treewidth_exact, "vertex_limit")]),
}


def test_every_default_limit_is_passed_to_a_library_parameter():
    assert sorted(LIMIT_DEFAULTS) == sorted(DEFAULT_LIMITS)


@pytest.mark.parametrize("key, function, parameter", [
    pytest.param(key, function, parameter,
                 id=key if i == 0 else f"{key}-{function.__name__}")
    for key, (_, parameters) in LIMIT_DEFAULTS.items()
    for i, (function, parameter) in enumerate(parameters)
])
def test_default_limits_match_the_library_defaults(key, function, parameter):
    # Each default is written once, as a constant beside the code it bounds;
    # the CLI table and every signature read that name, so a library caller
    # and the CLI agree.
    constant = LIMIT_DEFAULTS[key][0]
    assert inspect.signature(function).parameters[parameter].default == constant
    assert DEFAULT_LIMITS[key] == constant


def test_readme_limits_table_matches_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    table = readme.split("\n### Limits\n", 1)[1].split("\n| --- |", 1)[1]
    rows = {}
    for line in table.split("\n")[1:]:
        if not line.startswith("| `"):
            break
        key, default = [cell.strip().strip("`") for cell in line.split("|")[1:3]]
        rows[key] = default
    assert rows == {
        key: "none" if value is None else str(value)
        for key, value in DEFAULT_LIMITS.items()
    }


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


@pytest.mark.parametrize("limits_file, flags, want, message", [
    (None, ["--limit", "enum_budget"], EXIT_VALIDATION,
     "error: --limit expects key=value, got 'enum_budget'"),
    ("absent.json", [], EXIT_PARSE, "error: cannot read limits file "),
    ("broken.json", [], EXIT_PARSE, "error: cannot read limits file "),
], ids=["flag-without-equals", "file-absent", "file-not-json"])
def test_limits_that_cannot_be_read(
    capsys, tmp_path, monkeypatch, instance, limits_file, flags, want, message
):
    if limits_file:
        if limits_file == "broken.json":
            (tmp_path / limits_file).write_text("{not json", encoding="utf-8")
        monkeypatch.setenv(LIMITS_ENV_VAR, str(tmp_path / limits_file))
    code, doc, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "exact", *flags,
    ])
    assert (code, doc) == (want, None)
    (line,) = err.splitlines()
    assert line.startswith(message)


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


@pytest.mark.parametrize("params,want,words", [
    # delta/2/oracle_cap underflows to 0: no finite colour-coding count.
    (["--epsilon", "0.3", "--delta", "1e-320"], EXIT_BUDGET, "samples"),
    # The same, under a walk budget the pilot would exceed: the exact probe
    # stops only on its own call budget, so the colour-coding error is not
    # taken for a reason to walk.
    (["--epsilon", "0.3", "--delta", "1e-320", "--limit", "walk_budget=10"],
     EXIT_BUDGET, "samples"),
    # epsilon**2 underflows to 0: no finite number of walks.
    (["--epsilon", "1e-170", "--delta", "0.2", "--limit", "probe_budget=0"],
     EXIT_BUDGET, "walks"),
    # delta/2 underflows to 0 before anything runs.
    (["--epsilon", "0.3", "--delta", "5e-324", "--limit", "probe_budget=0"],
     EXIT_VALIDATION, "too small to halve"),
], ids=["delta-prime-underflow", "delta-prime-underflow-walk-budget",
        "epsilon-squared-underflow", "half-delta-underflow"])
def test_extreme_epsilon_delta_end_in_one_error_line(capsys, instance, params, want, words):
    code, doc, err = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fptras", "--seed", "1", *params,
    ])
    assert code == want
    assert doc is None
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


def test_tiny_epsilon_with_the_exact_probe_still_counts(capsys, instance):
    # The probe answers before any walk count is taken, so epsilon**2
    # underflowing does not matter.
    code, doc, _ = run(capsys, [
        "count", "--query", instance["query"], "--db", instance["db"],
        "--method", "fptras", "--seed", "1", "--epsilon", "1e-300", "--delta", "0.2",
    ])
    assert code == EXIT_OK
    assert doc["estimate"] == 6
    assert doc["oracle_stats"]["estimator_walks"] == 0


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
    ([0, 1], {"arity": 2, "tuples": [[1, True]]}, "relation F: value True"),  # used to be accepted
    (5, {"arity": 2, "tuples": [[0, 1]]}, "domain"),
    ([0, 1, 1.5], {"arity": 2, "tuples": [[0, 1]]},
     "domain value 1.5 is not a string or integer"),
], ids=["str-arity", "float-arity", "int-tuples", "int-tuple", "list-value", "bool-value",
        "int-domain", "float-domain-value"])
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
    (line,) = err.splitlines()
    assert line.startswith("error: ") and named in line


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


def _error_classes(cls=CqcountError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_class_has_an_exit_code(capsys, monkeypatch, error):
    # The exit code follows the error's class: parse errors 2, budget and
    # limit errors 4, every other cqcount error 3, and never a traceback.
    exc = error("boom", 0) if issubclass(error, QueryParseError) else error("boom")

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    code, doc, err = run(capsys, ["analyze", "--query", "unread.txt"])
    if issubclass(error, (QueryParseError, DatabaseParseError)):
        assert code == EXIT_PARSE
    elif issubclass(error, (BudgetExceededError, LimitExceededError)):
        assert code == EXIT_BUDGET
    else:
        assert code == EXIT_VALIDATION
    assert doc is None
    assert err.splitlines() == [f"error: {exc}"]


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


def _no_width_work(monkeypatch):
    """Make every width function that analyze calls fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("a width measure was computed")

    for name in ("treewidth_exact", "treewidth_heuristic", "fractional_edge_cover_number"):
        monkeypatch.setattr(widths, name, no_work)
    monkeypatch.setattr(automata, "fhw_decomposition", no_work)


def test_analyze_checks_every_measure_before_computing_any(monkeypatch, capsys, tmp_path):
    q = tmp_path / "q.txt"
    q.write_text("q(x) :- E(x, y)", encoding="utf-8")
    _no_width_work(monkeypatch)
    code, doc, err = run(capsys, ["analyze", "--query", str(q), "--measures", "tw,bogus"])
    assert code == EXIT_VALIDATION and doc is None
    assert err.strip() == "error: unknown measure 'bogus'; known: tw, fhw, rho"


def test_analyze_checks_measures_before_reading_the_query(monkeypatch, capsys, tmp_path):
    _no_width_work(monkeypatch)
    missing = str(tmp_path / "nonexistent" / "q.txt")
    with pytest.raises(QueryValidationError, match="unknown measure 'bogus'"):
        cmd_analyze(missing, ["bogus"], {})
    code, doc, err = run(capsys, ["analyze", "--query", missing, "--measures", "bogus"])
    assert code == EXIT_VALIDATION and doc is None
    assert err.strip() == "error: unknown measure 'bogus'; known: tw, fhw, rho"


def test_analyze_limit_exceeded_is_inline(capsys, tmp_path):
    q = tmp_path / "big.txt"
    atoms = ", ".join(f"E(y{i}, y{i+1})" for i in range(10))
    q.write_text(f"q(y0) :- {atoms}", encoding="utf-8")
    code, doc, _ = run(capsys, [
        "analyze", "--query", str(q), "--measures", "tw,fhw",
        "--limit", "fhw_vertex_limit=4", "--limit", "tw_vertex_limit=4",
    ])
    assert code == EXIT_OK
    # Over the exact-width cap the tool falls back to the heuristic witness.
    assert doc["measures"]["tw"]["exact"] is False
    assert doc["measures"]["tw"]["value"] == 1
    assert doc["measures"]["fhw"]["exact"] is False
    assert doc["measures"]["fhw"]["value"] == "1"


def _path_query(tmp_path, n_vars):
    q = tmp_path / "path.txt"
    atoms = ", ".join(f"E(y{i}, y{i+1})" for i in range(n_vars - 1))
    q.write_text(f"q(y0) :- {atoms}", encoding="utf-8")
    return str(q)


@pytest.mark.parametrize("value", [21, 64])
@pytest.mark.parametrize("key", ["tw_vertex_limit", "fhw_vertex_limit"])
@pytest.mark.parametrize("via", ["flag", "file"])
def test_vertex_limit_over_ceiling_is_rejected(
    capsys, tmp_path, monkeypatch, instance, key, value, via
):
    # The exact width searches hold 2**n entries per table: a 41-variable
    # path under a limit of 64 would end in MemoryError, so the value is
    # refused before any search starts.
    def no_search(*args):
        raise AssertionError("a width search ran")

    monkeypatch.setattr(widths, "_elimination_dp", no_search)
    extra = []
    if via == "flag":
        extra = ["--limit", f"{key}={value}"]
    else:
        limits = tmp_path / "limits.json"
        limits.write_text(json.dumps({key: value}), encoding="utf-8")
        monkeypatch.setenv(LIMITS_ENV_VAR, str(limits))
    query = _path_query(tmp_path, 41)
    for argv in (
        ["analyze", "--query", query, "--measures", "tw,fhw"],
        ["count", "--query", query, "--db", instance["db"], "--method", "fhw"],
    ):
        code, doc, err = run(capsys, argv + extra)
        assert code == EXIT_VALIDATION
        assert doc is None
        assert key in err and "at most 20" in err


def test_vertex_limit_ceiling_is_accepted(capsys, tmp_path):
    code, doc, _ = run(capsys, [
        "analyze", "--query", _path_query(tmp_path, 6), "--measures", "tw,fhw",
        "--limit", "tw_vertex_limit=20", "--limit", "fhw_vertex_limit=20",
    ])
    assert code == EXIT_OK
    assert doc["measures"]["tw"]["exact"] is True
    assert doc["measures"]["fhw"]["exact"] is True


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


def test_fptras_on_a_box_of_many_skipped_k2_samples(capsys, tmp_path):
    # A 12-vertex path has no locally injective hom into the path 0-1-2, and
    # its 10 K2s need 14,680,064 samples, whose words no one getrandbits call
    # can take: they are drawn in bounded calls, so the run ends with 0.
    pattern, target = tmp_path / "p12.txt", tmp_path / "p3.txt"
    _write_graph(pattern, [(i, i + 1) for i in range(11)])
    _write_graph(target, [(0, 1), (1, 2)])
    code, doc, _ = run(capsys, [
        "gen", "lihom", "--pattern", str(pattern), "--target", str(target),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    code, report, err = run(capsys, [
        "count", "--query", doc["query"], "--db", doc["db"], "--method", "fptras",
        "--epsilon", "0.25", "--delta", "0.1", "--seed", "1",
    ])
    assert code == EXIT_OK
    assert report["estimate"] == 0
    assert report["oracle_stats"]["colourings_sampled"] == 14_680_064
    assert "error:" not in err


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
