"""Query model: parsing, normalization, sizes, databases, generators."""

from __future__ import annotations

import json
import random

import pytest

from cqcount import (
    BudgetExceededError,
    ContradictionError,
    Database,
    DatabaseParseError,
    DatabaseValidationError,
    PairValidationError,
    Query,
    QueryParseError,
    QueryValidationError,
    build_hypergraph,
    count_answers_bruteforce,
    dump_database,
    format_query,
    gen_hampath,
    gen_li_hom,
    gen_random,
    load_database,
    load_graph,
    normalize_equalities,
    parse_query,
    validate_pair,
)
from cqcount import qmodel
from cqcount.qmodel import RelationSymbol, database_to_doc

from conftest import corpus_instance
from helpers import database_size, query_size

E = RelationSymbol("E", 2)
U = RelationSymbol("U", 1)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_basic_cq():
    q = parse_query("phi(x) :- E(x,y)")
    assert q.name == "phi"
    assert q.free_vars == ("x",)
    assert q.exist_vars == ("y",)
    assert q.predicates == ((E, ("x", "y")),)
    assert q.negated_predicates == ()
    assert q.disequalities == ()


def test_parse_disequality():
    q = parse_query("phi(x1,x2) :- E(x1,x2), x1 != x2")
    assert len(q.predicates) == 1
    assert q.disequalities == (("x1", "x2"),)


def test_parse_negation_and_equality():
    q = parse_query("phi(x) :- E(x,y), !U(y), y = x")
    assert q.negated_predicates == ((U, ("y",)),)
    assert q.equalities == (("x", "y"),)


def test_parse_error_position_is_last_token():
    text = "phi(x) :- E(x,"
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.position == text.rindex(",")
    assert err.value.expected is not None


def test_parse_error_bad_character():
    with pytest.raises(QueryParseError) as err:
        parse_query("phi(x) :- E(x,y).")
    assert err.value.position == len("phi(x) :- E(x,y)")


def test_parse_rejects_arity_clash():
    with pytest.raises(QueryValidationError):
        parse_query("phi(x,y) :- E(x,y), E(x,x,y)")


def test_parse_rejects_head_var_without_atom():
    with pytest.raises(QueryValidationError):
        parse_query("phi(x,z) :- E(x,y)")


def test_parse_rejects_duplicate_head_var():
    with pytest.raises(QueryValidationError):
        parse_query("phi(x,x) :- E(x,y)")


def test_self_disequality_is_contradiction():
    with pytest.raises(ContradictionError):
        parse_query("phi(x) :- E(x,y), x != x")


def test_self_equality_is_dropped():
    q = parse_query("phi(x) :- E(x,y), x = x")
    assert q.equalities == ()


def test_roundtrip_on_corpus():
    for seed in range(200):
        q, _ = corpus_instance(seed)
        assert parse_query(format_query(q)) == q


def test_comments_and_whitespace_ignored():
    q = parse_query("phi(x) :-  # head\n  E(x, y) , x != y\n")
    assert q.disequalities == (("x", "y"),)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_identity_without_equalities():
    q = parse_query("phi(x) :- E(x,y)")
    out, merge = normalize_equalities(q)
    assert out == q
    assert merge == {"x": "x", "y": "y"}


def test_normalize_merges_into_free_var():
    q = parse_query("phi(x,y) :- E(x,z), x = y")
    out, merge = normalize_equalities(q)
    assert out.free_vars == ("x",)
    assert merge["y"] == "x"
    assert out.equalities == ()


def test_normalize_chain():
    q = parse_query("phi(x) :- E(x,y), E(y,z), x = y, y = z")
    out, merge = normalize_equalities(q)
    assert len(set(merge.values())) == 1
    assert out.predicates == ((E, ("x", "x")),)


def test_normalize_collapsed_disequality_contradicts():
    q = parse_query("phi(x) :- E(x,y), x != y, x = y")
    with pytest.raises(ContradictionError):
        normalize_equalities(q)


def test_normalize_preserves_counts():
    # An answer of the merged query corresponds to one original answer with
    # merged coordinates duplicated, so the counts must agree.
    rng = random.Random(5)
    for seed in range(40):
        q, d = corpus_instance(seed)
        if len(q.variables) < 2:
            continue
        a, b = rng.sample(q.variables, 2)
        try:
            q_eq = Query.make(
                q.name, q.free_vars, q.predicates, q.negated_predicates,
                q.disequalities, ((a, b),),
            )
            merged, _ = normalize_equalities(q_eq)
        except ContradictionError:
            continue
        direct = sum(
            1
            for ans in _answers_with_equality(q, d, a, b)
        )
        assert count_answers_bruteforce(merged, d) == direct


def _answers_with_equality(q, d, a, b):
    from cqcount.qmodel import iter_solutions

    pos = {v: i for i, v in enumerate(q.variables)}
    seen = set()
    for sol in iter_solutions(q, d):
        if sol[pos[a]] == sol[pos[b]]:
            seen.add(sol[: len(q.free_vars)])
    return seen


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

def test_query_size_examples():
    assert query_size(parse_query("phi(x1,x2,x3) :- E(x1,x2), E(x2,x3)")) == 7
    assert query_size(parse_query("phi(x) :- U(x)")) == 2


def test_query_size_hampath3():
    q, _ = gen_hampath([(0, 1), (1, 2)], 3)
    # 3 variables + two binary atoms + three disequalities at arity 2 each.
    assert query_size(q) == 3 + 4 + 6


def test_database_size_examples():
    d = Database.make([0, 1, 2], {"E": (2, [(0, 1), (1, 2)])})
    assert database_size(d) == 1 + 3 + 4
    d2 = Database.make([0, 1, 2, 3, 4], {"E": (2, []), "R": (3, [])})
    assert database_size(d2) == 2 + 5 + 0


def test_database_size_recount_on_corpus():
    for seed in range(50):
        _, d = corpus_instance(seed)
        recount = len(d.relations) + len(d.domain) + sum(
            len(t) for facts in d.relations.values() for t in facts
        )
        assert database_size(d) == recount


# ---------------------------------------------------------------------------
# Databases and pair validation
# ---------------------------------------------------------------------------

def test_validate_pair_ok():
    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([0, 1], {"E": (2, [(0, 1)])})
    validate_pair(q, d)


def test_validate_pair_arity_mismatch():
    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([0], {"E": (3, [])})
    with pytest.raises(PairValidationError):
        validate_pair(q, d)


def test_validate_pair_missing_relation():
    q = parse_query("phi(x) :- E(x,y), R(x)")
    d = Database.make([0], {"E": (2, [])})
    with pytest.raises(PairValidationError) as err:
        validate_pair(q, d)
    assert "R" in str(err.value)


def test_database_rejects_bad_tuples():
    with pytest.raises(DatabaseValidationError):
        Database.make([0, 1], {"E": (2, [(0, 1, 1)])})
    with pytest.raises(DatabaseValidationError):
        Database.make([0, 1], {"E": (2, [(0, 7)])})
    with pytest.raises(DatabaseValidationError):
        Database.make([0, 0], {})


def test_database_rejects_bool_values():
    # True == 1, so a bool used to pass as the domain value 1, as JSON true.
    with pytest.raises(DatabaseValidationError) as err:
        Database.make([1, 2], {"E": (2, [(1, True)])})
    assert str(err.value) == "relation E: value True not in domain"


def test_database_json_roundtrip(tmp_path):
    _, d = corpus_instance(11)
    path = tmp_path / "db.json"
    dump_database(d, path)
    assert load_database(path) == d
    # Canonical form: dumping twice yields identical bytes.
    path2 = tmp_path / "db2.json"
    dump_database(load_database(path), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_mixed_domain_database_json_roundtrip(tmp_path):
    # Integers and strings do not compare with <, so each position sorts
    # integers first; every count method already takes such a domain.
    d = Database.make([0, "a"], {"E": (2, [(0, "a"), ("a", 0), ("a", "a"), (0, 0)])})
    path = tmp_path / "db.json"
    dump_database(d, path)
    assert load_database(path) == d
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["relations"]["E"]["tuples"] == [[0, 0], [0, "a"], ["a", 0], ["a", "a"]]


def test_load_database_bad_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DatabaseParseError):
        load_database(path)


def test_load_database_bad_structure_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"domain": [0], "relations": {"E": "nope"}}))
    with pytest.raises(DatabaseValidationError):
        load_database(path)


def test_load_graph(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a square\n0 1\n1 2\n2 3\n3 0\n")
    assert load_graph(path) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1\n")
    with pytest.raises(DatabaseParseError):
        load_graph(bad)


# ---------------------------------------------------------------------------
# Query hypergraph
# ---------------------------------------------------------------------------

def test_hypergraph_excludes_disequalities():
    h = build_hypergraph(parse_query("phi(x,y) :- E(x,y), x != y"))
    assert h.vertices == frozenset({"x", "y"})
    assert h.edges == frozenset({frozenset({"x", "y"})})


def test_hypergraph_includes_negated_atoms():
    h = build_hypergraph(parse_query("phi(x) :- E(x,y), !R(y,z)"))
    assert h.edges == frozenset(
        {frozenset({"x", "y"}), frozenset({"y", "z"})}
    )


def test_hypergraph_repeated_variable_gives_singleton_edge():
    h = build_hypergraph(parse_query("phi(x) :- E(x,x)"))
    assert h.edges == frozenset({frozenset({"x"})})


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

P4 = [(0, 1), (1, 2), (2, 3)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_gen_hampath_p4():
    q, d = gen_hampath(P4, 4)
    assert count_answers_bruteforce(q, d) == 2


def test_gen_hampath_k4():
    q, d = gen_hampath(K4, 4)
    assert count_answers_bruteforce(q, d) == 24


def test_gen_hampath_edgeless():
    q, d = gen_hampath([], 3)
    assert count_answers_bruteforce(q, d) == 0


def test_gen_hampath_shape():
    q, _ = gen_hampath(P4, 4)
    assert len(q.free_vars) == 4
    assert len(q.predicates) == 3
    assert len(q.disequalities) == 6


def test_gen_li_hom_edge_edge():
    q, d = gen_li_hom([(0, 1)], [(0, 1)])
    assert count_answers_bruteforce(q, d) == 2


def test_gen_li_hom_star_triangle():
    q, d = gen_li_hom([(0, 1), (0, 2)], [(0, 1), (1, 2), (0, 2)])
    assert count_answers_bruteforce(q, d) == 6


def test_gen_li_hom_empty_target():
    q, d = gen_li_hom([(0, 1)], [])
    assert count_answers_bruteforce(q, d) == 0


def test_gen_random_deterministic_and_valid():
    a = gen_random(4, 3, 5, 0.3, 0.3, 7)
    b = gen_random(4, 3, 5, 0.3, 0.3, 7)
    assert a == b
    q, d = a
    validate_pair(q, d)
    assert parse_query(format_query(q)) == q


def test_gen_random_past_its_fact_budget_draws_no_fact(monkeypatch):
    # At its budget the instance is the one drawn without it; one candidate
    # fact past it raises before any relation draws its density.
    q, d = gen_random(4, 3, 5, 0.3, 0.3, 7)
    candidates = sum(len(d.domain) ** sym.arity for sym in d.relations)
    monkeypatch.setattr(qmodel, "GEN_FACT_BUDGET", candidates)
    assert gen_random(4, 3, 5, 0.3, 0.3, 7) == (q, d)
    densities = []
    uniform = random.Random.uniform

    def counting(self, a, b):
        densities.append((a, b))
        return uniform(self, a, b)

    monkeypatch.setattr(random.Random, "uniform", counting)
    monkeypatch.setattr(qmodel, "GEN_FACT_BUDGET", candidates - 1)
    with pytest.raises(BudgetExceededError) as info:
        gen_random(4, 3, 5, 0.3, 0.3, 7)
    assert str(info.value) == (
        f"{candidates} candidate facts exceed the budget of {candidates - 1}"
    )
    assert densities == []


def test_gen_random_plain_when_probabilities_zero():
    q, _ = gen_random(4, 3, 5, 0.0, 0.0, 1)
    assert q.is_plain_cq()
    assert q.disequalities == ()


def test_database_to_doc_is_canonical():
    # On integer values the mixed-domain key orders tuples as plain < does,
    # so an integer-only document, and its dumped bytes, are a plain sort's.
    for seed in range(40):
        _, d = corpus_instance(seed)
        doc = database_to_doc(d)
        for entry in doc["relations"].values():
            assert entry["tuples"] == sorted(entry["tuples"]), seed
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            database_to_doc(d), sort_keys=True
        )
