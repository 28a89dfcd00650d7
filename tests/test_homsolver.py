"""Query/database structures, homomorphism backends, brute-force counting."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from cqcount import (
    BudgetExceededError,
    Database,
    DecompositionError,
    LimitExceededError,
    TreeDecomposition,
    UnsupportedQueryError,
    count_answers_bruteforce,
    enumerate_answers_bruteforce,
    make_nice,
    parse_query,
    sol_bag,
    treewidth_exact,
)
from cqcount.automata import fhw_decomposition
from cqcount.qmodel import RelationSymbol, build_hypergraph, iter_solutions
from cqcount.widths import _vkey

from conftest import (
    corpus_instance,
    hom_exists_exhaustive,
    plain_cq_instance,
    random_structure_pair,
)
from helpers import (
    Structure,
    build_A,
    build_B,
    complement_symbol,
    hom_exists_bruteforce,
    hom_exists_td_explicit,
    query_size,
    structure_hypergraph,
    structure_size,
)


# ---------------------------------------------------------------------------
# Structures from queries and databases
# ---------------------------------------------------------------------------

def test_build_A_plain():
    a = build_A(parse_query("phi(x,y) :- E(x,y)"))
    assert set(a.universe) == {"x", "y"}
    assert a.relations == {RelationSymbol("E", 2): frozenset({("x", "y")})}


def test_build_A_negation_uses_complement_symbol():
    a = build_A(parse_query("phi(x) :- !R(x,y)"))
    comp = complement_symbol(RelationSymbol("R", 2))
    assert a.relations == {comp: frozenset({("x", "y")})}
    assert RelationSymbol("R", 2) not in a.relations


def test_build_B_complement_is_product_minus_facts():
    q = parse_query("phi(x) :- E(x,y), !R(y)")
    d = Database.make([0, 1, 2], {"E": (2, [(0, 1)]), "R": (1, [(2,)])})
    b = build_B(q, d)
    assert b.relations[RelationSymbol("E", 2)] == frozenset({(0, 1)})
    comp = complement_symbol(RelationSymbol("R", 1))
    assert b.relations[comp] == frozenset({(0,), (1,)})


def test_hom_characterizes_satisfiability():
    # For queries without disequalities a homomorphism from the query
    # structure into the database structure is exactly a solution.
    for seed in range(60):
        q, d = corpus_instance(seed, max_diseq=0)
        has_solution = count_answers_bruteforce(q, d) > 0
        assert hom_exists_bruteforce(build_A(q), build_B(q, d)) == has_solution


def test_structure_size_bound():
    for seed in range(200):
        q, _ = corpus_instance(seed)
        assert structure_size(build_A(q)) <= 3 * query_size(q)


# ---------------------------------------------------------------------------
# Homomorphism backends
# ---------------------------------------------------------------------------

def _nice_td_of(a: Structure):
    h = structure_hypergraph(a)
    _, td = treewidth_exact(h)
    return make_nice(h, td)


def test_backends_agree_with_exhaustive_enumeration():
    rng = random.Random(8080)
    for _ in range(120):
        a, b = random_structure_pair(rng)
        expected = hom_exists_exhaustive(a, b)
        assert hom_exists_bruteforce(a, b) == expected
        assert hom_exists_td_explicit(a, b, _nice_td_of(a)) == expected


def test_backends_respect_domain_restrictions():
    rng = random.Random(17)
    for _ in range(60):
        a, b = random_structure_pair(rng)
        domains = {
            x: set(rng.sample(b.universe, rng.randint(0, len(b.universe))))
            for x in a.universe
        }
        expected = hom_exists_exhaustive(a, b, domains)
        assert hom_exists_bruteforce(a, b, domains) == expected
        assert hom_exists_td_explicit(a, b, _nice_td_of(a), domains) == expected


def test_hom_signature_mismatch_rejected():
    from cqcount import PairValidationError

    a = Structure(("x",), {RelationSymbol("E", 1): frozenset({("x",)})})
    b = Structure((0,), {RelationSymbol("F", 1): frozenset({(0,)})})
    with pytest.raises(PairValidationError):
        hom_exists_bruteforce(a, b)


def test_hom_td_requires_nice_decomposition():
    a = Structure(("x", "y"), {RelationSymbol("E", 2): frozenset({("x", "y")})})
    b = Structure((0, 1), {RelationSymbol("E", 2): frozenset({(0, 1)})})
    h = structure_hypergraph(a)
    _, td = treewidth_exact(h)  # not nice: no empty root chain
    with pytest.raises(DecompositionError):
        hom_exists_td_explicit(a, b, td)


def test_hom_td_invalid_td_raises_its_error():
    edge = Structure((0, 1), {RelationSymbol("E", 2): frozenset({(0, 1)})})
    empty_td = TreeDecomposition.make(0, [()], [()])
    with pytest.raises(DecompositionError) as info:
        hom_exists_td_explicit(edge, edge, empty_td)
    assert str(info.value) == "decomposition is not valid for the source structure"


# ---------------------------------------------------------------------------
# Brute-force counting
# ---------------------------------------------------------------------------

def test_count_answers_worked_example():
    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([1, 2, 3], {"E": (2, [(1, 2), (2, 3)])})
    assert enumerate_answers_bruteforce(q, d) == {(1,), (2,)}
    assert count_answers_bruteforce(q, d) == 2


def test_count_respects_negation_and_disequality():
    q = parse_query("phi(x) :- E(x,y), !U(y), x != y")
    d = Database.make(
        [0, 1, 2],
        {"E": (2, [(0, 0), (0, 1), (1, 2)]), "U": (1, [(2,)])},
    )
    # (0,0) fails x != y; (1,2) fails !U; only (0,1) survives.
    assert enumerate_answers_bruteforce(q, d) == {(0,)}


def test_iter_solutions_budget():
    q = parse_query("phi(x1,x2,x3) :- E(x1,x2), E(x2,x3)")
    d = Database.make(
        list(range(6)),
        {"E": (2, list(itertools.product(range(6), repeat=2)))},
    )
    with pytest.raises(BudgetExceededError):
        list(iter_solutions(q, d, budget=10))


def test_counts_on_corpus_cross_checked_by_direct_scan():
    # Second, loop-free oracle: filter the full assignment product directly.
    for seed in range(40):
        q, d = corpus_instance(seed, max_domain=3)
        expected = _count_by_product_scan(q, d)
        assert count_answers_bruteforce(q, d) == expected


def _count_by_product_scan(q, d) -> int:
    by_name = {sym.name: sym for sym in d.relations}
    answers = set()
    n_free = len(q.free_vars)
    for assign in itertools.product(d.domain, repeat=len(q.variables)):
        env = dict(zip(q.variables, assign))
        ok = all(
            tuple(env[v] for v in args) in d.relations[by_name[sym.name]]
            for sym, args in q.predicates
        ) and all(
            tuple(env[v] for v in args) not in d.relations[by_name[sym.name]]
            for sym, args in q.negated_predicates
        ) and all(env[a] != env[b] for a, b in q.disequalities)
        if ok:
            answers.add(assign[:n_free])
    return len(answers)


# ---------------------------------------------------------------------------
# Bag solutions
# ---------------------------------------------------------------------------

def test_sol_bag_full_variable_set_is_solution_set():
    for seed in range(30):
        q, d = plain_cq_instance(seed)
        assert sol_bag(q, d, q.variables) == set(iter_solutions(q, d))


def test_sol_bag_contains_all_solution_projections():
    for seed in range(30):
        q, d = plain_cq_instance(seed)
        vars_ = list(q.variables)
        rng = random.Random(seed)
        bag = tuple(rng.sample(vars_, rng.randint(1, len(vars_))))
        pos = {v: i for i, v in enumerate(q.variables)}
        projected = {
            tuple(sol[pos[v]] for v in bag) for sol in iter_solutions(q, d)
        }
        assert projected <= sol_bag(q, d, bag)


def sol_bag_by_definition(q, d, bag):
    """Every assignment of the bag over the domain whose restriction to each
    atom is the projection of one of its facts that agree on the atom's
    repeated variables."""
    allowed = []
    for sym, args in q.predicates:
        held = [v for v in dict.fromkeys(args) if v in bag]
        proj = set()
        for t in d.relations[sym]:
            m = dict(zip(args, t))
            if tuple(m[v] for v in args) == t:
                proj.add(tuple(m[v] for v in held))
        allowed.append((held, proj))
    out = set()
    for row in itertools.product(d.domain, repeat=len(bag)):
        m = dict(zip(bag, row))
        if all(tuple(m[v] for v in held) in proj for held, proj in allowed):
            out.add(row)
    return out


def test_sol_bag_equals_its_definition():
    cases = []
    for seed in range(30):
        q, d = plain_cq_instance(seed)
        rng = random.Random(seed)
        for k in range(len(q.variables) + 1):
            for bag in itertools.combinations(q.variables, k):
                bag = list(bag)
                rng.shuffle(bag)
                cases.append((q, d, tuple(bag)))
    # an atom that misses the bag and has no consistent fact empties it
    q = parse_query("phi(x) :- E(x,y), L(z,z)")
    d = Database.make([0, 1], {"E": (2, [(0, 1)]), "L": (2, [(0, 1), (1, 0)])})
    cases += [(q, d, bag) for bag in [(), ("x",), ("y", "x"), ("z",)]]
    # a triangle over a star K1,40 plus a K6: skewed degrees
    edges = {(0, i) for i in range(1, 41)}
    edges |= set(itertools.combinations(range(41, 47), 2))
    edges |= {(b, a) for a, b in edges}
    q = parse_query("tri(x,y,z) :- E(x,y), E(y,z), E(z,x)")
    d = Database.make(range(47), {"E": (2, edges)})
    cases.append((q, d, ("x", "y", "z")))

    for q, d, bag in cases:
        assert sol_bag(q, d, bag) == sol_bag_by_definition(q, d, bag), (q, bag)
    assert sol_bag(*cases[-1]) == set(itertools.permutations(range(41, 47), 3))
    assert not any(sol_bag(*c) for c in cases[-5:-1])


def test_sol_bag_shared_indexes_match_fresh_ones():
    # The bag tables of one run share one dict of fact indexes. An index is
    # told apart by its relation, equal positions, key columns and value
    # column; drop any of them from its key and some table below changes.
    # One relation read as E(x,x), E(x,y) and E(y,x), one arity-3 relation
    # with and without a repeated variable; bags in every order of every
    # subset, so one atom's key columns also come in both orders.
    q = parse_query("phi(x,y) :- E(x,x), E(x,y), E(y,x), T(x,y,x), T(y,x,z)")
    rng = random.Random(1)
    dom = range(6)
    d = Database.make(dom, {
        "E": (2, [t for t in itertools.product(dom, repeat=2) if rng.random() < 0.5]),
        "T": (3, [t for t in itertools.product(dom, repeat=3) if rng.random() < 0.5]),
    })
    bags = [
        bag
        for k in range(4)
        for sub in itertools.combinations(q.variables, k)
        for bag in itertools.permutations(sub)
    ]
    assert all(sol_bag(q, d, bag) == sol_bag_by_definition(q, d, bag) for bag in bags)
    assert sum(len(sol_bag(q, d, bag)) for bag in bags) > 3 * len(bags)
    runs = [(q, d, bags), (q, d, bags[::-1])]
    for seed in range(80):
        q, d = plain_cq_instance(seed)
        h = build_hypergraph(q)
        ntd = make_nice(h, fhw_decomposition(h, 8)[1])
        runs.append((q, d, [tuple(sorted(b, key=_vkey)) for b in ntd.bags]))
    for q, d, bags in runs:
        indexes: dict = {}
        for bag in bags:
            assert sol_bag(q, d, bag, indexes) == sol_bag(q, d, bag), (q, bag)


def test_sol_bag_respects_atoms_inside_bag():
    q = parse_query("phi(x,y) :- E(x,y), U(x)")
    d = Database.make([0, 1], {"E": (2, [(0, 1), (1, 0)]), "U": (1, [(0,)])})
    assert sol_bag(q, d, ("x", "y")) == {(0, 1)}
    assert sol_bag(q, d, ("y",)) == {(0,), (1,)}


def test_sol_bag_limit_bounds_the_table_not_its_prefixes():
    # The prefix table on x has 10 rows and the table 5, so a limit of 5
    # passes and gives the whole table; only the table itself is limited.
    q = parse_query("phi(x,y) :- E(x,y), V(y)")
    d = Database.make(
        list(range(10)), {"E": (2, [(i, i % 2) for i in range(10)]), "V": (1, [(0,)])}
    )
    assert sol_bag(q, d, ("x", "y"), limit=5) == {(i, 0) for i in range(0, 10, 2)}
    with pytest.raises(LimitExceededError, match=r"bag \['x', 'y'\] has more than 4 "):
        sol_bag(q, d, ("x", "y"), limit=4)
    assert sol_bag(q, d, (), limit=1) == {()}
    with pytest.raises(LimitExceededError, match=r"bag \[\] has more than 0 "):
        sol_bag(q, d, (), limit=0)


def test_sol_bag_limit_stops_the_last_step():
    # A complete relation over 200 values: the table would hold 40,000 rows,
    # but the last step stops at the first prefix row that takes it past the
    # limit, 200 rows in. The first call builds the fact indexes.
    n = 200
    q = parse_query("phi(x,y) :- E(x,y)")
    d = Database.make(
        list(range(n)), {"E": (2, [(i, j) for i in range(n) for j in range(n)])}
    )
    indexes: dict = {}
    with pytest.raises(LimitExceededError):
        sol_bag(q, d, ("x", "y"), indexes, limit=0)
    tracemalloc.start()
    try:
        with pytest.raises(
            LimitExceededError,
            match=r"bag \['x', 'y'\] has more than 10 partial solutions, limit is 10",
        ):
            sol_bag(q, d, ("x", "y"), indexes, limit=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert len(sol_bag(q, d, ("x", "y"), indexes, limit=n * n)) == n * n
    with pytest.raises(LimitExceededError):
        sol_bag(q, d, ("x", "y"), indexes, limit=n * n - 1)


def test_sol_bag_rejects_non_cq():
    q = parse_query("phi(x) :- E(x,y), x != y")
    d = Database.make([0], {"E": (2, [])})
    with pytest.raises(UnsupportedQueryError):
        sol_bag(q, d, ("x",))


def test_sol_bag_empty_domain():
    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([], {"E": (2, [])})
    assert sol_bag(q, d, ("x",)) == set()
