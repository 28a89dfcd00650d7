"""Hypergraphs, tree decompositions, width measures, exact rational LP."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cqcount import (
    DecompositionError,
    Hypergraph,
    LimitExceededError,
    TreeDecomposition,
    UncoverableVertexError,
    fhw_exact_small,
    fhw_of_td,
    fractional_edge_cover_number,
    fractional_independent_set_number,
    is_valid_td,
    make_nice,
    mu_width,
    treewidth_exact,
    treewidth_heuristic,
)
from cqcount.lp import LPUnboundedError, solve_min
from cqcount.widths import (
    induced_hypergraph,
    td_from_elimination_order,
    validate_fractional_independent_set,
)

from conftest import random_hypergraph

EDGE = Hypergraph.from_graph([(0, 1)])
TRIANGLE = Hypergraph.from_graph([(0, 1), (1, 2), (0, 2)])
K4 = Hypergraph.from_graph(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
)
C4 = Hypergraph.from_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = Hypergraph.from_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
GRID3 = Hypergraph.from_graph(
    [
        ((r, c), (r, c + 1))
        for r in range(3)
        for c in range(2)
    ]
    + [
        ((r, c), (r + 1, c))
        for r in range(2)
        for c in range(3)
    ]
)


def treewidth_oracle(h: Hypergraph) -> int:
    """Independent oracle: branch and bound over explicit graph eliminations.

    Unlike the library's subset DP this mutates a real adjacency structure,
    so the two implementations share no code path.
    """
    adj = {v: set(ns) for v, ns in h.primal_adjacency().items()}
    best = [len(adj) - 1 if adj else -1]

    def rec(adj: dict, width: int) -> None:
        if width >= best[0]:
            return
        if len(adj) - 1 <= width:
            best[0] = width
            return
        for v in list(adj):
            ns = adj[v]
            w = max(width, len(ns))
            if w >= best[0]:
                continue
            removed = {u: adj[u] & {v} for u in ns}
            added = {}
            ns_list = sorted(ns, key=repr)
            for i, a in enumerate(ns_list):
                for b in ns_list[i + 1 :]:
                    if b not in adj[a]:
                        added.setdefault(a, set()).add(b)
                        added.setdefault(b, set()).add(a)
            for u in ns:
                adj[u].discard(v)
                adj[u] |= added.get(u, set())
            saved = adj.pop(v)
            rec(adj, w)
            adj[v] = saved
            for u, extra in added.items():
                adj[u] -= extra
            for u, back in removed.items():
                adj[u] |= back
    rec(adj, -1 if adj else -1)
    return best[0]


# ---------------------------------------------------------------------------
# Treewidth
# ---------------------------------------------------------------------------

def test_treewidth_named_graphs():
    assert treewidth_exact(Hypergraph.from_graph([(0, 1), (1, 2), (2, 3)]))[0] == 1
    assert treewidth_exact(Hypergraph.from_graph([(0, 1), (1, 2), (2, 0)]))[0] == 2
    assert treewidth_exact(K4)[0] == 3
    assert treewidth_exact(GRID3)[0] == 3


def test_treewidth_singleton_edge():
    h = Hypergraph.make([0], [[0]])
    value, td = treewidth_exact(h)
    assert value == 0
    assert is_valid_td(h, td)


def test_treewidth_exact_matches_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=7)
        value, td = treewidth_exact(h)
        assert value == treewidth_oracle(h)
        assert is_valid_td(h, td)
        assert td.width() == value


def test_treewidth_exact_limit():
    h = Hypergraph.make(range(20), [range(20)])
    with pytest.raises(LimitExceededError):
        treewidth_exact(h, vertex_limit=16)


def test_treewidth_heuristic_upper_bound():
    rng = random.Random(77)
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=7)
        width, td = treewidth_heuristic(h)
        assert is_valid_td(h, td)
        assert width == td.width()
        assert width >= treewidth_exact(h)[0]


def test_td_from_elimination_order_always_valid():
    rng = random.Random(9)
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=7)
        order = h.sorted_vertices()
        rng.shuffle(order)
        td = td_from_elimination_order(h, order)
        assert is_valid_td(h, td)


# ---------------------------------------------------------------------------
# Decomposition validity
# ---------------------------------------------------------------------------

def test_is_valid_td_rejects_uncovered_edge():
    td = TreeDecomposition.make(
        0, [(1,), ()], [frozenset({0, 1}), frozenset({1, 2})]
    )
    assert not is_valid_td(TRIANGLE, td)


def test_is_valid_td_rejects_disconnected_occurrence():
    # Vertex 0 appears in the two leaves but not in the middle node.
    td = TreeDecomposition.make(
        0,
        [(1,), (2,), ()],
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
    )
    assert not is_valid_td(TRIANGLE, td)


def test_is_valid_td_rejects_missing_vertex():
    td = TreeDecomposition.make(0, [()], [frozenset({0, 1})])
    assert not is_valid_td(TRIANGLE, td)


def test_is_valid_td_accepts_triangle_bag():
    td = TreeDecomposition.make(0, [()], [frozenset({0, 1, 2})])
    assert is_valid_td(TRIANGLE, td)
    assert td.width() == 2


def test_tree_decomposition_make_rejects_cycles():
    with pytest.raises(DecompositionError):
        TreeDecomposition.make(0, [(1,), (0,)], [frozenset(), frozenset()])


def test_tree_decomposition_to_doc():
    td = TreeDecomposition.make(
        1, [(), (0, 2), ()], [frozenset("ba"), frozenset("b"), frozenset({3, "c"})]
    )
    assert td.to_doc() == {
        "nodes": [
            {"id": 0, "parent": 1, "bag": ["a", "b"]},
            {"id": 1, "parent": None, "bag": ["b"]},
            {"id": 2, "parent": 1, "bag": [3, "c"]},
        ]
    }
    _, td = treewidth_exact(GRID3)
    nodes = td.to_doc()["nodes"]
    assert [n["id"] for n in nodes] == list(range(td.n_nodes))
    assert [n["parent"] for n in nodes] == td.parents()
    assert [frozenset(n["bag"]) for n in nodes] == list(td.bags)


# ---------------------------------------------------------------------------
# Nice decompositions
# ---------------------------------------------------------------------------

def test_make_nice_shape_on_corpus():
    rng = random.Random(4242)
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=7)
        width, td = treewidth_heuristic(h)
        nice = make_nice(h, td)
        assert nice.is_nice()
        assert is_valid_td(h, nice)
        assert nice.width() <= td.width()
        # Every nice bag sits inside an original bag.
        assert all(
            any(bag <= orig for orig in td.bags) for bag in nice.bags
        )


def test_make_nice_preserves_fhw():
    rng = random.Random(11)
    for _ in range(25):
        h = random_hypergraph(rng, max_vertices=6)
        _, td = treewidth_heuristic(h)
        nice = make_nice(h, td)
        assert fhw_of_td(h, nice) <= fhw_of_td(h, td)


def test_make_nice_root_and_leaves_empty():
    _, td = treewidth_exact(TRIANGLE)
    nice = make_nice(TRIANGLE, td)
    assert nice.bags[nice.root] == frozenset()
    for t in range(nice.n_nodes):
        if not nice.children[t]:
            assert nice.bags[t] == frozenset()


# ---------------------------------------------------------------------------
# Exact rational LP
# ---------------------------------------------------------------------------

def test_solve_min_known_lp():
    # min -x - y s.t. x + 2y <= 4, 3x + y <= 6: optimum at (8/5, 6/5),
    # with duals (2/5, 1/5) on the two rows.
    value, x, duals = solve_min(
        [Fraction(-1), Fraction(-1)],
        [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]],
        [Fraction(4), Fraction(6)],
    )
    assert value == Fraction(-14, 5)
    assert x == [Fraction(8, 5), Fraction(6, 5)]
    assert duals == [Fraction(2, 5), Fraction(1, 5)]


def test_solve_min_negative_rhs_feasible():
    # -x <= -2 encodes x >= 2: the program is feasible but the origin is
    # not, which the one-phase simplex does not handle, so it is rejected.
    with pytest.raises(ValueError):
        solve_min([Fraction(1)], [[Fraction(-1)]], [Fraction(-2)])


def test_solve_min_infeasible():
    # x <= -1 contradicts the built-in x >= 0; the negative b_ub is rejected
    # before any pivot.
    with pytest.raises(ValueError):
        solve_min([Fraction(1)], [[Fraction(1)]], [Fraction(-1)])


def test_solve_min_duals_certify_random_packing_lps():
    rng = random.Random(2718)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        c = [Fraction(rng.randint(-5, 2)) for _ in range(n)]
        a = [[Fraction(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        # Every variable gets a positive coefficient in some row, so the
        # program is bounded.
        for j in range(n):
            a[rng.randrange(m)][j] += 1
        b = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(m)]
        value, x, w = solve_min(c, a, b)
        assert len(w) == m and all(wi >= 0 for wi in w)
        for j in range(n):
            assert c[j] + sum(a[i][j] * w[i] for i in range(m)) >= 0
        assert value == -sum(bi * wi for bi, wi in zip(b, w))
        # x is feasible and attains the value, so weak duality makes both
        # optimal.
        assert all(xj >= 0 for xj in x)
        for i in range(m):
            assert sum(a[i][j] * x[j] for j in range(n)) <= b[i]
        assert value == sum(cj * xj for cj, xj in zip(c, x))


def test_solve_min_unbounded():
    with pytest.raises(LPUnboundedError):
        solve_min([Fraction(-1)], [], [])


def test_fractional_edge_cover_named_values():
    for h, expected in ((EDGE, Fraction(1)), (TRIANGLE, Fraction(3, 2)),
                        (K4, Fraction(2)), (C4, Fraction(2)),
                        (C5, Fraction(5, 2))):
        value, weights = fractional_edge_cover_number(h)
        assert value == expected
        # Primal feasibility certificate.
        assert sum(weights.values()) == value
        for e, w in weights.items():
            assert 0 <= w <= 1 and e in h.edges
        for v in h.vertices:
            assert sum(w for e, w in weights.items() if v in e) >= 1
        # Matching dual certificate: equal objective proves optimality.
        dual_value, mu = fractional_independent_set_number(h)
        assert dual_value == value
        validate_fractional_independent_set(h, mu)


def test_fractional_cover_uncoverable():
    h = Hypergraph.make([0, 1], [[1]])
    with pytest.raises(UncoverableVertexError):
        fractional_edge_cover_number(h)


def test_strong_duality_on_random_hypergraphs():
    rng = random.Random(314)
    for _ in range(40):
        h = random_hypergraph(rng, max_vertices=7)
        primal, weights = fractional_edge_cover_number(h)
        dual, mu = fractional_independent_set_number(h)
        assert primal == dual
        # Both numbers come from one LP, so equal values alone prove
        # nothing. A feasible cover and a feasible packing whose totals
        # meet certify that both are optimal.
        assert sum(weights.values()) == primal
        assert sum(mu.values()) == dual
        for v in h.vertices:
            assert sum(w for e, w in weights.items() if v in e) >= 1
        validate_fractional_independent_set(h, mu)


def test_rho_monotone_under_induced_subsets():
    rng = random.Random(99)
    for _ in range(60):
        h = random_hypergraph(rng, max_vertices=7)
        vs = h.sorted_vertices()
        big = rng.sample(vs, rng.randint(1, len(vs)))
        small = rng.sample(big, rng.randint(1, len(big)))
        rho = lambda s: (
            fractional_edge_cover_number(induced_hypergraph(h, s))[0]
            if s else Fraction(0)
        )
        assert rho(small) <= rho(big)


# ---------------------------------------------------------------------------
# Fractional hypertreewidth and mu-width
# ---------------------------------------------------------------------------

def test_fhw_named_values():
    assert fhw_exact_small(EDGE)[0] == Fraction(1)
    assert fhw_exact_small(TRIANGLE)[0] == Fraction(3, 2)
    assert fhw_exact_small(K4)[0] == Fraction(2)


def test_fhw_witness_is_valid_and_matches():
    rng = random.Random(13)
    for _ in range(25):
        h = random_hypergraph(rng, max_vertices=6)
        value, td = fhw_exact_small(h)
        assert is_valid_td(h, td)
        assert fhw_of_td(h, td) == value


def test_fhw_of_td_rejects_invalid():
    td = TreeDecomposition.make(0, [()], [frozenset({0})])
    with pytest.raises(DecompositionError):
        fhw_of_td(TRIANGLE, td)


def test_fhw_at_most_heuristic_bound():
    rng = random.Random(21)
    for _ in range(25):
        h = random_hypergraph(rng, max_vertices=6)
        exact, _ = fhw_exact_small(h)
        _, td = treewidth_heuristic(h)
        assert exact <= fhw_of_td(h, td)


def test_mu_width_triangle():
    mu = {v: Fraction(1, 2) for v in TRIANGLE.vertices}
    assert mu_width(TRIANGLE, mu) == Fraction(3, 2)


def test_mu_width_rejects_infeasible_mu():
    with pytest.raises(ValueError):
        mu_width(TRIANGLE, {v: Fraction(2, 3) for v in TRIANGLE.vertices})
    with pytest.raises(ValueError):
        mu_width(TRIANGLE, {0: Fraction(1, 2)})


def test_mu_width_below_fhw():
    # Any feasible mu keeps every bag's mass below its fractional cover
    # number, so the optimal mu-width never exceeds fhw.
    rng = random.Random(55)
    for _ in range(20):
        h = random_hypergraph(rng, max_vertices=6)
        _, mu = fractional_independent_set_number(h)
        assert mu_width(h, mu) <= fhw_exact_small(h)[0]
