"""Hypergraphs, tree decompositions, width measures, exact rational LP."""

from __future__ import annotations

import random
import re
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
    is_valid_td,
    make_nice,
    treewidth_exact,
    treewidth_heuristic,
)
from cqcount import widths
from cqcount.lp import LPUnboundedError, solve_min
from cqcount.widths import induced_hypergraph, td_from_elimination_order

from conftest import random_hypergraph
from helpers import (
    elimination_dp_every_subset,
    fhw_exact_small_whole_bag,
    fractional_independent_set_number,
    is_alpha_acyclic,
    is_valid_td_by_search,
    min_fill_order,
    mu_width,
    validate_fractional_independent_set,
)

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


def test_min_fill_order_matches_the_full_rescan():
    # The heap with local fill updates must pick the vertex the full rescan
    # picks at every step, ties included: the least (fill, degree), then the
    # first in _vkey order (so 10 before 2, and "x10" before "x2").
    rng = random.Random(5)
    named = [EDGE, TRIANGLE, K4, C4, C5, GRID3, Hypergraph.make([7], [])]
    randoms = [random_hypergraph(rng, max_vertices=14) for _ in range(150)]
    dense = [
        Hypergraph.from_graph(
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            + [(u, u + 1) for u in range(n - 1)]
        )
        for n, p in ((25, 0.2), (40, 0.1), (30, 0.5))
    ]
    xs = [f"x{i}" for i in range(1100)]
    path = Hypergraph.from_graph(list(zip(xs, xs[1:])))
    for h in named + randoms + dense + [path]:
        order = min_fill_order(h)
        assert widths._min_fill(h)[0] == order
        width, td = treewidth_heuristic(h)
        ref = td_from_elimination_order(h, order)
        assert (width, td) == (ref.width(), ref)


def test_treewidth_heuristic_links_min_fills_own_order():
    # Min-fill eliminates once and hands its bags to the same linking as
    # td_from_elimination_order, isolated vertices (several roots under an
    # empty one) and string names included.
    rng = random.Random(36)
    named = [EDGE, TRIANGLE, K4, C4, C5, GRID3, EMPTY, Hypergraph.make([7, 8], [])]
    randoms = [
        random_hypergraph(rng, max_vertices=10, cover_all=rng.random() < 0.5)
        for _ in range(200)
    ]
    xs = [f"x{i}" for i in range(12)]
    lines = [Hypergraph.from_graph(list(zip(xs[:n], xs[1:n]))) for n in range(2, 13)]
    for h in named + randoms + lines:
        order, bags = widths._min_fill(h)
        td = td_from_elimination_order(h, order)
        assert treewidth_heuristic(h)[1] == td
        assert tuple(bags) == td.bags[: len(order)]


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


def _mutated_bags(rng: random.Random, h: Hypergraph, td: TreeDecomposition):
    """td with one bag changed: a vertex dropped or added, or two bags swapped."""
    bags = list(td.bags)
    t, u = rng.randrange(len(bags)), rng.randrange(len(bags))
    kind = rng.randrange(3)
    if kind == 0 and bags[t]:
        bags[t] = bags[t] - {rng.choice(sorted(bags[t]))}
    elif kind == 1:
        bags[t] = bags[t] | {rng.choice(h.sorted_vertices())}
    else:
        bags[t], bags[u] = bags[u], bags[t]
    return TreeDecomposition.make(td.root, td.children, bags)


def test_is_valid_td_matches_the_per_vertex_search():
    # One topmost bag per vertex is the same verdict as a search over the
    # bags holding it, on valid decompositions and on mutated ones.
    rng = random.Random(3080)
    verdicts = []
    for _ in range(150):
        h = random_hypergraph(rng, max_vertices=8, cover_all=rng.random() < 0.7)
        td = treewidth_heuristic(h)[1]
        for td in (td, make_nice(h, td)):
            assert is_valid_td(h, td) and is_valid_td_by_search(h, td)
            for _ in range(4):
                bad = _mutated_bags(rng, h, td)
                verdicts.append(is_valid_td(h, bad))
                assert verdicts[-1] == is_valid_td_by_search(h, bad)
    assert 0 < sum(verdicts) < len(verdicts)
    # Every edge lies in a bag, but vertex 0's bags form two components, in
    # two branches: nodes 0 and 1, and node 3 below node 2 (which lacks 0).
    td = TreeDecomposition.make(
        0, [(1, 2), (), (3,), ()], [{0, 1}, {0}, {1, 2}, {0, 2}]
    )
    assert not is_valid_td(TRIANGLE, td)
    assert not is_valid_td_by_search(TRIANGLE, td)


def test_tree_decomposition_make_rejects_cycles():
    with pytest.raises(DecompositionError, match="root cannot have a parent"):
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
# Input checks
# ---------------------------------------------------------------------------

EMPTY = Hypergraph.make([], [])


@pytest.mark.parametrize("edges, message", [
    ([[0], []], "hyperedges must be nonempty"),
    ([[0, 1]], "edge [0, 1] uses undeclared vertices"),
], ids=["empty-edge", "undeclared-vertex"])
def test_hypergraph_make_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError) as err:
        Hypergraph.make([0], edges)
    assert str(err.value) == message


def test_hypergraph_from_graph_rejects_self_loops():
    with pytest.raises(ValueError) as err:
        Hypergraph.from_graph([(0, 1), (2, 2)])
    assert str(err.value) == "self-loop 2"


@pytest.mark.parametrize("root, children, n_bags, message", [
    (0, [()], 2, "children and bags must have the same length"),
    (1, [()], 1, "root id out of range"),
    (0, [(1,)], 1, "child id 1 out of range"),
    (0, [(1, 2), (2,), ()], 3, "node 2 has two parents"),
    (0, [(1,), (0,)], 2, "root cannot have a parent"),
    (0, [(), (2,), (1,)], 3, "decomposition tree is not connected"),
], ids=["lengths", "root", "child", "two-parents", "root-parent", "forest"])
def test_tree_decomposition_make_rejects_non_trees(root, children, n_bags, message):
    with pytest.raises(DecompositionError) as err:
        TreeDecomposition.make(root, children, [frozenset()] * n_bags)
    assert str(err.value) == message


@pytest.mark.parametrize("children, bags", [
    ([()], [{0}]),
    ([(1, 2, 3), (), (), ()], [set()] * 4),
    ([(1,), ()], [set(), {0}]),
    ([(1,), ()], [set(), {0, 1}]),
    ([(1, 2), (), ()], [set(), {0}, set()]),
], ids=["root-bag", "three-children", "leaf-bag", "two-vertex-step", "join-bags"])
def test_is_nice_rejects(children, bags):
    # Each case breaks one rule, the others hold where the check reaches it.
    assert not TreeDecomposition.make(0, children, bags).is_nice()


@pytest.mark.parametrize("h, bags", [
    (EDGE, [{0, 1, 2}]),
    (Hypergraph.make([0, 1, 2], [(0, 1)]), [{0, 1}]),
], ids=["bag-outside-vertices", "vertex-in-no-bag"])
def test_is_valid_td_rejects(h, bags):
    assert not is_valid_td(h, TreeDecomposition.make(0, [()], bags))


def test_make_nice_rejects_invalid():
    td = TreeDecomposition.make(0, [()], [frozenset({0, 1})])
    with pytest.raises(DecompositionError, match="not valid for the hypergraph"):
        make_nice(TRIANGLE, td)


@pytest.mark.parametrize("order", [[0, 1], [0, 1, 1, 2], [0, 1, 2, 3], []],
                         ids=["missing", "repeated", "extra", "none"])
def test_td_from_elimination_order_rejects_bad_orders(order):
    with pytest.raises(DecompositionError, match="each vertex exactly once"):
        td_from_elimination_order(TRIANGLE, order)


def test_empty_hypergraph():
    # One empty bag; treewidth -1 and fhw 0 by convention.
    td = TreeDecomposition.make(0, [()], [frozenset()])
    assert td_from_elimination_order(EMPTY, []) == td
    assert treewidth_exact(EMPTY) == (-1, td)
    assert fhw_exact_small(EMPTY) == (Fraction(0), td)


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


def _subsets(h: Hypergraph):
    vs = h.sorted_vertices()
    for mask in range(1 << len(vs)):
        yield frozenset(v for i, v in enumerate(vs) if mask >> i & 1)


def test_rho_cache_adds_over_components():
    # One cache per hypergraph, asked every vertex subset, must give each
    # bag's whole-bag LP value, whatever it memoised for earlier bags.
    seen = {"arity 3": 0, "nested": 0, "split": 0}
    for seed in range(40):
        h = random_hypergraph(random.Random(seed), max_vertices=7)
        seen["arity 3"] += h.arity == 3
        seen["nested"] += any(e < f for e in h.edges for f in h.edges)
        rho = widths._rho_cache(h)
        assert rho(frozenset()) == 0
        for bag in _subsets(h):
            if not bag:
                continue
            sub = induced_hypergraph(h, bag)
            want, _ = fractional_edge_cover_number(sub)
            got = rho(bag)
            assert type(got) is Fraction and got == want, (seed, sorted(bag))
            adj = sub.primal_adjacency()
            reach, stack = {min(bag)}, [min(bag)]
            while stack:
                for u in adj[stack.pop()] - reach:
                    reach.add(u)
                    stack.append(u)
            # a fractional value needs a part that no single edge covers
            seen["split"] += reach != bag and want.denominator > 1
    assert all(seen.values()), seen


def test_rho_cache_names_uncovered_vertices_as_the_lp_does():
    raised = 0
    for seed in range(40):
        h = random_hypergraph(random.Random(seed), max_vertices=7, cover_all=False)
        rho = widths._rho_cache(h)
        for bag in _subsets(h):
            try:
                want = fractional_edge_cover_number(induced_hypergraph(h, bag))[0]
            except UncoverableVertexError as exc:
                with pytest.raises(UncoverableVertexError) as got:
                    rho(bag)
                assert str(got.value) == str(exc)
                raised += 1
            else:
                assert rho(bag) == want
    assert raised


def test_rho_cache_solves_one_lp_per_component_shape(monkeypatch):
    # A component's rho* is kept under its edges over its vertices' ranks.
    # The five two-edge paths the exact search meets on a 5-cycle have three
    # such shapes (the middle vertex ranked first, second or last), so the
    # search solves three LPs, on integer and on string names alike.
    solved = []
    lp = widths.fractional_edge_cover_number

    def counted(h):
        solved.append(h.vertices)
        return lp(h)

    monkeypatch.setattr(widths, "fractional_edge_cover_number", counted)
    for name in (int, "v{}".format):
        vs = [name(i) for i in range(5)]
        del solved[:]
        assert fhw_exact_small(Hypergraph.from_graph(zip(vs, vs[1:] + vs[:1])))[0] == 2
        assert len(solved) == 3 and {len(p) for p in solved} == {3}, name


def test_fhw_exact_small_matches_the_whole_bag_lp():
    # Equal rho* values make the elimination DP take the same choices, so
    # the value and the decomposition are identical, not merely as good.
    # Five vertices keep the whole-bag LPs of 1,500 hypergraphs to seconds.
    for seed in range(1500):
        h = random_hypergraph(random.Random(seed), max_vertices=5)
        value, td = fhw_exact_small(h)
        want, want_td = fhw_exact_small_whole_bag(h)
        assert value == want, seed
        assert is_alpha_acyclic(h) == (want == 1), seed
        assert (td.root, td.bags, td.children) == (
            want_td.root, want_td.bags, want_td.children
        ), seed


def test_fhw_exact_small_matches_the_whole_bag_lp_on_acyclic_hypergraphs():
    # Width 1 is exactly alpha-acyclicity, which the GYO reduction of
    # helpers.is_alpha_acyclic recognises. The test above reaches 5 vertices;
    # this one checks acyclic hypergraphs of up to 8, where every bag of an
    # optimal order lies inside an edge and costs rho* 1 with no LP. Each must
    # get the whole-bag LP's width and decomposition. For the others no
    # elimination order keeps every bag inside an edge, so their width is
    # above 1. Up to 8 vertices, 2,810 seeds give over 2,000 acyclic ones.
    lps: dict = {}
    acyclic = 0
    for seed in range(2810):
        h = random_hypergraph(random.Random(seed), max_vertices=8)
        if not is_alpha_acyclic(h):
            width, _ = widths._elimination_dp(
                h, lambda bag: 1 if any(bag <= e for e in h.edges) else 2, 8, "test"
            )
            assert width == 2, seed
            continue
        acyclic += 1
        value, td = fhw_exact_small(h)
        want, want_td = fhw_exact_small_whole_bag(h, lps=lps)
        assert type(value) is Fraction and value == want == 1, seed
        assert (td.root, td.bags, td.children) == (
            want_td.root, want_td.bags, want_td.children
        ), seed
    assert acyclic >= 2000, acyclic


def test_fhw_exact_small_uncovered_vertex_raises():
    # A vertex in no edge has unbounded rho*, so the search names it,
    # acyclic edges or not. The first bag the search costs that holds one is
    # the lowest such vertex.
    for h, named in (
        (Hypergraph.make([0, 1, 2], [(0, 1)]), "[2]"),
        (Hypergraph.make(["a", "b", "c", "d"], [("a", "b", "c")]), "['d']"),
        (Hypergraph.make([0, 1, 2, 3], [(1, 2)]), "[0]"),
        (Hypergraph.make([0, 1, 2, 3], [(1, 2), (2, 3), (1, 3)]), "[0]"),
    ):
        with pytest.raises(
            UncoverableVertexError, match=re.escape(f"vertices in no hyperedge: {named}")
        ):
            fhw_exact_small(h)


def _dp_corpus():
    """Seeded hypergraphs for the elimination search: random ones of 1 to 8
    vertices, paths, cycles and cliques on integer and string names, and two
    with a vertex in no edge."""
    rng = random.Random(29)
    for _ in range(100):
        yield random_hypergraph(rng, max_vertices=8)
    for n in range(2, 10):
        for name in (int, "v{}".format):
            vs = [name(i) for i in range(n)]
            yield Hypergraph.from_graph(zip(vs, vs[1:]))
            if n >= 3:
                yield Hypergraph.from_graph(zip(vs, vs[1:] + vs[:1]))
            if n <= 6:
                yield Hypergraph.from_graph(
                    [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)]
                )
    yield Hypergraph.make([0, 1, 2, 3], [(1, 2), (2, 3)])
    yield Hypergraph.make(["a", "b", "c", "d"], [("a", "b", "c")])


def _dp_costs(h: Hypergraph, rng: random.Random) -> dict:
    """The four monotone bag costs the searches run on; the mu mass weighs
    each vertex 0, 1/8, ... or 1 by rng."""
    weights = {v: Fraction(rng.randint(0, 8), 8) for v in h.sorted_vertices()}
    return {
        "rho*": widths._rho_cache(h),
        "inside an edge": lambda bag: 1 if any(bag <= e for e in h.edges) else 2,
        "treewidth": lambda bag: len(bag) - 1,
        "mu mass": lambda bag: sum((weights[v] for v in bag), Fraction(0)),
    }


def _outcome(search, h, cost):
    try:
        value, order = search(h, cost, 9, "test")
    except UncoverableVertexError as exc:
        return "raised", str(exc)
    return type(value), value, order


def test_elimination_dp_matches_every_subset_reference():
    # The top-down search solves only the sets its choices reach, so it is
    # checked against the bottom-up table of every subset: the same value,
    # of the same type, and the same order, which the lowest-vertex tie
    # rule decides, for each cost; an uncoverable vertex raises the same text.
    raised = 0
    for i, h in enumerate(_dp_corpus()):
        for name, cost in _dp_costs(h, random.Random(i)).items():
            got = _outcome(widths._elimination_dp, h, cost)
            want = _outcome(elimination_dp_every_subset, h, cost)
            assert got == want, (sorted(h.vertices, key=repr), name)
            raised += got[0] == "raised"
    assert raised == 2
    # Each set's floor is its own. In the set {3, 4}, 4 last costs 7/8 and
    # 3 last costs 1, so the order starts with 3; clipped at vertex 0's mass
    # 1, the two would tie and it would start with 4.
    h = Hypergraph.make(range(5), [(0, 2), (1, 2, 4), (2,), (3, 4)])
    weights = [Fraction(1), Fraction(1, 8), Fraction(0), Fraction(1, 8), Fraction(3, 4)]

    def mass(bag):
        return sum((weights[v] for v in bag), Fraction(0))

    want = (Fraction(1), [3, 4, 1, 2, 0])
    assert elimination_dp_every_subset(h, mass, 9, "test") == want
    assert widths._elimination_dp(h, mass, 9, "test") == want


@pytest.mark.parametrize("n", [8, 14, 20])
def test_fhw_exact_small_on_a_path_costs_at_most_2n_bags(monkeypatch, n):
    # On a tree whose vertex order puts each vertex after its parent, as on
    # a path along its order or a star from its centre, each set's lowest
    # vertex reaches the set's floor: its bag is itself and its parent. So
    # the search costs the n one-vertex bags and one more bag per set on the
    # way down: 2n - 1 of the bags of all n * 2**(n-1) (set, vertex) pairs.
    # Every one of them lies inside an edge, so none solves an LP.
    asked = set()
    search = widths._elimination_dp

    def counting(h, bag_cost, vertex_limit, what):
        def cost(bag):
            asked.add(bag)
            return bag_cost(bag)

        return search(h, cost, vertex_limit, what)

    def no_lp(h):
        raise AssertionError(f"LP solved on {sorted(h.vertices)}")

    monkeypatch.setattr(widths, "_elimination_dp", counting)
    monkeypatch.setattr(widths, "fractional_edge_cover_number", no_lp)
    vs = [f"x{i:02d}" for i in range(n)]
    rng = random.Random(n)
    trees = {
        "path": zip(vs, vs[1:]),
        "star": ((vs[0], v) for v in vs[1:]),
        "tree": ((vs[rng.randrange(i)], vs[i]) for i in range(1, n)),
    }
    for shape, edges in trees.items():
        asked.clear()
        value, td = fhw_exact_small(Hypergraph.from_graph(edges), vertex_limit=20)
        assert value == 1 and td.n_nodes == n, shape
        assert len(asked) <= 2 * n, (shape, len(asked))


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
