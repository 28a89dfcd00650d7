"""Hypergraphs, tree decompositions and width measures.

Provides exact treewidth (small inputs), a min-fill heuristic, conversion to
nice decompositions, and fractional hypertreewidth for small hypergraphs.
Both exact widths come from one search over elimination orders, run
top-down from the full vertex set: a set stops at the first vertex that
reaches its floor, the highest one-vertex bag cost in it, so a path's
search solves n sets of the 2**n. Every decomposition starts as the
fill-in decomposition of an elimination order, whose bags one elimination
step (_eliminate) makes, for an order given and for min-fill's own alike.

The fractional edge cover number rho* and an optimal cover come from one
exact rational LP, the packing LP, whose row duals are that cover; its
primal optimum is the fractional independent set number alpha* = rho*,
which tests/helpers.fractional_independent_set_number reads. The width
searches take a bag's rho* as the sum over the connected components of its
induced edges, since the LP splits along them; a component inside one edge
has rho* 1, so only the others solve an LP, each shape once per search (its
edges over its vertices' ranks). An alpha-acyclic hypergraph, which a GYO
reduction recognises, has fractional hypertreewidth 1, and its search runs
on the integer cost "1 if the bag lies inside an edge, else 2", with no LP
at all. (The bag tables that the fhw pipeline builds along the chosen
decomposition share one fact index per run; see automata.sol_bag.)
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DecompositionError, LimitExceededError, UncoverableVertexError
from .lp import solve_min

Vertex = Hashable
Edge = frozenset


def _vkey(v):
    return (v.__class__.__name__, repr(v))


def _postorder(root: int, children: Sequence[Sequence[int]]) -> list[int]:
    """Node ids of a rooted tree, children strictly before parents, left to right."""
    out, stack = [], [(root, False)]
    while stack:
        t, done = stack.pop()
        if done:
            out.append(t)
            continue
        stack.append((t, True))
        for c in reversed(children[t]):
            stack.append((c, False))
    return out


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph: vertex set plus a set of nonempty hyperedges."""

    vertices: frozenset
    edges: frozenset[Edge]

    @staticmethod
    def make(vertices: Iterable, edges: Iterable[Iterable]) -> "Hypergraph":
        vs = frozenset(vertices)
        es = frozenset(frozenset(e) for e in edges)
        for e in es:
            if not e:
                raise ValueError("hyperedges must be nonempty")
            if not e <= vs:
                raise ValueError(f"edge {sorted(e, key=_vkey)} uses undeclared vertices")
        return Hypergraph(vs, es)

    @staticmethod
    def from_graph(edges: Iterable[tuple], vertices: Iterable = ()) -> "Hypergraph":
        """2-uniform hypergraph from an edge list (plus optional isolated vertices)."""
        vs = set(vertices)
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u!r}")
            vs.update((u, v))
            es.add(frozenset((u, v)))
        return Hypergraph(frozenset(vs), frozenset(es))

    @property
    def arity(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def sorted_vertices(self) -> list:
        return sorted(self.vertices, key=_vkey)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: sorted(e, key=_vkey).__repr__())

    def primal_adjacency(self) -> dict:
        """Neighbour sets of the primal graph (co-occurrence in some edge)."""
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            for u in e:
                adj[u].update(e - {u})
        return adj

    def covered(self) -> frozenset:
        return frozenset(v for e in self.edges for v in e)


@dataclass(frozen=True)
class TreeDecomposition:
    """A rooted tree with a bag per node; children order is significant."""

    root: int
    children: tuple[tuple[int, ...], ...]
    bags: tuple[frozenset, ...]

    @staticmethod
    def make(root, children, bags) -> "TreeDecomposition":
        bags = tuple(frozenset(b) for b in bags)
        children = tuple(tuple(c) for c in children)
        n = len(bags)
        if len(children) != n:
            raise DecompositionError("children and bags must have the same length")
        if not (0 <= root < n):
            raise DecompositionError("root id out of range")
        seen_child = set()
        for kids in children:
            for c in kids:
                if not (0 <= c < n):
                    raise DecompositionError(f"child id {c} out of range")
                if c in seen_child:
                    raise DecompositionError(f"node {c} has two parents")
                seen_child.add(c)
        if root in seen_child:
            raise DecompositionError("root cannot have a parent")
        # Reachability from the root must cover every node (tree, not forest).
        if len(_postorder(root, children)) != n:
            raise DecompositionError("decomposition tree is not connected")
        return TreeDecomposition(root, children, bags)

    @property
    def n_nodes(self) -> int:
        return len(self.bags)

    def parents(self) -> list[int | None]:
        out: list[int | None] = [None] * self.n_nodes
        for t, kids in enumerate(self.children):
            for c in kids:
                out[c] = t
        return out

    def postorder(self) -> list[int]:
        """Children strictly before parents, left to right."""
        return _postorder(self.root, self.children)

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def is_nice(self) -> bool:
        if self.bags[self.root]:
            return False
        for t in range(self.n_nodes):
            kids = self.children[t]
            if len(kids) > 2:
                return False
            if len(kids) == 0 and self.bags[t]:
                return False
            if len(kids) == 1 and len(self.bags[t] ^ self.bags[kids[0]]) != 1:
                return False
            if len(kids) == 2 and not (
                self.bags[t] == self.bags[kids[0]] == self.bags[kids[1]]
            ):
                return False
        return True

    def to_doc(self) -> dict:
        parents = self.parents()
        nodes = [
            {"id": t, "parent": parents[t], "bag": sorted(self.bags[t], key=_vkey)}
            for t in range(self.n_nodes)
        ]
        return {"nodes": nodes}


def is_valid_td(h: Hypergraph, td: TreeDecomposition) -> bool:
    """Every vertex in some bag, every edge inside some bag, and the bags
    holding each vertex connected. In a tree, those bags form as many
    components as they have topmost bags, the ones with no parent or whose
    parent's bag lacks the vertex, so each vertex must have exactly one."""
    if not all(b <= h.vertices for b in td.bags):
        return False
    if not all(any(e <= b for b in td.bags) for e in h.edges):
        return False
    parents = td.parents()
    tops = Counter(
        v
        for b, p in zip(td.bags, parents)
        for v in (b if p is None else b - td.bags[p])
    )
    return all(tops[v] == 1 for v in h.vertices)


# ---------------------------------------------------------------------------
# Treewidth via elimination orders
# ---------------------------------------------------------------------------

def _adjacency_masks(h: Hypergraph, vs: list) -> list[int]:
    """The primal graph as one neighbour bitmask per vertex, vs[i] bit i."""
    index = {v: i for i, v in enumerate(vs)}
    adj = h.primal_adjacency()
    return [sum(1 << index[u] for u in adj[v]) for v in vs]


def _components(adj: list[int], s: int) -> list[tuple[int, int]]:
    """(K, N(K) - s) as bitmasks for each connected component K of the graph
    induced on s, N(K) being the neighbours of K's vertices. Eliminating s
    with v last, v's bag is v plus N(K) - s for the K that holds v: the
    vertices outside s that v reaches through the rest of s."""
    out = []
    left = s
    while left:
        todo = comp = left & -left
        nbrs = 0
        while todo:
            low = todo & -todo
            todo ^= low
            nb = adj[low.bit_length() - 1]
            nbrs |= nb
            new = nb & left & ~comp
            comp |= new
            todo |= new
        left &= ~comp
        out.append((comp, nbrs & ~s))
    return out


def _elimination_dp(
    h: Hypergraph,
    bag_cost: Callable[[frozenset], object],
    vertex_limit: int,
    what: str,
):
    """Minimize, over all elimination orders, the maximum bag cost.

    Exact for monotone costs: every tree decomposition can be rearranged into
    an elimination order whose bags are contained in the original bags, and
    every order's bags form a valid decomposition.
    Returns (optimal cost or None for the empty graph, elimination order).

    The recurrence of Bodlaender et al. (ESA 2006): best(S) is the least,
    over the vertex v of S eliminated last, of max(best(S - v), cost of v's
    bag), and the order takes the lowest such v. It is solved top-down from
    the full set, memoised in lists over all 2**n sets, so only the sets
    some choice reaches are solved. At a set, v goes lowest first; v is
    passed over when best(S - v), if known, or its bag's cost is already no
    lower than the best so far, since it then cannot win under strict <. A
    monotone cost puts every order of S at or above S's floor, the highest
    cost of a one-vertex bag {u} for u in S, so the first v that reaches
    the floor is the choice. On a path in vertex order each set's first v
    does, and the search solves n of the 2**n sets. The one-vertex costs
    are asked first, in vertex order, so a cost that raises on a vertex
    raises on the lowest one. A set's bags are read off its components,
    found once per set.
    """
    vs = h.sorted_vertices()
    n = len(vs)
    if n > vertex_limit:
        raise LimitExceededError(
            f"{what} limited to {vertex_limit} vertices, got {n}"
        )
    if n == 0:
        return None, []
    adj = _adjacency_masks(h, vs)
    full = (1 << n) - 1
    cost_of_bagmask: dict[int, object] = {}

    def cost(bagmask: int):
        got = cost_of_bagmask.get(bagmask)
        if got is None:
            got = bag_cost(frozenset(vs[i] for i in _bits(bagmask)))
            cost_of_bagmask[bagmask] = got
        return got

    single = [bag_cost(frozenset((v,))) for v in vs]
    cost_of_bagmask.update((1 << u, c) for u, c in enumerate(single))
    # (floor, the vertices whose one-vertex cost it is), highest floor first.
    floors = [
        (c, sum(1 << u for u in range(n) if single[u] == c))
        for c in sorted(set(single), reverse=True)
    ]
    # None marks a set not solved yet. The empty set takes the least floor,
    # which every bag's cost reaches, so max() with it changes nothing.
    best: list = [None] * (full + 1)
    best[0] = floors[-1][0]
    choice: list = [0] * (full + 1)

    def solve(s: int):
        for floor, mask in floors:
            if s & mask:
                break
        cur_best = None
        cur_choice = 0
        parts = None
        m = s
        while m:
            low = m & -m
            m ^= low
            rest = s ^ low
            prev = best[rest]
            if cur_best is not None and prev is not None and not prev < cur_best:
                continue
            if parts is None:
                parts = _components(adj, s)
            for comp, outside in parts:
                if comp & low:
                    break
            c = cost(low | outside)
            if cur_best is not None and not c < cur_best:
                continue
            if prev is None:
                prev = solve(rest)
            if prev > c:
                c = prev
            if cur_best is None or c < cur_best:
                cur_best = c
                cur_choice = low.bit_length() - 1
                if c == floor:
                    break
        best[s] = cur_best
        choice[s] = cur_choice
        return cur_best

    solve(full)
    order_idx = []
    s = full
    while s:
        v = choice[s]
        order_idx.append(v)
        s ^= 1 << v
    order_idx.reverse()
    return best[full], [vs[i] for i in order_idx]


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _eliminate(nbr: dict, v) -> set:
    """Drop v from the graph nbr, join its neighbours pairwise, and return
    them: the later vertices of v's fill-in bag, since each vertex
    eliminated before v has already left v's neighbour set."""
    ns = nbr.pop(v)
    for a in ns:
        nbr[a].discard(v)
        nbr[a].update(ns - {a})
    return ns


def _linked(order: list, bags: list[frozenset]) -> TreeDecomposition:
    """The fill-in decomposition of an elimination order, bags[i] being
    order[i] plus its neighbours when eliminated: each bag hangs below the
    bag of its earliest later vertex, and several roots below an empty
    root (the only bag of an empty order)."""
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for i, (v, bag) in enumerate(zip(order, bags)):
        later = [pos[w] for w in bag if w != v]
        (children[min(later)] if later else roots).append(i)
    if len(roots) == 1:
        return TreeDecomposition.make(roots[0], children, bags)
    return TreeDecomposition.make(n, children + [roots], bags + [frozenset()])


def td_from_elimination_order(h: Hypergraph, order: Sequence) -> TreeDecomposition:
    """Fill-in decomposition: one bag per vertex, linked along the order."""
    order = list(order)
    if set(order) != h.vertices or len(order) != len(h.vertices):
        raise DecompositionError("order must enumerate each vertex exactly once")
    nbr = {v: set(ns) for v, ns in h.primal_adjacency().items()}
    return _linked(order, [frozenset({v} | _eliminate(nbr, v)) for v in order])


# The most vertices the exact treewidth search takes before callers fall back
# to min-fill: its search over vertex sets is exponential in them.
TW_EXACT_VERTEX_LIMIT = 16
# The most vertices the exact fhw search takes before callers fall back to
# min-fill: a search over vertex sets with one rho* per bag, summed over the
# bag's connected parts; an acyclic query, such as a path, needs no rho* at
# all. CPU ms per search on vertices x1, ..., xn, median of 11 (path: of 21),
# Python 3.11, 2-vCPU Xeon:
#   vertices          6     7     8     9    10
#   path            0.2   0.2   0.3   0.3   0.7
#   cycle           3.6   5.5   6.9   8.0   9.8
#   random hypergraph (tests/conftest.py, seed 5), 10 vertices, 10 edges: 16.0
# Raising it would cost little, but it decides the "exact" flag of reports.
FHW_EXACT_VERTEX_LIMIT = 8


def treewidth_exact(
    h: Hypergraph, vertex_limit: int = TW_EXACT_VERTEX_LIMIT
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition (search over orders)."""
    value, order = _elimination_dp(
        h, lambda bag: len(bag) - 1, vertex_limit, "treewidth_exact"
    )
    td = td_from_elimination_order(h, order)
    if value is None:
        return -1, td
    assert td.width() == value
    return value, td


def treewidth_heuristic(h: Hypergraph) -> tuple[int, TreeDecomposition]:
    """Min-fill elimination order; width is an upper bound on treewidth."""
    td = _linked(*_min_fill(h))
    return td.width(), td


def _min_fill(h: Hypergraph) -> tuple[list, list[frozenset]]:
    """The min-fill elimination order and its fill-in bags. Eliminate a
    vertex of least (fill, degree) at each step, the first in _vkey order on
    ties. An elimination changes the fill of its neighbours and of their
    neighbours only, so only their keys are recomputed; the heap keeps every
    key pushed, and a popped key that is no longer current is dropped."""
    nbr = {v: set(ns) for v, ns in h.primal_adjacency().items()}
    ranked = sorted(h.vertices, key=_vkey)
    rank = {v: r for r, v in enumerate(ranked)}
    current: dict = {}
    heap: list[tuple[int, int, int]] = []
    order, bags = [], []
    touched = ranked
    while nbr:
        for u in touched:
            ns = nbr[u]
            # Each missing pair among ns is counted from both of its ends.
            fill = sum(len(ns - nbr[a]) - 1 for a in ns) // 2
            current[u] = key = (fill, len(ns), rank[u])
            heapq.heappush(heap, key)
        while True:
            key = heapq.heappop(heap)
            v = ranked[key[2]]
            if current.get(v) == key:
                break
        del current[v]
        ns = _eliminate(nbr, v)
        order.append(v)
        bags.append(frozenset({v} | ns))
        touched = ns.union(*(nbr[a] for a in ns))
    return order, bags


# ---------------------------------------------------------------------------
# Nice decompositions
# ---------------------------------------------------------------------------

def make_nice(h: Hypergraph, td: TreeDecomposition) -> TreeDecomposition:
    """Equivalent nice decomposition: empty root and leaf bags, join nodes
    with equal-bag children, one-vertex steps elsewhere. Bags of the result
    are subsets of original bags, so no width measure increases."""
    if not is_valid_td(h, td):
        raise DecompositionError("input decomposition is not valid for the hypergraph")

    bags: list[frozenset] = []
    children: list[list[int]] = []

    def new_node(bag: frozenset) -> int:
        bags.append(bag)
        children.append([])
        return len(bags) - 1

    def chain(top: int, target: frozenset) -> int:
        """Extend below `top` one vertex at a time until the bag equals target."""
        cur = bags[top]
        cur_id = top
        for v in sorted(cur - target, key=_vkey):
            cur = cur - {v}
            nid = new_node(cur)
            children[cur_id].append(nid)
            cur_id = nid
        for v in sorted(target - cur, key=_vkey):
            cur = cur | {v}
            nid = new_node(cur)
            children[cur_id].append(nid)
            cur_id = nid
        return cur_id

    root = new_node(frozenset())
    # stack of (old node, new node whose bag equals the old bag)
    stack: list[tuple[int, int]] = [(td.root, chain(root, td.bags[td.root]))]
    while stack:
        old_t, nid = stack.pop()
        bag = td.bags[old_t]
        kids = td.children[old_t]
        if len(kids) == 0:
            chain(nid, frozenset())
        elif len(kids) == 1:
            c = kids[0]
            stack.append((c, chain(nid, td.bags[c])))
        else:
            # Nearly complete binary join tree over the child slots.
            parts: list[tuple[int, tuple[int, ...]]] = [(nid, tuple(kids))]
            while parts:
                top, group = parts.pop()
                half = (len(group) + 1) // 2
                for piece in (group[:half], group[half:]):
                    slot = new_node(bag)
                    children[top].append(slot)
                    if len(piece) == 1:
                        c = piece[0]
                        stack.append((c, chain(slot, td.bags[c])))
                    else:
                        parts.append((slot, piece))

    out = TreeDecomposition.make(root, children, bags)
    assert out.is_nice()
    return out


# ---------------------------------------------------------------------------
# Fractional covers and widths
# ---------------------------------------------------------------------------

def _refuse_uncovered(uncovered: frozenset) -> None:
    """Raise UncoverableVertexError when some vertex lies in no edge, as
    its rho* is then unbounded."""
    if uncovered:
        raise UncoverableVertexError(
            f"vertices in no hyperedge: {sorted(uncovered, key=_vkey)}"
        )


def _packing_lp(
    h: Hypergraph,
) -> tuple[Fraction, dict[Vertex, Fraction], dict[Edge, Fraction]]:
    """Maximize the total mass mu(V) subject to mu(e) <= 1 per edge, mu >= 0.

    Returns (alpha*, mu, row duals per edge). By LP duality the duals are an
    optimal fractional edge cover, of total weight alpha* = rho*.
    Raises UncoverableVertexError when some vertex lies in no edge, since
    its mass would then be unbounded.
    """
    _refuse_uncovered(h.vertices - h.covered())
    vs, edges = h.sorted_vertices(), h.sorted_edges()
    index = {v: i for i, v in enumerate(vs)}
    a_ub = []
    for e in edges:
        row = [Fraction(0)] * len(vs)
        for v in e:
            row[index[v]] = Fraction(1)
        a_ub.append(row)
    value, mu, duals = solve_min(
        [Fraction(-1)] * len(vs), a_ub, [Fraction(1)] * len(edges)
    )
    return -value, dict(zip(vs, mu)), dict(zip(edges, duals))


def fractional_edge_cover_number(
    h: Hypergraph,
) -> tuple[Fraction, dict[Edge, Fraction]]:
    """Exact minimum total weight of a fractional edge cover, with weights.

    The weights are the packing LP's duals: an optimal cover, which one
    the LP's final basis decides when several are optimal.
    Raises UncoverableVertexError when some vertex lies in no edge.
    """
    value, _, weights = _packing_lp(h)
    return value, weights


def induced_hypergraph(h: Hypergraph, x: Iterable) -> Hypergraph:
    """Restriction to X: edges are the nonempty intersections with X."""
    xs = frozenset(x)
    if not xs <= h.vertices:
        raise ValueError("X must be a subset of the vertices")
    edges = {e & xs for e in h.edges if e & xs}
    return Hypergraph(xs, frozenset(edges))


def _rho_cache(h: Hypergraph) -> Callable[[frozenset], Fraction]:
    """rho* of the part of h induced on a bag, memoised per connected
    component. No edge meets two components, so the packing LP splits and
    rho* adds over them; a component inside one edge has rho* 1, and only
    the others solve the LP. The sum is the same exact Fraction as the bag's
    own LP. A component's rho* is kept under its vertex set, and under its
    shape: its edges with each vertex renamed to its rank in _vkey order,
    so components that differ only in their names solve one LP. Bags are
    not memoised: _elimination_dp already asks each bag once, and
    fhw_of_td's min-fill bags are distinct."""
    cache: dict[frozenset, Fraction] = {}
    shapes: dict[frozenset, Fraction] = {}

    def solve(p: frozenset, edges: set[frozenset]) -> Fraction:
        rank = {v: i for i, v in enumerate(sorted(p, key=_vkey))}
        shape = frozenset(frozenset(rank[v] for v in e) for e in edges if e <= p)
        r = shapes.get(shape)
        if r is None:
            r = shapes[shape] = fractional_edge_cover_number(induced_hypergraph(h, p))[0]
        return r

    def rho(bag: frozenset) -> Fraction:
        edges = {e & bag for e in h.edges} - {frozenset()}
        _refuse_uncovered(bag.difference(*edges))
        parts: list[frozenset] = []
        for e in edges:
            met = [p for p in parts if not p.isdisjoint(e)]
            parts = [p for p in parts if p not in met] + [e.union(*met)]
        got = Fraction(0)
        for p in parts:
            r = cache.get(p)
            if r is None:
                r = cache[p] = Fraction(1) if p in edges else solve(p, edges)
            got += r
        return got

    return rho


def fhw_of_td(h: Hypergraph, td: TreeDecomposition) -> Fraction:
    """Max over bags of the fractional edge cover number of the induced part."""
    if not is_valid_td(h, td):
        raise DecompositionError("decomposition is not valid for the hypergraph")
    rho = _rho_cache(h)
    return max((rho(b) for b in td.bags), default=Fraction(0))


def _is_acyclic(h: Hypergraph) -> bool:
    """GYO reduction: h is alpha-acyclic when dropping each vertex that lies
    in one edge only, and each edge that lies inside another, leaves at most
    one edge. A vertex in no edge makes h not acyclic here, as its rho* is
    unbounded."""
    if h.covered() != h.vertices:
        return False
    edges = list(h.edges)
    while len(edges) > 1:
        seen = Counter(v for e in edges for v in e)
        edges = [frozenset(v for v in e if seen[v] > 1) for e in edges]
        for i, e in enumerate(edges):
            if any(e <= f for f in edges[:i] + edges[i + 1 :]):
                del edges[i]
                break
        else:
            return False
    return True


def fhw_exact_small(
    h: Hypergraph, vertex_limit: int = FHW_EXACT_VERTEX_LIMIT
) -> tuple[Fraction, TreeDecomposition]:
    """Exact fractional hypertreewidth by exhausting elimination orders.

    An acyclic h has width 1, and rho*(bag) = 1 exactly when the bag lies
    inside an edge. So the cost "1 inside an edge, else 2" gives best 1 on
    the same subsets as rho*, and the same lowest-vertex choices on them,
    which the order is read from: the same decomposition, with no LP."""
    edges = h.edges

    def inside(bag: frozenset) -> int:
        return 1 if any(bag <= e for e in edges) else 2

    cost = inside if _is_acyclic(h) else _rho_cache(h)
    value, order = _elimination_dp(h, cost, vertex_limit, "fhw_exact_small")
    td = td_from_elimination_order(h, order)
    if value is None:
        return Fraction(0), td
    return Fraction(value), td
