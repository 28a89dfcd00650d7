"""Hypergraphs, tree decompositions and width measures.

Provides exact treewidth (small inputs), a min-fill heuristic, conversion to
nice decompositions, fractional hypertreewidth for small hypergraphs, and
mu-width for a given fractional independent set.

The fractional independent set number alpha* and the fractional edge cover
number rho* come from one exact rational LP, the packing LP: alpha* and its
mass mu are the primal optimum, and its row duals are an optimal fractional
edge cover, so rho* = alpha*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

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
        stack, reach = [root], {root}
        while stack:
            t = stack.pop()
            for c in children[t]:
                if c in reach:
                    raise DecompositionError("cycle in decomposition tree")
                reach.add(c)
                stack.append(c)
        if len(reach) != n:
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
    holding each vertex connected."""
    for b in td.bags:
        if not b <= h.vertices:
            return False
    for e in h.edges:
        if not any(e <= b for b in td.bags):
            return False
    parents = td.parents()
    occurrence: dict = {v: [] for v in h.vertices}
    for t, b in enumerate(td.bags):
        for v in b:
            occurrence[v].append(t)
    for v in h.vertices:
        occ = occurrence[v]
        if not occ:
            return False
        occ_set = set(occ)
        seen = {occ[0]}
        stack = [occ[0]]
        while stack:
            t = stack.pop()
            nbrs = list(td.children[t])
            if parents[t] is not None:
                nbrs.append(parents[t])
            for u in nbrs:
                if u in occ_set and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(occ_set):
            return False
    return True


# ---------------------------------------------------------------------------
# Treewidth via elimination orders
# ---------------------------------------------------------------------------

def _adjacency_masks(h: Hypergraph, vs: list) -> list[int]:
    index = {v: i for i, v in enumerate(vs)}
    masks = [0] * len(vs)
    for e in h.edges:
        idxs = [index[v] for v in e]
        for i in idxs:
            for j in idxs:
                if i != j:
                    masks[i] |= 1 << j
    return masks


def _elimination_bag(adj: list[int], eliminated: int, v: int, n: int) -> int:
    """Bitmask of v plus the vertices reachable from v through eliminated ones."""
    seen = 1 << v
    stack = [v]
    bag = 1 << v
    while stack:
        u = stack.pop()
        m = adj[u] & ~seen
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            seen |= low
            if (eliminated >> w) & 1:
                stack.append(w)
            else:
                bag |= low
    return bag


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

    best: list = [None] * (full + 1)
    choice: list = [0] * (full + 1)
    for s in range(1, full + 1):
        m = s
        cur_best = None
        cur_choice = -1
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            rest = s ^ low
            c = cost(_elimination_bag(adj, rest, v, n))
            prev = best[rest]
            if prev is not None and prev > c:
                c = prev
            if cur_best is None or c < cur_best:
                cur_best = c
                cur_choice = v
        best[s] = cur_best
        choice[s] = cur_choice
    order_idx = []
    s = full
    while s:
        v = choice[s]
        order_idx.append(v)
        s ^= 1 << v
    order_idx.reverse()
    return best[full], [vs[i] for i in order_idx]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def td_from_elimination_order(h: Hypergraph, order: Sequence) -> TreeDecomposition:
    """Fill-in decomposition: one bag per vertex, linked along the order."""
    n = len(order)
    if n == 0:
        return TreeDecomposition.make(0, [()], [frozenset()])
    pos = {v: i for i, v in enumerate(order)}
    if set(pos) != set(h.vertices) or len(pos) != len(h.vertices):
        raise DecompositionError("order must enumerate each vertex exactly once")
    nbr = {v: set(ns) for v, ns in h.primal_adjacency().items()}
    bags: list[frozenset] = []
    succ: list[int | None] = []
    for v in order:
        later = {w for w in nbr[v] if pos[w] > pos[v]}
        bags.append(frozenset({v} | later))
        for a in later:
            nbr[a].discard(v)
            nbr[a].update(later - {a})
        succ.append(min((pos[w] for w in later), default=None))
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for i, s in enumerate(succ):
        if s is None:
            roots.append(i)
        else:
            children[s].append(i)
    if len(roots) == 1:
        return TreeDecomposition.make(roots[0], children, bags)
    children.append(roots)
    bags.append(frozenset())
    return TreeDecomposition.make(n, children, bags)


# The most vertices the exact treewidth search takes before callers fall back
# to min-fill: its subset DP is exponential in them.
TW_EXACT_VERTEX_LIMIT = 16


def treewidth_exact(
    h: Hypergraph, vertex_limit: int = TW_EXACT_VERTEX_LIMIT
) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a witness decomposition (subset DP over orders)."""
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
    nbr = {v: set(ns) for v, ns in h.primal_adjacency().items()}
    order = []
    remaining = set(h.vertices)
    while remaining:
        best_v = None
        best_key = None
        for v in sorted(remaining, key=_vkey):
            ns = nbr[v]
            fill = 0
            ns_list = list(ns)
            for i, a in enumerate(ns_list):
                for b in ns_list[i + 1 :]:
                    if b not in nbr[a]:
                        fill += 1
            key = (fill, len(ns))
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        ns = nbr[best_v]
        for a in ns:
            nbr[a].discard(best_v)
            nbr[a].update(ns - {a})
        del nbr[best_v]
        remaining.discard(best_v)
        order.append(best_v)
    td = td_from_elimination_order(h, order)
    return td.width(), td


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

def _packing_lp(
    h: Hypergraph,
) -> tuple[Fraction, dict[Vertex, Fraction], dict[Edge, Fraction]]:
    """Maximize the total mass mu(V) subject to mu(e) <= 1 per edge, mu >= 0.

    Returns (alpha*, mu, row duals per edge). By LP duality the duals are an
    optimal fractional edge cover, of total weight alpha* = rho*.
    Raises UncoverableVertexError when some vertex lies in no edge, since
    its mass would then be unbounded.
    """
    uncovered = h.vertices - h.covered()
    if uncovered:
        raise UncoverableVertexError(
            f"vertices in no hyperedge: {sorted(uncovered, key=_vkey)}"
        )
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


def fractional_independent_set_number(
    h: Hypergraph,
) -> tuple[Fraction, dict[Vertex, Fraction]]:
    """Exact maximum total mass of a fractional independent set (the dual)."""
    value, mu, _ = _packing_lp(h)
    return value, mu


def induced_hypergraph(h: Hypergraph, x: Iterable) -> Hypergraph:
    """Restriction to X: edges are the nonempty intersections with X."""
    xs = frozenset(x)
    if not xs <= h.vertices:
        raise ValueError("X must be a subset of the vertices")
    edges = {e & xs for e in h.edges if e & xs}
    return Hypergraph(xs, frozenset(edges))


def _rho_cache(h: Hypergraph) -> Callable[[frozenset], Fraction]:
    cache: dict[frozenset, Fraction] = {}

    def rho(bag: frozenset) -> Fraction:
        got = cache.get(bag)
        if got is None:
            if not bag:
                got = Fraction(0)
            else:
                got, _ = fractional_edge_cover_number(induced_hypergraph(h, bag))
            cache[bag] = got
        return got

    return rho


def fhw_of_td(h: Hypergraph, td: TreeDecomposition) -> Fraction:
    """Max over bags of the fractional edge cover number of the induced part."""
    if not is_valid_td(h, td):
        raise DecompositionError("decomposition is not valid for the hypergraph")
    rho = _rho_cache(h)
    return max((rho(b) for b in td.bags), default=Fraction(0))


def fhw_exact_small(
    h: Hypergraph, vertex_limit: int = 8
) -> tuple[Fraction, TreeDecomposition]:
    """Exact fractional hypertreewidth by exhausting elimination orders."""
    rho = _rho_cache(h)
    value, order = _elimination_dp(h, rho, vertex_limit, "fhw_exact_small")
    td = td_from_elimination_order(h, order)
    if value is None:
        return Fraction(0), td
    return value, td


def validate_fractional_independent_set(
    h: Hypergraph, mu: Mapping
) -> dict[Vertex, Fraction]:
    out = {}
    for v in h.vertices:
        if v not in mu:
            raise ValueError(f"mu assigns no weight to vertex {v!r}")
        w = Fraction(mu[v])
        if not 0 <= w <= 1:
            raise ValueError(f"mu[{v!r}] = {w} outside [0, 1]")
        out[v] = w
    for e in h.edges:
        total = sum(out[v] for v in e)
        if total > 1:
            raise ValueError(f"mu sums to {total} > 1 on edge {sorted(e, key=_vkey)}")
    return out


def mu_width(h: Hypergraph, mu: Mapping, vertex_limit: int = 8) -> Fraction:
    """Minimum over decompositions of the maximum bag mass under mu."""
    weights = validate_fractional_independent_set(h, mu)
    value, _ = _elimination_dp(
        h,
        lambda bag: sum((weights[v] for v in bag), Fraction(0)),
        vertex_limit,
        "mu_width",
    )
    return Fraction(0) if value is None else value
