"""Code that only the tests use, kept out of the package."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from cqcount import (
    Database,
    DecompositionError,
    LimitExceededError,
    OracleStats,
    PairValidationError,
    Query,
    RelationSymbol,
    TreeAutomaton,
    edgefree_restricted,
    enumerate_answers_bruteforce,
    is_valid_td,
    parse_query,
    validate_pair,
)
from cqcount.qmodel import _require_normalized, oriented_disequalities
from cqcount.reduction import ImplicitAnswerHypergraph, clique_repetitions
from cqcount.widths import (
    Hypergraph,
    TreeDecomposition,
    _adjacency_masks,
    _bits,
    _packing_lp,
    _postorder,
    _vkey,
    fractional_edge_cover_number,
    induced_hypergraph,
    td_from_elimination_order,
)


def query_size(q: Query) -> int:
    """|vars| plus the total arity of all atoms (disequalities/equalities count 2)."""
    total = len(q.variables)
    total += sum(sym.arity for sym, _ in q.atoms)
    total += 2 * (len(q.disequalities) + len(q.equalities))
    return total


def database_size(d: Database) -> int:
    """|signature| + |domain| + total length of all stored tuples."""
    return (
        len(d.relations)
        + len(d.domain)
        + sum(sym.arity * len(facts) for sym, facts in d.relations.items())
    )


def structure_size(s: Structure) -> int:
    """|signature| + |universe| + total length of all tuples."""
    return (
        len(s.relations)
        + len(s.universe)
        + sum(sym.arity * len(facts) for sym, facts in s.relations.items())
    )


# ---------------------------------------------------------------------------
# The paper's explicit constructions, test oracles for the implicit evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    """A finite relational structure."""

    universe: tuple
    relations: dict[RelationSymbol, frozenset[tuple]]

    @property
    def signature(self) -> frozenset[RelationSymbol]:
        return frozenset(self.relations)


def structure_hypergraph(s: Structure) -> Hypergraph:
    """Vertices are universe elements; one edge per tuple's element set."""
    edges = {
        frozenset(t) for facts in s.relations.values() for t in facts
    }
    return Hypergraph(frozenset(s.universe), frozenset(edges))


def _check_signatures(a: Structure, b: Structure) -> None:
    missing = a.signature - b.signature
    if missing:
        names = ", ".join(f"{s.name}/{s.arity}" for s in sorted(missing))
        raise PairValidationError(f"target structure lacks relations: {names}")


def complement_symbol(sym: RelationSymbol) -> RelationSymbol:
    """Marker symbol for the complement relation; '!' cannot occur in user names."""
    return RelationSymbol("!" + sym.name, sym.arity)


def build_A(q: Query) -> Structure:
    """Canonical structure of the query over its variables."""
    _require_normalized(q)
    rels: dict[RelationSymbol, set[tuple]] = {}
    for sym, args in q.predicates:
        rels.setdefault(sym, set()).add(args)
    for sym, args in q.negated_predicates:
        rels.setdefault(complement_symbol(sym), set()).add(args)
    return Structure(q.variables, {s: frozenset(t) for s, t in rels.items()})


def build_B(q: Query, d: Database) -> Structure:
    """Induced structure of the database: matching relations for positive
    atoms, materialized complements for negated ones."""
    _require_normalized(q)
    validate_pair(q, d)
    rels: dict[RelationSymbol, frozenset[tuple]] = {}
    for sym, _ in q.predicates:
        rels[sym] = d.relations[sym]
    for sym, _ in q.negated_predicates:
        facts = d.relations[sym]
        comp = frozenset(
            t for t in itertools.product(d.domain, repeat=sym.arity) if t not in facts
        )
        rels[complement_symbol(sym)] = comp
    return Structure(tuple(d.domain), rels)


def hom_exists_bruteforce(a: Structure, b: Structure, domains=None) -> bool:
    """Backtracking homomorphism test, smallest-domain-first after unary filtering."""
    _check_signatures(a, b)
    if not a.universe:
        return True
    cands: dict = {}
    for x in a.universe:
        allowed = set(domains[x]) if domains is not None else set(b.universe)
        cands[x] = allowed
    constraints = []
    for sym, facts in a.relations.items():
        bfacts = b.relations[sym]
        for t in facts:
            if sym.arity == 1:
                vals = {bt[0] for bt in bfacts}
                cands[t[0]] &= vals
            else:
                constraints.append((t, bfacts))
    if any(not c for c in cands.values()):
        return False

    order = sorted(a.universe, key=lambda x: (len(cands[x]), _vkey(x)))
    position = {x: i for i, x in enumerate(order)}
    # Check each constraint as soon as its last variable gets a value.
    due: list[list[tuple]] = [[] for _ in order]
    for t, bfacts in constraints:
        due[max(position[x] for x in t)].append((t, bfacts))

    assignment: dict = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for v in cands[x]:
            assignment[x] = v
            ok = True
            for t, bfacts in due[i]:
                if tuple(assignment[y] for y in t) not in bfacts:
                    ok = False
                    break
            if ok and extend(i + 1):
                return True
        assignment.pop(x, None)
        return False

    return extend(0)


def hom_exists_td_explicit(
    a: Structure,
    b: Structure,
    td: TreeDecomposition,
    domains=None,
) -> bool:
    """The paper's dynamic program over a nice tree decomposition of the
    source structure, the reference for the td-dp backend.

    `domains` optionally restricts the allowed images of each source element;
    the default is the whole target universe.
    """
    _check_signatures(a, b)
    if not td.is_nice():
        raise DecompositionError("decomposition must be nice")
    if not is_valid_td(structure_hypergraph(a), td):
        raise DecompositionError("decomposition is not valid for the source structure")

    constraints = []
    for sym, facts in a.relations.items():
        bfacts = b.relations[sym]
        for t in facts:
            constraints.append((t, frozenset(t), bfacts))

    def allowed(x):
        return domains[x] if domains is not None else b.universe

    bag_order = [sorted(td.bags[t], key=_vkey) for t in range(td.n_nodes)]
    tables: dict[int, set[tuple]] = {}
    for t in td.postorder():
        kids = td.children[t]
        bag = td.bags[t]
        order = bag_order[t]
        if not kids:
            tables[t] = {()}
        elif len(kids) == 2:
            left = tables.pop(kids[0])
            right = tables.pop(kids[1])
            tables[t] = left & right
        else:
            c = kids[0]
            corder = bag_order[c]
            ctable = tables.pop(c)
            diff = bag ^ td.bags[c]
            (x,) = diff
            if x in bag:  # introduce
                checks = [
                    (tt, bf)
                    for tt, scope, bf in constraints
                    if x in scope and scope <= bag
                ]
                out = set()
                for row in ctable:
                    base = dict(zip(corder, row))
                    for v in allowed(x):
                        base[x] = v
                        if all(
                            tuple(base[y] for y in tt) in bf for tt, bf in checks
                        ):
                            out.add(tuple(base[y] for y in order))
                tables[t] = out
            else:  # forget
                idx = corder.index(x)
                tables[t] = {
                    row[:idx] + row[idx + 1 :] for row in ctable
                }
    return bool(tables[td.root])


def build_hat_A(q: Query) -> Structure:
    """Query structure plus position markers and disequality colour markers."""
    a = build_A(q)
    rels = dict(a.relations)
    for i, v in enumerate(q.variables, 1):
        rels[RelationSymbol(f"@p{i}", 1)] = frozenset({(v,)})
    for idx, (xi, xj) in enumerate(oriented_disequalities(q), 1):
        rels[RelationSymbol(f"@r{idx}", 1)] = frozenset({(xi,)})
        rels[RelationSymbol(f"@b{idx}", 1)] = frozenset({(xj,)})
    return Structure(a.universe, rels)


def build_hat_B(
    q: Query,
    d: Database,
    vs,
    colouring: dict[tuple[str, str], frozenset],
) -> Structure:
    """Layered database structure for a box and a colouring family.

    vs gives the box: one value set per free variable; existential layers use
    the whole domain. colouring maps each oriented disequality to its red
    value set (blue is the complement).
    """
    ell = len(q.free_vars)
    n = len(q.variables)
    if len(vs) != ell:
        raise ValueError(f"expected {ell} layer sets, got {len(vs)}")
    dom = set(d.domain)
    layers: list[frozenset] = []
    for i in range(n):
        s = frozenset(vs[i]) if i < ell else frozenset(dom)
        if not s <= dom:
            raise ValueError("layer values must come from the database domain")
        layers.append(s)
    universe = tuple(
        (w, i) for i in range(1, n + 1) for w in sorted(layers[i - 1], key=repr)
    )
    tags: dict = {}
    for w, i in universe:
        tags.setdefault(w, []).append(i)

    base = build_B(q, d)
    rels: dict[RelationSymbol, frozenset] = {}
    for sym, facts in base.relations.items():
        lifted = set()
        for t in facts:
            if any(w not in tags for w in t):
                continue
            for combo in itertools.product(*(tags[w] for w in t)):
                lifted.add(tuple((w, i) for w, i in zip(t, combo)))
        rels[sym] = frozenset(lifted)
    for i in range(1, n + 1):
        rels[RelationSymbol(f"@p{i}", 1)] = frozenset(
            ((w, i),) for w in layers[i - 1]
        )
    for idx, (xi, xj) in enumerate(oriented_disequalities(q), 1):
        red = frozenset(colouring[(xi, xj)])
        if not red <= dom:
            raise ValueError("colouring must assign domain values")
        rels[RelationSymbol(f"@r{idx}", 1)] = frozenset(
            (u,) for u in universe if u[0] in red
        )
        rels[RelationSymbol(f"@b{idx}", 1)] = frozenset(
            (u,) for u in universe if u[0] not in red
        )
    return Structure(universe, rels)


def vertices(ih: ImplicitAnswerHypergraph) -> list[tuple]:
    return [(w, i) for i in range(1, ih.ell + 1) for w in ih.domain]


@functools.cache
def answers(ih: ImplicitAnswerHypergraph) -> set[tuple]:
    """The answer set, enumerated once per hypergraph."""
    return enumerate_answers_bruteforce(ih.query, ih.database)


def edgefree_bruteforce(ih: ImplicitAnswerHypergraph, ws) -> bool:
    """Reference edge-freeness on explicit vertex sets (any layers), by
    enumerating the answer set. ws: one vertex set per part, vertices are
    (value, layer) pairs; parts must be pairwise disjoint."""
    ws = [frozenset(w) for w in ws]
    if len(ws) != ih.ell:
        raise ValueError(f"expected {ih.ell} vertex sets, got {len(ws)}")
    seen: set = set()
    valid = set(vertices(ih))
    for part in ws:
        for u in part:
            if u not in valid:
                raise ValueError(f"{u!r} is not a vertex of the answer hypergraph")
            if u in seen:
                raise ValueError(f"vertex {u!r} appears in two parts")
            seen.add(u)
    ell = ih.ell
    if ell == 0:
        return not answers(ih)
    for answer in answers(ih):
        # part j can take the edge's layer-i vertex iff that vertex is in ws[j]
        choices = []
        for i in range(ell):
            u = (answer[i], i + 1)
            choices.append([j for j in range(ell) if u in ws[j]])
        if _has_system_of_distinct(choices):
            return False
    return True


def _has_system_of_distinct(choices: list[list[int]]) -> bool:
    ell = len(choices)
    reach = {0}
    for opts in choices:
        nxt = set()
        for used in reach:
            for j in opts:
                bit = 1 << j
                if not used & bit:
                    nxt.add(used | bit)
        if not nxt:
            return False
        reach = nxt
    return bool(reach)


def exact_oracle(ih: ImplicitAnswerHypergraph):
    """Deterministic edge-freeness from the brute-force answer set."""
    def oracle(box):
        return edgefree_bruteforce(ih, restricted_parts(ih, box_values(ih, box)))
    return oracle


def edgefree_general(
    ih: ImplicitAnswerHypergraph,
    ws,
    delta_prime: float,
    rng: random.Random,
    backend: str = "bruteforce",
    stats: OracleStats | None = None,
) -> bool:
    """Edge-freeness for arbitrary disjoint vertex sets: one restricted call
    per way of assigning parts to layers, each with its share of the failure
    budget."""
    ws = [frozenset(w) for w in ws]
    ell = ih.ell
    if len(ws) != ell:
        raise ValueError(f"expected {ell} vertex sets, got {len(ws)}")
    if ell == 0:
        return edgefree_restricted(ih, (), delta_prime, rng, backend, stats)
    share = delta_prime / math.factorial(ell)
    for sigma in itertools.permutations(range(ell)):
        vs = [
            frozenset(w for w, layer in ws[sigma[i]] if layer == i + 1)
            for i in range(ell)
        ]
        if not edgefree_restricted(ih, layer_masks(ih, vs), share, rng, backend, stats):
            return False
    return True


def edgefree_every_sample(
    ih: ImplicitAnswerHypergraph,
    masks,
    delta_prime: float,
    rng: random.Random,
    backend: str = "bruteforce",
    stats: OracleStats | None = None,
) -> bool:
    """Reference for edgefree_restricted: search every colour sample of the
    box, with no search before colouring, up to the first witness."""
    if stats is not None:
        stats.edgefree_calls += 1
    if not all(masks):
        return True
    ev = ih.evaluator(backend)
    search = ev.compile(masks)
    if not ev.cliques:
        if stats is not None:
            stats.hom_calls += 1
        return search(()) is None
    sizes = [len(clique) for clique in ev.cliques]
    width = len(ih.domain)
    pairs_only = max(sizes) == 2
    for _ in range(clique_repetitions(sizes, delta_prime)):
        if pairs_only:
            colours = [rng.getrandbits(width) for _ in sizes]
        else:
            colours = ev.red_masks([colour_classes(rng, k, width) for k in sizes])
        if stats is not None:
            stats.colourings_sampled += 1
            stats.hom_calls += 1
        if search(colours) is not None:
            return False
    return True


def colour_classes(rng: random.Random, k: int, width: int) -> list[int]:
    """Reference for reduction._colour_classes: one getrandbits(width) draw
    for a K2 (its set bits are class 0), else one rng.randrange(k) per value."""
    if k == 2:
        red = rng.getrandbits(width)
        return [red, ~red & ((1 << width) - 1)]
    classes = [0] * k
    for idx in range(width):
        classes[rng.randrange(k)] |= 1 << idx
    return classes


def k3_with_pendant():
    """A K3 of disequalities plus a pendant K2, over both directions of a
    5-cycle with one chord: a mixed clique cover, so each sample draws the
    K3's colouring as one rng.randrange(3) per value and the K2's as one
    getrandbits(width)."""
    q = parse_query(
        "q(a, b, c, e) :- E(a, b), E(b, c), E(c, e), a != b, b != c, a != c, c != e"
    )
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    d = Database.make(range(5), {"E": (2, edges + [(v, u) for u, v in edges])})
    return q, d


def min_fill_order(h: Hypergraph) -> list:
    """Reference for widths._min_fill's order: every step scans the remaining
    vertices in _vkey order and eliminates the first of least (fill, degree)."""
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
    return order


def is_valid_td_by_search(h: Hypergraph, td: TreeDecomposition) -> bool:
    """Reference for widths.is_valid_td: the same bag and edge checks, and
    for each vertex a search from one bag holding it, over tree links
    between bags holding it, that must reach every bag holding it."""
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


def elimination_bag(adj: list[int], eliminated: int, v: int) -> int:
    """Bitmask of v plus the vertices reachable from v through eliminated
    ones, by a walk from v: the reference for widths._components."""
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


def elimination_dp_every_subset(h: Hypergraph, bag_cost, vertex_limit: int, what: str):
    """Reference for widths._elimination_dp: the same recurrence filled
    bottom-up over all 2**n vertex sets, every (set, last vertex) costed, the
    lowest vertex kept on ties. Returns the same (value, order)."""
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
            c = cost(elimination_bag(adj, rest, v))
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


def fhw_exact_small_whole_bag(
    h: Hypergraph, vertex_limit: int = 8, lps: dict | None = None
) -> tuple[Fraction, TreeDecomposition]:
    """Reference for widths.fhw_exact_small: the same search over elimination
    orders, each bag's rho* from one packing LP over the whole bag.

    rho* depends only on the bag's induced hypergraph up to renaming, so the
    LP values are kept under its edges with each vertex renamed to its rank
    in the bag; callers checking many hypergraphs may share one lps dict."""
    lps = {} if lps is None else lps

    def rho(bag: frozenset) -> Fraction:
        rank = {v: i for i, v in enumerate(sorted(bag, key=_vkey))}
        key = len(bag), frozenset(frozenset(rank[v] for v in e & bag) for e in h.edges)
        if key not in lps:
            lps[key] = fractional_edge_cover_number(induced_hypergraph(h, bag))[0]
        return lps[key]

    value, order = elimination_dp_every_subset(h, rho, vertex_limit, "fhw_exact_small")
    td = td_from_elimination_order(h, order)
    return (Fraction(0) if value is None else value), td


def is_alpha_acyclic(h: Hypergraph) -> bool:
    """GYO reduction: h is alpha-acyclic when dropping each vertex that lies
    in one edge only, and each edge that lies inside another, leaves at most
    one edge. A vertex in no edge makes h not acyclic here, as its rho* is
    unbounded. Width 1 under fhw_exact_small is exactly this property."""
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


def fractional_independent_set_number(h: Hypergraph) -> tuple[Fraction, dict]:
    """Exact maximum total mass of a fractional independent set: the packing
    LP's primal optimum, a duality certificate for its edge cover."""
    value, mu, _ = _packing_lp(h)
    return value, mu


def validate_fractional_independent_set(h: Hypergraph, mu: Mapping) -> dict:
    """mu as Fractions, checked to be a fractional independent set of h: a
    weight in [0, 1] on every vertex, summing to at most 1 on every edge."""
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
    value, _ = elimination_dp_every_subset(
        h,
        lambda bag: sum((weights[v] for v in bag), Fraction(0)),
        vertex_limit,
        "mu_width",
    )
    return Fraction(0) if value is None else value


def restricted_parts(ih: ImplicitAnswerHypergraph, vs) -> list[frozenset]:
    """Lift per-layer value sets into vertex sets (part i within layer i)."""
    return [
        frozenset((w, i + 1) for w in layer) for i, layer in enumerate(vs)
    ]


def layer_masks(ih: ImplicitAnswerHypergraph, vs) -> list[int]:
    """Per-layer value sets as the bitmasks edgefree_restricted takes: bit i
    is the i-th domain value."""
    index = {w: i for i, w in enumerate(ih.domain)}
    return [sum(1 << i for i in {index[w] for w in layer}) for layer in vs]


def box_values(ih: ImplicitAnswerHypergraph, box) -> list[tuple]:
    """The per-layer values of a box of per-layer value masks."""
    return [tuple(w for i, w in enumerate(ih.domain) if m >> i & 1) for m in box]


@dataclass(frozen=True)
class LabeledTree:
    """A rooted tree, at most two ordered children per node, one label each."""

    root: int
    children: tuple[tuple[int, ...], ...]
    labels: tuple

    @staticmethod
    def make(root, children, labels) -> "LabeledTree":
        children = tuple(tuple(c) for c in children)
        labels = tuple(labels)
        n = len(labels)
        if len(children) != n:
            raise ValueError("children and labels must have the same length")
        if not (0 <= root < n):
            raise ValueError("root id out of range")
        seen = set()
        for kids in children:
            if len(kids) > 2:
                raise ValueError("nodes may have at most two children")
            for c in kids:
                if not (0 <= c < n) or c in seen:
                    raise ValueError("malformed child structure")
                seen.add(c)
        if root in seen or len(seen) != n - 1:
            raise ValueError("child structure is not a tree")
        return LabeledTree(root, children, labels)

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def postorder(self) -> list[int]:
        return _postorder(self.root, self.children)


def accepts(aut: TreeAutomaton, tree: LabeledTree) -> bool:
    """Is there a run of the automaton on the tree from the initial state?"""
    reach: dict[int, set] = {}
    for t in tree.postorder():
        lbl = tree.labels[t]
        kids = tree.children[t]
        here = set()
        for (s, l), outs in aut.transitions.items():
            if l != lbl:
                continue
            if not kids:
                if () in outs:
                    here.add(s)
            elif len(kids) == 1:
                r0 = reach[kids[0]]
                if any(len(o) == 1 and o[0] in r0 for o in outs):
                    here.add(s)
            else:
                r0, r1 = reach[kids[0]], reach[kids[1]]
                if any(len(o) == 2 and o[0] in r0 and o[1] in r1 for o in outs):
                    here.add(s)
        reach[t] = here
    return aut.initial in reach[tree.root]


def make_automaton(states, alphabet, transitions, initial) -> TreeAutomaton:
    """A TreeAutomaton from plain collections, checking that every
    transition's state, label and outcome is declared."""
    states = frozenset(states)
    alphabet = frozenset(alphabet)
    trans = {}
    for (s, lbl), outs in transitions.items():
        if s not in states:
            raise ValueError(f"transition from unknown state {s!r}")
        if lbl not in alphabet:
            raise ValueError(f"transition on unknown label {lbl!r}")
        outs = frozenset(tuple(o) for o in outs)
        for o in outs:
            if len(o) > 2 or any(c not in states for c in o):
                raise ValueError(f"malformed outcome {o!r}")
        trans[(s, lbl)] = outs
    if initial not in states:
        raise ValueError("initial state is not a state")
    return TreeAutomaton(states, alphabet, trans, initial)


def automaton_to_doc(aut: TreeAutomaton) -> dict:
    """Canonical JSON-ready form for golden-file comparisons."""

    def enc(x):
        if isinstance(x, tuple):
            return [enc(v) for v in x]
        if isinstance(x, frozenset):
            return sorted((enc(v) for v in x), key=repr)
        return x

    triples = []
    for (s, lbl), outs in aut.transitions.items():
        for o in outs:
            triples.append([enc(s), enc(lbl), enc(o)])
    triples.sort(key=repr)
    return {
        "states": sorted((enc(s) for s in aut.states), key=repr),
        "alphabet": sorted((enc(l) for l in aut.alphabet), key=repr),
        "transitions": triples,
        "initial": enc(aut.initial),
    }
