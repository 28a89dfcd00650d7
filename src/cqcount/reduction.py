"""Counting answers through an implicit answer hypergraph.

Each answer of the query is one hyperedge over ell disjoint copies of the
domain (one layer per free variable); the hyperedges are never materialized.
Edge-freeness of a sub-box is decided by colour coding: disequalities are
replaced by sampled two-colourings, and each sample needs one homomorphism
check between a decorated query structure and a decorated layered database
structure. Counting then reduces to edge-freeness queries alone: an exact
recursive halving counter and a random-walk estimator with median-of-means
amplification sit on top.

Both homomorphism backends answer a layer-decorated check without building
the layered structure: tagged relations ignore layer indices, so the check
collapses to a value-level search with per-variable allowed sets (layer boxes
plus colour filters). Tests pin the equivalence against the explicit
construction (build_hat_A / build_hat_B plus the plain solvers).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import statistics
from dataclasses import dataclass

from .errors import BudgetExceededError, QueryValidationError
from .homsolver import (
    Structure,
    build_A,
    build_B,
    enumerate_answers_bruteforce,
    hom_exists_td,
    structure_hypergraph,
)
from .qmodel import (
    Database,
    Query,
    RelationSymbol,
    oriented_disequalities,
    validate_pair,
)
from .widths import _bits, make_nice, treewidth_exact

HOM_BACKENDS = ("bruteforce", "td-dp")


@dataclass
class OracleStats:
    """Work counters accumulated across a counting run."""

    edgefree_calls: int = 0
    colourings_sampled: int = 0
    hom_calls: int = 0
    estimator_walks: int = 0
    restarts: int = 0

    def as_dict(self) -> dict:
        return {
            "edgefree_calls": self.edgefree_calls,
            "colourings_sampled": self.colourings_sampled,
            "hom_calls": self.hom_calls,
            "estimator_walks": self.estimator_walks,
            "restarts": self.restarts,
        }


def derive_rng(seed: int, *path: int) -> random.Random:
    """Independent deterministic stream for (seed, path); hash-based splitting."""
    text = ":".join(str(p) for p in (seed,) + path)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


class ImplicitAnswerHypergraph:
    """The answer hypergraph of a normalized query over a database.

    Vertices are (value, layer) pairs for layers 1..ell (ell = number of free
    variables); the hyperedge set is in bijection with the answer set and is
    only ever touched through edge-freeness queries or, for small instances,
    through the brute-force answer enumeration.
    """

    def __init__(self, q: Query, d: Database):
        if q.equalities:
            raise QueryValidationError("normalize the query before building the hypergraph")
        validate_pair(q, d)
        self.query = q
        self.database = d
        self.ell = len(q.free_vars)
        self.domain = tuple(d.domain)
        self._dom_index = {v: i for i, v in enumerate(self.domain)}
        self._answers: set[tuple] | None = None
        self._evaluators: dict[str, _Evaluator] = {}

    @property
    def n_vertices(self) -> int:
        return self.ell * len(self.domain)

    def vertices(self) -> list[tuple]:
        return [(w, i) for i in range(1, self.ell + 1) for w in self.domain]

    def full_box(self) -> tuple[tuple, ...]:
        return tuple(self.domain for _ in range(self.ell))

    def answers(self) -> set[tuple]:
        if self._answers is None:
            self._answers = enumerate_answers_bruteforce(self.query, self.database)
        return self._answers

    def evaluator(self, backend: str) -> "_Evaluator":
        if backend not in HOM_BACKENDS:
            raise ValueError(f"unknown hom backend {backend!r}; use one of {HOM_BACKENDS}")
        ev = self._evaluators.get(backend)
        if ev is None:
            ev = _Evaluator(self, backend)
            self._evaluators[backend] = ev
        return ev

    def value_masks(self, values) -> int:
        mask = 0
        for w in values:
            idx = self._dom_index.get(w)
            if idx is None:
                raise ValueError(f"value {w!r} not in the database domain")
            mask |= 1 << idx
        return mask


class _Evaluator:
    """Value-level search equivalent to Hom(hat A, hat B) for a given box and
    colouring, exploiting that lifted relations ignore layer tags."""

    def __init__(self, ih: ImplicitAnswerHypergraph, backend: str):
        q, d = ih.query, ih.database
        self.ih = ih
        self.backend = backend
        self.vars = q.variables
        self.nvars = len(self.vars)
        pos = {v: i for i, v in enumerate(self.vars)}
        dom = ih.domain
        nd = len(dom)
        self.full_mask = (1 << nd) - 1
        by_name = {sym.name: sym for sym in d.relations}

        base = [self.full_mask] * self.nvars
        binary: list[tuple[int, int, list[int]]] = []
        higher: list[tuple[tuple[int, ...], frozenset, bool]] = []
        for sym, args, negated in [(s, a, False) for s, a in q.predicates] + [
            (s, a, True) for s, a in q.negated_predicates
        ]:
            facts = d.relations[by_name[sym.name]]
            distinct = tuple(dict.fromkeys(args))
            if len(distinct) == 1:
                x = pos[distinct[0]]
                mask = 0
                for i, w in enumerate(dom):
                    hit = tuple(w for _ in args) in facts
                    if hit != negated:
                        mask |= 1 << i
                base[x] &= mask
            elif len(distinct) == 2:
                xi, xj = pos[distinct[0]], pos[distinct[1]]
                sup_i = [0] * nd
                sup_j = [0] * nd
                for a, wa in enumerate(dom):
                    for b, wb in enumerate(dom):
                        sub = {distinct[0]: wa, distinct[1]: wb}
                        hit = tuple(sub[v] for v in args) in facts
                        if hit != negated:
                            sup_i[a] |= 1 << b
                            sup_j[b] |= 1 << a
                binary.append((xi, xj, sup_i))
                binary.append((xj, xi, sup_j))
            else:
                higher.append((tuple(pos[v] for v in args), facts, negated))
        self.base = base
        self.higher = higher
        self.adj: list[list[tuple[int, list[int]]]] = [[] for _ in range(self.nvars)]
        for xi, xj, sup in binary:
            self.adj[xi].append((xj, sup))

        self.diseq_pos = [
            (pos[a], pos[b]) for a, b in oriented_disequalities(q)
        ]

        if backend == "td-dp":
            self._a = build_A(q)
            self._b = build_B(q, d)
            _, td = treewidth_exact(structure_hypergraph(self._a))
            self._td = make_nice(structure_hypergraph(self._a), td)

    def find(self, layer_masks, colour_masks) -> tuple | None:
        """Witness assignment (values, var order) or None.

        layer_masks: per free variable, the allowed-value bitmask of its box;
        colour_masks: per oriented disequality, the red-value bitmask.
        """
        dom = list(self.base)
        for i, m in enumerate(layer_masks):
            dom[i] &= m
        for (i, j), red in zip(self.diseq_pos, colour_masks):
            dom[i] &= red
            dom[j] &= self.full_mask & ~red
        if self.backend == "td-dp":
            return self._find_td(dom)
        return self._find_bruteforce(dom)

    def _find_td(self, dom: list[int]) -> tuple | None:
        values = self.ih.domain
        domains = {
            v: {values[i] for i in _bits(dom[k])} for k, v in enumerate(self.vars)
        }
        ok = hom_exists_td(self._a, self._b, self._td, domains)
        return () if ok else None

    def _find_bruteforce(self, dom: list[int]) -> tuple | None:
        n = self.nvars
        for m in dom:
            if not m:
                return None
        order = sorted(range(n), key=lambda i: dom[i].bit_count())
        rank = {x: k for k, x in enumerate(order)}
        due: list[list] = [[] for _ in range(n)]
        for idxs, facts, negated in self.higher:
            due[max(rank[i] for i in idxs)].append((idxs, facts, negated))
        values = self.ih.domain
        assigned = [0] * n

        def rec(k: int, cur: list[int]) -> bool:
            if k == n:
                return True
            x = order[k]
            m = cur[x]
            while m:
                low = m & -m
                m ^= low
                b = low.bit_length() - 1
                nxt = list(cur)
                nxt[x] = low
                ok = True
                for y, sup in self.adj[x]:
                    nxt[y] &= sup[b]
                    if not nxt[y]:
                        ok = False
                        break
                if not ok:
                    continue
                assigned[x] = b
                for idxs, facts, negated in due[k]:
                    hit = tuple(values[assigned[i]] for i in idxs) in facts
                    if hit == negated:
                        ok = False
                        break
                if ok and rec(k + 1, nxt):
                    return True
            return False

        if rec(0, dom):
            # Re-derive the witness from the final masks is fragile; rebuild it.
            return tuple(values[assigned[i]] for i in range(n))
        return None


# ---------------------------------------------------------------------------
# Explicit decorated structures (reference construction, used by tests)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Edge-freeness
# ---------------------------------------------------------------------------

def _layer_masks(ih: ImplicitAnswerHypergraph, vs) -> list[int]:
    vs = tuple(vs)
    if len(vs) != ih.ell:
        raise ValueError(f"expected {ih.ell} layer sets, got {len(vs)}")
    return [ih.value_masks(layer) for layer in vs]


def edgefree_bruteforce(ih: ImplicitAnswerHypergraph, ws) -> bool:
    """Reference edge-freeness on explicit vertex sets (any layers), by
    enumerating the answer set. ws: one vertex set per part, vertices are
    (value, layer) pairs; parts must be pairwise disjoint."""
    ws = [frozenset(w) for w in ws]
    if len(ws) != ih.ell:
        raise ValueError(f"expected {ih.ell} vertex sets, got {len(ws)}")
    seen: set = set()
    valid = set(ih.vertices())
    for part in ws:
        for u in part:
            if u not in valid:
                raise ValueError(f"{u!r} is not a vertex of the answer hypergraph")
            if u in seen:
                raise ValueError(f"vertex {u!r} appears in two parts")
            seen.add(u)
    ell = ih.ell
    if ell == 0:
        return not ih.answers()
    for answer in ih.answers():
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


def restricted_parts(ih: ImplicitAnswerHypergraph, vs) -> list[frozenset]:
    """Lift per-layer value sets into vertex sets (part i within layer i)."""
    return [
        frozenset((w, i + 1) for w in layer) for i, layer in enumerate(vs)
    ]


def repetitions(n_diseq: int, delta_prime: float) -> int:
    """Colour samples needed for one-sided failure probability delta_prime."""
    if not 0 < delta_prime < 1:
        raise ValueError("delta_prime must lie in (0, 1)")
    if n_diseq == 0:
        return 1
    return math.ceil(math.log(1 / delta_prime)) * 4**n_diseq


def edgefree_restricted(
    ih: ImplicitAnswerHypergraph,
    vs,
    delta_prime: float,
    rng: random.Random,
    backend: str = "bruteforce",
    stats: OracleStats | None = None,
) -> bool:
    """One-sided randomized edge-freeness for a layer-aligned box.

    'Has an edge' answers are always correct; 'edge-free' is wrong with
    probability at most delta_prime. With no disequalities the check is a
    single exact homomorphism call.
    """
    masks = _layer_masks(ih, vs)
    if stats is not None:
        stats.edgefree_calls += 1
    if any(m == 0 for m in masks) and ih.ell > 0:
        return True
    ev = ih.evaluator(backend)
    nd = len(ih.query.disequalities)
    if nd == 0:
        if stats is not None:
            stats.hom_calls += 1
        return ev.find(masks, ()) is None
    q_reps = repetitions(nd, delta_prime)
    width = len(ih.domain)
    for _ in range(q_reps):
        colours = [rng.getrandbits(width) for _ in range(nd)]
        if stats is not None:
            stats.colourings_sampled += 1
            stats.hom_calls += 1
        if ev.find(masks, colours) is not None:
            return False
    return True


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
        if not edgefree_restricted(ih, vs, share, rng, backend, stats):
            return False
    return True


# ---------------------------------------------------------------------------
# Counting on top of the oracle
# ---------------------------------------------------------------------------

def _split_box(box: tuple[tuple, ...]) -> tuple[tuple, tuple]:
    """Halve the lowest-index part of size >= 2 along the domain order."""
    for i, part in enumerate(box):
        if len(part) >= 2:
            mid = (len(part) + 1) // 2
            left = box[:i] + (part[:mid],) + box[i + 1 :]
            right = box[:i] + (part[mid:],) + box[i + 1 :]
            return left, right
    raise ValueError("box has no part to split")


def count_edges_exact_oracle(
    ih: ImplicitAnswerHypergraph,
    edgefree,
    budget: int | None = None,
) -> int:
    """Exact edge count using only edge-freeness queries (recursive halving).

    An edge-free instance costs exactly one query; in general the number of
    queries is at most 2(|E|+1) * sum_i ceil(log2 |U|) + 1.
    """
    calls = 0

    def ask(box) -> bool:
        nonlocal calls
        calls += 1
        if budget is not None and calls > budget:
            raise BudgetExceededError(
                f"edge-freeness call budget of {budget} exhausted"
            )
        return edgefree(box)

    count = 0
    stack = [ih.full_box()]
    while stack:
        box = stack.pop()
        if ask(box):
            continue
        if all(len(part) == 1 for part in box):
            count += 1
            continue
        left, right = _split_box(box)
        stack.append(right)
        stack.append(left)
    return count


def single_walk_estimate(
    ih: ImplicitAnswerHypergraph, edgefree, rng: random.Random
) -> int:
    """One unbiased sample of the edge count: walk the halving tree choosing
    uniformly among children that still contain edges, multiplying out the
    number of such children at every level."""
    box = ih.full_box()
    if edgefree(box):
        return 0
    est = 1
    while not all(len(part) == 1 for part in box):
        left, right = _split_box(box)
        alive = [c for c in (left, right) if not edgefree(c)]
        est *= len(alive)
        box = alive[0] if len(alive) == 1 else rng.choice(alive)
    return est


def estimate_edges(
    ih: ImplicitAnswerHypergraph,
    edgefree,
    epsilon: float,
    delta: float,
    rng: random.Random,
    probe_budget: int = 20_000,
    stats: OracleStats | None = None,
) -> int:
    """(epsilon, delta)-style edge count estimate from edge-freeness queries.

    First probes with the exact counter under `probe_budget` queries and
    returns its answer when the instance is small enough. Otherwise runs
    median-of-means over random-walk samples: m = ceil(18 ln(2/delta)) means
    of g walks each, g chosen from a pilot variance estimate so a single mean
    lands within epsilon relative error with probability at least 3/4.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if probe_budget > 0:
        try:
            return count_edges_exact_oracle(ih, edgefree, budget=probe_budget)
        except BudgetExceededError:
            pass
    base = rng.getrandbits(64)
    counter = 0

    def walk() -> int:
        nonlocal counter
        wrng = derive_rng(base, counter)
        counter += 1
        if stats is not None:
            stats.estimator_walks += 1
        return single_walk_estimate(ih, edgefree, wrng)

    pilot = [walk() for _ in range(48)]
    mean = statistics.fmean(pilot)
    if mean == 0:
        return 0
    var = statistics.pvariance(pilot)
    g = max(8, math.ceil(8 * var / (epsilon**2 * mean**2)))
    m = math.ceil(18 * math.log(2 / delta))
    means = []
    for _ in range(m):
        means.append(statistics.fmean(walk() for _ in range(g)))
    return round(statistics.median(means))


class _OracleCapExhausted(Exception):
    """Internal: the per-attempt cap on distinct oracle simulations ran out."""


def approx_count_answers(
    q: Query,
    d: Database,
    epsilon: float,
    delta: float,
    seed: int | random.Random,
    backend: str = "bruteforce",
    stats: OracleStats | None = None,
    probe_budget: int = 20_000,
    initial_cap: int = 50_000,
    max_attempts: int = 8,
) -> int:
    """Randomized answer count for a normalized query with disequalities.

    Splits delta evenly between the estimator and the edge-freeness oracle;
    the oracle half is divided uniformly over a cap on distinct simulations
    (memoized repeats are free). When a run needs more simulations than the
    cap allows, it restarts with a four times larger cap and fresh derived
    random streams, so the final answer always comes from a fully budgeted
    run. Identical seeds give identical results.
    """
    ih = ImplicitAnswerHypergraph(q, d)
    if isinstance(seed, random.Random):
        base_seed = seed.getrandbits(64)
    else:
        base_seed = int(seed)
    if stats is None:
        stats = OracleStats()

    cap = initial_cap
    for attempt in range(max_attempts):
        delta_prime = (delta / 2) / cap
        oracle_rng = derive_rng(base_seed, attempt, 0)
        est_rng = derive_rng(base_seed, attempt, 1)
        memo: dict = {}
        sims = 0

        def oracle(box, _memo=memo, _rng=oracle_rng, _dp=delta_prime):
            nonlocal sims
            hit = _memo.get(box)
            if hit is not None:
                return hit
            if sims >= cap:
                raise _OracleCapExhausted()
            sims += 1
            out = edgefree_restricted(ih, box, _dp, _rng, backend, stats)
            _memo[box] = out
            return out

        try:
            return estimate_edges(
                ih, oracle, epsilon, delta / 2, est_rng, probe_budget, stats
            )
        except _OracleCapExhausted:
            stats.restarts += 1
            cap *= 4
    raise BudgetExceededError(
        f"oracle simulation cap still exhausted after {max_attempts} attempts"
    )
