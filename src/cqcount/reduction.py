"""Counting answers through an implicit answer hypergraph.

Each answer of the query is one hyperedge over ell disjoint copies of the
domain (one layer per free variable); the hyperedges are never materialized.
Edge-freeness of a sub-box is decided by colour coding: the disequality graph
is covered by cliques once, each sample draws one colouring of the domain per
clique and pins the clique's i-th variable to colour class i, and each sample
needs one homomorphism check between a decorated query structure and a
decorated layered database structure. Counting then reduces to edge-freeness
queries alone: an exact recursive halving counter and a random-walk estimator
with median-of-means amplification sit on top.

Halving the full box along the domain order only ever makes products of
contiguous runs, so a box is named by one half-open index interval (lo, hi)
per layer, and the `edgefree` callbacks of the counters receive boxes in
that form. `edgefree_restricted` takes the box as per-layer bitmasks, the
evaluator's own form, so any value sets fit; a layer's interval is the mask
(1 << hi) - (1 << lo).

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
from dataclasses import asdict, dataclass

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
from .widths import TW_EXACT_VERTEX_LIMIT, _bits, make_nice, treewidth_exact, treewidth_heuristic

HOM_BACKENDS = ("bruteforce", "td-dp")


@dataclass
class OracleStats:
    """Work counters accumulated across a counting run.

    edgefree_calls: edge-freeness checks of a box (memo hits not counted);
    colourings_sampled: colour samples drawn, searched or not;
    hom_calls: box searches run, the one with no colour masks included;
    estimator_walks: random walks of the edge-count estimator;
    restarts: runs begun again with a larger simulation cap.
    """

    edgefree_calls: int = 0
    colourings_sampled: int = 0
    hom_calls: int = 0
    estimator_walks: int = 0
    restarts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


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
        self._answers: set[tuple] | None = None
        self._evaluators: dict[str, _Evaluator] = {}

    def vertices(self) -> list[tuple]:
        return [(w, i) for i in range(1, self.ell + 1) for w in self.domain]

    def full_box(self) -> tuple[tuple[int, int], ...]:
        return ((0, len(self.domain)),) * self.ell

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

        base = [self.full_mask] * self.nvars
        binary: list[tuple[int, int, list[int]]] = []
        higher: list[tuple[tuple[int, ...], frozenset, bool]] = []
        for sym, args, negated in [(s, a, False) for s, a in q.predicates] + [
            (s, a, True) for s, a in q.negated_predicates
        ]:
            facts = d.relations[sym]
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
        self.cliques = clique_cover(self.diseq_pos)
        # Disequality (a, b) of a clique takes the class of a as its red mask.
        slot = {}
        for c, clique in enumerate(self.cliques):
            for (i, a), (_, b) in itertools.combinations(enumerate(clique), 2):
                slot[a, b] = (c, i)
        self.red_slots = [slot[p] for p in self.diseq_pos]

        if backend == "td-dp":
            self._a = build_A(q)
            self._b = build_B(q, d)
            h = structure_hypergraph(self._a)
            # Past the exact search's vertex limit, min-fill, as analyze does.
            exact = len(h.vertices) <= TW_EXACT_VERTEX_LIMIT
            _, td = treewidth_exact(h) if exact else treewidth_heuristic(h)
            self._td = make_nice(h, td)

    def red_masks(self, classes) -> list[int]:
        """Per-disequality red masks of one colouring per clique.

        classes[c][i] is the value mask of colour class i of clique c. Red
        (a, b) = class a and blue = its complement leave exactly class i to
        the clique's i-th variable, because the classes partition the domain.
        """
        return [classes[c][i] for c, i in self.red_slots]

    def compile(self, layer_masks):
        """The search of one box, as a callable colour_masks -> witness | None.

        layer_masks: per free variable, the allowed-value bitmask of its box;
        colour_masks: per oriented disequality, the red-value bitmask. The box
        domains and, for bruteforce, the variable order and atom schedule are
        set up here once, so each colouring only applies its masks. A witness
        is the satisfying values in variable order (bruteforce) or () (td-dp).
        """
        box = list(self.base)
        for i, m in enumerate(layer_masks):
            box[i] &= m
        if not all(box):
            return lambda colour_masks: None
        if self.backend == "td-dp":
            search = self._find_td
        else:
            search = self._bruteforce_search(box)
        diseq_pos = self.diseq_pos

        def run(colour_masks) -> tuple | None:
            dom = list(box)
            for (i, j), red in zip(diseq_pos, colour_masks):
                dom[i] &= red
                dom[j] &= ~red
            if not all(dom):
                return None
            return search(dom)

        return run

    def _find_td(self, dom: list[int]) -> tuple | None:
        values = self.ih.domain
        domains = {
            v: {values[i] for i in _bits(dom[k])} for k, v in enumerate(self.vars)
        }
        ok = hom_exists_td(self._a, self._b, self._td, domains)
        return () if ok else None

    def _bruteforce_search(self, box: list[int]):
        """Backtracking search over domains within box, in the order of the
        box domain sizes; each atom of arity >= 3 is checked once its last
        variable is assigned."""
        n = self.nvars
        order = sorted(range(n), key=lambda i: box[i].bit_count())
        rank = {x: k for k, x in enumerate(order)}
        due: list[list] = [[] for _ in range(n)]
        for idxs, facts, negated in self.higher:
            due[max(rank[i] for i in idxs)].append((idxs, facts, negated))
        values = self.ih.domain
        assigned = [0] * n

        def search(dom: list[int]) -> tuple | None:
            if not n:
                return ()
            # Depth-first over the variables in order, without recursion: m
            # holds the untried values of order[k] under the domains cur, and
            # stack the same for each shallower level.
            k, m, cur = 0, dom[order[0]], dom
            stack = []
            while True:
                if not m:
                    if not stack:
                        return None
                    k, m, cur = stack.pop()
                    continue
                low = m & -m
                m ^= low
                x = order[k]
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
                if not ok:
                    continue
                if k + 1 == n:
                    return tuple(values[assigned[i]] for i in range(n))
                stack.append((k, m, cur))
                k, m, cur = k + 1, nxt[order[k + 1]], nxt

        return search


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


def clique_cover(pairs) -> list[tuple[int, ...]]:
    """Greedy edge-disjoint clique cover of a graph given by oriented pairs.

    Each uncovered pair, in the given order, starts a clique that grows in
    vertex order by every vertex joined to all members by uncovered pairs; a
    triangle-free graph gets one K2 per pair, in order.
    """
    uncovered = set(pairs)
    vertices = sorted({v for pair in pairs for v in pair})
    cover = []
    for pair in pairs:
        if pair not in uncovered:
            continue
        clique = list(pair)
        for v in vertices:
            if v not in clique and all(
                (min(u, v), max(u, v)) in uncovered for u in clique
            ):
                clique.append(v)
        clique.sort()
        uncovered.difference_update(itertools.combinations(clique, 2))
        cover.append(tuple(clique))
    return cover


def clique_repetitions(sizes, delta_prime: float) -> int:
    """Colour samples needed for one-sided failure probability delta_prime
    when each clique K_k of the cover gets one k-colouring: an answer
    survives a sample with probability prod k^-k."""
    if not 0 < delta_prime < 1:
        raise ValueError("delta_prime must lie in (0, 1)")
    if not sizes:
        return 1
    return math.ceil(math.log(1 / delta_prime)) * math.prod(k**k for k in sizes)


def _colour_classes(rng: random.Random, k: int, width: int) -> list[int]:
    """A uniform k-colouring of the width domain values as k class masks.

    A K2 takes one getrandbits draw whose set bits are class 0, the draw
    per disequality that a triangle-free query has always made.
    """
    if k == 2:
        red = rng.getrandbits(width)
        return [red, ~red & ((1 << width) - 1)]
    classes = [0] * k
    for idx in range(width):
        classes[rng.randrange(k)] |= 1 << idx
    return classes


def edgefree_restricted(
    ih: ImplicitAnswerHypergraph,
    masks,
    delta_prime: float,
    rng: random.Random,
    backend: str = "bruteforce",
    stats: OracleStats | None = None,
) -> bool:
    """One-sided randomized edge-freeness for a layer-aligned box, given as
    one bitmask of its values per layer (bit i is ih.domain[i]).

    'Has an edge' answers are always correct; 'edge-free' is wrong with
    probability at most delta_prime. Each sample colours the domain once per
    clique of the evaluator's disequality cover, so clique_repetitions() of
    the clique sizes samples suffice. The box is first searched with no
    colour masks: with no disequalities that is the exact answer, and since
    a colouring only narrows the domains, a box with no witness there has
    none under any colouring, so its samples are drawn but not searched.
    """
    if len(masks) != ih.ell:
        raise ValueError(f"expected {ih.ell} layer masks, got {len(masks)}")
    if any(m >> len(ih.domain) for m in masks):
        raise ValueError("a layer mask has bits beyond the database domain")
    if stats is not None:
        stats.edgefree_calls += 1
    if not all(masks):
        return True
    ev = ih.evaluator(backend)
    search = ev.compile(masks)
    if stats is not None:
        stats.hom_calls += 1
    witness = search(())
    if not ev.cliques:
        return witness is None
    sizes = [len(clique) for clique in ev.cliques]
    q_reps = clique_repetitions(sizes, delta_prime)
    width = len(ih.domain)
    # A cover of K2s only is diseq_pos itself, each red mask its K2's draw:
    # the general path's draws, without building class lists per sample.
    pairs_only = max(sizes) == 2
    if witness is None:
        # The same draws as the loop below, so rng ends in the same state.
        if pairs_only:
            for _ in range(q_reps * len(sizes)):
                rng.getrandbits(width)
        else:
            for _ in range(q_reps):
                for k in sizes:
                    _colour_classes(rng, k, width)
        if stats is not None:
            stats.colourings_sampled += q_reps
        return True
    for _ in range(q_reps):
        if pairs_only:
            colours = [rng.getrandbits(width) for _ in sizes]
        else:
            colours = ev.red_masks([_colour_classes(rng, k, width) for k in sizes])
        if stats is not None:
            stats.colourings_sampled += 1
            stats.hom_calls += 1
        if search(colours) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# Counting on top of the oracle
# ---------------------------------------------------------------------------

def _halves(box: tuple[tuple[int, int], ...]) -> tuple:
    """The two halves of the box's lowest-index interval of two or more
    values, the left one taking the odd value; () when every interval holds
    a single value."""
    for i, (lo, hi) in enumerate(box):
        if hi - lo >= 2:
            mid = (lo + hi + 1) // 2
            head, tail = box[:i], box[i + 1 :]
            return head + ((lo, mid),) + tail, head + ((mid, hi),) + tail
    return ()


def count_edges_exact_oracle(
    ih: ImplicitAnswerHypergraph,
    edgefree,
    budget: int | None = None,
) -> int:
    """Exact edge count using only edge-freeness queries (recursive halving).

    edgefree receives interval boxes (see the module docstring), the full box
    first. An edge-free instance costs exactly one query; in general the number of
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
        halves = _halves(box)
        if halves:
            stack += reversed(halves)
        else:
            count += 1
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
    while halves := _halves(box):
        alive = [c for c in halves if not edgefree(c)]
        if not alive:
            # Only the oracle's one-sided error gets here; the product is 0.
            return 0
        est *= len(alive)
        box = alive[0] if len(alive) == 1 else rng.choice(alive)
    return est


PILOT_WALKS = 48
# Most runs approx_count_answers makes, each with a four times larger oracle cap.
MAX_ATTEMPTS = 8


def estimate_edges(
    ih: ImplicitAnswerHypergraph,
    edgefree,
    epsilon: float,
    delta: float,
    rng: random.Random,
    probe_budget: int = 20_000,
    stats: OracleStats | None = None,
    walk_budget: int | None = 100_000,
) -> int:
    """(epsilon, delta)-style edge count estimate from edge-freeness queries.

    First probes with the exact counter under `probe_budget` queries and
    returns its answer when the instance is small enough. Otherwise runs
    median-of-means over random-walk samples: m = ceil(18 ln(2/delta)) means
    of g walks each, g chosen from a pilot variance estimate so a single mean
    lands within epsilon relative error with probability at least 3/4.
    BudgetExceededError is raised before any walk when the pilot, or the
    pilot plus the m*g walks, would take more than `walk_budget` walks.
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

    def need(walks: int) -> None:
        if walk_budget is not None and walks > walk_budget:
            raise BudgetExceededError(
                f"walk estimator needs {walks} walks, walk budget is {walk_budget}"
            )

    need(PILOT_WALKS)
    pilot = [walk() for _ in range(PILOT_WALKS)]
    mean = statistics.fmean(pilot)
    if mean == 0:
        return 0
    var = statistics.pvariance(pilot)
    g = max(8, math.ceil(8 * var / (epsilon**2 * mean**2)))
    m = math.ceil(18 * math.log(2 / delta))
    need(PILOT_WALKS + m * g)
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
    walk_budget: int | None = 100_000,
) -> int:
    """Randomized answer count for a normalized query with disequalities.

    Splits delta evenly between the estimator and the edge-freeness oracle;
    the oracle half is divided uniformly over a cap on distinct simulations
    (memoized repeats are free). When a run needs more simulations than the
    cap allows, it restarts with a four times larger cap and fresh derived
    random streams, so the final answer always comes from a fully budgeted
    run. Identical seeds give identical results. `walk_budget` caps the walks
    of each attempt's estimator (see estimate_edges).
    """
    ih = ImplicitAnswerHypergraph(q, d)
    if isinstance(seed, random.Random):
        base_seed = seed.getrandbits(64)
    else:
        base_seed = int(seed)
    if stats is None:
        stats = OracleStats()

    cap = initial_cap
    for attempt in range(MAX_ATTEMPTS):
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
            masks = [(1 << hi) - (1 << lo) for lo, hi in box]
            out = edgefree_restricted(ih, masks, _dp, _rng, backend, stats)
            _memo[box] = out
            return out

        try:
            return estimate_edges(
                ih, oracle, epsilon, delta / 2, est_rng, probe_budget, stats,
                walk_budget,
            )
        except _OracleCapExhausted:
            stats.restarts += 1
            cap *= 4
    raise BudgetExceededError(
        f"oracle simulation cap still exhausted after {MAX_ATTEMPTS} attempts"
    )
