"""Counting answers through an implicit answer hypergraph.

Each answer of the query is one hyperedge over ell disjoint copies of the
domain (one layer per free variable); the hyperedges are never materialized.
Edge-freeness of a sub-box is decided by colour coding: the disequality graph
is covered by cliques once, each sample draws one colouring of the domain per
clique and pins the clique's i-th variable to colour class i, and each sample
needs one homomorphism check between a decorated query structure and a
decorated layered database structure. td-dp colour-codes every cover, and
bruteforce only a cover of K2s: when a clique has three or more variables,
bruteforce decides each box exactly and draws no sample (see
edgefree_restricted). Counting then reduces to edge-freeness queries alone:
an exact recursive halving counter and a random-walk estimator with
median-of-means amplification sit on top. The walks of one estimate run
share a cache of the halving tree (each split box maps to its children with
an edge), bounded in size by the oracle's cap on distinct boxes.

Each cover shape has one sampler, which the evaluator picks when it is
built: _pair_samples when every clique is a K2, _block_samples when they all
have one size k >= 3, and _mixed_samples otherwise. A sampler draws a box's
samples and searches them up to the first witness. When the box cannot hold
an answer it still draws them all, unsearched, so the random stream does not
depend on which boxes are searched: a box with no witness before any
colouring, or one that bruteforce proves answer-free (see
edgefree_restricted). bruteforce runs only _pair_samples, as it decides a
cover with a clique of k >= 3 exactly, so _block_samples and _mixed_samples
colour-code for td-dp alone. A clique of k >= 3 variables colours each value
with one rng.randrange(k), decoded from the high byte of a 32-bit word
(_draw_values), which is why a clique has at most 255 variables. A sample
whose colouring leaves some clique's colour class empty can hold no witness,
so it is counted and drawn like any other but neither masked nor searched.
The bruteforce evaluator keeps the last answer a search of it returned; in a
later box that holds it, that answer settles the search before colouring.

A box is one value mask per layer (bit i is the domain's i-th value), the
form the counters' `edgefree` callbacks, edgefree_restricted and the
evaluator all take; halving the full box splits one layer's run of values at
a time. An answer is the tuple of value indices of a full assignment, in
variable order, as the bruteforce search returns it.

Both homomorphism backends answer a layer-decorated check without building
the layered structure: tagged relations ignore layer indices, so the check
collapses to a value-level search with per-variable allowed masks (layer boxes
plus colour filters). The evaluator builds each atom once from its facts,
keeping those that agree wherever the atom repeats a variable, as domain
indices of its distinct variables: an atom over one variable narrows that
variable's base mask, one over two becomes a support mask per value in each
direction, and one over more keeps its set of index rows. A negated atom
complements its masks, or needs its row missing. Both backends plan their
search once per run over that form, when the evaluator is built.
`bruteforce` backtracks over the variables in a fixed order, each level
holding its forward checks into later neighbours and the atoms over three or
more variables it completes; `td-dp` runs one dynamic program along a nice
tree decomposition of the query, built once and flattened into postorder
steps over the same bitmask tables. Tests pin both against the paper's
explicit structures, plain and decorated, which tests/helpers.py builds and
checks by a backtracking search and by homsolver.hom_exists_td, the paper's
DP over explicit structures.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
import statistics
from dataclasses import asdict, dataclass

from .errors import BudgetExceededError, QueryValidationError
from .homsolver import hom_exists_td  # noqa: F401  (perfbench/spans.py wraps it by name)
from .qmodel import (
    Database,
    Query,
    build_hypergraph,
    oriented_disequalities,
    validate_pair,
)
from .widths import (
    TW_EXACT_VERTEX_LIMIT,
    make_nice,
    treewidth_exact,
    treewidth_heuristic,
)

HOM_BACKENDS = ("bruteforce", "td-dp")


@dataclass
class OracleStats:
    """Work counters accumulated across a counting run.

    edgefree_calls: edge-freeness checks of a box (memo hits not counted);
    colourings_sampled: colour samples drawn, searched or not;
    hom_calls: one per box for its search with no colour masks, plus, for
        a box with a witness there, one per colour sample its sampler drew:
        up to the first with a witness, or all of them. A sample counts
        whether or not it is searched (see edgefree_restricted and the
        samplers). A bruteforce box whose cover has a clique of k >= 3 draws
        no sample, so it counts one hom call and no colourings;
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


def _derived_seed(seed: int, *path: int) -> int:
    """The seed of derive_rng(seed, *path): 128 bits of a sha256 digest."""
    text = ":".join(str(p) for p in (seed,) + path)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:16], "big")


def derive_rng(seed: int, *path: int) -> random.Random:
    """Independent deterministic stream for (seed, path); hash-based splitting."""
    return random.Random(_derived_seed(seed, *path))


class ImplicitAnswerHypergraph:
    """The answer hypergraph of a normalized query over a database.

    Vertices are (value, layer) pairs for layers 1..ell (ell = number of free
    variables); the hyperedge set is in bijection with the answer set and is
    only ever touched through edge-freeness queries.
    """

    def __init__(self, q: Query, d: Database):
        if q.equalities:
            raise QueryValidationError("normalize the query before building the hypergraph")
        validate_pair(q, d)
        self.query = q
        self.database = d
        self.ell = len(q.free_vars)
        self.domain = tuple(d.domain)
        self._evaluators: dict[str, _Evaluator] = {}

    def full_box(self) -> tuple[int, ...]:
        return ((1 << len(self.domain)) - 1,) * self.ell

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
        self.nvars = len(q.variables)
        pos = {v: i for i, v in enumerate(q.variables)}
        index = {w: i for i, w in enumerate(ih.domain)}
        nd = len(ih.domain)
        full = (1 << nd) - 1

        # rows: the facts that agree wherever the atom repeats a variable, as
        # value indices of its distinct variables in first-occurrence order.
        self.base = [full] * self.nvars
        self.adj: list[list[tuple[int, list[int]]]] = [[] for _ in range(self.nvars)]
        self.higher: list[tuple[tuple[int, ...], frozenset, bool]] = []
        for sym, args, negated in [(s, a, False) for s, a in q.predicates] + [
            (s, a, True) for s, a in q.negated_predicates
        ]:
            distinct = tuple(dict.fromkeys(args))
            first = [args.index(v) for v in args]
            cols = [args.index(v) for v in distinct]
            rows = {
                tuple(index[t[p]] for p in cols)
                for t in d.relations[sym]
                if all(t[p] == t[f] for p, f in enumerate(first))
            }
            if len(distinct) == 1:
                mask = sum(1 << a for (a,) in rows)
                self.base[pos[distinct[0]]] &= mask ^ full if negated else mask
            elif len(distinct) == 2:
                xi, xj = pos[distinct[0]], pos[distinct[1]]
                sup_i, sup_j = [0] * nd, [0] * nd
                for a, b in rows:
                    sup_i[a] |= 1 << b
                    sup_j[b] |= 1 << a
                if negated:
                    sup_i = [m ^ full for m in sup_i]
                    sup_j = [m ^ full for m in sup_j]
                self.adj[xi].append((xj, sup_i))
                self.adj[xj].append((xi, sup_j))
            else:
                self.higher.append((tuple(pos[v] for v in distinct), frozenset(rows), negated))

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

        self.clique_sizes = [len(clique) for clique in self.cliques]
        # The size of every clique, or 0 when they differ, and the sampler
        # of that cover shape.
        sizes = set(self.clique_sizes)
        self.one_size = sizes.pop() if len(sizes) == 1 else 0
        self._sampler = {0: _mixed_samples, 2: _pair_samples}.get(
            self.one_size, _block_samples
        )
        # Whether edgefree_restricted returns bruteforce's exact answer with
        # no samples: a clique of k >= 3 takes k^k samples per round, each
        # only repeating what the searches before colouring decided.
        self.exact = backend == "bruteforce" and max(self.clique_sizes, default=0) > 2

        self._reps: dict[float, int] = {}  # repetitions() per delta_prime
        # The value indices of the last answer a bruteforce search returned:
        # a witness that meets every disequality (see answer_within).
        self.last: tuple[int, ...] | None = None

        # One plan per run; self._search runs it under a box's domains.
        if backend == "td-dp":
            self._plan = self._plan_td(q, pos)
            self._search = self._td_search
        else:
            self._plan = self._plan_bruteforce(ih.ell)
            self._search = self._bruteforce_search

    def red_masks(self, classes) -> list[int]:
        """Per-disequality red masks of one colouring per clique.

        classes[c][i] is the value mask of colour class i of clique c. Red
        (a, b) = class a and blue = its complement leave exactly class i to
        the clique's i-th variable, because the classes partition the domain.
        """
        return [classes[c][i] for c, i in self.red_slots]

    def repetitions(self, delta_prime: float) -> int:
        """clique_repetitions of the cover, once per delta_prime."""
        reps = self._reps.get(delta_prime)
        if reps is None:
            reps = self._reps[delta_prime] = clique_repetitions(self.clique_sizes, delta_prime)
        return reps

    def _box(self, layer_masks) -> list[int]:
        base = self.base
        return [b & m for b, m in zip(base, layer_masks)] + base[len(layer_masks) :]

    def answer_in(self, layer_masks) -> tuple | None:
        """bruteforce only: an answer in the box, or None."""
        return self._bruteforce_search(self._box(layer_masks), distinct=True)

    def answer_within(self, layer_masks) -> tuple[int, ...] | None:
        """self.last when its free values lie in the box, else None: an
        answer in the box, found by a search of any box."""
        last = self.last
        if last is None:
            return None
        for m, a in zip(layer_masks, last):
            if not m >> a & 1:
                return None
        return last

    def compile(self, layer_masks):
        """The search of one box, as a callable colour_masks -> witness | None.

        layer_masks: per free variable, the allowed-value bitmask of its box;
        colour_masks: per oriented disequality, the red-value bitmask. The box
        is intersected with the base masks here once, so each colouring only
        applies its masks and runs the search planned once per run. A witness
        is the satisfying value indices in variable order (bruteforce) or ()
        (td-dp).
        """
        box = self._box(layer_masks)
        search, diseq_pos = self._search, self.diseq_pos

        def run(colour_masks) -> tuple | None:
            dom = list(box)
            for (i, j), red in zip(diseq_pos, colour_masks):
                dom[i] &= red
                dom[j] &= ~red
            if not all(dom):
                return None
            return search(dom)

        return run

    def _plan_td(self, q: Query, pos: dict) -> list[tuple]:
        """The td-dp search as flat postorder steps over a nice decomposition
        of the query, built here once. A bag's rows are tuples of value
        indices in the order of its variable indices.

        ("leaf",); ("join",) intersects the two children's tables;
        ("forget", p) drops row position p; ("introduce", x, p, nbrs, atoms)
        inserts x's values at position p, narrowed by the support mask
        sup[row[cp]] of each (cp, sup) in nbrs, one per binary atom joining x
        to a child bag variable at row position cp, and keeps the rows that
        satisfy each (positions, facts, negated) of atoms: the evaluator's
        atoms over three or more variables that hold x and lie in the bag.
        """
        h = build_hypergraph(q)
        # Past the exact search's vertex limit, min-fill, as analyze does.
        exact = len(h.vertices) <= TW_EXACT_VERTEX_LIMIT
        _, td = treewidth_exact(h) if exact else treewidth_heuristic(h)
        td = make_nice(h, td)
        order = [sorted(pos[v] for v in bag) for bag in td.bags]
        plan: list[tuple] = []
        for t in td.postorder():
            kids = td.children[t]
            if not kids:
                plan.append(("leaf",))
            elif len(kids) == 2:
                plan.append(("join",))
            else:
                row, crow = order[t], order[kids[0]]
                (x,) = set(row) ^ set(crow)
                if x in crow:
                    plan.append(("forget", crow.index(x)))
                    continue
                nbrs = [
                    (cp, sup)
                    for cp, y in enumerate(crow)
                    for z, sup in self.adj[y]
                    if z == x
                ]
                atoms = [
                    (tuple(row.index(i) for i in idxs), facts, negated)
                    for idxs, facts, negated in self.higher
                    if x in idxs and set(idxs) <= set(row)
                ]
                plan.append(("introduce", x, row.index(x), nbrs, atoms))
        return plan

    def _td_search(self, dom: list[int]) -> tuple | None:
        """Run the td-dp plan under the domains dom; () if a homomorphism
        exists. Stops at the first empty table, since the root's is then
        empty too."""
        tables: list[set[tuple]] = []
        for step in self._plan:
            kind = step[0]
            if kind == "leaf":
                tables.append({()})
                continue
            if kind == "join":
                table = tables.pop() & tables.pop()
            elif kind == "forget":
                p = step[1]
                table = {row[:p] + row[p + 1 :] for row in tables.pop()}
            else:
                _, x, p, nbrs, atoms = step
                table = set()
                for row in tables.pop():
                    m = dom[x]
                    for cp, sup in nbrs:
                        m &= sup[row[cp]]
                    head, tail = row[:p], row[p:]
                    while m:
                        low = m & -m
                        m ^= low
                        new = head + (low.bit_length() - 1,) + tail
                        if not atoms or all(
                            (tuple(new[i] for i in idxs) in facts) != negated
                            for idxs, facts, negated in atoms
                        ):
                            table.add(new)
            if not table:
                return None
            tables.append(table)
        return ()

    def _plan_bruteforce(self, ell: int) -> list[tuple]:
        """The bruteforce search as one (x, fwd, atoms, neq) level per
        variable x: free variables in layer order, then existential ones by
        base mask size. fwd holds the (y, sup) of each binary atom from x to
        a later variable y, narrowing y to sup[value of x]; a check back into
        an earlier neighbour would always pass, since that neighbour's
        forward check already narrowed x. atoms holds the atoms over three or
        more variables that x completes, and neq the later variables that
        share a disequality with x."""
        base = self.base
        order = list(range(ell)) + sorted(
            range(ell, self.nvars), key=lambda i: base[i].bit_count()
        )
        rank = {x: k for k, x in enumerate(order)}
        due: list[list] = [[] for _ in order]
        for atom in self.higher:
            due[max(rank[i] for i in atom[0])].append(atom)
        neq: list[list[int]] = [[] for _ in order]
        for pair in self.diseq_pos:
            x, y = sorted(pair, key=rank.get)
            neq[x].append(y)
        return [
            (x, [(y, sup) for y, sup in self.adj[x] if rank[y] > k], due[k], neq[x])
            for k, x in enumerate(order)
        ]

    def _bruteforce_search(self, dom: list[int], distinct: bool = False) -> tuple | None:
        """Backtrack over the plan's levels under the domains dom; with
        distinct, a witness also meets every disequality."""
        levels = self._plan
        n = len(levels)
        assigned = [0] * n
        # Depth-first over the levels, without recursion: m holds the untried
        # values of level k's variable under the domains cur, and stack the
        # same for each shallower level.
        k, m, cur = 0, dom[levels[0][0]], dom
        stack = []
        while True:
            if not m:
                if not stack:
                    return None
                k, m, cur = stack.pop()
                continue
            low = m & -m
            m ^= low
            x, fwd, atoms, neq = levels[k]
            b = low.bit_length() - 1
            nxt = list(cur)
            ok = True
            for y, sup in fwd:
                nxt[y] &= sup[b]
                if not nxt[y]:
                    ok = False
                    break
            if distinct and ok:
                for y in neq:
                    nxt[y] &= ~low
                    if not nxt[y]:
                        ok = False
                        break
            if not ok:
                continue
            assigned[x] = b
            for idxs, facts, negated in atoms:
                if (tuple(assigned[i] for i in idxs) in facts) == negated:
                    ok = False
                    break
            if not ok:
                continue
            if k + 1 == n:
                found = tuple(assigned)
                if all(found[i] != found[j] for i, j in self.diseq_pos):
                    self.last = found
                return found
            stack.append((k, m, cur))
            k, m, cur = k + 1, nxt[levels[k + 1][0]], nxt



# ---------------------------------------------------------------------------
# Edge-freeness
# ---------------------------------------------------------------------------

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
    survives a sample with probability prod k^-k. BudgetExceededError when
    1 / delta_prime overflows a float, so no finite count is computed, or
    when a clique has more than 255 variables, whose colours do not fit the
    byte a value's draw is decoded into."""
    if not 0 < delta_prime < 1:
        raise ValueError("delta_prime must lie in (0, 1)")
    if not sizes:
        return 1
    if max(sizes) > 255:
        raise BudgetExceededError(
            f"colour coding needs {max(sizes)}^{max(sizes)} samples per box for "
            f"a clique of {max(sizes)} disequal variables; at most 255 are supported"
        )
    rounds = math.log(1 / delta_prime)
    if rounds == math.inf:
        raise BudgetExceededError(
            f"colour coding needs more than any finite number of samples at "
            f"failure probability {delta_prime!r} or below"
        )
    return math.ceil(rounds) * math.prod(k**k for k in sizes)


# Bounds the 32-bit words of one getrandbits call, however many samples a
# box takes: a skipped box of K2s draws its words in calls of at most this
# many, and a box whose cliques have one size k >= 3 its samples in blocks
# of about this many values, one word each.
_BLOCK_VALUES = 4096


@functools.cache
def _tables(k: int) -> tuple[bytes, bytes, list[bytes]]:
    """For colours 0..k-1, 3 <= k <= 255: the translate table and deleted
    bytes that turn a 32-bit word's high byte into its rng.randrange(k) draw
    (the top k.bit_length() bits, redrawn while they are k or more), and
    per colour the table that writes a value of that colour as b"1", any
    other as b"0"."""
    shift = 8 - k.bit_length()
    decode = bytes(b >> shift for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= k)
    ones = [bytes(48 + (b == c) for b in range(256)) for c in range(k)]
    return decode, reject, ones


def _draw_values(rng: random.Random, k: int, n: int) -> bytes:
    """n draws of rng.randrange(k), one byte each, from the same 32-bit words
    of the generator in the same order. getrandbits(32 * m) draws m words,
    the first in the lowest bits; each round draws one word per value still
    missing, so it never draws a word past the n-th value's."""
    decode, reject, _ = _tables(k)
    vals = b""
    while len(vals) < n:
        need = n - len(vals)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        vals += words[3::4].translate(decode, reject)
    return vals


def _classes(vals: bytes, ones: list[bytes]) -> list[int]:
    """The class masks of a colouring that gives value i the colour vals[i]."""
    rev = vals[::-1]
    return [int(rev.translate(t) or b"0", 2) for t in ones]


def _colour_classes(rng: random.Random, k: int, width: int) -> list[int]:
    """A uniform k-colouring of the width domain values as k class masks.

    A K2 takes one getrandbits draw whose set bits are class 0, the draw
    per disequality that a triangle-free query has always made; a larger
    clique takes one rng.randrange(k) per value.
    """
    if k == 2:
        red = rng.getrandbits(width)
        return [red, ~red & ((1 << width) - 1)]
    return _classes(_draw_values(rng, k, width), _tables(k)[2])


# One sampler per cover shape, which _Evaluator picks by its one_size:
# sampler(ev, masks, box, known, rng, q_reps, width, search) returns the
# number of the box's q_reps colour samples it drew up to and including the
# first with a witness, or 0 when none has one. With search false it draws
# all q_reps samples, searches none and returns 0, so rng ends as a search
# with no witness leaves it. masks are the box's layer masks, box its
# per-variable domains (ev._box(masks)), and known an answer in the box
# (value indices) or None.


def _pair_samples(ev, masks, box, known, rng, q_reps, width, search) -> int:
    """The sampler of a cover of K2s only, which is ev.diseq_pos itself.

    Each K2 is one disequality (i, j), whose sample is one getrandbits
    draw: the red class, which i takes and j avoids. Unsearched, the
    samples come from the same 32-bit words, ceil(width / 32) per draw, in
    calls of at most _BLOCK_VALUES words. A sample where the known answer
    has i red and j blue holds a witness without a search. One that leaves
    a variable no value of the box holds none, and is not searched. This
    narrows the box as compile's callable does, inline, as a call per
    sample would cost most of what the loop saves.
    """
    draw = rng.getrandbits
    if not search:
        words = (width + 31) // 32 * q_reps * len(ev.diseq_pos)
        for start in range(0, words, _BLOCK_VALUES):
            draw(32 * min(_BLOCK_VALUES, words - start))
        return 0
    run = ev._search
    # (i, j, mask, keep): the known answer survives red when red & mask is
    # keep, its value at i red and at j not; with mask 0 it never does.
    rows = [
        (i, j, 1 << known[i] | 1 << known[j], 1 << known[i])
        if known is not None
        else (i, j, 0, 1)
        for i, j in ev.diseq_pos
    ]
    for t in range(1, q_reps + 1):
        dom, survives = list(box), True
        for i, j, mask, keep in rows:
            red = draw(width)
            dom[i] &= red
            dom[j] &= ~red
            survives = survives and red & mask == keep
        if survives or all(dom) and run(dom) is not None:
            return t
    return 0


def _block_samples(ev, masks, box, known, rng, q_reps, width, search) -> int:
    """The sampler of a cover whose cliques all have one size k >= 3.

    The samples are drawn many at a time from the same words as one at a
    time: unsearched, in chunks of _BLOCK_VALUES values; searched, in
    blocks of as many whole samples as fit in _BLOCK_VALUES values (at
    least one). Of those, only the samples whose colouring fills every
    class are searched, each distinct colouring once, since the search of
    one box depends on nothing else. A witness at a block's sample s
    rewinds rng to the block's start and redraws its samples 0..s, so no
    later sample's words are drawn.
    """
    k, per = ev.one_size, len(ev.cliques) * width
    if not search:
        total = q_reps * per
        for start in range(0, total, _BLOCK_VALUES):
            _draw_values(rng, k, min(_BLOCK_VALUES, total - start))
        return 0
    run, ones = ev.compile(masks), _tables(k)[2]
    block = max(1, _BLOCK_VALUES // per)
    tried = set()
    for start in range(0, q_reps, block):
        size = min(block, q_reps - start)
        state = rng.getstate()
        vals = _draw_values(rng, k, size * per)
        samples = [vals[i : i + per] for i in range(0, size * per, per)]
        for s, sample in enumerate(samples):
            if sample in tried:
                continue
            tried.add(sample)
            parts = [sample[i : i + width] for i in range(0, per, width)]
            if all(len(set(p)) == k for p in parts) and run(
                ev.red_masks([_classes(p, ones) for p in parts])
            ) is not None:
                rng.setstate(state)
                _draw_values(rng, k, (s + 1) * per)
                return start + s + 1
    return 0


def _mixed_samples(ev, masks, box, known, rng, q_reps, width, search) -> int:
    """The sampler of a cover whose cliques differ in size: one sample at
    a time, each drawing its cliques' colourings in cover order with
    _colour_classes' draws, which an unsearched sample makes without
    building the classes."""
    sizes = ev.clique_sizes
    if not search:
        for _ in range(q_reps):
            for c in sizes:
                if c == 2:
                    rng.getrandbits(width)
                else:
                    _draw_values(rng, c, width)
        return 0
    run = ev.compile(masks)
    for t in range(1, q_reps + 1):
        classes = [_colour_classes(rng, c, width) for c in sizes]
        # An empty class leaves its clique variable no value, so the search
        # would return None at its empty-domain check.
        if all(map(all, classes)) and run(ev.red_masks(classes)) is not None:
            return t
    return 0


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
    the clique sizes samples suffice; a clique of more than 255 variables is
    a BudgetExceededError before any draw. The box is first searched with no
    colour masks: with no disequalities that is the exact answer, and since
    a colouring only narrows the domains, a box with no witness there has
    none under any colouring. On bruteforce, a box with a witness there is
    searched once more with every disequality enforced (answer_in); one with
    no answer has no witness under any colouring either. td-dp keeps colour
    coding, as that search has no FPT bound. The evaluator's last answer,
    when it lies in the box, stands in for both searches, still counted.
    So bruteforce knows the exact answer before it samples. When its cover
    has a clique of k >= 3 (ev.exact), it returns that answer and draws no
    sample, once repetitions() has raised any BudgetExceededError; the k^k
    samples per round would only repeat it, with one-sided error. Otherwise
    the evaluator's sampler draws the box's samples, searched only when the
    box may hold an answer; a box with a witness before colouring counts
    each sample drawn as a hom call, searched or not.
    """
    width = len(ih.domain)
    if len(masks) != ih.ell:
        raise ValueError(f"expected {ih.ell} layer masks, got {len(masks)}")
    if masks and (max(masks) >> width or min(masks) < 0):
        raise ValueError("a layer mask has bits beyond the database domain")
    if stats is None:
        stats = OracleStats()
    stats.edgefree_calls += 1
    if not all(masks):
        return True
    ev = ih._evaluators.get(backend) or ih.evaluator(backend)
    box = ev._box(masks)
    stats.hom_calls += 1
    # A known answer in the box stands in for the search before colouring.
    known = ev.answer_within(masks)
    found = ev._search(box) if known is None and all(box) else None
    hom = known is not None or found is not None
    if not ev.cliques:
        return not hom
    q_reps = ev._reps.get(delta_prime) or ev.repetitions(delta_prime)
    # A colour search only finds answers, so where bruteforce finds none in
    # the box, each of its samples would be searched and found empty. A
    # witness that meets every disequality is such an answer: the search
    # above found one exactly when it made it ev.last, as an earlier ev.last
    # already missed the box. Otherwise answer_in looks for one.
    search = hom
    if hom and known is None and backend == "bruteforce":
        known = found if ev.last is found else ev.answer_in(masks)
        search = known is not None
    if ev.exact:
        return known is None
    drawn = ev._sampler(ev, masks, box, known, rng, q_reps, width, search)
    stats.colourings_sampled += drawn or q_reps
    if hom:
        stats.hom_calls += drawn or q_reps
    return not drawn


# ---------------------------------------------------------------------------
# Counting on top of the oracle
# ---------------------------------------------------------------------------

def _halves(box: tuple[int, ...]) -> tuple:
    """The two halves of the box's lowest layer of two or more values, split
    at the middle of its run, the left one taking the odd value; () when
    every layer holds a single value."""
    for i, m in enumerate(box):
        if m & (m - 1):
            mid = (m & -m) << (m.bit_count() + 1) // 2
            left = m & (mid - 1)
            head, tail = box[:i], box[i + 1 :]
            return head + (left,) + tail, head + (m ^ left,) + tail
    return ()


class _CallBudgetExceeded(BudgetExceededError):
    """Internal: count_edges_exact_oracle's own call budget ran out."""


def count_edges_exact_oracle(
    ih: ImplicitAnswerHypergraph,
    edgefree,
    budget: int | None = None,
) -> int:
    """Exact edge count using only edge-freeness queries (recursive halving).

    edgefree receives boxes as per-layer value masks (see the module
    docstring), the full box first. An edge-free instance costs exactly one
    query; in general the number of queries is at most
    2(|E|+1) * sum_i ceil(log2 |U|) + 1.
    """
    count = calls = 0
    stack = [ih.full_box()]
    while stack:
        box = stack.pop()
        calls += 1
        if budget is not None and calls > budget:
            raise _CallBudgetExceeded(
                f"edge-freeness call budget of {budget} exhausted"
            )
        if edgefree(box):
            continue
        halves = _halves(box)
        if halves:
            stack += reversed(halves)
        else:
            count += 1
    return count


_LEAF = object()


def single_walk_estimate(
    ih: ImplicitAnswerHypergraph, edgefree, rng: random.Random, live=None
) -> int:
    """One unbiased sample of the edge count: walk the halving tree choosing
    uniformly among children that still contain edges, multiplying out the
    number of such children at every level. A step with two such children
    draws rng.getrandbits(2) until it is below 2 and takes that child, the
    draw rng.choice makes over two.

    live caches the halving tree for walks that share one edgefree: it maps
    each box a walk has split to the tuple of its children that are not
    edge-free, and a box of single values to _LEAF. A box is split, and its
    children asked of edgefree (left first), only on its first visit; after
    that it costs one lookup. Every box in live was answered by edgefree, so
    a memoized oracle with a cap on its distinct boxes bounds its size.
    """
    if live is None:
        live = {}
    draw = rng.getrandbits
    box = ih.full_box()
    if edgefree(box):
        return 0
    est = 1
    while True:
        alive = live.get(box)
        if alive is None:
            halves = _halves(box)
            alive = tuple(c for c in halves if not edgefree(c)) if halves else _LEAF
            live[box] = alive
        if alive is _LEAF:
            return est
        if not alive:
            # Only the oracle's one-sided error gets here; the product is 0.
            return 0
        if len(alive) == 1:
            box = alive[0]
            continue
        est *= 2
        pick = draw(2)
        while pick > 1:
            pick = draw(2)
        box = alive[pick]


PILOT_WALKS = 48
# Most runs approx_count_answers makes, each with a four times larger oracle cap.
MAX_ATTEMPTS = 8
PROBE_BUDGET = 20_000
ORACLE_CAP = 50_000
# WALK_BUDGET caps the walks of one fptras estimator run, 48 pilot walks plus
# m*g (m = 67 at delta 0.1, g >= 8 from the pilot variance). Walks per run,
# and CPU time per walk (a run's time less its probe's, over its walks),
# Python 3.11, 2-vCPU Xeon:
#   c11 corpus (probe_budget 0)     100 runs: median 584, max 8,289; 0.013 ms/walk
#   c10 (hampath(K4), exact oracle) 100 runs: median 858, max 912; 0.013 ms/walk
#   p3-32-walk-* ops, seed 1, passes 0-8: 27 runs: median 2,996, max 4,336;
#                                         0.025 ms/walk
#   c02 corpus: no run leaves the exact probe
# 100,000 is 12x the largest run and about 2.5 s at 0.025 ms/walk.
WALK_BUDGET = 100_000


def estimate_edges(
    ih: ImplicitAnswerHypergraph,
    edgefree,
    epsilon: float,
    delta: float,
    rng: random.Random,
    probe_budget: int = PROBE_BUDGET,
    stats: OracleStats | None = None,
    walk_budget: int = WALK_BUDGET,
) -> int:
    """(epsilon, delta)-style edge count estimate from edge-freeness queries.

    First probes with the exact counter under `probe_budget` queries and
    returns its answer when the instance is small enough; the probe stops
    only on that call budget, and any other error of edgefree, such as
    clique_repetitions' BudgetExceededError, propagates. Otherwise runs
    median-of-means over random-walk samples: m = ceil(18 ln(2/delta)) means
    of g walks each, g chosen from a pilot variance estimate so a single mean
    lands within epsilon relative error with probability at least 3/4.
    BudgetExceededError is raised before any walk when the pilot, or the
    pilot plus the m*g walks, would take more than `walk_budget` walks, and
    after the pilot when m*g is not a finite float (epsilon**2 underflows,
    or 1 / delta overflows), whatever the budget. The walks of one call
    share one halving-tree cache (see single_walk_estimate) and one
    generator, re-seeded before walk i to the stream of derive_rng(base, i),
    base being the first 64 bits drawn from rng after the probe.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if probe_budget > 0:
        try:
            return count_edges_exact_oracle(ih, edgefree, budget=probe_budget)
        except _CallBudgetExceeded:
            pass
    base = rng.getrandbits(64)
    counter = 0
    live: dict = {}
    wrng = random.Random()

    def walk() -> int:
        nonlocal counter
        wrng.seed(_derived_seed(base, counter))
        counter += 1
        if stats is not None:
            stats.estimator_walks += 1
        return single_walk_estimate(ih, edgefree, wrng, live)

    def need(walks: int) -> None:
        if walks > walk_budget:
            raise BudgetExceededError(
                f"walk estimator needs {walks} walks, walk budget is {walk_budget}"
            )

    need(PILOT_WALKS)
    pilot = [walk() for _ in range(PILOT_WALKS)]
    mean = statistics.fmean(pilot)
    if mean == 0:
        return 0
    var = statistics.pvariance(pilot)
    scale = epsilon**2 * mean**2
    per_mean = 8 * var / scale if scale else math.inf
    n_means = 18 * math.log(2 / delta)
    if not math.isfinite(per_mean * n_means):
        raise BudgetExceededError(
            f"walk estimator needs more than any finite number of walks at "
            f"epsilon {epsilon!r}, delta {delta!r}"
        )
    g = max(8, math.ceil(per_mean))
    m = math.ceil(n_means)
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
    seed: int,
    backend: str = "bruteforce",
    stats: OracleStats | None = None,
    probe_budget: int = PROBE_BUDGET,
    initial_cap: int = ORACLE_CAP,
    walk_budget: int = WALK_BUDGET,
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
    if initial_cap < 1:
        raise ValueError("initial_cap must be at least 1")
    ih = ImplicitAnswerHypergraph(q, d)
    # Built now, so a misspelt backend raises on every database, even one
    # whose boxes are all empty and never reach the evaluator.
    ih.evaluator(backend)
    if stats is None:
        stats = OracleStats()

    cap = initial_cap
    for attempt in range(MAX_ATTEMPTS):
        # A share that underflows to 0 stands in as the least positive float,
        # for which clique_repetitions raises BudgetExceededError.
        delta_prime = (delta / 2) / cap or math.ulp(0.0)
        oracle_rng = derive_rng(seed, attempt, 0)
        est_rng = derive_rng(seed, attempt, 1)
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
                ih, oracle, epsilon, delta / 2, est_rng, probe_budget, stats,
                walk_budget,
            )
        except _OracleCapExhausted:
            stats.restarts += 1
            cap *= 4
    raise BudgetExceededError(
        f"oracle simulation cap still exhausted after {MAX_ATTEMPTS} attempts"
    )
