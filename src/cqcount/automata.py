"""Tree automata for parsimonious answer counting of plain conjunctive queries.

A nice tree decomposition of the query turns the database into an automaton
over binary labeled trees. Each label is a (node, symbol) pair, so the
accepted trees have the decomposition's shape, and their labelings are in
bijection with the answers: count them along the decomposition, one table per
node, each node reading only the rules whose label names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DecompositionError,
    LimitExceededError,
    UnsupportedQueryError,
)
from .homsolver import sol_bag
from .qmodel import Database, Query, build_hypergraph, validate_pair
from .widths import (
    Hypergraph,
    TreeDecomposition,
    _vkey,
    fhw_exact_small,
    fhw_of_td,
    is_valid_td,
    make_nice,
    treewidth_heuristic,
)


@dataclass(frozen=True)
class TreeAutomaton:
    """Nondeterministic top-down automaton on binary labeled trees.

    transitions maps (state, label) to a set of outcomes: the empty tuple
    accepts a leaf, a 1-tuple continues into an only child, a 2-tuple into an
    ordered pair of children.
    """

    states: frozenset
    alphabet: frozenset
    transitions: dict[tuple, frozenset]
    initial: object

    @staticmethod
    def make(states, alphabet, transitions, initial) -> "TreeAutomaton":
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


# ---------------------------------------------------------------------------
# Construction from a query, a database and a nice decomposition
# ---------------------------------------------------------------------------

def build_automaton(
    q: Query,
    d: Database,
    td: TreeDecomposition,
    state_limit: int | None = None,
) -> TreeAutomaton:
    """Automaton whose accepted labelings of td's tree correspond one to one
    with the answers of the plain conjunctive query."""
    if not q.is_plain_cq():
        raise UnsupportedQueryError("the automaton construction needs a plain CQ")
    validate_pair(q, d)
    if not td.is_nice():
        raise DecompositionError("decomposition must be nice")
    if not is_valid_td(build_hypergraph(q), td):
        raise DecompositionError("decomposition is not valid for the query hypergraph")

    free = set(q.free_vars)
    bag_order = [tuple(sorted(td.bags[t], key=_vkey)) for t in range(td.n_nodes)]
    sols: dict[tuple, set[tuple]] = {}

    def sol(t: int) -> set[tuple]:
        order = bag_order[t]
        got = sols.get(order)
        if got is None:
            got = sols[order] = sol_bag(q, d, order)
            if state_limit is not None and len(got) > state_limit:
                raise LimitExceededError(
                    f"bag {list(order)} has {len(got)} partial solutions, "
                    f"limit is {state_limit}"
                )
        return got

    def label(t: int, alpha: tuple):
        return (t, tuple(v for x, v in zip(bag_order[t], alpha) if x in free))

    transitions: dict[tuple, set] = {}

    def add(t: int, alpha: tuple, outcome: tuple) -> None:
        transitions.setdefault(((t, alpha), label(t, alpha)), set()).add(outcome)

    for t in range(td.n_nodes):
        kids = td.children[t]
        rows = sol(t)
        # Leaf and join states pass their row to every child. An empty table
        # emits nothing; leaving its child's table to the child's own node
        # keeps the bag that a state_limit error names.
        if len(kids) != 1 or not rows:
            for alpha in rows:
                add(t, alpha, tuple((k, alpha) for k in kids))
            continue
        # Introduce or forget edge: one pass over the larger bag's rows, each
        # projected onto the smaller bag and kept if it is a row there too.
        c = kids[0]
        big, small = (t, c) if td.bags[c] < td.bags[t] else (c, t)
        keep = [bag_order[big].index(x) for x in bag_order[small]]
        small_rows = sol(small)
        for row in sol(big):
            proj = tuple(row[i] for i in keep)
            if proj in small_rows:
                alpha, beta = (row, proj) if big == t else (proj, row)
                add(t, alpha, ((c, beta),))

    initial = (td.root, ())
    states = {initial, *(s for s, _ in transitions)}
    states.update(c for outs in transitions.values() for o in outs for c in o)
    alphabet = {label(td.root, ()), *(lbl for _, lbl in transitions)}
    return TreeAutomaton(
        frozenset(states),
        frozenset(alphabet),
        {k: frozenset(v) for k, v in transitions.items()},
        initial,
    )


# ---------------------------------------------------------------------------
# Slice counting
# ---------------------------------------------------------------------------

def count_slice_exact(
    aut: TreeAutomaton,
    shape: TreeDecomposition,
    frontier_limit: int = 4_194_304,
) -> int:
    """Number of labelings of shape's ordered tree that the automaton accepts.

    Every label is a (node, symbol) pair, as build_automaton makes them, and a
    labeling puts only labels of node t at t; a label that names no node of
    shape raises ValueError. In postorder, node t's table maps each exact set
    of states accepting some labeling of t's subtree to the number of such
    labelings (empty sets are dropped), built from t's own rules and its
    children's tables, which it frees. frontier_limit bounds the summed size
    of the state sets built, so it bounds both time and memory."""
    nodes = range(shape.n_nodes)
    for lbl in aut.alphabet:
        if not (isinstance(lbl, tuple) and len(lbl) == 2 and lbl[0] in nodes):
            raise ValueError(f"label {lbl!r} names no node of the decomposition")
    leaves, unary, binary = ([{} for _ in nodes] for _ in range(3))
    for (s, lbl), outs in aut.transitions.items():
        t = lbl[0]
        for o in outs:
            if not o:
                leaves[t].setdefault(lbl, set()).add(s)
            elif len(o) == 1:
                unary[t].setdefault(o[0], {}).setdefault(lbl, set()).add(s)
            else:
                binary[t].setdefault(o[0], {}).setdefault(lbl, []).append((s, o[1]))

    tables: dict[int, dict[frozenset, int]] = {}
    built = 0
    for t in shape.postorder():
        below = [tables.pop(c) for c in shape.children[t]]
        here = tables[t] = {}
        for ss, cnt in _label_groups(below, leaves[t], unary[t], binary[t]):
            key = frozenset(ss)
            built += len(key)
            if built > frontier_limit:
                raise LimitExceededError(
                    f"slice DP built more than {frontier_limit} state-set "
                    f"entries at decomposition node {t}"
                )
            here[key] = here.get(key, 0) + cnt
    return sum(cnt for ss, cnt in tables[shape.root].items() if aut.initial in ss)


def _label_groups(below: list, leaves: dict, unary: dict, binary: dict):
    """(states, count) per label and per choice of one set per child table."""
    if not below:
        for ss in leaves.values():
            yield ss, 1
    elif len(below) == 1:
        for s1, cnt in below[0].items():
            ups: dict = {}
            for c1 in s1:
                for lbl, ss in unary.get(c1, {}).items():
                    ups.setdefault(lbl, set()).update(ss)
            for ss in ups.values():
                yield ss, cnt
    elif len(below) == 2:
        for s1, cnt1 in below[0].items():
            pairs: dict = {}
            for c1 in s1:
                for lbl, lst in binary.get(c1, {}).items():
                    pairs.setdefault(lbl, []).extend(lst)
            for s2, cnt2 in below[1].items() if pairs else ():
                for lst in pairs.values():
                    up = {s for s, c2 in lst if c2 in s2}
                    if up:
                        yield up, cnt1 * cnt2


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

class FhwCount(NamedTuple):
    """The answer count, and the fhw of the decomposition it was counted on."""

    count: int
    fhw: Fraction
    exact: bool


def fhw_decomposition(
    h: Hypergraph, vertex_limit: int
) -> tuple[Fraction, TreeDecomposition, bool]:
    """(width, decomposition, exact): the exact fractional hypertreewidth
    search when h has at most vertex_limit vertices, otherwise the min-fill
    heuristic's decomposition and its fractional hypertreewidth."""
    if len(h.vertices) <= vertex_limit:
        width, td = fhw_exact_small(h, vertex_limit)
        return width, td, True
    _, td = treewidth_heuristic(h)
    return fhw_of_td(h, td), td, False


def count_answers_fhw_pipeline(
    q: Query,
    d: Database,
    fhw_limit: Fraction | None = None,
    state_limit: int | None = 8_192,
    exact_width_vertex_limit: int = 8,
    frontier_limit: int = 4_194_304,
) -> FhwCount:
    """Exact answer count of a plain conjunctive query via the automaton.

    Decomposes the query hypergraph with fhw_decomposition, refuses
    instances over fhw_limit when one is set, and counts the slice of the
    automaton built on the nice decomposition. All limits surface as
    LimitExceededError.
    """
    if not q.is_plain_cq():
        raise UnsupportedQueryError("the decomposition pipeline needs a plain CQ")
    validate_pair(q, d)
    h = build_hypergraph(q)
    width, td, exact = fhw_decomposition(h, exact_width_vertex_limit)
    if fhw_limit is not None and width > fhw_limit:
        raise LimitExceededError(
            f"fractional hypertreewidth {width} exceeds the limit {fhw_limit}"
        )
    ntd = make_nice(h, td)
    aut = build_automaton(q, d, ntd, state_limit)
    count = count_slice_exact(aut, ntd, frontier_limit)
    return FhwCount(count, width, exact)
