"""Tree automata for parsimonious answer counting of plain conjunctive queries.

A nice tree decomposition of the query turns the database into an automaton
over binary labeled trees. Each label is a (node, symbol) pair, so the
accepted trees have the decomposition's shape, and their labelings are in
bijection with the answers: count them along the decomposition, one table per
node from that node's own rules, all in one form that one DP step reads.
The fhw pipeline counts the rules as it emits them; build_automaton collects
them into a TreeAutomaton, which count_slice_exact counts by the same DP.
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


# A node's rules: first child state -> label -> [(state, second child state)],
# _NO marking a missing child, so leaf and unary rules read as join rules.
_NO = object()
_ALONE = {frozenset({_NO}): 1}


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
    initial = (td.root, ())  # the root's empty row, and also its one label
    states, alphabet, transitions = {initial}, {initial}, {}
    for rules in _node_rules(q, d, td, state_limit):
        for first, by_label in rules.items():
            for lbl, moves in by_label.items():
                alphabet.add(lbl)
                for s, second in moves:
                    kids = tuple(c for c in (first, second) if c is not _NO)
                    states.update((s, *kids))
                    transitions.setdefault((s, lbl), set()).add(kids)
    frozen = {k: frozenset(v) for k, v in transitions.items()}
    return TreeAutomaton(frozenset(states), frozenset(alphabet), frozen, initial)


def _node_rules(
    q: Query, d: Database, td: TreeDecomposition, state_limit: int | None
) -> list[dict]:
    """The automaton's rules, per node of td, in the DP's one form. Node t's
    states and labels are (t, row of t's bag table) and (t, row's free
    values). Bag tables are made in node order, which fixes the bag that a
    state_limit error names, and all of them from one set of fact indexes."""
    free = set(q.free_vars)
    bag_order = [tuple(sorted(td.bags[t], key=_vkey)) for t in range(td.n_nodes)]
    free_at = [[i for i, x in enumerate(b) if x in free] for b in bag_order]
    sols: dict[tuple, set[tuple]] = {}
    indexes: dict = {}

    def sol(t: int) -> set[tuple]:
        order = bag_order[t]
        got = sols.get(order)
        if got is None:
            got = sols[order] = sol_bag(q, d, order, indexes)
            if state_limit is not None and len(got) > state_limit:
                raise LimitExceededError(
                    f"bag {list(order)} has {len(got)} partial solutions, "
                    f"limit is {state_limit}"
                )
        return got

    out: list[dict] = [{} for _ in range(td.n_nodes)]

    def add(t: int, alpha: tuple, first=_NO, second=_NO) -> None:
        lbl = (t, tuple(alpha[i] for i in free_at[t]))
        out[t].setdefault(first, {}).setdefault(lbl, []).append(((t, alpha), second))

    for t in range(td.n_nodes):
        kids = td.children[t]
        rows = sol(t)
        # Leaf and join states pass their row to every child. An empty table
        # emits nothing; leaving its child's table to the child's own node
        # keeps the bag that a state_limit error names.
        if len(kids) != 1 or not rows:
            for alpha in rows:
                add(t, alpha, *((k, alpha) for k in kids))
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
                add(t, alpha, (c, beta))
    return out


# ---------------------------------------------------------------------------
# Slice counting
# ---------------------------------------------------------------------------

def count_slice_exact(
    aut: TreeAutomaton,
    shape: TreeDecomposition,
    frontier_limit: int = 4_194_304,
) -> int:
    """Number of labelings of shape's ordered tree that the automaton accepts,
    counted by _count_rules. Every label is a (node, symbol) pair, as
    build_automaton makes them, and a labeling puts only labels of node t at
    t; a label that names no node of shape raises ValueError."""
    nodes = range(shape.n_nodes)
    for lbl in aut.alphabet:
        if not (isinstance(lbl, tuple) and len(lbl) == 2 and lbl[0] in nodes):
            raise ValueError(f"label {lbl!r} names no node of the decomposition")
    rules: list[dict] = [{} for _ in nodes]
    for (s, lbl), outs in aut.transitions.items():
        for o in outs:
            first, second = (*o, _NO, _NO)[:2]
            rules[lbl[0]].setdefault(first, {}).setdefault(lbl, []).append((s, second))
    return _count_rules(rules, shape, aut.initial, frontier_limit)


def _count_rules(
    rules: list[dict], shape: TreeDecomposition, initial, frontier_limit: int
) -> int:
    """Labelings of shape accepted from initial, node t reading rules[t]. In
    postorder, node t's table maps each exact set of states accepting some
    labeling of t's subtree to the number of such labelings (empty sets are
    dropped), built from t's rules and its children's tables, which it frees;
    a missing child reads as the table _ALONE. frontier_limit bounds the
    summed size of the state sets built, so it bounds time and memory."""
    tables: dict[int, dict[frozenset, int]] = {}
    built = 0
    for t in shape.postorder():
        below = [tables.pop(c) for c in shape.children[t]]
        left, right = (*below, _ALONE, _ALONE)[:2]
        here = tables[t] = {}
        for s1, cnt1 in left.items():
            pairs: dict = {}
            for c1 in s1:
                for lbl, moves in rules[t].get(c1, {}).items():
                    pairs.setdefault(lbl, []).extend(moves)
            for s2, cnt2 in right.items() if pairs else ():
                for moves in pairs.values():
                    key = frozenset([s for s, c2 in moves if c2 in s2])
                    built += len(key)
                    if built > frontier_limit:
                        raise LimitExceededError(
                            f"slice DP built more than {frontier_limit} state-set "
                            f"entries at decomposition node {t}"
                        )
                    if key:
                        here[key] = here.get(key, 0) + cnt1 * cnt2
    return sum(cnt for ss, cnt in tables[shape.root].items() if initial in ss)


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
    instances over fhw_limit when one is set, and counts the automaton's
    rules on the nice decomposition, which it neither builds as a
    TreeAutomaton nor re-validates. All limits surface as LimitExceededError.
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
    rules = _node_rules(q, d, ntd, state_limit)
    count = _count_rules(rules, ntd, (ntd.root, ()), frontier_limit)
    return FhwCount(count, width, exact)
