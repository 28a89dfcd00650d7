"""Tree automata for parsimonious answer counting of plain conjunctive queries.

A nice tree decomposition of the query turns the database into an automaton
over binary labeled trees. Each label is a (node, symbol) pair, so the
accepted trees have the decomposition's shape, and their labelings are in
bijection with the answers. Node t's states are the rows of its bag table
(sol_bag, a join over the atoms), and a row's label is its free values. The
fhw pipeline counts the automaton along the decomposition with one table per
node (_node_tables, _count_masks). Each state set it meets holds rows of one
label, which sit next to each other in the table, so it is an integer
bitmask over that run of rows, one bit per row. A forget node keeps, per row
of t, the mask of child rows that agree with it, so it builds a set with one
AND per row of t's label. build_automaton collects the same transitions into
a TreeAutomaton, the construction as stated, and count_slice_exact counts
any TreeAutomaton by the plain DP over frozensets of states; both DPs count
the same state-set entries against frontier_limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import contains, itemgetter
from typing import NamedTuple

from .errors import (
    DecompositionError,
    LimitExceededError,
    QueryValidationError,
    UnsupportedQueryError,
)
from .qmodel import Database, Query, build_hypergraph, validate_pair
from .widths import (
    FHW_EXACT_VERTEX_LIMIT,
    Hypergraph,
    TreeDecomposition,
    _bits,
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


class _NodeTable(NamedTuple):
    """A node's states, as the rows of its bag table, and its transitions.

    Nodes with the same bag share rows, so a join node and its children
    number their rows alike. A row's label is its free values, and rows with
    equal labels are contiguous. A state set holds rows of one label, so it
    is a pair (base, mask), base being the label's first row: row base + k is
    in it when bit k of mask is set.
    - At an introduce node, up[j] lists the (base, mask) parts of the rows
      that agree with the child's row j.
    - At a forget node, the rows of one child label agree with rows of one
      label of t: forget maps the child label's base b to (t's base, {k:
      mask of the child rows b + i that agree with t's row base + k}).
    - At a leaf or join node both are None, and each row passes itself to
      every child."""

    rows: list[tuple]
    up: list[list[tuple[int, int]]] | None
    forget: dict[int, tuple[int, dict[int, int]]] | None


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
    with the answers of the plain conjunctive query: node t's states and
    labels are (t, row of t's bag table) and (t, that row's free values)."""
    if not q.is_plain_cq():
        raise UnsupportedQueryError("the automaton construction needs a plain CQ")
    validate_pair(q, d)
    if not td.is_nice():
        raise DecompositionError("decomposition must be nice")
    if not is_valid_td(build_hypergraph(q), td):
        raise DecompositionError("decomposition is not valid for the query hypergraph")
    initial = (td.root, ())  # the root's empty row, and also its one label
    states, alphabet, transitions = {initial}, {initial}, {}
    free = set(q.free_vars)
    tables = _node_tables(q, d, td, state_limit)
    for t, (rows, up, forget) in enumerate(tables):
        kids = td.children[t]
        at = [i for i, x in enumerate(sorted(td.bags[t], key=_vkey)) if x in free]
        below = tables[kids[0]].rows if kids else []
        if forget is not None:
            moves = [
                (tb + k, ((kids[0], below[b + i]),))
                for b, (tb, parts) in forget.items()
                for k, m in parts.items()
                for i in _bits(m)
            ]
        elif up is not None:
            moves = [
                (b + i, ((kids[0], below[j]),))
                for j, parts in enumerate(up)
                for b, m in parts
                for i in _bits(m)
            ]
        else:
            moves = [(i, tuple((k, row) for k in kids)) for i, row in enumerate(rows)]
        for i, kid_states in moves:
            s, lbl = (t, rows[i]), (t, tuple(rows[i][k] for k in at))
            states.add(s)
            states.update(kid_states)
            alphabet.add(lbl)
            transitions.setdefault((s, lbl), set()).add(kid_states)
    frozen = {k: frozenset(v) for k, v in transitions.items()}
    return TreeAutomaton(frozenset(states), frozenset(alphabet), frozen, initial)


def sol_bag(
    q: Query,
    d: Database,
    bag: tuple[str, ...],
    indexes: dict | None = None,
    limit: int | None = None,
) -> set[tuple]:
    """Partial solutions on the given variables of a plain conjunctive query:
    assignments extendable, per atom individually, to a full satisfying
    assignment of that atom. Output tuples align with the given bag order.

    A generic join: rows grow one bag variable at a time, in bag order, and
    each atom that holds the new variable narrows its values given the row's
    values on the atom's earlier bag variables. Every intermediate table is
    a set of partial solutions on a prefix of the bag, so none holds more
    than N^rho*(bag) rows, N being the largest relation (the AGM bound).

    The fact indexes are built on first use and kept in `indexes` when one
    is given, so the bag tables of one run over d can share them. With a
    limit, a table of more than limit rows raises LimitExceededError, and
    the last step, which makes the table itself, stops as soon as it does."""
    if not q.is_plain_cq():
        raise UnsupportedQueryError("sol_bag is defined for plain conjunctive queries")
    validate_pair(q, d)
    bag = tuple(bag)
    vars_set = set(q.variables)
    for v in bag:
        if v not in vars_set:
            raise QueryValidationError(f"bag variable {v!r} not in the query")
    if len(set(bag)) != len(bag):
        raise QueryValidationError("bag contains a duplicate variable")
    if indexes is None:
        indexes = {}

    def fact_index(sym, pairs, keys, col) -> dict[tuple, set]:
        """Map from the values at columns keys to those at column col, over
        the facts of sym equal at each position pair."""
        key = (sym, pairs, keys, col)
        got = indexes.get(key)
        if got is None:
            got = indexes[key] = {}
            facts = d.relations[sym]
            if pairs:
                facts = [t for t in facts if all(t[i] == t[j] for i, j in pairs)]
            for t in facts:
                got.setdefault(tuple(t[j] for j in keys), set()).add(t[col])
        return got

    # steps[k]: per atom holding bag[k], the bag positions of the atom's
    # earlier bag variables and a map from their values to those of bag[k]
    steps: list[list[tuple[tuple[int, ...], dict]]] = [[] for _ in bag]
    for sym, args in q.predicates:
        first = {v: args.index(v) for v in args}
        pairs = tuple((i, first[v]) for i, v in enumerate(args) if first[v] != i)
        at = [k for k, v in enumerate(bag) if v in first]
        cols = [first[bag[k]] for k in at]
        # An index keyed on no column is empty exactly when no fact matches
        # the atom, which then has no solution, whether it meets the bag or not.
        if not fact_index(sym, pairs, (), cols[0] if cols else 0):
            return set()
        for n, k in enumerate(at):
            steps[k].append(
                (tuple(at[:n]), fact_index(sym, pairs, tuple(cols[:n]), cols[n]))
            )

    # A row agrees with some fact of each atom on the atom's earlier bag
    # variables, so no lookup below misses. Rows never repeat, so the last
    # step makes the table itself, and with a limit it stops one row past it.
    rows: list[tuple] = [()]
    for n, atoms in enumerate(steps, 1):
        grown = (
            row + (v,)
            for row in rows
            for v in set.intersection(
                *(index[tuple(row[i] for i in prev)] for prev, index in atoms)
            )
        )
        last = n == len(steps) and limit is not None
        rows = list(itertools.islice(grown, limit + 1) if last else grown)
    if limit is not None and len(rows) > limit:
        raise LimitExceededError(
            f"bag {list(bag)} has more than {limit} partial solutions, limit is {limit}"
        )
    return set(rows)


# STATE_LIMIT caps the largest bag table of the fhw automaton; the last join
# step of a bag table stops one row past it. Largest table: CPU time of the
# bag tables and their transitions (min of 3), max RSS, random 6-regular
# graphs, Python 3.11, 2-vCPU Xeon:
#   triangle  384: 0.01 s 21 MB    8,190: 0.09 s 30 MB    32,772: 0.61 s  61 MB
#   4-cycle 8,100: 0.05 s 26 MB   65,536: 0.41 s 48 MB   262,144: 1.55 s 120 MB
#   8-path  3,072: 0.07 s 30 MB    8,190: 0.23 s 53 MB    32,772: 1.63 s 279 MB
# 2**13 rows keeps each of these builds within about 0.25 s.
STATE_LIMIT = 8_192


def _node_tables(
    q: Query, d: Database, td: TreeDecomposition, state_limit: int | None
) -> list[_NodeTable]:
    """The automaton of the nice decomposition td, per node. Bag tables are
    made in node order, which fixes the bag that a state_limit error names,
    and all of them from one set of fact indexes."""
    free = set(q.free_vars)
    bag_order = [tuple(sorted(td.bags[t], key=_vkey)) for t in range(td.n_nodes)]
    # Per bag: rows, base, and each row's index once a node needs it.
    tables: dict[tuple, tuple[list, list, dict]] = {}
    indexes: dict = {}

    def sol(t: int) -> tuple[list, list, dict]:
        order = bag_order[t]
        got = tables.get(order)
        if got is None:
            rows = list(sol_bag(q, d, order, indexes, state_limit))
            at = [i for i, x in enumerate(order) if x in free]
            if not at:  # one label
                base = [0] * len(rows)
            elif len(at) == len(order):  # each row its own label
                base = list(range(len(rows)))
            else:
                groups, pick = {}, itemgetter(*at)
                for row in rows:
                    groups.setdefault(pick(row), []).append(row)
                rows, base = [], []
                for group in groups.values():
                    base += [len(rows)] * len(group)
                    rows += group
            got = tables[order] = (rows, base, {})
        return got

    out = []
    for t in range(td.n_nodes):
        kids = td.children[t]
        rows, base, _ = sol(t)
        up = forget = None
        # An empty table has no transitions; leaving its child's table to the
        # child's own node keeps the bag that a state_limit error names.
        if len(kids) == 1 and rows:
            # Introduce or forget x: one pass over the larger bag's rows, each
            # projected onto the smaller bag by dropping x. The projection is
            # a row there: sol_bag keeps exactly the assignments whose
            # restriction to each atom extends to a fact, and dropping x
            # keeps that.
            c = kids[0]
            big, small = (t, c) if td.bags[c] < td.bags[t] else (c, t)
            (x,) = td.bags[big] - td.bags[small]
            k = bag_order[big].index(x)
            small_rows, _, pos = sol(small)
            if not pos:
                pos.update((row, i) for i, row in enumerate(small_rows))
            big_rows, big_base, _ = sol(big)
            hits = [pos[row[:k] + row[k + 1 :]] for row in big_rows]
            if big == t:
                # Rows of one label are contiguous, so the rows that go up
                # from one child row meet t's label groups one after another.
                up = [[] for _ in small_rows]
                for i, j in enumerate(hits):
                    b, parts = base[i], up[j]
                    if parts and parts[-1][0] == b:
                        parts[-1] = (b, parts[-1][1] | 1 << (i - b))
                    else:
                        parts.append((b, 1 << (i - b)))
            else:
                # All rows of one child label project onto rows of one label
                # of t: when x is free, its value is all that t's label drops.
                forget = {}
                for i, j in enumerate(hits):
                    b = big_base[i]
                    tb, parts = forget.setdefault(b, (base[j], {}))
                    parts[j - tb] = parts.get(j - tb, 0) | 1 << (i - b)
        out.append(_NodeTable(rows, up, forget))
    return out


# ---------------------------------------------------------------------------
# Slice counting
# ---------------------------------------------------------------------------

# FRONTIER_LIMIT caps the summed size of the state sets the fhw slice DP builds;
# 2**22 keeps it within about 1.5 s. Entries: slice DP CPU time (min of 3),
# max RSS, 8-paths with free endpoints over random 6-regular graphs, Python
# 3.11, 2-vCPU Xeon:
#     256 vertices    790,349: 0.15 s   23 MB
#     512 vertices  2,706,434: 0.53 s   27 MB
#   1,024 vertices 13,492,829: 2.4 s    38 MB (refused at 2**22 after 1.3 s)
FRONTIER_LIMIT = 4_194_304


def _count_masks(
    tables: list[_NodeTable], shape: TreeDecomposition, frontier_limit: int
) -> int:
    """Accepted labelings of shape, the decomposition tables were made on.
    In postorder, node t's table maps each exact set of t's states accepting
    some labeling of t's subtree, a (base, mask) pair of one label, to the
    number of such labelings (empty sets are dropped), and pops its
    children's tables. Tables are kept as base -> mask -> count.
    - a leaf's one set is its one row, as its bag is empty;
    - an introduce node ORs up[j] over the rows j of each child set, per base;
    - a forget node keeps t's row base + k when its mask of child rows meets
      the child set: one AND per row of t's label, where walking the set's
      bits would take one step per child row;
    - a join node ANDs each left set with each right set of its label, as
      the sets of two different labels meet in no row.
    frontier_limit bounds the summed size of the sets built, as in
    count_slice_exact, so the two count the same entries."""

    def reach(b: int, mask: int, up: list[list[tuple[int, int]]]):
        got: dict[int, int] = {}
        for parts in [up[b + k] for k in _bits(mask)]:
            for b2, m in parts:
                got[b2] = got.get(b2, 0) | m
        return got.items()

    counts: dict[int, dict[int, dict[int, int]]] = {}
    built = 0
    for t in shape.postorder():
        below = [counts.pop(c) for c in shape.children[t]]
        rows, up, forget = tables[t]
        here = counts[t] = {}
        if not rows:
            continue
        if not below:
            sets = [((0, 1), 1)]
        elif forget is not None:
            sets = (
                ((tb, sum(1 << k for k, m in parts.items() if m & mask)), cnt)
                for b, by_mask in below[0].items()
                for tb, parts in [forget[b]]
                for mask, cnt in by_mask.items()
            )
        elif up is not None:
            sets = (
                (key, cnt)
                for b, by_mask in below[0].items()
                for mask, cnt in by_mask.items()
                for key in reach(b, mask, up)
            )
        else:
            left, right = below
            sets = (
                ((b, m1 & m2), cnt1 * cnt2)
                for b, by_mask in left.items()
                if b in right
                for m1, cnt1 in by_mask.items()
                for m2, cnt2 in right[b].items()
            )
        for (b, mask), cnt in sets:
            built += mask.bit_count()
            if built > frontier_limit:
                raise LimitExceededError(
                    f"slice DP built more than {frontier_limit} state-set "
                    f"entries at decomposition node {t}"
                )
            if mask:
                by_mask = here.setdefault(b, {})
                by_mask[mask] = by_mask.get(mask, 0) + cnt
    # The root's bag is empty: its one row, (), is row 0.
    return sum(cnt for mask, cnt in counts[shape.root].get(0, {}).items() if mask & 1)


def count_slice_exact(
    aut: TreeAutomaton,
    shape: TreeDecomposition,
    frontier_limit: int = FRONTIER_LIMIT,
) -> int:
    """Number of labelings of shape's ordered tree that the automaton accepts.
    Every label is a (node, symbol) pair, as build_automaton makes them, and a
    labeling puts only labels of node t at t; a label that names no node of
    shape raises ValueError. In postorder, node t's table maps each exact set
    of states accepting some labeling of t's subtree to the number of such
    labelings (empty sets are dropped), and pops its children's tables. For
    one set from each child's table and one label of t, the new set is the
    states with an outcome as long as t's child list whose i-th state is in
    the i-th set, so a node with more than two children accepts nothing.
    frontier_limit bounds the summed size of the sets built, so it bounds time
    and memory."""
    nodes = range(shape.n_nodes)
    for lbl in aut.alphabet:
        if not (isinstance(lbl, tuple) and len(lbl) == 2 and lbl[0] in nodes):
            raise ValueError(f"label {lbl!r} names no node of the decomposition")
    # Per node t, label -> [(state, outcome)], one outcome state per child.
    moves: list[dict] = [{} for _ in nodes]
    for (s, lbl), outs in aut.transitions.items():
        t = lbl[0]
        for o in outs:
            if len(o) == len(shape.children[t]):
                moves[t].setdefault(lbl, []).append((s, o))
    tables: dict[int, dict[frozenset, int]] = {}
    built = 0
    for t in shape.postorder():
        below = [tables.pop(c).items() for c in shape.children[t]]
        here = tables[t] = {}
        for picks in itertools.product(*below):
            sets = [ss for ss, _ in picks]
            cnt = math.prod(n for _, n in picks)
            for pairs in moves[t].values():
                key = frozenset([s for s, o in pairs if all(map(contains, sets, o))])
                built += len(key)
                if built > frontier_limit:
                    raise LimitExceededError(
                        f"slice DP built more than {frontier_limit} state-set "
                        f"entries at decomposition node {t}"
                    )
                if key:
                    here[key] = here.get(key, 0) + cnt
    return sum(cnt for ss, cnt in tables[shape.root].items() if aut.initial in ss)


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
    state_limit: int | None = STATE_LIMIT,
    exact_width_vertex_limit: int = FHW_EXACT_VERTEX_LIMIT,
    frontier_limit: int = FRONTIER_LIMIT,
) -> FhwCount:
    """Exact answer count of a plain conjunctive query via the automaton.

    Decomposes the query hypergraph with fhw_decomposition, refuses
    instances over fhw_limit when one is set, and counts the automaton's
    bitmask tables on the nice decomposition, which it neither builds as a
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
    count = _count_masks(_node_tables(q, d, ntd, state_limit), ntd, frontier_limit)
    return FhwCount(count, width, exact)
