"""Tree automata for parsimonious answer counting of plain conjunctive queries.

A nice tree decomposition of the query turns the database into a
nondeterministic automaton over binary labeled trees whose accepted trees
with as many nodes as the decomposition are in bijection with the query's
answers: count the slice, count the answers.
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
    _postorder,
    _vkey,
    fhw_exact_small,
    fhw_of_td,
    is_valid_td,
    make_nice,
    treewidth_heuristic,
)

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


# ---------------------------------------------------------------------------
# Construction from a query, a database and a nice decomposition
# ---------------------------------------------------------------------------

def build_automaton(
    q: Query,
    d: Database,
    td: TreeDecomposition,
    state_limit: int | None = None,
) -> TreeAutomaton:
    """Automaton whose accepted trees with td.n_nodes nodes correspond one to
    one with the answers of the plain conjunctive query."""
    if not q.is_plain_cq():
        raise UnsupportedQueryError("the automaton construction needs a plain CQ")
    validate_pair(q, d)
    h = build_hypergraph(q)
    if not td.is_nice():
        raise DecompositionError("decomposition must be nice")
    if not is_valid_td(h, td):
        raise DecompositionError("decomposition is not valid for the query hypergraph")

    free = set(q.free_vars)
    bag_order = [tuple(sorted(td.bags[t], key=_vkey)) for t in range(td.n_nodes)]
    sols: dict[frozenset, set[tuple]] = {}

    def sol(t: int) -> set[tuple]:
        bag = td.bags[t]
        got = sols.get(bag)
        if got is None:
            got = sol_bag(q, d, tuple(sorted(bag, key=_vkey)))
            sols[bag] = got
            if state_limit is not None and len(got) > state_limit:
                raise LimitExceededError(
                    f"bag {sorted(bag, key=_vkey)} has {len(got)} partial solutions, "
                    f"limit is {state_limit}"
                )
        return got

    def label(t: int, alpha: tuple):
        order = bag_order[t]
        return (t, tuple(v for x, v in zip(order, alpha) if x in free))

    states = set()
    alphabet = set()
    transitions: dict[tuple, set] = {}

    def add(s, lbl, outcome) -> None:
        states.add(s)
        alphabet.add(lbl)
        transitions.setdefault((s, lbl), set()).add(outcome)
        for c in outcome:
            states.add(c)

    for t in range(td.n_nodes):
        kids = td.children[t]
        order = bag_order[t]
        for alpha in sol(t):
            s = (t, alpha)
            lbl = label(t, alpha)
            if not kids:
                add(s, lbl, ())
            elif len(kids) == 2:
                add(s, lbl, ((kids[0], alpha), (kids[1], alpha)))
            else:
                c = kids[0]
                corder = bag_order[c]
                if td.bags[c] < td.bags[t]:  # introduce
                    keep = dict(zip(order, alpha))
                    child_alpha = tuple(keep[x] for x in corder)
                    if child_alpha in sol(c):
                        add(s, lbl, ((c, child_alpha),))
                else:  # forget
                    keep_idx = [i for i, x in enumerate(corder) if x in td.bags[t]]
                    for child_alpha in sol(c):
                        if tuple(child_alpha[i] for i in keep_idx) == alpha:
                            add(s, lbl, ((c, child_alpha),))

    initial = (td.root, ())
    states.add(initial)
    alphabet.add(label(td.root, ()))
    return TreeAutomaton.make(
        states, alphabet, {k: frozenset(v) for k, v in transitions.items()}, initial
    )


# ---------------------------------------------------------------------------
# Slice counting
# ---------------------------------------------------------------------------

def count_slice_exact(
    aut: TreeAutomaton,
    n_nodes: int,
    node_limit: int = 10_000,
    frontier_limit: int = 2_000_000,
) -> int:
    """Number of distinct labeled trees with exactly n_nodes nodes that the
    automaton accepts. Dynamic program over (tree size, exact set of states
    accepting the tree); empty state sets are pruned since no accepted tree
    can contain such a subtree."""
    if n_nodes < 0:
        raise ValueError("n_nodes must be nonnegative")
    if n_nodes > node_limit:
        raise LimitExceededError(
            f"slice size {n_nodes} exceeds the node limit {node_limit}"
        )
    if n_nodes == 0:
        return 0

    leaf_by_label: dict = {}
    unary_by_child: dict = {}
    binary_by_left: dict = {}
    for (s, lbl), outs in aut.transitions.items():
        for o in outs:
            if len(o) == 0:
                leaf_by_label.setdefault(lbl, set()).add(s)
            elif len(o) == 1:
                unary_by_child.setdefault(o[0], {}).setdefault(lbl, set()).add(s)
            else:
                binary_by_left.setdefault(o[0], {}).setdefault(lbl, []).append(
                    (s, o[1])
                )

    layers: list[dict[frozenset, int]] = [dict() for _ in range(n_nodes + 1)]
    total_entries = 0
    for lbl, ss in leaf_by_label.items():
        key = frozenset(ss)
        layers[1][key] = layers[1].get(key, 0) + 1
        total_entries += 1

    for n in range(2, n_nodes + 1):
        here = layers[n]
        # one child with n-1 nodes
        for s1, cnt in layers[n - 1].items():
            ups: dict = {}
            for c1 in s1:
                for lbl, ss in unary_by_child.get(c1, {}).items():
                    ups.setdefault(lbl, set()).update(ss)
            for lbl, ss in ups.items():
                key = frozenset(ss)
                here[key] = here.get(key, 0) + cnt
        # two ordered children with n1 + n2 = n - 1 nodes
        for n1 in range(1, n - 1):
            n2 = n - 1 - n1
            for s1, cnt1 in layers[n1].items():
                pairs: dict = {}
                for c1 in s1:
                    for lbl, lst in binary_by_left.get(c1, {}).items():
                        pairs.setdefault(lbl, []).extend(lst)
                if not pairs:
                    continue
                for s2, cnt2 in layers[n2].items():
                    for lbl, lst in pairs.items():
                        up = {s for s, c2 in lst if c2 in s2}
                        if up:
                            key = frozenset(up)
                            here[key] = here.get(key, 0) + cnt1 * cnt2
        total_entries += len(here)
        if total_entries > frontier_limit:
            raise LimitExceededError(
                f"slice DP exceeded {frontier_limit} distinct state sets"
            )

    return sum(cnt for ss, cnt in layers[n_nodes].items() if aut.initial in ss)


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
    state_limit: int | None = 14,
    exact_width_vertex_limit: int = 8,
    node_limit: int = 10_000,
    frontier_limit: int = 2_000_000,
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
    count = count_slice_exact(aut, ntd.n_nodes, node_limit, frontier_limit)
    return FhwCount(count, width, exact)
