"""Code that only the tests use, kept out of the package."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from cqcount import OracleStats, TreeAutomaton, edgefree_restricted
from cqcount.reduction import (
    ImplicitAnswerHypergraph,
    _colour_classes,
    clique_repetitions,
)
from cqcount.widths import _postorder


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
            colours = ev.red_masks([_colour_classes(rng, k, width) for k in sizes])
        if stats is not None:
            stats.colourings_sampled += 1
            stats.hom_calls += 1
        if search(colours) is not None:
            return False
    return True


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
    """The per-layer values of an interval box of the halving counters."""
    return [ih.domain[lo:hi] for lo, hi in box]


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
