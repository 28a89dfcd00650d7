"""Tree automata: acceptance, slice counting, parsimonious query counting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cqcount import (
    Database,
    LabeledTree,
    LimitExceededError,
    TreeAutomaton,
    UnsupportedQueryError,
    accepts,
    build_automaton,
    build_hypergraph,
    count_answers_bruteforce,
    count_answers_fhw_pipeline,
    count_slice_exact,
    fhw_exact_small,
    make_nice,
    parse_query,
)
from cqcount.automata import automaton_to_doc
from cqcount.widths import _vkey

from conftest import plain_cq_instance


def tree_of(shape, labels_by_node=None):
    """Build a LabeledTree from nested (label, children...) tuples."""
    children: list[tuple[int, ...]] = []
    labels: list = []

    def walk(node) -> int:
        lbl, *kids = node
        ids = tuple(walk(k) for k in kids)
        children.append(ids)
        labels.append(lbl)
        return len(labels) - 1

    root = walk(shape)
    return LabeledTree.make(root, children, labels)


def enumerate_trees(alphabet, n: int):
    """Every labeled tree with exactly n nodes (ordered, <=2 children)."""
    if n == 0:
        return
    if n == 1:
        for lbl in alphabet:
            yield (lbl,)
        return
    for lbl in alphabet:
        for sub in enumerate_trees(alphabet, n - 1):
            yield (lbl, sub)
        for n1 in range(1, n - 1):
            for left in enumerate_trees(alphabet, n1):
                for right in enumerate_trees(alphabet, n - 1 - n1):
                    yield (lbl, left, right)


def count_slice_oracle(aut: TreeAutomaton, n: int) -> int:
    alphabet = sorted(aut.alphabet, key=repr)
    return sum(
        1 for shape in enumerate_trees(alphabet, n) if accepts(aut, tree_of(shape))
    )


# ---------------------------------------------------------------------------
# Trees and automata plumbing
# ---------------------------------------------------------------------------

def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledTree.make(0, [(1, 2, 3), (), (), ()], "abcd")
    with pytest.raises(ValueError):
        LabeledTree.make(0, [(1,), (0,)], "ab")  # cycle
    t = tree_of(("a", ("b",), ("c",)))
    assert t.n_nodes == 3
    assert [t.labels[i] for i in t.postorder()] == ["b", "c", "a"]


def test_automaton_validation():
    with pytest.raises(ValueError):
        TreeAutomaton.make({"s"}, {"a"}, {("t", "a"): {()}}, "s")
    with pytest.raises(ValueError):
        TreeAutomaton.make({"s"}, {"a"}, {("s", "b"): {()}}, "s")
    with pytest.raises(ValueError):
        TreeAutomaton.make({"s"}, {"a"}, {}, "t")


PARITY = TreeAutomaton.make(
    states={"even", "odd"},
    alphabet={"a", "b"},
    transitions={
        # Counts 'b' labels mod 2 along every path of a unary tree.
        ("even", "a"): {(), ("even",)},
        ("even", "b"): {("odd",)},
        ("odd", "b"): {(), ("odd",)},
        ("odd", "a"): {("odd",)},
    },
    initial="even",
)


def test_accepts_hand_cases():
    assert accepts(PARITY, tree_of(("a",)))
    assert not accepts(PARITY, tree_of(("b",)))
    assert accepts(PARITY, tree_of(("b", ("b",))))
    assert accepts(PARITY, tree_of(("a", ("b", ("b",)))))
    assert not accepts(PARITY, tree_of(("a", ("a",), ("a",))))  # no binary rules


def test_accepts_unknown_label_rejects():
    assert not accepts(PARITY, tree_of(("z",)))


def test_accepts_monotone_under_transition_addition():
    rng = random.Random(3)
    states = ["s0", "s1", "s2"]
    alphabet = ["a", "b"]
    for _ in range(40):
        trans: dict = {}
        for s in states:
            for lbl in alphabet:
                outs = set()
                for _ in range(rng.randint(0, 2)):
                    k = rng.randint(0, 2)
                    outs.add(tuple(rng.choice(states) for _ in range(k)))
                if outs:
                    trans[(s, lbl)] = outs
        aut = TreeAutomaton.make(states, alphabet, trans, "s0")
        trees = [
            tree_of(shape)
            for n in (1, 2, 3)
            for shape in enumerate_trees(alphabet, n)
        ]
        accepted = [accepts(aut, t) for t in trees]
        s, lbl = rng.choice(states), rng.choice(alphabet)
        extra = tuple(rng.choice(states) for _ in range(rng.randint(0, 2)))
        bigger = {k: set(v) for k, v in trans.items()}
        bigger.setdefault((s, lbl), set()).add(extra)
        aut2 = TreeAutomaton.make(states, alphabet, bigger, "s0")
        for t, was in zip(trees, accepted):
            if was:
                assert accepts(aut2, t)


# ---------------------------------------------------------------------------
# Slice counting
# ---------------------------------------------------------------------------

def test_count_slice_matches_exhaustive_on_hand_automaton():
    for n in range(1, 6):
        assert count_slice_exact(PARITY, n) == count_slice_oracle(PARITY, n)


def test_count_slice_empty_transitions():
    aut = TreeAutomaton.make({"s"}, {"a"}, {}, "s")
    for n in range(1, 5):
        assert count_slice_exact(aut, n) == 0


def test_count_slice_node_limit():
    with pytest.raises(LimitExceededError):
        count_slice_exact(PARITY, 50, node_limit=10)


def _nice_td_for(q):
    h = build_hypergraph(q)
    _, td = fhw_exact_small(h)
    return make_nice(h, td)


def test_built_automaton_slices_match_exhaustive():
    q = parse_query("phi(x) :- U(x)")
    d = Database.make([0, 1], {"U": (1, [(0,), (1,)])})
    ntd = _nice_td_for(q)
    aut = build_automaton(q, d, ntd)
    for n in range(1, ntd.n_nodes + 2):
        assert count_slice_exact(aut, n) == count_slice_oracle(aut, n)
    assert count_slice_exact(aut, ntd.n_nodes) == 2


def test_built_automaton_rejects_other_sizes():
    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([0, 1], {"E": (2, [(0, 1), (1, 0)])})
    ntd = _nice_td_for(q)
    aut = build_automaton(q, d, ntd)
    assert count_slice_exact(aut, ntd.n_nodes) == 2
    for n in range(1, ntd.n_nodes + 3):
        if n != ntd.n_nodes:
            assert count_slice_exact(aut, n) == 0


def test_answer_trees_are_accepted():
    # Every brute-force answer yields an accepted tree labeled with its
    # free-variable projections along the decomposition.
    for seed in range(25):
        q, d = plain_cq_instance(seed)
        ntd = _nice_td_for(q)
        aut = build_automaton(q, d, ntd)
        free = set(q.free_vars)
        free_pos = {v: i for i, v in enumerate(q.free_vars)}
        from cqcount import enumerate_answers_bruteforce

        for answer in enumerate_answers_bruteforce(q, d):
            labels = []
            for t in range(ntd.n_nodes):
                order = sorted(ntd.bags[t], key=_vkey)
                labels.append(
                    (t, tuple(answer[free_pos[x]] for x in order if x in free))
                )
            tree = LabeledTree.make(ntd.root, ntd.children, labels)
            assert accepts(aut, tree), (seed, answer)


def test_unsatisfiable_query_counts_zero():
    q = parse_query("phi(x) :- U(x), W(x)")
    d = Database.make([0, 1], {"U": (1, [(0,)]), "W": (1, [(1,)])})
    assert count_answers_fhw_pipeline(q, d).count == 0


def test_automaton_requires_plain_cq():
    q = parse_query("phi(x) :- E(x,y), x != y")
    d = Database.make([0], {"E": (2, [])})
    with pytest.raises(UnsupportedQueryError):
        count_answers_fhw_pipeline(q, d)


def test_automaton_requires_nice_td():
    from cqcount import DecompositionError, treewidth_exact

    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([0], {"E": (2, [])})
    h = build_hypergraph(q)
    _, td = treewidth_exact(h)
    with pytest.raises(DecompositionError):
        build_automaton(q, d, td)


def test_state_limit_enforced():
    q = parse_query("phi(x,y) :- E(x,y)")
    d = Database.make(
        list(range(5)),
        {"E": (2, [(i, j) for i in range(5) for j in range(5)])},
    )
    with pytest.raises(LimitExceededError):
        count_answers_fhw_pipeline(q, d, state_limit=3)


def test_fhw_limit_enforced():
    q = parse_query("phi(x,y,z) :- E(x,y), E(y,z), E(z,x)")
    d = Database.make([0], {"E": (2, [])})
    with pytest.raises(LimitExceededError):
        count_answers_fhw_pipeline(q, d, fhw_limit=Fraction(1))


def test_pipeline_triangle_query():
    q = parse_query("phi(x,y,z) :- E(x,y), E(y,z), E(z,x)")
    d = Database.make(
        [0, 1, 2, 3],
        {"E": (2, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0), (0, 3)])},
    )
    assert count_answers_fhw_pipeline(q, d, state_limit=None).count == (
        count_answers_bruteforce(q, d)
    )


def test_pipeline_matches_bruteforce_small_corpus():
    for seed in range(30):
        q, d = plain_cq_instance(seed)
        got = count_answers_fhw_pipeline(q, d, state_limit=None).count
        assert got == count_answers_bruteforce(q, d), seed


def test_automaton_doc_golden():
    q = parse_query("phi(x) :- U(x)")
    d = Database.make([0, 1], {"U": (1, [(0,)])})
    ntd = _nice_td_for(q)
    doc = automaton_to_doc(build_automaton(q, d, ntd))
    assert doc == GOLDEN_DOC


# Nice decomposition of the one-vertex hypergraph: empty root, introduce x,
# empty leaf. One chain of states per surviving partial solution (only 0
# satisfies U), each consumed in order, leaf-accepting at the bottom.
GOLDEN_DOC: dict = {
    "states": [[0, []], [1, [0]], [2, []]],
    "alphabet": [[0, []], [1, [0]], [2, []]],
    "transitions": [
        [[0, []], [0, []], [[1, [0]]]],
        [[1, [0]], [1, [0]], [[2, []]]],
        [[2, []], [2, []], []],
    ],
    "initial": [0, []],
}
