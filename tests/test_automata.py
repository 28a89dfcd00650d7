"""Tree automata: acceptance, slice counting, parsimonious query counting."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from cqcount import (
    Database,
    LimitExceededError,
    TreeAutomaton,
    TreeDecomposition,
    UnsupportedQueryError,
    build_automaton,
    build_hypergraph,
    count_answers_bruteforce,
    count_answers_fhw_pipeline,
    count_slice_exact,
    fhw_exact_small,
    make_nice,
    parse_query,
)
from cqcount.automata import fhw_decomposition
from cqcount.widths import _vkey

from conftest import plain_cq_instance
from helpers import LabeledTree, accepts, automaton_to_doc, make_automaton


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
        make_automaton({"s"}, {"a"}, {("t", "a"): {()}}, "s")
    with pytest.raises(ValueError):
        make_automaton({"s"}, {"a"}, {("s", "b"): {()}}, "s")
    with pytest.raises(ValueError):
        make_automaton({"s"}, {"a"}, {}, "t")


PARITY = make_automaton(
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


def random_transitions(rng, states, alphabet) -> dict:
    """Up to two random outcomes of arity 0 to 2 per (state, label)."""
    trans: dict = {}
    for s in states:
        for lbl in alphabet:
            outs = set()
            for _ in range(rng.randint(0, 2)):
                k = rng.randint(0, 2)
                outs.add(tuple(rng.choice(states) for _ in range(k)))
            if outs:
                trans[(s, lbl)] = outs
    return trans


def test_accepts_monotone_under_transition_addition():
    rng = random.Random(3)
    states = ["s0", "s1", "s2"]
    alphabet = ["a", "b"]
    for _ in range(40):
        trans = random_transitions(rng, states, alphabet)
        aut = make_automaton(states, alphabet, trans, "s0")
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
        aut2 = make_automaton(states, alphabet, bigger, "s0")
        for t, was in zip(trees, accepted):
            if was:
                assert accepts(aut2, t)


# ---------------------------------------------------------------------------
# Slice counting
# ---------------------------------------------------------------------------

def chain(n: int) -> TreeDecomposition:
    """The n-node path rooted at node 0, as a shape to count labelings of."""
    return TreeDecomposition.make(
        0, [(t + 1,) for t in range(n - 1)] + [()], [()] * n
    )


def every_shape(n: int) -> list[TreeDecomposition]:
    """Every ordered tree of n nodes, at most two children each."""
    trees = [tree_of(nested) for nested in enumerate_trees([None], n)]
    return [TreeDecomposition.make(t.root, t.children, [()] * n) for t in trees]


def at_every_node(aut: TreeAutomaton, n: int) -> TreeAutomaton:
    """aut with each label a copied to (t, a) for every node t < n."""
    return make_automaton(
        aut.states,
        {(t, a) for t in range(n) for a in aut.alphabet},
        {(s, (t, a)): outs for t in range(n) for (s, a), outs in aut.transitions.items()},
        aut.initial,
    )


def count_labelings_oracle(aut: TreeAutomaton, shape: TreeDecomposition) -> int:
    """Accepted labelings of shape that put only labels (t, ·) at each node t."""
    per_node = [
        sorted((lbl for lbl in aut.alphabet if lbl[0] == t), key=repr)
        for t in range(shape.n_nodes)
    ]
    return sum(
        accepts(aut, LabeledTree.make(shape.root, shape.children, labels))
        for labels in itertools.product(*per_node)
    )


def test_count_slice_matches_exhaustive_on_hand_automaton():
    # PARITY has no binary rules, so its n-slice is the chain of n nodes.
    for n in range(1, 6):
        aut = at_every_node(PARITY, n)
        got = count_slice_exact(aut, chain(n))
        assert got == count_labelings_oracle(aut, chain(n))
        assert got == count_slice_oracle(PARITY, n)


def test_count_slice_rejects_labels_naming_no_node():
    with pytest.raises(ValueError, match="names no node"):
        count_slice_exact(PARITY, chain(3))
    with pytest.raises(ValueError, match="names no node"):
        count_slice_exact(at_every_node(PARITY, 4), chain(3))


def test_count_slice_over_every_shape_sums_to_the_slice():
    # Random automata with binary rules, copied to every node: the labelings
    # each ordered shape of n nodes accepts add up to the n-slice.
    rng = random.Random(5)
    states = ["s0", "s1", "s2"]
    alphabet = ["a", "b"]
    for _ in range(30):
        aut = make_automaton(
            states, alphabet, random_transitions(rng, states, alphabet), "s0"
        )
        for n in range(1, 6):
            tagged = at_every_node(aut, n)
            total = 0
            for shape in every_shape(n):
                got = count_slice_exact(tagged, shape)
                assert got == count_labelings_oracle(tagged, shape)
                total += got
            assert total == count_slice_oracle(aut, n)


def test_count_slice_reads_only_each_nodes_rules():
    # Each node gets its own random rules over shared states, so a node that
    # read another node's rules would miscount; shapes with two equal
    # subtrees are among them.
    rng = random.Random(11)
    states = ["s0", "s1", "s2"]
    for n in range(1, 6):
        alphabet = [(t, a) for t in range(n) for a in "ab"]
        for shape in every_shape(n):
            for _ in range(4):
                aut = make_automaton(
                    states, alphabet, random_transitions(rng, states, alphabet), "s0"
                )
                assert count_slice_exact(aut, shape) == count_labelings_oracle(
                    aut, shape
                )


def test_count_slice_counts_states_that_look_like_no_child():
    # The same random rules with states renamed to None and (), values that a
    # missing child could be mistaken for, count the same on every shape.
    rng = random.Random(13)
    states = ["s0", "s1", "s2"]
    rename = {"s0": None, "s1": (), "s2": "s2"}
    for n in range(1, 6):
        alphabet = [(t, a) for t in range(n) for a in "ab"]
        for shape in every_shape(n):
            for _ in range(4):
                trans = random_transitions(rng, states, alphabet)
                aut = make_automaton(states, alphabet, trans, "s0")
                renamed = make_automaton(
                    rename.values(),
                    alphabet,
                    {
                        (rename[s], lbl): {tuple(rename[c] for c in o) for o in outs}
                        for (s, lbl), outs in trans.items()
                    },
                    None,
                )
                assert count_slice_exact(renamed, shape) == count_slice_exact(
                    aut, shape
                )


def test_count_slice_empty_transitions():
    for n in range(1, 5):
        aut = make_automaton({"s"}, {(t, "a") for t in range(n)}, {}, "s")
        assert count_slice_exact(aut, chain(n)) == 0
        assert count_labelings_oracle(aut, chain(n)) == 0


def _nice_td_for(q):
    h = build_hypergraph(q)
    _, td = fhw_exact_small(h)
    return make_nice(h, td)


def test_built_automaton_slices_match_exhaustive():
    q = parse_query("phi(x) :- U(x)")
    d = Database.make([0, 1], {"U": (1, [(0,), (1,)])})
    ntd = _nice_td_for(q)
    aut = build_automaton(q, d, ntd)
    assert count_slice_exact(aut, ntd) == count_slice_oracle(aut, ntd.n_nodes) == 2
    for n in range(1, ntd.n_nodes + 2):
        if n != ntd.n_nodes:
            assert count_slice_oracle(aut, n) == 0


def test_built_automaton_rejects_other_sizes():
    q = parse_query("phi(x) :- E(x,y)")
    d = Database.make([0, 1], {"E": (2, [(0, 1), (1, 0)])})
    ntd = _nice_td_for(q)
    aut = build_automaton(q, d, ntd)
    assert count_slice_exact(aut, ntd) == count_slice_oracle(aut, ntd.n_nodes) == 2
    # Larger trees are left out: with 7 labels, one more node makes the
    # exhaustive oracle about 20 times slower.
    for n in range(1, ntd.n_nodes):
        assert count_slice_oracle(aut, n) == 0


def test_built_automaton_moves_along_the_decomposition():
    # Each label and state of node t moves only to states of t's children,
    # in order, and a leaf outcome comes only at a leaf. So every accepted
    # tree has the decomposition's shape, and the count of its labelings is
    # the whole slice.
    for seed in range(80):
        q, d = plain_cq_instance(seed)
        ntd = _nice_td_for(q)
        aut = build_automaton(q, d, ntd)
        for ((t, _), (lt, _)), outs in aut.transitions.items():
            assert lt == t, seed
            for o in outs:
                assert tuple(c for c, _ in o) == ntd.children[t], seed


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


def test_pipeline_star_with_equal_arms():
    # Equal arms x - a_i - b_i: the nice decomposition joins subtrees of equal
    # shape, and each of their nodes counts from its own rules. The answers
    # are x with b0 and b1 each two steps away; brute force enumerates
    # 5 ** (2 * arms + 1) assignments, so it checks the smaller stars only.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
    edges += [(b, a) for a, b in edges]
    d = Database.make(list(range(5)), {"E": (2, edges)})
    two_steps = [
        {c for a, b in edges if a == x for b2, c in edges if b2 == b} for x in range(5)
    ]
    for arms in (3, 4, 6, 8):
        body = ", ".join(f"E(x,a{i}), E(a{i},b{i})" for i in range(arms))
        q = parse_query(f"phi(x,b0,b1) :- {body}")
        h = build_hypergraph(q)
        ntd = make_nice(h, fhw_decomposition(h, 8)[1])

        def shape(t):
            return tuple(shape(c) for c in ntd.children[t])

        assert any(
            len(kids) == 2 and shape(kids[0]) == shape(kids[1])
            for kids in ntd.children
        )
        got = count_answers_fhw_pipeline(q, d).count
        assert got == count_slice_exact(build_automaton(q, d, ntd), ntd), arms
        assert got == sum(len(ends) ** 2 for ends in two_steps), arms
        if arms <= 4:
            assert got == count_answers_bruteforce(q, d)


def test_pipeline_matches_built_automaton_on_gate_c03_seeds():
    # The seeds and width bound of acceptance gate c03.
    seed, checked = 30_000, 0
    while checked < 100:
        seed += 1
        q, d = plain_cq_instance(seed)
        h = build_hypergraph(q)
        width, td = fhw_exact_small(h)
        if width > 2:
            continue
        checked += 1
        nice = make_nice(h, td)
        got = count_answers_fhw_pipeline(q, d, state_limit=None).count
        assert got == count_slice_exact(build_automaton(q, d, nice), nice), seed
        assert got == count_answers_bruteforce(q, d), seed


def test_pipeline_long_path_at_default_limits():
    # A 200-variable path has a nice decomposition of about 400 nodes; every
    # variable is free, so the count is the number of 199-edge walks.
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (3, 4), (4, 1)]
    xs = [f"x{i}" for i in range(200)]
    body = ", ".join(f"E({a},{b})" for a, b in zip(xs, xs[1:]))
    q = parse_query(f"phi({','.join(xs)}) :- {body}")
    d = Database.make(list(range(5)), {"E": (2, edges)})
    walks = [1] * 5
    for _ in range(199):
        walks = [sum(walks[b] for a, b in edges if a == u) for u in range(5)]
    assert count_answers_fhw_pipeline(q, d).count == sum(walks)


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
