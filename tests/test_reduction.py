"""Implicit answer hypergraph, colour-coded edge-freeness, oracle counting."""

from __future__ import annotations

import collections
import itertools
import math
import random
import statistics

import pytest

from cqcount import (
    BudgetExceededError,
    Database,
    OracleStats,
    QueryValidationError,
    approx_count_answers,
    count_answers_bruteforce,
    count_edges_exact_oracle,
    derive_rng,
    edgefree_restricted,
    estimate_edges,
    gen_hampath,
    gen_li_hom,
    parse_query,
)
from cqcount import reduction, widths
from cqcount.qmodel import oriented_disequalities
from cqcount.reduction import (
    HOM_BACKENDS,
    ImplicitAnswerHypergraph,
    _colour_classes,
    _derived_seed,
    _draw_values,
    _halves,
    clique_cover,
    clique_repetitions,
    single_walk_estimate,
)
from cqcount.widths import make_nice, treewidth_heuristic

from conftest import corpus_instance
import helpers
from helpers import (
    answers,
    box_values,
    build_A,
    build_B,
    build_hat_A,
    build_hat_B,
    colour_classes,
    edgefree_bruteforce,
    edgefree_every_sample,
    edgefree_general,
    exact_oracle,
    hom_exists_bruteforce,
    hom_exists_td_explicit,
    k3_with_pendant,
    layer_masks,
    query_size,
    restricted_parts,
    structure_hypergraph,
    structure_size,
    vertices,
)

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
P3 = [(0, 1), (1, 2)]
P4 = [(0, 1), (1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------

def test_derive_rng_deterministic_and_split():
    assert derive_rng(7, 1, 2).random() == derive_rng(7, 1, 2).random()
    assert derive_rng(7, 1, 2).random() != derive_rng(7, 1, 3).random()
    assert derive_rng(7).random() != derive_rng(8).random()


def test_hypergraph_shape():
    q = parse_query("phi(x,y) :- E(x,y)")
    d = Database.make([0, 1], {"E": (2, [(0, 1)])})
    ih = ImplicitAnswerHypergraph(q, d)
    assert ih.ell == 2
    assert len(vertices(ih)) == 4
    assert set(vertices(ih)) == {(0, 1), (1, 1), (0, 2), (1, 2)}
    assert ih.full_box() == (0b11, 0b11)
    assert answers(ih) == {(0, 1)}


def test_hypergraph_rejects_unnormalized():
    q = parse_query("phi(x,y) :- E(x,y), x = y")
    d = Database.make([0], {"E": (2, [])})
    with pytest.raises(QueryValidationError):
        ImplicitAnswerHypergraph(q, d)


def test_repetitions_formula():
    assert clique_repetitions((2,) * 0, 0.01) == 1
    assert clique_repetitions((2,) * 1, 0.01) == 20
    assert clique_repetitions((2,) * 2, 0.01) == 80
    with pytest.raises(ValueError):
        clique_repetitions((2,) * 1, 0.0)


def test_clique_repetitions_formula():
    for n in range(5):
        for dp in (0.01, 1e-6):
            # no disequality: one sample, no colouring to repeat
            expected = math.ceil(math.log(1 / dp)) * 4**n if n else 1
            assert clique_repetitions((2,) * n, dp) == expected
    assert clique_repetitions((4,), 1e-6) == 14 * 4**4 == 3_584
    assert clique_repetitions((3, 2), 0.01) == 5 * 27 * 4
    with pytest.raises(ValueError):
        clique_repetitions((3,), 1.0)


# ---------------------------------------------------------------------------
# Clique cover of the disequality graph
# ---------------------------------------------------------------------------

def _evaluator_cliques(q, d):
    return ImplicitAnswerHypergraph(q, d).evaluator("bruteforce").cliques


def test_clique_cover_triangle_free_is_the_pairs_in_order():
    c5 = [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert clique_cover(c5) == c5
    for seed in range(60):
        q, d = corpus_instance(seed)  # at most two disequalities
        ev = ImplicitAnswerHypergraph(q, d).evaluator("bruteforce")
        assert ev.cliques == ev.diseq_pos


def test_clique_cover_hampath_is_one_clique():
    for n in (4, 5):
        q, d = gen_hampath(list(itertools.combinations(range(n), 2)), n)
        assert _evaluator_cliques(q, d) == [tuple(range(n))]


def test_clique_cover_triangle_with_pendant():
    assert clique_cover([(0, 1), (0, 2), (1, 2), (2, 3)]) == [(0, 1, 2), (2, 3)]
    q = parse_query("q(a, b, c, e) :- E(a, b), E(c, e), a != b, b != c, a != c, c != e")
    d = Database.make([0, 1, 2, 3], {"E": (2, [(0, 1), (2, 3)])})
    assert _evaluator_cliques(q, d) == [(0, 1, 2), (2, 3)]


def test_clique_cover_covers_each_disequality_once():
    for seed in range(200):
        q, d = corpus_instance(20_000 + seed, max_vars=5, max_diseq=10)
        ev = ImplicitAnswerHypergraph(q, d).evaluator("bruteforce")
        covered = [
            pair for clique in ev.cliques
            for pair in itertools.combinations(clique, 2)
        ]
        assert sorted(covered) == sorted(ev.diseq_pos), seed
        assert all(len(clique) >= 2 for clique in ev.cliques)


def test_red_masks_pin_each_clique_variable_to_its_class():
    ih = ImplicitAnswerHypergraph(*gen_hampath(K4, 4))
    ev = ih.evaluator("bruteforce")
    classes = [0b0001, 0b0110, 0b1000, 0b0000]
    full = (1 << len(ih.domain)) - 1
    dom = [full] * 4
    for (i, j), red in zip(ev.diseq_pos, ev.red_masks([classes])):
        dom[i] &= red
        dom[j] &= full & ~red
    assert dom == classes


# ---------------------------------------------------------------------------
# Decorated structures: explicit construction vs fast evaluator
# ---------------------------------------------------------------------------

def test_hat_A_size_bound():
    for seed in range(200):
        q, _ = corpus_instance(seed)
        assert structure_size(build_hat_A(q)) <= 5 * query_size(q) ** 2


def test_hat_A_markers():
    q = parse_query("phi(x,y) :- E(x,y), x != y")
    a = build_hat_A(q)
    names = {sym.name for sym in a.relations}
    assert names == {"E", "@p1", "@p2", "@r1", "@b1"}


# Atoms whose facts the evaluator must filter or complement with care: a
# repeated variable, whose facts count only where they agree (R(2, 0, 1) must
# not pass for R(x, y, x) at x = 2, y = 0), plain and under negation, and a
# negated binary atom whose complement holds a value, 3, that is in no fact.
HAND_ATOMS = [
    (
        parse_query("q(x, y) :- E(x, y), !E(x, x), x != y"),
        Database.make([0, 1, 2], {"E": (2, [(0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])}),
    ),
    (
        parse_query("q(x, y) :- R(x, y, x)"),
        Database.make([0, 1, 2], {"R": (3, [(0, 1, 0), (0, 1, 2), (1, 2, 1), (2, 0, 1)])}),
    ),
    (
        parse_query("q(x, z) :- E(x, z), !R(x, y, x), x != z"),
        Database.make([0, 1, 2], {
            "E": (2, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]),
            "R": (3, [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 2, 1), (2, 0, 1)]),
        }),
    ),
    (
        parse_query("q(x, y) :- E(x, z), !F(z, y), x != y"),
        Database.make([0, 1, 2, 3], {"E": (2, [(0, 1), (1, 2)]), "F": (2, [(1, 0), (2, 1)])}),
    ),
]


def test_explicit_hat_hom_equals_evaluator():
    # The fast per-variable-mask search must decide exactly the same
    # question as a homomorphism between the explicit decorated structures.
    cases = [corpus_instance(seed, max_vars=4, max_domain=3) for seed in range(25)]
    for seed, (q, d) in enumerate(cases + HAND_ATOMS):
        ih = ImplicitAnswerHypergraph(q, d)
        rng = random.Random(seed)
        hat_a = build_hat_A(q)
        diseqs = oriented_disequalities(q)
        nd = len(d.domain)
        for _ in range(6):
            vs = [
                frozenset(rng.sample(d.domain, rng.randint(0, nd)))
                for _ in range(ih.ell)
            ]
            masks = layer_masks(ih, vs)
            searches = [ih.evaluator(b).compile(masks) for b in HOM_BACKENDS]
            for reds in itertools.product(range(2 ** nd), repeat=len(diseqs)):
                red_sets = {
                    pair: frozenset(
                        w for i, w in enumerate(d.domain) if reds[k] >> i & 1
                    )
                    for k, pair in enumerate(diseqs)
                }
                explicit = hom_exists_bruteforce(
                    hat_a, build_hat_B(q, d, vs, red_sets)
                )
                for backend, search in zip(HOM_BACKENDS, searches):
                    fast = search(list(reds)) is not None
                    assert fast == explicit, (seed, backend, vs, reds)


def _halving_tree(ih: ImplicitAnswerHypergraph) -> list[tuple]:
    """Every box of the halving tree, the boxes the counters can ask about."""
    boxes, stack = [], [ih.full_box()]
    while stack:
        box = stack.pop()
        boxes.append(box)
        stack += _halves(box)
    return boxes


def _assert_searches_match_the_explicit_dp(q, d):
    # Both backends' compiled searches against the paper's DP over the query
    # and database structures, on a decomposition of its own, for every box
    # of the halving tree and every red mask of each disequality. A
    # bruteforce witness must itself satisfy the query under those domains.
    ih = ImplicitAnswerHypergraph(q, d)
    evs = [ih.evaluator(b) for b in HOM_BACKENDS]
    a, b = build_A(q), build_B(q, d)
    h = structure_hypergraph(a)
    nice = make_nice(h, treewidth_heuristic(h)[1])
    diseqs = oriented_disequalities(q)
    for box in _halving_tree(ih):
        searches = [ev.compile(box) for ev in evs]
        layers = dict(zip(q.free_vars, box_values(ih, box)))
        for reds in itertools.product(range(2 ** len(d.domain)), repeat=len(diseqs)):
            domains = {v: set(layers.get(v, d.domain)) for v in q.variables}
            for (x, y), red in zip(diseqs, reds):
                red_set = {w for i, w in enumerate(d.domain) if red >> i & 1}
                domains[x] &= red_set
                domains[y] -= red_set
            expected = hom_exists_td_explicit(a, b, nice, domains)
            witnesses = [search(list(reds)) for search in searches]
            for backend, witness in zip(HOM_BACKENDS, witnesses):
                assert (witness is not None) == expected, (backend, box, reds)
            witness = witnesses[HOM_BACKENDS.index("bruteforce")]
            if witness is not None:
                env = {v: ih.domain[i] for v, i in zip(q.variables, witness)}
                assert all(env[v] in domains[v] for v in q.variables)
                for sym, args in q.predicates:
                    assert tuple(env[v] for v in args) in d.relations[sym]
                for sym, args in q.negated_predicates:
                    assert tuple(env[v] for v in args) not in d.relations[sym]


def test_td_plan_matches_hom_exists_td_on_corpus():
    # Seeds 0-39 hold atoms of arity 3, repeated variables and negated atoms.
    for seed in range(40):
        _assert_searches_match_the_explicit_dp(*corpus_instance(seed))


def test_td_plan_matches_hom_exists_td_on_hand_cases():
    # The 17-variable path is past treewidth_exact's limit, so the evaluator
    # decomposes it by min-fill. The star's two arms meet at a join node on
    # x, and no value of x has both, so only intersecting them finds that
    # the full box holds no answer. HAND_ATOMS pin how atoms are built.
    star = (
        parse_query("q(x) :- E(x, y), F(x, z)"),
        Database.make([0, 1, 2], {"E": (2, [(0, 1)]), "F": (2, [(1, 2)])}),
    )
    for q, d in [_path17(), star] + HAND_ATOMS:
        _assert_searches_match_the_explicit_dp(q, d)


def test_td_backend_checks_its_decomposition_once(monkeypatch):
    # The decomposition is checked once, when the td-dp evaluator is built:
    # make_nice checks the one it is given, which is not nice, and asserts
    # that its own output is nice, so nothing checks that output again,
    # neither the plan nor any search.
    real = widths.is_valid_td
    checks, nice_checks = [], []

    def counting(h, td):
        checks.append(td)
        if td.is_nice():
            nice_checks.append(td)
        return real(h, td)

    for mod in (widths, helpers, reduction):
        monkeypatch.setattr(mod, "is_valid_td", counting, raising=False)
    q, d = gen_li_hom(P3, _circulant(7))
    stats = OracleStats()
    approx_count_answers(q, d, 0.25, 0.1, seed=7, backend="td-dp", stats=stats)
    assert stats.hom_calls > 1
    assert len(checks) == 1
    assert len(nice_checks) == 0


def test_bruteforce_backend_plans_its_search_once(monkeypatch):
    # The variable order, forward checks and atom schedule are planned when
    # the bruteforce evaluator is built, not for every box.
    real = reduction._Evaluator._plan_bruteforce
    plans = []

    def counting(self, ell):
        plans.append(ell)
        return real(self, ell)

    monkeypatch.setattr(reduction._Evaluator, "_plan_bruteforce", counting)
    q, d = gen_li_hom(P3, _circulant(7))
    stats = OracleStats()
    approx_count_answers(q, d, 0.25, 0.1, seed=7, backend="bruteforce", stats=stats)
    assert stats.hom_calls > 1
    assert len(plans) == 1


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_repetitions_are_computed_once_per_attempt(monkeypatch, backend):
    # Every box of one attempt shares its delta_prime, so its sample count.
    real = reduction.clique_repetitions
    shares = []

    def counting(sizes, delta_prime):
        shares.append(delta_prime)
        return real(sizes, delta_prime)

    monkeypatch.setattr(reduction, "clique_repetitions", counting)
    q, d = gen_li_hom(P3, _circulant(7))
    stats = OracleStats()
    approx_count_answers(q, d, 0.25, 0.1, seed=7, backend=backend, stats=stats, initial_cap=4)
    assert stats.restarts >= 2
    assert stats.edgefree_calls > 10 * len(shares)
    assert len(shares) == len(set(shares)) == stats.restarts + 1
    # A share whose count raises stores nothing, so it raises again.
    ev = ImplicitAnswerHypergraph(q, d).evaluator(backend)
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="samples"):
            ev.repetitions(1e-310)


def test_evaluator_full_box_decides_satisfiability():
    for seed in range(40):
        q, d = corpus_instance(seed, max_diseq=0)
        ih = ImplicitAnswerHypergraph(q, d)
        ev = ih.evaluator("bruteforce")
        witness = ev.compile(ih.full_box())(())
        has = count_answers_bruteforce(q, d) > 0
        assert (witness is not None) == has
        if witness is not None:
            # The returned assignment must itself satisfy the query.
            env = {v: ih.domain[i] for v, i in zip(q.variables, witness)}
            by_name = {sym.name: sym for sym in d.relations}
            for sym, args in q.predicates:
                assert tuple(env[v] for v in args) in d.relations[by_name[sym.name]]
            for sym, args in q.negated_predicates:
                assert tuple(env[v] for v in args) not in d.relations[by_name[sym.name]]


def test_compiled_search_serves_many_colourings():
    # One compiled box must answer every colouring, in any order, exactly as
    # a fresh compile does: nothing may leak from one call to the next
    # through the shared domains, plan or assignment array.
    for seed in range(20):
        q, d = corpus_instance(seed, max_vars=4, max_domain=3)
        ih = ImplicitAnswerHypergraph(q, d)
        rng = random.Random(seed)
        nd = len(d.domain)
        colourings = list(
            itertools.product(range(2 ** nd), repeat=len(oriented_disequalities(q)))
        )
        for backend in HOM_BACKENDS:
            ev = ih.evaluator(backend)
            for _ in range(4):
                vs = [
                    frozenset(rng.sample(d.domain, rng.randint(1, nd)))
                    for _ in range(ih.ell)
                ]
                masks = layer_masks(ih, vs)
                search = ev.compile(masks)
                rng.shuffle(colourings)
                for reds in colourings:
                    got = search(list(reds))
                    assert got == ev.compile(masks)(list(reds)), (seed, backend, vs, reds)


# ---------------------------------------------------------------------------
# Edge-freeness oracles
# ---------------------------------------------------------------------------

def _simple_instance():
    q = parse_query("phi(x,y) :- E(x,y)")
    d = Database.make([0, 1], {"E": (2, [(0, 1)])})
    return ImplicitAnswerHypergraph(q, d)


def test_edgefree_bruteforce_layer_mixing():
    ih = _simple_instance()
    assert not edgefree_bruteforce(ih, [{(0, 1)}, {(1, 2)}])
    # Swapped layers still capture the edge through the part system.
    assert not edgefree_bruteforce(ih, [{(1, 2)}, {(0, 1)}])
    assert edgefree_bruteforce(ih, [{(0, 1)}, {(0, 2)}])
    assert edgefree_bruteforce(ih, [set(), {(1, 2)}])


def test_edgefree_bruteforce_rejects_overlapping_parts():
    ih = _simple_instance()
    with pytest.raises(ValueError):
        edgefree_bruteforce(ih, [{(0, 1), (1, 2)}, {(1, 2)}])
    with pytest.raises(ValueError):
        edgefree_bruteforce(ih, [{(0, 1)}, {(9, 9)}])


def test_edgefree_restricted_exact_without_disequalities():
    for seed in range(40):
        q, d = corpus_instance(seed, max_diseq=0)
        ih = ImplicitAnswerHypergraph(q, d)
        rng = random.Random(seed)
        nd = len(d.domain)
        for _ in range(10):
            vs = [
                frozenset(rng.sample(d.domain, rng.randint(0, nd)))
                for _ in range(ih.ell)
            ]
            expected = edgefree_bruteforce(ih, restricted_parts(ih, vs))
            got = edgefree_restricted(ih, layer_masks(ih, vs), 0.01, rng)
            assert got == expected


def test_edgefree_restricted_one_sided_and_seeded():
    # 'Has an edge' is always sound; with these frozen seeds the sampled
    # colourings also find every edge, so the answers match exactly.
    stats = OracleStats()
    for seed in range(40):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        rng = derive_rng(900, seed)
        box_rng = random.Random(seed)
        nd = len(d.domain)
        for _ in range(8):
            vs = [
                frozenset(box_rng.sample(d.domain, box_rng.randint(0, nd)))
                for _ in range(ih.ell)
            ]
            expected = edgefree_bruteforce(ih, restricted_parts(ih, vs))
            got = edgefree_restricted(ih, layer_masks(ih, vs), 0.001, rng, stats=stats)
            if not got:
                assert not expected  # one-sided: edge answers are certain
            assert got == expected
    assert stats.edgefree_calls == 40 * 8
    assert stats.hom_calls > 0


def test_edgefree_general_mixed_parts():
    for seed in range(25):
        q, d = corpus_instance(seed, max_vars=4, max_domain=3)
        ih = ImplicitAnswerHypergraph(q, d)
        rng = derive_rng(901, seed)
        part_rng = random.Random(seed + 1)
        verts = vertices(ih)
        for _ in range(6):
            pool = list(verts)
            part_rng.shuffle(pool)
            ws = [set() for _ in range(ih.ell)]
            for u in pool[: part_rng.randint(0, len(pool))]:
                ws[part_rng.randrange(ih.ell)].add(u)
            expected = edgefree_bruteforce(ih, ws)
            assert edgefree_general(ih, ws, 0.001, rng) == expected


def test_edgefree_backends_agree():
    for seed in range(12):
        q, d = corpus_instance(seed, max_vars=4, max_domain=3)
        ih = ImplicitAnswerHypergraph(q, d)
        rng = random.Random(3)
        nd = len(d.domain)
        for _ in range(5):
            vs = [
                frozenset(rng.sample(d.domain, rng.randint(0, nd)))
                for _ in range(ih.ell)
            ]
            masks = layer_masks(ih, vs)
            a = edgefree_restricted(ih, masks, 0.01, derive_rng(10, seed), "bruteforce")
            b = edgefree_restricted(ih, masks, 0.01, derive_rng(10, seed), "td-dp")
            assert a == b


def test_edgefree_restricted_rejects_malformed_masks():
    # Each check raises its own error before a counter moves or a colour is
    # drawn. A negative mask has bits beyond any domain.
    ih = _simple_instance()  # two layers over two values
    beyond = "a layer mask has bits beyond the database domain"
    cases = [
        ([], "expected 2 layer masks, got 0"),
        ([0b11], "expected 2 layer masks, got 1"),
        ([0b11, 0b11, 0b11], "expected 2 layer masks, got 3"),
        ([0b11, 0b100], beyond),
        ([-1, 0b11], beyond),
    ]
    for masks, message in cases:
        rng, stats = random.Random(0), OracleStats()
        state = rng.getstate()
        with pytest.raises(ValueError) as raised:
            edgefree_restricted(ih, masks, 0.01, rng, stats=stats)
        assert str(raised.value) == message, masks
        assert stats == OracleStats() and rng.getstate() == state, masks


def _halving_boxes(ih: ImplicitAnswerHypergraph) -> list:
    """Every box the exact halving visits, in order."""
    boxes = []
    oracle = exact_oracle(ih)

    def record(box):
        boxes.append(box)
        return oracle(box)

    count_edges_exact_oracle(ih, record)
    return boxes


def _run_sampler(ih, ev, masks, delta_prime, rng, search=True) -> int:
    """ev's sampler run on the box directly, as edgefree_restricted runs it
    where it colour-codes: the samples drawn up to and including the first
    with a witness, or 0 when none has one."""
    q_reps = ev.repetitions(delta_prime)
    return ev._sampler(ev, masks, ev._box(masks), rng, q_reps, len(ih.domain), search)


def _assert_same_draws(ih, backend, seed, delta_prime=0.05):
    # Skipping the colour searches of a box with no uncoloured witness must
    # leave the answer, the random stream and the sample count as they are.
    # Where bruteforce decides a box exactly (ev.exact) it draws nothing and
    # answers as the exact oracle; its sampler, run directly and searching
    # only a box with an answer, as the colour-coded path would, must then
    # answer and draw as the reference.
    ev = ih.evaluator(backend)
    truth = exact_oracle(ih)
    rng, ref_rng = derive_rng(77, seed), derive_rng(77, seed)
    for box in _halving_boxes(ih):
        stats, ref_stats = OracleStats(), OracleStats()
        state = rng.getstate()
        got = edgefree_restricted(ih, box, delta_prime, rng, backend, stats)
        ref = edgefree_every_sample(ih, box, delta_prime, ref_rng, backend, ref_stats)
        sampled = stats.colourings_sampled
        if ev.exact and all(box):
            assert got == truth(box), (seed, box)
            assert rng.getstate() == state and sampled == 0, (seed, box)
            drawn = _run_sampler(ih, ev, box, delta_prime, rng, search=not got)
            got, sampled = not drawn, drawn or ev.repetitions(delta_prime)
        assert got == ref, (seed, backend, box)
        assert rng.getstate() == ref_rng.getstate(), (seed, backend, box)
        assert sampled == ref_stats.colourings_sampled
        assert stats.edgefree_calls == ref_stats.edgefree_calls


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_edgefree_search_before_colouring_keeps_the_stream(backend):
    for seed in range(60):
        q, d = corpus_instance(seed)
        _assert_same_draws(ImplicitAnswerHypergraph(q, d), backend, seed)


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_edgefree_search_before_colouring_keeps_the_clique_draws(backend):
    # hampath(K4) is one K4 clique and the star K1,3 lihom one K3 clique, so
    # both draw blocks of randrange values, not the single K2 draw; the K3
    # with a pendant K2 draws through both branches of _colour_classes. On
    # bruteforce the samplers are run directly (see _assert_same_draws).
    ham = ImplicitAnswerHypergraph(*gen_hampath(K4, 4))
    star = ImplicitAnswerHypergraph(*gen_li_hom([(0, 1), (0, 2), (0, 3)], K4))
    mixed = ImplicitAnswerHypergraph(*k3_with_pendant())
    assert [len(c) for c in ham.evaluator(backend).cliques] == [4]
    assert [len(c) for c in star.evaluator(backend).cliques] == [3]
    assert [len(c) for c in mixed.evaluator(backend).cliques] == [3, 2]
    _assert_same_draws(ham, backend, 0, delta_prime=0.3)
    _assert_same_draws(star, backend, 1)
    _assert_same_draws(mixed, backend, 2)


@pytest.mark.parametrize("width", [1, 31, 32, 33, 64, 65, 100])
def test_one_call_draws_the_words_of_every_skipped_k2_sample(width):
    # A skipped box of K2s draws ceil(width / 32) words per K2 and sample;
    # one getrandbits call of all of them must leave the generator where
    # one getrandbits(width) per K2 and sample leaves it.
    for q_reps, k2s in itertools.product((1, 3, 56), (1, 2, 5)):
        one, loop = random.Random(width), random.Random(width)
        one.getrandbits(32 * ((width + 31) // 32) * q_reps * k2s)
        for _ in range(q_reps * k2s):
            loop.getrandbits(width)
        assert one.getstate() == loop.getstate(), (width, q_reps, k2s)


_B = reduction._BLOCK_VALUES


@pytest.mark.parametrize("n, q_reps", [
    (32, _B - 1), (32, _B), (32, _B + 1), (32, 3 * _B + 5),
    (65, _B // 3 - 1), (65, _B // 3 + 1), (100, _B),
])
def test_skipped_k2_box_draws_in_calls_of_at_most_block_values_words(n, q_reps):
    # Unsearched, _pair_samples draws a box's ceil(n / 32) * q_reps words of
    # its one K2 in calls of at most _BLOCK_VALUES words: the words of one
    # call of them all, in the same order, so the generator ends alike.
    ev = ImplicitAnswerHypergraph(*gen_li_hom(P3, _circulant(n))).evaluator("bruteforce")
    assert ev._sampler is reduction._pair_samples and len(ev.diseq_pos) == 1
    calls = []

    class Counted(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    rng, one = Counted(n), random.Random(n)
    masks = [1, (1 << n) - 1, 1 << 10]
    assert reduction._pair_samples(ev, masks, ev._box(masks), rng, q_reps, n, False) == 0
    words = (n + 31) // 32 * q_reps
    one.getrandbits(32 * words)
    assert rng.getstate() == one.getstate()
    assert sum(calls) == 32 * words and max(calls) <= 32 * _B
    assert len(calls) == -(-words // _B)


@pytest.mark.parametrize("n", [31, 32, 33, 64, 65, 100])
def test_skipped_wide_box_keeps_the_stream(n):
    # P3 lihom over a circulant is one K2; x0 = 0 and x2 = 10 are more than
    # two steps apart, so the box has no witness before colouring and its
    # samples are drawn unsearched.
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, _circulant(n)))
    assert [len(c) for c in ih.evaluator("bruteforce").cliques] == [2]
    masks = [1, (1 << n) - 1, 1 << 10]
    for dp in (0.3, 0.05, 1e-6):
        rng, ref_rng = derive_rng(3, n), derive_rng(3, n)
        stats, ref_stats = OracleStats(), OracleStats()
        assert edgefree_restricted(ih, masks, dp, rng, stats=stats)
        assert edgefree_every_sample(ih, masks, dp, ref_rng, stats=ref_stats)
        assert rng.getstate() == ref_rng.getstate()
        assert stats.colourings_sampled == ref_stats.colourings_sampled
        assert stats.hom_calls == 1


@pytest.mark.parametrize("k", [3, 4, 5, 7])
def test_colour_classes_draw_as_randrange(k):
    for seed, width in itertools.product(range(5), (0, 1, 4, 31, 33, 100)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _colour_classes(rng, k, width) == colour_classes(ref_rng, k, width)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("k", [3, 4, 5, 7, 8, 255])
def test_draw_values_are_randrange_draws(k):
    for seed, width in itertools.product(range(5), (0, 1, 4, 31, 33, 100)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            want = bytes(ref_rng.randrange(k) for _ in range(width))
            assert _draw_values(rng, k, width) == want
        assert rng.getstate() == ref_rng.getstate()


def _first_pinned_at(at: int):
    """A seed and a box of one value per layer, such that the K5 colourings
    drawn one rng.randrange(5) per value from random.Random(seed) first give
    the box's i-th value colour i, for every i, at sample `at`."""
    for seed in range(1000):
        rng = random.Random(seed)
        draws = [tuple(rng.randrange(5) for _ in range(5)) for _ in range(at + 1)]
        if len(set(draws[at])) == 5 and draws[at] not in draws[:at]:
            return seed, tuple((draws[at].index(c),) for c in range(5))
    raise AssertionError(f"no seed pins a box first at sample {at}")


@pytest.mark.parametrize("backend", HOM_BACKENDS)
@pytest.mark.parametrize("where", ["first", "block-end", "next-block", "none"])
def test_blocked_clique_samples_match_one_at_a_time(backend, where):
    # hampath(K5) is one K5 over 5 values, so its samples are drawn in
    # blocks of _BLOCK_VALUES // 5. A box of single values holds one answer,
    # which only the sample that colours its i-th value i finds.
    ih = ImplicitAnswerHypergraph(*gen_hampath(list(itertools.combinations(range(5), 2)), 5))
    assert ih.evaluator(backend).clique_sizes == [5]
    block = reduction._BLOCK_VALUES // 5
    q_reps = clique_repetitions([5], 0.3)
    assert q_reps > 2 * block
    if where == "none":
        # x1 = x3 = 0: walks are homs but no answer, so every sample is
        # drawn, blocks past the first too.
        at, seed, box = None, 0, ((0,), range(5), (0,), range(5), range(5))
    else:
        at = {"first": 0, "block-end": block - 1, "next-block": block}[where]
        seed, box = _first_pinned_at(at)
    masks = layer_masks(ih, box)
    ev = ih.evaluator(backend)
    ref_rng, ref_stats = random.Random(seed), OracleStats()
    ref = edgefree_every_sample(ih, masks, 0.3, ref_rng, backend, ref_stats)
    assert ref == (at is None)
    assert ref_stats.colourings_sampled == (q_reps if at is None else at + 1)
    # The sampler itself, on either backend's search.
    rng = random.Random(seed)
    assert _run_sampler(ih, ev, masks, 0.3, rng) == (0 if at is None else at + 1)
    assert rng.getstate() == ref_rng.getstate()
    # edgefree_restricted, where it colour-codes the box: bruteforce decides
    # it exactly instead (see test_bruteforce_decides_clique_boxes_exactly).
    if not ev.exact:
        rng, stats = random.Random(seed), OracleStats()
        assert edgefree_restricted(ih, masks, 0.3, rng, backend, stats) == ref
        # The reference makes no search before colouring.
        ref_stats.hom_calls += 1
        assert stats == ref_stats
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_skipped_clique_box_draws_its_samples_in_chunks(backend):
    # hampath over the path 0-1-2-3-4 and x1 = x2 = 0: no hom at all, so
    # the box's q_reps K5 samples, several chunks of _BLOCK_VALUES values,
    # are drawn but not searched. bruteforce draws none of them, so there
    # its sampler is run directly, unsearched.
    ih = ImplicitAnswerHypergraph(*gen_hampath([(i, i + 1) for i in range(4)], 5))
    ev = ih.evaluator(backend)
    masks = layer_masks(ih, ((0,), (0,), range(5), range(5), range(5)))
    q_reps = clique_repetitions([5], 0.3)
    assert q_reps * 5 > 2 * reduction._BLOCK_VALUES
    rng, ref_rng = random.Random(4), random.Random(4)
    stats, ref_stats = OracleStats(), OracleStats()
    assert edgefree_restricted(ih, masks, 0.3, rng, backend, stats)
    assert edgefree_every_sample(ih, masks, 0.3, ref_rng, backend, ref_stats)
    assert ref_stats.colourings_sampled == q_reps
    if ev.exact:
        assert rng.getstate() == random.Random(4).getstate()
        assert stats.colourings_sampled == 0
        assert _run_sampler(ih, ev, masks, 0.3, rng, search=False) == 0
    else:
        assert stats.colourings_sampled == q_reps
    assert rng.getstate() == ref_rng.getstate()
    assert stats.hom_calls == 1


def _boxes_without_witness():
    """(sampler, ih, value sets, delta_prime) of boxes that hold a hom but no
    answer, so that no colour sample holds a witness, for each cover shape:
    P3 lihom (one K2) over domains on both sides of 32-bit word bounds, K4
    hampath and two K3s (one size, several blocks and chunks of samples),
    and a K3 with a pendant K2 (mixed)."""
    for n in (31, 32, 33, 65):
        ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, _circulant(n)))
        yield reduction._pair_samples, ih, ((0,), ih.domain, (0,)), 0.05
    ih = ImplicitAnswerHypergraph(*gen_hampath(K4, 4))
    yield reduction._block_samples, ih, ((0,), ih.domain, (0,), ih.domain), 1e-3
    # Over a single edge, a - b - a is a hom but a, b, c are never distinct.
    two_k3 = parse_query(
        "q(a, x) :- E(a, b), E(b, c), E(x, y), E(y, z), "
        "a != b, b != c, a != c, x != y, y != z, x != z"
    )
    ih = ImplicitAnswerHypergraph(two_k3, Database.make(range(5), {"E": (2, [(0, 1), (1, 0)])}))
    yield reduction._block_samples, ih, (ih.domain, ih.domain), 0.3
    ih = ImplicitAnswerHypergraph(*k3_with_pendant())
    yield reduction._mixed_samples, ih, ((0,), ih.domain, (0,), ih.domain), 0.05


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_sampler_draws_alike_whether_it_searches_or_not(backend):
    # A box's sampler, picked by its cover shape, returns 0 on samples with
    # no witness, and leaves rng in one state whether it searches them or
    # only draws them, as edgefree_restricted does for a box that cannot
    # hold an answer.
    for sampler, ih, vs, delta_prime in _boxes_without_witness():
        ev = ih.evaluator(backend)
        assert ev._sampler is sampler
        masks = layer_masks(ih, vs)
        assert ev.compile(masks)(()) is not None
        assert ih.evaluator("bruteforce").answer_in(masks) is None
        q_reps = ev.repetitions(delta_prime)
        states = []
        for search in (True, False):
            rng = random.Random(len(ih.domain))
            drawn = sampler(ev, masks, ev._box(masks), rng, q_reps, len(ih.domain), search)
            assert drawn == 0, (ih.query, search)
            states.append(rng.getstate())
        assert states[0] == states[1], ih.query


def test_clique_over_255_variables_is_a_budget_error_before_any_draw():
    # A value's colour is decoded from one byte, so at most 255 colours.
    with pytest.raises(BudgetExceededError, match="255 are supported"):
        clique_repetitions((2, 256), 0.5)
    assert clique_repetitions((255,), 0.5) == 255**255
    ih = ImplicitAnswerHypergraph(*gen_hampath([(i, i + 1) for i in range(255)], 256))
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(BudgetExceededError, match="256\\^256 samples"):
        edgefree_restricted(ih, [(1 << 256) - 1] * 256, 0.5, rng)
    assert rng.getstate() == state


def _spy_searches(monkeypatch, ev, returned=None):
    """Record the domains of each ev._search call, the one seam every search
    of a box but answer_in's goes through, and the masks of each
    ev.answer_in call; and, given a list returned, what each ev._search call
    returned."""
    searched, answered = [], []
    search, answer_in = ev._search, ev.answer_in

    def counted_search(dom):
        searched.append(list(dom))
        found = search(dom)
        if returned is not None:
            returned.append(found)
        return found

    def counted_answer_in(masks):
        answered.append(list(masks))
        return answer_in(masks)

    monkeypatch.setattr(ev, "_search", counted_search)
    monkeypatch.setattr(ev, "answer_in", counted_answer_in)
    return searched, answered


@pytest.mark.parametrize("box,searches", [
    # x0 = x2 = 0 and x1 a neighbour of 0: the walk 0-1-0 is a hom but not
    # locally injective, so the box has no answer yet its samples count as
    # hom calls. answer_in proves it, after the one search before colouring.
    (((0,), (1, 3), (0,)), clique_repetitions([2], 0.05) + 1),
    # No hom at all: the uncoloured search is the only one.
    (((0,), (2,), (0,)), 1),
])
def test_edgefree_box_without_answer_searches(monkeypatch, box, searches):
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, C4))
    ev = ih.evaluator("bruteforce")
    searched, answered = _spy_searches(monkeypatch, ev)
    stats = OracleStats()
    masks = layer_masks(ih, box)
    assert edgefree_restricted(ih, masks, 0.05, random.Random(0), stats=stats)
    assert stats.colourings_sampled == clique_repetitions([2], 0.05)
    assert stats.hom_calls == searches
    assert searched == [ev._box(masks)]
    assert len(answered) == (searches > 1)


def _random_boxes(seeds, boxes_per_query=6):
    """(cover kind, ih, value sets) of seeded random boxes over small random
    queries with negated and ternary atoms and up to ten disequalities; the
    kind is "k2" for a cover of K2s only, "clique" for one of cliques of one
    size k >= 3, and "mixed" otherwise, one per draw branch."""
    for seed in seeds:
        q, d = corpus_instance(30_000 + seed, max_vars=5, max_diseq=10, max_neg=2)
        ih = ImplicitAnswerHypergraph(q, d)
        ev = ih.evaluator("bruteforce")
        if not ev.cliques:
            continue
        kind = {2: "k2", 0: "mixed"}.get(ev.one_size, "clique")
        rng = random.Random(seed)
        for _ in range(boxes_per_query):
            vs = [tuple(w for w in ih.domain if rng.random() < 0.6) for _ in range(ih.ell)]
            yield kind, ih, vs


def test_answer_search_finds_none_exactly_on_edge_free_boxes():
    certified = collections.Counter()
    seen = {"negated binary": 0, "ternary": 0}
    for kind, ih, vs in _random_boxes(range(300)):
        ev = ih.evaluator("bruteforce")
        masks = layer_masks(ih, vs)
        answer = ev.answer_in(masks)
        assert (answer is None) == edgefree_bruteforce(ih, restricted_parts(ih, vs))
        if answer is not None:
            values = tuple(ih.domain[i] for i in answer)
            assert values[: ih.ell] in answers(ih)
            assert all(w in layer for w, layer in zip(values, vs))
        elif all(masks) and ev.compile(masks)(()) is not None:
            certified[kind] += 1
        seen["negated binary"] += any(sym.arity == 2 for sym, _ in ih.query.negated_predicates)
        seen["ternary"] += any(len(idxs) == 3 for idxs, _, _ in ev.higher)
    # Answer-free boxes that hold a plain hom, the ones the answer search
    # spares their colour searches, under every kind of cover.
    assert min(certified[kind] for kind in ("k2", "clique", "mixed")) >= 10, certified
    assert min(seen.values()) >= 100, seen


def test_certified_box_keeps_answer_stats_and_stream():
    # A box that holds a plain hom but no answer takes no colour search on
    # bruteforce, yet ends as the reference that searches every sample. A
    # cover with a clique of k >= 3 is decided with no draw at all, and its
    # sampler, run directly and unsearched, ends as the reference.
    done = collections.Counter()
    for seed, (kind, ih, vs) in enumerate(_random_boxes(range(300))):
        ev = ih.evaluator("bruteforce")
        masks = layer_masks(ih, vs)
        if done[kind] == 3 or not all(masks) or ev.compile(masks)(()) is None:
            continue
        if ev.answer_in(masks) is not None:
            continue
        done[kind] += 1
        rng, ref_rng = random.Random(seed), random.Random(seed)
        stats, ref_stats = OracleStats(), OracleStats()
        assert edgefree_restricted(ih, masks, 0.3, rng, "bruteforce", stats)
        assert edgefree_every_sample(ih, masks, 0.3, ref_rng, "bruteforce", ref_stats)
        q_reps = clique_repetitions(ev.clique_sizes, 0.3)
        assert ref_stats.colourings_sampled == q_reps
        if ev.exact:
            assert stats == OracleStats(edgefree_calls=1, hom_calls=1)
            assert rng.getstate() == random.Random(seed).getstate()
            assert _run_sampler(ih, ev, masks, 0.3, rng, search=False) == 0
        else:
            # The reference makes no search before colouring.
            ref_stats.hom_calls += 1
            assert stats == ref_stats
            assert stats.hom_calls == 1 + q_reps
        assert rng.getstate() == ref_rng.getstate()
    assert done == {"k2": 3, "clique": 3, "mixed": 3}


def test_bruteforce_decides_clique_boxes_exactly():
    # A cover with a clique of k >= 3 takes no colour sample on bruteforce:
    # the box's answer is edgefree_bruteforce's, the generator is untouched,
    # and a box counts one hom call (none with an empty layer) and no
    # colouring. The K4 boxes hold an answer, and a witness but no answer
    # (the walks 0-1-0-1); each runs twice, so the second time the answer
    # the evaluator kept lies in the box or outside it.
    ham = ImplicitAnswerHypergraph(*gen_hampath(K4, 4))
    full, walks = ((0, 1, 2, 3),) * 4, ((0,), (0, 1, 2, 3), (0,), (0, 1, 2, 3))
    cases = [(ham, vs) for vs in (full, walks, full, walks)]
    cases += [(ih, vs) for kind, ih, vs in _random_boxes(range(300)) if kind != "k2"]
    seen = collections.Counter()
    for n, (ih, vs) in enumerate(cases):
        ev = ih.evaluator("bruteforce")
        assert ev.exact and max(ev.clique_sizes) >= 3
        masks = layer_masks(ih, vs)
        truth = edgefree_bruteforce(ih, restricted_parts(ih, vs))
        rng = random.Random(n)
        state = rng.getstate()
        stats = OracleStats(edgefree_calls=5, colourings_sampled=7, hom_calls=11)
        assert edgefree_restricted(ih, masks, 0.3, rng, "bruteforce", stats) == truth, n
        assert rng.getstate() == state, n
        assert stats == OracleStats(
            edgefree_calls=6, colourings_sampled=7, hom_calls=11 + all(masks)
        ), n
        hom = all(masks) and ev.compile(masks)(()) is not None
        seen["answer" if not truth else "witness, no answer" if hom else "no witness"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 30, seen


@pytest.mark.parametrize("k, delta_prime, message", [
    (256, 0.5, "255 are supported"),
    (4, math.ulp(0.0), "any finite number of samples"),
])
def test_exact_clique_box_still_raises_budget_errors(k, delta_prime, message):
    # The exact path asks repetitions() first, so a clique of 256 variables
    # and a delta_prime whose inverse overflows raise before any answer.
    ih = ImplicitAnswerHypergraph(*gen_hampath([(i, i + 1) for i in range(k - 1)], k))
    ev = ih.evaluator("bruteforce")
    assert ev.exact and ev.clique_sizes == [k]
    rng, stats = random.Random(0), OracleStats()
    state = rng.getstate()
    with pytest.raises(BudgetExceededError, match=message):
        edgefree_restricted(ih, ih.full_box(), delta_prime, rng, "bruteforce", stats)
    assert rng.getstate() == state
    assert stats == OracleStats(edgefree_calls=1, hom_calls=1)


def _full_answers(ih: ImplicitAnswerHypergraph) -> dict:
    """Each answer's free values, mapped to the value indices of one full
    assignment that extends it."""
    ev = ih.evaluator("bruteforce")
    return {a: ev.answer_in(layer_masks(ih, [(w,) for w in a])) for a in answers(ih)}


def _k2_boxes():
    """(ih, value sets) of seeded boxes over P3 and P4 lihom, and over the
    random queries of _random_boxes whose cover holds K2s only."""
    for pattern in (P3, P4):
        ih = ImplicitAnswerHypergraph(*gen_li_hom(pattern, _circulant(7)))
        rng = random.Random(len(pattern))
        for _ in range(40):
            yield ih, [tuple(w for w in ih.domain if rng.random() < 0.6) for _ in range(ih.ell)]
    for kind, ih, vs in _random_boxes(range(300)):
        if kind == "k2":
            yield ih, vs


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_k2_samples_end_as_every_sample_whatever_answer_is_known(backend):
    # ev.last is only a hint: an answer in the box, one outside it, or none
    # must leave the answer, the counters and the stream as the reference
    # that searches every sample leaves them.
    seen = collections.Counter()
    for n, (ih, vs) in enumerate(_k2_boxes()):
        ev = ih.evaluator(backend)
        assert ev.one_size == 2
        masks = layer_masks(ih, vs)
        hom = all(masks) and ev.compile(masks)(()) is not None
        full = _full_answers(ih)
        ranked = sorted(full, key=repr)
        inside = [a for a in ranked if all(w in layer for w, layer in zip(a, vs))]
        outside = [a for a in ranked if a not in inside]
        pick = random.Random(n).choice
        for where, pool in (("inside", inside), ("outside", outside), ("none", [None])):
            if not pool:
                continue
            a = pick(pool)
            ev.last = None if a is None else full[a]
            seen[where] += 1
            q = ih.query
            seen["negated binary"] += any(sym.arity == 2 for sym, _ in q.negated_predicates)
            seen["ternary"] += any(len(idxs) == 3 for idxs, _, _ in ev.higher)
            rng, ref_rng = random.Random(n), random.Random(n)
            stats, ref_stats = OracleStats(), OracleStats()
            got = edgefree_restricted(ih, masks, 0.05, rng, backend, stats)
            ref = edgefree_every_sample(ih, masks, 0.05, ref_rng, backend, ref_stats)
            # The reference makes no search before colouring, and a box with
            # no hom there runs that search alone.
            ref_stats.hom_calls = ref_stats.hom_calls + 1 if hom else int(all(masks))
            assert got == ref, (n, where)
            assert stats == ref_stats, (n, where)
            assert rng.getstate() == ref_rng.getstate(), (n, where)
    assert min(seen.values()) >= 30, seen


def _first_keeping(index, a: int, b: int, at: int) -> int:
    """A seed whose getrandbits(4) draws of random.Random(seed) first have
    bit index[a] set and bit index[b] clear at draw `at` (from 0)."""
    for seed in range(1000):
        rng = random.Random(seed)
        draws = [rng.getrandbits(4) for _ in range(at + 1)]
        keeps = [bool(red >> index[a] & 1 and not red >> index[b] & 1) for red in draws]
        if True in keeps and keeps.index(True) == at:
            return seed
    raise AssertionError(f"no seed keeps {a} red and {b} blue first at draw {at}")


def test_known_answer_in_box_settles_it_without_a_search(monkeypatch):
    # (0, 1, 2) is an answer of P3 lihom over C4. Held by ev.last, it is
    # what the search before colouring returns, so answer_in does not run;
    # the first sample keeps 0 red and 2 blue, so its search returns it too.
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, C4))
    ev = ih.evaluator("bruteforce")
    index = {w: i for i, w in enumerate(ih.domain)}
    last = ev.last = (index[0], index[1], index[2])
    returned = []
    searched, answered = _spy_searches(monkeypatch, ev, returned)
    seed = _first_keeping(index, 0, 2, 0)
    masks = layer_masks(ih, [ih.domain] * 3)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    stats, ref_stats = OracleStats(), OracleStats()
    assert not edgefree_restricted(ih, masks, 0.05, rng, stats=stats)
    assert len(searched) == 2 and searched[0] == ev._box(masks) and answered == []
    assert all(found is last for found in returned) and ev.last is last
    assert stats == OracleStats(edgefree_calls=1, colourings_sampled=1, hom_calls=2)
    monkeypatch.undo()
    assert not edgefree_every_sample(ih, masks, 0.05, ref_rng, stats=ref_stats)
    assert rng.getstate() == ref_rng.getstate()


def test_k2_sample_that_empties_a_domain_runs_no_search(monkeypatch):
    # x0 = 0 and x2 = 2 on P3 lihom over C4: a sample leaves both a value
    # only with 0 red and 2 blue, here first at the third sample. The two
    # before it are not searched. The search before colouring finds the
    # answer (0, 1, 2) and keeps it as ev.last, and the third sample's
    # search returns that tuple itself.
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, C4))
    ev = ih.evaluator("bruteforce")
    index = {w: i for i, w in enumerate(ih.domain)}
    returned = []
    searched, answered = _spy_searches(monkeypatch, ev, returned)
    seed = _first_keeping(index, 0, 2, 2)
    masks = layer_masks(ih, ((0,), (1, 3), (2,)))
    stats = OracleStats()
    assert not edgefree_restricted(ih, masks, 0.05, random.Random(seed), stats=stats)
    assert stats == OracleStats(edgefree_calls=1, colourings_sampled=3, hom_calls=4)
    assert ev.last == (index[0], index[1], index[2])
    assert len(searched) == 2 and searched[0] == ev._box(masks)
    assert len(returned) == 2 and all(found is ev.last for found in returned)
    assert answered == []


def test_box_settled_by_its_own_search_runs_no_second_search(monkeypatch):
    # x0 = 0, x1 = 1 and x2 = 2 on P3 lihom over C4: the search before
    # colouring finds the answer (0, 1, 2) and keeps it as ev.last, which
    # settles the box: answer_in does not run, and the one sample searched,
    # the first to keep 0 red and 2 blue, returns that tuple itself.
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, C4))
    ev = ih.evaluator("bruteforce")
    index = {w: i for i, w in enumerate(ih.domain)}
    calls, returned = [], []
    search = ev._bruteforce_search

    def counted_search(dom, distinct=False):
        calls.append(distinct)
        returned.append(search(dom, distinct))
        return returned[-1]

    monkeypatch.setattr(ev, "_bruteforce_search", counted_search)
    monkeypatch.setattr(ev, "_search", counted_search)
    masks = layer_masks(ih, ((0,), (1,), (2,)))
    for at in range(3):
        ev.last = None
        del calls[:], returned[:]
        stats = OracleStats()
        seed = _first_keeping(index, 0, 2, at)
        assert not edgefree_restricted(ih, masks, 0.05, random.Random(seed), stats=stats)
        assert ev.last == (index[0], index[1], index[2])
        # The search before colouring and the sample's, with no
        # distinct=True search (answer_in); the sample's returns ev.last.
        assert calls == [False, False], at
        assert returned[0] is returned[1] is ev.last, at
        assert stats == OracleStats(
            edgefree_calls=1, colourings_sampled=at + 1, hom_calls=at + 2
        )


def _seeded_run(q, d, seed, monkeypatch, forget):
    """approx_count_answers on bruteforce: the estimate, its OracleStats, the
    end state of every generator it derives, and how many searches returned
    the answer the evaluator already held. With forget, ev.last is cleared
    before every search, so none can return a held answer."""
    plain = reduction._Evaluator._bruteforce_search
    rngs, hits = [], [0]

    def search(self, dom, distinct=False):
        if forget:
            self.last = None
        last = self.last
        found = plain(self, dom, distinct)
        hits[0] += found is not None and found is last
        return found

    def derived(*path):
        rngs.append(derive_rng(*path))
        return rngs[-1]

    monkeypatch.setattr(reduction._Evaluator, "_bruteforce_search", search)
    monkeypatch.setattr(reduction, "derive_rng", derived)
    stats = OracleStats()
    got = approx_count_answers(q, d, 0.3, 0.2, seed=seed, stats=stats)
    monkeypatch.undo()
    return (got, stats, [rng.getstate() for rng in rngs]), hits[0]


def test_runs_end_alike_whatever_answer_the_search_holds(monkeypatch):
    # ev.last is a pure cache: a run whose searches never return a held
    # answer gives the same estimate, counters and generator states as
    # one where they do, under every cover shape.
    named = [gen_li_hom(P3, C4), gen_li_hom(P4, _circulant(7)), gen_hampath(K4, 4),
             gen_hampath(list(itertools.combinations(range(5), 2)), 5), k3_with_pendant()]
    corpus = [corpus_instance(30_000 + seed, max_vars=5, max_diseq=10, max_neg=2)
              for seed in range(300)]
    seen = collections.Counter()
    for seed, (q, d) in enumerate(named + corpus):
        ev = ImplicitAnswerHypergraph(q, d).evaluator("bruteforce")
        if not ev.cliques:
            continue
        run, hits = _seeded_run(q, d, seed, monkeypatch, forget=False)
        forgot, none = _seeded_run(q, d, seed, monkeypatch, forget=True)
        assert run == forgot, seed
        assert none == 0
        kind = {2: "k2", 0: "mixed"}.get(ev.one_size, "clique")
        seen[kind] += hits > 0
        seen["negated"] += hits > 0 and bool(q.negated_predicates)
        seen["ternary"] += hits > 0 and any(len(idxs) == 3 for idxs, _, _ in ev.higher)
    assert min(seen[k] for k in ("k2", "clique", "mixed", "negated", "ternary")) >= 5, seen


@pytest.mark.parametrize("text,sizes", [
    ("q(x, y, z) :- E(x, y), E(y, z), x != y, y != z, x != z", [3]),
    ("q(a, b, c, e) :- E(a, b), E(c, e), "
     "a != b, a != c, a != e, b != c, b != e, c != e", [4]),
    ("q(a, b, c, e) :- E(a, b), E(c, e), a != b, b != c, a != c, c != e", [3, 2]),
])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_colouring_with_an_empty_class_has_no_witness(text, sizes, n):
    # edgefree_restricted skips such a colouring unsearched; this is why.
    values = range(n)
    d = Database.make(values, {"E": (2, list(itertools.product(values, repeat=2)))})
    ih = ImplicitAnswerHypergraph(parse_query(text), d)
    per_clique = [
        [
            [sum(1 << v for v in values if colours[v] == c) for c in range(k)]
            for colours in itertools.product(range(k), repeat=n)
        ]
        for k in sizes
    ]
    full = (1 << n) - 1
    for backend in HOM_BACKENDS:
        ev = ih.evaluator(backend)
        assert ev.clique_sizes == sizes
        found = 0
        for masks in ([full] * ih.ell, [full, 0b011] + [full] * (ih.ell - 2)):
            search = ev.compile(masks)
            for classes in itertools.product(*per_clique):
                witness = search(ev.red_masks(list(classes)))
                if not all(map(all, classes)):
                    assert witness is None, (backend, masks, classes)
                found += witness is not None
        # Over enough values the non-empty colourings do find witnesses.
        assert found or n < max(sizes)


@pytest.mark.parametrize("backend", HOM_BACKENDS)
@pytest.mark.parametrize("box", [
    # x1 = x3 = 0: walks such as 0-1-0-1 are homs but no answer, so every
    # sample is drawn; td-dp searches the non-empty ones, and bruteforce,
    # which proves the box answer-free before colouring, none.
    ((0,), (0, 1, 2, 3), (0,), (0, 1, 2, 3)),
    # The full box has answers: the loop stops at the first witness.
    ((0, 1, 2, 3),) * 4,
])
def test_clique_search_runs_only_for_colourings_with_no_empty_class(
    monkeypatch, backend, box
):
    ih = ImplicitAnswerHypergraph(*gen_hampath(K4, 4))
    ev = ih.evaluator(backend)
    assert ev.clique_sizes == [4]
    # The search before colouring calls ev._search, recorded as (); each
    # colour search calls what ev.compile returns, recorded by its red masks.
    searched = []
    search, compile_ = ev._search, ev.compile

    def uncoloured(dom):
        searched.append(())
        return search(dom)

    def counting_compile(layer_masks):
        # Its callable keeps the unwrapped search, so a colour search is
        # recorded once.
        ev._search = search
        run = compile_(layer_masks)
        ev._search = uncoloured

        def counted(colour_masks):
            searched.append(colour_masks)
            return run(colour_masks)

        return counted

    monkeypatch.setattr(ev, "_search", uncoloured)
    monkeypatch.setattr(ev, "compile", counting_compile)
    masks = layer_masks(ih, box)
    rng, stats = derive_rng(5, len(box[0])), OracleStats()
    got = edgefree_restricted(ih, masks, 0.3, rng, backend, stats)
    sampled = stats.colourings_sampled
    if ev.exact:
        # bruteforce decides the box with no draw. Its sampler, run directly
        # and searching only a box with an answer, draws the samples.
        assert stats == OracleStats(edgefree_calls=1, hom_calls=1)
        assert rng.getstate() == derive_rng(5, len(box[0])).getstate()
        drawn_upto = _run_sampler(ih, ev, masks, 0.3, rng, search=not got)
        sampled = drawn_upto or ev.repetitions(0.3)
        assert got == (not drawn_upto)
    monkeypatch.undo()
    # The colourings drawn, one at a time from a twin generator, up to the
    # state the run left rng in.
    twin, drawn = derive_rng(5, len(box[0])), []
    while twin.getstate() != rng.getstate() and len(drawn) <= sampled:
        drawn.append(colour_classes(twin, 4, len(ih.domain)))

    # The reference sends every colouring through red_masks and the search,
    # and makes no search before colouring.
    ref_rng, ref_stats = derive_rng(5, len(box[0])), OracleStats()
    ref = edgefree_every_sample(ih, masks, 0.3, ref_rng, backend, ref_stats)
    assert got == ref
    assert sampled == ref_stats.colourings_sampled
    if not ev.exact:
        ref_stats.hom_calls += 1
        assert stats == ref_stats
    assert rng.getstate() == ref_rng.getstate()
    # The search before colouring, then one per distinct colouring with
    # every class non-empty, in the order first drawn, with its red masks.
    full = [classes for classes in drawn if all(classes)]
    distinct = dict.fromkeys(tuple(classes) for classes in full)
    if backend == "bruteforce" and len(box[0]) == 1:
        assert searched == [()]
    else:
        assert searched == [()] + [ev.red_masks([classes]) for classes in distinct]
    assert len(searched) <= 1 + 4 * 3 * 2
    assert len(drawn) == sampled
    assert len(full) < len(drawn) // 2


def test_repetition_count_out_of_float_range_is_a_budget_error():
    with pytest.raises(BudgetExceededError, match="samples"):
        clique_repetitions((3,), 1e-310)
    assert clique_repetitions((3,), 1e-300) == math.ceil(math.log(1e300)) * 27


# ---------------------------------------------------------------------------
# Counting from the oracle
# ---------------------------------------------------------------------------

def test_count_edges_exact_oracle_matches_bruteforce():
    for seed in range(60):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        assert count_edges_exact_oracle(ih, exact_oracle(ih)) == len(answers(ih))


def _run(lo: int, hi: int) -> int:
    """The mask of the value indices lo..hi-1."""
    return sum(1 << i for i in range(lo, hi))


def test_halving_splits_the_lowest_long_interval():
    # Every visited box is one non-empty contiguous run of values per layer,
    # the mask of an index interval. A split box's halves cut its lowest
    # layer of two or more values in two, the left one taking the odd value,
    # and keep every other layer; the counter counts exactly the all-unit
    # boxes that hold an edge.
    for seed in range(60):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        n = len(ih.domain)
        oracle = exact_oracle(ih)
        visited: dict = {}

        def record(box):
            assert box not in visited, (seed, box)
            visited[box] = oracle(box)
            return visited[box]

        count = count_edges_exact_oracle(ih, record)
        units = set()
        for box, free in visited.items():
            assert len(box) == ih.ell
            bounds = [((m & -m).bit_length() - 1, m.bit_length()) for m in box]
            assert all(0 <= lo < hi <= n for lo, hi in bounds), (seed, box)
            assert box == tuple(_run(lo, hi) for lo, hi in bounds), (seed, box)
            long = [i for i, (lo, hi) in enumerate(bounds) if hi - lo >= 2]
            if not long:
                assert _halves(box) == ()
                if not free:
                    units.add(tuple(ih.domain[lo] for lo, _ in bounds))
                continue
            i = long[0]
            (lo, hi), (left, right) = bounds[i], _halves(box)
            rest = box[:i] + box[i + 1 :]
            assert left[:i] + left[i + 1 :] == rest == right[:i] + right[i + 1 :]
            mid = lo + (hi - lo + 1) // 2
            assert (left[i], right[i]) == (_run(lo, mid), _run(mid, hi)), (seed, box)
            if not free:
                assert left in visited and right in visited, (seed, box)
        assert count == len(units), seed
        assert units == answers(ih), seed


def test_count_edges_call_budget_bound():
    import math

    for seed in range(60):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        calls = 0

        def counting(box, _o=exact_oracle(ih)):
            nonlocal calls
            calls += 1
            return _o(box)

        edges = count_edges_exact_oracle(ih, counting)
        log_u = math.ceil(math.log2(len(d.domain))) if len(d.domain) > 1 else 0
        assert calls <= 2 * (edges + 1) * ih.ell * log_u + 1


def test_count_edges_edge_free_is_one_call():
    q = parse_query("phi(x) :- U(x)")
    d = Database.make([0, 1, 2, 3], {"U": (1, [])})
    ih = ImplicitAnswerHypergraph(q, d)
    calls = 0

    def counting(box):
        nonlocal calls
        calls += 1
        return exact_oracle(ih)(box)

    assert count_edges_exact_oracle(ih, counting) == 0
    assert calls == 1


def test_count_edges_budget_error():
    q, d = gen_hampath(K4, 4)
    from cqcount import normalize_equalities

    q, _ = normalize_equalities(q)
    ih = ImplicitAnswerHypergraph(q, d)
    with pytest.raises(BudgetExceededError):
        count_edges_exact_oracle(ih, exact_oracle(ih), budget=3)


def test_single_walk_zero_on_edge_free():
    q = parse_query("phi(x) :- U(x)")
    d = Database.make([0, 1], {"U": (1, [])})
    ih = ImplicitAnswerHypergraph(q, d)
    assert single_walk_estimate(ih, exact_oracle(ih), random.Random(0)) == 0


def test_single_walk_zero_when_no_child_is_alive():
    # The oracle may wrongly call both children of a non-edge-free box
    # edge-free; the walk then has nowhere to go and its product is 0.
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, C4))
    full = ih.full_box()
    assert single_walk_estimate(ih, lambda box: box != full, random.Random(0)) == 0


def test_single_walk_mean_near_edge_count():
    q = parse_query("phi(x,y) :- E(x,y)")
    d = Database.make(
        [0, 1, 2, 3],
        {"E": (2, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])},
    )
    ih = ImplicitAnswerHypergraph(q, d)
    oracle = exact_oracle(ih)
    walks = [
        single_walk_estimate(ih, oracle, derive_rng(42, k)) for k in range(3000)
    ]
    mean = statistics.fmean(walks)
    assert len(answers(ih)) == 5
    assert abs(mean - 5) <= 0.4


def test_two_child_step_draws_as_choice_does():
    # single_walk_estimate takes a step between two live children with
    # getrandbits(2) redrawn until below 2, which is what rng.choice over
    # two draws; the walks' seeded estimates rest on this on every Python.
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            pick = rng.getrandbits(2)
            while pick > 1:
                pick = rng.getrandbits(2)
            assert ("a", "b")[pick] == ref.choice(("a", "b")), seed
        assert rng.getstate() == ref.getstate(), seed


def _first_asked(ih, rng, backend="bruteforce"):
    """A memoized randomized oracle, as approx_count_answers builds one, that
    records each box the first time it is asked."""
    memo, asked = {}, []

    def oracle(box):
        if box not in memo:
            asked.append(box)
            memo[box] = edgefree_restricted(ih, box, 0.01, rng, backend)
        return memo[box]

    return oracle, asked


def test_walks_sharing_a_cache_match_walks_with_fresh_ones():
    # Shared or not, the cache only drops repeat questions: the estimates,
    # the distinct boxes the oracle is first asked about, in order, and so
    # the oracle's random stream are those of walks that split every box.
    cases = [corpus_instance(seed) for seed in range(20)]
    cases += [gen_li_hom(P3, _circulant(9)), gen_li_hom(P4, _circulant(8))]
    for q, d in cases:
        ih = ImplicitAnswerHypergraph(q, d)
        runs = []
        for shared in (True, False):
            oracle, asked = _first_asked(ih, random.Random(5))
            live = {} if shared else None
            walks = [
                single_walk_estimate(ih, oracle, derive_rng(11, k), live)
                for k in range(200)
            ]
            runs.append((walks, asked))
        assert runs[0] == runs[1]


def test_walk_cache_keeps_dead_ends_and_leaves():
    ih = ImplicitAnswerHypergraph(*gen_li_hom(P3, C4))
    full = ih.full_box()
    asked = []

    def dead(box):
        asked.append(box)
        return box != full

    live: dict = {}
    assert single_walk_estimate(ih, dead, random.Random(0), live) == 0
    assert live == {full: ()}
    # A later walk reads the dead end from the cache: 0 again, and the
    # oracle is asked only about the full box.
    del asked[:]
    assert single_walk_estimate(ih, dead, random.Random(1), live) == 0
    assert asked == [full]
    # A box of single values is a leaf, not a dead end: its walk counts 1.
    d = Database.make([0], {"E": (2, [(0, 0)])})
    one = ImplicitAnswerHypergraph(parse_query("phi(x) :- E(x, x)"), d)
    live = {}
    for seed in range(2):
        assert single_walk_estimate(one, lambda box: False, random.Random(seed), live) == 1
    assert list(live) == [one.full_box()]


def test_estimate_edges_starts_each_call_with_a_fresh_cache(monkeypatch):
    seen = []
    walk = reduction.single_walk_estimate

    def spy(ih, edgefree, rng, live=None):
        if not seen or seen[-1][0] is not live:
            seen.append((live, len(live)))
        return walk(ih, edgefree, rng, live)

    monkeypatch.setattr(reduction, "single_walk_estimate", spy)
    q, d = corpus_instance(4)
    ih = ImplicitAnswerHypergraph(q, d)
    for _ in range(2):
        estimate_edges(ih, exact_oracle(ih), 0.25, 0.1, derive_rng(7, 4), probe_budget=0)
    # One dict per call, each empty at the call's first walk.
    assert len(seen) == 2 and seen[0][0] is not seen[1][0]
    assert [size for _, size in seen] == [0, 0]


def test_estimate_edges_reseeds_each_walk_to_its_derived_stream(monkeypatch):
    # Walk i of an estimate draws from the stream of derive_rng(base, i),
    # base the first 64 bits the estimate's rng gives after the probe.
    states = []
    walk = reduction.single_walk_estimate

    def spy(ih, edgefree, rng, live=None):
        states.append(rng.getstate())
        return walk(ih, edgefree, rng, live)

    monkeypatch.setattr(reduction, "single_walk_estimate", spy)
    q, d = corpus_instance(4)
    ih = ImplicitAnswerHypergraph(q, d)
    for seed in range(3):
        del states[:]
        estimate_edges(ih, exact_oracle(ih), 0.25, 0.1, random.Random(seed), probe_budget=0)
        base = random.Random(seed).getrandbits(64)
        assert len(states) > 48
        for i in (0, 1, 47, len(states) - 1):
            got, ref = random.Random(), derive_rng(base, i)
            got.setstate(states[i])
            assert [got.getrandbits(32) for _ in range(8)] == [
                ref.getrandbits(32) for _ in range(8)
            ], (seed, i)
            assert random.Random(_derived_seed(base, i)).getstate() == states[i]


def test_estimate_edges_probe_path_is_exact():
    for seed in range(30):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        got = estimate_edges(
            ih, exact_oracle(ih), 0.25, 0.1, random.Random(1), probe_budget=50_000
        )
        assert got == len(answers(ih))


def test_estimate_edges_walk_path_frozen_seeds():
    stats = OracleStats()
    for seed in range(12):
        q, d = corpus_instance(seed, max_domain=3)
        ih = ImplicitAnswerHypergraph(q, d)
        true = len(answers(ih))
        got = estimate_edges(
            ih,
            exact_oracle(ih),
            0.25,
            0.1,
            derive_rng(7, seed),
            probe_budget=0,
            stats=stats,
        )
        assert abs(got - true) <= 0.25 * true, (seed, got, true)
    assert stats.estimator_walks >= 48 * 12


def test_estimate_edges_walk_budget_raises_before_walking():
    q, d = corpus_instance(4)  # 3 answers; this seed's estimate takes 750 walks

    def estimate(budget, stats):
        ih = ImplicitAnswerHypergraph(q, d)
        return estimate_edges(
            ih, exact_oracle(ih), 0.25, 0.1, derive_rng(7, 4),
            probe_budget=0, stats=stats, walk_budget=budget,
        )

    # 10 stops before the 48 pilot walks, 749 right after them.
    for budget, walked in ((10, 0), (749, 48)):
        stats = OracleStats()
        with pytest.raises(BudgetExceededError, match="walk budget"):
            estimate(budget, stats)
        assert stats.estimator_walks == walked
    stats = OracleStats()
    assert estimate(750, stats) == 3
    assert stats.estimator_walks == 750


# ---------------------------------------------------------------------------
# End-to-end approximate counting
# ---------------------------------------------------------------------------

def test_approx_count_matches_bruteforce_frozen_seeds():
    for seed in range(30):
        q, d = corpus_instance(seed)
        true = count_answers_bruteforce(q, d)
        got = approx_count_answers(q, d, 0.3, 0.2, seed=1000 + seed)
        assert abs(got - true) <= 0.3 * true, (seed, got, true)


def test_approx_count_deterministic():
    q, d = corpus_instance(3)
    a = approx_count_answers(q, d, 0.3, 0.2, seed=5)
    b = approx_count_answers(q, d, 0.3, 0.2, seed=5)
    assert a == b


def test_approx_count_restarts_on_tiny_cap():
    q, d = gen_hampath(K4, 4)
    from cqcount import normalize_equalities

    q, _ = normalize_equalities(q)
    stats = OracleStats()
    got = approx_count_answers(
        q, d, 0.3, 0.2, seed=2, stats=stats, initial_cap=4, probe_budget=2_000
    )
    assert got == 24
    assert stats.restarts >= 1


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_approx_count_restart_during_walks_golden(backend):
    # Seed 7 with probe_budget 0 and a cap of 100 runs out during the walks
    # of attempt 0; attempt 1 walks with a fresh oracle and a fresh walk
    # cache. Numbers recorded before the walks kept a cache.
    q, d = gen_li_hom(P3, _circulant(7))
    stats = OracleStats()
    got = approx_count_answers(
        q, d, 0.25, 0.1, seed=7, backend=backend, stats=stats,
        probe_budget=0, initial_cap=100,
    )
    assert got == 85
    assert stats.as_dict() == {
        "edgefree_calls": 475, "colourings_sampled": 5435, "hom_calls": 2662,
        "estimator_walks": 2470, "restarts": 1,
    }


def test_approx_count_gives_up_after_max_attempts(monkeypatch):
    # A cap of 1, then 4, runs out on each attempt's probe, so the restart
    # loop ends in its own error, having counted a restart per attempt.
    monkeypatch.setattr(reduction, "MAX_ATTEMPTS", 2)
    q, d = gen_li_hom(P3, _circulant(7))
    stats = OracleStats()
    with pytest.raises(BudgetExceededError, match="after 2 attempts"):
        approx_count_answers(q, d, 0.25, 0.1, seed=7, stats=stats, initial_cap=1)
    assert stats.restarts == 2


@pytest.mark.parametrize("cap", [0, -1])
def test_approx_count_refuses_a_cap_below_one(cap):
    # A cap of 0 used to divide by zero; -1 ran 8 empty attempts and ended
    # in a BudgetExceededError about an exhausted cap.
    q, d = gen_li_hom(P3, _circulant(7))
    stats = OracleStats()
    with pytest.raises(ValueError, match="initial_cap must be at least 1"):
        approx_count_answers(q, d, 0.25, 0.1, seed=7, stats=stats, initial_cap=cap)
    assert stats == OracleStats()


@pytest.mark.parametrize("backend", HOM_BACKENDS)
@pytest.mark.parametrize("probe", [20_000, 0])
def test_approx_count_mixed_clique_cover(backend, probe):
    q, d = k3_with_pendant()
    true = count_answers_bruteforce(q, d)
    got = approx_count_answers(q, d, 0.3, 0.2, seed=3, backend=backend, probe_budget=probe)
    assert abs(got - true) <= 0.3 * true, (got, true)


def test_approx_count_td_backend_agrees():
    for seed in (0, 4, 9):
        q, d = corpus_instance(seed)
        a = approx_count_answers(q, d, 0.3, 0.2, seed=6, backend="bruteforce")
        b = approx_count_answers(q, d, 0.3, 0.2, seed=6, backend="td-dp")
        assert a == b
    # hampath over paths: one K3 and one K4 disequality clique, which
    # bruteforce decides with no colour sample and td-dp colour-codes, so
    # the two agree on the estimate and on the counters that count no
    # sample. The 17-variable path's one K2 is colour-coded on both, so
    # both must consume its colour draws alike.
    cases = [
        (*gen_hampath([(i, i + 1) for i in range(n - 1)], n), 2) for n in (3, 4)
    ] + [(*_path17(), 12)]
    for q, d, expected in cases:
        runs = []
        for backend in ("bruteforce", "td-dp"):
            stats = OracleStats()
            est = approx_count_answers(
                q, d, 0.3, 0.2, seed=6, backend=backend, stats=stats
            )
            runs.append((est, stats.as_dict()))
        if ImplicitAnswerHypergraph(q, d).evaluator("bruteforce").exact:
            assert runs[0][1]["colourings_sampled"] == 0 < runs[1][1]["colourings_sampled"]
            keys = ("edgefree_calls", "estimator_walks", "restarts")
            runs = [(est, {k: stats[k] for k in keys}) for est, stats in runs]
        assert runs[0] == runs[1]
        assert runs[0][0] == expected


def _path17():
    """A 17-variable path query, past treewidth_exact's 16 vertices, so td-dp
    decomposes it by min-fill."""
    xs = [f"x{i}" for i in range(17)]
    body = ", ".join(f"E({a},{b})" for a, b in zip(xs, xs[1:]))
    return (
        parse_query(f"q(x0, x16) :- {body}, x0 != x16"),
        Database.make(
            [0, 1, 2, 3],
            {"E": (2, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 1)])},
        ),
    )


def _circulant(n: int) -> list[tuple[int, int]]:
    """The 4-regular graph joining each i to i +- 1 and i +- 2 mod n."""
    return sorted({
        (min(i, (i + j) % n), max(i, (i + j) % n)) for i in range(n) for j in (1, 2)
    })


# Estimates and oracle counters of seed 7 as recorded before the evaluator
# compiled its search once per box. Each box must still draw the same
# colourings in the same order, so none of these may move. hom_calls alone
# was re-recorded when it became the searches run: a box with no witness
# before colouring runs one search and skips its colour searches. Both
# backends answer every search alike, so the td-dp rows repeat the
# bruteforce numbers, but for ham-p4: its cover is one K4, which bruteforce
# decides with no colour sample, so its bruteforce row was re-recorded with
# no colourings and one hom call per box. The p3-c40 rows, recorded before
# skipped boxes drew all their samples in one call, pin a domain wider than
# one 32-bit word.
# The p3-c12 rows run out of their 50-query probe, so the walks run after
# an exhausted probe (the exact count is 144).
GOLDEN_RUNS = [
    ("p3-c7", P3, 7, "bruteforce", 20000, 84, (375, 6688, 2807, 0)),
    ("p3-c7", P3, 7, "bruteforce", 0, 82, (375, 6674, 2793, 2527)),
    ("p3-c7", P3, 7, "td-dp", 20000, 84, (375, 6688, 2807, 0)),
    ("p3-c7", P3, 7, "td-dp", 0, 82, (375, 6674, 2793, 2527)),
    ("p4-c8", P4, 8, "bruteforce", 20000, 288, (1487, 115639, 43654, 0)),
    ("p4-c8", P4, 8, "bruteforce", 0, 284, (1487, 114858, 42873, 2661)),
    ("p3-c40", P3, 40, "bruteforce", 0, 471, (3543, 79470, 19621, 4470)),
    ("p3-c40", P3, 40, "td-dp", 0, 471, (3543, 79470, 19621, 4470)),
    ("p3-c12", P3, 12, "bruteforce", 50, 143, (807, 16397, 5332, 4470)),
    ("p3-c12", P3, 12, "td-dp", 50, 143, (807, 16397, 5332, 4470)),
    ("ham-p4", P4, 4, "bruteforce", 20000, 2, (31, 0, 31, 0)),
    ("ham-p4", P4, 4, "td-dp", 20000, 2, (31, 53870, 25229, 0)),
]


@pytest.mark.parametrize(
    "name,pattern,n,backend,probe,estimate,counts",
    GOLDEN_RUNS,
    ids=[f"{r[0]}-{r[3]}-probe{r[4]}" for r in GOLDEN_RUNS],
)
def test_approx_count_golden_seeded_runs(name, pattern, n, backend, probe, estimate, counts):
    if name.startswith("ham"):
        q, d = gen_hampath(pattern, n)
    else:
        q, d = gen_li_hom(pattern, _circulant(n))
    stats = OracleStats()
    got = approx_count_answers(
        q, d, 0.25, 0.1, seed=7, backend=backend, stats=stats, probe_budget=probe
    )
    keys = ("edgefree_calls", "colourings_sampled", "hom_calls", "estimator_walks")
    assert got == estimate
    assert stats.as_dict() == dict(zip(keys, counts), restarts=0)


@pytest.mark.parametrize("backend", HOM_BACKENDS)
def test_approx_count_empty_domain(backend):
    # The full box is (0, 0) per layer, mask 0; a Boolean query has no layer.
    d = Database.make([], {"E": (2, [])})
    for text in (
        "phi(x, y) :- E(x, y), x != y",
        "phi() :- E(x, y), x != y",
        # A K3 and a K2: each skipped sample colours the empty domain.
        "phi() :- E(a, b), E(c, e), a != b, b != c, a != c, c != e",
    ):
        q = parse_query(text)
        assert approx_count_answers(q, d, 0.3, 0.2, seed=0, backend=backend) == 0


def test_approx_count_boolean_query():
    q = parse_query("phi() :- E(x,y), x != y")
    d = Database.make([0, 1], {"E": (2, [(0, 1)])})
    assert approx_count_answers(q, d, 0.3, 0.2, seed=0) == 1
    d2 = Database.make([0, 1], {"E": (2, [(0, 0)])})
    assert approx_count_answers(q, d2, 0.3, 0.2, seed=0) == 0
