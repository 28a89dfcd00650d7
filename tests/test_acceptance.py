"""Acceptance suite: twelve desk-scale correctness gates, one per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible under
``pytest -s`` or in the captured-output section) and then asserts, so the
suite both reports and gates. Every randomized check is driven by explicit
seeds; failures name the seed that broke.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import statistics
import time
from fractions import Fraction

from cqcount import (
    Hypergraph,
    OracleStats,
    approx_count_answers,
    build_automaton,
    build_hypergraph,
    count_answers_bruteforce,
    count_answers_fhw_pipeline,
    count_edges_exact_oracle,
    count_slice_exact,
    derive_rng,
    estimate_edges,
    fhw_exact_small,
    fhw_of_td,
    fractional_edge_cover_number,
    gen_hampath,
    gen_li_hom,
    hom_exists_td,
    is_valid_td,
    make_nice,
    normalize_equalities,
    treewidth_exact,
    treewidth_heuristic,
)
from cqcount.homsolver import structure_hypergraph
from cqcount.qmodel import oriented_disequalities
from cqcount.reduction import (
    HOM_BACKENDS,
    ImplicitAnswerHypergraph,
    edgefree_restricted,
    single_walk_estimate,
)
from cqcount.widths import induced_hypergraph

from conftest import (
    corpus_instance,
    corpus_query,
    hom_exists_exhaustive,
    plain_cq_instance,
    random_hypergraph,
    random_structure_pair,
)
from helpers import (
    answers,
    build_A,
    build_hat_A,
    edgefree_bruteforce,
    exact_oracle,
    hom_exists_bruteforce,
    layer_masks,
    query_size,
    restricted_parts,
    structure_size,
)

P4 = [(0, 1), (1, 2), (2, 3)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
EDGE = [(0, 1)]
STAR_1_2 = [(0, 1), (0, 2)]
TRIANGLE_EDGES = [(0, 1), (1, 2), (0, 2)]


def _report(num: int, label: str, failures: list, started: float, budget_s: float):
    elapsed = time.time() - started
    status = "PASS" if not failures and elapsed < budget_s else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s): {label}")
    assert not failures, failures[:5]
    assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s:.0f}s"


def _sample_box(rng: random.Random, domain, ell: int, cap: int = 3):
    return [
        frozenset(rng.sample(domain, rng.randint(0, min(cap, len(domain)))))
        for _ in range(ell)
    ]


# ---------------------------------------------------------------------------
# 1. Exhaustive colouring decides edge-freeness of restricted boxes
# ---------------------------------------------------------------------------

def test_c01_colouring_equals_edgefreeness():
    t0 = time.time()
    failures = []
    for seed in range(200):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        ev = ih.evaluator("bruteforce")
        diseqs = oriented_disequalities(q)
        nd = len(d.domain)
        rng = random.Random(10_000 + seed)
        for _ in range(100):
            box = _sample_box(rng, d.domain, ih.ell)
            truth = not edgefree_bruteforce(ih, restricted_parts(ih, box))
            masks = layer_masks(ih, box)
            colourful = any(
                ev.compile(masks)(list(reds)) is not None
                for reds in itertools.product(range(2 ** nd), repeat=len(diseqs))
            )
            if colourful != truth:
                failures.append((seed, box))
    _report(1, "exhaustive-colouring hom == edge-freeness, 200x100 boxes",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 2. Randomized counter hits the accuracy target and is reproducible
# ---------------------------------------------------------------------------

def test_c02_fptras_accuracy_and_reproducibility():
    t0 = time.time()
    failures = []
    within = 0
    for seed in range(100):
        q, d = corpus_instance(2000 + seed, max_domain=6)
        truth = count_answers_bruteforce(q, d)
        est = approx_count_answers(q, d, 0.25, 0.1, seed=seed)
        if abs(est - truth) <= 0.25 * truth:
            within += 1
        if seed % 10 == 0:
            if approx_count_answers(q, d, 0.25, 0.1, seed=seed) != est:
                failures.append(("not reproducible", seed))
    if within < 85:
        failures.append(("within-epsilon count", within))
    _report(2, f"fptras eps=0.25 delta=0.1: {within}/100 within tolerance",
            failures, t0, 900)


# ---------------------------------------------------------------------------
# 3. Automaton slice counting is parsimonious on bounded-width plain CQs
# ---------------------------------------------------------------------------

def test_c03_automaton_counts_match_bruteforce():
    t0 = time.time()
    failures = []
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        q, d = plain_cq_instance(30_000 + seed)
        h = build_hypergraph(q)
        width, td = fhw_exact_small(h)
        if width > 2:
            continue
        checked += 1
        nice = make_nice(h, td)
        aut = build_automaton(q, d, nice, state_limit=None)
        got = count_slice_exact(aut, nice)
        piped = count_answers_fhw_pipeline(q, d, state_limit=None).count
        truth = count_answers_bruteforce(q, d)
        if got != truth or piped != truth:
            failures.append((seed, got, piped, truth))
    _report(3, "automaton and pipeline counts == brute force on 100 fhw<=2 plain CQs",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 4. Named instances: known counts, every applicable pipeline agrees
# ---------------------------------------------------------------------------

def test_c04_named_instances_all_pipelines():
    t0 = time.time()
    failures = []
    named = [
        ("hampath(P4)", gen_hampath(P4, 4), 2),
        ("hampath(K4)", gen_hampath(K4, 4), 24),
        ("lihom(edge,edge)", gen_li_hom(EDGE, EDGE), 2),
        ("lihom(K12,triangle)", gen_li_hom(STAR_1_2, TRIANGLE_EDGES), 6),
    ]
    for label, (q, d), expected in named:
        q, _ = normalize_equalities(q)
        exact = count_answers_bruteforce(q, d)
        if exact != expected:
            failures.append((label, "exact", exact, expected))
        est = approx_count_answers(q, d, 0.25, 0.1, seed=41)
        if abs(est - expected) > 0.25 * expected:
            failures.append((label, "fptras", est, expected))
        if not q.disequalities and not q.negated_predicates:
            h = build_hypergraph(q)
            _, td = fhw_exact_small(h)
            nice = make_nice(h, td)
            aut = build_automaton(q, d, nice, state_limit=None)
            sliced = count_slice_exact(aut, nice)
            if sliced != expected:
                failures.append((label, "automaton", sliced, expected))
    _report(4, "P4->2 K4->24 edge->2 star/triangle->6 across pipelines",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 5. Reduction output sizes stay within the advertised bounds
# ---------------------------------------------------------------------------

def test_c05_size_bounds_hold():
    t0 = time.time()
    failures = []
    for seed in range(1000):
        rng = random.Random(50_000 + seed)
        q = corpus_query(rng)
        nq = query_size(q)
        if structure_size(build_A(q)) > 3 * nq:
            failures.append(("plain", seed))
        if structure_size(build_hat_A(q)) > 5 * nq * nq:
            failures.append(("decorated", seed))
    _report(5, "size(A) <= 3*size(q), size(decorated A) <= 5*size(q)^2, 1000 queries",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 6. Exact rational covers: named values and monotonicity
# ---------------------------------------------------------------------------

def test_c06_fractional_cover_exactness():
    t0 = time.time()
    failures = []
    named = [
        (Hypergraph.make([0, 1], [{0, 1}]), Fraction(1)),
        (Hypergraph.make([0, 1, 2], [{0, 1}, {1, 2}, {0, 2}]), Fraction(3, 2)),
        (Hypergraph.make(range(4), [set(e) for e in K4]), Fraction(2)),
    ]
    for h, expected in named:
        value, _ = fractional_edge_cover_number(h)
        if value != expected:
            failures.append(("named", expected, value))
    rng = random.Random(60_000)
    for trial in range(500):
        h = random_hypergraph(rng, max_vertices=7)
        verts = sorted(h.vertices)
        big = rng.sample(verts, rng.randint(0, len(verts)))
        small = rng.sample(big, rng.randint(0, len(big)))
        lo = fractional_edge_cover_number(induced_hypergraph(h, set(small)))[0]
        hi = fractional_edge_cover_number(induced_hypergraph(h, set(big)))[0]
        if lo > hi:
            failures.append(("monotone", trial, lo, hi))
    _report(6, "rho*: edge=1 triangle=3/2 K4=2; monotone on 500 triples",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 7. Oracle-call budget of the exact counter
# ---------------------------------------------------------------------------

def test_c07_oracle_call_budget():
    t0 = time.time()
    failures = []
    for seed in range(200):
        q, d = corpus_instance(seed)
        ih = ImplicitAnswerHypergraph(q, d)
        calls = 0
        inner = exact_oracle(ih)

        def counting(box):
            nonlocal calls
            calls += 1
            return inner(box)

        edges = count_edges_exact_oracle(ih, counting)
        log_u = math.ceil(math.log2(len(d.domain))) if len(d.domain) > 1 else 0
        if calls > 2 * (edges + 1) * ih.ell * log_u + 1:
            failures.append((seed, calls, edges))
    _report(7, "oracle calls <= 2(|E|+1)*sum(ceil(log2|U|)) + 1 on 200 instances",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 8. All homomorphism backends agree with exhaustive enumeration
# ---------------------------------------------------------------------------

def test_c08_hom_backends_equivalent():
    t0 = time.time()
    failures = []
    rng = random.Random(70_000)
    for trial in range(500):
        a, b = random_structure_pair(rng)
        expected = hom_exists_exhaustive(a, b)
        if hom_exists_bruteforce(a, b) != expected:
            failures.append(("bruteforce", trial))
        h = structure_hypergraph(a)
        _, td = treewidth_exact(h)
        if hom_exists_td(a, b, make_nice(h, td)) != expected:
            failures.append(("td-dp", trial))
    _report(8, "hom_exists_td == hom_exists_bruteforce == exhaustive, 500 pairs",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 9. Nice decompositions stay valid and never worsen the fractional width
# ---------------------------------------------------------------------------

def test_c09_make_nice_valid_and_width_safe():
    t0 = time.time()
    failures = []
    rng = random.Random(80_000)
    for trial in range(300):
        h = random_hypergraph(rng, max_vertices=8)
        _, td = treewidth_heuristic(h)
        nice = make_nice(h, td)
        if not (nice.is_nice() and is_valid_td(h, nice)):
            failures.append(("shape", trial))
        if fhw_of_td(h, nice) > fhw_of_td(h, td):
            failures.append(("width", trial))
    _report(9, "make_nice valid+nice on 300 hypergraphs, fhw never worse",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 10. Walk estimator calibration on the 24-path instance
# ---------------------------------------------------------------------------

def test_c10_estimator_calibration():
    t0 = time.time()
    failures = []
    q, d = gen_hampath(K4, 4)
    q, _ = normalize_equalities(q)
    ih = ImplicitAnswerHypergraph(q, d)
    oracle = functools.cache(exact_oracle(ih))
    if len(answers(ih)) != 24:
        failures.append(("edge count", len(answers(ih))))

    walks = [
        single_walk_estimate(ih, oracle, derive_rng(1010, k))
        for k in range(10_000)
    ]
    mean = statistics.fmean(walks)
    if abs(mean - 24) > 0.05 * 24:
        failures.append(("walk mean", mean))

    inside = 0
    for run in range(100):
        est = estimate_edges(
            ih, oracle, 0.25, 0.1, derive_rng(1020, run), probe_budget=0
        )
        if 18 <= est <= 30:
            inside += 1
    if inside < 90:
        failures.append(("amplified inside [18,30]", inside))
    _report(10, f"walk mean {mean:.2f} of 24; {inside}/100 amplified in [18,30]",
            failures, t0, 300)


# ---------------------------------------------------------------------------
# 11. The walk estimator on the colour-coding oracle hits the accuracy target
# ---------------------------------------------------------------------------

def test_c11_walk_estimator_accuracy():
    t0 = time.time()
    failures = []
    within = 0
    for seed in range(100):
        q, d = corpus_instance(2000 + seed, max_domain=6)
        truth = count_answers_bruteforce(q, d)
        stats = OracleStats()
        est = approx_count_answers(
            q, d, 0.25, 0.1, seed=seed, stats=stats, probe_budget=0
        )
        if abs(est - truth) <= 0.25 * truth:
            within += 1
        if stats.estimator_walks == 0:
            failures.append(("no estimator walk", seed))
    if within < 85:
        failures.append(("within-epsilon count", within))
    _report(11, f"walk estimator eps=0.25 delta=0.1: {within}/100 within tolerance",
            failures, t0, 900)


# ---------------------------------------------------------------------------
# 12. Exhaustive clique colourings decide edge-freeness of restricted boxes
#     on both backends, and bruteforce decides them with no colouring
# ---------------------------------------------------------------------------

def _clique_colourings(k: int, n_values: int):
    """Every k-colouring of n_values domain values, as k class masks."""
    for colours in itertools.product(range(k), repeat=n_values):
        classes = [0] * k
        for idx, c in enumerate(colours):
            classes[c] |= 1 << idx
        yield classes


def test_c12_clique_colouring_equals_edgefreeness():
    t0 = time.time()
    failures = []
    checked = edges = 0
    for seed in range(2000):
        q, d = corpus_instance(20_000 + seed, max_vars=4, max_diseq=6, max_domain=4)
        ih = ImplicitAnswerHypergraph(q, d)
        ev = ih.evaluator("bruteforce")
        if max((len(c) for c in ev.cliques), default=0) < 3:
            continue
        checked += 1
        families = [
            list(_clique_colourings(len(c), len(d.domain))) for c in ev.cliques
        ]
        rng = random.Random(120_000 + seed)
        for _ in range(20):
            box = _sample_box(rng, d.domain, ih.ell)
            truth = not edgefree_bruteforce(ih, restricted_parts(ih, box))
            masks = layer_masks(ih, box)
            # td-dp colour-codes the box: some colouring has a witness
            # exactly when it has an edge. bruteforce decides it with no
            # colour sample, so its verdict must be the truth itself.
            for backend in HOM_BACKENDS:
                bev = ih.evaluator(backend)
                search = bev.compile(masks)
                colourful = any(
                    search(bev.red_masks(classes)) is not None
                    for classes in itertools.product(*families)
                )
                if colourful != truth:
                    failures.append((seed, backend, box))
            oracle_rng = random.Random(seed)
            state = oracle_rng.getstate()
            if edgefree_restricted(ih, masks, 0.5, oracle_rng) == truth:
                failures.append((seed, "edgefree_restricted", box))
            if oracle_rng.getstate() != state:
                failures.append((seed, "edgefree_restricted drew", box))
            edges += truth
        if checked == 100:
            break
    if checked < 100:
        failures.append(("instances with a clique of size >= 3", checked))
    _report(12, f"exhaustive clique colouring hom == edge-freeness on both backends, "
            f"and bruteforce's exact verdict, {checked}x20 boxes, {edges} with an edge",
            failures, t0, 300)
