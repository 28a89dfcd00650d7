"""Shared corpus generators for the test suite.

Everything is driven by explicit seeds so every failure is replayable; the
generators keep instances inside the documented desk-scale caps (few
variables, tiny domains) so brute-force oracles stay cheap.
"""

from __future__ import annotations

import itertools
import random

from cqcount import Database, Hypergraph, Query
from cqcount.qmodel import RelationSymbol

from helpers import Structure


def corpus_query(
    rng: random.Random,
    max_vars: int = 5,
    max_diseq: int = 2,
    max_neg: int = 1,
    max_free: int | None = None,
) -> Query:
    """Random normalized query: every variable covered, capped diseq/negation."""
    n_vars = rng.randint(1, max_vars)
    variables = [f"x{i}" for i in range(1, n_vars + 1)]
    cap_free = min(n_vars, max_free) if max_free is not None else n_vars
    free = variables[: rng.randint(1, cap_free)]

    n_atoms = rng.randint(1, 4)
    arities = [rng.randint(1, 3) for _ in range(n_atoms)]
    while sum(arities) < n_vars:
        arities.append(rng.randint(1, 3))
    # One distinct slot per variable guarantees coverage; the rest is random.
    slots = [(i, p) for i, ar in enumerate(arities) for p in range(ar)]
    rng.shuffle(slots)
    args: dict[tuple[int, int], str] = {}
    for v, slot in zip(variables, slots):
        args[slot] = v
    for slot in slots[len(variables):]:
        args[slot] = rng.choice(variables)

    # A few shared symbols so relations get reused across atoms.
    symbols = [f"R{k}" for k in range(1, rng.randint(1, 3) + 1)]
    sym_of_arity: dict[int, list[str]] = {}
    names = []
    for ar in arities:
        pool = sym_of_arity.setdefault(ar, [])
        if pool and rng.random() < 0.3:
            names.append(rng.choice(pool))
        else:
            name = f"{rng.choice(symbols)}a{ar}"
            pool.append(name)
            names.append(name)

    atoms = [
        (RelationSymbol(names[i], arities[i]),
         tuple(args[(i, p)] for p in range(arities[i])))
        for i in range(len(arities))
    ]
    n_neg = rng.randint(0, min(max_neg, len(atoms) - 1))
    rng.shuffle(atoms)
    negs, preds = atoms[:n_neg], atoms[n_neg:]

    pairs = list(itertools.combinations(variables, 2))
    rng.shuffle(pairs)
    diseqs = pairs[: rng.randint(0, min(max_diseq, len(pairs)))]
    return Query.make("q", free, preds, negs, diseqs, ())


def corpus_database(
    rng: random.Random,
    q: Query,
    max_domain: int = 4,
    min_domain: int = 1,
) -> Database:
    """Random database matching q's signature over a small string domain."""
    size = rng.randint(min_domain, max_domain)
    domain = [str(i) for i in range(size)]
    relations: dict[str, tuple[int, list]] = {}
    for sym in sorted(q.signature(), key=lambda s: s.name):
        density = rng.uniform(0.2, 0.8)
        facts = [
            t
            for t in itertools.product(domain, repeat=sym.arity)
            if rng.random() < density
        ]
        relations[sym.name] = (sym.arity, facts)
    return Database.make(domain, relations)


def corpus_instance(
    seed: int,
    max_vars: int = 5,
    max_diseq: int = 2,
    max_neg: int = 1,
    max_domain: int = 4,
    max_free: int | None = None,
) -> tuple[Query, Database]:
    rng = random.Random(seed)
    q = corpus_query(rng, max_vars, max_diseq, max_neg, max_free)
    return q, corpus_database(rng, q, max_domain)


def plain_cq_instance(
    seed: int, max_vars: int = 5, max_domain: int = 4
) -> tuple[Query, Database]:
    rng = random.Random(seed)
    q = corpus_query(rng, max_vars, max_diseq=0, max_neg=0)
    return q, corpus_database(rng, q, max_domain)


def random_hypergraph(
    rng: random.Random, max_vertices: int = 8, cover_all: bool = True
) -> Hypergraph:
    """Random small hypergraph; cover_all ensures no isolated vertices."""
    n = rng.randint(1, max_vertices)
    vertices = list(range(n))
    edges: set[frozenset] = set()
    for _ in range(rng.randint(1, 2 * n)):
        k = rng.randint(1, min(3, n))
        edges.add(frozenset(rng.sample(vertices, k)))
    if cover_all:
        missing = set(vertices) - set().union(*edges)
        for v in missing:
            k = rng.randint(1, min(3, n))
            edges.add(frozenset({v} | set(rng.sample(vertices, k - 1))))
    return Hypergraph.make(vertices, edges)


def random_structure_pair(rng: random.Random, max_universe: int = 5):
    """Two structures over one random signature, for backend equivalence."""
    n_syms = rng.randint(1, 3)
    sig = [RelationSymbol(f"S{k}", rng.randint(1, 3)) for k in range(n_syms)]

    def build(size: int) -> Structure:
        universe = tuple(range(size))
        rels = {}
        for sym in sig:
            density = rng.uniform(0.1, 0.6)
            rels[sym] = frozenset(
                t
                for t in itertools.product(universe, repeat=sym.arity)
                if rng.random() < density
            )
        return Structure(universe, rels)

    return build(rng.randint(1, max_universe)), build(rng.randint(1, max_universe))


def hom_exists_exhaustive(a: Structure, b: Structure, domains=None) -> bool:
    """Independent oracle: try every map of universes, each element into its
    domain when domains are given, and check every tuple."""
    order = list(a.universe)
    pools = [b.universe if domains is None else domains[x] for x in order]
    for image in itertools.product(*pools):
        f = dict(zip(order, image))
        if all(
            tuple(f[x] for x in t) in b.relations.get(sym, frozenset())
            for sym, facts in a.relations.items()
            for t in facts
        ):
            return True
    return False
