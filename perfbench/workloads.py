"""Seeded workloads of the cqcount benchmark and their reference counts.

A workload is a fixed list of ops; one op is one `cqcount count` run
(`cli.cmd_count`) on a query file and a database file written at set-up.
Every graph comes from `random.Random(f"{seed}/{op name}")`, so two
workloads that share an op name share its instance. References are computed
here, independently of the pipeline under test, and never inside a timed
region.

Graphs are random regular graphs rather than G(n, p): with every degree
fixed, the answer counts of the path queries do not depend on the seed, so
the work per op, and with it every timing, stays steady from seed to seed.

NOTES.md explains why each workload and op was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

EPSILON = 0.25
DELTA = 0.1

P3 = [(0, 1), (1, 2)]
P4 = [(0, 1), (1, 2), (2, 3)]


def random_regular(n: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random simple k-regular graph on 0..n-1 (k even, k < n): a circulant
    graph scrambled by degree-preserving double-edge swaps."""
    if k % 2 or not 0 < k < n:
        raise ValueError(f"need an even degree 0 < k < n, got n={n}, k={k}")
    edges = {
        (min(i, (i + j) % n), max(i, (i + j) % n))
        for i in range(n)
        for j in range(1, k // 2 + 1)
    }
    order = sorted(edges)
    for _ in range(10 * len(order)):
        a, b = rng.sample(range(len(order)), 2)
        (u, v), (x, y) = order[a], order[b]
        if rng.random() < 0.5:
            x, y = y, x
        if len({u, v, x, y}) < 4:
            continue
        e1, e2 = (min(u, x), max(u, x)), (min(v, y), max(v, y))
        if e1 in edges or e2 in edges:
            continue
        edges -= {order[a], order[b]}
        edges |= {e1, e2}
        order[a], order[b] = e1, e2
    return sorted(edges)


def neighbours(edges, n: int) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def count_path_lihoms(edges, n: int, path_edges: int) -> int:
    """Locally injective homomorphisms of a path with `path_edges` edges:
    the non-backtracking walks of that length, counted over directed edges."""
    nbrs = neighbours(edges, n)
    walks = {(u, v): 1 for u in range(n) for v in nbrs[u]}
    for _ in range(path_edges - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (u, v), c in walks.items():
            for w in nbrs[v]:
                if w != u:
                    nxt[(v, w)] = nxt.get((v, w), 0) + c
        walks = nxt
    return sum(walks.values())


def walk_sets(edges, n: int, length: int) -> list[list[int]]:
    """reach[L][a]: bitmask of vertices at the end of a walk of exactly L
    edges from a, for L = 0..length."""
    nbr_mask = [0] * n
    for u, v in edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    reach = [[1 << a for a in range(n)]]
    for _ in range(length):
        nxt = []
        for mask in reach[-1]:
            out = 0
            while mask:
                low = mask & -mask
                mask ^= low
                out |= nbr_mask[low.bit_length() - 1]
            nxt.append(out)
        reach.append(nxt)
    return reach


def count_path_pairs(edges, n: int, n_vars: int) -> int:
    """Answers of the path query with free endpoints: pairs (a, b) joined by
    a walk of n_vars - 1 edges."""
    reach = walk_sets(edges, n, n_vars - 1)
    return sum(m.bit_count() for m in reach[n_vars - 1])


def count_cycle_pairs(edges, n: int, k: int, j: int) -> int:
    """Answers of the k-cycle query with free x1 and x{j+1}: pairs (a, b)
    with a walk of j edges from a to b and one of k - j edges back."""
    reach = walk_sets(edges, n, max(j, k - j))
    return sum((reach[j][a] & reach[k - j][a]).bit_count() for a in range(n))


@dataclass(frozen=True)
class Instance:
    query: object
    database: object
    reference: Callable[[], int]
    n_vars: int


@dataclass(frozen=True)
class OpSpec:
    """One op of a workload: how to build its instance and how to count it."""

    name: str
    method: str
    build: Callable  # (cqcount module, rng) -> Instance
    backend: str = "bruteforce"
    limits: dict = field(default_factory=dict)

    def config(self, cli, seed: int | None):
        if self.method == "fptras":
            return cli.RunConfig(
                method="fptras",
                epsilon=EPSILON,
                delta=DELTA,
                seed=seed,
                hom_backend=self.backend,
                limits=dict(self.limits),
            )
        return cli.RunConfig(method=self.method, limits=dict(self.limits))


def lihom(pattern, n: int, degree: int = 4):
    def build(cq, rng):
        edges = random_regular(n, degree, rng)
        q, d = cq.gen_li_hom(pattern, edges)
        return Instance(
            q, d, lambda: count_path_lihoms(edges, n, len(pattern)), len(q.variables)
        )

    return build


def hampath(edges, n: int):
    def build(cq, rng):
        q, d = cq.gen_hampath(edges, n)
        return Instance(q, d, lambda: cq.count_answers_bruteforce(q, d), n)

    return build


def _graph_db(cq, edges, n: int):
    facts = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    return cq.Database.make(tuple(range(n)), {"E": (2, facts)})


def path_query(n_vars: int, n: int, degree: int = 6):
    """Plain path x1 - ... - x{n_vars} with free endpoints."""

    def build(cq, rng):
        edges = random_regular(n, degree, rng)
        sym = cq.RelationSymbol("E", 2)
        xs = [f"x{i}" for i in range(1, n_vars + 1)]
        atoms = [(sym, (xs[i], xs[i + 1])) for i in range(n_vars - 1)]
        q = cq.Query.make("path", [xs[0], xs[-1]], atoms, (), (), ())
        return Instance(
            q, _graph_db(cq, edges, n), lambda: count_path_pairs(edges, n, n_vars), n_vars
        )

    return build


def cycle_query(k: int, j: int, n: int, degree: int = 6):
    """Plain k-cycle x1 - ... - xk - x1 with free x1 and x{j+1}."""

    def build(cq, rng):
        edges = random_regular(n, degree, rng)
        sym = cq.RelationSymbol("E", 2)
        xs = [f"x{i}" for i in range(1, k + 1)]
        atoms = [(sym, (xs[i], xs[(i + 1) % k])) for i in range(k)]
        q = cq.Query.make("cycle", [xs[0], xs[j]], atoms, (), (), ())
        return Instance(
            q, _graph_db(cq, edges, n), lambda: count_cycle_pairs(edges, n, k, j), k
        )

    return build


NO_STATE_LIMIT = {"state_limit": None}
WALK_LIMITS = {"probe_budget": 500}


def _fhw(name: str, build) -> OpSpec:
    return OpSpec(name, "fhw", build, limits=NO_STATE_LIMIT)


# Each workload's median op lies inside one kind of op that makes up at least
# half of a pass, and its tail inside the heaviest kind, which makes up at
# least 11 samples of a run; NOTES.md gives the reason.
WORKLOADS: dict[str, list[OpSpec]] = {
    "fptras-lihom": [
        OpSpec("p3-6", "fptras", lihom(P3, 6)),
        OpSpec("p3-12", "fptras", lihom(P3, 12)),
        OpSpec("p4-8", "fptras", lihom(P4, 8)),
        *(OpSpec(f"p3-32-{c}", "fptras", lihom(P3, 32)) for c in "abc"),
        *(OpSpec(f"p3-32-walk-{c}", "fptras", lihom(P3, 32), limits=WALK_LIMITS)
          for c in "abc"),
    ],
    "fptras-hampath": [
        OpSpec("ham-star", "fptras", hampath([(0, 1), (0, 2), (0, 3)], 4)),
        OpSpec("ham-k3k1", "fptras", hampath([(0, 1), (1, 2), (0, 2)], 4)),
        OpSpec("ham-p3k1", "fptras", hampath([(0, 1), (1, 2)], 4)),
        OpSpec("ham-2k2", "fptras", hampath([(0, 1), (2, 3)], 4)),
    ],
    "fhw-plain": [
        *(_fhw(f"path8-32-{c}", path_query(8, 32)) for c in "abcdef"),
        _fhw("tri-128", cycle_query(3, 1, 128)),
        _fhw("c4-16", cycle_query(4, 2, 16)),
        _fhw("path21-32", path_query(21, 32)),
        _fhw("c5-16-a", cycle_query(5, 2, 16)),
        _fhw("c5-16-b", cycle_query(5, 2, 16)),
    ],
    "fptras-tddp": [
        OpSpec("p3-6", "fptras", lihom(P3, 6), backend="td-dp"),
    ],
}


# Passes a run makes at the least, however slow the host: enough for the
# heaviest kind of op to make up the 11 samples of the tail rule (three per
# pass in both workloads).
MIN_PASSES = {"fptras-lihom": 4, "fhw-plain": 4}


def instance_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


def op_seed(seed: int, pass_index: int, name: str) -> int:
    """The fptras seed of one op in one pass."""
    return random.Random(f"{seed}/{pass_index}/{name}").getrandbits(32)
