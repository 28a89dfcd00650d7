"""Code that only the tests use, kept out of the package."""

from __future__ import annotations

import itertools
import math
import random

from cqcount import OracleStats, edgefree_restricted
from cqcount.reduction import ImplicitAnswerHypergraph


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
        if not edgefree_restricted(ih, vs, share, rng, backend, stats):
            return False
    return True
