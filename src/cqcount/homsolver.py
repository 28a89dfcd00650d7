"""Relational structures and the paper's tree-decomposition homomorphism DP.

hom_exists_td decides whether one finite structure maps homomorphically into
another by a dynamic program over a nice tree decomposition of the source.
No pipeline runs it: the pipelines decide that question on the evaluator's
value-level form (reduction._Evaluator) and never build a structure, and the
paper's explicit structures of a query and a database are test oracles in
tests/helpers.py. reduction imports hom_exists_td only so that the benchmark
harness (perfbench/spans.py) can wrap it by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionError, PairValidationError
from .qmodel import RelationSymbol
from .widths import Hypergraph, TreeDecomposition, is_valid_td, _vkey


@dataclass(frozen=True)
class Structure:
    """A finite relational structure."""

    universe: tuple
    relations: dict[RelationSymbol, frozenset[tuple]]

    @property
    def signature(self) -> frozenset[RelationSymbol]:
        return frozenset(self.relations)


def structure_hypergraph(s: Structure) -> Hypergraph:
    """Vertices are universe elements; one edge per tuple's element set."""
    edges = {
        frozenset(t) for facts in s.relations.values() for t in facts
    }
    return Hypergraph(frozenset(s.universe), frozenset(edges))


def _check_signatures(a: Structure, b: Structure) -> None:
    missing = a.signature - b.signature
    if missing:
        names = ", ".join(f"{s.name}/{s.arity}" for s in sorted(missing))
        raise PairValidationError(f"target structure lacks relations: {names}")


def hom_exists_td(
    a: Structure,
    b: Structure,
    td: TreeDecomposition,
    domains=None,
) -> bool:
    """Dynamic program over a nice tree decomposition of the source structure.

    `domains` optionally restricts the allowed images of each source element;
    the default is the whole target universe.
    """
    _check_signatures(a, b)
    if not td.is_nice():
        raise DecompositionError("decomposition must be nice")
    if not is_valid_td(structure_hypergraph(a), td):
        raise DecompositionError("decomposition is not valid for the source structure")

    constraints = []
    for sym, facts in a.relations.items():
        bfacts = b.relations[sym]
        for t in facts:
            constraints.append((t, frozenset(t), bfacts))

    def allowed(x):
        return domains[x] if domains is not None else b.universe

    bag_order = [sorted(td.bags[t], key=_vkey) for t in range(td.n_nodes)]
    tables: dict[int, set[tuple]] = {}
    for t in td.postorder():
        kids = td.children[t]
        bag = td.bags[t]
        order = bag_order[t]
        if not kids:
            tables[t] = {()}
        elif len(kids) == 2:
            left = tables.pop(kids[0])
            right = tables.pop(kids[1])
            tables[t] = left & right
        else:
            c = kids[0]
            corder = bag_order[c]
            ctable = tables.pop(c)
            diff = bag ^ td.bags[c]
            (x,) = diff
            if x in bag:  # introduce
                checks = [
                    (tt, bf)
                    for tt, scope, bf in constraints
                    if x in scope and scope <= bag
                ]
                out = set()
                for row in ctable:
                    base = dict(zip(corder, row))
                    for v in allowed(x):
                        base[x] = v
                        if all(
                            tuple(base[y] for y in tt) in bf for tt, bf in checks
                        ):
                            out.add(tuple(base[y] for y in order))
                tables[t] = out
            else:  # forget
                idx = corder.index(x)
                tables[t] = {
                    row[:idx] + row[idx + 1 :] for row in ctable
                }
    return bool(tables[td.root])
