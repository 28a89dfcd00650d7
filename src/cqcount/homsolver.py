"""Relational structures and homomorphism / answer primitives.

A query-database pair turns into two finite structures: the canonical
structure of the query (variables as universe, one tuple per atom, separate
complement symbols for negated atoms) and the induced structure of the
database (complement relations materialized). Homomorphisms between them are
exactly the solutions of the query that ignore disequalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    DecompositionError,
    LimitExceededError,
    PairValidationError,
    QueryValidationError,
    UnsupportedQueryError,
)
from .qmodel import Database, Query, RelationSymbol, validate_pair
from .widths import Hypergraph, TreeDecomposition, is_valid_td, _vkey


@dataclass(frozen=True)
class Structure:
    """A finite relational structure."""

    universe: tuple
    relations: dict[RelationSymbol, frozenset[tuple]]

    @property
    def signature(self) -> frozenset[RelationSymbol]:
        return frozenset(self.relations)


def complement_symbol(sym: RelationSymbol) -> RelationSymbol:
    """Marker symbol for the complement relation; '!' cannot occur in user names."""
    return RelationSymbol("!" + sym.name, sym.arity)


def _require_normalized(q: Query) -> None:
    if q.equalities:
        raise QueryValidationError("query still contains equalities; normalize first")


def build_A(q: Query) -> Structure:
    """Canonical structure of the query over its variables."""
    _require_normalized(q)
    rels: dict[RelationSymbol, set[tuple]] = {}
    for sym, args in q.predicates:
        rels.setdefault(sym, set()).add(args)
    for sym, args in q.negated_predicates:
        rels.setdefault(complement_symbol(sym), set()).add(args)
    return Structure(q.variables, {s: frozenset(t) for s, t in rels.items()})


def build_B(q: Query, d: Database) -> Structure:
    """Induced structure of the database: matching relations for positive
    atoms, materialized complements for negated ones."""
    _require_normalized(q)
    validate_pair(q, d)
    rels: dict[RelationSymbol, frozenset[tuple]] = {}
    for sym, _ in q.predicates:
        rels[sym] = d.relations[sym]
    for sym, _ in q.negated_predicates:
        facts = d.relations[sym]
        comp = frozenset(
            t for t in itertools.product(d.domain, repeat=sym.arity) if t not in facts
        )
        rels[complement_symbol(sym)] = comp
    return Structure(tuple(d.domain), rels)


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


def hom_exists_bruteforce(a: Structure, b: Structure, domains=None) -> bool:
    """Backtracking homomorphism test, smallest-domain-first after unary filtering."""
    _check_signatures(a, b)
    if not a.universe:
        return True
    cands: dict = {}
    for x in a.universe:
        allowed = set(domains[x]) if domains is not None else set(b.universe)
        cands[x] = allowed
    constraints = []
    for sym, facts in a.relations.items():
        bfacts = b.relations[sym]
        for t in facts:
            if sym.arity == 1:
                vals = {bt[0] for bt in bfacts}
                cands[t[0]] &= vals
            else:
                constraints.append((t, bfacts))
    if any(not c for c in cands.values()):
        return False

    order = sorted(a.universe, key=lambda x: (len(cands[x]), _vkey(x)))
    position = {x: i for i, x in enumerate(order)}
    # Check each constraint as soon as its last variable gets a value.
    due: list[list[tuple]] = [[] for _ in order]
    for t, bfacts in constraints:
        due[max(position[x] for x in t)].append((t, bfacts))

    assignment: dict = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for v in cands[x]:
            assignment[x] = v
            ok = True
            for t, bfacts in due[i]:
                if tuple(assignment[y] for y in t) not in bfacts:
                    ok = False
                    break
            if ok and extend(i + 1):
                return True
        assignment.pop(x, None)
        return False

    return extend(0)


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


ENUM_BUDGET = 10_000_000


def iter_solutions(q: Query, d: Database, budget: int = ENUM_BUDGET):
    """Yield every total assignment (aligned to q.variables) satisfying the query."""
    _require_normalized(q)
    validate_pair(q, d)
    nvars = len(q.variables)
    total = len(d.domain) ** nvars if d.domain else 0
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate assignments exceed the budget of {budget}"
        )
    pos = {v: i for i, v in enumerate(q.variables)}
    checks = []
    for sym, args in q.predicates:
        checks.append((tuple(pos[v] for v in args), d.relations[sym], False))
    for sym, args in q.negated_predicates:
        checks.append((tuple(pos[v] for v in args), d.relations[sym], True))
    dpairs = [(pos[x], pos[y]) for x, y in q.disequalities]
    for assign in itertools.product(d.domain, repeat=nvars):
        ok = True
        for idxs, facts, negated in checks:
            hit = tuple(assign[i] for i in idxs) in facts
            if hit == negated:
                ok = False
                break
        if ok:
            for i, j in dpairs:
                if assign[i] == assign[j]:
                    ok = False
                    break
        if ok:
            yield assign


def enumerate_answers_bruteforce(
    q: Query, d: Database, budget: int = ENUM_BUDGET
) -> set[tuple]:
    """All answers (projections of solutions onto the free variables)."""
    k = len(q.free_vars)
    return {sol[:k] for sol in iter_solutions(q, d, budget)}


def count_answers_bruteforce(q: Query, d: Database, budget: int = ENUM_BUDGET) -> int:
    return len(enumerate_answers_bruteforce(q, d, budget))


def sol_bag(
    q: Query,
    d: Database,
    bag: tuple[str, ...],
    indexes: dict | None = None,
    limit: int | None = None,
) -> set[tuple]:
    """Partial solutions on the given variables of a plain conjunctive query:
    assignments extendable, per atom individually, to a full satisfying
    assignment of that atom. Output tuples align with the given bag order.

    A generic join: rows grow one bag variable at a time, in bag order, and
    each atom that holds the new variable narrows its values given the row's
    values on the atom's earlier bag variables. Every intermediate table is
    a set of partial solutions on a prefix of the bag, so none holds more
    than N^rho*(bag) rows, N being the largest relation (the AGM bound).

    The fact indexes are built on first use and kept in `indexes` when one
    is given, so the bag tables of one run over d can share them. With a
    limit, a table of more than limit rows raises LimitExceededError, and
    the last step, which makes the table itself, stops as soon as it does."""
    if not q.is_plain_cq():
        raise UnsupportedQueryError("sol_bag is defined for plain conjunctive queries")
    validate_pair(q, d)
    bag = tuple(bag)
    vars_set = set(q.variables)
    for v in bag:
        if v not in vars_set:
            raise QueryValidationError(f"bag variable {v!r} not in the query")
    if len(set(bag)) != len(bag):
        raise QueryValidationError("bag contains a duplicate variable")
    if indexes is None:
        indexes = {}

    def fact_index(sym, pairs, keys, col) -> dict[tuple, set]:
        """Map from the values at columns keys to those at column col, over
        the facts of sym equal at each position pair."""
        key = (sym, pairs, keys, col)
        got = indexes.get(key)
        if got is None:
            got = indexes[key] = {}
            facts = d.relations[sym]
            if pairs:
                facts = [t for t in facts if all(t[i] == t[j] for i, j in pairs)]
            for t in facts:
                got.setdefault(tuple(t[j] for j in keys), set()).add(t[col])
        return got

    # steps[k]: per atom holding bag[k], the bag positions of the atom's
    # earlier bag variables and a map from their values to those of bag[k]
    steps: list[list[tuple[tuple[int, ...], dict]]] = [[] for _ in bag]
    for sym, args in q.predicates:
        first = {v: args.index(v) for v in args}
        pairs = tuple((i, first[v]) for i, v in enumerate(args) if first[v] != i)
        at = [k for k, v in enumerate(bag) if v in first]
        cols = [first[bag[k]] for k in at]
        # An index keyed on no column is empty exactly when no fact matches
        # the atom, which then has no solution, whether it meets the bag or not.
        if not fact_index(sym, pairs, (), cols[0] if cols else 0):
            return set()
        for n, k in enumerate(at):
            steps[k].append(
                (tuple(at[:n]), fact_index(sym, pairs, tuple(cols[:n]), cols[n]))
            )

    # A row agrees with some fact of each atom on the atom's earlier bag
    # variables, so no lookup below misses. Rows never repeat, so the last
    # step makes the table itself, and with a limit it stops one row past it.
    rows: list[tuple] = [()]
    for n, atoms in enumerate(steps, 1):
        grown = (
            row + (v,)
            for row in rows
            for v in set.intersection(
                *(index[tuple(row[i] for i in prev)] for prev, index in atoms)
            )
        )
        last = n == len(steps) and limit is not None
        rows = list(itertools.islice(grown, limit + 1) if last else grown)
    if limit is not None and len(rows) > limit:
        raise LimitExceededError(
            f"bag {list(bag)} has more than {limit} partial solutions, limit is {limit}"
        )
    return set(rows)
