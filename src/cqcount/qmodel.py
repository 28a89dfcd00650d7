"""Query and database model.

Queries are conjunctive queries extended with negated atoms, disequalities
and (pre-normalization) equalities:

    name(x, y) :- E(x, z), !F(z), x != z, y = z

The textual grammar, the JSON database format and the structural invariants
enforced here are the contract every other module builds on.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

from .errors import (
    ContradictionError,
    DatabaseParseError,
    DatabaseValidationError,
    PairValidationError,
    QueryParseError,
    QueryValidationError,
)

Value = Union[str, int]
Atom = tuple["RelationSymbol", tuple[str, ...]]
VarPair = tuple[str, str]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, order=True)
class RelationSymbol:
    """A relation name together with its arity."""

    name: str
    arity: int


@dataclass(frozen=True)
class Query:
    """A conjunctive query with optional negation, disequalities and equalities.

    Invariants (enforced by :meth:`make`):
      * free and existential variables are disjoint, no duplicates;
      * every variable occurs somewhere in the body: in a relation atom, a
        negated atom, a disequality or an equality (until normalization
        removes equalities);
      * each relation name is used with a single arity;
      * disequality and equality pairs relate two distinct / declared
        variables and are stored canonically sorted.
    """

    name: str
    free_vars: tuple[str, ...]
    exist_vars: tuple[str, ...]
    predicates: tuple[Atom, ...]
    negated_predicates: tuple[Atom, ...]
    disequalities: tuple[VarPair, ...]
    equalities: tuple[VarPair, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, free first, then existential."""
        return self.free_vars + self.exist_vars

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.predicates + self.negated_predicates

    def signature(self) -> frozenset[RelationSymbol]:
        return frozenset(sym for sym, _ in self.atoms)

    def is_plain_cq(self) -> bool:
        return not self.negated_predicates and not self.disequalities and not self.equalities

    @staticmethod
    def make(
        name: str,
        free_vars: Sequence[str],
        predicates: Iterable[Atom] = (),
        negated_predicates: Iterable[Atom] = (),
        disequalities: Iterable[tuple[str, str]] = (),
        equalities: Iterable[tuple[str, str]] = (),
    ) -> "Query":
        """Validate, canonicalize and build a Query."""
        preds = tuple((sym, tuple(args)) for sym, args in predicates)
        negs = tuple((sym, tuple(args)) for sym, args in negated_predicates)
        free = tuple(free_vars)

        if not _IDENT_RE.match(name):
            raise QueryValidationError(f"invalid query name {name!r}")
        for v in free:
            if not _IDENT_RE.match(v):
                raise QueryValidationError(f"invalid variable name {v!r}")
        if len(set(free)) != len(free):
            raise QueryValidationError("duplicate free variable in head")

        arities: dict[str, int] = {}
        for sym, args in preds + negs:
            if not _IDENT_RE.match(sym.name):
                raise QueryValidationError(f"invalid relation name {sym.name!r}")
            if sym.arity != len(args):
                raise QueryValidationError(
                    f"atom {sym.name} has {len(args)} arguments, symbol arity is {sym.arity}"
                )
            if sym.arity < 1:
                raise QueryValidationError(f"relation {sym.name} must have arity >= 1")
            seen = arities.setdefault(sym.name, sym.arity)
            if seen != sym.arity:
                raise QueryValidationError(
                    f"relation {sym.name} used with arities {seen} and {sym.arity}"
                )

        def canon_pairs(pairs: Iterable[tuple[str, str]], kind: str) -> tuple[VarPair, ...]:
            out = set()
            for a, b in pairs:
                if a == b:
                    if kind == "disequality":
                        raise ContradictionError(f"disequality {a} != {b} can never hold")
                    continue  # x = x is vacuous
                out.add((a, b) if a < b else (b, a))
            return tuple(sorted(out))

        diseqs = canon_pairs(disequalities, "disequality")
        eqs = canon_pairs(equalities, "equality")

        # Canonical existential order: first occurrence over the canonical
        # atom order, which is also the order format_query() emits.
        free_set = set(free)
        exist: list[str] = []
        occurring: set[str] = set()
        for _, args in preds + negs:
            for v in args:
                occurring.add(v)
                if v not in free_set and v not in exist:
                    exist.append(v)
        for a, b in diseqs + eqs:
            for v in (a, b):
                occurring.add(v)
                if v not in free_set and v not in exist:
                    exist.append(v)
        for v in exist:
            if not _IDENT_RE.match(v):
                raise QueryValidationError(f"invalid variable name {v!r}")
        missing = free_set - occurring
        if missing:
            raise QueryValidationError(
                f"variable(s) occur in no atom: {', '.join(sorted(missing))}"
            )
        if not (preds or negs or diseqs or eqs):
            raise QueryValidationError("query body is empty")

        return Query(name, free, tuple(exist), preds, negs, diseqs, eqs)


def oriented_disequalities(q: Query) -> tuple[VarPair, ...]:
    """Disequalities oriented and sorted by the variable enumeration order."""
    pos = {v: i for i, v in enumerate(q.variables)}
    oriented = []
    for a, b in q.disequalities:
        if pos[a] > pos[b]:
            a, b = b, a
        oriented.append((a, b))
    return tuple(sorted(oriented, key=lambda p: (pos[p[0]], pos[p[1]])))


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<turnstile>:-)
      | (?P<neq>!=)
      | (?P<bang>!)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<eq>=)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryParseError(f"unexpected character {text[pos]!r}", pos, "a token")
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the query grammar.

    query := IDENT '(' [IDENT (',' IDENT)*] ')' ':-' atom (',' atom)*
    atom  := ['!'] IDENT '(' IDENT (',' IDENT)* ')'
           | IDENT '!=' IDENT
           | IDENT '='  IDENT
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str, expected: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            if tok[0] == "eof" and self.i > 0:
                # Blame the last real token, not the position past the end.
                raise QueryParseError(
                    "unexpected end of input", self.tokens[self.i - 1][2], expected
                )
            raise QueryParseError(f"unexpected token {tok[1]!r}", tok[2], expected)
        self.i += 1
        return tok

    def parse(self) -> Query:
        name = self.take("ident", "query name")[1]
        self.take("lparen", "'('")
        free: list[str] = []
        if self.peek()[0] == "ident":
            free.append(self.take("ident", "variable")[1])
            while self.peek()[0] == "comma":
                self.take("comma", "','")
                free.append(self.take("ident", "variable")[1])
        self.take("rparen", "')'")
        self.take("turnstile", "':-'")

        symbols: dict[str, RelationSymbol] = {}
        preds: list[Atom] = []
        negs: list[Atom] = []
        diseqs: list[tuple[str, str]] = []
        eqs: list[tuple[str, str]] = []
        while True:
            self._atom(symbols, preds, negs, diseqs, eqs)
            if self.peek()[0] != "comma":
                break
            self.take("comma", "','")
        self.take("eof", "end of query")
        return Query.make(name, free, preds, negs, diseqs, eqs)

    def _atom(self, symbols, preds, negs, diseqs, eqs) -> None:
        tok = self.peek()
        if tok[0] == "bang":
            self.take("bang", "'!'")
            sym, args = self._relation_atom(symbols)
            negs.append((sym, args))
            return
        if tok[0] != "ident":
            raise QueryParseError(f"unexpected token {tok[1]!r}", tok[2], "an atom")
        first = self.take("ident", "atom")[1]
        nxt = self.peek()
        if nxt[0] == "lparen":
            self.i -= 1
            sym, args = self._relation_atom(symbols)
            preds.append((sym, args))
        elif nxt[0] == "neq":
            self.take("neq", "'!='")
            other = self.take("ident", "variable")[1]
            diseqs.append((first, other))
        elif nxt[0] == "eq":
            self.take("eq", "'='")
            other = self.take("ident", "variable")[1]
            eqs.append((first, other))
        else:
            raise QueryParseError(
                f"unexpected token {nxt[1]!r}", nxt[2], "'(' or '!=' or '='"
            )

    def _relation_atom(self, symbols: dict[str, RelationSymbol]) -> Atom:
        rname = self.take("ident", "relation name")[1]
        self.take("lparen", "'('")
        args = [self.take("ident", "variable")[1]]
        while self.peek()[0] == "comma":
            self.take("comma", "','")
            args.append(self.take("ident", "variable")[1])
        self.take("rparen", "')'")
        sym = symbols.get(rname)
        if sym is None:
            sym = RelationSymbol(rname, len(args))
            symbols[rname] = sym
        return sym, tuple(args)


def parse_query(text: str) -> Query:
    """Parse a single query from text. Raises QueryParseError / QueryValidationError."""
    return _Parser(text).parse()


def format_query(q: Query) -> str:
    """Canonical one-line text form; parse_query(format_query(q)) == q."""
    parts = [f"{sym.name}({', '.join(args)})" for sym, args in q.predicates]
    parts += [f"!{sym.name}({', '.join(args)})" for sym, args in q.negated_predicates]
    parts += [f"{a} != {b}" for a, b in q.disequalities]
    parts += [f"{a} = {b}" for a, b in q.equalities]
    head = f"{q.name}({', '.join(q.free_vars)})"
    return f"{head} :- {', '.join(parts)}"


def load_query(path: str | Path) -> Query:
    return parse_query(Path(path).read_text(encoding="utf-8"))


def dump_query(q: Query, path: str | Path) -> None:
    Path(path).write_text(format_query(q) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Equality normalization
# ---------------------------------------------------------------------------

def normalize_equalities(q: Query) -> tuple[Query, dict[str, str]]:
    """Remove equality atoms by merging variables.

    Returns the rewritten query and a merge map sending every original
    variable to its representative. Representatives prefer free variables
    (earliest in head order), then the earliest existential variable, so the
    answer sets of the two queries are in natural bijection.

    Raises ContradictionError when an equality class contains both sides of a
    disequality.
    """
    parent: dict[str, str] = {v: v for v in q.variables}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = {v: i for i, v in enumerate(q.variables)}  # free vars rank lowest
    for a, b in q.equalities:
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        keep, drop = (ra, rb) if rank[ra] < rank[rb] else (rb, ra)
        parent[drop] = keep

    merge_map = {v: find(v) for v in q.variables}

    def sub(args: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(merge_map[v] for v in args)

    def dedupe(atoms: tuple[Atom, ...]) -> list[Atom]:
        seen = set()
        out = []
        for sym, args in atoms:
            atom = (sym, sub(args))
            if atom not in seen:
                seen.add(atom)
                out.append(atom)
        return out

    preds = dedupe(q.predicates)
    negs = dedupe(q.negated_predicates)
    diseqs = []
    for a, b in q.disequalities:
        ra, rb = merge_map[a], merge_map[b]
        if ra == rb:
            raise ContradictionError(
                f"equalities merge {a} and {b}, contradicting {a} != {b}"
            )
        diseqs.append((ra, rb))

    free = []
    for v in q.free_vars:
        r = merge_map[v]
        if r not in free:
            free.append(r)
    try:
        out = Query.make(q.name, free, preds, negs, diseqs, ())
    except QueryValidationError as exc:
        raise QueryValidationError(f"query invalid after equality removal: {exc}") from exc
    return out, merge_map


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Database:
    """A finite relational database: ordered domain plus named relations."""

    domain: tuple[Value, ...]
    relations: dict[RelationSymbol, frozenset[tuple[Value, ...]]]

    @property
    def signature(self) -> frozenset[RelationSymbol]:
        return frozenset(self.relations)

    @staticmethod
    def make(
        domain: Sequence[Value],
        relations: dict[str, tuple[int, Iterable[Sequence[Value]]]],
    ) -> "Database":
        """Validate and build a Database from name -> (arity, tuples)."""
        dom = tuple(domain)
        for v in dom:
            if not isinstance(v, (str, int)) or isinstance(v, bool):
                raise DatabaseValidationError(f"domain value {v!r} is not a string or integer")
        if len(set(dom)) != len(dom):
            raise DatabaseValidationError("domain contains duplicate values")
        dom_set = set(dom)
        rels: dict[RelationSymbol, frozenset[tuple[Value, ...]]] = {}
        for name in sorted(relations):
            arity, tuples = relations[name]
            if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
                raise DatabaseValidationError(
                    f"relation {name} must have an integer arity >= 1, got {arity!r}"
                )
            facts = set()
            for t in tuples:
                if not isinstance(t, (list, tuple)) or len(t) != arity:
                    raise DatabaseValidationError(
                        f"relation {name}: tuple {t!r} does not match arity {arity}"
                    )
                tt = tuple(t)
                for v in tt:
                    # The domain holds no bool, but True == 1 would find 1 in it.
                    if not isinstance(v, (str, int)) or isinstance(v, bool) or v not in dom_set:
                        raise DatabaseValidationError(
                            f"relation {name}: value {v!r} not in domain"
                        )
                facts.add(tt)
            rels[RelationSymbol(name, arity)] = frozenset(facts)
        return Database(dom, rels)


def validate_pair(q: Query, d: Database) -> None:
    """Check that every relation symbol of q exists in d with matching arity."""
    by_name = {sym.name: sym.arity for sym in d.relations}
    for sym in sorted(q.signature()):
        have = by_name.get(sym.name)
        if have is None:
            raise PairValidationError(f"database has no relation {sym.name}")
        if have != sym.arity:
            raise PairValidationError(
                f"relation {sym.name}: query arity {sym.arity}, database arity {have}"
            )


def load_database(path: str | Path) -> Database:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatabaseParseError(f"database file is not valid JSON: {exc}") from exc
    rels = doc.get("relations") if isinstance(doc, dict) else None
    if not isinstance(rels, dict) or not isinstance(doc.get("domain"), list):
        raise DatabaseValidationError(
            "database document needs a 'domain' list and a 'relations' object"
        )
    spec = {}
    for name, body in rels.items():
        tuples = body.get("tuples") if isinstance(body, dict) else None
        if not isinstance(tuples, list) or "arity" not in body:
            raise DatabaseValidationError(f"relation {name} needs 'arity' and a 'tuples' list")
        spec[name] = (body["arity"], tuples)
    return Database.make(doc["domain"], spec)


def database_to_doc(d: Database) -> dict:
    """Canonical JSON-ready form: sorted relation names, sorted tuples."""
    return {
        "domain": list(d.domain),
        "relations": {
            sym.name: {
                "arity": sym.arity,
                "tuples": sorted(list(t) for t in d.relations[sym]),
            }
            for sym in sorted(d.relations)
        },
    }


def dump_database(d: Database, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(database_to_doc(d), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_graph(path: str | Path) -> list[tuple[int, int]]:
    """Read an undirected edge list: one 'u v' pair per line, '#' comments."""
    edges = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DatabaseParseError(f"graph line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DatabaseParseError(f"graph line {lineno}: vertices must be integers") from exc
        edges.append((u, v))
    return edges


# ---------------------------------------------------------------------------
# Hypergraph extraction
# ---------------------------------------------------------------------------

def build_hypergraph(q: Query):
    """Hypergraph of the query: vertices are variables, one edge per atom's
    variable set (set semantics). Disequalities and equalities contribute no
    edges."""
    from .widths import Hypergraph

    edges = {frozenset(args) for _, args in q.atoms}
    return Hypergraph(frozenset(q.variables), frozenset(edges))


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def _check_simple_graph(edges: Sequence[tuple[int, int]], n: int) -> set[tuple[int, int]]:
    out = set()
    for u, v in edges:
        if u == v:
            raise QueryValidationError(f"self-loop {u}-{v} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise QueryValidationError(f"edge {u}-{v} outside vertex range [0, {n})")
        out.add((min(u, v), max(u, v)))
    return out


def gen_hampath(edges: Sequence[tuple[int, int]], n: int) -> tuple[Query, Database]:
    """Hamiltonian-path instance: answers are the directed Hamiltonian paths
    of the given simple graph on vertices 0..n-1. Requires n >= 2 so the
    query has at least one atom."""
    if n < 2:
        raise QueryValidationError("gen_hampath needs n >= 2")
    simple = _check_simple_graph(edges, n)
    sym = RelationSymbol("E", 2)
    xs = [f"x{i}" for i in range(1, n + 1)]
    preds = [(sym, (xs[i], xs[i + 1])) for i in range(n - 1)]
    diseqs = [(xs[i], xs[j]) for i in range(n) for j in range(i + 1, n)]
    q = Query.make("hampath", xs, preds, (), diseqs, ())
    facts = set()
    for u, v in simple:
        facts.add((u, v))
        facts.add((v, u))
    d = Database.make(tuple(range(n)), {"E": (2, facts)})
    return q, d


def common_neighbour_pairs(edges: Sequence[tuple[int, int]]) -> set[tuple[int, int]]:
    """Unordered pairs of distinct vertices sharing at least one neighbour."""
    nbrs: dict[int, set[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    pairs = set()
    for w, around in nbrs.items():
        for a in around:
            for b in around:
                if a < b:
                    pairs.add((a, b))
    return pairs


def gen_li_hom(
    pattern_edges: Sequence[tuple[int, int]],
    target_edges: Sequence[tuple[int, int]],
) -> tuple[Query, Database]:
    """Locally injective homomorphism instance: answers are the maps from the
    pattern graph to the target graph that preserve edges and are injective
    on every closed neighbourhood."""
    if not pattern_edges:
        raise QueryValidationError("gen_li_hom needs a nonempty pattern edge list")
    pverts = sorted({u for e in pattern_edges for u in e})
    n = max(pverts) + 1
    pattern = _check_simple_graph(pattern_edges, n)
    tverts = sorted({u for e in target_edges for u in e})
    tn = (max(tverts) + 1) if tverts else 0
    target = _check_simple_graph(target_edges, tn)

    sym = RelationSymbol("E", 2)
    var = {v: f"x{v}" for v in pverts}
    preds = [(sym, (var[u], var[v])) for u, v in sorted(pattern)]
    diseqs = [
        (var[a], var[b])
        for a, b in sorted(common_neighbour_pairs(sorted(pattern)))
    ]
    q = Query.make("lihom", [var[v] for v in pverts], preds, (), diseqs, ())
    facts = set()
    for u, v in target:
        facts.add((u, v))
        facts.add((v, u))
    d = Database.make(tuple(tverts), {"E": (2, facts)})
    return q, d


def gen_random(
    n_vars: int,
    n_atoms: int,
    domain_size: int,
    p_neg: float,
    p_diseq: float,
    seed: int,
) -> tuple[Query, Database]:
    """Seeded random query/database pair.

    Every variable occurs in at least one atom and every relation symbol in
    at least one atom; atoms are negated independently with probability
    p_neg, and each unordered variable pair becomes a disequality with
    probability p_diseq. Identical seeds give identical instances.
    """
    if n_vars < 1 or n_atoms < 1 or domain_size < 1:
        raise QueryValidationError("gen_random needs n_vars, n_atoms, domain_size >= 1")
    if not (0.0 <= p_neg <= 1.0 and 0.0 <= p_diseq <= 1.0):
        raise QueryValidationError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    xs = [f"x{i}" for i in range(1, n_vars + 1)]
    max_ar = min(3, n_vars)

    n_syms = rng.randint(1, n_atoms)
    symbols = [RelationSymbol(f"R{i}", rng.randint(1, max_ar)) for i in range(1, n_syms + 1)]
    total_slots = 0
    atom_syms = []
    for i in range(n_atoms):
        sym = symbols[i] if i < n_syms else rng.choice(symbols)
        atom_syms.append(sym)
        total_slots += sym.arity
    if total_slots < n_vars:
        raise QueryValidationError(
            f"infeasible parameters: {n_atoms} atoms provide only {total_slots} "
            f"variable slots for {n_vars} variables"
        )

    # Give every variable its own slot first, then fill the rest at random.
    slots = [(i, p) for i, sym in enumerate(atom_syms) for p in range(sym.arity)]
    rng.shuffle(slots)
    assignment: dict[tuple[int, int], str] = {}
    shuffled = list(xs)
    rng.shuffle(shuffled)
    for v, slot in zip(shuffled, slots):
        assignment[slot] = v
    for slot in slots[n_vars:]:
        assignment[slot] = rng.choice(xs)

    preds, negs = [], []
    for i, sym in enumerate(atom_syms):
        args = tuple(assignment[(i, p)] for p in range(sym.arity))
        if rng.random() < p_neg:
            negs.append((sym, args))
        else:
            preds.append((sym, args))

    diseqs = []
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if rng.random() < p_diseq:
                diseqs.append((xs[i], xs[j]))

    n_free = rng.randint(1, n_vars)
    q = Query.make("q", xs[:n_free], preds, negs, diseqs, ())

    dom = tuple(range(domain_size))
    rels = {}
    for sym in symbols:
        density = rng.uniform(0.2, 0.7)
        facts = set()
        for t in itertools.product(dom, repeat=sym.arity):
            if rng.random() < density:
                facts.add(t)
        rels[sym.name] = (sym.arity, facts)
    d = Database.make(dom, rels)
    validate_pair(q, d)
    return q, d

