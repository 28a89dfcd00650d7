"""The runtime package as a whole: what it imports, and what others import
from it."""

from __future__ import annotations

import argparse
import ast
import math
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

import cqcount
from cqcount import (
    ContradictionError,
    DecompositionError,
    Hypergraph,
    ImplicitAnswerHypergraph,
    QueryValidationError,
    TreeDecomposition,
    UnsupportedQueryError,
    approx_count_answers,
    build_automaton,
    dump_database,
    estimate_edges,
    gen_hampath,
    gen_li_hom,
    normalize_equalities,
    parse_query,
    sol_bag,
)
from cqcount import reduction
from cqcount.cli import RunConfig, cmd_count, cmd_gen
from cqcount.lp import solve_min
from cqcount.qmodel import Database, Query, RelationSymbol, iter_solutions
from cqcount.widths import induced_hypergraph

from helpers import k3_with_pendant

PACKAGE_DIR = Path(cqcount.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_foreign_imports_sees_absolute_imports_only():
    src = "import os.path, numpy\nfrom . import x\nfrom .a import b\nfrom scipy import c\n"
    assert foreign_imports(src) == ["numpy", "scipy"]


def test_runtime_package_is_pure_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    for path in modules:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def cq_attributes(source: str) -> set[str]:
    """Names read as `cq.<name>`."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cq"
    }


def readme_library_example() -> str:
    """The README's "Library" example."""
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def readme_library_imports() -> set[str]:
    """Names the README's "Library" example imports from cqcount."""
    return {
        alias.name
        for node in ast.walk(ast.parse(readme_library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "cqcount"
        for alias in node.names
    }


def test_cq_attributes_sees_reads_on_cq_only():
    assert cq_attributes("cq.a(x.b, cq.c.d)\ny = cqq.e\n") == {"a", "c"}


def test_names_the_benchmark_and_the_readme_use_resolve():
    used = readme_library_imports()
    assert used
    for name in ("workloads.py", "run.py"):
        found = cq_attributes((REPO_DIR / "perfbench" / name).read_text(encoding="utf-8"))
        assert found, name
        used |= found
    assert sorted(n for n in used if not hasattr(cqcount, n)) == []


def test_readme_library_example_gives_the_values_its_comments_state():
    # Each expression line ends in a comment that starts with its value's repr.
    source = readme_library_example()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
        assert comment == repr(value) or comment.startswith(repr(value) + " "), comment
        checked.append(repr(value))
    assert checked == ["4", "4", "FhwCount(count=3, fhw=Fraction(1, 1), exact=True)"]


def names_read(node: ast.AST) -> set[str]:
    """Names a piece of code loads, reads as an attribute, or imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_names_read_sees_loads_attributes_and_imports():
    tree = ast.parse("from .m import a\nb = c.d(e)\nf.g = 1\n")
    assert names_read(tree) == {"a", "c", "d", "e", "f"}


def test_every_top_level_name_of_the_package_has_a_reader():
    # A reader of a function, class or assigned name at the top level of a
    # module (__init__.py aside) is another statement of the package that
    # reads it, a perfbench script, or a README code span that names it.
    trees = [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
    ]
    reads = [(node, names_read(node)) for _, tree in trees for node in tree.body]
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    outside = re.findall(r"`([^`\n]+)`", readme) + [
        path.read_text(encoding="utf-8") for path in (REPO_DIR / "perfbench").glob("*.py")
    ]
    named = set(re.findall(r"\w+", " ".join(outside)))
    unread = []
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{module}.{name}"
                for name in names
                if name not in named
                and not any(name in found for other, found in reads if other is not node)
            ]
    assert unread == []


def test_every_td_dp_search_calls_reduction_hom_exists_td(monkeypatch):
    # perfbench/spans.py traces td-dp's searches by wrapping the module
    # attribute reduction.hom_exists_td, so every search an evaluator runs
    # must go through it: the search before colouring, _pair_samples' (a
    # cover of K2s) and compile's callable (cliques of one size k >= 3, and
    # mixed). bruteforce runs its own search and never calls it.
    counted = []
    real = reduction.hom_exists_td

    def counting(plan, dom):
        counted.append(None)
        return real(plan, dom)

    searches = []
    init = reduction._Evaluator.__init__

    def counting_init(self, ih, backend):
        init(self, ih, backend)
        search = self._search

        def counted_search(dom):
            searches.append(None)
            return search(dom)

        self._search = counted_search

    monkeypatch.setattr(reduction, "hom_exists_td", counting)
    monkeypatch.setattr(reduction._Evaluator, "__init__", counting_init)
    circulant = [(i, (i + j) % 7) for i in range(7) for j in (1, 2)]
    covers = {
        "k2": gen_li_hom([(0, 1), (1, 2)], circulant),
        "k3": gen_hampath([(0, 1), (1, 2)], 3),
        "mixed": k3_with_pendant(),
    }
    for backend in ("td-dp", "bruteforce"):
        for cover, (q, d) in covers.items():
            counted.clear()
            searches.clear()
            approx_count_answers(q, d, 0.25, 0.1, seed=7, backend=backend)
            assert searches, (backend, cover)
            expected = len(searches) if backend == "td-dp" else 0
            assert len(counted) == expected, (backend, cover)


E = RelationSymbol("E", 2)
EMPTY_TD = TreeDecomposition.make(0, [()], [()])
PLAIN = parse_query("phi(x, y) :- E(x, y)")
DISTINCT = parse_query("phi(x, y) :- E(x, y), x != y")
DB = Database.make([0, 1], {"E": (2, [(0, 1)])})
IH = ImplicitAnswerHypergraph(DISTINCT, DB)


E1 = RelationSymbol("E", 1)


def estimate(epsilon, delta):
    return estimate_edges(IH, None, epsilon, delta, random.Random(0))


def count_by(method, files=True, **fields):
    """cmd_count of PLAIN over DB under a RunConfig built in code; with
    files=False, on paths that do not exist."""
    with tempfile.TemporaryDirectory() as tmp:
        query, db = Path(tmp, "q.txt"), Path(tmp, "d.json")
        if files:
            query.write_text("phi(x, y) :- E(x, y)", encoding="utf-8")
            dump_database(DB, db)
        return cmd_count(str(query), str(db), RunConfig(method, **fields))


def gen_into_new_dir(kind):
    """cmd_gen of kind into a directory that does not exist, which must
    still not exist when cmd_gen raises."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        try:
            return cmd_gen(kind, argparse.Namespace(), str(out))
        finally:
            assert not out.exists()


FPTRAS_NOPE = {"epsilon": 0.25, "delta": 0.1, "seed": 1, "hom_backend": "nope"}


@pytest.mark.parametrize("call,error,message", [
    pytest.param(
        lambda: IH.evaluator("nope"), ValueError,
        "unknown hom backend 'nope'; use one of ('bruteforce', 'td-dp')", id="hom-backend",
    ),
    pytest.param(lambda: estimate(0, 0.5), ValueError, "epsilon must be positive", id="epsilon"),
    pytest.param(lambda: estimate(0.5, 0), ValueError, "delta must lie in (0, 1)", id="delta-0"),
    pytest.param(lambda: estimate(0.5, 1), ValueError, "delta must lie in (0, 1)", id="delta-1"),
    pytest.param(
        lambda: estimate(math.nan, 0.5), ValueError, "epsilon must be positive",
        id="epsilon-nan",
    ),
    pytest.param(
        lambda: estimate(0.5, math.nan), ValueError, "delta must lie in (0, 1)",
        id="delta-nan",
    ),
    pytest.param(
        lambda: approx_count_answers(DISTINCT, DB, math.nan, 0.1, seed=7),
        ValueError, "epsilon must be positive", id="approx-epsilon-nan",
    ),
    pytest.param(
        lambda: approx_count_answers(DISTINCT, DB, 0.5, math.nan, seed=7),
        ValueError, "delta must lie in (0, 1)", id="approx-delta-nan",
    ),
    pytest.param(
        lambda: next(iter_solutions(parse_query("phi(x) :- E(x, y), x = y"), DB)),
        QueryValidationError, "query still contains equalities; normalize first",
        id="iter-solutions-equality",
    ),
    pytest.param(
        lambda: sol_bag(PLAIN, DB, ("z",)),
        QueryValidationError, "bag variable 'z' not in the query", id="sol-bag-unknown",
    ),
    pytest.param(
        lambda: sol_bag(PLAIN, DB, ("x", "x")),
        QueryValidationError, "bag contains a duplicate variable", id="sol-bag-duplicate",
    ),
    pytest.param(
        lambda: build_automaton(DISTINCT, DB, EMPTY_TD),
        UnsupportedQueryError, "the automaton construction needs a plain CQ",
        id="automaton-not-plain",
    ),
    pytest.param(
        lambda: build_automaton(PLAIN, DB, EMPTY_TD),
        DecompositionError, "decomposition is not valid for the query hypergraph",
        id="automaton-invalid-td",
    ),
    pytest.param(
        lambda: induced_hypergraph(Hypergraph(frozenset({0}), frozenset()), {1}),
        ValueError, "X must be a subset of the vertices", id="induced-not-subset",
    ),
    pytest.param(
        lambda: solve_min([1, 1], [[1]], [1]),
        ValueError, "constraint row length does not match objective", id="lp-row-length",
    ),
    pytest.param(
        lambda: Query.make("1q", ["x"], [(E1, ("x",))]),
        QueryValidationError, "invalid query name '1q'", id="query-name",
    ),
    pytest.param(
        lambda: Query.make("q", ["1x"], [(E1, ("1x",))]),
        QueryValidationError, "invalid variable name '1x'", id="free-variable-name",
    ),
    pytest.param(
        lambda: Query.make("q", ["x"], [(RelationSymbol("1E", 1), ("x",))]),
        QueryValidationError, "invalid relation name '1E'", id="relation-name",
    ),
    pytest.param(
        lambda: Query.make("q", [], [(RelationSymbol("E", 0), ())]),
        QueryValidationError, "relation E must have arity >= 1", id="relation-arity-0",
    ),
    pytest.param(
        lambda: Query.make("q", ["x"], [(E1, ("x",)), (E, ("x", "x"))]),
        QueryValidationError, "relation E used with arities 1 and 2", id="relation-two-arities",
    ),
    pytest.param(
        lambda: Query.make("q", [], [(E1, ("1y",))]),
        QueryValidationError, "invalid variable name '1y'", id="existential-variable-name",
    ),
    pytest.param(
        lambda: Query.make("q", []), QueryValidationError, "query body is empty",
        id="empty-body",
    ),
    pytest.param(
        # Whichever equality comes last joins variables the other two merged.
        lambda: normalize_equalities(
            parse_query("q(x) :- E(x, z), x = y, y = z, x = z, x != z")
        ),
        ContradictionError, "equalities merge x and z, contradicting x != z",
        id="equality-already-merged",
    ),
    pytest.param(
        lambda: count_by("nope"), QueryValidationError, "unknown method 'nope'",
        id="run-config-method",
    ),
    pytest.param(
        lambda: count_by("nope", files=False), QueryValidationError,
        "unknown method 'nope'", id="run-config-method-no-files",
    ),
    pytest.param(
        # An empty domain makes every box empty, so no box reaches the
        # evaluator; the backend is checked before the first draw all the same.
        lambda: approx_count_answers(
            DISTINCT, Database.make([], {"E": (2, [])}), 0.25, 0.1, 1, backend="nope"
        ),
        ValueError, "unknown hom backend 'nope'; use one of ('bruteforce', 'td-dp')",
        id="approx-backend-empty-domain",
    ),
    pytest.param(
        lambda: count_by("fptras", **FPTRAS_NOPE), QueryValidationError,
        "unknown hom backend 'nope'; use one of ('bruteforce', 'td-dp')",
        id="run-config-backend",
    ),
    pytest.param(
        lambda: count_by("fptras", files=False, **FPTRAS_NOPE), QueryValidationError,
        "unknown hom backend 'nope'; use one of ('bruteforce', 'td-dp')",
        id="run-config-backend-no-files",
    ),
    pytest.param(
        lambda: count_by("fptras", files=False, epsilon=0.25, delta=0.1),
        QueryValidationError, "method fptras needs --epsilon, --delta and --seed",
        id="run-config-fptras-no-files",
    ),
    pytest.param(
        lambda: gen_into_new_dir("bogus"), QueryValidationError,
        "unknown instance kind 'bogus'; known: hampath, lihom, random",
        id="gen-kind",
    ),
])
def test_library_preconditions_raise_their_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
