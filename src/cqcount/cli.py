"""Command-line frontend: counting, width analysis, instance generation.

One command is one batch process. The report is a single JSON document on
standard output; logs go to standard error. Exit codes: 0 success, 2 parse
error, 4 budget or limit exceeded, 3 any other cqcount error or unreadable file.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import automata, qmodel, reduction, widths
from .errors import (
    BudgetExceededError,
    CqcountError,
    DatabaseParseError,
    LimitExceededError,
    QueryParseError,
    QueryValidationError,
    UncoverableVertexError,
)
from .qmodel import (
    build_hypergraph,
    dump_database,
    dump_query,
    gen_hampath,
    gen_li_hom,
    gen_random,
    load_database,
    load_graph,
    load_query,
    normalize_equalities,
    validate_pair,
)

log = logging.getLogger("cqcount")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

LIMITS_ENV_VAR = "CQCOUNT_LIMITS"

# Both vertex limits are at most VERTEX_LIMIT_CEILING: the exact width searches
# keep tables of 2**n entries, whatever share of the sets they solve, so a
# 41-variable path under a limit of 64 asks for 2**41 and dies of MemoryError.
# CPU s of each search on vertices x1, ..., xn, Python 3.11, 2-vCPU Xeon (37 MB
# max RSS at 20 for each; fhw rows: the least of 9 fresh processes, as at 20
# the time moves with the allocator's state):
#   vertices                  14      16      18      20
#   treewidth_exact, path   0.14    0.72    2.46    11.4
#   treewidth_exact, cycle  0.006   0.009   0.022   0.042
#   fhw_exact_small, path   0.002   0.003   0.005   0.012
#   fhw_exact_small, cycle  0.009   0.016   0.026   0.056
# The tables double with each vertex, and treewidth on a 14-vertex path still
# solves 15,851 of its 16,384 sets, so the ceiling stays.
VERTEX_LIMIT_CEILING = 20
# Documented defaults for every budget knob; override via --limit key=value
# (repeatable) or a JSON file named by the CQCOUNT_LIMITS environment variable.
DEFAULT_LIMITS: dict[str, int | None] = {
    "enum_budget": qmodel.ENUM_BUDGET,
    "probe_budget": reduction.PROBE_BUDGET,
    "oracle_cap": reduction.ORACLE_CAP,
    "walk_budget": reduction.WALK_BUDGET,
    "state_limit": automata.STATE_LIMIT,
    "frontier_limit": automata.FRONTIER_LIMIT,
    "tw_vertex_limit": widths.TW_EXACT_VERTEX_LIMIT,
    "fhw_vertex_limit": widths.FHW_EXACT_VERTEX_LIMIT,
    "fhw_limit": None,
}
# The limits whose code paths read None as "no limit".
NULLABLE_LIMITS = frozenset({"state_limit", "fhw_limit"})
# fhw_limit also takes a rational p/q: fractional hypertreewidth is rational.
_RATIONAL_RE = re.compile(r"\d+/[1-9]\d*")

REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "cqcount count report",
    "type": "object",
    "properties": {
        "method": {"enum": ["exact", "fptras", "fhw"]},
        "query": {"type": "string"},
        "count": {"type": "integer", "minimum": 0},
        "estimate": {"type": "integer", "minimum": 0},
        "epsilon": {"type": ["number", "null"]},
        "delta": {"type": ["number", "null"]},
        "seed": {"type": ["integer", "null"]},
        "hom_backend": {"enum": ["bruteforce", "td-dp", None]},
        "oracle_stats": {"type": ["object", "null"]},
        "widths": {"type": ["object", "null"]},
        "duration_seconds": {"type": "number", "minimum": 0},
    },
    "required": ["method", "query", "duration_seconds"],
    "oneOf": [
        {"required": ["count"], "not": {"required": ["estimate"]}},
        {"required": ["estimate", "epsilon", "delta", "seed"]},
    ],
}


METHODS = ("exact", "fptras", "fhw")
GEN_KINDS = ("hampath", "lihom", "random")


@dataclass
class RunConfig:
    """Resolved configuration of one counting run."""

    method: str
    epsilon: float | None = None
    delta: float | None = None
    seed: int | None = None
    hom_backend: str = "bruteforce"
    limits: dict = field(default_factory=dict)


def _check_limit(key, value, source: str):
    """A validated limit override; QueryValidationError names the key otherwise."""
    if key not in DEFAULT_LIMITS:
        raise QueryValidationError(
            f"unknown limit {key!r} {source}; known: {', '.join(sorted(DEFAULT_LIMITS))}"
        )
    if value is None and key in NULLABLE_LIMITS:
        return None
    if key == "fhw_limit" and isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        return Fraction(value)
    if key == "fhw_limit" and isinstance(value, Fraction) and value >= 0:
        return value
    least = 1 if key == "oracle_cap" else 0
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "none or an integer" if key in NULLABLE_LIMITS else "an integer"
        if key == "fhw_limit":
            kind = "none, an integer or p/q"
        raise QueryValidationError(
            f"limit {key!r} {source} must be {kind} >= {least}, got {value!r}"
        )
    if key in ("tw_vertex_limit", "fhw_vertex_limit") and value > VERTEX_LIMIT_CEILING:
        raise QueryValidationError(
            f"limit {key!r} {source} must be at most {VERTEX_LIMIT_CEILING}, "
            f"got {value!r}: the exact width search is exponential in it"
        )
    return value


def _load_limits(pairs: list[str] | None) -> dict:
    limits: dict = {}
    env_path = os.environ.get(LIMITS_ENV_VAR)
    if env_path:
        try:
            doc = json.loads(Path(env_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DatabaseParseError(f"cannot read limits file {env_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise QueryValidationError(
                f"limits file {env_path} must hold a JSON object of key: value"
            )
        for key, value in doc.items():
            limits[key] = _check_limit(key, value, f"in limits file {env_path}")
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise QueryValidationError(f"--limit expects key=value, got {pair!r}")
        try:
            value = int(value)
        except ValueError:
            value = None if value.lower() in ("none", "null") else value
        limits[key] = _check_limit(key, value, "in --limit")
    return limits


def _limits(overrides: dict) -> dict:
    """DEFAULT_LIMITS with each override checked and merged over it."""
    checked = {key: _check_limit(key, value, "in limits") for key, value in overrides.items()}
    return {**DEFAULT_LIMITS, **checked}


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(query_path: str, db_path: str, cfg: RunConfig) -> dict:
    """Count or estimate the answers; returns the report document."""
    start = time.monotonic()
    # The configuration is checked in full before any file is read.
    limits = _limits(cfg.limits)
    if cfg.method not in METHODS:
        raise QueryValidationError(f"unknown method {cfg.method!r}")
    if cfg.method == "fptras":
        if cfg.epsilon is None or cfg.delta is None or cfg.seed is None:
            raise QueryValidationError(
                "method fptras needs --epsilon, --delta and --seed"
            )
        if not (0 < cfg.epsilon < 1) or not (0 < cfg.delta < 1):
            raise QueryValidationError("epsilon and delta must lie in (0, 1)")
        if cfg.delta / 2 == 0:
            # The estimator runs at delta/2, which would round to 0.
            raise QueryValidationError(f"delta {cfg.delta!r} is too small to halve")
        if cfg.hom_backend not in reduction.HOM_BACKENDS:
            raise QueryValidationError(
                f"unknown hom backend {cfg.hom_backend!r}; "
                f"use one of {reduction.HOM_BACKENDS}"
            )
    q = load_query(query_path)
    d = load_database(db_path)
    q, _ = normalize_equalities(q)
    validate_pair(q, d)
    report: dict = {"method": cfg.method, "query": q.name}

    if cfg.method == "exact":
        report["count"] = qmodel.count_answers_bruteforce(
            q, d, budget=limits["enum_budget"]
        )
    elif cfg.method == "fptras":
        stats = reduction.OracleStats()
        estimate = reduction.approx_count_answers(
            q,
            d,
            cfg.epsilon,
            cfg.delta,
            cfg.seed,
            backend=cfg.hom_backend,
            stats=stats,
            probe_budget=limits["probe_budget"],
            initial_cap=limits["oracle_cap"],
            walk_budget=limits["walk_budget"],
        )
        report.update(
            estimate=estimate,
            epsilon=cfg.epsilon,
            delta=cfg.delta,
            seed=cfg.seed,
            hom_backend=cfg.hom_backend,
            oracle_stats=stats.as_dict(),
        )
    else:
        result = automata.count_answers_fhw_pipeline(
            q,
            d,
            fhw_limit=limits["fhw_limit"],
            state_limit=limits["state_limit"],
            exact_width_vertex_limit=limits["fhw_vertex_limit"],
            frontier_limit=limits["frontier_limit"],
        )
        report["count"] = result.count
        report["widths"] = {"fhw": str(result.fhw), "exact": result.exact}

    report["duration_seconds"] = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

ALL_MEASURES = ("tw", "fhw", "rho")


def cmd_analyze(query_path: str, measures: list[str], limits: dict) -> dict:
    """Width measures of the query hypergraph, with witness decompositions."""
    start = time.monotonic()
    limits = _limits(limits)
    for measure in measures:
        if measure not in ALL_MEASURES:
            raise QueryValidationError(
                f"unknown measure {measure!r}; known: {', '.join(ALL_MEASURES)}"
            )
    q = load_query(query_path)
    q, _ = normalize_equalities(q)
    h = build_hypergraph(q)

    out: dict = {"query": q.name, "measures": {}}
    for measure in measures:
        try:
            if measure == "tw":
                vertex_limit = limits["tw_vertex_limit"]
                exact = len(h.vertices) <= vertex_limit
                if exact:
                    value, td = widths.treewidth_exact(h, vertex_limit)
                else:
                    value, td = widths.treewidth_heuristic(h)
                entry = {"value": value, "exact": exact, "decomposition": td.to_doc()}
            elif measure == "fhw":
                value, td, exact = automata.fhw_decomposition(h, limits["fhw_vertex_limit"])
                entry = {"value": str(value), "exact": exact, "decomposition": td.to_doc()}
            else:
                value, weights = widths.fractional_edge_cover_number(h)
                entry = {
                    "value": str(value),
                    "weights": {
                        "/".join(str(v) for v in sorted(e, key=repr)): str(w)
                        for e, w in weights.items()
                    },
                }
        except UncoverableVertexError as exc:
            entry = {"error": "uncoverable-vertex", "detail": str(exc)}
        out["measures"][measure] = entry
    out["duration_seconds"] = time.monotonic() - start
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(kind: str, args: argparse.Namespace, out_dir: str) -> dict:
    """Write a query/database pair into out_dir; returns the file paths."""
    # The kind is checked before any file or directory is touched.
    if kind not in GEN_KINDS:
        raise QueryValidationError(
            f"unknown instance kind {kind!r}; known: {', '.join(GEN_KINDS)}"
        )
    if kind == "hampath":
        edges = load_graph(args.graph)
        q, d = gen_hampath(edges, args.n)
    elif kind == "lihom":
        q, d = gen_li_hom(load_graph(args.pattern), load_graph(args.target))
    else:
        q, d = gen_random(
            args.vars, args.atoms, args.domain, args.p_neg, args.p_diseq, args.seed
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    query_path = out / f"{kind}_query.txt"
    db_path = out / f"{kind}_db.json"
    dump_query(q, query_path)
    dump_database(d, db_path)
    log.info("wrote %s and %s", query_path, db_path)
    return {"query": str(query_path), "db": str(db_path)}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqcount",
        description="Count answers of conjunctive queries with disequalities "
        "and negation, exactly or approximately.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count or estimate answers")
    p_count.add_argument("--query", required=True, help="query file")
    p_count.add_argument("--db", required=True, help="database JSON file")
    p_count.add_argument(
        "--method", required=True, choices=list(METHODS)
    )
    p_count.add_argument("--epsilon", type=float, help="relative error (fptras)")
    p_count.add_argument("--delta", type=float, help="failure probability (fptras)")
    p_count.add_argument("--seed", type=int, help="random seed (fptras)")
    p_count.add_argument(
        "--hom-backend", choices=list(reduction.HOM_BACKENDS), default="bruteforce"
    )
    p_count.add_argument(
        "--limit",
        action="append",
        metavar="KEY=VALUE",
        help=f"override a budget (known: {', '.join(sorted(DEFAULT_LIMITS))})",
    )

    p_an = sub.add_parser("analyze", help="width measures of the query hypergraph")
    p_an.add_argument("--query", required=True)
    p_an.add_argument(
        "--measures",
        default=",".join(ALL_MEASURES),
        help="comma-separated subset of tw,fhw,rho (default: all)",
    )
    p_an.add_argument("--limit", action="append", metavar="KEY=VALUE")

    p_gen = sub.add_parser("gen", help="generate instance files")
    gsub = p_gen.add_subparsers(dest="kind", required=True)
    g_ham = gsub.add_parser("hampath")
    g_ham.add_argument("--n", type=int, required=True, help="path length (variables)")
    g_ham.add_argument("--graph", required=True, help="edge list file")
    g_ham.add_argument("--out-dir", required=True)
    g_li = gsub.add_parser("lihom")
    g_li.add_argument("--pattern", required=True, help="pattern edge list file")
    g_li.add_argument("--target", required=True, help="target edge list file")
    g_li.add_argument("--out-dir", required=True)
    g_rand = gsub.add_parser("random")
    g_rand.add_argument("--vars", type=int, required=True)
    g_rand.add_argument("--atoms", type=int, required=True)
    g_rand.add_argument("--domain", type=int, required=True)
    g_rand.add_argument("--p-neg", type=float, default=0.0)
    g_rand.add_argument("--p-diseq", type=float, default=0.0)
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--out-dir", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "count":
            cfg = RunConfig(
                method=args.method,
                epsilon=args.epsilon,
                delta=args.delta,
                seed=args.seed,
                hom_backend=args.hom_backend,
                limits=_load_limits(args.limit),
            )
            _emit(cmd_count(args.query, args.db, cfg))
        elif args.command == "analyze":
            measures = [m for m in args.measures.split(",") if m]
            _emit(cmd_analyze(args.query, measures, _load_limits(args.limit)))
        elif args.command == "gen":
            _emit(cmd_gen(args.kind, args, args.out_dir))
    except (QueryParseError, DatabaseParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BudgetExceededError, LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CqcountError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
