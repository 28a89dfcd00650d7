"""Spans and counters taken from outside the program.

The tracer replaces public module attributes of cqcount, the names the
pipelines call through, with wrappers that record one span per call (name,
start, end, parent span, op id) and a few counts read from arguments and
return values. Spans live in flat arrays and are written out once, when the
run ends. Nothing inside the package changes; `installed` puts every
original attribute back on exit.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Module attributes wrapped in the traced run, by cqcount module.
WRAPPED = {
    "reduction": (
        "approx_count_answers",
        "count_edges_exact_oracle",
        "single_walk_estimate",
        "edgefree_restricted",
        "hom_exists_td",
        "treewidth_exact",
        "make_nice",
    ),
    "automata": (
        "fhw_exact_small",
        "treewidth_heuristic",
        "fhw_of_td",
        "make_nice",
        "build_automaton",
        "sol_bag",
        "count_slice_exact",
    ),
    # The CLI's own width computation after the fhw pipeline, and the LP.
    "widths": ("fhw_exact_small", "treewidth_heuristic", "fhw_of_td", "solve_min"),
    "cli": ("load_query", "load_database", "normalize_equalities"),
}

OP_SPAN = "cli.cmd_count"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                self.close(idx)

        return wrapper

    def spans(self):
        """Spans as (name, start, end, parent, op) tuples, in opening order."""
        for i in range(len(self.start)):
            yield (
                self.names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.op[i],
            )

    def write(self, path, ops: list[dict]) -> None:
        """JSONL: one line per op, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, op in enumerate(ops):
                fh.write(json.dumps({"op": i, **op}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans()):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ivals = [(s, e) for s, e in zip(self.start, self.end)]
        calls: Counter = Counter()
        incl: Counter = Counter()
        selfs: Counter = Counter()
        for i, s in enumerate(self_times(ivals, self.parent)):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            incl[name] += ivals[i][1] - ivals[i][0]
            selfs[name] += s
        return calls, incl, selfs


def self_times(intervals, parents) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            kids.setdefault(p, []).append(intervals[i])
    out = []
    for i, (start, end) in enumerate(intervals):
        covered = 0.0
        reach = start
        for cs, ce in sorted(kids.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Swap the WRAPPED attributes of `modules` (name -> module) for traced
    wrappers, and restore the originals on exit."""
    saved = []
    try:
        for mod_name, attrs in WRAPPED.items():
            mod = modules[mod_name]
            for attr in attrs:
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(f"{mod_name}.{attr}", fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Counts read from arguments and return values
# ---------------------------------------------------------------------------

def _edgefree_restricted(tracer, fn, args, kwargs):
    tracer.counts["edgefree_restricted"] += 1
    stats = args[5] if len(args) > 5 else kwargs.get("stats")
    before = stats.colourings_sampled if stats is not None else 0
    free = fn(*args, **kwargs)
    used = (stats.colourings_sampled - before) if stats is not None else 0
    c = tracer.counts
    c["colourings"] += used
    if used:
        if free:
            c["edgefree_after_colouring"] += 1
            c["colourings_edgefree"] += used
        else:
            c["witness_found"] += 1
    return free


def _counting_oracle(tracer, edgefree):
    """The memoized oracle of approx_count_answers, counted: a query that
    makes no edgefree_restricted call was answered from the memo."""
    calls = tracer.counts

    def oracle(box):
        before = calls["edgefree_restricted"]
        out = edgefree(box)
        calls["oracle_queries"] += 1
        if calls["edgefree_restricted"] == before:
            calls["memo_hits"] += 1
        return out

    return oracle


def _with_counted_oracle(tracer, fn, args, kwargs):
    args = (args[0], _counting_oracle(tracer, args[1])) + tuple(args[2:])
    return fn(*args, **kwargs)


def _build_automaton(tracer, fn, args, kwargs):
    aut = fn(*args, **kwargs)
    tracer.counts["states"] += len(aut.states)
    tracer.counts["transitions"] += sum(len(o) for o in aut.transitions.values())
    return aut


_HOOKS = {
    "reduction.edgefree_restricted": _edgefree_restricted,
    "reduction.count_edges_exact_oracle": _with_counted_oracle,
    "reduction.single_walk_estimate": _with_counted_oracle,
    "automata.build_automaton": _build_automaton,
}
