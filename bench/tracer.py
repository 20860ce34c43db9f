"""In-memory span tracer that wraps desir's public entry points from outside.

Nothing under ``src/`` knows about it.  :class:`Tracer` rebinds each traced
function at every ``desir`` module binding that holds it (so ``lp.solve`` is
caught at each call-site module that imported it) and each traced method on
its class, records one span per call with its parent span, and puts every
original binding back on exit.  Spans stay in memory until :meth:`dump`.

A span's self time is its duration minus the durations of its direct
children.  There is no queue anywhere in the kernel, so no wait times exist.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Span record fields (a list per span, parents always precede children).
NAME, LABEL, PARENT, START, END, EXTRA = range(6)

PER_LAYER_UNITS = {
    "lp.solve.calls": "count",
    "lp.solve.self_s": "s",
    "lp.solve.mean_ms": "ms",
    "lp.solve.rows_mean": "rows",
    "lp.solve.vars_mean": "vars",
    "lp.solve.infeasible_frac": "ratio",
    "lp.solve.calls.cones": "count",
    "lp.solve.calls.credal": "count",
    "lp.solve.calls.preferences": "count",
    "lp.solve.self_s.cones": "s",
    "lp.solve.self_s.credal": "s",
    "lp.solve.self_s.preferences": "s",
    "credal.enumerate.calls": "count",
    "credal.enumerate.self_s": "s",
    "credal.enumerate.vertices": "count",
    "credal.enumerate.ms_per_vertex": "ms",
    "credal.from_constraints.self_s": "s",
    "credal.from_vertices.calls": "count",
    "credal.from_vertices.self_s": "s",
    "credal.envelope.calls": "count",
    "credal.envelope.self_s": "s",
    "cones.query.calls": "count",
    "cones.query.self_s": "s",
    "cones.lp_per_query": "lp/query",
    "cones.lp_per_query.member": "lp/query",
    "cones.lp_per_query.condlowprev": "lp/query",
    "cones.replay.calls": "count",
    "cones.replay.self_s": "s",
    "cones.construct.self_s": "s",
    "preferences.holds.calls": "count",
    "preferences.holds.self_s": "s",
    "products.self_s": "s",
    "document.parse.self_s": "s",
    "cli.run_command.self_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Metrics that must repeat exactly between rounds on the same inputs.
COUNT_METRICS = tuple(
    k for k, unit in PER_LAYER_UNITS.items() if unit in ("count", "lp/query", "rows", "vars")
) + ("lp.solve.infeasible_frac",)

_LP_SITES = ("cones", "credal", "preferences")
_QUERY_KINDS = {
    "contains": "member",
    "member": "member",
    "lower_prevision": "lowprev",
    "upper_prevision": "lowprev",
    "conditional_lower_prevision": "condlowprev",
    "conditional_upper_prevision": "condlowprev",
}


def _lp_extra(args, out):
    problem = args[0]
    return (len(problem.constraints), len(problem.objective), out.status)


class Tracer:
    """Context manager: traced while entered, original bindings on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, label=None, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, label, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if extra is not None:
                rec[EXTRA] = extra(args, out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _function(self, fn, name, extra=None):
        """Rebind ``fn`` wherever a desir module holds it; label = that module."""
        for modname, mod in list(sys.modules.items()):
            if modname != "desir" and not modname.startswith("desir."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    label = modname.rpartition(".")[2]
                    self._patch(mod, attr, self._wrap(fn, name, label, extra))

    def _method(self, cls, attr, name, label=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name, label)))
        else:
            self._patch(cls, attr, self._wrap(raw, name, label))

    def __enter__(self):
        from desir import cli, cones, credal, document, lp, preferences, products

        self._function(lp.solve, "lp.solve", _lp_extra)
        self._function(credal.enumerate_vertices, "credal.enumerate", lambda a, out: len(out))
        self._method(credal.CredalSet, "from_constraints", "credal.from_constraints")
        self._method(credal.CredalSet, "from_vertices", "credal.from_vertices")
        for attr in ("lower", "upper", "lower_probability", "conditional_natural_extension"):
            self._method(credal.CredalSet, attr, "credal.envelope")
        for attr, kind in _QUERY_KINDS.items():
            self._method(cones.DesirSet, attr, "cones.query", kind)
        for cls in (cones.PositiveCombination, cones.PositiveExpectation, cones.SeparatingPrevision):
            self._method(cls, "replays", "cones.replay")
        for attr in ("from_generators", "vacuous", "strict", "augmented"):
            self._method(cones.DesirSet, attr, "cones.construct")
        self._method(preferences.PreferenceRelation, "holds", "preferences.holds")
        for fn in (
            products.strong_product,
            products.satisfies_a4,
            products.satisfies_a5,
            products.is_strong_product,
            products.irrelevant_product_set,
            products.independent_natural_extension,
        ):
            self._function(fn, "products")
        self._function(document.parse_document, "document.parse")
        self._function(cli.run_command, "cli.run_command")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._patches]

    def dump(self, path: Path):
        """Write every span as one JSON line: id, name, label, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                row = [sid, rec[NAME], rec[LABEL], rec[PARENT], rec[START], rec[END]]
                fh.write(json.dumps(row) + "\n")


def summarize(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer metrics of one round; ``spans`` is the round's slice of
    :attr:`Tracer.spans`, starting at absolute index ``base``."""
    n = len(spans)
    child = [0.0] * n
    query_root = [-1] * n
    for k, rec in enumerate(spans):
        parent = rec[PARENT] - base
        if parent >= 0:
            child[parent] += rec[END] - rec[START]
            query_root[k] = query_root[parent]
        if rec[NAME] == "cones.query" and query_root[k] < 0:
            query_root[k] = k

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    lp = {"rows": 0, "vars": 0, "infeasible": 0, "dur": 0.0}
    lp_calls = dict.fromkeys(_LP_SITES, 0)
    lp_self = dict.fromkeys(_LP_SITES, 0.0)
    vertices = 0
    queries = {"member": 0, "lowprev": 0, "condlowprev": 0}
    query_lps = dict.fromkeys(queries, 0)
    for k, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        own = dur - child[k]
        self_s[name] = self_s.get(name, 0.0) + own
        root = query_root[k]
        if name == "cones.query":
            if root == k:
                calls[name] = calls.get(name, 0) + 1
                queries[rec[LABEL]] += 1
            continue
        calls[name] = calls.get(name, 0) + 1
        if name == "lp.solve":
            rows, width, status = rec[EXTRA] or (0, 0, None)
            lp["rows"] += rows
            lp["vars"] += width
            lp["infeasible"] += status == "infeasible"
            lp["dur"] += dur
            if rec[LABEL] in lp_calls:
                lp_calls[rec[LABEL]] += 1
                lp_self[rec[LABEL]] += own
            if root >= 0:
                query_lps[spans[root][LABEL]] += 1
        elif name == "credal.enumerate":
            vertices += rec[EXTRA] or 0

    def ratio(a, b):
        return a / b if b else 0.0

    n_lp = calls.get("lp.solve", 0)
    n_query = calls.get("cones.query", 0)
    out = {
        "lp.solve.calls": n_lp,
        "lp.solve.self_s": self_s.get("lp.solve", 0.0),
        "lp.solve.mean_ms": ratio(1000 * lp["dur"], n_lp),
        "lp.solve.rows_mean": ratio(lp["rows"], n_lp),
        "lp.solve.vars_mean": ratio(lp["vars"], n_lp),
        "lp.solve.infeasible_frac": ratio(lp["infeasible"], n_lp),
    }
    for site in _LP_SITES:
        out[f"lp.solve.calls.{site}"] = lp_calls[site]
    for site in _LP_SITES:
        out[f"lp.solve.self_s.{site}"] = lp_self[site]
    enum_s = self_s.get("credal.enumerate", 0.0)
    out.update(
        {
            "credal.enumerate.calls": calls.get("credal.enumerate", 0),
            "credal.enumerate.self_s": enum_s,
            "credal.enumerate.vertices": vertices,
            "credal.enumerate.ms_per_vertex": ratio(1000 * enum_s, vertices),
            "credal.from_constraints.self_s": self_s.get("credal.from_constraints", 0.0),
            "credal.from_vertices.calls": calls.get("credal.from_vertices", 0),
            "credal.from_vertices.self_s": self_s.get("credal.from_vertices", 0.0),
            "credal.envelope.calls": calls.get("credal.envelope", 0),
            "credal.envelope.self_s": self_s.get("credal.envelope", 0.0),
            "cones.query.calls": n_query,
            "cones.query.self_s": self_s.get("cones.query", 0.0),
            "cones.lp_per_query": ratio(sum(query_lps.values()), n_query),
            "cones.lp_per_query.member": ratio(query_lps["member"], queries["member"]),
            "cones.lp_per_query.condlowprev": ratio(
                query_lps["condlowprev"], queries["condlowprev"]
            ),
            "cones.replay.calls": calls.get("cones.replay", 0),
            "cones.replay.self_s": self_s.get("cones.replay", 0.0),
            "cones.construct.self_s": self_s.get("cones.construct", 0.0),
            "preferences.holds.calls": calls.get("preferences.holds", 0),
            "preferences.holds.self_s": self_s.get("preferences.holds", 0.0),
            "products.self_s": self_s.get("products", 0.0),
            "document.parse.self_s": self_s.get("document.parse", 0.0),
            "cli.run_command.self_s": self_s.get("cli.run_command", 0.0),
        }
    )
    return out
