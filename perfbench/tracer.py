"""Per-layer tracing for the benchmark, from outside the package.

The tracer wraps agodel's public functions by swapping module attributes
in the namespaces that call them, and only while ``Tracer.installed()``
is active.  A function that calls itself through its own module global
(``free_vars``, ``substitute``, ``expand_derived``) is left unwrapped in
its defining module, so only calls that cross a module boundary are
seen, never a function's own recursion.

Spans (name, start, end, parent, query id) are kept in memory and
written out at the end.  Self time is accumulated as each span closes:
its duration minus the time its child spans cover.  Sub-microsecond
value operations are counted, never timed, because timing them would
mostly measure the wrapper.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from agodel.errors import ResourceLimitError

MODULES = ("agodel", "agodel.values", "agodel.syntax", "agodel.semantics",
           "agodel.translation", "agodel.solver", "agodel.modeltheory",
           "agodel.cli")


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it is defined and what it is called."""

    metric: str          # layer metric prefix, e.g. "solver.compile_inf"
    module: str          # defining module
    attr: str            # function name in that module
    timed: bool = True   # False: count calls only
    only_in: Optional[str] = None  # wrap this caller namespace only


TARGETS = (
    Target("cli.main", "agodel.cli", "main"),
    Target("syntax.parse", "agodel.syntax", "parse"),
    Target("syntax.parse", "agodel.syntax", "parse_theory"),
    Target("syntax.expand_derived", "agodel.syntax", "expand_derived"),
    Target("syntax.free_vars", "agodel.syntax", "free_vars", timed=False),
    Target("syntax.substitute", "agodel.syntax", "substitute"),
    Target("semantics.load_structure", "agodel.semantics", "load_structure"),
    Target("semantics.eval_formula", "agodel.semantics", "eval_formula"),
    Target("semantics.check_ultrametric", "agodel.semantics", "check_ultrametric"),
    Target("values.tv_compare", "agodel.values", "tv_compare", timed=False),
    Target("values.tv_mul", "agodel.values", "tv_mul", timed=False),
    Target("values.tv_min_max", "agodel.values", "tv_min", timed=False),
    Target("values.tv_min_max", "agodel.values", "tv_max", timed=False),
    Target("values.tv_resid", "agodel.values", "tv_resid", timed=False),
    Target("values.tv_inv", "agodel.values", "tv_inv", timed=False),
    Target("translation.check_translation", "agodel.translation", "check_translation"),
    Target("translation.translate", "agodel.translation", "translate"),
    Target("translation.to_classical", "agodel.translation", "to_classical"),
    Target("translation.eval_classical", "agodel.translation", "eval_classical"),
    Target("solver.find_model", "agodel.solver", "find_model"),
    Target("solver.ground_sentence", "agodel.solver", "ground_sentence"),
    Target("solver.compile_inf", "agodel.solver", "compile_inf"),
    Target("solver.fm_solve", "agodel.solver", "fm_solve"),
    Target("solver.witness_check", "agodel.semantics", "satisfies",
           only_in="agodel.solver"),
    Target("modeltheory.formula_family", "agodel.modeltheory", "formula_family"),
    Target("modeltheory.formula_family", "agodel.modeltheory", "sentence_family"),
    Target("modeltheory.search_embeddings", "agodel.modeltheory", "search_embeddings"),
    Target("modeltheory.check_embedding", "agodel.modeltheory", "check_embedding"),
    Target("modeltheory.bounded_elementary_equiv", "agodel.modeltheory",
           "bounded_elementary_equiv"),
    Target("modeltheory.bounded_ediag", "agodel.modeltheory", "bounded_ediag"),
)


def _self_recursive(fn) -> bool:
    return fn.__name__ in fn.__code__.co_names


def patch_sites() -> List[Tuple[object, str, object, Target]]:
    """Every (namespace, attribute, original, target) the tracer swaps."""
    modules = [importlib.import_module(name) for name in MODULES]
    sites = []
    for target in TARGETS:
        original = getattr(importlib.import_module(target.module), target.attr)
        for module in modules:
            if target.only_in is not None and module.__name__ != target.only_in:
                continue
            if module.__name__ == target.module and _self_recursive(original):
                continue
            for attr, value in vars(module).items():
                if value is original:
                    sites.append((module, attr, original, target))
    return sites


class Tracer:
    """Spans, self times and counters for one traced run."""

    def __init__(self):
        self.qid: Optional[str] = None
        self.spans: List[Optional[tuple]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, List[int]] = defaultdict(lambda: [0])
        self.extra: Dict[str, float] = defaultdict(float)
        self.restored: Optional[bool] = None
        self._stack: List[list] = []

    def _counter(self, metric: str, fn: Callable) -> Callable:
        cell = self.counts[metric]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _timer(self, metric: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        on_result = _RESULT_HOOKS.get(metric)
        on_limit = _LIMIT_HOOKS.get(metric)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            # a call nested in a span of the same metric (parse_theory ->
            # parse, sentence_family -> formula_family) is not counted again
            outer = parent is None or parent[2] != metric
            frame = [len(spans), 0.0, metric]  # span index, child time, name
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                if on_limit is not None and outer:
                    self.extra[on_limit] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[metric] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if outer:
                    self.calls[metric] += 1
                spans[frame[0]] = (metric, start, end,
                                   parent[0] if parent else -1, self.qid)
            if on_result is not None and outer:
                on_result(self, result)
            return result

        return timed

    @contextmanager
    def installed(self):
        """Swap in the wrappers; restore every original on exit."""
        sites = patch_sites()
        wrappers: Dict[tuple, Callable] = {}
        for module, attr, original, target in sites:
            key = (id(original), target.metric)
            if key not in wrappers:
                make = self._timer if target.timed else self._counter
                wrappers[key] = make(target.metric, original)
            setattr(module, attr, wrappers[key])
        try:
            yield self
        finally:
            for module, attr, original, _ in sites:
                setattr(module, attr, original)
            self.restored = all(getattr(module, attr) is original
                                for module, attr, original, _ in sites)

    def write(self, path) -> int:
        """Write the spans as gzipped JSON; returns the number written."""
        done = [s for s in self.spans if s is not None]
        origin = min((s[1] for s in done), default=0.0)
        names = sorted({s[0] for s in done})
        index = {n: i for i, n in enumerate(names)}
        qids = sorted({s[4] for s in done if s[4] is not None})
        qindex = {q: i for i, q in enumerate(qids)}
        rows = [[index[m], round(a - origin, 7), round(b - origin, 7), p,
                 qindex.get(q, -1)]
                for m, a, b, p, q in done]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "names": names, "queries": qids, "spans": rows}, fh)
        return len(rows)


def _find_model_result(tracer: Tracer, result) -> None:
    tracer.extra["solver.branches_examined"] += result.stats.branches_examined
    tracer.extra["solver.constant_maps_tried"] += result.stats.constant_maps_tried


def _compile_result(tracer: Tracer, result) -> None:
    tracer.extra["solver.compile_inf.branches_out"] += len(result)


def _fm_result(tracer: Tracer, result) -> None:
    tracer.extra["solver.fm_solve.sat"] += bool(result.sat)


def _companion_result(tracer: Tracer, result) -> None:
    tracer.extra["translation.companion_values"] += len(result.values)


def _family_result(tracer: Tracer, result) -> None:
    tracer.extra["modeltheory.family_formulas"] += len(result)


_RESULT_HOOKS = {
    "solver.find_model": _find_model_result,
    "solver.compile_inf": _compile_result,
    "solver.fm_solve": _fm_result,
    "translation.to_classical": _companion_result,
    "modeltheory.formula_family": _family_result,
}

_LIMIT_HOOKS = {
    "solver.find_model": "solver.find_model.budget_hits",
    "solver.compile_inf": "solver.compile_inf.budget_hits",
}


def _mean(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


# Per-layer metrics.  Unless stated otherwise a value is per traced query:
# ".calls" counts calls into the layer, ".self_s" its self time.
_CALLS = (
    "cli.main", "syntax.parse", "syntax.free_vars", "syntax.substitute",
    "semantics.eval_formula", "values.tv_compare", "values.tv_mul",
    "values.tv_min_max", "values.tv_resid", "values.tv_inv",
    "translation.check_translation", "solver.find_model", "solver.compile_inf",
    "solver.fm_solve", "modeltheory.formula_family", "modeltheory.check_embedding",
)
_SELF = (
    "cli.main", "syntax.parse", "syntax.expand_derived", "syntax.substitute",
    "semantics.load_structure", "semantics.eval_formula",
    "semantics.check_ultrametric", "translation.check_translation",
    "translation.translate", "translation.to_classical",
    "translation.eval_classical", "solver.find_model", "solver.ground_sentence",
    "solver.compile_inf", "solver.fm_solve", "solver.witness_check",
    "modeltheory.formula_family", "modeltheory.search_embeddings",
    "modeltheory.check_embedding", "modeltheory.bounded_elementary_equiv",
    "modeltheory.bounded_ediag",
)
_EXTRA_PER_QUERY = (
    "solver.compile_inf.branches_out", "solver.compile_inf.budget_hits",
    "solver.find_model.budget_hits", "solver.branches_examined",
    "solver.constant_maps_tried",
)


def layer_metrics(t: Tracer, queries: int) -> Dict[str, Tuple[float, str, str]]:
    """Every per-layer metric as name -> (value, unit, better)."""
    out = {}
    for m in _CALLS:
        calls = t.calls.get(m, 0) + t.counts[m][0]
        out[f"{m}.calls"] = (calls / queries, "calls/query", "lower")
    for m in _SELF:
        out[f"{m}.self_s"] = (t.self_s.get(m, 0.0) / queries, "s/query", "lower")
    for m in _EXTRA_PER_QUERY:
        out[m] = (t.extra.get(m, 0.0) / queries, "count/query", "lower")
    # means per call, not per query
    out["translation.companion_values"] = (
        _mean(t.extra["translation.companion_values"],
              t.calls.get("translation.to_classical", 0)), "values", "lower")
    out["solver.fm_solve.sat_ratio"] = (
        _mean(t.extra["solver.fm_solve.sat"], t.calls.get("solver.fm_solve", 0)),
        "ratio", "higher")
    out["modeltheory.family_size"] = (
        _mean(t.extra["modeltheory.family_formulas"],
              t.calls.get("modeltheory.formula_family", 0)), "formulas", "lower")
    return out
