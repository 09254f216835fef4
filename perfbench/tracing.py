"""Spans and counts recorded around esarb's module boundaries.

The tracer replaces a module attribute (the name a caller looks up at call
time) with a wrapper that records a span: name, start, end, parent span
and operation id. Hooks add counts read from arguments and results, such
as LP rows or optimizer evaluations. Spans stay in memory and are written
out when the run ends. A boundary missing from the program is skipped and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


# A hook adds counts from a call's arguments and result; parent is the
# name of the enclosing span, or None.

def _rows_hook(counts, parent, args, result):
    counts["detector.lp_rows_in"] += len(args[0].scenarios)
    counts["detector.lp_rows_out"] += result.n_scenarios


def _nnz_hook(counts, parent, args, result):
    counts["detector.lp_nnz"] += int(result.nnz)


def _iterations_hook(counts, parent, args, result):
    counts["simplex.iterations"] += int(result.iterations)


def _evaluations_hook(counts, parent, args, result):
    counts["detector.min_p_evaluations"] += int(result.evaluations)


def _optimizer_hook(counts, parent, args, result):
    if parent in ("models.calibrate_mixture", "models.fit_garch"):
        counts[f"{parent}_nfev"] += int(result.nfev)
    if parent == "models.calibrate_mixture":
        counts["models.calibrate_mixture_starts"] += 1


def _solve_tag(args):
    """The max-expected LP's solve_lp calls also count as confirmation."""
    return "detector.confirmation" if getattr(args[0], "kind", "") == "max_expected" else None


# (module, attribute, span name, count hook, tag function). The same
# function is wrapped in every module that imports it under its own name.
BOUNDARIES = [
    ("analytic", "markowitz_market", "analytic.markowitz_market", None, None),
    ("analytic", "density_market", "analytic.density_market", None, None),
    ("cli", "density_market_mc", "analytic.density_market_mc", None, None),
    ("market", "expand_quotes", "market.expand_quotes", None, None),
    ("market", "MarketSnapshot.payoff_matrix", "market.payoff_matrix", None, None),
    ("detector", "var_p", "risk.var_p", None, None),
    ("utility", "es_p", "risk.es_p", None, None),
    ("detector", "detect", "detector.detect", None, None),
    ("detector", "build_lp", "detector.build_lp", _rows_hook, None),
    ("detector", "LpProblem.constraint_matrix", "detector.constraint_matrix", _nnz_hook, None),
    ("detector", "solve_lp", "detector.solve_lp", None, _solve_tag),
    ("detector", "_solve_min_es_cuts", "detector.path.cutting_plane", None, None),
    ("detector", "_solve_max_expected_cuts", "detector.path.cutting_plane", None, None),
    ("detector", "_solve_highs", "detector.path.highs", None, None),
    ("detector", "_solve_small_simplex", "detector.path.simplex", None, None),
    ("detector", "linprog", "detector.linprog", None, None),
    ("simplex", "solve_simplex", "simplex.solve_simplex", _iterations_hook, None),
    ("detector", "min_p", "detector.min_p", _evaluations_hook, None),
    ("cli", "min_p", "detector.min_p", _evaluations_hook, None),
    ("cli", "main", "cli.main", None, None),
    ("io", "write_json", "io.write_json", None, None),
    ("models", "calibrate_mixture", "models.calibrate_mixture", None, None),
    ("models", "fit_garch", "models.fit_garch", None, None),
    ("models", "minimize", "models.minimize", _optimizer_hook, None),
    ("models", "default_pl_grid", "models.default_pl_grid", None, None),
    ("models", "pl_quadrature", "models.pl_quadrature", None, None),
    ("utility", "scaling_scan", "utility.scaling_scan", None, None),
    ("utility", "classic_constraint_sup", "utility.classic_constraint_sup", None, None),
    ("utility", "minimize", "utility.slsqp", None, None),
]

# Counts that the hooks add; every other metric comes from spans.
COUNT_METRICS = [
    "detector.lp_rows_in",
    "detector.lp_rows_out",
    "detector.lp_nnz",
    "simplex.iterations",
    "detector.min_p_evaluations",
    "models.calibrate_mixture_nfev",
    "models.calibrate_mixture_starts",
    "models.fit_garch_nfev",
]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, operation id, tag]; a
        # tagged span also counts under the tag's name
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.operation = None

    def wrap(self, name, fn, hook=None, tag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.operation,
                    tag(args) if tag else None]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook:
                hook(tracer.counts, tracer.spans[parent][0] if parent is not None else None,
                     args, result)
            return result

        return traced

    def install(self, package) -> list[str]:
        """Wrap every boundary present in the imported package; return the
        boundaries that are missing."""
        missing = []
        for module_name, attr, name, hook, tag in BOUNDARIES:
            try:
                module = importlib.import_module(f"{package.__name__}.{module_name}")
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            owner, _, leaf = attr.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            if target is None:
                current = None
            else:
                current = vars(target).get(leaf) if owner else getattr(target, leaf, None)
            if current is None:
                missing.append(f"{module_name}.{attr}")
            elif isinstance(current, functools.cached_property):
                wrapped = functools.cached_property(self.wrap(name, current.func, hook, tag))
                wrapped.__set_name__(target, leaf)
                setattr(target, leaf, wrapped)
            else:
                setattr(target, leaf, self.wrap(name, current, hook, tag))
        return missing

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values: totals over the run divided by its passes.
        Every span name and tag gets <name>_calls, <name>_s and
        <name>_self_s (0 when no call was made); the counts keep their
        names."""
        names = {name for _, _, name, _, _ in BOUNDARIES} | {"detector.confirmation"}
        calls = dict.fromkeys(names, 0)
        total, own = dict.fromkeys(names, 0.0), dict.fromkeys(names, 0.0)
        child = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        for i, span in enumerate(self.spans):
            duration = span[2] - span[1]
            for key in filter(None, (span[0], span[5])):
                calls[key] += 1
                total[key] += duration
                own[key] += duration - child[i]
        out = {}
        for key in names:
            out[f"{key}_calls"] = calls[key] / passes
            out[f"{key}_s"] = total[key] / passes
            out[f"{key}_self_s"] = own[key] / passes
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0) / passes
        return out

    def write(self, path) -> None:
        names = ["name", "start", "end", "parent", "operation", "tag"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(names, s)) for s in self.spans],
                       "counts": dict(self.counts)},
                      handle)
