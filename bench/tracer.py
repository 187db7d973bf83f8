"""Spans around the public calls into each latlab layer, and the per-layer
metrics derived from them.

The tracer patches latlab from the outside: every module that binds a traced
function gets the wrapper, NormSpec / PushinOperator / GeneratorMatrix get
wrapped methods, and the schemes returned by ``mollifier_scheme`` and
``resolvent_scheme`` get a timed ``R``.  Spans are kept in memory with
parent ids; self time is a span's duration minus the part covered by its
children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id, parent, name, start, end=None, attrs=None):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.attrs = start, end, attrs


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def exit(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(args, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# Patching latlab
# ---------------------------------------------------------------------------

def _latlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "latlab" or name.startswith("latlab."))]


class Patcher:
    """Replaces every binding of a traced object and restores them on undo."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, module, attr: str, wrapper) -> None:
        """Rebind ``module.attr`` in every latlab module that binds it."""
        orig = getattr(module, attr)
        wrapped = wrapper(orig)
        for mod in _latlab_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapped)

    def attribute(self, owner, attr: str, wrapper) -> None:
        """Rebind one attribute of a class or module."""
        self._set(owner, attr, wrapper(getattr(owner, attr)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _rows(args, result):
    import numpy as np
    return {"rows": int(np.atleast_2d(np.asarray(args[1])).shape[0])}


def _report_bytes(args, result):
    # the CSV only: the JSON summary carries the run's wall time, whose
    # printed length varies, and counts must repeat exactly
    csv_path, _ = result
    return {"bytes": csv_path.stat().st_size}


def _timed_scheme(tracer: Tracer, name: str):
    """Wrap a scheme factory so the returned scheme's ``R`` is a span."""

    def wrapper(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            scheme = factory(*args, **kwargs)
            orig_R, seen = scheme.R, {}

            def R(n):
                span = tracer.enter(name)
                try:
                    op = orig_R(n)
                finally:
                    tracer.exit(span)
                if id(op) not in seen:  # a newly built operator
                    seen[id(op)] = op
                    span.attrs = {"built": 1, "bytes": int(getattr(op, "nbytes", 0))}
                return op

            return dataclasses.replace(scheme, R=R)

        return build

    return wrapper


def install(tracer: Tracer) -> Patcher:
    """Patch latlab's public layer entry points; returns the undo handle."""
    import scipy.optimize

    from latlab import cli, extrapolation, ordered_space, sobolev_grid, span_lattice
    from latlab.extrapolation import GeneratorMatrix
    from latlab.ordered_space import NormSpec
    from latlab.sobolev_grid import PushinOperator

    def span(name, attrs=None):
        return lambda fn: tracer.wrap(fn, name, attrs)

    p = Patcher()
    functions = [
        (ordered_space, "normality_constant_lower_bound", "ordered_space.oracle", None),
        (ordered_space, "dual_cone", "ordered_space.oracle", None),
        (ordered_space, "supremum_oracle", "ordered_space.oracle", None),
        (ordered_space, "is_face", "ordered_space.oracle", None),
        (ordered_space, "in_generated_cone", "ordered_space.nnls", None),
        (sobolev_grid, "sobolev_norm", "sobolev_grid.sobolev_norm", None),
        (sobolev_grid, "negative_sobolev_norm", "sobolev_grid.negative_sobolev_norm", None),
        (sobolev_grid, "mollify", "sobolev_grid.mollify", None),
        (sobolev_grid, "default_chart_cover", "sobolev_grid.chart_cover", None),
        (sobolev_grid, "positive_dominant_w0", "sobolev_grid.positive_dominant", None),
        (span_lattice, "span_norm", "span_lattice.span_norm", None),
        (span_lattice, "renorm_value", "span_lattice.renorm",
         lambda a, r: {"exact": int(r.exact)}),
        (span_lattice, "constructive_sup", "span_lattice.sup", None),
        (span_lattice, "constructive_sup_dual", "span_lattice.sup_dual", None),
        (extrapolation, "resolvent", "extrapolation.resolvent", None),
        (extrapolation, "theorem41_sup", "extrapolation.theorem41", None),
        (extrapolation, "multiplication_example_check",
         "extrapolation.multiplication_check", None),
        (cli, "normalize_config", "cli.normalize", None),
        (cli, "run", "cli.runner", None),
        (cli, "write_report", "cli.write_report", _report_bytes),
        (cli, "report_merge", "cli.report_merge", None),
    ]
    for module, attr, name, attrs in functions:
        p.everywhere(module, attr, span(name, attrs))
    p.everywhere(span_lattice, "mollifier_scheme",
                 _timed_scheme(tracer, "span_lattice.scheme_R"))
    p.everywhere(extrapolation, "resolvent_scheme",
                 _timed_scheme(tracer, "extrapolation.scheme_R"))

    p.attribute(NormSpec, "value", span("ordered_space.norm_value"))
    p.attribute(NormSpec, "grad", span("ordered_space.norm_grad"))
    p.attribute(NormSpec, "value_many", span("ordered_space.norm_value_many", _rows))
    p.attribute(NormSpec, "__post_init__", span("ordered_space.norm_build"))
    p.attribute(PushinOperator, "__init__", span(
        "sobolev_grid.pushin_build", lambda a, r: {"nnz": int(a[0].matrix.nnz)}))
    p.attribute(GeneratorMatrix, "__post_init__", span("extrapolation.generator_build"))
    # only ordered_space solves LPs; it looks linprog up on scipy.optimize
    p.attribute(scipy.optimize, "linprog", span("ordered_space.lp"))
    return p


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> (unit, better); BENCHMARK.json lists the same set
PER_LAYER = {
    "ordered_space.norm_value.calls": ("count", "lower"),
    "ordered_space.norm_value.self_s": ("s", "lower"),
    "ordered_space.norm_grad.calls": ("count", "lower"),
    "ordered_space.norm_grad.self_s": ("s", "lower"),
    "ordered_space.norm_value_many.rows": ("count", "lower"),
    "ordered_space.norm_value_many.self_s": ("s", "lower"),
    "ordered_space.norm_build.calls": ("count", "lower"),
    "ordered_space.norm_build.self_s": ("s", "lower"),
    "ordered_space.lp.solves": ("count", "lower"),
    "ordered_space.lp.self_s": ("s", "lower"),
    "ordered_space.nnls.calls": ("count", "lower"),
    "ordered_space.nnls.self_s": ("s", "lower"),
    "ordered_space.oracle.self_s": ("s", "lower"),
    "sobolev_grid.sobolev_norm.calls": ("count", "lower"),
    "sobolev_grid.sobolev_norm.self_s": ("s", "lower"),
    "sobolev_grid.negative_sobolev_norm.calls": ("count", "lower"),
    "sobolev_grid.negative_sobolev_norm.self_s": ("s", "lower"),
    "sobolev_grid.mollify.calls": ("count", "lower"),
    "sobolev_grid.mollify.self_s": ("s", "lower"),
    "sobolev_grid.pushin_build.calls": ("count", "lower"),
    "sobolev_grid.pushin_build.self_s": ("s", "lower"),
    "sobolev_grid.pushin.nnz": ("count", "lower"),
    "sobolev_grid.chart_cover.self_s": ("s", "lower"),
    "sobolev_grid.positive_dominant.self_s": ("s", "lower"),
    "span_lattice.span_norm.calls": ("count", "lower"),
    "span_lattice.span_norm.self_s": ("s", "lower"),
    "span_lattice.span_norm.norm_evals_per_call": ("evals/call", "lower"),
    "span_lattice.renorm.calls": ("count", "lower"),
    "span_lattice.renorm.self_s": ("s", "lower"),
    "span_lattice.renorm.exact_frac": ("ratio", "higher"),
    "span_lattice.scheme_R.calls": ("count", "lower"),
    "span_lattice.scheme_R.builds": ("count", "lower"),
    "span_lattice.scheme_R.self_s": ("s", "lower"),
    "span_lattice.scheme_R.bytes": ("B", "lower"),
    "span_lattice.sup.calls": ("count", "lower"),
    "span_lattice.sup.self_s": ("s", "lower"),
    "span_lattice.sup.indices_per_call": ("indices/call", "lower"),
    "span_lattice.sup_dual.self_s": ("s", "lower"),
    "extrapolation.generator_build.calls": ("count", "lower"),
    "extrapolation.generator_build.self_s": ("s", "lower"),
    "extrapolation.scheme_R.builds": ("count", "lower"),
    "extrapolation.scheme_R.self_s": ("s", "lower"),
    "extrapolation.scheme_R.bytes": ("B", "lower"),
    "extrapolation.resolvent.calls": ("count", "lower"),
    "extrapolation.resolvent.self_s": ("s", "lower"),
    "extrapolation.theorem41.self_s": ("s", "lower"),
    "extrapolation.multiplication_check.self_s": ("s", "lower"),
    "cli.normalize.self_s": ("s", "lower"),
    "cli.runner.self_s": ("s", "lower"),
    "cli.write_report.self_s": ("s", "lower"),
    "cli.write_report.bytes": ("B", "lower"),
    "cli.report_merge.self_s": ("s", "lower"),
    "cli.exit_mismatch": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "error_rate": ("ratio", "lower"),
}

# filled in by bench/run.py from the checks and the untraced passes
RUN_METRICS = ("cli.exit_mismatch", "trace.overhead_s", "error_rate")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except RUN_METRICS, from one pass's spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    # nearest enclosing span_norm / sup for each span (parents precede children)
    in_span_norm, in_sup = [False] * len(spans), [False] * len(spans)
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        for key, val in (s.attrs or {}).items():
            sums[f"{s.name}.{key}"] = sums.get(f"{s.name}.{key}", 0) + val
        up = s.parent
        in_span_norm[s.id] = s.name == "span_lattice.span_norm" or (
            up >= 0 and in_span_norm[up])
        in_sup[s.id] = s.name == "span_lattice.sup" or (up >= 0 and in_sup[up])
    norm_evals = sum(1 for s in spans if s.name == "ordered_space.norm_value"
                     and in_span_norm[s.id])
    sup_indices = sum(1 for s in spans if s.name.endswith(".scheme_R") and in_sup[s.id])

    def per_call(count, name):
        return count / calls[name] if calls.get(name) else 0.0

    out = {}
    for metric in PER_LAYER:
        if metric in RUN_METRICS:
            continue
        span_name, _, kind = metric.rpartition(".")
        if kind == "calls" or kind == "solves":
            out[metric] = calls.get(span_name, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(span_name, 0.0)
        elif kind == "norm_evals_per_call":
            out[metric] = per_call(norm_evals, span_name)
        elif kind == "indices_per_call":
            out[metric] = per_call(sup_indices, span_name)
        elif kind == "exact_frac":
            out[metric] = per_call(sums.get(f"{span_name}.exact", 0), span_name)
        elif metric == "sobolev_grid.pushin.nnz":
            out[metric] = sums.get("sobolev_grid.pushin_build.nnz", 0)
        elif kind == "builds":
            out[metric] = sums.get(f"{span_name}.built", 0)
        else:  # rows, bytes
            out[metric] = sums.get(metric, 0)
    return out
