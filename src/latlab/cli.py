"""Experiment runner CLI.

``latlab <experiment> --config <file.json> [--out <dir>] [--seed <int>]``
runs one seeded experiment suite, writes a deterministic CSV plus a JSON
summary, and exits 0 on all-PASS, 1 on any FAIL, 2 on usage errors.
``latlab report-merge <csv...> --out <file>`` merges run CSVs into one
summary, idempotently by run id.

Config rule: each experiment declares its complete config schema, and its
runner reads every field of it.  A config may set only declared fields, each
with the JSON type of its default.  A field that is unknown, mistyped or an
empty list, or a value that fails its range rule, is a usage error that
names the dotted field.  The range rules are the table ``_RANGES`` and the
``ranges`` of an experiment's ``_EXPERIMENTS`` entry, which take precedence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import extrapolation, sobolev_grid
from .extrapolation import (
    ExtrapolationSpace,
    multiplication_example_check,
    multiplication_generator,
    neumann_laplacian_1d,
    resolvent,
    resolvent_scheme,
)
from .ordered_space import (
    NormSpec,
    OrderedSpaceSpec,
    PolyhedralCone,
    normality_constant_lower_bound,
)
from .sobolev_grid import (
    ConvergenceError,
    GridDomain,
    GridFunction,
    GridTooCoarseError,
    default_chart_cover,
    mollify,
    positive_dominant_w0,
    pushin_operator,
)
from .span_lattice import (
    constructive_sup,
    constructive_sup_dual,
    mollifier_scheme,
    renorm_bounds_check,
    renorm_value,
    span_norm,
)

SCHEMA_VERSION = 1


class UsageError(ValueError):
    """Bad CLI arguments or configuration; exit code 2."""


class MergeError(ValueError):
    """Malformed report CSV; message names file and line."""


@dataclass
class ReportRow:
    """One experiment case: parameter snapshot, measured values, verdict.

    The keys of ``params`` and then of ``values`` are the CSV columns between
    ``case`` and ``status``, so every row of a run has the same keys in the
    same order.  A FAIL row carries a machine-readable witness (JSON-encoded).
    """

    case: str
    params: dict
    values: dict
    ok: bool
    witness: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.ok else "FAIL"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# Shared sample generators
# ---------------------------------------------------------------------------

_TRIG_MODES = 3


def _trig_profile(rng: np.random.Generator, t: np.ndarray, curvature: float) -> np.ndarray:
    """Random trigonometric polynomial scaled to a fixed curvature budget."""
    coeffs = rng.uniform(0.3, 1.0, size=_TRIG_MODES)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_TRIG_MODES)
    signs = rng.choice([-1.0, 1.0], size=_TRIG_MODES)
    weights = np.array([(2.0 * np.pi * (j + 1)) ** 2 for j in range(_TRIG_MODES)])
    coeffs = signs * coeffs * curvature / float(weights @ np.abs(coeffs))
    out = np.zeros_like(t)
    for j in range(_TRIG_MODES):
        out += coeffs[j] * np.sin(2.0 * np.pi * (j + 1) * t + phases[j])
    return out


def _build_scheme(family: str, domain: GridDomain, seed: int):
    """The scheme ``family`` on ``domain``; a config it cannot build is a usage error."""
    try:
        if family == "mollifier":
            return mollifier_scheme(domain)
        if family == "resolvent-neumann":
            gen = neumann_laplacian_1d(domain.node_count, domain.h)
            return resolvent_scheme(gen)
        if family == "resolvent-multiplication":
            rng = np.random.default_rng(seed + 10_000)
            m = rng.uniform(0.0, 3.0, size=domain.node_count)
            return resolvent_scheme(multiplication_generator(m))
    except ValueError as exc:
        raise UsageError(f"cannot build scheme {family!r}: {exc}") from exc
    raise UsageError(f"unknown scheme family {family!r}")


def _sup_gaps(compute, Z: np.ndarray) -> list[tuple[float, str]]:
    """Gap max|s - |z|| of each column z of Z, and its non-convergence witness.

    ``compute()`` is the supremum of the batch Z.  Its ConvergenceError names
    the failed columns; each gets a witness holding its message and Cauchy
    increments.  Gaps are taken at the best iterates, NaN without one.
    """
    try:
        S, failed = compute(), {}
    except ConvergenceError as exc:
        S, failed = exc.best, exc.diagnostics["columns"]
    out = []
    for j in range(Z.shape[1]):
        gap = float("nan") if S is None else float(np.max(np.abs(S[:, j] - np.abs(Z[:, j]))))
        error = json.dumps(failed[j], separators=(",", ":")) if j in failed else ""
        out.append((gap, error))
    return out


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _run_sup_construct(cfg: dict, sup) -> list[ReportRow]:
    """Rows of ``sup``, constructive_sup or constructive_sup_dual, on random profiles."""
    kind, n = cfg["domain"]["kind"], cfg["domain"]["n"]
    domain = GridDomain.torus(1.0, n) if kind == "torus" else GridDomain.interval(0.0, 1.0, n)
    scheme = _build_scheme(cfg["scheme"]["family"], domain, cfg["seed"])
    tol = cfg["scheme"]["tol"]
    threshold = cfg["gap_threshold"]
    rng = np.random.default_rng(cfg["seed"])
    t_ax = (domain.axis(0) - domain.lo[0]) / (domain.hi[0] - domain.lo[0])
    Z = np.column_stack([_trig_profile(rng, t_ax, cfg["curvature"])
                         for _ in range(cfg["samples"])])
    rows = []
    for i, (gap, error) in enumerate(_sup_gaps(lambda: sup(scheme, Z, tol), Z)):
        ok = not error and gap <= threshold
        rows.append(ReportRow(
            f"z{i:03d}",
            params={"domain": kind, "grid_n": n, "scheme": cfg["scheme"]["family"],
                    "tol": tol, "seed": cfg["seed"]},
            values={"gap": gap}, ok=ok,
            witness=error or ("" if ok else json.dumps(list(Z[:, i]), separators=(",", ":"))),
        ))
    return rows


def _run_normality_scan(cfg: dict) -> list[ReportRow]:
    eps_list = sorted(cfg["eps"], reverse=True)
    divisor = cfg["h_divisor"]
    n = int(math.ceil(divisor / min(eps_list))) + 1
    domain = GridDomain.interval(0.0, 1.0, n)
    space = OrderedSpaceSpec.standard_sobolev(domain, cfg["order"]["k"], cfg["order"]["p"])
    t = domain.axis(0)
    rows, prev = [], None
    for eps in eps_list:
        x = eps * np.sin(np.pi * t / eps) ** 2
        y = np.full_like(t, eps)
        ratio = normality_constant_lower_bound(space, [(x, y)])
        growth = ratio / prev if prev is not None else float("nan")
        ok = prev is None or (cfg["growth_low"] <= growth <= cfg["growth_high"])
        rows.append(ReportRow(
            f"eps={eps:g}",
            params={"eps": eps, "h": domain.h, "k": cfg["order"]["k"],
                    "p": cfg["order"]["p"], "seed": cfg["seed"]},
            values={"ratio": ratio, "growth": growth}, ok=ok,
            witness="" if ok else json.dumps({"eps": eps, "growth": growth}),
        ))
        prev = ratio
    return rows


def _run_mollifier_rate(cfg: dict) -> list[ReportRow]:
    domain = GridDomain.torus(1.0, cfg["domain"]["n"])
    t = domain.axis(0)
    f = GridFunction(domain, np.sin(2 * np.pi * t) + 0.5 * np.cos(4 * np.pi * t))
    deltas = cfg["deltas"]
    try:
        errs = [float(np.max(np.abs(mollify(f, d).values - f.values))) for d in deltas]
    except GridTooCoarseError as exc:
        raise UsageError(f"deltas = {deltas!r} too fine for domain.n = "
                         f"{domain.n}: {exc}") from exc
    rows = []
    for i, (d, e) in enumerate(zip(deltas, errs)):
        if i == 0:
            order, ok = float("nan"), True
        else:
            order = math.log2(errs[i - 1] / e)
            ok = order >= cfg["order_min"]
        rows.append(ReportRow(
            f"delta={d:g}",
            params={"grid_n": cfg["domain"]["n"], "delta": d, "seed": cfg["seed"]},
            values={"err_inf": e, "order": order}, ok=ok,
            witness="" if ok else json.dumps({"delta": d, "order": order}),
        ))
    return rows


def _audit_domains(cfg: dict) -> list[GridDomain]:
    kinds = cfg["domains"]
    out = []
    for kind in kinds:
        if kind == "interval":
            out.append(GridDomain.interval(0.0, 1.0, cfg["domain"]["n"]))
        elif kind == "rectangle":
            out.append(GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, cfg["rect_n"]))
        else:
            raise UsageError(f"chart audits run on interval/rectangle, not {kind!r}")
    return out


def _run_boundary_chart_audit(cfg: dict) -> list[ReportRow]:
    ns = tuple(cfg["ns"])
    samples = cfg["chart_samples"]
    rows = []
    for domain in _audit_domains(cfg):
        charts = default_chart_cover(domain, ns=ns)
        lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
        rng = np.random.default_rng(cfg["seed"] + 1)
        for ci, chart in enumerate(charts):
            box_lo = np.maximum(np.asarray(chart.v_lo), lo)
            box_hi = np.minimum(np.asarray(chart.v_hi), hi)
            pts = rng.uniform(box_lo, box_hi, size=(samples, domain.d))
            violations, witness = 0, ""
            for n in ns:
                img = chart.apply(n, pts)
                bad = ~np.all((img > lo) & (img < hi), axis=1)
                if bad.any() and not witness:
                    witness = json.dumps({"n": n, "sample": list(pts[bad][0])})
                violations += int(bad.sum())
            rows.append(ReportRow(
                f"{domain.kind}-chart{ci}",
                params={"domain": domain.kind, "chart": ci, "samples": samples,
                        "seed": cfg["seed"]},
                values={"violations": float(violations)}, ok=violations == 0,
                witness=witness,
            ))
    return rows


def _run_pushin_audit(cfg: dict) -> list[ReportRow]:
    ns = tuple(cfg["ns"])
    rows = []
    for domain in _audit_domains(cfg):
        pts = domain.points()
        rng = np.random.default_rng(cfg["seed"])
        # on 1-D domains the L^p error of S_n f - f for a smooth f must fall with n
        smooth, errs = np.sin(np.pi * domain.axis(0)), []
        for n in ns:
            op = pushin_operator(domain, n)
            if domain.d == 1:
                diff = GridFunction(domain, op.matrix @ smooth - smooth)
                errs.append(sobolev_grid.sobolev_norm(diff, 0, cfg["order"]["p"]))
            outside = ~op.node_in_k(pts)
            worst_support, worst_neg = 0.0, 0.0
            for _ in range(cfg["samples"]):
                f = rng.standard_normal(domain.node_count)
                sf = op.matrix @ f
                if outside.any():
                    worst_support = max(worst_support, float(np.max(np.abs(sf[outside]))))
                sf_pos = op.matrix @ np.abs(f)
                worst_neg = min(worst_neg, float(np.min(sf_pos)))
            ok = worst_support == 0.0 and worst_neg >= 0.0
            rows.append(ReportRow(
                f"{domain.kind}-n{n}",
                params={"domain": domain.kind, "grid_n": domain.n, "n": n,
                        "seed": cfg["seed"]},
                values={"outside_max": worst_support, "min_positive_image": worst_neg},
                ok=ok, witness="" if ok else json.dumps({"outside_max": worst_support}),
            ))
        if domain.d == 1:
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            rows.append(ReportRow(
                f"{domain.kind}-convergence",
                params={"domain": domain.kind, "grid_n": domain.n, "n": ns[-1],
                        "seed": cfg["seed"]},
                values={"outside_max": 0.0, "min_positive_image": float(errs[-1])},
                ok=decreasing,
                witness="" if decreasing else json.dumps({"errors": errs}),
            ))
    return rows


def _w0_sample(rng: np.random.Generator, t: np.ndarray, k: int) -> np.ndarray:
    # hard endpoint vanishing so the discrete derivatives sit below 1e-8
    power = k + 7
    bump = (t * (1.0 - t)) ** power * 4.0 ** power
    wave = 1.0 + 0.5 * np.sin(2 * np.pi * rng.integers(1, 4) * t + rng.uniform(0, 2 * np.pi))
    return bump * wave * rng.choice([-1.0, 1.0])


def _run_prop35_demo(cfg: dict) -> list[ReportRow]:
    domain = GridDomain.interval(0.0, 1.0, cfg["domain"]["n"])
    t = domain.axis(0)
    rng = np.random.default_rng(cfg["seed"])
    D = sobolev_grid.diff_operator(domain, (1,))
    rows = []
    for k in cfg["orders"]:
        for i in range(cfg["samples"]):
            f = GridFunction(domain, _w0_sample(rng, t, k))
            g = positive_dominant_w0(f, k)
            min_g = float(np.min(g.values))
            min_dom = float(np.min(g.values - f.values))
            resid = 0.0
            u = g.values
            for _ in range(k):
                resid = max(resid, abs(u[0]), abs(u[-1]))
                u = D @ u
            ok = min_g >= -1e-10 and min_dom >= -1e-10 and resid <= 1e-10
            rows.append(ReportRow(
                f"k{k}-f{i:02d}",
                params={"k": k, "grid_n": domain.n, "seed": cfg["seed"]},
                values={"min_g": min_g, "min_g_minus_f": min_dom, "endpoint_resid": resid},
                ok=ok, witness="" if ok else json.dumps(list(f.values[:8])),
            ))
    return rows


def _run_extrapolation_demo(cfg: dict) -> list[ReportRow]:
    rng = np.random.default_rng(cfg["seed"])
    rows = []

    def add(case, value, ok, witness=""):
        rows.append(ReportRow(case, {"seed": cfg["seed"]}, {"value": float(value)}, ok, witness))

    for label, m in [("m013", np.array([0.0, 1.0, 3.0])),
                     ("rand1", rng.uniform(0.0, 4.0, size=5)),
                     ("rand2", rng.uniform(0.0, 4.0, size=7))]:
        rep = multiplication_example_check(m, p=cfg["order"]["p"], seed=cfg["seed"])
        add(f"multiplication-identity-{label}", rep.identity_gap, rep.passed,
            "" if rep.passed else json.dumps(list(m)))

    space3 = ExtrapolationSpace(
        OrderedSpaceSpec.standard_lp(np.ones(3), 2.0),
        multiplication_generator([0.0, 1.0, 3.0]), lam=1.0)
    val = extrapolation.extrapolation_norm(space3, np.ones(3))
    add("multiplication-sqrt21-over-4", abs(val - math.sqrt(21.0) / 4.0),
        abs(val - math.sqrt(21.0) / 4.0) <= 1e-12)

    n = cfg["domain"]["n"]
    domain = GridDomain.interval(0.0, 1.0, n)
    gen = neumann_laplacian_1d(n, domain.h)
    R1, R2 = resolvent(gen, 1.0), resolvent(gen, 2.0)
    for mu, R in ((1.0, R1), (2.0, R2)):
        add(f"neumann-resolvent-positivity-mu{mu:g}", float(np.min(R)),
            float(np.min(R)) >= -1e-12)
    resid = float(np.max(np.abs(R1 - R2 - (2.0 - 1.0) * (R1 @ R2))))
    add("resolvent-identity", resid, resid <= 1e-9)

    base = OrderedSpaceSpec.standard_lp(np.full(n, domain.cell_measure), cfg["order"]["p"])
    space = ExtrapolationSpace.build(base, gen, lam=1.0)
    t = np.linspace(0.0, 1.0, n)
    z = _trig_profile(rng, t, curvature=40.0)
    Z = z[:, None]
    ((gap, error),) = _sup_gaps(
        lambda: extrapolation.theorem41_sup(space, Z, tol=cfg["scheme"]["tol"]), Z)
    ok = not error and gap <= cfg["gap_threshold"]
    add("theorem41-sup-gap", gap, ok, error or ("" if ok else json.dumps(list(z))))

    # desk-scale caveat, reported so the collapse is never mistaken for the
    # infinite-dimensional phenomenon
    add("finite-dim-cone-collapse-reported", 1.0, True)
    return rows


_RENORM_SPACES = {
    "l2-dim8": lambda: OrderedSpaceSpec.standard_lp(np.ones(8), 2.0),
    "l3-weighted-dim10": lambda: OrderedSpaceSpec.standard_lp(
        np.linspace(0.5, 2.0, 10), 3.0),
    "w12-interval-n8": lambda: OrderedSpaceSpec.standard_sobolev(
        GridDomain.interval(0.0, 1.0, 8), 1, 2.0),
    "dual-w12-interval-n10": lambda: OrderedSpaceSpec(
        10, PolyhedralCone.standard(10),
        NormSpec.dual_sobolev(GridDomain.interval(0.0, 1.0, 10), 1, 2.0)),
}


def estimate_renorm_constants(space: OrderedSpaceSpec,
                              xs) -> tuple[float, float, list[tuple[float, float]]]:
    """Witness-based M and C on a sample set, and each sample's two norms.

    The witness family per sample x: the positive parts against |x|, the
    exact renorm maximizer against |x|, and the positive parts against the
    minimizing span decomposition.  Zero samples bound neither constant and
    are skipped.  The third result holds (||x||, |||x|||) for every sample in
    order, the inputs of ``renorm_bounds_check``.
    """
    witnesses, span_ratios, norms = [], [], []
    for x in xs:
        x = np.asarray(x, dtype=float)
        nx, ren = space.norm.value(x), renorm_value(space, x)
        norms.append((nx, ren.value))
        if nx == 0.0:
            continue
        ax = np.abs(x)
        xp, xm = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        dec = span_norm(space, x)
        witnesses += [(xp, ax), (xm, ax), (ren.maximizer, ax), (xp, dec.y), (xm, dec.z)]
        span_ratios.append(dec.value / nx)
    if not span_ratios:
        raise ValueError("all samples were zero")
    witnesses = [(a, b) for a, b in witnesses if space.norm.value(b) > 0]
    return normality_constant_lower_bound(space, witnesses), max(span_ratios), norms


def _run_renorm_audit(cfg: dict) -> list[ReportRow]:
    rows = []
    rng = np.random.default_rng(cfg["seed"])
    inflate = cfg["inflation"]
    for name in cfg["spaces"]:
        if name not in _RENORM_SPACES:
            raise UsageError(f"unknown renorm-audit space {name!r}")
        space = _RENORM_SPACES[name]()
        xs = [rng.standard_normal(space.dim) for _ in range(cfg["samples"])]
        M, C, norms = estimate_renorm_constants(space, xs)
        M_i, C_i = inflate * M, inflate * C
        for i, (x, (base, ren)) in enumerate(zip(xs, norms)):
            rep = renorm_bounds_check(base, ren, M_i, C_i)
            rows.append(ReportRow(
                f"{name}-x{i:03d}",
                params={"space": name, "dim": space.dim, "M": M_i, "C": C_i,
                        "seed": cfg["seed"]},
                values={"base_norm": rep.base_norm, "renorm": rep.renorm,
                        "slack_low": rep.slack_low, "slack_high": rep.slack_high},
                ok=rep.passed, witness="" if rep.passed else json.dumps(list(x)),
            ))
    return rows


# ---------------------------------------------------------------------------
# Experiment registry, config validation
# ---------------------------------------------------------------------------

# the W^{k,p} norms of normality-scan and pushin-audit need p > 1
_SOBOLEV_RANGES = {
    "order.p": (lambda v: v > 1,
                "order.p = {!r} outside the allowed range: need a number > 1"),
}

# "defaults" is each experiment's complete config schema: normalize_config
# accepts only these fields, each with its default's JSON type, and the
# runner reads every one of them (tests/test_cli.py checks that it does).
# The primal and the dual supremum share everything but the runner.
_SUP = {
    "domain_kinds": ("torus", "interval"),
    "defaults": {"seed": 0, "samples": 10, "domain": {"kind": "torus", "n": 64},
                 "scheme": {"family": "mollifier", "tol": 4e-5},
                 "gap_threshold": 1e-5, "curvature": 0.005},
    "gap_field": "gap",
}

_EXPERIMENTS: dict[str, dict] = {
    "sup-construct": {**_SUP, "runner": lambda cfg: _run_sup_construct(cfg, constructive_sup)},
    "sup-construct-dual": {
        **_SUP, "runner": lambda cfg: _run_sup_construct(cfg, constructive_sup_dual)},
    "normality-scan": {
        "runner": _run_normality_scan,
        "defaults": {"seed": 0, "order": {"k": 1, "p": 2.0},
                     "eps": [0.25, 0.125, 0.0625], "h_divisor": 40,
                     "growth_low": 1.7, "growth_high": 2.3},
        "ranges": _SOBOLEV_RANGES,
        "gap_field": None,
    },
    "mollifier-rate": {
        "runner": _run_mollifier_rate,
        "domain_kinds": ("torus",),
        "defaults": {"seed": 0, "domain": {"kind": "torus", "n": 128},
                     "deltas": [0.1, 0.05, 0.025], "order_min": 1.8},
        "gap_field": "err_inf",
    },
    "boundary-chart-audit": {
        "runner": _run_boundary_chart_audit,
        "domain_kinds": ("interval",),
        "defaults": {"seed": 0, "domains": ["interval", "rectangle"], "rect_n": 32,
                     "domain": {"kind": "interval", "n": 64},
                     "ns": [2, 4, 8], "chart_samples": 10_000},
        "gap_field": "violations",
    },
    "pushin-audit": {
        "runner": _run_pushin_audit,
        "domain_kinds": ("interval",),
        "defaults": {"seed": 0, "samples": 20, "domains": ["interval"], "rect_n": 32,
                     "domain": {"kind": "interval", "n": 513},
                     "ns": [2, 4, 8], "order": {"p": 2.0}},
        "ranges": _SOBOLEV_RANGES,
        "gap_field": "outside_max",
    },
    "prop35-demo": {
        "runner": _run_prop35_demo,
        "domain_kinds": ("interval",),
        "defaults": {"seed": 0, "samples": 20, "domain": {"kind": "interval", "n": 257},
                     "orders": [1, 2]},
        "gap_field": "endpoint_resid",
    },
    "extrapolation-demo": {
        "runner": _run_extrapolation_demo,
        "domain_kinds": ("interval",),
        "defaults": {"seed": 0, "order": {"p": 2.0},
                     "domain": {"kind": "interval", "n": 32},
                     "scheme": {"tol": 1e-6}, "gap_threshold": 1e-5},
        "caveat": extrapolation.FINITE_DIMENSION_CAVEAT,
        "gap_field": "value",
    },
    "renorm-audit": {
        "runner": _run_renorm_audit,
        "defaults": {"seed": 0, "samples": 50, "spaces": list(_RENORM_SPACES),
                     "inflation": 1.05},
        "gap_field": None,
    },
}

# field -> (check, message), for every experiment that declares the field
# and does not override the rule in its "ranges"
_RANGES = {
    "seed": (lambda v: v >= 0, "seed must be a nonnegative integer, got {!r}"),
    "samples": (lambda v: v >= 1, "samples must be a positive integer, got {!r}"),
    "scheme.tol": (lambda v: 1e-12 <= v <= 1e-2,
                   "scheme.tol = {:g} outside the allowed range [1e-12, 1e-2]"),
    "domain.n": (lambda v: v >= 4,
                 "cannot build a grid with domain.n = {!r}; need an integer >= 4"),
    "rect_n": (lambda v: v >= 4,
               "cannot build a grid with rect_n = {!r}; need an integer >= 4"),
    # with every eps <= 1, h_divisor >= 3 gives the scan grid at least 4 points
    "eps": (lambda v: all(0 < e <= 1 for e in v),
            "eps = {!r} outside the allowed range: each value must lie in (0, 1]"),
    "h_divisor": (lambda v: v >= 3,
                  "h_divisor = {!r} outside the allowed range: need an integer >= 3"),
    "deltas": (lambda v: all(d > 0 for d in v),
               "deltas = {!r} outside the allowed range: each value must be > 0"),
    "ns": (lambda v: all(n >= 2 for n in v),
           "ns = {!r} outside the allowed range: each index must be an integer >= 2"),
    "order.k": (lambda v: v >= 0,
                "order.k = {!r} outside the allowed range: need an integer >= 0"),
    "orders": (lambda v: all(k >= 1 for k in v),
               "orders = {!r} outside the allowed range: each order must be an integer >= 1"),
    # extrapolation-demo runs its lp norms at p = 1
    "order.p": (lambda v: v >= 1,
                "order.p = {!r} outside the allowed range: need a number >= 1"),
}

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def _conform(field: str, value, default, ranges: dict):
    """``value`` checked against the JSON type of ``default``, which it overrides.

    An integer passes for a number, a boolean for neither.  An object is
    checked field by field, and its missing fields take their defaults; a
    list must be nonempty, each element must match the default's first
    element, and no two elements may be equal (each names its own cases).
    A field in ``ranges`` must then also pass its range check.
    """
    if type(value) is not type(default) and (type(default), type(value)) != (float, int):
        raise UsageError(
            f"config field {field} must be {_JSON_TYPES[type(default)]}, got {value!r}")
    if isinstance(default, dict):
        prefix = f"{field}." if field else ""
        unknown = sorted(set(value) - set(default))
        if unknown:
            raise UsageError(f"config field {prefix}{unknown[0]} is not declared; "
                             f"declared here: {', '.join(default)}")
        value = {key: _conform(prefix + key, value[key], sub, ranges) if key in value
                 else sub for key, sub in default.items()}
    if isinstance(default, list):
        if not value:
            raise UsageError(f"config field {field} must be a nonempty list")
        for i, item in enumerate(value):
            _conform(f"{field}[{i}]", item, default[0], ranges)
            if item in value[:i]:
                raise UsageError(f"config field {field} repeats the entry {item!r}; "
                                 "list entries must be distinct")
    if field in ranges and not ranges[field][0](value):
        raise UsageError(ranges[field][1].format(value))
    return value


def normalize_config(raw: dict) -> dict:
    """Apply defaults and validate; raises UsageError with field diagnostics."""
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    experiment = raw.get("experiment")
    if not experiment:
        raise UsageError("config field 'experiment' is required and must be nonempty")
    if experiment not in _EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {experiment!r}; choose from {sorted(_EXPERIMENTS)}")
    spec = _EXPERIMENTS[experiment]
    given = {k: v for k, v in raw.items() if k != "experiment"}
    cfg = _conform("", given, spec["defaults"], {**_RANGES, **spec.get("ranges", {})})
    cfg["experiment"] = experiment
    if "domain" in cfg and cfg["domain"]["kind"] not in spec["domain_kinds"]:
        kinds, kind = " or ".join(spec["domain_kinds"]), cfg["domain"]["kind"]
        raise UsageError(f"{experiment} runs on domain.kind {kinds}, not {kind!r}")
    return cfg


def run_id_of(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run(cfg: dict) -> tuple[list[ReportRow], float]:
    """Run a normalized config's experiment: its rows, deterministic per seed,
    and the runner's wall time in seconds."""
    start = time.perf_counter()
    rows = _EXPERIMENTS[cfg["experiment"]]["runner"](cfg)
    return rows, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(cfg: dict, rows: list[ReportRow], wall_time: float,
                 out_dir) -> tuple[Path, Path]:
    """Write the CSV of a normalized config's rows and its JSON summary.

    The CSV columns are ``case``, the keys of the first row's ``params`` and
    then of its ``values``, ``status`` and ``witness``.  The summary's pass
    and fail counts and worst gap are ``report_merge``'s, read back from the
    CSV.  Returns both paths.
    """
    spec = _EXPERIMENTS[cfg["experiment"]]
    rid = run_id_of(cfg)
    out_dir = Path(out_dir)
    fh = io.StringIO()
    fh.write(f"# schema={SCHEMA_VERSION},run_id={rid},experiment={cfg['experiment']}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["case", *rows[0].params, *rows[0].values, "status", "witness"])
    for row in rows:
        writer.writerow([row.case, *map(_fmt, row.params.values()),
                         *map(_fmt, row.values.values()), row.status, row.witness])
    csv_path = out_dir / f"{cfg['experiment']}-{rid}.csv"
    _atomic_write(csv_path, fh.getvalue())

    tally = report_merge([csv_path])["experiments"][cfg["experiment"]]
    summary = {"run_id": rid, "experiment": cfg["experiment"], **tally,
               "wall_time_s": wall_time}
    if "caveat" in spec:
        summary["caveat"] = spec["caveat"]
    json_path = out_dir / f"{cfg['experiment']}-{rid}.json"
    _atomic_write(json_path, json.dumps(summary, indent=2) + "\n")
    return csv_path, json_path


def report_merge(paths) -> dict:
    """Merge run CSVs into one summary; idempotent by run id."""
    seen: set[str] = set()
    per_experiment: dict[str, dict] = {}
    witnesses = []
    for path in paths:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise MergeError(f"{path}: cannot read ({exc})") from exc
        reader = csv.reader(text.splitlines(keepends=True))
        first = next(reader, [])
        if not first or not first[0].startswith("# schema="):
            raise MergeError(f"{path}:1: missing schema header")
        try:
            header = dict(item.split("=", 1) for item in [first[0][2:], *first[1:]])
        except ValueError as exc:
            raise MergeError(f"{path}:1: header cells must read key=value") from exc
        if header.get("schema") != str(SCHEMA_VERSION):
            raise MergeError(f"{path}:1: unsupported schema {header.get('schema')!r}")
        rid, experiment = header.get("run_id"), header.get("experiment")
        if experiment not in _EXPERIMENTS:
            raise MergeError(f"{path}:1: unknown experiment {experiment!r}")
        if rid in seen:
            continue
        seen.add(rid)
        columns = next(reader, [])
        if "status" not in columns:
            raise MergeError(f"{path}:2: missing status column")
        status_idx = columns.index("status")
        gap_field = _EXPERIMENTS[experiment]["gap_field"]
        gap_idx = columns.index(gap_field) if gap_field in columns else None
        bucket = per_experiment.setdefault(
            experiment, {"pass": 0, "fail": 0, "worst_gap": None})
        for cells in reader:
            if not cells:
                continue
            lineno = reader.line_num
            if len(cells) != len(columns):
                raise MergeError(
                    f"{path}:{lineno}: expected {len(columns)} cells, got {len(cells)}")
            status = cells[status_idx]
            if status not in ("PASS", "FAIL"):
                raise MergeError(f"{path}:{lineno}: bad status {status!r}")
            bucket["pass" if status == "PASS" else "fail"] += 1
            if status == "FAIL":
                witnesses.append({"file": str(path), "line": lineno,
                                  "witness": cells[-1]})
            if gap_idx is not None and cells[gap_idx]:
                try:
                    gap = float(cells[gap_idx])
                except ValueError as exc:
                    raise MergeError(
                        f"{path}:{lineno}: bad gap value {cells[gap_idx]!r}") from exc
                if math.isfinite(gap):
                    prev = bucket["worst_gap"]
                    bucket["worst_gap"] = gap if prev is None else max(prev, gap)
    total_fail = sum(b["fail"] for b in per_experiment.values())
    return {
        "runs": len(seen),
        "experiments": per_experiment,
        "status": "FAIL" if total_fail else "PASS",
        "witnesses": witnesses,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latlab",
        description="Run seeded lattice-laboratory experiments and emit CSV/JSON reports.",
    )
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["report-merge"])
    parser.add_argument("paths", nargs="*", help="CSV files for report-merge")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="runs", help="output directory (or merge file)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.experiment == "report-merge":
            if not args.paths:
                raise UsageError("report-merge needs at least one CSV path")
            summary = report_merge(args.paths)
            out = Path(args.out)
            if out.suffix != ".json":
                out = out / "merged-summary.json"
            _atomic_write(out, json.dumps(summary, indent=2) + "\n")
            print(f"{summary['status']}: merged {summary['runs']} runs -> {out}")
            return 0 if summary["status"] == "PASS" else 1

        if not args.config:
            raise UsageError("--config is required for experiment runs")
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        if raw.get("experiment") not in (None, args.experiment):
            raise UsageError(
                f"config experiment {raw.get('experiment')!r} does not match "
                f"CLI experiment {args.experiment!r}")
        raw["experiment"] = args.experiment
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = normalize_config(raw)
        rows, wall_time = run(cfg)
        csv_path, json_path = write_report(cfg, rows, wall_time, args.out)
        summary = json.loads(json_path.read_text())
        print(f"{'FAIL' if summary['fail'] else 'PASS'}: {summary['pass']}/{len(rows)} "
              f"rows passed -> {csv_path}")
        return 1 if summary["fail"] else 0
    except (UsageError, MergeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
