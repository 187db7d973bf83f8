"""Experiment runner CLI.

``latlab <experiment> --config <file.json> [--out <dir>] [--seed <int>]``
runs one seeded experiment suite, writes a deterministic CSV plus a JSON
summary, and exits 0 on all-PASS, 1 on any FAIL, 2 on usage errors.
``latlab report-merge <csv...> --out <file>`` merges run CSVs into one
summary, idempotently by run id.

Config rule: a config chooses cases, sizes, seeds and solver tolerances; what
PASS means is each experiment's named constants.  A config may set only the
fields its experiment declares, each with its default's JSON type, and the
runner reads every one.  An unknown, mistyped or empty-list field, or a value
that fails a rule of ``_RANGES`` or of the experiment's ``ranges`` (which take
precedence), is a usage error naming the dotted field, raised before any run.
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
    as_stack,
    normality_constant_lower_bound,
)
from .sobolev_grid import (
    ChartError,
    ConvergenceError,
    GridDomain,
    GridTooCoarseError,
    PushinOperator,
    default_chart_cover,
    mollify,
    positive_dominant_w0,
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


def _row(cfg: dict, case: str, params: dict, values: dict, ok: bool, witness) -> dict:
    """One experiment case as its CSV row: column name -> cell.

    The columns are ``case``, the keys of ``params``, ``seed``, the keys of
    ``values``, ``status`` and ``witness``, so every row of a runner has the
    same keys in the same order.  A FAIL row's witness is the JSON encoding
    of ``witness``; a PASS row's is empty.
    """
    return {"case": case, **params, "seed": cfg["seed"], **values,
            "status": "PASS" if ok else "FAIL", "witness": "" if ok else json.dumps(witness)}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# Shared domains and sample generators
# ---------------------------------------------------------------------------

def _domain(cfg: dict) -> GridDomain:
    """The unit torus or the [0, 1] interval of ``cfg["domain"]``."""
    kind, n = cfg["domain"]["kind"], cfg["domain"]["n"]
    return GridDomain.torus(1.0, n) if kind == "torus" else GridDomain.interval(0.0, 1.0, n)


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


_SCHEMES = {
    "mollifier": lambda domain, seed: mollifier_scheme(domain),
    "resolvent-neumann": lambda domain, seed: resolvent_scheme(
        neumann_laplacian_1d(domain.node_count, domain.h)),
    "resolvent-multiplication": lambda domain, seed: resolvent_scheme(multiplication_generator(
        np.random.default_rng(seed + 10_000).uniform(0.0, 3.0, size=domain.node_count))),
}

# Theorem 4.1: a converged supremum s = J|R_n z| passes when max|s - |z|| <= this
_SUP_GAP_MAX = 1e-5
# curvature budget of the sup profiles, the scale of R_n z - z and so of the gap
_SUP_CURVATURE = 0.005


def _sup_verdicts(compute, Z: np.ndarray) -> list[tuple[float, bool, dict]]:
    """Gap max|s - |z||, verdict and witness of each row z of the stack Z.

    ``compute()`` is the supremum of the stack Z.  Its ConvergenceError names
    the failed rows; each fails with a witness holding its message and
    Cauchy increments.  Gaps are taken at the best iterates.  A converged
    row fails when its gap exceeds ``_SUP_GAP_MAX``, with a witness naming
    both; a passing row's witness goes unused.
    """
    try:
        S, failed = compute(), {}
    except ConvergenceError as exc:
        S, failed = exc.best, exc.diagnostics["rows"]
    gaps = np.max(np.abs(S - np.abs(Z)), axis=1).tolist()
    return [(gap, j not in failed and gap <= _SUP_GAP_MAX,
             failed.get(j) or {"gap": gap, "gap_threshold": _SUP_GAP_MAX})
            for j, gap in enumerate(gaps)]


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _run_sup_construct(cfg: dict, sup) -> list[dict]:
    """Rows of ``sup``, constructive_sup or constructive_sup_dual, on random profiles."""
    domain = _domain(cfg)
    family = cfg["scheme"]["family"]
    try:
        scheme = _SCHEMES[family](domain, cfg["seed"])
    except ValueError as exc:
        raise UsageError(f"cannot build scheme {family!r}: {exc}") from exc
    tol = cfg["scheme"]["tol"]
    rng = np.random.default_rng(cfg["seed"])
    Z = np.array([_trig_profile(rng, domain.axis(0), _SUP_CURVATURE)
                  for _ in range(cfg["samples"])])
    verdicts = _sup_verdicts(lambda: sup(scheme, Z, tol), Z)
    params = {"domain": domain.kind, "grid_n": domain.n, "scheme": family, "tol": tol}
    return [_row(cfg, f"z{i:03d}", params, {"gap": gap}, ok, witness)
            for i, (gap, ok, witness) in enumerate(verdicts)]


# W^{1,p} is not normal: halving eps must grow ||x|| / ||y|| by a factor in this range
_NORMALITY_GROWTH = (1.7, 2.3)


def _run_normality_scan(cfg: dict) -> list[dict]:
    eps_list = sorted(cfg["eps"], reverse=True)
    divisor = cfg["h_divisor"]
    k, p = cfg["order"]["k"], cfg["order"]["p"]
    domain = GridDomain.interval(0.0, 1.0, int(math.ceil(divisor / min(eps_list))) + 1)
    try:
        space = OrderedSpaceSpec.standard_sobolev(domain, k, p)
    except ValueError as exc:
        if isinstance(exc.__cause__, FloatingPointError):
            raise UsageError(f"order.p = {p!r} is too large for the scan: {exc}") from exc
        raise UsageError(f"order.k = {k} does not fit the grid that eps = {eps_list!r} "
                         f"and h_divisor = {divisor} give: {exc}") from exc
    t = domain.axis(0)
    rows, prev = [], None
    for eps in eps_list:
        x = eps * np.sin(np.pi * t / eps) ** 2
        y = np.full_like(t, eps)
        try:
            ratio = normality_constant_lower_bound(space, [(x, y)])
        except ValueError as exc:
            raise UsageError(f"order.p = {p!r} is too large for the scan: the "
                             f"norm of y = eps underflows to 0 at eps = {eps:g}") from exc
        # the ratio's factor per halving of eps
        growth = ((ratio / prev[1]) ** (1 / math.log2(prev[0] / eps)) if prev
                  else float("nan"))
        ok = prev is None or (_NORMALITY_GROWTH[0] <= growth <= _NORMALITY_GROWTH[1])
        rows.append(_row(cfg, f"eps={eps:g}", {"eps": eps, "h": domain.h, "k": k, "p": p},
                         {"ratio": ratio, "growth": growth}, ok, {"eps": eps, "growth": growth}))
        prev = eps, ratio
    return rows


# an even mollifier errs by O(delta^2) on smooth f: the order of each delta step must be >= this
_MOLLIFIER_ORDER_MIN = 1.8


def _run_mollifier_rate(cfg: dict) -> list[dict]:
    domain = _domain(cfg)
    t = domain.axis(0)
    f = np.sin(2 * np.pi * t) + 0.5 * np.cos(4 * np.pi * t)
    deltas = cfg["deltas"]
    try:
        errs = [float(np.max(np.abs(mollify(domain, d, f) - f))) for d in deltas]
    except GridTooCoarseError as exc:
        raise UsageError(f"deltas = {deltas!r} too fine for domain.n = "
                         f"{domain.n}: {exc}") from exc
    rows = []
    for i, (d, e) in enumerate(zip(deltas, errs)):
        order = (math.log2(errs[i - 1] / e) / math.log2(deltas[i - 1] / d) if i
                 else float("nan"))
        ok = not i or order >= _MOLLIFIER_ORDER_MIN
        rows.append(_row(cfg, f"delta={d:g}", {"grid_n": domain.n, "delta": d},
                         {"err_inf": e, "order": order}, ok, {"delta": d, "order": order}))
    return rows


_AUDIT_DOMAINS = {"interval": _domain,
                  "rectangle": lambda cfg: GridDomain.rectangle(0.0, 1.0, 0.0, 1.0, cfg["rect_n"])}


def _run_boundary_chart_audit(cfg: dict) -> list[dict]:
    ns = tuple(cfg["ns"])
    samples = cfg["chart_samples"]
    rows = []
    for domain in (_AUDIT_DOMAINS[kind](cfg) for kind in cfg["domains"]):
        try:
            charts = default_chart_cover(domain, ns=ns)
        except ChartError as exc:
            raise UsageError(f"cannot build the charts of ns = {cfg['ns']!r}: {exc}") from exc
        lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
        rng = np.random.default_rng(cfg["seed"] + 1)
        for ci, chart in enumerate(charts):
            box_lo = np.maximum(np.asarray(chart.v_lo), lo)
            box_hi = np.minimum(np.asarray(chart.v_hi), hi)
            pts = rng.uniform(box_lo, box_hi, size=(samples, domain.d))
            violations, witness = 0, None
            for n in ns:
                img = chart.apply(n, pts)
                inside = np.ones(samples, dtype=bool)
                for i in range(domain.d):  # img is column-major: each axis is contiguous
                    inside &= (img[:, i] > lo[i]) & (img[:, i] < hi[i])
                bad = ~inside
                if bad.any() and witness is None:
                    witness = {"n": n, "sample": list(pts[bad][0])}
                violations += int(bad.sum())
            rows.append(_row(cfg, f"{domain.kind}-chart{ci}",
                             {"domain": domain.kind, "chart": ci, "samples": samples},
                             {"violations": float(violations)}, violations == 0, witness))
    return rows


def _run_pushin_audit(cfg: dict) -> list[dict]:
    # the convergence row compares the errors in increasing n
    ns = tuple(sorted(cfg["ns"]))
    rows = []
    for domain in (_AUDIT_DOMAINS[kind](cfg) for kind in cfg["domains"]):
        pts = domain.points()
        rng = np.random.default_rng(cfg["seed"])
        # on 1-D domains the L^p error of S_n f - f for a smooth f must fall with n
        smooth, errs, p = np.sin(np.pi * domain.axis(0)), [], cfg["order"]["p"]
        for n in ns:
            try:
                op = PushinOperator(domain, n)
            except ChartError as exc:
                raise UsageError(f"cannot build the charts of ns = {cfg['ns']!r}: {exc}") from exc
            if domain.d == 1:
                diff = op.matrix @ smooth - smooth
                errs.append(sobolev_grid.sobolev_norm(domain, 0, p, diff))
                # an L^p error that under- or overflows compares nothing
                if not 0.0 < errs[-1] < math.inf and np.any(diff):
                    raise UsageError(f"order.p = {p!r} is too large for the audit: the L^p "
                                     f"error of S_n f - f is {errs[-1]:g} at n = {n}")
            outside = ~op.node_in_k(pts)
            F = rng.standard_normal((cfg["samples"], domain.node_count))
            worst_support = float(np.max(np.abs(op.matrix @ F.T)[outside], initial=0.0))
            worst_neg = min(0.0, float(np.min(op.matrix @ np.abs(F).T)))
            rows.append(_row(cfg, f"{domain.kind}-n{n}",
                             {"domain": domain.kind, "grid_n": domain.n, "n": n},
                             {"outside_max": worst_support, "min_positive_image": worst_neg},
                             worst_support == 0.0 and worst_neg >= 0.0,
                             {"outside_max": worst_support}))
        if domain.d == 1:
            rows.append(_row(cfg, f"{domain.kind}-convergence",
                             {"domain": domain.kind, "grid_n": domain.n, "n": ns[-1]},
                             {"outside_max": 0.0, "min_positive_image": float(errs[-1])},
                             all(b < a for a, b in zip(errs, errs[1:])), {"errors": errs}))
    return rows


def _w0_sample(rng: np.random.Generator, t: np.ndarray, k: int) -> np.ndarray:
    # hard endpoint vanishing so the discrete derivatives sit below 1e-8
    power = k + 7
    bump = (t * (1.0 - t)) ** power * 4.0 ** power
    wave = 1.0 + 0.5 * np.sin(2 * np.pi * rng.integers(1, 4) * t + rng.uniform(0, 2 * np.pi))
    return bump * wave * rng.choice([-1.0, 1.0])


def _run_prop35_demo(cfg: dict) -> list[dict]:
    domain = _domain(cfg)
    t = domain.axis(0)
    rng = np.random.default_rng(cfg["seed"])
    D = sobolev_grid.diff_operator(domain, (1,))
    rows = []
    for k in cfg["orders"]:
        for i in range(cfg["samples"]):
            f = _w0_sample(rng, t, k)
            try:
                g = positive_dominant_w0(domain, k, f)
            except ValueError as exc:
                raise UsageError(f"orders entry {k} does not fit domain.n = "
                                 f"{domain.n}: {exc}") from exc
            min_g = float(np.min(g))
            min_dom = float(np.min(g - f))
            resid = 0.0
            u = g
            for _ in range(k):
                resid = max(resid, abs(u[0]), abs(u[-1]))
                u = D @ u
            rows.append(_row(cfg, f"k{k}-f{i:02d}", {"k": k, "grid_n": domain.n},
                             {"min_g": min_g, "min_g_minus_f": min_dom, "endpoint_resid": resid},
                             min_g >= -1e-10 and min_dom >= -1e-10 and resid <= 1e-10,
                             list(f[:8])))
    return rows


# a multiplication-example norm passes when it is within this of its closed form
_IDENTITY_GAP_MAX = 1e-12


def _run_extrapolation_demo(cfg: dict) -> list[dict]:
    rng = np.random.default_rng(cfg["seed"])
    p, domain = cfg["order"]["p"], _domain(cfg)
    multipliers = [("m013", np.array([0.0, 1.0, 3.0])),
                   ("rand1", rng.uniform(0.0, 4.0, size=5)),
                   ("rand2", rng.uniform(0.0, 4.0, size=7))]
    try:
        gaps = [multiplication_example_check(m, p=p, seed=cfg["seed"]) for _, m in multipliers]
        base = OrderedSpaceSpec.standard_lp(np.full(domain.n, domain.cell_measure), p)
    except ValueError as exc:
        raise UsageError(f"order.p = {p!r} is too large for the lp norms: {exc}") from exc
    cases = [(f"multiplication-identity-{label}", gap, gap <= _IDENTITY_GAP_MAX, list(m))
             for (label, m), gap in zip(multipliers, gaps)]  # (case, value, ok, witness)

    space3 = ExtrapolationSpace(
        OrderedSpaceSpec.standard_lp(np.ones(3), 2.0),
        multiplication_generator([0.0, 1.0, 3.0]), lam=1.0)
    val = extrapolation.extrapolation_norm(space3, np.ones(3))
    err = abs(val - math.sqrt(21.0) / 4.0)
    cases.append(("multiplication-sqrt21-over-4", err, err <= _IDENTITY_GAP_MAX, {"norm": val}))

    gen = neumann_laplacian_1d(domain.n, domain.h)
    R1, R2 = resolvent(gen, 1.0), resolvent(gen, 2.0)
    for mu, R in ((1.0, R1), (2.0, R2)):
        low = float(np.min(R))
        cases.append((f"neumann-resolvent-positivity-mu{mu:g}", low, low >= -1e-12,
                      {"min_entry": low}))
    resid = float(np.max(np.abs(R1 - R2 - (2.0 - 1.0) * (R1 @ R2))))
    cases.append(("resolvent-identity", resid, resid <= 1e-9, {"residual": resid}))

    space = ExtrapolationSpace(base, gen, lam=1.0)
    Z = _trig_profile(rng, domain.axis(0), curvature=40.0)[None]
    ((gap, ok, witness),) = _sup_verdicts(
        lambda: extrapolation.theorem41_sup(space, Z, tol=cfg["scheme"]["tol"]), Z)
    cases.append(("theorem41-sup-gap", gap, ok, witness))

    # PASS by construction (FINITE_DIMENSION_CAVEAT): at finite dimension the
    # extrapolation cone is the standard cone; the lab-suite reference records it
    cases.append(("finite-dim-cone-collapse-reported", 1.0, True, None))
    return [_row(cfg, case, {}, {"value": float(value)}, ok, witness)
            for case, value, ok, witness in cases]


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
    """Witness-based M and C on the samples, the rows of xs, and their two norms.

    The witness family per sample x: the positive parts against |x|, the
    exact renorm maximizer against |x|, and the positive parts against the
    minimizing span decomposition.  Zero samples bound neither constant and
    are skipped, and so are witness pairs whose upper element is the zero
    vector.  The span decompositions of the nonzero samples come from one
    ``span_norm`` call on their stack.
    ||x|| and |||x||| come from the scalar ``value`` and ``renorm_value``;
    the third result holds them for every sample in order, the inputs of
    ``renorm_bounds_check``.
    """
    X = as_stack(xs, space.dim, (2,))
    renorms = [renorm_value(space, x) for x in X]
    norms = [(space.norm.value(x), ren.value) for x, ren in zip(X, renorms)]
    nonzero = [i for i, (nx, _) in enumerate(norms) if nx != 0.0]
    if not nonzero:
        raise ValueError("all samples were zero")
    witnesses, span_ratios = [], []
    for i, dec in zip(nonzero, span_norm(space, X[nonzero])):
        x = X[i]
        ax = np.abs(x)
        xp, xm = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        witnesses += [(xp, ax), (xm, ax), (renorms[i].maximizer, ax), (xp, dec.y), (xm, dec.z)]
        span_ratios.append(dec.value / norms[i][0])
    keep = np.any([b for _, b in witnesses], axis=1)
    witnesses = [pair for pair, kept in zip(witnesses, keep) if kept]
    return normality_constant_lower_bound(space, witnesses), max(span_ratios), norms


# M and C are lower bounds taken on the tested samples: the renorm bounds use them times this
_RENORM_INFLATION = 1.05


def _run_renorm_audit(cfg: dict) -> list[dict]:
    rows = []
    rng = np.random.default_rng(cfg["seed"])
    for name in cfg["spaces"]:
        space = _RENORM_SPACES[name]()
        xs = [rng.standard_normal(space.dim) for _ in range(cfg["samples"])]
        M, C, norms = estimate_renorm_constants(space, xs)
        M_i, C_i = _RENORM_INFLATION * M, _RENORM_INFLATION * C
        for i, (x, (base, ren)) in enumerate(zip(xs, norms)):
            rep = renorm_bounds_check(base, ren, M_i, C_i)
            rows.append(_row(cfg, f"{name}-x{i:03d}",
                             {"space": name, "dim": space.dim, "M": M_i, "C": C_i},
                             {"base_norm": rep.base_norm, "renorm": rep.renorm,
                              "slack_low": rep.slack_low, "slack_high": rep.slack_high},
                             rep.passed, list(x)))
    return rows


# ---------------------------------------------------------------------------
# Experiment registry, config validation
# ---------------------------------------------------------------------------

# the W^{k,p} norms of normality-scan and pushin-audit need p > 1
_SOBOLEV_RANGES = {
    "order.p": (lambda v: 1 < v < math.inf,
                "order.p = {!r} outside the allowed range: need a finite number > 1"),
}

# "defaults" is each experiment's complete config schema, every field of which its
# runner reads; the primal and the dual supremum share everything but the runner.
_SUP = {
    "domain_kinds": ("torus", "interval"),
    "defaults": {"seed": 0, "samples": 10, "domain": {"kind": "torus", "n": 64},
                 "scheme": {"family": "mollifier", "tol": 4e-5}},
    "gap_field": "gap",
}

_EXPERIMENTS: dict[str, dict] = {
    "sup-construct": {**_SUP, "runner": lambda cfg: _run_sup_construct(cfg, constructive_sup)},
    "sup-construct-dual": {
        **_SUP, "runner": lambda cfg: _run_sup_construct(cfg, constructive_sup_dual)},
    "normality-scan": {
        "runner": _run_normality_scan,
        "defaults": {"seed": 0, "order": {"k": 1, "p": 2.0},
                     "eps": [0.25, 0.125, 0.0625], "h_divisor": 40},
        "ranges": _SOBOLEV_RANGES,
        "gap_field": None,
    },
    "mollifier-rate": {
        "runner": _run_mollifier_rate,
        "defaults": {"seed": 0, "domain": {"kind": "torus", "n": 128},
                     "deltas": [0.1, 0.05, 0.025]},
        "gap_field": "err_inf",
    },
    "boundary-chart-audit": {
        "runner": _run_boundary_chart_audit,
        "defaults": {"seed": 0, "domains": ["interval", "rectangle"], "rect_n": 32,
                     "domain": {"kind": "interval", "n": 64},
                     "ns": [2, 4, 8], "chart_samples": 10_000},
        "gap_field": "violations",
    },
    "pushin-audit": {
        "runner": _run_pushin_audit,
        "defaults": {"seed": 0, "samples": 20, "domains": ["interval"], "rect_n": 32,
                     "domain": {"kind": "interval", "n": 513},
                     "ns": [2, 4, 8], "order": {"p": 2.0}},
        # the convergence row compares the errors of successive indices
        "ranges": {**_SOBOLEV_RANGES, "ns": (
            lambda v: len(v) >= 2 and all(n >= 2 for n in v),
            "ns = {!r} outside the allowed range: need two or more indices, each >= 2")},
        "gap_field": "outside_max",
    },
    "prop35-demo": {
        "runner": _run_prop35_demo,
        "defaults": {"seed": 0, "samples": 20, "domain": {"kind": "interval", "n": 257},
                     "orders": [1, 2]},
        "gap_field": "endpoint_resid",
    },
    "extrapolation-demo": {
        "runner": _run_extrapolation_demo,
        "defaults": {"seed": 0, "order": {"p": 2.0},
                     "domain": {"kind": "interval", "n": 32},
                     "scheme": {"tol": 1e-6}},
        # the theorem41-sup-gap increments fall only as about 36/n, so below
        # 1e-9 they cannot meet tol by the resolvent scheme's n_max = 2**40
        "ranges": {"scheme.tol": (
            lambda v: 1e-9 <= v <= 1e-2,
            "scheme.tol = {:g} outside the allowed range [1e-9, 1e-2] of extrapolation-demo: "
            "its supremum cannot converge below 1e-9 by n_max = 2**40")},
        "caveat": extrapolation.FINITE_DIMENSION_CAVEAT,
        "gap_field": "value",
    },
    "renorm-audit": {
        "runner": _run_renorm_audit,
        "defaults": {"seed": 0, "samples": 50, "spaces": list(_RENORM_SPACES)},
        "gap_field": None,
    },
}

# field -> (check, message), for every experiment that declares the field
# and does not override the rule in its "ranges"
_RANGES = {
    "seed": (lambda v: v >= 0, "seed must be a nonnegative integer, got {!r}"),
    "samples": (lambda v: v >= 1, "samples must be a positive integer, got {!r}"),
    "chart_samples": (lambda v: v >= 1,
                      "chart_samples must be a positive integer, got {!r}"),
    "scheme.tol": (lambda v: 1e-12 <= v <= 1e-2,
                   "scheme.tol = {:g} outside the allowed range [1e-12, 1e-2]"),
    "domain.n": (lambda v: v >= 4,
                 "cannot build a grid with domain.n = {!r}; need an integer >= 4"),
    "rect_n": (lambda v: v >= 4,
               "cannot build a grid with rect_n = {!r}; need an integer >= 4"),
    "scheme.family": (lambda v: v in _SCHEMES,
                      "scheme.family = {!r} outside the allowed choices: " + ", ".join(_SCHEMES)),
    # a growth needs two eps; with each eps <= 1, h_divisor >= 3 gives >= 4 grid points
    "eps": (lambda v: len(v) >= 2 and all(0 < e <= 1 for e in v),
            "eps = {!r} outside the allowed range: need two or more values in (0, 1]"),
    "h_divisor": (lambda v: v >= 3,
                  "h_divisor = {!r} outside the allowed range: need an integer >= 3"),
    # the bump's support (-delta, delta) must fit in the unit torus
    "deltas": (lambda v: len(v) >= 2 and all(0 < d <= 0.5 for d in v),
               "deltas = {!r} outside the allowed range: need two or more values in (0, 0.5]"),
    "ns": (lambda v: all(n >= 2 for n in v),
           "ns = {!r} outside the allowed range: each index must be an integer >= 2"),
    "order.k": (lambda v: v >= 0,
                "order.k = {!r} outside the allowed range: need an integer >= 0"),
    "orders": (lambda v: all(k >= 1 for k in v),
               "orders = {!r} outside the allowed range: each order must be an integer >= 1"),
    "spaces": (lambda v: all(name in _RENORM_SPACES for name in v),
               "spaces = {!r} outside the allowed choices: " + ", ".join(_RENORM_SPACES)),
    "domains": (lambda v: all(kind in _AUDIT_DOMAINS for kind in v),
                "domains = {!r} outside the allowed choices: " + ", ".join(_AUDIT_DOMAINS)),
    # extrapolation-demo runs its lp norms at p = 1
    "order.p": (lambda v: 1 <= v < math.inf,
                "order.p = {!r} outside the allowed range: need a finite number >= 1"),
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
    if "domain" in cfg:
        kinds = spec.get("domain_kinds", (spec["defaults"]["domain"]["kind"],))
        if cfg["domain"]["kind"] not in kinds:
            raise UsageError(f"{experiment} runs on domain.kind {' or '.join(kinds)}, "
                             f"not {cfg['domain']['kind']!r}")
    return cfg


def run_id_of(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run(cfg: dict) -> tuple[list[dict], float]:
    """Run a normalized config's experiment: its rows, deterministic per seed,
    and the runner's wall time in seconds.  Each row maps the CSV columns to
    their cells, as ``_row`` builds it."""
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


def write_report(cfg: dict, rows: list[dict], wall_time: float,
                 out_dir) -> tuple[Path, Path]:
    """Write the CSV of a normalized config's rows and its JSON summary.

    The CSV header is the keys of the first row, and each line the cells of
    a row, floats at full precision.  The summary's pass and fail counts and
    worst gap are ``report_merge``'s, read back from the CSV.  Returns the
    CSV path and the summary path.
    """
    spec = _EXPERIMENTS[cfg["experiment"]]
    rid = run_id_of(cfg)
    out_dir = Path(out_dir)
    fh = io.StringIO()
    fh.write(f"# schema={SCHEMA_VERSION},run_id={rid},experiment={cfg['experiment']}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(map(_fmt, row.values()))
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
