"""Experiment runner CLI.

``latlab <experiment> --config <file.json> [--out <dir>] [--seed <int>]``
runs one seeded experiment suite, writes a deterministic CSV plus a JSON
summary, and exits 0 on all-PASS, 1 on any FAIL, 2 on usage errors.
``latlab report-merge <csv...> --out <file>`` merges run CSVs into one
summary, idempotently by run id.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import extrapolation, ordered_space, sobolev_grid, span_lattice
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
    GridDomain,
    GridFunction,
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

    FAIL rows carry a machine-readable witness (JSON-encoded).  Wall time is
    kept off the CSV so that repeated runs are byte-identical.
    """

    experiment: str
    case: str
    params: dict
    values: dict
    status: str
    witness: str = ""
    wall_time: float = 0.0


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# Shared sample generators
# ---------------------------------------------------------------------------

def _trig_profile(rng: np.random.Generator, t: np.ndarray, curvature: float,
                  modes: int = 3) -> np.ndarray:
    """Random trigonometric polynomial scaled to a fixed curvature budget."""
    coeffs = rng.uniform(0.3, 1.0, size=modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    signs = rng.choice([-1.0, 1.0], size=modes)
    weights = np.array([(2.0 * np.pi * (j + 1)) ** 2 for j in range(modes)])
    coeffs = signs * coeffs * curvature / float(weights @ np.abs(coeffs))
    out = np.zeros_like(t)
    for j in range(modes):
        out += coeffs[j] * np.sin(2.0 * np.pi * (j + 1) * t + phases[j])
    return out


def _grid_space(domain: GridDomain, p: float) -> OrderedSpaceSpec:
    weights = np.full(domain.node_count, domain.cell_measure)
    return OrderedSpaceSpec(domain.node_count,
                            PolyhedralCone.standard(domain.node_count),
                            NormSpec.lp(weights, p))


def _build_scheme(family: str, domain: GridDomain, seed: int):
    if family == "mollifier":
        return mollifier_scheme(domain)
    if family == "resolvent-neumann":
        gen = neumann_laplacian_1d(domain.node_count, domain.h)
        return resolvent_scheme(gen)
    if family == "resolvent-multiplication":
        rng = np.random.default_rng(seed + 10_000)
        m = rng.uniform(0.0, 3.0, size=domain.node_count)
        return resolvent_scheme(multiplication_generator(m))
    raise UsageError(f"unknown scheme family {family!r}")


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _run_sup_construct(cfg: dict, dual: bool) -> list[ReportRow]:
    name = "sup-construct-dual" if dual else "sup-construct"
    kind, n = cfg["domain"]["kind"], cfg["domain"]["n"]
    domain = GridDomain.torus(1.0, n) if kind == "torus" else GridDomain.interval(0.0, 1.0, n)
    p = cfg["order"]["p"]
    scheme = _build_scheme(cfg["scheme"]["family"], domain, cfg["seed"])
    space = _grid_space(domain, p)
    tol = cfg["scheme"]["tol"]
    threshold = cfg["gap_threshold"]
    rng = np.random.default_rng(cfg["seed"])
    t_ax = (domain.axis(0) - domain.lo[0]) / (domain.hi[0] - domain.lo[0])
    rows = []
    for i in range(cfg["samples"]):
        z = _trig_profile(rng, t_ax, cfg["curvature"])
        if dual:
            s = constructive_sup_dual(scheme, z, tol)
        else:
            s = constructive_sup(scheme, space, z, tol)
        gap = float(np.max(np.abs(s - np.abs(z))))
        ok = gap <= threshold
        rows.append(ReportRow(
            name, f"z{i:03d}",
            params={"domain": kind, "grid_n": n, "scheme": cfg["scheme"]["family"],
                    "tol": tol, "seed": cfg["seed"]},
            values={"gap": gap},
            status="PASS" if ok else "FAIL",
            witness="" if ok else json.dumps(list(z), separators=(",", ":")),
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
            "normality-scan", f"eps={eps:g}",
            params={"eps": eps, "h": domain.h, "k": cfg["order"]["k"],
                    "p": cfg["order"]["p"], "seed": cfg["seed"]},
            values={"ratio": ratio, "growth": growth},
            status="PASS" if ok else "FAIL",
            witness="" if ok else json.dumps({"eps": eps, "growth": growth}),
        ))
        prev = ratio
    return rows


def _run_mollifier_rate(cfg: dict) -> list[ReportRow]:
    domain = GridDomain.torus(1.0, cfg["domain"]["n"])
    t = domain.axis(0)
    f = GridFunction(domain, np.sin(2 * np.pi * t) + 0.5 * np.cos(4 * np.pi * t))
    deltas = cfg["deltas"]
    errs = [float(np.max(np.abs(mollify(f, d).values - f.values))) for d in deltas]
    rows = []
    for i, (d, e) in enumerate(zip(deltas, errs)):
        if i == 0:
            order, ok = float("nan"), True
        else:
            order = math.log2(errs[i - 1] / e)
            ok = order >= cfg["order_min"]
        rows.append(ReportRow(
            "mollifier-rate", f"delta={d:g}",
            params={"grid_n": cfg["domain"]["n"], "delta": d, "seed": cfg["seed"]},
            values={"err_inf": e, "order": order},
            status="PASS" if ok else "FAIL",
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
        charts = default_chart_cover(domain, ns=ns, seed=cfg["seed"])
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
                "boundary-chart-audit", f"{domain.kind}-chart{ci}",
                params={"domain": domain.kind, "chart": ci, "samples": samples,
                        "seed": cfg["seed"]},
                values={"violations": float(violations)},
                status="PASS" if violations == 0 else "FAIL",
                witness=witness,
            ))
    return rows


def _run_pushin_audit(cfg: dict) -> list[ReportRow]:
    ns = tuple(cfg["ns"])
    rows = []
    for domain in _audit_domains(cfg):
        pts = domain.points()
        rng = np.random.default_rng(cfg["seed"])
        for n in ns:
            op = pushin_operator(domain, n)
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
                "pushin-audit", f"{domain.kind}-n{n}",
                params={"domain": domain.kind, "grid_n": domain.n, "n": n,
                        "seed": cfg["seed"]},
                values={"outside_max": worst_support, "min_positive_image": worst_neg},
                status="PASS" if ok else "FAIL",
                witness="" if ok else json.dumps({"outside_max": worst_support}),
            ))
        if domain.d == 1:
            t = domain.axis(0)
            f = GridFunction(domain, np.sin(np.pi * t))
            p = cfg["order"]["p"]
            errs = []
            for n in ns:
                op = pushin_operator(domain, n)
                diff = GridFunction(domain, op.matrix @ f.values - f.values)
                errs.append(sobolev_grid.sobolev_norm(diff, 0, p))
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            rows.append(ReportRow(
                "pushin-audit", f"{domain.kind}-convergence",
                params={"domain": domain.kind, "grid_n": domain.n, "n": ns[-1],
                        "seed": cfg["seed"]},
                values={"outside_max": 0.0, "min_positive_image": float(errs[-1])},
                status="PASS" if decreasing else "FAIL",
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
            g = positive_dominant_w0(f, k, cfg["order"]["p"])
            min_g = float(np.min(g.values))
            min_dom = float(np.min(g.values - f.values))
            resid = 0.0
            u = g.values
            for _ in range(k):
                resid = max(resid, abs(u[0]), abs(u[-1]))
                u = D @ u
            ok = min_g >= -1e-10 and min_dom >= -1e-10 and resid <= 1e-10
            rows.append(ReportRow(
                "prop35-demo", f"k{k}-f{i:02d}",
                params={"k": k, "grid_n": domain.n, "seed": cfg["seed"]},
                values={"min_g": min_g, "min_g_minus_f": min_dom, "endpoint_resid": resid},
                status="PASS" if ok else "FAIL",
                witness="" if ok else json.dumps(list(f.values[:8])),
            ))
    return rows


def _run_extrapolation_demo(cfg: dict) -> list[ReportRow]:
    rng = np.random.default_rng(cfg["seed"])
    rows = []

    def add(case, value, ok, witness=""):
        rows.append(ReportRow(
            "extrapolation-demo", case,
            params={"seed": cfg["seed"]},
            values={"value": float(value)},
            status="PASS" if ok else "FAIL", witness=witness,
        ))

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

    gen = neumann_laplacian_1d(cfg["domain"]["n"], 1.0 / (cfg["domain"]["n"] - 1))
    for mu in (1.0, 2.0):
        R = resolvent(gen, mu)
        add(f"neumann-resolvent-positivity-mu{mu:g}", float(np.min(R)),
            float(np.min(R)) >= -1e-12)
    R1, R2 = resolvent(gen, 1.0), resolvent(gen, 2.0)
    resid = float(np.max(np.abs(R1 - R2 - (2.0 - 1.0) * (R1 @ R2))))
    add("resolvent-identity", resid, resid <= 1e-9)

    base = _grid_space(GridDomain.interval(0.0, 1.0, cfg["domain"]["n"]), cfg["order"]["p"])
    space = ExtrapolationSpace.build(base, gen, lam=1.0)
    t = np.linspace(0.0, 1.0, cfg["domain"]["n"])
    z = _trig_profile(rng, t, curvature=40.0)
    s = extrapolation.theorem41_sup(space, z, tol=cfg["scheme"]["tol"])
    gap = float(np.max(np.abs(s - np.abs(z))))
    add("theorem41-sup-gap", gap, gap <= cfg["gap_threshold"],
        "" if gap <= cfg["gap_threshold"] else json.dumps(list(z)))

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


def estimate_renorm_constants(space: OrderedSpaceSpec, xs) -> tuple[float, float]:
    """Witness-based M and C on a sample set, for the renorm bound suite.

    The witness family per sample x: the positive parts against |x|, the
    exact renorm maximizer against |x|, and the positive parts against the
    minimizing span decomposition.
    """
    witnesses, span_ratios = [], []
    for x in xs:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        xp, xm = np.maximum(x, 0.0), np.maximum(-x, 0.0)
        dec = span_norm(space, x)
        ren = renorm_value(space, x)
        witnesses += [(xp, ax), (xm, ax), (ren.maximizer, ax), (xp, dec.y), (xm, dec.z)]
        span_ratios.append(dec.value / space.norm.value(x))
    witnesses = [(a, b) for a, b in witnesses if space.norm.value(b) > 0]
    return normality_constant_lower_bound(space, witnesses), max(span_ratios)


def _run_renorm_audit(cfg: dict) -> list[ReportRow]:
    rows = []
    rng = np.random.default_rng(cfg["seed"])
    inflate = cfg["inflation"]
    for name in cfg["spaces"]:
        if name not in _RENORM_SPACES:
            raise UsageError(f"unknown renorm-audit space {name!r}")
        space = _RENORM_SPACES[name]()
        xs = [rng.standard_normal(space.dim) for _ in range(cfg["samples"])]
        M, C = estimate_renorm_constants(space, xs)
        M_i, C_i = inflate * M, inflate * C
        for i, x in enumerate(xs):
            rep = renorm_bounds_check(space, x, M_i, C_i)
            rows.append(ReportRow(
                "renorm-audit", f"{name}-x{i:03d}",
                params={"space": name, "dim": space.dim, "M": M_i, "C": C_i,
                        "seed": cfg["seed"]},
                values={"base_norm": rep.base_norm, "renorm": rep.renorm,
                        "slack_low": rep.slack_low, "slack_high": rep.slack_high},
                status="PASS" if rep.passed else "FAIL",
                witness="" if rep.passed else json.dumps(list(x)),
            ))
    return rows


# ---------------------------------------------------------------------------
# Experiment registry, config validation
# ---------------------------------------------------------------------------

_COMMON_DEFAULTS = {
    "seed": 0,
    "samples": 10,
    "domain": {"kind": "torus", "n": 64},
    "order": {"k": 1, "p": 2.0},
    "scheme": {"family": "mollifier", "n_min": 2, "n_max": 2 ** 40, "tol": 4e-5},
    "gap_threshold": 1e-5,
    "curvature": 0.005,
}

_EXPERIMENTS: dict[str, dict] = {
    "sup-construct": {
        "runner": lambda cfg: _run_sup_construct(cfg, dual=False),
        "defaults": {},
        "params": ["domain", "grid_n", "scheme", "tol", "seed"],
        "values": ["gap"],
        "gap_field": "gap",
    },
    "sup-construct-dual": {
        "runner": lambda cfg: _run_sup_construct(cfg, dual=True),
        "defaults": {},
        "params": ["domain", "grid_n", "scheme", "tol", "seed"],
        "values": ["gap"],
        "gap_field": "gap",
    },
    "normality-scan": {
        "runner": _run_normality_scan,
        "defaults": {"eps": [0.25, 0.125, 0.0625], "h_divisor": 40,
                     "growth_low": 1.7, "growth_high": 2.3},
        "params": ["eps", "h", "k", "p", "seed"],
        "values": ["ratio", "growth"],
        "gap_field": None,
    },
    "mollifier-rate": {
        "runner": _run_mollifier_rate,
        "defaults": {"domain": {"kind": "torus", "n": 128},
                     "deltas": [0.1, 0.05, 0.025], "order_min": 1.8},
        "params": ["grid_n", "delta", "seed"],
        "values": ["err_inf", "order"],
        "gap_field": "err_inf",
    },
    "boundary-chart-audit": {
        "runner": _run_boundary_chart_audit,
        "defaults": {"domains": ["interval", "rectangle"], "rect_n": 32,
                     "domain": {"kind": "interval", "n": 64},
                     "ns": [2, 4, 8], "chart_samples": 10_000},
        "params": ["domain", "chart", "samples", "seed"],
        "values": ["violations"],
        "gap_field": "violations",
    },
    "pushin-audit": {
        "runner": _run_pushin_audit,
        "defaults": {"domains": ["interval"], "rect_n": 32,
                     "domain": {"kind": "interval", "n": 513},
                     "ns": [2, 4, 8], "samples": 20},
        "params": ["domain", "grid_n", "n", "seed"],
        "values": ["outside_max", "min_positive_image"],
        "gap_field": "outside_max",
    },
    "prop35-demo": {
        "runner": _run_prop35_demo,
        "defaults": {"domain": {"kind": "interval", "n": 257},
                     "orders": [1, 2], "samples": 20},
        "params": ["k", "grid_n", "seed"],
        "values": ["min_g", "min_g_minus_f", "endpoint_resid"],
        "gap_field": "endpoint_resid",
    },
    "extrapolation-demo": {
        "runner": _run_extrapolation_demo,
        "defaults": {"domain": {"kind": "interval", "n": 32},
                     "scheme": {"family": "resolvent-neumann", "n_min": 2,
                                "n_max": 2 ** 40, "tol": 1e-6}},
        "params": ["seed"],
        "values": ["value"],
        "gap_field": "value",
    },
    "renorm-audit": {
        "runner": _run_renorm_audit,
        "defaults": {"spaces": list(_RENORM_SPACES), "samples": 50,
                     "inflation": 1.05},
        "params": ["space", "dim", "M", "C", "seed"],
        "values": ["base_norm", "renorm", "slack_low", "slack_high"],
        "gap_field": None,
    },
}


def _merge_defaults(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_defaults(out[key], val)
        else:
            out[key] = val
    return out


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
    cfg = _merge_defaults(_COMMON_DEFAULTS, _EXPERIMENTS[experiment]["defaults"])
    cfg = _merge_defaults(cfg, {k: v for k, v in raw.items() if k != "experiment"})
    cfg["experiment"] = experiment
    tol = cfg["scheme"]["tol"]
    if not (1e-12 <= tol <= 1e-2):
        raise UsageError(f"scheme.tol = {tol:g} outside the allowed range [1e-12, 1e-2]")
    if not isinstance(cfg["seed"], int) or cfg["seed"] < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {cfg['seed']!r}")
    if not isinstance(cfg["samples"], int) or cfg["samples"] < 1:
        raise UsageError(f"samples must be a positive integer, got {cfg['samples']!r}")
    return cfg


def run_id_of(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run(cfg: dict) -> list[ReportRow]:
    """Dispatch a normalized config to its experiment; deterministic per seed."""
    cfg = normalize_config(cfg)
    start = time.perf_counter()
    rows = _EXPERIMENTS[cfg["experiment"]]["runner"](cfg)
    elapsed = time.perf_counter() - start
    for row in rows:
        row.wall_time = elapsed
    return rows


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


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_report(cfg: dict, rows: list[ReportRow], out_dir) -> tuple[Path, Path]:
    """Write the CSV and the JSON summary; returns both paths."""
    cfg = normalize_config(cfg)
    spec = _EXPERIMENTS[cfg["experiment"]]
    rid = run_id_of(cfg)
    out_dir = Path(out_dir)
    columns = ["case"] + spec["params"] + spec["values"] + ["status", "witness"]
    lines = [f"# schema={SCHEMA_VERSION},run_id={rid},experiment={cfg['experiment']}"]
    lines.append(",".join(columns))
    for row in rows:
        cells = [row.case]
        cells += [_fmt(row.params.get(k, "")) for k in spec["params"]]
        cells += [_fmt(row.values.get(k, "")) for k in spec["values"]]
        cells += [row.status, row.witness]
        lines.append(",".join(_csv_quote(c) for c in cells))
    csv_path = out_dir / f"{cfg['experiment']}-{rid}.csv"
    _atomic_write(csv_path, "\n".join(lines) + "\n")

    n_pass = sum(r.status == "PASS" for r in rows)
    n_fail = len(rows) - n_pass
    gap_field = spec["gap_field"]
    worst = None
    if gap_field:
        gaps = [r.values[gap_field] for r in rows
                if isinstance(r.values.get(gap_field), float)
                and math.isfinite(r.values[gap_field])]
        worst = max(gaps) if gaps else None
    summary = {
        "run_id": rid,
        "experiment": cfg["experiment"],
        "pass": n_pass,
        "fail": n_fail,
        "worst_gap": worst,
        "wall_time_s": rows[0].wall_time if rows else 0.0,
    }
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
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# schema="):
            raise MergeError(f"{path}:1: missing schema header")
        header = dict(item.split("=", 1) for item in lines[0][2:].split(","))
        if header.get("schema") != str(SCHEMA_VERSION):
            raise MergeError(f"{path}:1: unsupported schema {header.get('schema')!r}")
        rid, experiment = header.get("run_id"), header.get("experiment")
        if experiment not in _EXPERIMENTS:
            raise MergeError(f"{path}:1: unknown experiment {experiment!r}")
        if rid in seen:
            continue
        seen.add(rid)
        columns = lines[1].split(",")
        if "status" not in columns:
            raise MergeError(f"{path}:2: missing status column")
        status_idx = columns.index("status")
        gap_field = _EXPERIMENTS[experiment]["gap_field"]
        gap_idx = columns.index(gap_field) if gap_field in columns else None
        bucket = per_experiment.setdefault(
            experiment, {"pass": 0, "fail": 0, "worst_gap": None})
        for lineno, line in enumerate(lines[2:], start=3):
            if not line.strip():
                continue
            cells = _parse_csv_line(line)
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


def _parse_csv_line(line: str) -> list[str]:
    import csv as _csv
    import io
    return next(_csv.reader(io.StringIO(line)))


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
        if raw.get("experiment") not in (None, args.experiment):
            raise UsageError(
                f"config experiment {raw.get('experiment')!r} does not match "
                f"CLI experiment {args.experiment!r}")
        raw["experiment"] = args.experiment
        if args.seed is not None:
            raw["seed"] = args.seed
        rows = run(raw)
        csv_path, json_path = write_report(raw, rows, args.out)
        n_fail = sum(r.status == "FAIL" for r in rows)
        print(f"{'FAIL' if n_fail else 'PASS'}: {len(rows) - n_fail}/{len(rows)} "
              f"rows passed -> {csv_path}")
        return 1 if n_fail else 0
    except (UsageError, MergeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
