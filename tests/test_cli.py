"""The CLI contract on the shipped configs: exit codes and repeatable reports.

Exit code 0 means every row passed, 1 that some row failed, 2 a usage error.
"""

import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

from latlab import extrapolation
from latlab.cli import _EXPERIMENTS, UsageError, main, normalize_config
from latlab.extrapolation import FINITE_DIMENSION_CAVEAT

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
PASS_CONFIGS = [config for config in CONFIGS if config.stem.endswith("-pass")]


def _run_config(config: Path, out: Path) -> int:
    experiment = config.stem.rpartition("-")[0]
    return main([experiment, "--config", str(config), "--out", str(out)])


def _statuses(csv_path: Path) -> list[str]:
    lines = csv_path.read_text().splitlines()
    status = lines[1].split(",").index("status")
    return [line.split(",")[status] for line in lines[2:]]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_exit_code(config, tmp_path):
    expected = {"pass": 0, "error": 2}[config.stem.rpartition("-")[2]]
    assert _run_config(config, tmp_path) == expected


# the CSV columns between case and status, per experiment
_COLUMNS = {
    "sup-construct": ["domain", "grid_n", "scheme", "tol", "seed", "gap"],
    "sup-construct-dual": ["domain", "grid_n", "scheme", "tol", "seed", "gap"],
    "normality-scan": ["eps", "h", "k", "p", "seed", "ratio", "growth"],
    "mollifier-rate": ["grid_n", "delta", "seed", "err_inf", "order"],
    "boundary-chart-audit": ["domain", "chart", "samples", "seed", "violations"],
    "pushin-audit": ["domain", "grid_n", "n", "seed", "outside_max", "min_positive_image"],
    "prop35-demo": ["k", "grid_n", "seed", "min_g", "min_g_minus_f", "endpoint_resid"],
    "extrapolation-demo": ["seed", "value"],
    "renorm-audit": ["space", "dim", "M", "C", "seed", "base_norm", "renorm", "slack_low",
                     "slack_high"],
}


@pytest.mark.parametrize("config", PASS_CONFIGS, ids=lambda p: p.stem)
def test_rerun_writes_identical_csv(config, tmp_path):
    reports = []
    for out in (tmp_path / "first", tmp_path / "second"):
        assert _run_config(config, out) == 0
        (csv_path,) = out.glob("*.csv")
        reports.append(csv_path.read_bytes())
    assert reports[0] == reports[1]
    header = reports[0].decode().splitlines()[1].split(",")
    experiment = config.stem.rpartition("-")[0]
    assert header == ["case", *_COLUMNS[experiment], "status", "witness"]


@pytest.mark.parametrize("experiment", ["sup-construct", "sup-construct-dual"])
def test_torus_at_scale(experiment, tmp_path):
    # 2048 nodes: the size at which a dense N x N approximant is unusable
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment,
                                  "domain": {"kind": "torus", "n": 2048},
                                  "samples": 3, "seed": 0}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 0
    (csv_path,) = out.glob("*.csv")
    assert _statuses(csv_path) == ["PASS"] * 3


def _rows(csv_path: Path) -> list[dict]:
    return list(csv.DictReader(csv_path.read_text().splitlines()[1:]))


@pytest.mark.parametrize("experiment", ["sup-construct", "sup-construct-dual"])
def test_nonconvergence_is_a_fail_row(experiment, tmp_path):
    # the 64-node torus scheme stops at n = 32, long before increments reach 1e-12
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, "scheme": {"tol": 1e-12},
                                  "samples": 2}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    (csv_path,) = out.glob("*.csv")
    rows = _rows(csv_path)
    assert [row["status"] for row in rows] == ["FAIL"] * 2
    for row in rows:
        witness = json.loads(row["witness"])
        assert "did not converge" in witness["error"]
        assert witness["increments"]
        assert float(row["gap"]) > 0.0


def test_gap_above_threshold_is_a_fail_row_naming_the_gap(tmp_path):
    # 640 nodes at the default tol: every Cauchy window closes while the gap
    # still exceeds the Theorem 4.1 gap bound
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "sup-construct",
                                  "domain": {"kind": "interval", "n": 640},
                                  "scheme": {"family": "resolvent-neumann"}}))
    out = tmp_path / "out"
    assert main(["sup-construct", "--config", str(config), "--out", str(out)]) == 1
    (csv_path,) = out.glob("*.csv")
    rows = _rows(csv_path)
    assert [row["status"] for row in rows] == ["FAIL"] * 10
    for row in rows:
        witness = json.loads(row["witness"])
        assert witness == {"gap": float(row["gap"]), "gap_threshold": 1e-5}
        assert witness["gap"] > witness["gap_threshold"]


@pytest.mark.parametrize("experiment, raw, keys", [
    ("normality-scan", {"order": {"k": 0}}, {"eps", "growth"}),
    ("sup-construct", {"domain": {"kind": "interval", "n": 640},
                       "scheme": {"family": "resolvent-neumann"}}, {"gap", "gap_threshold"}),
], ids=["normality-scan-l2", "sup-construct-neumann-640"])
def test_fail_witness_is_json_and_pass_witness_is_empty(experiment, raw, keys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 1
    (csv_path,) = out.glob("*.csv")
    rows = _rows(csv_path)
    assert "FAIL" in {row["status"] for row in rows}
    for row in rows:
        if row["status"] == "FAIL":
            assert set(json.loads(row["witness"])) == keys
        else:
            assert row["witness"] == ""


# each step's rate is taken per halving, so steps that do not halve pass
# or fail as halving steps would
@pytest.mark.parametrize("experiment, raw, exit_code, column, rates", [
    ("mollifier-rate", {"deltas": [0.1, 0.09, 0.08]}, 0, "order", [1.9377, 1.9541]),
    ("normality-scan", {"eps": [0.25, 0.2, 0.16]}, 0, "growth", [1.9933, 2.0187]),
    # the L^2 ratio does not grow at any step size
    ("normality-scan", {"eps": [0.25, 0.2, 0.16], "order": {"k": 0}}, 1, "growth",
     [1.0, 0.9499]),
], ids=["mollifier-deltas", "normality-eps", "normality-eps-l2"])
def test_rate_of_a_step_that_does_not_halve(experiment, raw, exit_code, column, rates,
                                            tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == exit_code
    (csv_path,) = out.glob("*.csv")
    rows = _rows(csv_path)
    assert [float(row[column]) for row in rows[1:]] == pytest.approx(rates, abs=1e-4)


@pytest.mark.parametrize("experiment", ["sup-construct", "sup-construct-dual"])
def test_resolvent_multiplication_scheme_passes(experiment, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment,
                                  "domain": {"kind": "interval", "n": 64},
                                  "scheme": {"family": "resolvent-multiplication"},
                                  "samples": 3}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 0
    (csv_path,) = out.glob("*.csv")
    assert _statuses(csv_path) == ["PASS"] * 3


def test_pushin_convergence_does_not_depend_on_the_order_of_ns(tmp_path):
    # the L^p errors fall with n (0.378, 0.215 and 0.122 at n = 2, 4 and 8)
    # however ns lists the indices: the rows come out in increasing n
    reports = []
    for ns in ([2, 4, 8], [8, 4, 2], [4, 8, 2]):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "pushin-audit", "ns": ns, "samples": 2}))
        out = tmp_path / "-".join(map(str, ns))
        assert main(["pushin-audit", "--config", str(config), "--out", str(out)]) == 0
        (csv_path,) = out.glob("*.csv")
        reports.append(_rows(csv_path))
    assert reports[0] == reports[1] == reports[2]
    assert [row["case"] for row in reports[0]] == [
        "interval-n2", "interval-n4", "interval-n8", "interval-convergence"]


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_defaults_pass(experiment, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 0
    (csv_path,) = out.glob("*.csv")
    assert {row["status"] for row in _rows(csv_path)} == {"PASS"}


def test_extrapolation_demo_nonconvergence_is_a_fail_row(tmp_path, monkeypatch):
    # the increments fall as about 36/n, so an index range cut at n = 2**10
    # runs out long before they reach the smallest allowed tol
    scheme = extrapolation.resolvent_scheme
    monkeypatch.setattr(extrapolation, "resolvent_scheme",
                        lambda gen: dataclasses.replace(scheme(gen), n_max=2 ** 10))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "extrapolation-demo",
                                  "scheme": {"tol": 1e-9}}))
    out = tmp_path / "out"
    assert main(["extrapolation-demo", "--config", str(config), "--out", str(out)]) == 1
    (csv_path,) = out.glob("*.csv")
    failed = [row for row in _rows(csv_path) if row["status"] == "FAIL"]
    assert [row["case"] for row in failed] == ["theorem41-sup-gap"]
    assert "did not converge" in json.loads(failed[0]["witness"])["error"]


@pytest.mark.parametrize("experiment, raw", [
    ("extrapolation-demo", {"domain": {"kind": "interval", "n": 2}}),
    ("sup-construct", {"domain": {"kind": "interval", "n": 64},
                       "scheme": {"family": "mollifier"}}),
], ids=["neumann-on-two-nodes", "mollifier-on-interval"])
def test_unbuildable_scheme_is_a_usage_error(experiment, raw, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot build")
    assert not out.exists()


def test_extrapolation_demo_summary_carries_the_caveat(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "extrapolation-demo-pass.json"
    assert _run_config(config, tmp_path) == 0
    (json_path,) = tmp_path.glob("*.json")
    assert json.loads(json_path.read_text())["caveat"] == FINITE_DIMENSION_CAVEAT


def _merge(paths, out: Path) -> dict:
    assert main(["report-merge", *map(str, paths), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_report_merge_is_idempotent(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "normality-scan-pass.json"
    assert _run_config(config, tmp_path / "run") == 0
    (csv_path,) = (tmp_path / "run").glob("*.csv")
    once = _merge([csv_path], tmp_path / "once.json")
    twice = _merge([csv_path, csv_path], tmp_path / "twice.json")
    assert twice["runs"] == once["runs"] == 1
    assert twice["experiments"] == once["experiments"]


def test_report_merge_short_row_names_file_and_line(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "normality-scan-pass.json"
    assert _run_config(config, tmp_path / "run") == 0
    (csv_path,) = (tmp_path / "run").glob("*.csv")
    lines = csv_path.read_text().splitlines()
    bad = tmp_path / "short.csv"
    bad.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n")
    capsys.readouterr()
    assert main(["report-merge", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert f"{bad}:3" in capsys.readouterr().err


def test_report_merge_header_only_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "header-only.csv"
    bad.write_text("# schema=1,run_id=0,experiment=sup-construct\n")
    capsys.readouterr()
    assert main(["report-merge", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert f"{bad}:2: missing status column" in capsys.readouterr().err


def test_report_merge_malformed_header_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bogus-header.csv"
    bad.write_text("# schema=1,bogus\ncase,status,witness\nc0,PASS,\n")
    capsys.readouterr()
    assert main(["report-merge", str(bad), "--out", str(tmp_path / "m.json")]) == 2
    assert f"{bad}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, raw, field", [
    ("mollifier-rate", {"domain": {"kind": "torus", "n": 2}}, "domain.n"),
    ("sup-construct", {"domain": {"kind": "torus", "n": 2}}, "domain.n"),
    ("boundary-chart-audit", {"domains": ["rectangle"], "rect_n": 2}, "rect_n"),
], ids=["mollifier-rate", "sup-construct", "boundary-chart-audit-rect_n"])
def test_grid_too_small_is_a_usage_error(experiment, raw, field, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
    assert f"{field} = 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["sup-construct", "sup-construct-dual"])
def test_unknown_domain_kind_is_a_usage_error(experiment, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment,
                                  "domain": {"kind": "sphere", "n": 64},
                                  "scheme": {"family": "resolvent-neumann"}}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("experiment, raw", [
    ("mollifier-rate", {"domain": {"kind": "interval", "n": 128}}),
    ("extrapolation-demo", {"domain": {"kind": "torus", "n": 32}}),
    ("prop35-demo", {"domain": {"kind": "torus", "n": 257}}),
], ids=["mollifier-rate-on-interval", "extrapolation-demo-on-torus",
        "prop35-demo-on-torus"])
def test_domain_kind_the_experiment_does_not_build_is_a_usage_error(
        experiment, raw, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
    assert f"not {raw['domain']['kind']!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, raw, field", [
    ("sup-construct", {"scheme": {"n_max": 4}}, "scheme.n_max"),
    ("extrapolation-demo", {"scheme": {"family": "mollifier"}}, "scheme.family"),
    ("normality-scan", {"domain": {"kind": "sphere", "n": 64}}, "domain"),
    ("sup-construct", {"domain": 5}, "domain"),
    ("sup-construct", {"scheme": {"tol": "small"}}, "scheme.tol"),
    ("renorm-audit", {"samples": "x"}, "samples"),
    ("normality-scan", {"eps": []}, "eps"),
    ("mollifier-rate", {"deltas": []}, "deltas"),
    # verdict thresholds are experiment constants, not config fields
    ("sup-construct", {"gap_threshold": 1.0}, "gap_threshold"),
    ("sup-construct-dual", {"gap_threshold": 1.0}, "gap_threshold"),
    ("extrapolation-demo", {"gap_threshold": 1.0}, "gap_threshold"),
    ("sup-construct", {"curvature": 0.0}, "curvature"),
    ("sup-construct-dual", {"curvature": 0.0}, "curvature"),
    ("normality-scan", {"growth_low": 0.0}, "growth_low"),
    ("normality-scan", {"growth_high": 1e9}, "growth_high"),
    ("mollifier-rate", {"order_min": -1e9}, "order_min"),
    ("renorm-audit", {"inflation": 1e6}, "inflation"),
], ids=["undeclared-n_max", "undeclared-family", "undeclared-domain", "domain-not-object",
        "tol-not-number", "samples-not-integer", "empty-eps", "empty-deltas",
        "sup-gap_threshold", "sup-dual-gap_threshold", "extrapolation-gap_threshold",
        "sup-curvature", "sup-dual-curvature", "growth_low", "growth_high", "order_min",
        "inflation"])
def test_undeclared_or_mistyped_field_is_a_usage_error(experiment, raw, field, tmp_path,
                                                       capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": experiment, **raw}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
    assert f"config field {field} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw, message", [
    ({"experiment": "renorm-audit", "spaces": ["l2-dim8", "bogus"]},
     "spaces = ['l2-dim8', 'bogus'] outside"),
    ({"experiment": "boundary-chart-audit", "domains": ["interval", "torus"]},
     "domains = ['interval', 'torus'] outside"),
    ({"experiment": "pushin-audit", "domains": ["interval", "torus"]},
     "domains = ['interval', 'torus'] outside"),
    ({"experiment": "sup-construct", "scheme": {"family": "bogus"}},
     "scheme.family = 'bogus' outside"),
], ids=["renorm-space", "chart-domain", "pushin-domain", "scheme-family"])
def test_unknown_choice_is_rejected_before_any_run(raw, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}"):
        normalize_config(raw)


@pytest.mark.parametrize("experiment, config, message", [
    ("sup-construct", [1, 2], "config must be a JSON object"),
    ("normality-scan", {"eps": [0]}, "eps = [0] outside"),
    ("normality-scan", {"h_divisor": 0}, "h_divisor = 0 outside"),
    ("mollifier-rate", {"deltas": [0.1, 0]}, "deltas = [0.1, 0] outside"),
    ("pushin-audit", {"ns": [1]}, "ns = [1] outside"),
    ("normality-scan", {"order": {"k": -1}}, "order.k = -1 outside"),
    ("prop35-demo", {"orders": [0]}, "orders = [0] outside"),
    ("pushin-audit", {"order": {"p": 0.5}}, "order.p = 0.5 outside"),
    ("normality-scan", {"order": {"p": 0.5}}, "order.p = 0.5 outside"),
    ("extrapolation-demo", {"order": {"p": 0.5}}, "order.p = 0.5 outside"),
    ("normality-scan", {"order": {"p": 1}}, "order.p = 1 outside"),
    ("pushin-audit", {"order": {"p": 1}}, "order.p = 1 outside"),
    ("pushin-audit", {"order": {"p": float("inf")}}, "order.p = inf outside"),
    ("normality-scan", {"order": {"p": float("inf")}}, "order.p = inf outside"),
    ("extrapolation-demo", {"order": {"p": float("inf")}}, "order.p = inf outside"),
    # S_n f != f, but its L^p error underflows to 0 at n = 8 (p = 1000) or 4 (p = 2000)
    ("pushin-audit", {"order": {"p": 1000}},
     "order.p = 1000 is too large for the audit: the L^p error of S_n f - f is 0 at n = 8"),
    ("pushin-audit", {"order": {"p": 2000}},
     "order.p = 2000 is too large for the audit: the L^p error of S_n f - f is 0 at n = 4"),
    ("mollifier-rate", {"deltas": [0.002, 0.001]}, "deltas = [0.002, 0.001] too fine"),
    ("renorm-audit", {"spaces": ["l2-dim8", "l2-dim8"]},
     "config field spaces repeats the entry 'l2-dim8'"),
    ("boundary-chart-audit", {"domains": ["interval", "rectangle", "interval"]},
     "config field domains repeats the entry 'interval'"),
    ("pushin-audit", {"domains": ["interval", "interval"]},
     "config field domains repeats the entry 'interval'"),
    ("prop35-demo", {"orders": [1, 2, 1]}, "config field orders repeats the entry 1"),
    ("mollifier-rate", {"deltas": [0.1, 0.1]}, "config field deltas repeats the entry 0.1"),
    ("normality-scan", {"eps": [0.1, 0.1]}, "config field eps repeats the entry 0.1"),
    ("pushin-audit", {"ns": [2, 4, 2]}, "config field ns repeats the entry 2"),
    ("boundary-chart-audit", {"chart_samples": -1}, "chart_samples must be a positive"),
    ("boundary-chart-audit", {"chart_samples": 0}, "chart_samples must be a positive"),
    ("mollifier-rate", {"deltas": [0.1]}, "deltas = [0.1] outside"),
    ("normality-scan", {"eps": [0.25]}, "eps = [0.25] outside"),
    ("normality-scan", {"eps": [0.25], "order": {"k": 0}}, "eps = [0.25] outside"),
    ("pushin-audit", {"ns": [2]}, "ns = [2] outside"),
    ("normality-scan", {"order": {"p": 300}},
     "order.p = 300 is too large for the scan: norm is not finite on a sample"),
    ("normality-scan", {"order": {"k": 0, "p": 300}},
     "order.p = 300 is too large for the scan: the norm of y = eps underflows"),
    ("normality-scan", {"eps": [1.0, 0.9], "h_divisor": 3, "order": {"k": 4}},
     "order.k = 4 does not fit the grid that eps = [1.0, 0.9] and h_divisor = 3 give"),
    ("prop35-demo", {"orders": [300]}, "orders entry 300 does not fit domain.n = 257"),
    ("prop35-demo", {"domain": {"n": 32}, "orders": [2]},
     "orders entry 2 does not fit domain.n = 32"),
    ("prop35-demo", {"domain": {"n": 4}}, "orders entry 2 does not fit domain.n = 4"),
    ("extrapolation-demo", {"order": {"p": 700}},
     "order.p = 700 is too large for the lp norms: norm is not finite on a sample"),
    # the bump of a delta above 0.5 overlaps itself on the unit torus
    ("mollifier-rate", {"deltas": [1.0, 0.5]}, "deltas = [1.0, 0.5] outside"),
    ("boundary-chart-audit", {"ns": [2, 10 ** 16]},
     "cannot build the charts of ns = [2, 10000000000000000]: chart image closure touches"),
    ("pushin-audit", {"ns": [2, 10 ** 16]},
     "cannot build the charts of ns = [2, 10000000000000000]: chart image closure touches"),
    ("extrapolation-demo", {"scheme": {"tol": 1e-10}},
     "scheme.tol = 1e-10 outside the allowed range [1e-9, 1e-2] of extrapolation-demo: "
     "its supremum cannot converge below 1e-9"),
], ids=["config-not-object", "eps-zero", "h_divisor-zero", "delta-zero", "ns-one",
        "order-k-negative", "orders-zero", "pushin-p-half", "normality-p-half",
        "extrapolation-p-half", "normality-p-one", "pushin-p-one", "pushin-p-infinite",
        "normality-p-infinite", "extrapolation-p-infinite", "pushin-error-underflow-p1000",
        "pushin-error-underflow-p2000", "delta-below-grid",
        "repeated-space", "repeated-chart-domain", "repeated-pushin-domain",
        "repeated-order", "repeated-delta", "repeated-eps", "repeated-index",
        "chart-samples-negative", "chart-samples-zero", "single-delta", "single-eps",
        "single-eps-l2", "single-pushin-index", "order-p-underflow", "order-p-underflow-l2",
        "order-k-above-scan-grid",
        "order-above-grid", "w0-sample-on-coarse-grid", "w0-sample-on-4-nodes",
        "extrapolation-p-overflow", "delta-above-half-torus", "chart-index-huge",
        "pushin-index-huge", "extrapolation-tol-below-floor"])
def test_bad_config_value_is_a_usage_error(experiment, config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


class _Recording(dict):
    """A config that adds the dotted name of every leaf a runner reads to ``read``."""

    def __init__(self, cfg: dict, read: set, prefix: str = ""):
        super().__init__({key: _Recording(val, read, f"{prefix}{key}.")
                          if isinstance(val, dict) else val for key, val in cfg.items()})
        self.read, self.prefix = read, prefix

    def __getitem__(self, key):
        val = super().__getitem__(key)
        if not isinstance(val, dict):
            self.read.add(self.prefix + key)
        return val

    def get(self, key, default=None):
        return self[key] if key in self else default


def _leaves(cfg: dict, prefix: str = "") -> set:
    out = set()
    for key, val in cfg.items():
        out |= _leaves(val, f"{prefix}{key}.") if isinstance(val, dict) else {prefix + key}
    return out


# small sizes for the slow experiments; every declared field keeps a value
# under which the runner reads it
_SMALL = {
    "sup-construct": {"samples": 2},
    "sup-construct-dual": {"samples": 2},
    "renorm-audit": {"samples": 2},
    "boundary-chart-audit": {"chart_samples": 100, "rect_n": 8},
    "pushin-audit": {"domains": ["interval", "rectangle"], "domain": {"n": 65},
                     "rect_n": 8, "ns": [2, 4], "samples": 2},
    "prop35-demo": {"domain": {"n": 65}, "samples": 2},
}


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_runner_reads_every_declared_field(experiment):
    spec = _EXPERIMENTS[experiment]
    cfg = normalize_config({"experiment": experiment, **_SMALL.get(experiment, {})})
    read = set()
    spec["runner"](_Recording(cfg, read))
    assert _leaves(spec["defaults"]) - read == set()
