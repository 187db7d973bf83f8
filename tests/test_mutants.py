"""Mutants: each plants a defect and checks that a shipped pass config fails.

A verdict that no defect can flip is no evidence.  Each test here breaks one
function the way a plausible bug would, runs a ``configs/*-pass.json`` config
through the CLI, and asserts that it exits 1 with exactly the rows that
depend on the broken function marked FAIL.
"""

import csv
import json
from pathlib import Path

import numpy as np

from latlab import extrapolation, sobolev_grid
from latlab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _failed_cases(experiment: str, out: Path) -> list[str]:
    assert main([experiment, "--config", str(CONFIGS / f"{experiment}-pass.json"),
                 "--out", str(out)]) == 1
    (csv_path,) = out.glob("*.csv")
    rows = csv.DictReader(csv_path.read_text().splitlines()[1:])
    return [row["case"] for row in rows if row["status"] == "FAIL"]


def test_extrapolation_norm_off_by_a_relative_1e9(monkeypatch, tmp_path):
    norm = extrapolation.extrapolation_norm
    monkeypatch.setattr(extrapolation, "extrapolation_norm",
                        lambda space, x: norm(space, x) * (1 + 1e-9))
    assert _failed_cases("extrapolation-demo", tmp_path) == [
        "multiplication-identity-m013", "multiplication-identity-rand1",
        "multiplication-identity-rand2", "multiplication-sqrt21-over-4"]


def test_dense_resolvent_with_a_negative_entry(monkeypatch, tmp_path):
    # plants a negative entry in each dense resolvent, the product of a
    # resolvent operator with the N x N identity; the rows that read them
    # must fail in a written report, not end the run in a traceback
    class Planted(extrapolation.ResolventOperator):
        def _matmat(self, X):
            Y = super()._matmat(X)
            if X.shape == self.shape:
                Y[0, -1] = -1e-6
            return Y

    monkeypatch.setattr(extrapolation, "ResolventOperator", Planted)
    assert _failed_cases("extrapolation-demo", tmp_path) == [
        "neumann-resolvent-positivity-mu1", "neumann-resolvent-positivity-mu2",
        "resolvent-identity"]


def test_boundary_charts_that_expand(monkeypatch, tmp_path):
    # the compressed axes of every chart expand by 1 + 1/n and the exact
    # containment certificate is skipped, so the charts push samples out of
    # the domain; the sampled per-axis membership test must catch each chart
    def expanding(self, n):
        factors = np.where(np.asarray(self.compress), 1.0 + 1.0 / n, 1.0)
        return factors, np.asarray(self.c) * (1.0 - factors)

    monkeypatch.setattr(sobolev_grid, "_verify_chart_containment", lambda *args: None)
    monkeypatch.setattr(sobolev_grid.BoundaryChart, "matrix", expanding)
    assert _failed_cases("boundary-chart-audit", tmp_path) == [
        *(f"interval-chart{i}" for i in range(3)), *(f"rectangle-chart{i}" for i in range(9))]
    (csv_path,) = tmp_path.glob("*.csv")
    for row in csv.DictReader(csv_path.read_text().splitlines()[1:]):
        witness = json.loads(row["witness"])
        assert list(witness) == ["n", "sample"] and witness["n"] in (2, 4, 8)
        assert len(witness["sample"]) == (1 if row["domain"] == "interval" else 2)
