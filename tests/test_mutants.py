"""Mutants: each plants a defect and checks that a shipped pass config fails.

A verdict that no defect can flip is no evidence.  Each test here breaks one
function the way a plausible bug would, runs a ``configs/*-pass.json`` config
through the CLI, and asserts that it exits 1 with exactly the rows that
depend on the broken function marked FAIL.
"""

import csv
from pathlib import Path

from latlab import extrapolation
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
