"""The CLI contract on the shipped configs: exit codes and repeatable reports.

Exit code 0 means every row passed, 1 that some row failed, 2 a usage error.
"""

import json
from pathlib import Path

import pytest

from latlab.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


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


@pytest.mark.parametrize("name", ["sup-construct-pass", "sup-construct-dual-pass"])
def test_rerun_writes_identical_csv(name, tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    reports = []
    for out in (tmp_path / "first", tmp_path / "second"):
        assert _run_config(config, out) == 0
        (csv_path,) = out.glob("*.csv")
        reports.append(csv_path.read_bytes())
    assert reports[0] == reports[1]


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
