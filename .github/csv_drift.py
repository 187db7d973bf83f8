"""Report the CSVs and exit codes that differ between two checkouts of latlab.

    python3 .github/csv_drift.py BASE HEAD

Runs every shipped config and each experiment at its defaults (a config
holding ``{}``) in both trees, each tree on its own ``src`` and ``configs``.
It writes a Markdown report to ``$GITHUB_STEP_SUMMARY``, or to stdout when
that is unset: each run whose CSV or exit code differs, with the largest
relative change of a numeric cell.  It only reports: it exits 0 whatever
differs, and nonzero only on its own errors.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _runs(tree: Path) -> dict:
    """run name -> (experiment, config file or None for the defaults)."""
    runs = {}
    for config in sorted((tree / "configs").glob("*.json")):
        experiment, kind = config.stem.rsplit("-", 1)
        runs[config.stem] = (experiment, config)
        if kind == "pass":
            runs[f"{experiment}-defaults"] = (experiment, None)
    return runs


def _run(tree: Path, experiment: str, config, out: Path):
    """(exit code, CSV bytes or None) of one run of the tree's latlab."""
    out.mkdir(parents=True)
    if config is None:
        config = out / "defaults.json"
        config.write_text("{}\n")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    status = subprocess.run(
        [sys.executable, "-m", "latlab.cli", experiment, "--config", str(config),
         "--out", str(out / "report")],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    csvs = sorted((out / "report").glob("*.csv"))
    return status, (csvs[0].read_bytes() if csvs else None)


def _cell_changes(a: bytes, b: bytes) -> str:
    """The largest relative change of a numeric cell, and the count of other changes."""
    rows_a, rows_b = (list(csv.reader(side.decode().splitlines())) for side in (a, b))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return f"{len(rows_a) - 1} → {len(rows_b) - 1} rows, or the columns differ"
    worst, cells, other = 0.0, 0, 0
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            other += 1
            continue
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                fx = fy = math.nan
            if math.isfinite(fx) and math.isfinite(fy):
                cells += 1
                worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
            else:
                other += 1
    parts = [f"{worst:.2g} over {cells} numeric cells"] if cells else []
    if other:
        parts.append(f"{other} other cells or rows")
    return "; ".join(parts)


def report(base: Path, head: Path, scratch: Path) -> str:
    runs_base, runs_head = _runs(base), _runs(head)
    lines, same, written = [], 0, 0
    for name in sorted(set(runs_base) | set(runs_head)):
        if name not in runs_base or name not in runs_head:
            lines.append(f"| `{name}` | only in {'head' if name in runs_head else 'base'} | |")
            continue
        (status_b, csv_b), (status_h, csv_h) = (
            _run(tree, *runs[name], scratch / side / name)
            for side, tree, runs in (("base", base, runs_base), ("head", head, runs_head)))
        written += csv_b is not None and csv_h is not None
        if status_b == status_h and csv_b == csv_h:
            same += 1
            continue
        exits = f"{status_b} → {status_h}" if status_b != status_h else f"{status_h}"
        if csv_b == csv_h:
            change = "identical"
        elif csv_b is None or csv_h is None:
            change = f"written only by {'head' if csv_b is None else 'base'}"
        else:
            change = _cell_changes(csv_b, csv_h)
        lines.append(f"| `{name}` | {exits} | {change} |")
    header = [f"### CSV drift against the base: {len(lines)} of {len(lines) + same} runs differ",
              "", f"{written} runs wrote a CSV on both sides.", ""]
    if not lines:
        return "\n".join(header + ["Every CSV is byte-identical and every exit code equal.", ""])
    return "\n".join(header + ["| run | exit code | CSV change (largest relative) |",
                               "|---|---|---|", *lines, ""])


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as scratch:
        text = report(base, head, Path(scratch))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
