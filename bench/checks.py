"""Correctness gate: compare a pass's outcomes with the recorded reference.

An operation is one report row of a CLI run, or one CLI run that writes no
rows (error configs, report-merge), or one oracle call.  It fails if it
raises, exits with another code than the reference, flips a verdict, or has a
value outside the column's tolerance.  A CLI run whose CSV differs byte for
byte from an earlier pass on the same input seed is one more failed
operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# column or key -> (rtol, atol); |value - ref| <= atol + rtol * |ref|
DEFAULT_TOL = (1e-9, 1e-12)
TOLERANCES = {
    # span-norm decompositions feed the witness constants M and C; a
    # different minimizer of equal value may move them slightly
    "M": (1e-6, 1e-9),
    "C": (1e-6, 1e-9),
    "slack_low": (1e-6, 1e-9),
    "slack_high": (1e-6, 1e-9),
    # constructive-sup gaps: the same construction must agree to 1e-12
    "gap": (0.0, 1e-12),
    "worst_gap": (0.0, 1e-12),
}
ORACLE_TOL = (1e-7, 1e-7)  # LP feasibility tolerance is 1e-9, agreement 1e-8


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def pack(outcome: dict) -> dict:
    """Stored form of an outcome: rows as columns plus value lists, floats
    to 12 significant digits (well inside every tolerance)."""
    rows = outcome.get("rows")
    if not rows:
        return outcome
    cols = list(rows[0])
    values = [[float(f"{r[c]:.12g}") if isinstance(r[c], float) else r[c] for c in cols]
              for r in rows]
    return {**outcome, "rows": {"columns": cols, "values": values}}


def unpack(outcome: dict) -> dict:
    rows = outcome.get("rows")
    if not isinstance(rows, dict):
        return outcome
    return {**outcome, "rows": [dict(zip(rows["columns"], v)) for v in rows["values"]]}


def expected_for(reference: dict, input_seed: int) -> dict:
    """Outcomes recorded for one input seed, shared ones included."""
    seeds = reference["seeds"]
    if str(input_seed) not in seeds:
        raise KeyError(f"no reference recorded for input seed {input_seed}")
    merged = {**reference["shared"], **seeds[str(input_seed)]}
    return {op_id: unpack(out) for op_id, out in merged.items()}


def close(a, b, tol) -> bool:
    """Recursive equality with a float tolerance; NaN equals NaN."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        rtol, atol = tol
        return abs(a - b) <= atol + rtol * abs(a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            close(a[k], b[k], TOLERANCES.get(k, tol)) for k in a)
    return a == b


def operation_count(expected: dict) -> int:
    rows = expected.get("rows")
    return len(rows) if rows else 1


def compare(op_id: str, expected: dict, actual: dict | None) -> list[str]:
    """One message per failed operation of ``op_id``."""
    n = operation_count(expected)
    if actual is None:
        return [f"{op_id}: not run"] * n
    if actual.get("error"):
        return [f"{op_id}: raised {actual['error']}"] * n
    if "exit" in expected and actual.get("exit") != expected["exit"]:
        return [f"{op_id}: exit {actual.get('exit')}, expected {expected['exit']}"] * n
    if "value" in expected:
        ok = close(expected["value"], actual.get("value"), ORACLE_TOL)
        return [] if ok else [f"{op_id}: value differs from the reference"]
    if "summary" in expected:
        ok = close(expected["summary"], actual.get("summary"), DEFAULT_TOL)
        return [] if ok else [f"{op_id}: merged summary differs from the reference"]
    exp_rows, act_rows = expected.get("rows"), actual.get("rows")
    if not exp_rows:
        return [] if not act_rows else [f"{op_id}: wrote rows, expected none"]
    act_rows = act_rows or []
    failures = []
    for i, exp in enumerate(exp_rows):
        if i >= len(act_rows):
            failures.append(f"{op_id}: row {exp['case']} missing")
        elif act_rows[i].get("status") != exp["status"]:
            failures.append(f"{op_id}: {exp['case']} verdict {act_rows[i].get('status')}, "
                            f"expected {exp['status']}")
        elif not close(exp, act_rows[i], DEFAULT_TOL):
            failures.append(f"{op_id}: {exp['case']} values outside tolerance")
    if len(act_rows) > len(exp_rows):
        failures.append(f"{op_id}: {len(act_rows) - len(exp_rows)} extra rows")
    return failures


def check_pass(expected: dict, actual: dict) -> tuple[int, list[str], int]:
    """(operations attempted, failure messages, CLI exit mismatches)."""
    attempted, failures, exit_mismatch = 0, [], 0
    for op_id, exp in expected.items():
        attempted += operation_count(exp)
        act = actual.get(op_id)
        failures += compare(op_id, exp, act)
        if "exit" in exp and act is not None and act.get("exit") != exp["exit"]:
            exit_mismatch += 1
    for op_id in actual.keys() - expected.keys():
        attempted += 1
        failures.append(f"{op_id}: operation has no reference")
    return attempted, failures, exit_mismatch


def check_identical(first: dict, again: dict) -> tuple[int, list[str]]:
    """Byte-identity of the CSVs two passes on one input seed wrote."""
    attempted, failures = 0, []
    for op_id, out in first.items():
        if out.get("sha256") is None:
            continue
        attempted += 1
        if again.get(op_id, {}).get("sha256") != out["sha256"]:
            failures.append(f"{op_id}: CSV differs between two passes on one seed")
    return attempted, failures
