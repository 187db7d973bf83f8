"""Steadiness check: repeat each workload over several seeds and print every
metric's median, quartiles and spread.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                            [--trace 0|1] [--save FILE] [--compare FILE]

Runs ``bench/run.py`` once per seed and workload, with ``run_seconds`` from
BENCHMARK.json.  The spread of a metric is (q3 - q1) / median of its values,
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  An
end-to-end metric other than ``setup_s`` is flagged OVER when its spread
exceeds its bound and "> bound/3" when it exceeds a third of it.
``--compare`` flags every metric whose median is worse than the saved run's
median by more than its bound.  Exits 1 if any run is incorrect or any
OVER / WORSE flag is raised.  ``--runs 1`` prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    previous = json.loads(Path(args.compare).read_text()) if args.compare else {}

    bad = False
    saved: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for r in range(args.runs):
            res = run_once(workload, args.first_seed + r, spec["run_seconds"], args.trace)
            if not res["correct"] or res["failed"]:
                bad = True
                print(f"{workload} seed {args.first_seed + r}: INCORRECT, "
                      f"{res['failed']}/{res['attempted']} operations failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        saved[workload] = values
        print(f"== {workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            flags = []
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                if sp > bound:
                    flags.append("OVER")
                elif sp > bound / 3:
                    flags.append("> bound/3")
            old = previous.get(workload, {}).get(name)
            if bound is not None and old:
                change = (med - statistics.median(old)) / statistics.median(old)
                flags.append(f"vs saved {change:+.1%}")
                if change > bound:
                    flags.append("WORSE")
            bad = bad or "OVER" in flags or "WORSE" in flags
            bound_txt = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:44s} {med:12.6g} {units[name]:12s} q1 {q1:<11.6g} q3 {q3:<11.6g} "
                  f"spread {sp:6.1%} {bound_txt} {' '.join(flags)}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
