"""Record the reference outcomes that ``bench/run.py`` checks against.

    python3 bench/record.py [--workload NAME ...] [--jobs 2]

Runs one untimed pass per workload and pool input seed on the current code
and writes ``bench/reference/<workload>.json``.  Outcomes that are the same
for every input seed (the shipped configs) are stored once under "shared".
Re-record only on purpose: the reference defines what counts as correct.

The pool is input seeds 0..31, except for ``renorm-audit``: the cost of
``span_norm`` on one random vector varies about fourfold, so its pool is the
first 32 seeds of 0..159 whose pass makes within 10% of the median number of
``NormSpec.value`` calls.  Runs on different bench seeds then do comparable
work and the spread of their timings shows the program, not the draw.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import shutil
import statistics
import sys
import tempfile

import run  # bench/run.py: pass runner, pool size and metadata
import workloads

POOL = 32
BANDED = {"renorm-audit": ("ordered_space.norm_value.calls", 160, 0.10)}


def passes(workload: str, seeds, jobs: int, trace: bool) -> dict[int, dict]:
    work = run.ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=work)
    try:
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            futures = {s: pool.submit(run.run_pass, workload, s, run.Path(tmp) / str(s),
                                      trace, 600.0)
                       for s in seeds}
            return {s: f.result() for s, f in futures.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def choose_pool(workload: str, jobs: int) -> list[int]:
    if workload not in BANDED:
        return list(range(POOL))
    metric, candidates, band = BANDED[workload]
    counts = {s: p["layers"][metric]
              for s, p in passes(workload, range(candidates), jobs, True).items()}
    med = statistics.median(counts.values())
    pool = [s for s in range(candidates) if abs(counts[s] - med) <= band * med][:POOL]
    if len(pool) < POOL:
        raise RuntimeError(f"only {len(pool)} seeds of {candidates} within the band")
    return pool


def record(workload: str, jobs: int) -> dict:
    pool = choose_pool(workload, jobs)
    per_seed = {s: p["outcomes"] for s, p in passes(workload, pool, jobs, False).items()}
    for s, outcomes in per_seed.items():
        for op_id, out in outcomes.items():
            if out.pop("error"):
                raise RuntimeError(f"{workload} seed {s}: {op_id} raised; not recording")
            out.pop("sha256", None)
            outcomes[op_id] = run.checks.pack(out)
    first = per_seed[pool[0]]
    shared = {op_id: out for op_id, out in first.items()
              if all(o[op_id] == out for o in per_seed.values())}
    seeds = {str(s): {k: v for k, v in o.items() if k not in shared}
             for s, o in per_seed.items()}
    return {"workload": workload, "metadata": run.metadata(), "pool": pool,
            "shared": shared, "seeds": seeds}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()
    run.warm_up()
    for workload in args.workload or workloads.WORKLOADS:
        ref = record(workload, args.jobs)
        path = run.checks.REFERENCE_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, separators=(",", ":"), sort_keys=True) + "\n")
        print(f"{workload}: pool {ref['pool']}, {len(ref['shared'])} shared and "
              f"{sum(len(v) for v in ref['seeds'].values())} per-seed outcomes -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
