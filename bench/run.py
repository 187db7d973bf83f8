"""latlab benchmark: time to verdict, set-up, CPU, memory and failures.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs in a fresh interpreter with
BLAS/OpenMP pinned to one thread; passes repeat until S seconds are spent
(at least two).  The seed picks the input seeds of the passes from the pool
that ``bench/reference`` covers (see ``bench/record.py``): the first two
passes share one input seed, so their CSVs must be byte-identical, and later
passes take new ones.

With ``--trace 0`` the result reports ``wall_s`` and ``cpu_s`` of a pass
(mean over the passes), ``setup_s`` (import of ``latlab.cli`` in each pass's
fresh interpreter) and ``peak_rss_mb`` (medians over the passes).  With
``--trace 1`` every pass uses the first input seed, untraced and traced
passes alternate, and the result reports the per-layer metrics of
``bench/tracer.py`` plus ``trace.overhead_s`` (mean traced minus mean
untraced wall time).  The last line of standard output is the result
object; the line before it holds every pass's values with their mean,
median, quartiles and count, the input seeds, and the run's machine and
version metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
RUN_DEADLINE_S = 150  # no new pass starts after this; each run ends < 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# end-to-end metric -> (field of a pass result, unit, statistic over passes).
# Pass times take the mean, i.e. the run's total pass time over its passes:
# this host's speed flips between two levels every few seconds, and the
# median of ~8 passes jumps with it (10 runs of sup-resolvent: spread 5.3%
# for the median, 3.2% for the mean).  Set-up and memory take the median.
END_TO_END = {"wall_s": ("wall_s", "s", "mean"), "setup_s": ("import_s", "s", "median"),
              "cpu_s": ("cpu_s", "s", "mean"),
              "peak_rss_mb": ("peak_rss_mb", "MB", "median")}

# per-layer metrics each workload must make nonzero; a zero means a traced
# binding was missed (or the program stopped doing that work)
NONZERO = {
    "renorm-audit": [
        "ordered_space.norm_value.calls", "ordered_space.norm_grad.calls",
        "ordered_space.norm_value_many.rows", "ordered_space.norm_build.calls",
        "ordered_space.oracle.self_s",
        "sobolev_grid.sobolev_norm.calls", "sobolev_grid.negative_sobolev_norm.calls",
        "span_lattice.span_norm.calls", "span_lattice.span_norm.norm_evals_per_call",
        "span_lattice.renorm.calls", "span_lattice.renorm.exact_frac",
        "cli.normalize.self_s", "cli.runner.self_s", "cli.write_report.bytes",
    ],
    "sup-mollifier": [
        "span_lattice.scheme_R.calls", "span_lattice.scheme_R.builds",
        "span_lattice.scheme_R.bytes", "span_lattice.sup.calls",
        "span_lattice.sup.indices_per_call", "span_lattice.sup_dual.self_s",
        "cli.runner.self_s", "cli.write_report.bytes",
    ],
    "sup-resolvent": [
        "extrapolation.generator_build.calls", "extrapolation.scheme_R.builds",
        "extrapolation.scheme_R.bytes", "span_lattice.sup.calls",
        "span_lattice.sup.indices_per_call", "cli.runner.self_s",
        "cli.write_report.bytes",
    ],
    "lab-suite": [
        "ordered_space.lp.solves", "ordered_space.nnls.calls",
        "ordered_space.oracle.self_s",
        "sobolev_grid.sobolev_norm.calls", "sobolev_grid.mollify.calls",
        "sobolev_grid.pushin_build.calls", "sobolev_grid.pushin.nnz",
        "sobolev_grid.chart_cover.self_s", "sobolev_grid.positive_dominant.self_s",
        "span_lattice.span_norm.calls", "span_lattice.renorm.calls",
        "extrapolation.resolvent.calls", "extrapolation.theorem41.self_s",
        "extrapolation.multiplication_check.self_s",
        "cli.normalize.self_s", "cli.write_report.bytes", "cli.report_merge.self_s",
    ],
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def input_seeds(seed: int, pool: list[int]) -> list[int]:
    """The pool seeds in the order this bench seed's passes use them."""
    return random.Random(seed).sample(pool, len(pool))


def run_pass(workload: str, input_seed: int, work: Path, trace: bool,
             timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--input-seed", str(input_seed), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up() -> None:
    """One untimed import, so the first pass does not pay bytecode compilation."""
    proc = subprocess.run([sys.executable, "-c", "import latlab.cli"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import latlab.cli: {proc.stderr.strip()[-2000:]}")


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit, "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": 1,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the passes of one benchmark run and check every outcome."""
    reference = checks.load_reference(workload)
    order = input_seeds(seed, reference["pool"])
    start = time.perf_counter()
    passes, attempted, failures = [], 0, []
    first_by_seed: dict[int, dict] = {}
    exit_mismatch = []
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed >= seconds or elapsed >= RUN_DEADLINE_S:
            break
        i = len(passes)
        traced = trace and i % 2 == 1
        s = order[0] if trace else order[max(i - 1, 0) % len(order)]
        pass_dir = work / f"pass{i}"
        res = run_pass(workload, s, pass_dir, traced, timeout=max(10.0, 170.0 - elapsed))
        shutil.rmtree(pass_dir, ignore_errors=True)
        res["traced"] = traced
        passes.append(res)
        n, fails, mism = checks.check_pass(checks.expected_for(reference, s), res["outcomes"])
        attempted += n
        failures += fails
        exit_mismatch.append(mism)
        if s in first_by_seed:
            n, fails = checks.check_identical(first_by_seed[s], res["outcomes"])
            attempted += n
            failures += fails
        else:
            first_by_seed[s] = res["outcomes"]

    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "input_seeds": [p["input_seed"] for p in passes], "metadata": metadata()}
    untraced = [p for p in passes if not p["traced"]]
    if not trace:
        metrics, stats = {}, {}
        for name, (field, unit, statistic) in END_TO_END.items():
            stats[name] = summary([p[field] for p in untraced])
            metrics[name] = {"value": stats[name][statistic], "unit": unit}
        detail["stats"] = stats
    else:
        traced = [p for p in passes if p["traced"]]
        metrics = layer_summary(workload, traced, untraced, failures, detail)
        first_traced = next(i for i, p in enumerate(passes) if p["traced"])
        metrics["cli.exit_mismatch"] = exit_mismatch[first_traced]
        metrics["error_rate"] = len(failures) / max(attempted, 1)
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, (unit, _) in tracer.PER_LAYER.items()}
    detail["failures"] = failures[:50]
    result = {"correct": not failures, "attempted": max(attempted, 1),
              "failed": len(failures), "metrics": metrics}
    return {"detail": detail, "result": result}


def layer_summary(workload: str, traced: list[dict], untraced: list[dict],
                  failures: list[str], detail: dict) -> dict:
    """Per-layer metrics: counts from the first traced pass (they must repeat
    exactly), times as medians over the traced passes."""
    layers = [p["layers"] for p in traced]
    out = {}
    for name in layers[0]:
        if name.endswith("_s"):
            out[name] = statistics.median(layer[name] for layer in layers)
        else:
            out[name] = layers[0][name]
            if any(layer[name] != out[name] for layer in layers[1:]):
                failures.append(f"trace: {name} differs between passes on one seed")
    out["trace.overhead_s"] = (statistics.fmean(p["wall_s"] for p in traced)
                               - statistics.fmean(p["wall_s"] for p in untraced))
    for name in NONZERO[workload]:
        if not out[name]:
            failures.append(f"trace: {name} is 0 on {workload}; a traced binding was missed")
    detail["trace_passes"] = len(traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        warm_up()
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RuntimeError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    for msg in out["detail"]["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
