"""One workload pass in a fresh interpreter; prints one JSON line.

    python3 bench/one_pass.py --workload NAME --input-seed N --work DIR [--trace]

Run by ``bench/run.py`` with BLAS/OpenMP pinned to one thread and ``src`` on
PYTHONPATH.  Reports the import time of ``latlab.cli`` (the set-up every
latlab run pays), the pass's wall and CPU time, the process's peak RSS, the
outcomes to check and, with ``--trace``, the per-layer metrics.
"""

import sys
import time

_t0 = time.perf_counter()
import latlab.cli  # noqa: E402,F401  (timed: this is the set-up cost)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--input-seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    ops = workloads.build(args.workload, args.input_seed, Path(args.work), root)

    spans, patcher = None, None
    if args.trace:
        tr = tracer.Tracer()
        patcher = tracer.install(tr)
        spans = tr.spans
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    workloads.run(ops)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if patcher is not None:
        patcher.undo()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "input_seed": args.input_seed,
        "import_s": IMPORT_S,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "outcomes": workloads.outcomes(ops),
        "layers": tracer.layer_metrics(spans) if spans is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
