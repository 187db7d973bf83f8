"""Each benchmark workload, traced in process, reaches every binding the
benchmark counts.

``bench/run.py`` fails a traced run when a counter of its ``NONZERO`` table
reads 0, which happens when a refactor bypasses a function that
``bench/tracer.py`` wraps.  This runs one pass of each workload from
``bench/workloads.py`` under the tracer and checks the same table, so such a
refactor fails here and not only in the traced benchmark.  The bench files
are imported, not edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    # run.py puts bench/ on sys.path itself and imports checks, tracer and
    # workloads, whose names are generic: the path and the bench modules are
    # taken out again, while latlab and library modules stay loaded
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("run")
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
                del sys.modules[name]


@pytest.mark.parametrize("workload", ["renorm-audit", "sup-mollifier", "sup-resolvent",
                                      "lab-suite"])
def test_traced_pass_reaches_every_counted_binding(bench, workload, tmp_path):
    seed = bench.checks.load_reference(workload)["pool"][0]
    ops = bench.workloads.build(workload, seed, tmp_path, bench.ROOT)
    tr = bench.tracer.Tracer()
    patcher = bench.tracer.install(tr)
    try:
        bench.workloads.run(ops)
    finally:
        patcher.undo()
    assert [op.id for op in ops if op.error] == []
    metrics = bench.tracer.layer_metrics(tr.spans)
    assert [name for name in bench.NONZERO[workload] if not metrics[name]] == []
