"""The four benchmark workloads, driven through latlab's public functions.

A workload pass takes one input seed.  ``run`` is the timed part: it calls
``latlab.cli.main`` (and, for ``lab-suite``, the ordered-space oracles) and
writes every report.  ``outcomes`` runs afterwards, untimed, and turns what
the pass produced into JSON-able records that ``checks`` compares with the
recorded reference.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

WORKLOADS = ("renorm-audit", "sup-mollifier", "sup-resolvent", "lab-suite")

# Sizes are cut down from the CLI defaults so that one pass takes about two
# seconds and a run holds enough passes for a steady median; the mix of work
# per layer is the same as at the defaults.
RENORM_AUDIT = {"experiment": "renorm-audit", "samples": 4}
SUP_MOLLIFIER = {"domain": {"kind": "torus", "n": 384},
                 "scheme": {"family": "mollifier"}, "samples": 10}
# tol 1e-7: at the default 4e-5 this construction misses its gap threshold
SUP_RESOLVENT = {"experiment": "sup-construct",
                 "domain": {"kind": "interval", "n": 640},
                 "scheme": {"family": "resolvent-neumann", "tol": 1e-7},
                 "samples": 10}
LIGHT_EXPERIMENTS = ("normality-scan", "mollifier-rate", "boundary-chart-audit",
                     "pushin-audit", "prop35-demo", "extrapolation-demo")
ORACLE_DIMS = (4, 5, 6)
FACE_SAMPLES = 128


class CliOp:
    """One ``latlab.cli.main`` invocation and where it wrote its report."""

    def __init__(self, op_id: str, argv: list[str], out: Path):
        self.id, self.argv, self.out = op_id, argv, out
        self.exit, self.error = None, None

    def __call__(self, cli):
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                self.exit = cli.main(self.argv)
        except Exception as exc:  # recorded as a failed operation
            self.error = f"{type(exc).__name__}: {exc}"

    def csvs(self) -> list[Path]:
        return sorted(self.out.glob("*.csv")) if self.out.is_dir() else []

    def outcome(self) -> dict:
        rows, sha = None, None
        paths = self.csvs()
        if len(paths) == 1:
            data = paths[0].read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            rows = parse_report(data.decode())
        elif len(paths) > 1:
            self.error = self.error or f"{len(paths)} CSVs in {self.out}"
        return {"exit": self.exit, "error": self.error, "rows": rows, "sha256": sha}


class MergeOp(CliOp):
    """``latlab report-merge`` over the CSVs that earlier operations wrote."""

    def __init__(self, sources: list[CliOp], out: Path):
        super().__init__("report-merge", [], out)
        self.sources = sources

    def __call__(self, cli):
        paths = [str(p) for op in self.sources for p in op.csvs()]
        self.argv = ["report-merge", *paths, "--out", str(self.out / "merged.json")]
        super().__call__(cli)

    def outcome(self) -> dict:
        path = self.out / "merged.json"
        summary = json.loads(path.read_text()) if path.is_file() else None
        if summary is not None:  # file paths differ between passes
            summary["witnesses"] = [[Path(w["file"]).name, w["line"], w["witness"]]
                                    for w in summary["witnesses"]]
        return {"exit": self.exit, "error": self.error, "summary": summary}


class OracleOp:
    """One ordered-space oracle call on a seeded cone."""

    def __init__(self, op_id: str, call):
        self.id, self.call = op_id, call
        self.value, self.error = None, None

    def __call__(self, cli):
        try:
            self.value = self.call()
        except Exception as exc:  # recorded as a failed operation
            self.error = f"{type(exc).__name__}: {exc}"

    def outcome(self) -> dict:
        value = self.value.tolist() if hasattr(self.value, "tolist") else self.value
        return {"error": self.error, "value": value}


def parse_report(text: str) -> list[dict]:
    """CSV report -> one dict per case; numeric cells become floats.

    The witness column is kept only as present/absent: its JSON payload is
    the failing input, which the verdict already covers.
    """
    lines = text.splitlines()
    reader = csv.reader(lines[1:])
    columns = next(reader)
    rows = []
    for cells in reader:
        row = {}
        for col, cell in zip(columns, cells):
            if col == "witness":
                row[col] = bool(cell)
                continue
            try:
                row[col] = float(cell) if col not in ("case", "status") else cell
            except ValueError:
                row[col] = cell
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

def _cli_op(op_id: str, experiment: str, cfg: dict, work: Path) -> CliOp:
    safe = op_id.replace(":", "_")
    path = work / "configs" / f"{safe}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    out = work / "out" / safe
    return CliOp(op_id, [experiment, "--config", str(path), "--out", str(out)], out)


def _cone_rows(rng, d: int, extra_row: bool):
    """Rows A of a pointed solid cone {x : A x >= 0}.

    A starts as a strictly diagonally dominant square matrix (a simplicial
    cone).  The optional extra row r = c @ A has one negative coefficient, so
    it cuts off an extreme ray, and sum(c) > 0 keeps the point A^{-1} 1 inside.
    """
    import numpy as np

    A = np.eye(d) + rng.uniform(-0.15, 0.15, size=(d, d)) * (1.0 - np.eye(d))
    if extra_row:
        c = rng.uniform(0.2, 1.0, size=d)
        c[rng.integers(d)] = -0.1
        A = np.vstack([A, c @ A])
    return A


def _oracle_ops(seed: int) -> list[OracleOp]:
    import numpy as np

    from latlab import ordered_space
    from latlab.ordered_space import NormSpec, OrderedSpaceSpec, PolyhedralCone

    rng = np.random.default_rng([seed, 4])
    ops = []
    for i, d in enumerate(ORACLE_DIMS):
        # inputs are drawn here; the cone's own LP checks run in the pass
        A = _cone_rows(rng, d, extra_row=i > 0)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        cone = {}

        def dual(A=A, cone=cone):
            cone["c"] = PolyhedralCone(A.shape[1], A)
            return ordered_space.dual_cone(cone["c"]).ineq

        def sup(x=x, y=y, cone=cone):
            d = len(x)
            space = OrderedSpaceSpec(d, cone["c"], NormSpec.lp(np.ones(d), 2.0))
            return ordered_space.supremum_oracle(space, x, y, seed=seed)

        def face(cone=cone):
            ray = ordered_space.cone_generators(cone["c"])[0]
            rep = ordered_space.is_face(ray[None, :], cone["c"],
                                        sample_size=FACE_SAMPLES, seed=seed)
            return [rep.is_face, rep.samples_checked]

        ops += [OracleOp(f"oracle:dual_cone:c{i}", dual),
                OracleOp(f"oracle:supremum:c{i}", sup),
                OracleOp(f"oracle:is_face:c{i}", face)]
    return ops


def build(name: str, seed: int, work: Path, root: Path) -> list:
    """The operations of one pass, with their config files written."""
    if name == "renorm-audit":
        return [_cli_op("renorm-audit", "renorm-audit", {**RENORM_AUDIT, "seed": seed}, work)]
    if name == "sup-mollifier":
        return [_cli_op(exp, exp, {**SUP_MOLLIFIER, "experiment": exp, "seed": seed}, work)
                for exp in ("sup-construct", "sup-construct-dual")]
    if name == "sup-resolvent":
        return [_cli_op("sup-construct", "sup-construct", {**SUP_RESOLVENT, "seed": seed}, work)]
    if name == "lab-suite":
        ops = []
        for path in sorted((root / "configs").glob("*.json")):
            experiment = path.stem.rsplit("-", 1)[0]
            out = work / "out" / f"config_{path.stem}"
            ops.append(CliOp(f"config:{path.stem}",
                             [experiment, "--config", str(path), "--out", str(out)], out))
        for exp in LIGHT_EXPERIMENTS:
            ops.append(_cli_op(f"light:{exp}", exp, {"experiment": exp, "seed": seed}, work))
        ops.append(MergeOp(list(ops), work / "out" / "merge"))
        return ops + _oracle_ops(seed)
    raise ValueError(f"unknown workload {name!r}")


def run(ops: list) -> None:
    """The timed part of a pass."""
    from latlab import cli

    for op in ops:
        op(cli)


def outcomes(ops: list) -> dict:
    return {op.id: op.outcome() for op in ops}
