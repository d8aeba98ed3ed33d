"""The benchmark's four workloads.

Each workload turns the benchmark seed into program inputs (written under a
work directory), runs one iteration through qtomo's public entry points, and
reads the iteration's output back for the checks in ``checks.py``.  Only
``run()`` is timed.  This module is also a traced caller: the qtomo names it
imports below are wrapped by ``trace.boundary_targets``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

from qtomo.cli import main
from qtomo.error_analysis import empirical_mse
from qtomo.simulation import CHUNK_TRIALS

import checks

K10_SCHEDULE = [10, 100, 1000]
K10_TRIALS = 3 * CHUNK_TRIALS
MSE_THETA = (0.3, 0.4, 0.5)
MSE_COPIES = 300
MSE_TRIALS = 2**20
MSE_SCHEMES = ("standard", "minimal", "three-direction")
GRID = 41
GRID_COPIES = 300


def _run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _read_table(path: Path):
    if not path.exists():
        return None, []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        return header, list(reader)


def _written_bytes(stdout: str) -> int:
    return sum(Path(line).stat().st_size for line in stdout.splitlines() if Path(line).is_file())


class _Simulate:
    """``qtomo simulate`` on a config file, one worker."""

    reference = ("mixed",)

    def __init__(self, name: str, config: dict, workdir: Path):
        self.name = name
        self.config = config
        self.config_path = workdir / f"{name}.json"
        self.config_path.write_text(json.dumps(config))
        self.out_dir = workdir / f"{name}-out"
        points = len(config["schedule"])
        self.items = points * config["trials"]
        self.chunks = points * -(-config["trials"] // CHUNK_TRIALS)
        self.trial_points = self.items

    @property
    def sizes(self) -> dict:
        return {
            "state": self.config["state"],
            "schedule": self.config["schedule"],
            "trials": self.config["trials"],
            "metrics": self.config["metrics"],
            "trial_points": self.items,
            "chunks": self.chunks,
        }

    def run(self):
        (self.out_dir / "trajectory.csv").unlink(missing_ok=True)
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.out_dir)]
        return _run_cli(argv + ["--workers", "1"])

    def read(self, raw) -> dict:
        header, rows = _read_table(self.out_dir / "trajectory.csv")
        table = {}
        for row in rows:
            n, metric, mean, stderr, trials, seed = row
            table.setdefault(metric, {})[int(n)] = (
                float(mean), float(stderr), int(trials), int(seed)
            )
        return dict(raw, header=header, table=table, bytes=_written_bytes(raw["stdout"]))


class PairsProject(_Simulate):
    def __init__(self, seed: int, workdir: Path, root: Path):
        config = json.loads((root / "demos/configs/three_level_error.json").read_text())
        config["seed"] = seed
        super().__init__("pairs-k3-project", config, workdir)

    def check(self, out) -> list[str]:
        return checks.projection(out, self.config)


class PairsSample(_Simulate):
    reference = ("mixed", "sampling")

    def __init__(self, seed: int, workdir: Path, root: Path):
        config = {
            "state": {"random": {"dim": 10}},
            "scheme": "klevel-pairs",
            "schedule": K10_SCHEDULE,
            "trials": K10_TRIALS,
            "seed": seed,
            "metrics": ["hs-unconstrained", "psd-fraction", "det-mean"],
        }
        super().__init__("pairs-k10-sample", config, workdir)

    def check(self, out) -> list[str]:
        return checks.sampling(out, self.config)


class QubitMse:
    """``empirical_mse`` for the three qubit schemes at one Bloch vector."""

    name = "qubit-mse-mc"
    reference = ("sampling",)
    chunks = 0
    trial_points = 0

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.items = len(MSE_SCHEMES) * MSE_TRIALS
        self.sizes = {
            "theta": list(MSE_THETA),
            "copies": MSE_COPIES,
            "trials_per_scheme": MSE_TRIALS,
            "schemes": list(MSE_SCHEMES),
        }

    def run(self):
        return {
            scheme: empirical_mse(scheme, MSE_THETA, MSE_COPIES, MSE_TRIALS, self.seed)
            for scheme in MSE_SCHEMES
        }

    def read(self, raw) -> dict:
        return {"exit": 0, "mse": raw, "bytes": 0}

    def check(self, out) -> list[str]:
        return checks.mse(out, MSE_THETA, MSE_COPIES, MSE_TRIALS)


class CompareGrid:
    """``qtomo compare --grid`` over the Bloch ball, written as CSV."""

    name = "compare-grid"
    reference = ("interpreted",)
    chunks = 0
    trial_points = 0

    def __init__(self, seed: int, workdir: Path, root: Path):
        # The grid is closed-form: the seed changes no input here.
        self.out_dir = workdir / "compare-out"
        self.items = checks.ball_points(GRID)
        self.sizes = {"grid": GRID, "copies": GRID_COPIES, "ball_points": self.items}

    def run(self):
        (self.out_dir / "comparison.csv").unlink(missing_ok=True)
        argv = ["compare", "--grid", str(GRID), "--copies", str(GRID_COPIES)]
        return _run_cli(argv + ["--out", str(self.out_dir)])

    def read(self, raw) -> dict:
        header, rows = _read_table(self.out_dir / "comparison.csv")
        return dict(raw, header=header, rows=rows, bytes=_written_bytes(raw["stdout"]))

    def check(self, out) -> list[str]:
        return checks.grid(out, GRID)


def make(name: str, seed: int, workdir: Path, root: Path):
    """The workload called ``name``, with inputs generated from ``seed``."""
    cls = {
        "pairs-k3-project": PairsProject,
        "pairs-k10-sample": PairsSample,
        "qubit-mse-mc": QubitMse,
        "compare-grid": CompareGrid,
    }[name]
    return cls(seed, workdir, root)

