"""Command line interface.

Subcommands
-----------
estimate    unconstrained + constrained estimates from an outcome-count file
project     least-squares density-matrix projection of a trace-one Hermitian
simulate    seeded Monte Carlo trajectory sweep driven by a JSON config
mse         closed-form error matrix of a qubit scheme at a given theta
compare     scheme comparison: single theta as JSON or a ball grid as CSV
povm-check  structural checks of a measurement scheme, with probabilities

Matrices travel as JSON arrays of [re, im] pairs.  Tables are CSV with
floats at 17 significant digits, so values survive a round trip exactly.
All file writes are atomic (temp file then rename).  Exit codes: 0 success,
2 malformed input or config, 3 violated domain invariant, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .error_analysis import (
    _comparison_scalars,
    average_mse_over_ball,
    compare_batch,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)
from .estimators import constrained_estimate, unconstrained_estimate
from .linalg import InvariantError, hs_distance, require_trace_one
from .measurement import _STRUCTURE_ATOL, SCHEMES, MeasurementPlan, linear_scheme, structure_gaps
from .simulation import ConfigError, ExperimentConfig, RandomState, run_trajectory
from .states import bloch_to_matrix, in_bloch_ball

DEFAULT_SEED = 42

__all__ = ["main", "entrypoint", "DEFAULT_SEED"]


# ---------------------------------------------------------------------------
# JSON codecs


def matrix_to_json(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, complex)]


def _is_number(value) -> bool:
    """The CLI's one rule for a number: a finite int or float, not a bool
    (JSON's ``true``), not a string and not an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def matrix_from_json(obj) -> np.ndarray:
    """A k x k matrix from k rows of k [re, im] pairs; the bits of every
    number, -0.0 included, are kept."""
    if not isinstance(obj, list) or not obj:
        raise ConfigError("matrix must be a nonempty JSON array of rows")
    k = len(obj)
    return _number_array(obj, "matrix", (k, k, 2)).view(complex)[..., 0]


def _load_json(text: str, origin: str):
    def reject(name):
        raise ConfigError(f"invalid JSON in {origin}: {name} is not a number")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {origin}: {exc}") from exc


def _number_array(obj, origin: str, shape: tuple) -> np.ndarray:
    """A JSON array of numbers of the given shape, as floats."""

    def fits(node, dims) -> bool:
        if not dims:
            return _is_number(node)
        return (
            isinstance(node, list)
            and len(node) == dims[0]
            and all(fits(item, dims[1:]) for item in node)
        )

    if not fits(obj, shape):
        raise ConfigError(f"{origin} must be an array of numbers of shape {shape}")
    return np.asarray(obj, dtype=float)


def _directions_option(args) -> np.ndarray | None:
    """``--directions`` as a 3x3 row matrix, or None when not given."""
    if args.directions is None:
        return None
    if args.scheme != "three-direction":
        raise ConfigError("--directions only applies to scheme three-direction")
    return _number_array(_load_json(args.directions, "--directions"), "--directions", (3, 3))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_theta(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError("theta must be three comma-separated numbers")
    try:
        theta = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"theta entries must be numbers: {exc}") from exc
    if not np.isfinite(theta).all():
        raise ConfigError("theta entries must be finite")
    return theta


def _require_keys(obj: dict, allowed: set, origin: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {origin}: {', '.join(unknown)}")


# ---------------------------------------------------------------------------
# Output helpers


def _atomic_write(path: Path, chunks):
    """Write the strings of ``chunks`` in order; they may come from a generator."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_chunks(header, tables):
    """The header line, then each table of equal-length columns as one string
    of CSV lines.

    A float64 column is %.17g, applied by one %-format to its distinct bit
    patterns (bits, not values, keep 0.0 apart from -0.0); an integer or
    bool column goes through str once per distinct value, any other column
    once per row.  Each text carries the comma or newline after it, so a
    table is one join of its texts in row order."""
    yield ",".join(header) + "\n"
    for columns in tables:
        columns = list(map(np.asarray, columns))
        texts = []
        for j, col in enumerate(columns):
            if col.dtype == np.float64:
                bits, where = np.unique(col.view(np.int64), return_inverse=True)
                values = bits.view(np.float64).tolist()
                distinct = ("%.17g " * len(values) % tuple(values)).split()
            elif col.dtype.kind in "biu":
                values, where = np.unique(col, return_inverse=True)
                distinct = map(str, values.tolist())
            else:
                distinct, where = map(str, col.tolist()), slice(None)
            end = "\n" if j == len(columns) - 1 else ","
            texts.append(np.array([text + end for text in distinct], dtype=object)[where])
        yield "".join(np.stack(texts, axis=1).ravel().tolist())


def _emit_json(payload, out: str | None) -> int:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        _atomic_write(Path(out), [text + "\n"])
    else:
        print(text)
    return 0


def _svg_line_chart(x, y, title: str, ylabel: str) -> str:
    """Minimal standalone SVG line chart of a metric against the copy count
    (never empty): axes, ticks, polyline, markers."""
    width, height = 640.0, 440.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo

    def px(v):
        return left + (v - x_lo) / span_x * (width - left - right)

    def py(v):
        return height - bottom - (v - y_lo) / span_y * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        'font-size="12">copies n</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">{ylabel}</text>',
    ]
    for tick in np.linspace(x_lo, x_hi, 5):
        parts.append(
            f'<line x1="{px(tick):.2f}" y1="{height - bottom}" x2="{px(tick):.2f}" '
            f'y2="{height - bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tick):.2f}" y="{height - bottom + 18:.1f}" text-anchor="middle" '
            f'font-size="10">{tick:.4g}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        parts.append(
            f'<line x1="{left - 5}" y1="{py(tick):.2f}" x2="{left}" y2="{py(tick):.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.1f}" y="{py(tick) + 3:.2f}" text-anchor="end" '
            f'font-size="10">{tick:.4g}</text>'
        )
    points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1663a9" stroke-width="1.5"/>')
    for a, b in zip(x, y):
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="#1663a9"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_project(args) -> int:
    if (args.matrix is None) == (args.matrix_file is None):
        raise ConfigError("provide exactly one of --matrix or --matrix-file")
    text = args.matrix if args.matrix is not None else _read_source(args.matrix_file)
    matrix = matrix_from_json(_load_json(text, "matrix input"))
    matrix = require_trace_one(matrix)
    projected, steps = constrained_estimate(matrix)
    payload = {
        "input": matrix_to_json(matrix),
        "projected": matrix_to_json(projected),
        "steps": steps,
        "hs_distance": hs_distance(matrix, projected),
        "already_psd": steps == 0,
    }
    return _emit_json(payload, args.out)


def _labels(plan: MeasurementPlan) -> dict:
    """Plan keys by their count-file label: ('x', 1, 2) is "x_1_2"."""
    return {"_".join(str(part) for part in key): key for key in plan.keys}


def _counts_from_json(obj) -> tuple[MeasurementPlan, dict]:
    if not isinstance(obj, dict):
        raise ConfigError("counts input must be a JSON object")
    _require_keys(obj, {"dim", "repetitions", "counts"}, "counts input")
    for key in ("dim", "repetitions", "counts"):
        if key not in obj:
            raise ConfigError(f"counts input is missing {key!r}")
    try:
        plan = MeasurementPlan(obj["dim"], obj["repetitions"])
    except InvariantError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(obj["counts"], dict):
        raise ConfigError("counts must be an object mapping labels to count rows")
    labels = _labels(plan)
    table = {}
    for label, row in obj["counts"].items():
        if label not in labels:
            raise ConfigError(f"unrecognized count label {label!r}")
        if not isinstance(row, list) or not all(map(_is_number, row)):
            raise ConfigError(f"counts for {label!r} must be an array of numbers")
        table[labels[label]] = np.asarray(row, dtype=float)
    missing = [label for label, key in labels.items() if key not in table]
    if missing:
        raise ConfigError(f"counts are missing observables: {missing}")
    return plan, table


def _cmd_estimate(args) -> int:
    obj = _load_json(_read_source(args.counts), args.counts)
    plan, table = _counts_from_json(obj)
    phi = unconstrained_estimate(plan, table)
    rho, steps = constrained_estimate(phi)
    payload = {
        "dim": plan.dim,
        "repetitions": plan.repetitions,
        "unconstrained": matrix_to_json(phi),
        "constrained": matrix_to_json(rho),
        "steps": steps,
        "psd": steps == 0,
        "hs_distance": hs_distance(phi, rho),
    }
    return _emit_json(payload, args.out)


_STATE_KEYS = {"bloch", "matrix", "random"}
_CONFIG_KEYS = {"state", "scheme", "schedule", "trials", "seed", "metrics", "directions", "out", "svg"}


def _state_from_json(obj):
    if not isinstance(obj, dict) or len(set(obj) & _STATE_KEYS) != 1 or set(obj) - _STATE_KEYS:
        raise ConfigError('state must be an object with exactly one of "bloch", "matrix", "random"')
    if "bloch" in obj:
        return bloch_to_matrix(_number_array(obj["bloch"], "bloch state", (3,)))
    if "matrix" in obj:
        return matrix_from_json(obj["matrix"])
    entry = obj["random"]
    if not isinstance(entry, dict) or "dim" not in entry:
        raise ConfigError('random state must be an object with "dim"')
    _require_keys(entry, {"dim", "eigenvalues"}, "random state")
    # RandomState judges the dim before the eigenvalue shape reads it.
    dim = RandomState(entry["dim"]).dim
    eig = entry.get("eigenvalues")
    if eig is not None:
        eig = tuple(_number_array(eig, "random state eigenvalues", (dim,)).tolist())
    return RandomState(dim=dim, eigenvalues=eig)


def _config_from_file(path: str, args) -> tuple[ExperimentConfig, dict]:
    obj = _load_json(_read_source(path), path)
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(obj, _CONFIG_KEYS, "config")
    for key in ("state", "scheme", "schedule"):
        if key not in obj:
            raise ConfigError(f"config is missing {key!r}")
    state = _state_from_json(obj["state"])
    metrics = obj.get("metrics")
    if metrics is not None and not isinstance(metrics, list):
        raise ConfigError("metrics must be an array of metric names")
    directions = obj.get("directions")
    if directions is not None:
        directions = _number_array(directions, "directions", (3, 3))
    config = ExperimentConfig(
        state=state,
        scheme=obj["scheme"],
        schedule=obj["schedule"],
        trials=args.trials if args.trials is not None else obj.get("trials", 1000),
        seed=args.seed if args.seed is not None else obj.get("seed", DEFAULT_SEED),
        metrics=metrics,
        directions=directions,
    )
    out = args.out if args.out is not None else obj.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("out must be a path string")
    svg = obj.get("svg", False)
    if not isinstance(svg, bool):
        raise ConfigError("svg must be true or false")
    return config, {"out": out, "svg": args.svg or svg}


def _cmd_simulate(args) -> int:
    config, options = _config_from_file(args.config, args)
    record = run_trajectory(config, workers=args.workers)
    out_dir = Path(options["out"])
    csv_path = out_dir / "trajectory.csv"
    header = ("n", "metric", "mean", "stderr", "trials", "seed")
    _atomic_write(csv_path, _csv_chunks(header, [zip(*record.rows())]))
    written = [str(csv_path)]
    if options["svg"]:
        for metric in config.metrics:
            svg_path = out_dir / f"trajectory_{metric}.svg"
            chart = _svg_line_chart(
                record.copies,
                record.means[metric],
                title=f"{config.scheme}: {metric}",
                ylabel=metric,
            )
            _atomic_write(svg_path, [chart])
            written.append(str(svg_path))
    for path in written:
        print(path)
    return 0


_MSE_SCHEMES = ("comp", "three-direction", "standard", "minimal")


def _cmd_mse(args) -> int:
    theta = _parse_theta(args.theta)
    directions = _directions_option(args)
    n = args.copies
    if args.scheme in ("comp", "three-direction"):
        if n < 1:
            raise InvariantError("the number of copies must be at least 1")
        if n % 3:
            raise ConfigError("the per-direction schemes need copies divisible by 3")
        rows = np.eye(3) if directions is None else directions
        matrix = mse_three_direction(theta, rows, n // 3)
    elif args.scheme == "standard":
        matrix = mse_standard(theta, n)
    else:
        matrix = mse_minimal(theta, n)
    payload = {
        "scheme": args.scheme,
        "theta": [float(v) for v in theta],
        "copies": n,
        "mse": [[float(v) for v in row] for row in matrix],
        "trace": float(np.trace(matrix)),
    }
    return _emit_json(payload, args.out)


# About 3.4e7 ball points: a 3.5 GB comparison.csv and minutes of work.
_MAX_GRID = 401
_GRID_HEADER = (
    "theta1",
    "theta2",
    "theta3",
    "standard_minus_comp_min_eig",
    "comp_dominates_standard",
    "trace_comp",
    "trace_min",
    "trace_comp_le_trace_min",
)


# Cube points per slab of consecutive t1 planes that ``_grid_rows`` scores
# and hands the writer as one table; a plane larger than this is a slab alone.
_SLAB_POINTS = 2**13


def _grid_rows(axis, n):
    """CSV columns of the cube points that ``in_bloch_ball`` accepts, in the
    order of a triple loop over ``axis``, one slab of ``max(1, _SLAB_POINTS
    // len(axis)**2)`` consecutive t1 planes at a time, so memory is bounded
    by the larger of the budget and one plane.  The columns after theta are
    ``compare_batch``'s fields other than ``diff`` at the copy budget ``n``,
    which ``_cmd_compare`` has checked, so no 3x3 stack is built.  Every
    value is computed row by row, so the text does not depend on the slab
    size."""
    planes = max(1, _SLAB_POINTS // len(axis) ** 2)
    for start in range(0, len(axis), planes):
        t1 = axis[start : start + planes]
        slab = np.stack(np.meshgrid(t1, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        slab = slab[in_bloch_ball(slab)]
        if not len(slab):
            continue
        min_eig, dominated, trace_comp, trace_min, ok = _comparison_scalars(slab, n)
        yield *slab.T, min_eig, dominated.astype(int), trace_comp, trace_min, ok.astype(int)


def _cmd_compare(args) -> int:
    if args.theta is not None and args.grid is not None:
        raise ConfigError("--theta does not take --grid")
    n = args.copies
    if n < 1:
        # Checked before the grid's output directory is made.
        raise InvariantError("the number of copies must be at least 1")
    if n % 3:
        raise ConfigError("comparisons need copies divisible by 3")
    if args.theta is not None:
        theta = _parse_theta(args.theta)
        c = compare_batch(theta[None], n)
        avg, avg_det = average_mse_over_ball(np.eye(3))
        payload = {
            "theta": [float(v) for v in theta],
            "copies": n,
            "standard_minus_comp": [[float(v) for v in row] for row in c.diff[0]],
            "standard_minus_comp_min_eig": float(c.min_eig[0]),
            "comp_dominates_standard": bool(c.dominated[0]),
            "trace_comp": float(c.trace_comp[0]),
            "trace_min": float(c.trace_min[0]),
            "trace_comp_le_trace_min": bool(c.trace_ok[0]),
            "ball_average_mse_orthogonal": [[float(v) for v in row] for row in avg],
            "ball_average_det_orthogonal": avg_det,
        }
        return _emit_json(payload, args.out)
    grid = 9 if args.grid is None else args.grid
    if not 2 <= grid <= _MAX_GRID:
        raise ConfigError(f"grid must be from 2 to {_MAX_GRID} points per axis")
    axis = np.linspace(-1.0, 1.0, grid)
    out_dir = Path(args.out if args.out is not None else ".")
    csv_path = out_dir / "comparison.csv"
    _atomic_write(csv_path, _csv_chunks(_GRID_HEADER, _grid_rows(axis, n)))
    print(csv_path)
    return 0


def _cmd_povm_check(args) -> int:
    directions = _directions_option(args)
    if args.dim is not None and args.scheme != "klevel-pairs":
        raise ConfigError("--dim only applies to scheme klevel-pairs")
    dim = 2 if args.dim is None else args.dim
    try:
        plan = MeasurementPlan(dim, 1)
    except InvariantError as exc:
        raise ConfigError(f"--dim: {exc}") from None
    if args.matrix is not None:
        state = matrix_from_json(_load_json(args.matrix, "--matrix"))
    elif args.theta is not None:
        state = bloch_to_matrix(_parse_theta(args.theta))
    else:
        state = np.eye(dim, dtype=complex) / dim
    if state.shape[0] != dim:
        need = f"--dim {dim}" if args.scheme == "klevel-pairs" else f"scheme {args.scheme!r}"
        raise ConfigError(f"{need} does not match the {state.shape[0]}-level state")
    scheme = linear_scheme(args.scheme, dim, directions)
    probs = [[float(p) for p in dist] for dist in scheme.probabilities(state)]
    payload = {"scheme": args.scheme, "dim": dim}
    if args.scheme == "klevel-pairs":
        labels = list(_labels(plan))
        payload["observables"] = len(labels)
        # Observable has rejected projectors outside the structure tolerance.
        payload["checks"] = {label: True for label in labels}
        payload["probabilities"] = dict(zip(labels, probs))
    elif args.scheme == "three-direction":
        # linear_scheme has rejected non-unit and singular direction rows.
        payload["checks"] = {"unit_rows": True, "invertible": True}
        payload["probabilities"] = {f"direction_{a + 1}": p for a, p in enumerate(probs)}
    else:
        (povm,) = scheme.settings
        gaps = structure_gaps(povm.effects, "hermitian", "psd", "sums_to_identity")
        payload["outcomes"] = povm.n_outcomes
        payload["checks"] = {
            **{name: gap <= _STRUCTURE_ATOL for name, gap in gaps.items()},
            "max_hermiticity_gap": gaps["hermitian"],
            "min_effect_eigenvalue": -gaps["psd"],
            "max_completeness_gap": gaps["sums_to_identity"],
        }
        payload["probabilities"] = probs[0]
    return _emit_json(payload, args.out)


# ---------------------------------------------------------------------------
# Parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtomo",
        description="Point estimation of finite-dimensional quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimates from an outcome-count JSON file")
    p_est.add_argument("--counts", required=True, help="counts JSON file, or - for stdin")
    p_est.add_argument("--out", help="write the JSON result here instead of stdout")
    p_est.set_defaults(func=_cmd_estimate)

    p_proj = sub.add_parser("project", help="project a trace-one Hermitian onto density matrices")
    p_proj.add_argument("--matrix", help="matrix as a JSON array of [re, im] pairs")
    p_proj.add_argument("--matrix-file", help="file with the matrix JSON, or - for stdin")
    p_proj.add_argument("--out", help="write the JSON result here instead of stdout")
    p_proj.set_defaults(func=_cmd_project)

    p_sim = sub.add_parser("simulate", help="run a seeded trajectory sweep from a JSON config")
    p_sim.add_argument("--config", required=True, help="experiment config JSON file")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--trials", type=int, help="override the config trial count")
    p_sim.add_argument("--out", help="output directory (default from config, else cwd)")
    p_sim.add_argument("--svg", action="store_true", help="also write one SVG chart per metric")
    p_sim.add_argument("--workers", type=int, default=1, help="sampling worker processes")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mse = sub.add_parser("mse", help="closed-form error matrix of a qubit scheme")
    p_mse.add_argument("--scheme", required=True, choices=_MSE_SCHEMES)
    p_mse.add_argument("--theta", required=True, help="Bloch vector, e.g. 0.3,0.4,0.5")
    p_mse.add_argument("--copies", type=int, required=True, help="total copies n")
    p_mse.add_argument("--directions", help="3x3 JSON row matrix for three-direction")
    p_mse.add_argument("--out", help="write the JSON result here instead of stdout")
    p_mse.set_defaults(func=_cmd_mse)

    p_cmp = sub.add_parser("compare", help="compare the qubit schemes at equal copy budget")
    p_cmp.add_argument("--copies", type=int, default=300, help="total copies n, divisible by 3")
    p_cmp.add_argument("--theta", help="single Bloch vector; JSON output")
    p_cmp.add_argument("--grid", type=int, help=f"points per axis, 2 to {_MAX_GRID} (default 9)")
    p_cmp.add_argument("--out", help="output directory for the CSV (or file for --theta)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = sub.add_parser("povm-check", help="structural checks of a measurement scheme")
    p_chk.add_argument("--scheme", default="minimal", choices=SCHEMES)
    p_chk.add_argument("--dim", type=int, help="dimension for klevel-pairs (default 2)")
    p_chk.add_argument("--theta", help="evaluate probabilities at this Bloch vector")
    p_chk.add_argument("--matrix", help="evaluate probabilities at this density matrix JSON")
    p_chk.add_argument("--directions", help="3x3 JSON row matrix for three-direction")
    p_chk.add_argument("--out", help="write the JSON result here instead of stdout")
    p_chk.set_defaults(func=_cmd_povm_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
