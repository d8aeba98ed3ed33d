"""Generated JSON and text inputs never make the CLI raise.

Every input a user can hand the CLI is fuzzed with JSON values, both
arbitrary ones and ones shaped like the valid input.  ``main`` must answer
with one of its exit codes, 0/2/3/4, and never let an exception escape.
Sizes stay small so that no example does real work: dimensions up to 4,
schedule entries up to 20, two trials, one process and grids up to 4 points
per axis.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtomo.cli import main
from qtomo.simulation import METRICS, SCHEMES

FUZZ = settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

NUMBERS = st.one_of(
    st.integers(-3, 20),
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
DIMS = st.integers(1, 4)


def _pairs(k: int):
    entry = st.lists(NUMBERS, min_size=2, max_size=2)
    return st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)


@st.composite
def _trace_one(draw):
    # A trace-one Hermitian matrix as [re, im] pair rows: it passes the input
    # checks and reaches the estimators.
    k = draw(DIMS)
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * k * k, max_size=2 * k * k))
    a = np.array(entries[: k * k]).reshape(k, k) + 1j * np.array(entries[k * k :]).reshape(k, k)
    h = (a + a.conj().T) / 2
    h[-1, -1] = 1.0 - np.trace(h).real + h[-1, -1].real
    return [[[float(z.real), float(z.imag)] for z in row] for row in h]


MATRICES = st.one_of(DIMS.flatmap(_pairs), _trace_one(), JSON)
UNIT_ROWS = st.lists(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 0.1
    ),
    min_size=3,
    max_size=3,
).map(lambda rows: (np.array(rows) / np.linalg.norm(rows, axis=1)[:, None]).tolist())
DIRECTIONS = st.one_of(
    UNIT_ROWS, st.lists(st.lists(NUMBERS, min_size=3, max_size=3), min_size=3, max_size=3), JSON
)
THETAS = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
        lambda t: ",".join(repr(v) for v in t)
    ),
    st.text(max_size=12),
)
LABELS = ["z_1", "z_2", "z_3", "x_1_2", "y_1_2", "x_1_3", "y_2_3", "x_2_1", "z_01", "w_1"]


def _one_replaced(valid: dict, fields: dict):
    """``valid`` with the value of one of ``fields`` drawn from its strategy."""
    return st.sampled_from(sorted(fields)).flatmap(
        lambda key: fields[key].map(lambda value: {**valid, key: value})
    )


def _text(value) -> str:
    return json.dumps(value) if not isinstance(value, str) else value


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    return code


@FUZZ
@given(matrix=st.one_of(MATRICES.map(_text), st.text(max_size=12)))
def test_project_matrix(matrix):
    _exit_code(["project", f"--matrix={matrix}"])


@FUZZ
@given(
    counts=st.one_of(
        st.fixed_dictionaries(
            {
                "dim": st.one_of(st.integers(-1, 4), JSON),
                "repetitions": st.one_of(st.integers(-1, 5), JSON),
                "counts": st.one_of(
                    st.dictionaries(
                        st.sampled_from(LABELS), st.lists(NUMBERS, max_size=4), max_size=9
                    ),
                    JSON,
                ),
            }
        ),
        JSON,
    )
)
def test_estimate_counts_file(counts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "counts.json")
        path.write_text(json.dumps(counts))
        _exit_code(["estimate", "--counts", str(path), "--out", str(Path(tmp, "out.json"))])


@FUZZ
@given(
    scheme=st.sampled_from(["comp", "three-direction", "standard", "minimal"]),
    theta=THETAS,
    copies=st.integers(-3, 30),
    directions=st.one_of(st.none(), DIRECTIONS.map(_text)),
)
def test_mse_options(scheme, theta, copies, directions):
    argv = ["mse", "--scheme", scheme, f"--theta={theta}", f"--copies={copies}"]
    if directions is not None:
        argv.append(f"--directions={directions}")
    _exit_code(argv)


@FUZZ
@given(
    scheme=st.sampled_from(["standard", "minimal", "three-direction", "klevel-pairs"]),
    dim=st.one_of(st.none(), st.integers(-2, 4)),
    state=st.one_of(
        st.none(),
        THETAS.map(lambda t: f"--theta={t}"),
        MATRICES.map(lambda m: f"--matrix={_text(m)}"),
    ),
    directions=st.one_of(st.none(), DIRECTIONS.map(_text)),
)
def test_povm_check_options(scheme, dim, state, directions):
    # --dim with a qubit scheme exits 2 at once, so it is drawn only some of
    # the time and the qubit schemes still reach their state checks.
    argv = ["povm-check", "--scheme", scheme]
    if dim is not None:
        argv.append(f"--dim={dim}")
    if state is not None:
        argv.append(state)
    if directions is not None:
        argv.append(f"--directions={directions}")
    _exit_code(argv)


@FUZZ
@given(
    theta=st.one_of(st.none(), THETAS),
    grid=st.integers(-1, 4),
    copies=st.integers(-3, 30),
)
def test_compare_options(theta, grid, copies):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["compare", f"--copies={copies}", f"--grid={grid}", "--out", tmp]
        if theta is not None:
            argv.append(f"--theta={theta}")
        _exit_code(argv)


VALID_CONFIGS = (
    {
        "state": {"bloch": [0.3, 0.2, 0.1]},
        "scheme": "three-direction",
        "schedule": [5, 10],
        "directions": np.eye(3).tolist(),
    },
    {
        "state": {"random": {"dim": 3, "eigenvalues": [0.2, 0.3, 0.5]}},
        "scheme": "klevel-pairs",
        "schedule": [5],
        "metrics": ["hs-constrained", "fidelity-constrained", "det-mean"],
    },
)
BLOCH = st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3)
RANDOM = st.one_of(
    st.fixed_dictionaries({"dim": st.just(3), "eigenvalues": JSON}),
    st.fixed_dictionaries(
        {"dim": st.one_of(st.integers(-1, 4), JSON)},
        optional={"eigenvalues": st.one_of(st.lists(NUMBERS, max_size=4), JSON)},
    ),
)
STATES = st.one_of(
    st.fixed_dictionaries({"bloch": st.one_of(BLOCH, JSON)}),
    st.fixed_dictionaries({"matrix": MATRICES}),
    st.fixed_dictionaries({"random": RANDOM}),
    JSON,
)
CONFIG_FIELDS = {
    "state": STATES,
    "scheme": st.one_of(st.sampled_from(SCHEMES), JSON),
    "schedule": st.one_of(st.lists(st.integers(-1, 20), max_size=3), JSON),
    "metrics": st.one_of(st.lists(st.sampled_from(METRICS), max_size=3), JSON),
    "directions": DIRECTIONS,
    "seed": st.one_of(st.integers(-1, 20), JSON),
    "svg": st.booleans(),
}
CONFIGS = st.one_of(
    *(_one_replaced(valid, CONFIG_FIELDS) for valid in VALID_CONFIGS),
    st.fixed_dictionaries(
        {key: CONFIG_FIELDS[key] for key in ("state", "scheme", "schedule")},
        optional={key: CONFIG_FIELDS[key] for key in ("metrics", "directions", "seed", "svg")},
    ),
    JSON,
)


@FUZZ
@given(config=CONFIGS)
def test_simulate_config_file(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        _exit_code(["simulate", "--config", str(path), "--trials", "2", "--out", tmp])
