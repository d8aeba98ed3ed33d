"""Every number of copies, shots or repetitions is judged by one rule,
``linalg.copy_count``, with one bound, ``linalg.MAX_COPIES``: numpy's
multinomial sampler reads shots as a C long, and trajectory.csv's n is an
int64.  A copy-count message, an ``iinfo`` read or the literal bound in any
other module would be a second copy of that rule.  The rule must hold at
each entry point, on both sides of the bound."""

import ast

import numpy as np
import pytest

from qtomo import error_analysis, simulation
from qtomo.error_analysis import (
    compare_batch,
    empirical_mse,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)
from qtomo.linalg import MAX_COPIES, InvariantError, copy_count
from qtomo.measurement import MeasurementPlan, sample_plan_counts, stream_rng

from test_imports import MODULE_FILES

PHRASES = ("copies must", "repetitions must")
HUGE = 3 * 10**400
THETA = (0.1, 0.2, 0.3)


def copy_rule_copies(source: str) -> list[tuple[int, str]]:
    """(line, what) of each piece of a copy-count rule in ``source``: a
    string constant or f-string part with a phrase of ``PHRASES``, an
    ``iinfo`` attribute, the integer 2**63 - 1, or ``2 ** 63``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if any(phrase in node.value for phrase in PHRASES):
                found.append((node.lineno, "message"))
        elif isinstance(node, ast.Attribute) and node.attr == "iinfo":
            found.append((node.lineno, "iinfo"))
        elif isinstance(node, ast.Constant) and node.value == MAX_COPIES:
            found.append((node.lineno, "bound"))
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and all(isinstance(v, ast.Constant) for v in (node.left, node.right))
            and (node.left.value, node.right.value) == (2, 63)
        ):
            found.append((node.lineno, "bound"))
    return sorted(found)


def test_only_linalg_holds_the_copy_rule():
    found = {path.name: copy_rule_copies(path.read_text()) for path in MODULE_FILES}
    assert {name: hits for name, hits in found.items() if hits and name != "linalg.py"} == {}
    # The scan sees the rule where it lives.
    assert {what for _, what in found["linalg.py"]} == {"message", "bound"}


@pytest.mark.parametrize(
    "source, expected",
    [
        ('raise InvariantError("the number of copies must be at least 1")\n', [(1, "message")]),
        ('raise ValueError("repetitions must be an integer of at least 1")\n', [(1, "message")]),
        ('raise ValueError(f"copies must be divisible by {d}")\n', [(1, "message")]),
        ("_MAX_SHOTS = int(np.iinfo(np.int64).max)\n", [(1, "iinfo")]),
        ("x = 1\nLIMIT = 9223372036854775807\n", [(2, "bound")]),
        ("LIMIT = 2 ** 63 - 1\n", [(1, "bound")]),
        ("LIMIT = 2**63\n", [(1, "bound")]),
        ('raise ConfigError(f"exceeds {MAX_COPIES} copies")\n', []),
        ('raise ConfigError(f"schedule entries must be from 1 to {MAX_COPIES}")\n', []),
        ('"""The copies n of a point must also fit."""\n', []),
        ("ok = 0 <= seed < 2**64\n", []),
        ("n = 2 ** k\n", []),
        ("import numpy as np\nlimit = np.finfo(float).max\n", []),
    ],
)
def test_copy_rule_detector(source, expected):
    assert copy_rule_copies(source) == expected


def test_the_replaced_copies_are_gone():
    assert not hasattr(error_analysis, "_check_total")
    assert not hasattr(simulation, "_MAX_SHOTS")


class TestCopyCount:
    @pytest.mark.parametrize("value", [1, 3, MAX_COPIES, np.int64(MAX_COPIES), np.uint8(7)])
    def test_accepts_and_returns_an_int(self, value):
        n = copy_count(value)
        assert type(n) is int and n == value

    @pytest.mark.parametrize(
        "value, divisor, message",
        [
            (2.0, 1, "must be an integer"),
            (True, 1, "must be an integer"),
            ("3", 1, "must be an integer"),
            (0, 1, "must be at least 1"),
            (-3, 3, "must be at least 1"),
            (MAX_COPIES + 1, 1, f"must be at most {MAX_COPIES}"),
            (HUGE, 3, f"must be at most {MAX_COPIES}"),
            (np.uint64(MAX_COPIES) + np.uint64(1), 1, "must be at most"),
            (100, 3, "must be divisible by 3"),
        ],
    )
    def test_rejects(self, value, divisor, message):
        with pytest.raises(InvariantError, match=f"^the number of copies {message}"):
            copy_count(value, divisor)

    def test_bound_is_the_int64_maximum(self):
        assert MAX_COPIES == int(np.iinfo(np.int64).max) == 9223372036854775807


# Each entry point that takes one count of copies or repetitions as given.
ENTRY_POINTS = {
    "mse_standard": lambda n: mse_standard(THETA, n),
    "mse_minimal": lambda n: mse_minimal(THETA, n),
    "mse_three_direction": lambda r: mse_three_direction(THETA, np.eye(3), r),
    "MeasurementPlan": lambda r: MeasurementPlan(2, r),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
class TestEntryPoints:
    def test_accepts_the_bound(self, entry):
        entry(MAX_COPIES)

    @pytest.mark.parametrize("count", [MAX_COPIES + 1, HUGE])
    def test_rejects_above_the_bound(self, entry, count):
        with pytest.raises(InvariantError, match="at most"):
            entry(count)


class TestCompareBatch:
    def test_accepts_the_largest_multiple_of_three(self):
        c = compare_batch(np.array([THETA]), 9223372036854775806)
        assert c.trace_ok[0]

    @pytest.mark.parametrize("total", [9223372036854775809, HUGE])
    def test_rejects_above_the_bound(self, total):
        with pytest.raises(InvariantError, match="at most"):
            compare_batch(np.array([THETA]), total)


class Drawn(Exception):
    pass


class TestEmpiricalMse:
    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise Drawn

        monkeypatch.setattr(error_analysis, "stream_rng", draw)

    @pytest.mark.parametrize(
        "scheme, total",
        [
            ("standard", MAX_COPIES + 1),
            ("minimal", HUGE),
            ("three-direction", 3 * 2**70),
            ("three-direction", HUGE),
        ],
    )
    def test_rejects_before_drawing(self, scheme, total):
        with pytest.raises(InvariantError, match="at most"):
            empirical_mse(scheme, THETA, total, 100, 0)

    @pytest.mark.parametrize(
        "scheme, total", [("standard", MAX_COPIES), ("three-direction", MAX_COPIES - 1)]
    )
    def test_reaches_the_draw_at_the_bound(self, scheme, total):
        with pytest.raises(Drawn):
            empirical_mse(scheme, THETA, total, 100, 0)


def test_plan_counts_reject_at_the_plan():
    with pytest.raises(InvariantError, match="at most"):
        sample_plan_counts(MeasurementPlan(2, 2**70), np.eye(2) / 2, stream_rng(0, 0))
