"""Every outcome count of the package is drawn by one sampler,
``measurement._draw_counts``, so that a simulation, ``empirical_mse`` and
``sample_plan_counts`` share one law and one use of the stream.  A call to
a ``multinomial`` method anywhere else in the package would be a second
sampler."""

import ast

import pytest

from test_imports import MODULE_FILES

ALLOWED = {"measurement.py:_draw_counts"}


def multinomial_callers(source: str) -> list[str]:
    """The innermost enclosing function of each call of a ``.multinomial``
    attribute in ``source``, or ``<module>`` for a call outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "multinomial"
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_draw_counts_calls_multinomial():
    found = {
        f"{path.name}:{owner}"
        for path in MODULE_FILES
        for owner in multinomial_callers(path.read_text())
    }
    assert found == ALLOWED


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(rng):\n    return rng.multinomial(3, p)\n", ["f"]),
        ("x = np.random.default_rng(0).multinomial(1, [1.0])\n", ["<module>"]),
        ("class S:\n    def g(self):\n        return (r.multinomial(n, q) for q in ps)\n", ["g"]),
        ("def f():\n    def g():\n        rng.multinomial(1, p)\n    return g\n", ["g"]),
        ("f = lambda rng: rng.multinomial(2, p)\n", ["<lambda>"]),
        ('"""Not rng.multinomial(1, p)."""\nm = rng.multinomial\n', []),
        ("def f(rng):\n    return rng.binomial(3, 0.5)\n", []),
    ],
)
def test_multinomial_callers_detector(source, expected):
    assert multinomial_callers(source) == expected
