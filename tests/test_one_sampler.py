"""Every outcome count of the package is drawn by one sampler,
``measurement._draw_counts``, so that a simulation, ``empirical_mse`` and
``sample_plan_counts`` share one law and one use of the stream.  A call to
a ``multinomial`` method anywhere else in the package would be a second
sampler, and so would a ``searchsorted`` call outside ``_cdf_index``, the
sampler's one inversion of a count CDF."""

import ast

import pytest

from test_imports import MODULE_FILES

ALLOWED = {"measurement.py:_draw_counts"}
INVERSION = {"measurement.py:_cdf_index"}


def callers(source: str, name: str) -> list[str]:
    """The innermost enclosing function of each call of ``name``, as an
    attribute or a bare name, in ``source``, or ``<module>`` for a call
    outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "attr", None),
                getattr(child.func, "id", None),
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def package_callers(name: str) -> set[str]:
    return {
        f"{path.name}:{owner}" for path in MODULE_FILES for owner in callers(path.read_text(), name)
    }


def test_only_draw_counts_calls_multinomial():
    assert package_callers("multinomial") == ALLOWED


def test_only_the_sampler_calls_searchsorted():
    assert package_callers("searchsorted") == INVERSION


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
    assert callers(source, "multinomial") == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(cdf, u):\n    return np.searchsorted(cdf, u, side='right')\n", ["f"]),
        ("def f(cdf, u):\n    return cdf.searchsorted(u)\n", ["f"]),
        ("from numpy import searchsorted\ni = searchsorted(c, 0.5)\n", ["<module>"]),
        ("class T:\n    def g(self, u):\n        return [np.searchsorted(c, x) for x in u]\n", ["g"]),
        ("def f():\n    def g(u):\n        return np.searchsorted(c, u)\n    return g\n", ["g"]),
        ("f = lambda u: np.searchsorted(c, u)\n", ["<lambda>"]),
        ('"""Not np.searchsorted(c, u)."""\ns = np.searchsorted\n', []),
        ("def f(c, u):\n    return np.digitize(u, c)\n", []),
    ],
)
def test_searchsorted_callers_detector(source, expected):
    assert callers(source, "searchsorted") == expected
