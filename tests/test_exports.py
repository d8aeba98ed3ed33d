"""Every exported name resolves, and deleted names stay out of the exports."""

import importlib

import pytest

import qtomo
from qtomo.measurement import Observable, Povm

MODULES = ["qtomo"] + [
    f"qtomo.{name}"
    for name in ("cli", "error_analysis", "estimators", "linalg", "measurement", "simulation", "states")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


DELETED = [
    ("qtomo", "qubit_constrain_bloch"),
    ("qtomo", "hermitian_eig"),
    ("qtomo", "Spectrum"),
    ("qtomo.linalg", "screens"),
] + [
    (module_name, name)
    for owner, name in (
        ("linalg", "is_psd"),
        ("states", "matrix_to_bloch"),
        ("measurement", "relative_frequency"),
        ("measurement", "sample_counts"),
        ("estimators", "project_nonneg_simplex"),
        ("estimators", "three_direction_estimate"),
        ("estimators", "standard_estimate"),
        ("estimators", "minimal_estimate"),
        ("error_analysis", "compare_standard_vs_complementary"),
        ("error_analysis", "compare_traces_min_vs_comp"),
        ("states", "is_bloch_state"),
    )
    for module_name in ("qtomo", f"qtomo.{owner}")
]


@pytest.mark.parametrize(
    "module_name, name", DELETED, ids=[f"{m}.{n}".removeprefix("qtomo.") for m, n in DELETED]
)
def test_deleted_names_not_exported(module_name, name):
    module = importlib.import_module(module_name)
    assert name not in module.__all__
    assert not hasattr(module, name)


def test_deleted_attributes_gone():
    assert not hasattr(Observable, "expectation")
    assert not hasattr(Observable, "dim")
    assert not hasattr(Povm, "dim")
