"""Span tracing at qtomo's module boundaries, installed from outside the package.

The tracer replaces names in the namespaces of the modules that call them:
every public qtomo function that one module imports from another, the
public qtomo functions the benchmark's workload module imports, and a few
boundaries named explicitly (the ``MeasurementPlan`` constructor, the
per-observable builders, ``ExperimentConfig.resolve_state`` and numpy's
Hermitian eigensolvers).  Wrapping the binding rather than the definition
means a call is traced exactly when it crosses into another layer.

Spans live in flat in-memory arrays (label, parent, start, end) and are
written out once, when the benchmark ends.  Every replaced name is put back
when the ``installed()`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np
import qtomo.measurement
import qtomo.simulation

LAYERS = ("cli", "simulation", "error_analysis", "estimators", "measurement", "states", "linalg")
OBSERVABLE_BUILDERS = ("pair_observable_x", "pair_observable_y", "diag_observable_z")


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    prefix, _, name = module.partition(".")
    return name if prefix == "qtomo" and name in LAYERS else None


def boundary_targets(callers):
    """(owner, attribute, label) for every boundary the tracer wraps.

    ``callers`` are the modules whose calls into qtomo are traced besides
    qtomo's own modules.  Labels read ``<layer>.<name>``.
    """
    modules = [importlib.import_module(f"qtomo.{layer}") for layer in LAYERS]
    targets = []
    for caller in modules + list(callers):
        own = caller.__name__
        for attr, obj in sorted(vars(caller).items()):
            layer = _layer_of(obj)
            if attr.startswith("_") or layer is None or obj.__module__ == own:
                continue
            if inspect.isfunction(obj):
                targets.append((caller, attr, f"{layer}.{attr}"))
            elif obj is qtomo.measurement.MeasurementPlan:
                # The only class wrapped: no caller outside measurement tests
                # isinstance against it.
                targets.append((caller, attr, "measurement.MeasurementPlan"))
    for attr in OBSERVABLE_BUILDERS:
        targets.append((qtomo.measurement, attr, f"measurement.{attr}"))
    targets.append(
        (qtomo.simulation.ExperimentConfig, "resolve_state", "simulation.resolve_state")
    )
    for attr in ("eigh", "eigvalsh"):
        targets.append((np.linalg, attr, f"numpy.{attr}"))
    return targets


class Tracer:
    """Records one span per traced call, with a link to the enclosing span."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.labels = sorted({label for _, _, label in self.targets})
        self._label_id = {label: i for i, label in enumerate(self.labels)}
        self.clear()

    def clear(self):
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.sweeps = 0

    def _wrap(self, fn, label: str):
        label_id = self._label_id[label]
        counts_sweeps = label == "estimators.project_nonneg_simplex"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.label)
            tracer.label.append(label_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counts_sweeps:
                tracer.sweeps += int(result[1])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, label in self.targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, label))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-label call counts, total and self seconds for the recorded spans."""
        n = len(self.labels)
        label = np.frombuffer(self.label, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        calls = np.bincount(label, minlength=n)
        total = np.bincount(label, weights=dur, minlength=n)
        own = np.bincount(label, weights=dur - covered, minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.labels)
            if calls[i]
        }

    def write_spans(self, path):
        """Write the recorded spans as CSV: id, parent id, label, start and duration."""
        t_base = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,label,start_s,dur_s\n")
            for i, (lab, par, t0, t1) in enumerate(
                zip(self.label, self.parent, self.start, self.end)
            ):
                handle.write(f"{i},{par},{self.labels[lab]},{t0 - t_base:.9f},{t1 - t0:.9f}\n")
