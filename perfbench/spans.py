"""Spans and counts recorded around condvar's public functions.

The wrappers are installed from the benchmark's own files, so the package
under test is not edited: ``instrument`` swaps each named function for a
wrapper in every ``condvar`` module that holds it (``from .data import
load_csv`` copies the name into ``condvar.cli``), and puts the originals
back on exit.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
span open when it started. One pipeline runs in one thread, so spans nest.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _has_ancestor(self, i: int, test) -> bool:
        p = self.spans[i][3]
        while p is not None:
            if test(self.spans[p][0]):
                return True
            p = self.spans[p][3]
        return False

    def summary(self) -> dict:
        """name -> (calls, wall time, self time).

        Wall time counts each instant once, so a span nested in one of the
        same name adds nothing; self time is a span's duration minus the
        time its direct children cover.
        """
        rows = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += end - start
            if parent is not None:
                rows[self.spans[parent][0]][2] -= end - start
            if not self._has_ancestor(i, name.__eq__):
                row[1] += end - start
        return {name: tuple(row) for name, row in rows.items()}

    def calls_within(self, name: str, prefix: str) -> int:
        """Spans called ``name`` that run inside a span whose name starts with ``prefix``."""
        return sum(1 for i, s in enumerate(self.spans)
                   if s[0] == name and self._has_ancestor(i, lambda a: a.startswith(prefix)))


def _wrap(fn, tracer: Tracer, name, on_result):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


def _worst_case_name(fn):
    sig = inspect.signature(fn)

    def name(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return f"robustness.worst_case_loss.{bound.arguments['method']}"
    return name


def _targets(tracer: Tracer, modules: dict) -> list:
    """(module, attribute, span name, result hook) for every wrapped function."""
    rb = modules["robustness"]
    return [
        ("data", "load_csv", "data.load_csv", None),
        ("data", "save_csv", "data.save_csv", None),
        ("data", "build_group_index", "data.build_group_index", None),
        ("scm", "gen_example1", "scm.gen", None),
        ("scm", "gen_example2", "scm.gen", None),
        ("scm", "sample_linear_scm", "scm.gen", None),
        ("scm", "save_latents", "scm.save_latents", None),
        ("scm", "load_style_dataset", "scm.load_style_dataset", None),
        ("scm", "rerender", "scm.rerender", None),
        ("models", "forward", "models.forward", None),
        ("autodiff", "grad", "autodiff.grad", None),
        ("penalties", "conditional_penalty", "penalties.conditional_penalty", None),
        ("penalties", "variance_ratio", "penalties.variance_ratio", None),
        ("training", "train", "training.train",
         lambda report: tracer.add("training.epochs", len(report.history))),
        ("robustness", "worst_case_loss", _worst_case_name(rb.worst_case_loss), None),
        ("robustness", "estimate_conditional_covariance",
         "robustness.estimate_conditional_covariance", None),
        ("robustness", "first_order_gap", "robustness.first_order_gap", None),
        ("robustness", "divergence_probe", "robustness.divergence_probe", None),
        ("robustness", "steepest_style_direction", "robustness.steepest_style_direction", None),
        ("plotting", "decision_boundary_svg", "plotting.decision_boundary_svg", None),
        ("plotting", "zero_contour_segments", "plotting.zero_contour_segments",
         lambda segs: tracer.add("plotting.segments", len(segs))),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Trace condvar's public layer functions until the block exits."""
    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("condvar.")}
    package = [mod for name, mod in sys.modules.items()
               if name == "condvar" or name.startswith("condvar.")]
    undo = []
    try:
        for mod_name, attr, span, hook in _targets(tracer, modules):
            original = getattr(modules[mod_name], attr)
            wrapped = _wrap(original, tracer, span, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        dataset = modules["data"].Dataset
        prop = dataset.__dict__["features"]
        dataset.features = property(_wrap(prop.fget, tracer, "data.Dataset.features", None))
        undo.append((dataset, "features", prop))
        yield tracer
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)
