"""The benchmark in ``perfbench/`` looks package names up at run time.

``perfbench/spans.py`` wraps functions by module and name and
``perfbench/run.py`` measures the data's shape through the batching API,
so deleting or renaming one of them breaks only the benchmark. This test
catches that inside the fast suite.
"""

import sys
from pathlib import Path

import numpy as np

import condvar.cli  # noqa: F401  (loads every module that spans.py wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    with spans.instrument(spans.Tracer()):
        pass

    from condvar.data import GroupIndex
    from condvar.training import group_aware_minibatches

    groups = GroupIndex(np.array([0, 0, 1, 2, 2, 2]))
    assert (groups.n, groups.m, groups.c, groups.max_size()) == (6, 3, 3, 3)
    batches = group_aware_minibatches(groups, 3, 0, 0)
    assert sorted(np.concatenate(batches).tolist()) == list(range(6))
