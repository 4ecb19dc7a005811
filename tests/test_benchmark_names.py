"""The benchmark in ``perfbench/`` looks package names up at run time.

``perfbench/spans.py`` wraps functions by module and name and
``perfbench/run.py`` measures the data's shape through the batching API,
so deleting or renaming one of them breaks only the benchmark. These tests
catch that inside the fast suite, and check that the benchmark's count of
training steps (``autodiff.grad`` calls inside ``train``) is the real one.
"""

import sys
from pathlib import Path

import numpy as np

import condvar.cli  # noqa: F401  (loads every module that spans.py wraps)
from condvar import ModelSpec, PenaltyConfig, build_group_index, gen_example1, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans
    return spans


def test_benchmark_finds_every_name_it_wraps(monkeypatch):
    spans = _spans(monkeypatch)

    with spans.instrument(spans.Tracer()):
        pass

    from condvar.data import GroupIndex
    from condvar.training import group_aware_minibatches

    groups = GroupIndex(np.array([0, 0, 1, 2, 2, 2]))
    assert (groups.n, groups.m, groups.c, groups.max_size()) == (6, 3, 3, 3)
    batches = group_aware_minibatches(groups, 3, 0, 0)
    assert sorted(np.concatenate(batches).tolist()) == list(range(6))


def test_traced_training_records_one_grad_call_per_step(monkeypatch):
    spans = _spans(monkeypatch)
    example, _ = gen_example1(300, 40, seed=4)
    dataset = example.dataset
    groups = build_group_index(dataset)
    config = training.TrainConfig(PenaltyConfig("prediction", 1.0, 1.0, 1e-4),
                                  batch_size=50, epochs=2)
    with spans.instrument(spans.Tracer()) as tracer:
        report = training.train(dataset, groups, ModelSpec("linear", (2, 1)), config)
    assert report.steps == sum(len(training.group_aware_minibatches(groups, 50, 0, epoch))
                               for epoch in range(2))
    assert tracer.summary()["autodiff.grad"][0] == report.steps
    assert tracer.calls_within("autodiff.grad", "training.train") == report.steps
