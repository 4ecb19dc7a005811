"""The benchmark in ``perfbench/`` looks package names up at run time.

``perfbench/spans.py`` wraps functions by module and name and
``perfbench/run.py`` measures the data's shape through the batching API,
so deleting or renaming one of them breaks only the benchmark. These tests
catch that inside the fast suite, check that the benchmark's count of
training steps (``autodiff.grad`` calls inside ``train``) is the real one,
and run each workload at its tiny size through the benchmark's readers of
the written reports, whose bytes are pinned.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import condvar.cli  # noqa: F401  (loads every module that spans.py wraps)
from condvar import ModelSpec, PenaltyConfig, build_group_index, gen_example1, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINNED = Path(__file__).parent / "data" / "pinned_tiny_outputs.json"


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


def _perfbench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("spans", "workloads", name):
        monkeypatch.delitem(sys.modules, module, raising=False)
    return importlib.import_module(name)


# (q, m, shift method) of each workload's tiny run: example1 and example2
# put n - c samples in groups, linear_scm's 60 samples fill all 2 x 5 (Y, ID) groups
TINY_SHAPES = {"quickstart": (1, 300, "gradient_allocation"),
               "polar_mlp": (1, 100, "uniform_ball"),
               "shift_search": (2, 10, "uniform_ball")}


def _output_hashes(out: Path) -> dict:
    # sha256 of every file a run wrote, by path under ``out``; each
    # manifest.json records wall times and the environment, so it is left out
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


@pytest.mark.parametrize("name", sorted(TINY_SHAPES))
def test_benchmark_reads_the_reports_of_a_tiny_run(monkeypatch, tmp_path, name):
    # the benchmark's own readers on the files its pipeline writes, so a
    # report it cannot read fails here and not in a benchmark run; the
    # files themselves must match the pinned bytes
    run = _perfbench_module(monkeypatch, "run")
    w = run.workloads.WORKLOADS[name]
    for step, argv in w.build(0, str(tmp_path), w.tiny):
        assert condvar.cli.main(argv) == 0, step
    shape = run.measure_shape(tmp_path)
    assert (shape["q"], shape["m"], shape["shift_method"]) == TINY_SHAPES[name]
    quality = run.measure_quality(tmp_path)
    worst = list(quality["worst_case_by_xi"].values())
    assert len(worst) >= 2
    assert all(b >= a for a, b in zip(worst, worst[1:]))
    # the benchmark's own floor: the unshifted loss less a rounding margin
    assert min(worst) >= quality["unshifted_loss"] * (1.0 - 1e-12)
    with open(PINNED, encoding="utf-8") as fh:
        assert _output_hashes(tmp_path) == json.load(fh)[name]
