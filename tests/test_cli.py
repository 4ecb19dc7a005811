import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import condvar
from condvar import Dataset, build_group_index, conditional_penalty, load_csv, save_csv
from condvar import models as md
from condvar import robustness as rb
from condvar import scm
from condvar.cli import build_parser, main
from condvar.penalties import segment_means
from condvar.training import group_aware_minibatches


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = run("gen", "example1", "--n", 400, "--c", 40, "--seed", 3, "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, gen_dir):
    out = tmp_path_factory.mktemp("train")
    code = run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
               "--lambda", 1.0, "--penalty", "f,1", "--gamma", 1e-4,
               "--lr", 0.05, "--epochs", 8, "--seed", 0, "--out", out)
    assert code == 0
    return out


def test_gen_writes_expected_files(gen_dir):
    names = {p.name for p in gen_dir.iterdir()}
    assert {"train.csv", "test.csv", "train_latents.json",
            "test_latents.json", "manifest.json"} <= names
    ds = load_csv(gen_dir / "train.csv")
    assert ds.p == 2 and len(ds) == 400
    assert build_group_index(ds).c == 40
    manifest = json.loads((gen_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["seed"] == 3


def test_gen_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "example2", "--n", 200, "--c", 10, "--seed", 7, "--out", a) == 0
    assert run("gen", "example2", "--n", 200, "--c", 10, "--seed", 7, "--out", b) == 0
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
    assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()


def test_gen_small_smoke(tmp_path):
    assert run("gen", "example2", "--n", 200, "--c", 10, "--out", tmp_path) == 0
    assert run("gen", "linear_scm", "--n", 150, "--c", 0, "--p", 6, "--q", 2,
               "--r", 3, "--out", tmp_path / "scm") == 0
    ds = load_csv(tmp_path / "scm" / "train.csv")
    assert ds.p == 6


def test_gen_rejects_unknown_generator(tmp_path):
    assert run("gen", "example3", "--n", 10, "--c", 0, "--out", tmp_path) == 2


def test_train_writes_checkpoint_and_report(gen_dir, trained_dir):
    spec, theta, seed, step = md.load_checkpoint(trained_dir / "checkpoint.json")
    assert spec.kind == "linear"
    assert theta.shape == (3,)
    report = json.loads((trained_dir / "report.json").read_text())
    assert len(report["history"]) == 8
    assert report["theta"] == [float(v) for v in theta]
    # the checkpoint records optimizer steps taken: 120-row batches, 8 epochs
    groups = build_group_index(load_csv(gen_dir / "train.csv"))
    assert step == sum(len(group_aware_minibatches(groups, 120, 0, epoch))
                       for epoch in range(8))


def test_train_eval_shift_eval_rerun_byte_identical(gen_dir, tmp_path):
    outputs = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun
        assert run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
                   "--lambda", 1.0, "--penalty", "l,0.5", "--gamma", 1e-4,
                   "--epochs", 3, "--seed", 5, "--out", out / "train") == 0
        ckpt = out / "train" / "checkpoint.json"
        assert run("eval", "--checkpoint", ckpt, "--data", gen_dir / "test.csv",
                   "--out", out / "eval") == 0
        assert run("shift_eval", "--checkpoint", ckpt, "--data", gen_dir / "train.csv",
                   "--latents", gen_dir / "train_latents.json", "--xi", 0.0, 0.5,
                   "--out", out / "shift") == 0
        outputs.append([(out / name).read_bytes() for name in (
            "train/checkpoint.json", "train/report.json", "eval/metrics.json",
            "shift/robustness.json")])
    assert outputs[0] == outputs[1]


_PIPELINE = """
import sys
from condvar.cli import build_parser, main
out = sys.argv[1]
for argv in (
    ["gen", "linear_scm", "--n", "120", "--c", "0", "--p", "6", "--q", "2", "--r", "3",
     "--id-count", "10", "--seed", "4", "--out", out],
    ["train", "--data", out + "/train.csv", "--model", "linear:6", "--lambda", "1",
     "--epochs", "3", "--out", out + "/train"],
    ["shift_eval", "--checkpoint", out + "/train/checkpoint.json", "--data",
     out + "/train.csv", "--latents", out + "/train_latents.json", "--method",
     "uniform_ball", "--xi", "0.1", "1", "--out", out + "/shift"],
):
    assert main(argv) == 0
"""


def test_pipeline_byte_identical_across_blas_thread_counts(tmp_path):
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(condvar.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", _PIPELINE, str(out)], env=env, check=True,
                       capture_output=True, timeout=120)
        digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest() for name in (
            "train.csv", "train/checkpoint.json", "shift/robustness.json")])
        note = json.loads((out / "shift" / "robustness.json").read_text())["note"]
        assert note == ("exact for equal per-group budgets (linear model, linear render); "
                        "a lower bound when budgets may differ between groups")
    assert digests[0] == digests[1]


def test_train_penalty_variants(gen_dir, tmp_path):
    for pen in ("f,0.5", "l,1", "l,0.5"):
        out = tmp_path / pen.replace(",", "_")
        code = run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
                   "--lambda", 0.5, "--penalty", pen, "--epochs", 2, "--out", out)
        assert code == 0


def test_train_config_errors(gen_dir, tmp_path):
    # malformed model
    assert run("train", "--data", gen_dir / "train.csv", "--model", "mlp:",
               "--out", tmp_path) == 2
    # bad penalty spec
    assert run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
               "--penalty", "x,3", "--out", tmp_path) == 2
    # model/data dimension mismatch
    assert run("train", "--data", gen_dir / "train.csv", "--model", "linear:5",
               "--out", tmp_path) == 3
    # batch smaller than largest group
    assert run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
               "--lambda", 1.0, "--batch-size", 1, "--out", tmp_path) == 2


@pytest.mark.parametrize("lr", ["inf", "nan"])
def test_train_rejects_non_finite_lr(gen_dir, tmp_path, capsys, lr):
    code = run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
               "--lr", lr, "--out", tmp_path)
    assert code == 2
    assert "config error: lr must be finite" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.json").exists()


def test_eval_metrics(gen_dir, trained_dir, tmp_path):
    out = tmp_path / "eval"
    code = run("eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv", "--out", out)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"error_rate", "mean_loss", "penalty_value", "variance_ratio"}
    # penalty value must equal a direct computation on the same data
    ds = load_csv(gen_dir / "train.csv")
    spec, theta, _s, _st = md.load_checkpoint(trained_dir / "checkpoint.json")
    logits = md.forward(spec, theta, ds.features)
    want = conditional_penalty(logits, build_group_index(ds), 1.0)
    assert metrics["penalty_value"] == pytest.approx(want, rel=1e-12)


def test_eval_checkpoint_mismatch(gen_dir, trained_dir, tmp_path):
    other = tmp_path / "scm"
    assert run("gen", "linear_scm", "--n", 50, "--c", 0, "--p", 6, "--q", 2,
               "--r", 3, "--out", other) == 0
    code = run("eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", other / "train.csv", "--out", tmp_path)
    assert code == 3


def test_shift_eval_report(gen_dir, trained_dir, tmp_path):
    out = tmp_path / "shift"
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv",
               "--latents", gen_dir / "train_latents.json",
               "--xi", 0.0, 0.1, 1.0, "--out", out)
    assert code == 0
    report = json.loads((out / "robustness.json").read_text())
    assert report["xi_grid"] == [0.0, 0.1, 1.0]
    # xi = 0 equals the unshifted loss; the grid is monotone
    assert report["worst_case"][0] == pytest.approx(report["unshifted_loss"], rel=1e-12)
    assert report["worst_case"] == sorted(report["worst_case"])
    assert report["divergence"]["verdict"] in ("bounded", "unbounded")
    assert "invariance_defect" in report


def _shift_eval_exit(gen_dir, trained_dir, out, *flags):
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv", "--latents", gen_dir / "train_latents.json",
               *flags, "--out", out)
    assert not (out / "robustness.json").exists()
    return code


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_shift_eval_rejects_non_finite_xi(gen_dir, trained_dir, tmp_path, capsys, value):
    assert _shift_eval_exit(gen_dir, trained_dir, tmp_path, "--xi", 0.0, value) == 2
    assert "config error: xi must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_shift_eval_rejects_non_finite_fo_xi(gen_dir, trained_dir, tmp_path, capsys, value):
    assert _shift_eval_exit(gen_dir, trained_dir, tmp_path, "--fo-xi", value) == 2
    assert "config error: xi must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_shift_eval_rejects_non_finite_magnitudes(gen_dir, trained_dir, tmp_path, capsys,
                                                  value):
    assert _shift_eval_exit(gen_dir, trained_dir, tmp_path,
                            "--magnitudes", 0.0, 1.0, value) == 2
    assert "config error: magnitudes must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--fo-xi", "nan"], ["--xi", 0.0, 1.0, "inf"],
                                   ["--magnitudes", 1.0, "nan"]],
                         ids=["fo_xi", "last_xi", "magnitude"])
def test_shift_eval_checks_its_flags_before_the_model_runs(gen_dir, trained_dir, tmp_path,
                                                           monkeypatch, flags):
    calls = []
    for module, name in ((md, "forward"), (rb, "_style_gradients")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    assert _shift_eval_exit(gen_dir, trained_dir, tmp_path, *flags) == 2
    assert calls == []


@pytest.mark.parametrize("method", ["gradient_allocation", "uniform_ball"])
def test_shift_eval_writes_the_library_report(gen_dir, trained_dir, tmp_path, method):
    ckpt = trained_dir / "checkpoint.json"
    xis, fo_xi, magnitudes = [0.0, 0.2, 1.5], 0.01, [0.0, 2.0, 20.0]
    assert run("shift_eval", "--checkpoint", ckpt, "--data", gen_dir / "train.csv",
               "--latents", gen_dir / "train_latents.json", "--method", method,
               "--xi", *xis, "--fo-xi", fo_xi, "--magnitudes", *magnitudes,
               "--out", tmp_path) == 0
    want = rb.report(*_shift_eval_inputs(gen_dir, ckpt), xis, method, fo_xi, magnitudes)
    written = json.loads((tmp_path / "robustness.json").read_text())
    assert written == json.loads(json.dumps(want.to_json()))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["quickstart", "polar_mlp", "shift_search"])
def test_shift_eval_scores_zero_shift_once_and_takes_one_gradient_pass(tmp_path, monkeypatch,
                                                                       name):
    # the benchmark's tiny pipelines: quickstart runs gradient_allocation,
    # polar_mlp uniform_ball's grid on an MLP and shift_search its exact pair
    # on a linear model. Every probe of one shift_eval shares one zero-shift
    # scoring (the worst case at xi = 0, the first-order terms, the
    # divergence probe's unshifted point and its magnitude 0) and one
    # style-gradient pass over the n samples (gradient_allocation at every
    # xi, the first-order left-hand side, the steepest direction).
    # exhaustive_tiny's zero share level reads the same zero-shift losses
    # (test_robustness.py).
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    w = workloads.WORKLOADS[name]
    gradient_rows, zero_shifts = [], []
    style_gradients, shifted_losses = rb._style_gradients, rb._shifted_losses

    def count_gradients(spec, theta, style_dataset, features, targets):
        gradient_rows.append(len(features))
        return style_gradients(spec, theta, style_dataset, features, targets)

    def count_scorings(fit, shifts):
        zero_shifts.append(sum(not np.any(shift) for shift in shifts))
        return shifted_losses(fit, shifts)

    # no other step of the pipeline reaches either function
    monkeypatch.setattr(rb, "_style_gradients", count_gradients)
    monkeypatch.setattr(rb, "_shifted_losses", count_scorings)
    for step, argv in w.build(0, str(tmp_path), w.tiny):
        assert main(argv) == 0, step
    assert zero_shifts, "shift_eval scored no shift"
    assert gradient_rows == [len(load_csv(tmp_path / "train.csv"))]
    assert sum(zero_shifts) == 1


def test_shift_eval_missing_latents(gen_dir, trained_dir, tmp_path):
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv",
               "--latents", gen_dir / "nope.json", "--out", tmp_path)
    assert code == 3


@pytest.mark.parametrize("method", ["gradient_allocation", "uniform_ball"])
def test_shift_eval_on_a_model_that_ignores_style(tmp_path, method):
    # w = 0, so the loss gradient along style is zero: the probe runs along e_1
    assert run("gen", "example1", "--n", 400, "--c", 50, "--seed", 1, "--out", tmp_path) == 0
    ckpt = tmp_path / "checkpoint.json"
    md.save_checkpoint(ckpt, md.ModelSpec("linear", (2, 1)), np.array([0.0, 0.0, 0.2]), 0, 0)
    out = tmp_path / "shift"
    assert run("shift_eval", "--checkpoint", ckpt, "--data", tmp_path / "train.csv",
               "--latents", tmp_path / "train_latents.json", "--method", method,
               "--out", out) == 0
    report = json.loads((out / "robustness.json").read_text())
    assert report["worst_case"] == [report["unshifted_loss"]] * len(report["xi_grid"])
    assert report["divergence"]["verdict"] == "bounded"
    assert report["divergence"]["direction"] == [1.0]
    assert report["invariance_defect"] == 0.0


def _shift_eval_inputs(data_dir, ckpt):
    """The model, style dataset, groups and covariance that shift_eval reads."""
    dataset = load_csv(data_dir / "train.csv")
    style_ds = scm.load_style_dataset(dataset, data_dir / "train_latents.json")
    spec, theta, _seed, _step = md.load_checkpoint(ckpt)
    groups = build_group_index(dataset)
    sigma = (np.asarray(style_ds.scm.style_cov) if style_ds.scm is not None
             else rb.estimate_conditional_covariance(style_ds, groups).pooled)
    return spec, theta, style_ds, groups, sigma


@pytest.mark.parametrize("method", ["uniform_ball", "gradient_allocation"])
def test_shift_eval_writes_the_note_worst_case_loss_returns(gen_dir, trained_dir, tmp_path,
                                                            method):
    ckpt = trained_dir / "checkpoint.json"
    assert run("shift_eval", "--checkpoint", ckpt, "--data", gen_dir / "train.csv",
               "--latents", gen_dir / "train_latents.json", "--method", method,
               "--xi", 0.0, "--out", tmp_path) == 0
    note = json.loads((tmp_path / "robustness.json").read_text())["note"]
    spec, theta, style_ds, groups, sigma = _shift_eval_inputs(gen_dir, ckpt)
    assert note == rb.worst_case_loss(spec, theta, style_ds, groups, sigma, 0.0,
                                      method=method).note
    assert (note == rb._EXACT_NOTE) == (method == "uniform_ball")


def test_shift_eval_exhaustive_tiny_matches_the_library(tmp_path):
    # three pairs and no singletons: three groups, the most exhaustive_tiny takes
    assert run("gen", "example1", "--n", 6, "--c", 3, "--seed", 1, "--out", tmp_path) == 0
    ckpt = tmp_path / "checkpoint.json"
    md.save_checkpoint(ckpt, md.ModelSpec("linear", (2, 1)), np.array([0.8, -1.1, 0.2]), 0, 0)
    out = tmp_path / "shift"
    assert run("shift_eval", "--checkpoint", ckpt, "--data", tmp_path / "train.csv",
               "--latents", tmp_path / "train_latents.json", "--method", "exhaustive_tiny",
               "--out", out) == 0
    report = json.loads((out / "robustness.json").read_text())
    spec, theta, style_ds, groups, sigma = _shift_eval_inputs(tmp_path, ckpt)
    assert groups.m == 3
    assert report["worst_case"] == [
        rb.worst_case_loss(spec, theta, style_ds, groups, sigma, xi,
                           method="exhaustive_tiny").value
        for xi in report["xi_grid"]]


def test_shift_eval_exhaustive_tiny_rejects_more_than_three_groups(tmp_path, capsys):
    # three pairs and four singletons: seven groups
    assert run("gen", "example1", "--n", 10, "--c", 3, "--seed", 1, "--out", tmp_path) == 0
    ckpt = tmp_path / "checkpoint.json"
    md.save_checkpoint(ckpt, md.ModelSpec("linear", (2, 1)), np.array([0.8, -1.1, 0.2]), 0, 0)
    assert build_group_index(load_csv(tmp_path / "train.csv")).m == 7
    out = tmp_path / "shift"
    capsys.readouterr()
    assert run("shift_eval", "--checkpoint", ckpt, "--data", tmp_path / "train.csv",
               "--latents", tmp_path / "train_latents.json", "--method", "exhaustive_tiny",
               "--out", out) == 2
    assert "exhaustive_tiny supports at most 3 groups" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["linear", "polar_mlp", "three_logit"])
def test_shift_eval_unshifted_loss_is_the_zero_shift_loss(tmp_path, case):
    # the report's unshifted_loss is the divergence probe's unshifted point,
    # bit for bit the library's zero-shift loss and the worst case at xi = 0
    gen, model = {
        "linear": (["example1", "--n", 200, "--c", 40], md.ModelSpec("linear", (2, 1))),
        "polar_mlp": (["example2", "--n", 200, "--c", 40], md.ModelSpec("mlp", (2, 5, 1))),
        "three_logit": (["linear_scm", "--n", 120, "--c", 0, "--p", 6, "--q", 2, "--r", 3,
                         "--id-count", 10], md.ModelSpec("linear", (6, 3))),
    }[case]
    assert run("gen", *gen, "--seed", 2, "--out", tmp_path) == 0
    ckpt = tmp_path / "checkpoint.json"
    theta = np.random.default_rng(3).standard_normal(md.param_count(model))
    md.save_checkpoint(ckpt, model, theta, 0, 0)
    out = tmp_path / "shift"
    assert run("shift_eval", "--checkpoint", ckpt, "--data", tmp_path / "train.csv",
               "--latents", tmp_path / "train_latents.json", "--out", out) == 0
    report = json.loads((out / "robustness.json").read_text())
    spec, theta, style_ds, _groups, _sigma = _shift_eval_inputs(tmp_path, ckpt)
    assert report["unshifted_loss"] == rb.loss_under_shift(spec, theta, style_ds,
                                                           np.zeros(style_ds.q))
    assert report["xi_grid"][0] == 0.0
    assert report["worst_case"][0] == report["unshifted_loss"]


def test_shift_eval_on_pair_free_data_exits_data(tmp_path, capsys):
    assert run("gen", "example1", "--n", 200, "--c", 0, "--seed", 2, "--out", tmp_path) == 0
    assert run("train", "--data", tmp_path / "train.csv", "--model", "linear:2",
               "--epochs", 2, "--out", tmp_path / "core") == 0
    out = tmp_path / "shift"
    code = run("shift_eval", "--checkpoint", tmp_path / "core" / "checkpoint.json",
               "--data", tmp_path / "train.csv", "--latents", tmp_path / "train_latents.json",
               "--out", out)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {tmp_path / 'train.csv'}: ")
    assert "no (label, id) group has two members" in err
    assert not (out / "robustness.json").exists()


def _styles_spread_by(gen_dir, out, spread):
    # the quick start's training files with every group's styles moved
    # towards their mean, to ``spread`` times their deviation from it, and
    # the features rendered again from them
    ds = load_csv(gen_dir / "train.csv")
    style_ds = scm.load_style_dataset(ds, gen_dir / "train_latents.json")
    groups = build_group_index(ds)
    means = segment_means(style_ds.style, groups.seg, groups.m)[groups.seg]
    style = means + spread * (style_ds.style - means)
    data = Dataset(style_ds.render(style), ds.labels, ds.ids)
    out.mkdir()
    save_csv(data, out / "train.csv")
    scm.save_latents(replace(style_ds, dataset=data, style=style), out / "train_latents.json")
    return scm.load_style_dataset(data, out / "train_latents.json"), groups


@pytest.mark.parametrize("spread", [0.0, 1e-7])
def test_shift_eval_rejects_a_singular_style_covariance(gen_dir, trained_dir, tmp_path,
                                                        capsys, spread):
    # identical styles within every group estimate a zero covariance; a
    # spread of 1e-7 one whose eigenvalue is above 0 but below the
    # estimate's positive-definiteness floor
    style_ds, groups = _styles_spread_by(gen_dir, tmp_path / "data", spread)
    est = rb.estimate_conditional_covariance(style_ds, groups)
    assert not est.spd
    assert (np.linalg.eigvalsh(est.pooled).min() > 0.0) == (spread > 0.0)
    latents, out = tmp_path / "data" / "train_latents.json", tmp_path / "shift"
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", tmp_path / "data" / "train.csv", "--latents", latents, "--out", out)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {latents}: ")
    assert "not positive definite" in err
    assert not out.exists()


@pytest.mark.parametrize("generator,n,c,message", [
    ("linear_scm", 50, 500, "linear_scm groups samples by (Y, ID) collisions"),
    ("example1", 10, 6, "need 0 <= c <= n / 2"),
])
def test_gen_rejects_pair_count_and_writes_nothing(tmp_path, capsys, generator, n, c,
                                                   message):
    out = tmp_path / "gen"
    assert run("gen", generator, "--n", n, "--c", c, "--out", out) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generator,flag,value", [
    ("example1", "--test-shift", "nan"), ("example2", "--test-shift", "inf"),
    ("linear_scm", "--test-shift", "nan"), ("linear_scm", "--test-shift", "-inf"),
    ("linear_scm", "--style-mean", "nan"), ("linear_scm", "--style-mean", "inf"),
    ("linear_scm", "--style-sd", "nan"), ("linear_scm", "--style-sd", "inf"),
    ("linear_scm", "--style-sd", "-1"), ("linear_scm", "--style-sd", "0"),
])
def test_gen_rejects_an_out_of_range_flag_and_writes_nothing(tmp_path, capsys, generator,
                                                             flag, value):
    out = tmp_path / "gen"
    c = 0 if generator == "linear_scm" else 10
    assert run("gen", generator, "--n", 50, "--c", c, f"{flag}={value}", "--out", out) == 2
    assert f"config error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_an_empty_id_pool_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run("gen", "linear_scm", "--n", 50, "--c", 0, "--p", 6, "--r", 3,
               "--id-count", 0, "--out", out) == 2
    assert "config error: id_count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def three_class_csv(gen_dir, tmp_path_factory):
    # the quick start's training data with one label moved to class 2; its
    # features, and so the latent sidecar, are unchanged
    ds = load_csv(gen_dir / "train.csv")
    labels = ds.labels.copy()
    labels[5] = 2
    path = tmp_path_factory.mktemp("three") / "train.csv"
    save_csv(Dataset(ds.features, labels, ds.ids), path)
    return path


@pytest.mark.parametrize("model", ["mlp:2,4,2", "linear:2"])
def test_train_rejects_labels_the_model_cannot_take(three_class_csv, tmp_path, capsys,
                                                    model):
    out = tmp_path / "train"
    assert run("train", "--data", three_class_csv, "--model", model, "--out", out) == 3
    assert f"data error: {three_class_csv}: label 2 does not fit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("outputs", [1, 2])
def test_checkpoint_commands_reject_labels_the_model_cannot_take(gen_dir, three_class_csv,
                                                                 tmp_path, capsys, outputs):
    spec = md.ModelSpec("linear", (2, outputs))
    ckpt = tmp_path / "checkpoint.json"
    md.save_checkpoint(ckpt, spec, md.init_params(spec, 0), 0, 0)
    for command, flags in (
        ("eval", ["--checkpoint", ckpt]),
        ("shift_eval", ["--checkpoint", ckpt, "--latents", gen_dir / "train_latents.json"]),
        ("plot", ["--checkpoints", ckpt]),
    ):
        out = tmp_path / command
        assert run(command, "--data", three_class_csv, *flags, "--out", out) == 3, command
        err = capsys.readouterr().err
        assert f"data error: {three_class_csv}: label 2 does not fit" in err, command
        assert not out.exists(), command


def _edit_sidecar(edit):
    def spoil(path):
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(edit(payload)))
    return spoil


def _drop(field):
    return _edit_sidecar(lambda payload: {k: v for k, v in payload.items() if k != field})


def _set(field, value):
    return _edit_sidecar(lambda payload: {**payload, field: value(payload[field])})


def _row(k, value):
    # replaces style row k; a NaN goes out as json.dumps's NaN token
    return _set("style", lambda rows: rows[:k] + [value] + rows[k + 1:])


def _other_seed(path):
    assert run("gen", "example1", "--n", 400, "--c", 40, "--seed", 4,
               "--out", path.parent / "seed4") == 0
    path.write_bytes((path.parent / "seed4" / "train_latents.json").read_bytes())


@pytest.mark.parametrize("spoil", [
    _drop("core"), lambda p: p.write_text("{not json"), _other_seed,
    _row(7, [0.1, 0.2]), _row(7, ["abc"]), _edit_sidecar(lambda payload: [payload]),
    _drop("style"), _set("style", lambda rows: rows[:-1]), _set("render_kind", lambda _: "cubic"),
    _row(7, [float("nan")]),
], ids=["missing_core", "not_json", "other_seed", "ragged_row", "non_numeric", "top_level_list",
        "missing_style", "short_style", "unknown_render_kind", "nan_latent"])
def test_shift_eval_malformed_sidecar_exits_data(gen_dir, trained_dir, tmp_path, capsys, spoil):
    side = tmp_path / "latents.json"
    side.write_bytes((gen_dir / "train_latents.json").read_bytes())
    spoil(side)
    out = tmp_path / "out"
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv", "--latents", side, "--out", out)
    assert code == 3
    assert f"data error: {side}: " in capsys.readouterr().err
    assert not out.exists()
    assert gc.isenabled()


def _drop_flat_params(path):
    payload = json.loads(path.read_text())
    del payload["flat_params"]
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("spoil", [_drop_flat_params, lambda p: p.write_text("{not json")],
                         ids=["missing_flat_params", "not_json"])
def test_malformed_checkpoint_exits_data(gen_dir, trained_dir, tmp_path, capsys, spoil):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_bytes((trained_dir / "checkpoint.json").read_bytes())
    spoil(ckpt)
    code = run("eval", "--checkpoint", ckpt, "--data", gen_dir / "test.csv",
               "--out", tmp_path / "out")
    assert code == 3
    assert f"data error: {ckpt}: " in capsys.readouterr().err


@pytest.mark.parametrize("spoil", ["nan", "inf", "negative_step"])
@pytest.mark.parametrize("command", ["eval", "shift_eval", "plot"])
def test_non_finite_or_negative_step_checkpoint_exits_data(gen_dir, trained_dir, tmp_path,
                                                           capsys, command, spoil):
    ckpt = tmp_path / "checkpoint.json"
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    if spoil == "negative_step":
        payload["step"] = -1
    else:
        payload["flat_params"][0] = float(spoil)
    ckpt.write_text(json.dumps(payload))
    flags = {
        "eval": ["--checkpoint", ckpt, "--data", gen_dir / "test.csv"],
        "shift_eval": ["--checkpoint", ckpt, "--data", gen_dir / "train.csv",
                       "--latents", gen_dir / "train_latents.json"],
        "plot": ["--checkpoints", ckpt, "--data", gen_dir / "train.csv"],
    }[command]
    out = tmp_path / "out"
    assert run(command, *flags, "--out", out) == 3
    assert f"data error: {ckpt}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "shift_eval", "plot"])
def test_overflowing_checkpoint_fails_numerical_and_writes_nothing(gen_dir, trained_dir, tmp_path,
                                                                   capsys, command):
    # a finite parameter whose logits overflow: eval's metrics and every
    # probed loss come out inf or NaN, which no file may hold; the plot's
    # pixels stay finite, so it is drawn
    ckpt = tmp_path / "checkpoint.json"
    payload = json.loads((trained_dir / "checkpoint.json").read_text())
    payload["flat_params"][0] = 1e308
    ckpt.write_text(json.dumps(payload))
    flags = {
        "eval": ["--checkpoint", ckpt, "--data", gen_dir / "test.csv"],
        "shift_eval": ["--checkpoint", ckpt, "--data", gen_dir / "train.csv",
                       "--latents", gen_dir / "train_latents.json"],
        "plot": ["--checkpoints", ckpt, "--data", gen_dir / "train.csv"],
    }[command]
    out = tmp_path / "out"
    code = run(command, *flags, "--out", out)
    err = capsys.readouterr().err
    if command == "plot":
        assert code == 0
        svg = (out / "plot.svg").read_text()
        coords = [float(v) for v in re.findall(r' (?:x1|y1|x2|y2|cx|cy)="([^"]*)"', svg)]
        assert len(coords) > 100 and np.all(np.isfinite(coords))
        return
    assert code == 4
    assert err.startswith({"eval": "numerical failure: metrics.json: non-finite result",
                           "shift_eval": "numerical failure: mean loss inf at style-shift"}[command])
    assert not out.exists()


def test_plot_rejects_a_checkpoint_with_more_than_two_outputs(gen_dir, tmp_path, capsys):
    ckpt = tmp_path / "three.json"
    spec = md.ModelSpec("linear", (2, 3))
    md.save_checkpoint(ckpt, spec, md.init_params(spec, 0), 0, 0)
    out = tmp_path / "plot"
    assert run("plot", "--data", gen_dir / "train.csv", "--checkpoints", ckpt,
               "--out", out) == 3
    assert capsys.readouterr().err.startswith(f"data error: {ckpt}: plots need 1 or 2 outputs")
    assert not out.exists()


def test_plot_svg(gen_dir, trained_dir, tmp_path):
    out = tmp_path / "plot"
    code = run("plot", "--data", gen_dir / "train.csv",
               "--checkpoints", trained_dir / "checkpoint.json",
               "--labels", "lambda=1", "--out", out)
    assert code == 0
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "lambda=1" in svg
    assert svg.count("<circle") > 100
    assert svg.count("<line") > 10  # boundary segments plus pair links
    # determinism: second render is byte-identical
    out2 = tmp_path / "plot2"
    run("plot", "--data", gen_dir / "train.csv",
        "--checkpoints", trained_dir / "checkpoint.json",
        "--labels", "lambda=1", "--out", out2)
    assert (out / "plot.svg").read_bytes() == (out2 / "plot.svg").read_bytes()


def test_plot_scatter_only(gen_dir, tmp_path):
    assert run("plot", "--data", gen_dir / "train.csv", "--out", tmp_path) == 0
    assert (tmp_path / "plot.svg").exists()


def test_plot_dimension_error(tmp_path):
    other = tmp_path / "scm"
    assert run("gen", "linear_scm", "--n", 30, "--c", 0, "--p", 6, "--q", 2,
               "--r", 3, "--out", other) == 0
    assert run("plot", "--data", other / "train.csv", "--out", tmp_path) == 3


def test_plot_checkpoint_width_mismatch_exits_data(gen_dir, tmp_path):
    # a linear:3 checkpoint on 2-d data fails as eval fails on it, before any output
    ckpt = tmp_path / "wide.json"
    spec = md.ModelSpec("linear", (3, 1))
    md.save_checkpoint(ckpt, spec, md.init_params(spec, 0), 0, 0)
    out = tmp_path / "plot"
    assert run("eval", "--checkpoint", ckpt, "--data", gen_dir / "train.csv",
               "--out", tmp_path / "eval") == 3
    assert run("plot", "--data", gen_dir / "train.csv", "--checkpoints", ckpt,
               "--out", out) == 3
    assert not (out / "plot.svg").exists()


@pytest.mark.parametrize("name", ["manifest.json", "sub/x.svg", "..", ""])
def test_plot_rejects_a_name_that_is_not_a_plain_file_name(gen_dir, trained_dir, tmp_path,
                                                           capsys, name):
    # manifest.json would be overwritten by the manifest; sub/x.svg would leave an empty --out
    out = tmp_path / "plot"
    assert run("plot", "--data", gen_dir / "train.csv",
               "--checkpoints", trained_dir / "checkpoint.json", "--name", name,
               "--out", out) == 2
    assert capsys.readouterr().err.startswith("config error: --name must be a plain file name")
    assert not out.exists()


@pytest.mark.parametrize("row", ["a,1,abc", "a,1", "a,1,2.0,3.0", "a,1.0,2.0", "a,-1,2.0",
                                 "a,1,nan", "a,1,1e400", "a,1_0,2.0"])
def test_train_rejects_bad_csv_row_with_data_exit(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,y,x0\n\n\nb,0,0.5\n{row}\n")
    assert run("train", "--data", path, "--model", "linear:1", "--out", tmp_path) == 3


def test_linear_algebra_failure_exits_numerical(gen_dir, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr("condvar.cli.train", singular)
    assert run("train", "--data", gen_dir / "train.csv", "--model", "linear:2",
               "--out", tmp_path) == 4


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("command", ["train", "eval", "shift_eval", "plot"])
def test_unreadable_data_exits_data_and_creates_no_out(gen_dir, trained_dir, tmp_path, capsys,
                                                       command, bad):
    data = tmp_path / "none.csv" if bad == "missing" else tmp_path
    ckpt = trained_dir / "checkpoint.json"
    flags = {
        "train": ["--model", "linear:2"],
        "eval": ["--checkpoint", ckpt],
        "shift_eval": ["--checkpoint", ckpt, "--latents", gen_dir / "train_latents.json"],
        "plot": ["--checkpoints", ckpt],
    }[command]
    out = tmp_path / "out"
    assert run(command, "--data", data, *flags, "--out", out) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not out.exists()


def test_manifest_lists_every_output_and_records_every_flag(tmp_path):
    data, ckpt = tmp_path / "gen", tmp_path / "train" / "checkpoint.json"
    resolved = {"gen": {"test_shift": 4.0},
                "train": {"penalty": {"target": "prediction", "nu": 1.0, "lam": 0.5,
                                      "gamma": 1e-3},
                          "batch_size": 120},
                "plot": {"labels": ["checkpoint"]}}
    for argv in (
        ["gen", "example1", "--n", 200, "--c", 20, "--seed", 2, "--p", 7, "--out", data],
        ["train", "--data", data / "train.csv", "--model", "linear:2", "--lambda", 0.5,
         "--gamma", 1e-3, "--lr", 0.02, "--epochs", 2, "--out", tmp_path / "train"],
        ["eval", "--checkpoint", ckpt, "--data", data / "test.csv", "--out", tmp_path / "eval"],
        ["shift_eval", "--checkpoint", ckpt, "--data", data / "train.csv",
         "--latents", data / "train_latents.json", "--xi", 0.5, "--fo-xi", 0.01,
         "--magnitudes", 0, 5, "--out", tmp_path / "shift"],
        ["plot", "--data", data / "train.csv", "--checkpoints", ckpt, "--name", "b.svg",
         "--out", tmp_path / "plot"],
    ):
        argv = [str(a) for a in argv]
        assert main(argv) == 0
        out = Path(argv[-1])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir()
                                             if p.name != "manifest.json")
        flags = vars(build_parser().parse_args(argv))
        for key in ("func", "command", "out"):
            del flags[key]
        config = manifest["config"]
        # a flag keeps its parsed value unless the subcommand resolved it
        overlaid = {"train": {"penalty", "optimizer"}}.get(argv[0], set())
        assert {k: config[k] for k in flags if k not in overlaid} == {
            k: resolved.get(argv[0], {}).get(k, v) for k, v in flags.items()
            if k not in overlaid}
        assert resolved.get(argv[0], {}).items() <= config.items()


def test_gen_manifests_differ_when_only_the_feature_count_does(tmp_path):
    for p in (6, 8):
        assert run("gen", "linear_scm", "--n", 60, "--c", 0, "--p", p, "--q", 2, "--r", 3,
                   "--out", tmp_path / str(p)) == 0
    six, eight = ((tmp_path / p / "manifest.json").read_bytes() for p in ("6", "8"))
    assert six != eight
    assert json.loads(eight)["config"] == {**json.loads(six)["config"], "p": 8}
