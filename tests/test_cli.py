import json

import numpy as np
import pytest

from condvar import build_group_index, conditional_penalty, load_csv
from condvar import models as md
from condvar.cli import main
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


def test_shift_eval_missing_latents(gen_dir, trained_dir, tmp_path):
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv",
               "--latents", gen_dir / "nope.json", "--out", tmp_path)
    assert code == 3


def _drop_core(path):
    payload = json.loads(path.read_text())
    del payload["core"]
    path.write_text(json.dumps(payload))


def _other_seed(path):
    assert run("gen", "example1", "--n", 400, "--c", 40, "--seed", 4,
               "--out", path.parent / "seed4") == 0
    path.write_bytes((path.parent / "seed4" / "train_latents.json").read_bytes())


@pytest.mark.parametrize("spoil", [_drop_core, lambda p: p.write_text("{not json"), _other_seed],
                         ids=["missing_core", "not_json", "other_seed"])
def test_shift_eval_malformed_sidecar_exits_data(gen_dir, trained_dir, tmp_path, capsys, spoil):
    side = tmp_path / "latents.json"
    side.write_bytes((gen_dir / "train_latents.json").read_bytes())
    spoil(side)
    code = run("shift_eval", "--checkpoint", trained_dir / "checkpoint.json",
               "--data", gen_dir / "train.csv", "--latents", side, "--out", tmp_path / "out")
    assert code == 3
    assert f"data error: {side}: " in capsys.readouterr().err


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
