import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condvar
from condvar import Dataset, build_group_index, conditional_penalty, load_csv, save_csv
from condvar import models as md
from condvar.cli import build_parser, main
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
        assert note == "worst-case values are exact suprema (linear model, linear render)"
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
