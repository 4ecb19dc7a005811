"""The benchmark's workloads: three fixed-size runs of the condvar CLI.

Each workload is one `gen -> train -> eval -> shift_eval [-> plot]`
sequence. The workload seed only feeds `gen --seed`; every later step sees
nothing but the files `gen` wrote. Sizes live in ``sizes`` so the
benchmark's own tests can run the same sequence at a tiny size.

Why each workload exists, and which layers it should and should not move,
is written next to it. "Moves" names the end-to-end metric a faster layer
should lower on that workload; "flat" names layers whose speed should not
show there, so a change aimed at them predicts no change on that workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    moves: dict             # layer -> end-to-end metric it should move here
    flat: tuple             # layers that should not move this workload
    sizes: dict             # full benchmark size
    tiny: dict              # size used by the benchmark's own tests
    build: object           # (seed, out_dir, sizes) -> [(subcommand, argv)]
    max_shifted_error: float | None = None
    plots: tuple = field(default=())


def _tail(out: str, shift_flags: list, plot: bool, xi: list) -> list:
    ckpt = f"{out}/core/checkpoint.json"
    steps = [
        ("eval", ["eval", "--checkpoint", ckpt, "--data", f"{out}/test.csv",
                  "--out", f"{out}/core-eval"]),
        ("shift_eval", ["shift_eval", "--checkpoint", ckpt, "--data", f"{out}/train.csv",
                        "--latents", f"{out}/train_latents.json", *shift_flags,
                        *(["--xi", *xi] if xi else []), "--out", f"{out}/core-shift"]),
    ]
    if plot:
        steps.append(("plot", ["plot", "--data", f"{out}/train.csv", "--checkpoints", ckpt,
                               "--labels", "lambda=1", "--out", out]))
    return steps


def _quickstart(seed: int, out: str, s: dict) -> list:
    return [
        ("gen", ["gen", "example1", "--n", str(s["n"]), "--c", str(s["c"]),
                 "--seed", str(seed), "--out", out]),
        ("train", ["train", "--data", f"{out}/train.csv", "--model", "linear:2",
                   "--lambda", "1", "--penalty", "f,1", "--gamma", "1e-4", "--lr", "0.05",
                   "--epochs", str(s["epochs"]), "--out", f"{out}/core"]),
        *_tail(out, [], True, s.get("xi")),
    ]


def _polar_mlp(seed: int, out: str, s: dict) -> list:
    return [
        ("gen", ["gen", "example2", "--n", str(s["n"]), "--c", str(s["c"]),
                 "--seed", str(seed), "--out", out]),
        ("train", ["train", "--data", f"{out}/train.csv", "--model", "mlp:2,16,16,1",
                   "--lambda", "1", "--penalty", "l,0.5", "--gamma", "1e-4", "--lr", "0.01",
                   "--epochs", str(s["epochs"]), "--out", f"{out}/core"]),
        *_tail(out, ["--method", "uniform_ball"], True, s.get("xi")),
    ]


def _shift_search(seed: int, out: str, s: dict) -> list:
    # linear_scm ignores --c (the parser requires it): its groups come from
    # (Y, ID) collisions among --id-count ids, so the shape is measured from
    # the generated files, not read from these flags.
    return [
        ("gen", ["gen", "linear_scm", "--n", str(s["n"]), "--c", "0", "--p", "10",
                 "--q", "2", "--r", "4", "--id-count", str(s["id_count"]),
                 "--test-shift", "2", "--seed", str(seed), "--out", out]),
        ("train", ["train", "--data", f"{out}/train.csv", "--model", "linear:10",
                   "--lambda", "1", "--penalty", "f,1", "--epochs", str(s["epochs"]),
                   "--out", f"{out}/core"]),
        *_tail(out, ["--method", "uniform_ball"], False, s.get("xi")),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="quickstart",
        # The README trains 40 epochs; 20 keep a run of two repetitions near
        # 35 s. An epoch does the same work either way, so every per-layer
        # cost keeps its shape and only the training share halves.
        why=("The README CLI quick start and the north-star workload: 19 500 mostly "
             "singleton groups and a 20k-row CSV read four times load the per-group "
             "loops, the data layer and autodiff; it bypasses the direction grid."),
        moves={
            "data": "gen_s, eval_s, plot_s (20 000 rows, read 4 times)",
            "scm": "gen_s, shift_eval_s (12 re-renders of 20k samples)",
            "autodiff": "train_s (3 340 steps, linear graph)",
            "penalties": "train_s (epoch diagnostics over 19 500 groups), eval_s",
            "training": "train_s (batch packing, _local_groups, optimizer step)",
            "robustness": "shift_eval_s (gradient_allocation)",
            "plotting": "plot_s (contour tracing)",
        },
        flat=("uniform_ball direction grid",),
        sizes={"n": 20000, "c": 500, "epochs": 20},
        tiny={"n": 400, "c": 100, "epochs": 2},
        build=_quickstart,
        max_shifted_error=0.05,
        plots=("plot.svg",),
    ),
    Workload(
        name="polar_mlp",
        why=("The polar example: the only MLP graph, a loss-target nu=1/2 penalty in "
             "every batch (all samples paired), a non-linear render and "
             "finite-difference shift gradients; many groups x few directions."),
        moves={
            "autodiff": "train_s (MLP graph)",
            "models": "shift_eval_s (forward per group and direction)",
            "training": "train_s",
            "robustness": "shift_eval_s (uniform_ball: 2 000 groups x 2 directions, "
                          "per-group finite differences in first_order_gap)",
            "plotting": "plot_s",
        },
        flat=("data (4 000 rows)",),
        sizes={"n": 4000, "c": 2000, "epochs": 30},
        tiny={"n": 200, "c": 100, "epochs": 2},
        build=_polar_mlp,
        plots=("plot.svg",),
    ),
    Workload(
        name="shift_search",
        why=("Few groups x many directions: 50 groups x 720 grid directions x 3 budgets, "
             "about 108k forward calls. A batched direction grid shows here and "
             "not on quickstart."),
        moves={
            "models": "shift_eval_s (about 108k forward calls)",
            "robustness": "shift_eval_s (uniform_ball, 720 directions per group)",
        },
        flat=("data", "training", "penalties", "plotting (no plot step: p = 10)"),
        sizes={"n": 400, "id_count": 25, "epochs": 20},
        tiny={"n": 60, "id_count": 5, "epochs": 2, "xi": ["0", "1"]},
        build=_shift_search,
    ),
)}
