"""Benchmark of the condvar CLI pipeline.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 20 --trace 0

Runs one workload's `condvar` subcommand sequence in this process, from the
package sources in ``src/`` of the checkout that holds this file, and
writes the outputs under ``.bench_runs/``. The sequence is repeated until
``--seconds`` have passed, and at least twice, so the two repetitions can
be compared byte for byte.

With ``--trace 0`` the last line holds the end-to-end metrics (medians over
repetitions). With ``--trace 1`` untraced and traced repetitions alternate;
the last line holds the per-layer metrics from the traced ones (spans
recorded by ``spans.instrument``) and the tracing overhead. The lines
before it hold the environment and a report: the workload's shape measured
from its generated files, its quality values and every correctness check.
The exit code is 0 whenever a result line is printed, 2 when the checkout
holds no condvar sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
MAX_REPS = 50
SETUP_PROBES = 5
CALIBRATION_LOOPS = 2_000_000
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# Every workload reports every metric, so steps that are negligible on one
# of them (gen, train and eval on shift_search, which has no plot) are not
# metrics: their spread would exceed any bound. Times are in units of the
# calibration loop (see calibrate); the report line has the raw seconds.
END_TO_END = {
    "setup_s": "s", "pipeline_cal": "cal", "shift_eval_cal": "cal", "peak_rss_mb": "MB",
    "worst_case_gain": "ratio",
}
PER_LAYER = {
    "data.load_csv.s": "s", "data.load_csv.calls": "count", "data.save_csv.s": "s",
    "data.build_group_index.s": "s", "data.build_group_index.calls": "count",
    "data.Dataset.features.calls": "count", "data.Dataset.features.s": "s",
    "scm.gen.s": "s", "scm.save_latents.s": "s", "scm.load_style_dataset.s": "s",
    "scm.rerender.calls": "count", "scm.rerender.s": "s",
    "models.forward.calls": "count", "models.forward.s": "s",
    "autodiff.grad.calls": "count", "autodiff.grad.s": "s", "autodiff.grad.us_per_call": "us",
    "penalties.conditional_penalty.calls": "count", "penalties.conditional_penalty.s": "s",
    "penalties.variance_ratio.s": "s",
    "training.train.s": "s", "training.train.self_s": "s", "training.steps": "count",
    "training.epochs": "count", "training.checkpoint_step": "count",
    "robustness.worst_case_loss.uniform_ball.s": "s",
    "robustness.worst_case_loss.uniform_ball.calls": "count",
    "robustness.worst_case_loss.gradient_allocation.s": "s",
    "robustness.worst_case_loss.gradient_allocation.calls": "count",
    "robustness.model_evals": "count", "robustness.model_evals_per_group": "count",
    "robustness.estimate_conditional_covariance.s": "s", "robustness.first_order_gap.s": "s",
    "robustness.divergence_probe.s": "s", "robustness.steepest_style_direction.s": "s",
    "plotting.decision_boundary_svg.s": "s", "plotting.zero_contour_segments.s": "s",
    "plotting.segments": "count",
    "trace.overhead_pct": "%",
}

# Interpreter start to condvar imported and the workload resolved. The
# child prints the monotonic clock, which the parent shares.
SETUP_PROBE = """
import sys, time
root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import condvar.cli, workloads
w = workloads.WORKLOADS[name]
w.build(seed, root + "/.bench_runs/" + name, w.sizes)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


class NoSources(RuntimeError):
    pass


def import_condvar():
    """The condvar CLI from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "condvar" / "__init__.py").is_file():
        raise NoSources(f"no condvar sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import condvar.cli

    if not Path(condvar.cli.__file__).resolve().is_relative_to(src):
        raise NoSources(f"condvar was imported from {condvar.cli.__file__}, not {src}")
    return condvar.cli


def measure_setup(name: str, seed: int) -> float:
    times = []
    for k in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(ROOT), name, str(seed)],
                             capture_output=True, text=True, check=True, timeout=120)
        if k:  # the first probe warms the bytecode and file caches
            times.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(times)


def _hashes(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _call(cli, argv: list) -> tuple:
    """(exit code, seconds, captured output) of one in-process subcommand."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, buf.getvalue()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the unit of the ``*_cal``
    metrics. A shared machine's speed drifts by tens of percent over
    minutes and this loop slows with it, so a ratio to it spreads less from
    run to run than seconds do. It runs no condvar code, so a change to the
    package cannot move it."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_rep(cli, steps: list, out: Path, tracer=None) -> dict:
    """One pass through the subcommand sequence into a fresh ``out``; a
    failed step ends it and the steps after it count as failed too. The
    calibration loop is timed before the first step and after each one."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    rep = {"traced": tracer is not None, "step_s": {}, "errors": [],
           "cal_s": [calibrate()]}
    with spans.instrument(tracer) if tracer else contextlib.nullcontext():
        for step, argv in steps:
            code, rep["step_s"][step], text = _call(cli, argv)
            rep["cal_s"].append(calibrate())
            if code != 0:
                rep["errors"].append(f"{step}: exit {code}: {text[-400:]}")
                break
    rep["attempted"] = len(steps)
    rep["failed"] = len(steps) - len(rep["step_s"]) + len(rep["errors"])
    rep["pipeline_s"] = sum(rep["step_s"].values())
    rep["hashes"] = _hashes(out)
    rep["tracer"] = tracer
    return rep


def _read_json(path: Path):
    return json.loads(path.read_text())


def measure_shape(out: Path) -> dict:
    """The workload's shape, from its generated files rather than its flags."""
    from condvar.data import build_group_index, load_csv
    from condvar.training import group_aware_minibatches

    data = load_csv(out / "train.csv")
    groups = build_group_index(data)
    batch = _read_json(out / "core" / "manifest.json")["config"]["batch_size"]
    q = len(_read_json(out / "train_latents.json")["style"][0])
    method = _read_json(out / "core-shift" / "robustness.json")["method"]
    # the grid sizes robustness.worst_case_loss searches per group
    directions = 1 if method == "gradient_allocation" else {1: 2, 2: 720, 3: 2000}.get(q)
    return {
        "n": groups.n, "m": groups.m, "c": groups.c, "largest_group": groups.max_size(),
        "p": data.p, "q": q, "batch_size": batch,
        "batches_per_epoch": len(group_aware_minibatches(groups, batch, 0, 0)),
        "shift_method": method, "directions_per_group": directions,
    }


def measure_quality(out: Path) -> dict:
    ev = _read_json(out / "core-eval" / "metrics.json")
    rob = _read_json(out / "core-shift" / "robustness.json")
    ckpt = _read_json(out / "core" / "checkpoint.json")
    return {
        "shifted_test_error": ev["error_rate"],
        "shifted_test_loss": ev["mean_loss"],
        "unshifted_loss": rob["unshifted_loss"],
        "worst_case_by_xi": dict(zip(map(str, rob["xi_grid"]), rob["worst_case"])),
        "worst_case_loss": rob["worst_case"][-1],
        "worst_case_gain": rob["worst_case"][-1] / rob["unshifted_loss"],
        "checkpoint_step": ckpt["step"],
    }


def run_checks(w: workloads.Workload, seed: int, reps: list, out: Path,
               quality: dict | None, sizes: dict) -> list:
    """[(name, passed, detail)] for one workload run."""
    checks = [("every subcommand exits 0", not any(r["failed"] for r in reps),
               "; ".join(e for r in reps for e in r["errors"])[:2000])]
    if quality is None:
        return checks
    same = all(r["hashes"] == reps[0]["hashes"] for r in reps)
    checks.append(("repetitions write byte-identical outputs", same,
                   f"{len(reps)} repetitions, {len(reps[0]['hashes'])} files"))
    worst = list(quality["worst_case_by_xi"].values())
    floor = quality["unshifted_loss"] * (1.0 - 1e-12)
    checks.append(("worst-case loss is non-decreasing in xi and >= the unshifted loss",
                   all(b >= a for a, b in zip(worst, worst[1:])) and min(worst) >= floor,
                   f"unshifted {quality['unshifted_loss']!r}, worst case {worst!r}"))
    full = sizes == w.sizes
    if w.max_shifted_error is not None and full:
        checks.append((f"shifted test error <= {w.max_shifted_error}",
                       quality["shifted_test_error"] <= w.max_shifted_error,
                       repr(quality["shifted_test_error"])))
    for name in w.plots:
        segments = (out / name).read_text().count('stroke-width="1.4"')
        checks.append((f"{name} has >= 1 decision-boundary segment", segments >= 1,
                       f"{segments} segments"))
    ref = REFERENCE.get(w.name, {}).get(str(seed)) if full else None
    if ref is not None:
        # One-sided: the error may not rise, and the worst case (a lower
        # bound on the supremum) may not fall, by more than a rounding-level
        # change in training could move them.
        checks.append(("quality is no worse than recorded at this seed",
                       quality["shifted_test_error"] <= ref["shifted_test_error"] + 2e-3
                       and quality["worst_case_loss"] >= ref["worst_case_loss"] * (1 - 1e-3),
                       f"recorded {ref}"))
    traced = [r["tracer"].counts | {k: v[0] for k, v in r["summary"].items()}
              for r in reps if r["traced"]]
    if len(traced) >= 2:
        checks.append(("traced counts repeat exactly", all(c == traced[0] for c in traced),
                       f"{len(traced)} traced repetitions"))
    return checks


def layer_metrics(rep: dict, shape: dict, quality: dict) -> dict:
    """Per-layer values from one traced repetition."""
    tracer = rep["tracer"]
    summary = rep["summary"]
    values = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        calls, total, own = summary.get(base, (0, 0.0, 0.0))
        if kind in ("s", "calls", "self_s"):
            values[name] = {"s": total, "calls": calls, "self_s": own}[kind]
    grad_calls, grad_s, _ = summary.get("autodiff.grad", (0, 0.0, 0.0))
    searches = sum(v[0] for k, v in summary.items()
                   if k.startswith("robustness.worst_case_loss."))
    evals = tracer.calls_within("models.forward", "robustness.worst_case_loss.")
    values.update({
        "autodiff.grad.us_per_call": 1e6 * grad_s / grad_calls if grad_calls else 0.0,
        "training.steps": tracer.calls_within("autodiff.grad", "training.train"),
        "training.epochs": tracer.counts.get("training.epochs", 0),
        "training.checkpoint_step": quality["checkpoint_step"],
        "robustness.model_evals": evals,
        "robustness.model_evals_per_group": evals / (shape["m"] * searches) if searches else 0.0,
        "plotting.segments": tracer.counts.get("plotting.segments", 0),
    })
    return values


def run_workload(cli, w: workloads.Workload, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, min_reps: int = 2) -> dict:
    sizes = w.sizes if sizes is None else sizes
    out = RUNS / w.name
    steps = w.build(seed, str(out), sizes)
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or (time.perf_counter() - start < seconds and len(reps) < MAX_REPS):
        tracer = spans.Tracer() if trace and len(reps) % 2 else None
        rep = run_rep(cli, steps, out, tracer)
        if tracer:
            rep["summary"] = tracer.summary()
        reps.append(rep)
        if rep["failed"]:
            break
    ok = not any(r["failed"] for r in reps)
    shape = measure_shape(out) if ok else None
    quality = measure_quality(out) if ok else None
    return {
        "reps": reps, "shape": shape, "quality": quality,
        "checks": run_checks(w, seed, reps, out, quality, sizes),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
    }


def _in_cal(rep: dict) -> dict:
    """Each step's seconds over the mean calibration time just before and after it."""
    cal = rep["cal_s"]
    return {step: t / ((cal[k] + cal[k + 1]) / 2)
            for k, (step, t) in enumerate(rep["step_s"].items())}


def _pipeline_cal(reps: list) -> float:
    return statistics.median(sum(_in_cal(r).values()) for r in reps)


def step_medians(reps: list) -> dict:
    """Median seconds of each subcommand over the given repetitions."""
    return {f"{step}_s": statistics.median(r["step_s"][step] for r in reps)
            for step in reps[0]["step_s"]}


def metrics(result: dict, trace: bool, setup_s: float | None) -> dict:
    reps = result["reps"]
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        values = {
            "setup_s": setup_s,
            "pipeline_cal": _pipeline_cal(plain),
            "shift_eval_cal": statistics.median(_in_cal(r)["shift_eval"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "worst_case_gain": result["quality"]["worst_case_gain"],
        }
        units = END_TO_END
    else:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r, result["shape"], result["quality"]) for r in traced]
        values = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
        untraced = _pipeline_cal(plain)
        values["trace.overhead_pct"] = 100.0 * (_pipeline_cal(traced) - untraced) / untraced
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    status = Path("/proc/self/status")
    threads = next((int(line.split()[1]) for line in status.read_text().splitlines()
                    if line.startswith("Threads:")), None) if status.is_file() else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("CORE_REG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git_revision": _git_revision(),
    }


def report(w: workloads.Workload, seed: int, result: dict) -> dict:
    quality = result["quality"] or {}
    plain = [r for r in result["reps"] if not r["traced"]]
    return {
        "workload": w.name, "seed": seed, "why": w.why, "moves": w.moves, "flat": w.flat,
        "shape": result["shape"],
        "quality": quality,
        "step_s": step_medians(plain) if result["quality"] else None,
        "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
        "repetitions": [{"traced": r["traced"], "pipeline_s": r["pipeline_s"],
                         "step_s": r["step_s"], "cal_s": r["cal_s"]} for r in result["reps"]],
        "checks": [{"check": name, "passed": ok, "detail": detail}
                   for name, ok, detail in result["checks"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_condvar()
    except (NoSources, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(w.name, args.seed)
    result = run_workload(cli, w, args.seed, args.seconds, bool(args.trace))
    correct = all(ok for _, ok, _ in result["checks"])
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"report": report(w, args.seed, result)}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics(result, bool(args.trace), setup_s) if correct else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
