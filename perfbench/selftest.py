"""Tests of the benchmark itself, at a tiny size of each workload.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test run: it drives
every workload four times, plots included, which takes about 35 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_condvar()


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request, cli):
    """Four repetitions (untraced, traced, untraced, traced) at a tiny size."""
    w = workloads.WORKLOADS[request.param]
    return w, run.run_workload(cli, w, 5, 0.0, True, w.tiny, min_reps=4)


def test_benchmark_json_names_match_the_runner():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_checks_pass_and_count_every_subcommand(traced):
    w, result = traced
    assert [c for c in result["checks"] if not c[1]] == []
    names = [c[0] for c in result["checks"]]
    assert "traced counts repeat exactly" in names
    assert "repetitions write byte-identical outputs" in names
    assert result["failed"] == 0
    assert result["attempted"] == 4 * len(w.build(5, "x", w.tiny))


def test_every_metric_is_present_with_its_unit(traced):
    _, result = traced
    for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        out = run.metrics(result, trace, 0.25)
        assert {k: v["unit"] for k, v in out.items()} == table
        assert all(isinstance(v["value"], (int, float)) for v in out.values())


def test_spans_nest_and_self_times_are_non_negative(traced):
    _, result = traced
    for rep in (r for r in result["reps"] if r["traced"]):
        recorded = rep["tracer"].spans
        assert recorded
        covered = [0.0] * len(recorded)
        for name, start, end, parent in recorded:
            assert start <= end
            if parent is not None:
                p_start, p_end = recorded[parent][1:3]
                assert p_start <= start and end <= p_end, name
                covered[parent] += end - start
        for (_, start, end, _), inner in zip(recorded, covered):
            assert end - start - inner >= -1e-9
        assert all(own >= -1e-9 for _, _, own in rep["summary"].values())


def test_same_seed_gives_identical_counts(traced):
    _, result = traced
    first, second = (r for r in result["reps"] if r["traced"])
    calls = [{k: v[0] for k, v in r["summary"].items()} for r in (first, second)]
    assert calls[0] == calls[1]
    assert first["tracer"].counts == second["tracer"].counts
    layer = [run.layer_metrics(r, result["shape"], result["quality"]) for r in (first, second)]
    counts = [{k: v for k, v in m.items() if run.PER_LAYER[k] == "count"} for m in layer]
    assert counts[0] == counts[1]


def test_instrument_puts_the_originals_back(cli):
    import condvar.data

    before = (cli.load_csv, condvar.data.load_csv, condvar.data.Dataset.__dict__["features"])
    with spans.instrument(spans.Tracer()):
        assert cli.load_csv is not before[0]
    after = (cli.load_csv, condvar.data.load_csv, condvar.data.Dataset.__dict__["features"])
    assert after == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "quickstart",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
