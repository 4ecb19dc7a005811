"""Every demo runs to completion with warnings as errors and nothing on stderr;
together they take a few seconds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import condvar

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["augmentation_grouping", "first_order_expansion",
                                  "linear_style_shift", "strong_shift_divergence"])
def test_demo_exits_zero(name, tmp_path):
    # run from tmp_path: linear_style_shift writes its SVG to the working directory
    env = dict(os.environ, PYTHONPATH=str(Path(condvar.__file__).parents[1]))
    # -W error: a demo obeys the warnings rule that pyproject.toml sets for the tests
    done = subprocess.run([sys.executable, "-W", "error", str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
