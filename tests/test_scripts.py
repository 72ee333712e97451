"""Smoke runs of the scripts under scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ("log_sandwich_demo.py", "2"),
        ("convergence_demo.py",),
        ("array_tower_bench.py", "64", "1"),
        ("riemann_sum_bench.py", "2048", "1"),
    ],
)
def test_script_exits_0(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
