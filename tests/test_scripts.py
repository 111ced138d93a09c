"""Each script under ``scripts/`` runs once, at a small size, in a fresh
interpreter and exits 0: the scripts reach into private package names
(``chain._rates``, ``chain._derivatives``, ``chain._FIT_TERMS``), which
no other test holds them to."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.mark.parametrize("args", [
    ["time_step.py", "--n", "300", "--steps", "3"],
    ["time_sample.py", "--n", "600", "--generic"],
    ["reformat_shift.py", "--runs", "1"],
    ["pointwise_error.py", "--n", "300", "--t", "1", "--derivative", "exact"],
    ["time_run.py", os.path.join(ROOT, "configs", "jc_small.json"),
     "--runs", "1"],
    ["time_oracle.py", "--runs", "1", "--blocks", "2", "--cutoff", "8"],
], ids=lambda args: args[0])
def test_script_runs(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", args[0]), *args[1:]],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
