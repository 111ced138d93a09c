import json
import os
import subprocess
import sys

import semichain as sc

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_every_exported_name_resolves():
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []


def test_command_line_entry_point_imports_no_scipy():
    # the package needs numpy alone; a fresh interpreter shows what
    # importing the command-line entry point really loads
    probe = ("import sys, semichain.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_oracle_only_run_loads_neither_numpy_fft_nor_numpy_random(tmp_path):
    # the oracle's Bessel coefficients come from a recurrence and an
    # oracle-only run draws no chain, so numpy's lazily loaded fft and
    # random packages stay out of the process
    with open(os.path.join(SRC, "..", "configs", "jc_small.json")) as f:
        config = json.load(f)
    config["engine"] = "oracle"
    config_path = tmp_path / "oracle.json"
    config_path.write_text(json.dumps(config))
    probe = ("import sys, semichain.cli; "
             "code = semichain.cli.main(['run', sys.argv[1], "
             "'--output-dir', sys.argv[2]]); "
             "print(code, sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['numpy', 'fft'], ['numpy', 'random'])))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe, str(config_path),
                          str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "timeseries.csv").exists()
