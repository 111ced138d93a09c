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
