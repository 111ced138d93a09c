"""Time each phase of ``semichain run`` in fresh interpreters.

    python scripts/time_run.py <config.json> [--runs 9]

Runs the config ``--runs`` times with this checkout's package, each in a
fresh interpreter with BLAS on one thread, and prints the median,
minimum and maximum of each phase in milliseconds:

- start: from the spawn to the child's first statement;
- imports: ``import semichain.cli``, numpy included;
- setup: from there to the first ``step`` or ``evolve`` call;
- run: from there to the return of ``cli.main``;
- exit: from ``main``'s return to the process exit, as the parent sees
  it (interpreter teardown).

The benchmark's tracer stops when ``main`` returns, so only this script
shows the exit phase. To compare two checkouts on a shared machine, run
each one's copy of this script in turn, several times. Each run writes
its outputs to a temporary directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "..", "src"))
PHASES = ("start", "imports", "setup", "run", "exit")

# The child stamps the monotonic clock (shared with the parent) at its
# first statement, after the imports, at the first update cycle and at
# main's return, and prints the stamps as one JSON line.
CHILD = """\
import time
t_start = time.monotonic()
import json, sys
import semichain.cli
from semichain import runner
t_imports = time.monotonic()
first = []

def stamped(f):
    def call(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
        return f(*args, **kwargs)
    return call

runner.step, runner.evolve = stamped(runner.step), stamped(runner.evolve)
code = semichain.cli.main(["run", sys.argv[1], "--output-dir", sys.argv[2]])
t_return = time.monotonic()
print(json.dumps([t_start, t_imports, (first or [t_return])[0], t_return]),
      flush=True)
sys.exit(code)
"""


def one_run(config, out_dir):
    """Phase durations in seconds of one run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, config, out_dir],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate()
    t_exit = time.monotonic()
    if proc.returncode != 0:
        raise SystemExit(f"run failed with exit code {proc.returncode}:\n{err}")
    stamps = [t_spawn, *json.loads(out.splitlines()[-1]), t_exit]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="path to the JSON run config")
    ap.add_argument("--runs", type=int, default=9, help="fresh interpreters")
    args = ap.parse_args(argv)

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.runs):
            runs.append(one_run(args.config, os.path.join(tmp, f"run{i}")))

    print(f"config={args.config} runs={args.runs} src={SRC}")
    print(f"{'phase':<8} {'median':>8} {'min':>8} {'max':>8}  (ms)")
    for name, values in zip(PHASES + ("total",),
                            [*zip(*runs), [sum(r) for r in runs]]):
        ms = [1e3 * v for v in values]
        print(f"{name:<8} {statistics.median(ms):8.1f} {min(ms):8.1f} "
              f"{max(ms):8.1f}")


if __name__ == "__main__":
    main()
