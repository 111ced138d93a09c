"""Time the chain update cycle in one process.

    PYTHONPATH=src python scripts/time_step.py [--n 20000] [--seed 5]
        [--steps 500] [--integrator euler|midpoint] [--eps 1e-3]

Draws a chain on the resonant two-level model of acceptance
criterion 1 (h0 = sz/2, coupling 0.2 sigma-minus, coherent start
alpha0 = 1, segment_len 6), then applies ``--steps``
update cycles and prints, for the stepping alone:

- ms/step: wall time per ``step`` call;
- minor faults/step: first-touch page faults (``getrusage``), which
  count the fresh memory each cycle maps;
- peak RSS of the whole process, sampling included.

Drawing N = 20000 points takes a few milliseconds; it is not timed.
Compare two versions of the package by running this script in fresh
processes, alternating between them, on the same machine.
"""

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

import semichain as sc  # noqa: E402
from semichain.sampling import SamplerParams  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000, help="chain points")
    ap.add_argument("--seed", type=int, default=5, help="sampler seed")
    ap.add_argument("--steps", type=int, default=500, help="update cycles")
    ap.add_argument("--integrator", choices=("euler", "midpoint"),
                    default="euler")
    ap.add_argument("--eps", type=float, default=1e-3, help="step length")
    args = ap.parse_args(argv)

    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    spec = sc.ModelSpec(h0=sz / 2, modes=[sc.FieldMode(1.0, 0.2 * sm)])
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    chain = sc.initial_chain(phi0, 1, args.n, 0.45,
                             np.random.default_rng(args.seed),
                             params=SamplerParams(step_cap=0.45, segment_len=6))

    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(args.steps):
        chain = sc.step(chain, spec, args.eps, integrator=args.integrator)
    elapsed = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    print(f"N={args.n} seed={args.seed} steps={args.steps} "
          f"integrator={args.integrator} eps={args.eps:g}")
    print(f"ms/step {1e3 * elapsed / args.steps:.3f}")
    print(f"minor faults/step {(usage.ru_minflt - faults0) / args.steps:.1f}")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS MiB {usage.ru_maxrss / 1024:.1f}")


if __name__ == "__main__":
    main()
