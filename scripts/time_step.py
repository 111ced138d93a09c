"""Time the chain update cycle in one process.

    PYTHONPATH=src python scripts/time_step.py [--n 20000] [--seed 5]
        [--steps 500] [--integrator euler|rk4] [--eps 1e-3]

Draws a chain on the resonant two-level model of acceptance
criterion 1 (h0 = sz/2, coupling 0.2 sigma-minus, coherent start
alpha0 = 1), then applies ``--steps`` (at least 2) update cycles and
prints, for the stepping alone:

- first step: its wall time and its minor (first-touch) page faults
  (``getrusage``). The first step allocates the update workspace that
  the later steps reuse, so it is reported on its own line;
- workspace MiB: the total size of that workspace's buffers after the
  first step;
- ms/step: wall time per later ``step`` call, as the mean and as the
  median and 20th percentile of the calls timed one by one. On a shared
  machine the mean of one process moves with bursts of load from other
  processes; the median and the low percentile move less;
- minor faults/step: the page faults of the later steps, which count
  the fresh memory each of them maps;
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000, help="chain points")
    ap.add_argument("--seed", type=int, default=5, help="sampler seed")
    ap.add_argument("--steps", type=int, default=500, help="update cycles")
    ap.add_argument("--integrator", choices=("euler", "rk4"),
                    default="euler")
    ap.add_argument("--eps", type=float, default=1e-3, help="step length")
    args = ap.parse_args(argv)
    if args.steps < 2:
        ap.error("--steps must be at least 2")

    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    spec = sc.ModelSpec(h0=sz / 2, modes=[sc.FieldMode(1.0, 0.2 * sm)])
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    chain = sc.initial_chain(phi0, 1, args.n,
                             rng=np.random.default_rng(args.seed))

    faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
    start = time.perf_counter()
    chain = sc.step(chain, spec, args.eps, integrator=args.integrator)
    first_ms = 1e3 * (time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    workspace_mib = chain._workspace.nbytes / 2 ** 20
    ticks = [time.perf_counter()]
    for _ in range(args.steps - 1):
        chain = sc.step(chain, spec, args.eps, integrator=args.integrator)
        ticks.append(time.perf_counter())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    later = 1e3 * np.diff(ticks)

    print(f"N={args.n} seed={args.seed} steps={args.steps} "
          f"integrator={args.integrator} eps={args.eps:g}")
    print(f"first step ms {first_ms:.3f} minor faults {faults[1] - faults[0]}")
    print(f"ms/step mean {later.mean():.3f} median "
          f"{np.median(later):.3f} p20 {np.percentile(later, 20):.3f}")
    print(f"minor faults/step "
          f"{(usage.ru_minflt - faults[1]) / (args.steps - 1):.1f}")
    print(f"workspace MiB {workspace_mib:.2f}")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS MiB {usage.ru_maxrss / 1024:.1f}")


if __name__ == "__main__":
    main()
