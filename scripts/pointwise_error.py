"""Per-point error of the chain against the oracle, block by block.

    PYTHONPATH=src python scripts/pointwise_error.py [--a0 1] [--g 0.2]
        [--n 4000] [--eps 1e-3] [--t 5] [--integrator euler|midpoint]
        [--seed 5] [--cutoff 40]

Runs the resonant two-level model (h0 = sz/2, coupling g sigma-minus,
omega = 1, excited atom times a coherent field at a0) on the chain and
on the truncated-Fock oracle side by side, and after every unit of time
prints:

- the quantiles of the per-point error ||phi_k - Phi_t(z_k)|| /
  ||Phi_t(z_k)||, where Phi_t(z) is the oracle's conditional state at
  z = alpha_k* (a power basis z^n / sqrt(n!) times its amplitudes).
  It has no Monte Carlo noise, so it shows at any N how far each stored
  state is from the one the comoving update should carry;
- the z-score |chain - oracle| / stderr of ``sz``, ``a_adag`` and
  ``sm_astar`` (``batch_count`` 32), and the worst one so far.

The cutoff must hold the evolved state: the oracle raises if its tail
weight exceeds 1e-8. Sampling uses the default ``step_cap`` 0.45 and
``segment_len`` 6.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

import semichain as sc  # noqa: E402
from semichain.observables import Observable, mode_monomial  # noqa: E402
from semichain.sampling import SamplerParams  # noqa: E402


def bargmann_values(state, z):
    """Phi(z) of a single-mode oracle state at the points z, (len(z), d)."""
    basis = np.empty((z.shape[0], state.amplitudes.shape[1]), dtype=complex)
    basis[:, 0] = 1.0
    for n in range(1, basis.shape[1]):
        basis[:, n] = basis[:, n - 1] * z / np.sqrt(n)
    return basis @ state.amplitudes.T


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a0", type=complex, default=1.0,
                    help="coherent amplitude of the field")
    ap.add_argument("--g", type=float, default=0.2, help="coupling")
    ap.add_argument("--n", type=int, default=4000, help="chain points")
    ap.add_argument("--eps", type=float, default=1e-3, help="step length")
    ap.add_argument("--t", type=int, default=5, help="blocks of unit time")
    ap.add_argument("--integrator", choices=("euler", "midpoint"),
                    default="euler")
    ap.add_argument("--seed", type=int, default=5, help="sampler seed")
    ap.add_argument("--cutoff", type=int, default=40, help="oracle cutoff")
    args = ap.parse_args(argv)

    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    spec = sc.ModelSpec(h0=sz / 2, modes=[sc.FieldMode(1.0, args.g * sm)])
    observables = [
        sc.atomic_observable(sz, 1, name="sz"),
        Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="a_adag"),
        Observable(f=sm, poly=mode_monomial(1, 0, 0, 1), name="sm_astar"),
    ]
    atomic = [1.0, 0.0]
    chain = sc.initial_chain(sc.coherent_bargmann([args.a0], atomic), 1,
                             args.n, 0.45, np.random.default_rng(args.seed),
                             params=SamplerParams(step_cap=0.45,
                                                  segment_len=6))
    oracle = sc.build_initial(spec, atomic, [args.a0], [args.cutoff],
                              tail_threshold=1e-8)
    steps = int(round(1.0 / args.eps))

    print(f"a0={args.a0:g} g={args.g:g} N={args.n} eps={args.eps:g} "
          f"integrator={args.integrator} seed={args.seed} "
          f"cutoff={args.cutoff}")
    print("t  median_err  q90_err  q99_err  max_err  "
          + "  ".join(f"z_{ob.name}" for ob in observables)
          + "  worst_z  step_ms")
    worst = 0.0
    for t in range(1, args.t + 1):
        t0 = time.perf_counter()
        for _ in range(steps):
            chain = sc.step(chain, spec, args.eps, integrator=args.integrator)
        step_ms = 1e3 * (time.perf_counter() - t0) / steps
        oracle = sc.evolve(oracle, spec, 1.0, tail_threshold=1e-8)
        ref = bargmann_values(oracle, chain.alphas[:, 0].conj())
        err = (np.linalg.norm(chain.phis - ref, axis=1)
               / np.linalg.norm(ref, axis=1))
        zs = []
        for ob in observables:
            est, se = sc.estimate(chain, ob, batch_count=32)
            zs.append(abs(est - sc.antinormal_expectation(oracle, ob)) / se)
        worst = max(worst, *zs)
        q50, q90, q99 = np.quantile(err, [0.5, 0.9, 0.99])
        print(f"{t}  {q50:.2e}  {q90:.2e}  {q99:.2e}  {err.max():.2e}  "
              + "  ".join(f"{z:.1f}" for z in zs)
              + f"  {worst:.1f}  {step_ms:.2f}", flush=True)


if __name__ == "__main__":
    main()
