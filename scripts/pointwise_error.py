"""Per-point error of the chain against the oracle, block by block.

    PYTHONPATH=src python scripts/pointwise_error.py [--case A|B|C|D|E|F|G]
        [--a0 1] [--g 0.2] [--h0 0.5] [--coupling minus|x] [--omega 1]
        [--n 4000] [--t 5] [--cutoff 40] [--eps 0.125]
        [--integrator euler|rk4] [--derivative fit|exact] [--terms 8]
        [--seed 5]

Runs a two-level atom (h0 = h0 sz, coupling g sigma-minus or, with
``--coupling x``, g sigma-x, one mode of frequency omega, excited atom
times a coherent field at a0) on the chain and on the truncated-Fock
oracle side by side, and after every unit of time prints:

- the quantiles of the per-point error ||phi_k - Phi_t(z_k)|| /
  ||Phi_t(z_k)||, where Phi_t(z) is the oracle's conditional state at
  z = alpha_k* (a power basis z^n / sqrt(n!) times its amplitudes).
  It has no Monte Carlo noise, so it shows at any N how far each stored
  state is from the one the comoving update should carry;
- the z-score |chain - oracle| / stderr of ``sz``, ``a_adag`` and
  ``sm_astar`` (``batch_count`` 32), and the worst one so far.

``--case`` presets the model, N, T and oracle cutoff of one row of the
case table in ROADMAP.md (A-E, resonant: h0 = sz/2, omega = 1, coupling
g sigma-minus), or of two models with time-dependent currents: F,
detuned (h0 = 0.75 sz, g = 0.3, a0 = 2), and G, counter-rotating
(coupling 0.2 sigma-x, a0 = 1). An option given with it overrides the
preset. The step and integrator default to the runner's (RK4 at 0.125).

Two switches take the chain's fit apart from the rest of the update:

- ``--derivative exact`` replaces the fitted derivative by the oracle's
  exact dPhi_t/dz at the time of each rate evaluation (the oracle state
  with amplitudes psi_{n+1} sqrt(n+1)), so what remains is the error of
  transport and of the integrator alone;
- ``--terms K`` fits K displaced number states instead of the package's
  8 (``chain._FIT_TERMS``).

The cutoff must hold the evolved state: the oracle raises if its tail
weight exceeds 1e-8. The coherent start is drawn exactly (iid points of
its Gaussian weight).
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

import semichain as sc  # noqa: E402
from semichain import chain as chain_module  # noqa: E402
from semichain.config import CHAIN_DEFAULTS  # noqa: E402
from semichain.observables import Observable, mode_monomial  # noqa: E402
from semichain.runner import INTEGRATOR  # noqa: E402

RESONANT = {"h0": 0.5, "coupling": "minus", "omega": 1.0}
CASES = {
    "A": dict(RESONANT, a0=1.0, g=0.2, n=4000, t=5, cutoff=40),
    "B": dict(RESONANT, a0=2.0, g=0.3, n=8000, t=4, cutoff=40),
    "C": dict(RESONANT, a0=3.0, g=0.5, n=8000, t=5, cutoff=40),
    "D": dict(RESONANT, a0=4.0, g=0.5, n=8000, t=8, cutoff=80),
    "E": dict(RESONANT, a0=2.0, g=1.0, n=8000, t=8, cutoff=64),
    "F": dict(RESONANT, h0=0.75, a0=2.0, g=0.3, n=4000, t=5, cutoff=40),
    "G": dict(RESONANT, coupling="x", a0=1.0, g=0.2, n=4000, t=5, cutoff=40),
}
DEFAULTS = dict(CASES["A"], eps=CHAIN_DEFAULTS["eps"], integrator=INTEGRATOR,
                derivative="fit", terms=chain_module._FIT_TERMS, seed=5)


def bargmann_values(amplitudes, z):
    """Phi(z) of single-mode oracle amplitudes (d, levels) at the points
    z, shape (len(z), d)."""
    basis = np.empty((z.shape[0], amplitudes.shape[1]), dtype=complex)
    basis[:, 0] = 1.0
    for n in range(1, basis.shape[1]):
        basis[:, n] = basis[:, n - 1] * z / np.sqrt(n)
    return basis @ amplitudes.T


def set_fit_terms(k):
    """Fit ``k`` terms: the chain module reads this global per call."""
    if k < 2:
        raise SystemExit("--terms must be at least 2")
    chain_module._FIT_TERMS = k


def use_exact_derivative(oracle, spec):
    """Replace the fitted derivative by dPhi_t/dz of the oracle state,
    evolved from ``oracle`` to the time of each rate evaluation.

    ``_rates`` looks ``_derivatives`` up at call time, and ``step`` looks
    up ``_rates``; the wrapped ``_rates`` notes the stage time, which only
    moves forward (RK4's stages run at t, t + eps/2, t + eps/2, t + eps).
    """
    rates = chain_module._rates
    current = [oracle]

    def timed_rates(y, spec_, t, workspace=None):
        gap = t - current[0].time
        if gap < -1e-9:
            raise RuntimeError(f"rate evaluation at t={t} before the oracle's "
                               f"t={current[0].time}")
        if gap > 1e-9:
            current[0] = sc.evolve(current[0], spec, gap, tail_threshold=1e-8)
        return rates(y, spec_, t, workspace)

    def exact(alphas, phis, workspace=None):
        amps = current[0].amplitudes
        lowered = amps[:, 1:] * np.sqrt(np.arange(1, amps.shape[1]))
        return bargmann_values(lowered, alphas[:, 0].conj()).T

    chain_module._rates = timed_rates
    chain_module._derivatives = exact


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", choices=sorted(CASES),
                    help="preset model, N, T and cutoff (default: A)")
    ap.add_argument("--a0", type=complex,
                    help="coherent amplitude of the field")
    ap.add_argument("--g", type=float, help="coupling")
    ap.add_argument("--h0", type=float, help="coefficient of sz in h0")
    ap.add_argument("--coupling", choices=("minus", "x"),
                    help="current g sigma-minus or g sigma-x")
    ap.add_argument("--omega", type=float, help="mode frequency")
    ap.add_argument("--n", type=int, help="chain points")
    ap.add_argument("--eps", type=float, help="step length")
    ap.add_argument("--t", type=int, help="blocks of unit time")
    ap.add_argument("--integrator", choices=("euler", "rk4"))
    ap.add_argument("--derivative", choices=("fit", "exact"),
                    help="the chain's fit (default) or the oracle's exact "
                         "dPhi_t/dz")
    ap.add_argument("--terms", type=int, help="terms K of the fit")
    ap.add_argument("--seed", type=int, help="sampler seed")
    ap.add_argument("--cutoff", type=int, help="oracle cutoff")
    given = vars(ap.parse_args(argv))
    case = given.pop("case")
    args = dict(DEFAULTS, **CASES.get(case, {}))
    args.update((k, v) for k, v in given.items() if v is not None)
    run(**args)


def run(a0, g, h0, coupling, omega, n, eps, t, integrator, derivative,
        terms, seed, cutoff):
    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    current = sm + sm.T if coupling == "x" else sm
    spec = sc.ModelSpec(h0=h0 * sz, modes=[sc.FieldMode(omega, g * current)])
    observables = [
        sc.atomic_observable(sz, 1, name="sz"),
        Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="a_adag"),
        Observable(f=sm, poly=mode_monomial(1, 0, 0, 1), name="sm_astar"),
    ]
    atomic = [1.0, 0.0]
    chain = sc.initial_chain(sc.coherent_bargmann([a0], atomic), 1,
                             n, rng=np.random.default_rng(seed))
    oracle = sc.build_initial(spec, atomic, [a0], [cutoff],
                              tail_threshold=1e-8)
    steps = int(round(1.0 / eps))
    set_fit_terms(terms)
    if derivative == "exact":
        use_exact_derivative(oracle, spec)

    print(f"a0={a0:g} g={g:g} h0={h0:g}*sz coupling={coupling} "
          f"omega={omega:g} N={n} eps={eps:g} integrator={integrator} "
          f"derivative={derivative} K={terms} seed={seed} cutoff={cutoff}")
    print("t  median_err  q90_err  q99_err  max_err  "
          + "  ".join(f"z_{ob.name}" for ob in observables)
          + "  worst_z  step_ms")
    worst = 0.0
    for block in range(1, t + 1):
        t0 = time.perf_counter()
        for _ in range(steps):
            chain = sc.step(chain, spec, eps, integrator=integrator)
        step_ms = 1e3 * (time.perf_counter() - t0) / steps
        oracle = sc.evolve(oracle, spec, 1.0, tail_threshold=1e-8)
        ref = bargmann_values(oracle.amplitudes, chain.alphas[:, 0].conj())
        err = (np.linalg.norm(chain.phis - ref, axis=1)
               / np.linalg.norm(ref, axis=1))
        zs = []
        for ob in observables:
            est, se = sc.estimate(chain, ob, batch_count=32)
            zs.append(abs(est - sc.antinormal_expectation(oracle, ob)) / se)
        worst = max(worst, *zs)
        q50, q90, q99 = np.quantile(err, [0.5, 0.9, 0.99])
        print(f"{block}  {q50:.2e}  {q90:.2e}  {q99:.2e}  {err.max():.2e}  "
              + "  ".join(f"{z:.1f}" for z in zs)
              + f"  {worst:.1f}  {step_ms:.2f}", flush=True)


if __name__ == "__main__":
    main()
