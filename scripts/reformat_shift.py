"""Time ``reformat`` and measure how far it moves the standard estimates.

    PYTHONPATH=src python scripts/reformat_shift.py [--runs 40] [--seed 900]

Runs the library path of the benchmark's ``resample`` workload (the
model and sizes of acceptance criterion 8: sample N = 4000 points, 1000
Euler steps of 1e-3 on the resonant two-level model, then ``reformat``)
on ``--runs`` inputs of ``bench/workloads.make_inputs("resample", seed)``.
For each run it times ``reformat`` alone and takes, per observable of
``standard_suite``, the shift |after - before| in combined standard
errors, hypot(stderr before, stderr after). The reformat gate is
switched off (``gate_factor`` infinite) so that every shift is seen; a
run whose fit is rejected (``InterpolationDegraded``) is counted apart.

Prints one line per run, then the quantiles of the reformat time, of the
largest shift per run and of all shifts, the root mean square shift per
observable, and how many runs the gate of 3 combined stderr would have
rejected. Compare two versions of the package by running the script
against each, on the same inputs.
"""

import argparse
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "bench"))

import numpy as np  # noqa: E402

import semichain as sc  # noqa: E402
import workloads  # noqa: E402
from semichain.sampling import SamplerParams  # noqa: E402

GATE = 3.0


def one_run(inp):
    """(reformat seconds, {observable: shift in combined stderr}); the
    shifts are None when the fit is rejected."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    spec = sc.ModelSpec(h0=sz / 2, modes=[sc.FieldMode(1.0, inp["g"] * sm)])
    rng = np.random.default_rng(inp["seed"])
    params = SamplerParams(step_cap=inp["step_cap"],
                           segment_len=inp["segment_len"],
                           burn_in=inp["burn_in"])
    phi0 = sc.coherent_bargmann([inp["alpha0"]], [1.0, 0.0])
    chain = sc.initial_chain(phi0, 1, inp["n_points"], inp["step_cap"], rng,
                             params=params)
    for _ in range(inp["steps"]):
        chain = sc.step(chain, spec, inp["eps"])
    t0 = time.perf_counter()
    try:
        out = sc.reformat(chain, params, rng, gate_factor=math.inf)
    except sc.InterpolationDegraded:
        return time.perf_counter() - t0, None
    elapsed = time.perf_counter() - t0
    shifts = {}
    for ob in sc.standard_suite(chain.d, chain.n_modes):
        v0, s0 = sc.estimate(chain, ob)
        v1, s1 = sc.estimate(out, ob)
        shifts[ob.name] = abs(v1 - v0) / max(math.hypot(s0, s1), 1e-300)
    return elapsed, shifts


def _quantiles(values):
    q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return " ".join(f"{v:.3g}" for v in q)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=40, help="inputs to run")
    ap.add_argument("--seed", type=int, default=900,
                    help="seed of the make_inputs stream")
    args = ap.parse_args(argv)

    inputs = workloads.make_inputs("resample", args.seed)
    times, worst, per_obs, rejected = [], [], {}, 0
    for i in range(args.runs):
        inp = next(inputs)
        elapsed, shifts = one_run(inp)
        times.append(elapsed)
        if shifts is None:
            rejected += 1
            print(f"run {i} seed {inp['seed']}: reformat {elapsed:.3f} s, "
                  f"fit rejected", flush=True)
            continue
        for name, z in shifts.items():
            per_obs.setdefault(name, []).append(z)
        worst.append(max(shifts.values()))
        print(f"run {i} seed {inp['seed']}: reformat {elapsed:.3f} s, "
              f"largest shift {worst[-1]:.3f}", flush=True)

    print(f"runs {args.runs} (make_inputs seed {args.seed}), fit rejected "
          f"{rejected}")
    print(f"reformat s      min q1 median q3 max: {_quantiles(times)}")
    if worst:
        every = [z for zs in per_obs.values() for z in zs]
        print(f"largest shift   min q1 median q3 max: {_quantiles(worst)}")
        print(f"every shift     min q1 median q3 max: {_quantiles(every)}")
        rms = ", ".join(f"{name} {math.sqrt(np.mean(np.square(zs))):.3f}"
                        for name, zs in per_obs.items())
        print(f"rms shift per observable: {rms}")
        print(f"runs the {GATE:g}-stderr gate rejects: "
              f"{sum(z > GATE for z in worst)}")


if __name__ == "__main__":
    main()
