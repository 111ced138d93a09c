"""Time the oracle's ``evolve``, block by block, in one process.

    PYTHONPATH=src python scripts/time_oracle.py [--runs 9] [--blocks 8]
        [--cutoff C]

For each preset below, builds a fresh model and its initial state
``--runs`` times, evolves it over ``--blocks`` blocks, and prints the
dimension of the truncated space, the number B of bands of H_S beside
its diagonal and, in milliseconds, the median over runs of:

- first: the first block's ``evolve``, which builds H_S and its
  spectral interval;
- later: the median of the later blocks' ``evolve`` calls, which reuse
  them;
- read: the median of the blocks' read-outs, each the
  ``antinormal_expectation`` of sz and of every mode's a a^dag on the
  block's evolved state.

Presets (h0 = sz/2, resonant rotating-wave currents g sigma-minus unless
named otherwise, the atom excited, coherent fields at a0):

- ``oracle-2mode``: the benchmark workload's model, two modes at
  omega = 1 and 1.2, g = 0.3, a0 = 1 and 0.8, cutoff 16, blocks of 0.5;
- ``E``: case E of ROADMAP.md (g = 1, a0 = 2), cutoff 64, unit blocks;
- ``D``: case D (g = 0.5, a0 = 4), cutoff 80, unit blocks;
- ``2mode-40``: the ``oracle-2mode`` model at cutoff 40, unit blocks;
- ``2mode-40-x``: ``2mode-40`` with counter-rotating currents g sigma-x,
  whose rows of K_n hold an a^dag and an a entry each, so B = 4.

``--cutoff`` sets every preset's cutoff. The initial state is
normalized after its truncation and the tail guard is off (threshold
1), so that a small cutoff times the same code. Compare two
versions of the package by running this script in fresh processes,
alternating between them, on the same machine.
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

import semichain as sc  # noqa: E402
from semichain.oracle import _hamiltonian  # noqa: E402

SZ = np.diag([0.5, -0.5])
SM = np.array([[0.0, 0.0], [1.0, 0.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
PRESETS = {
    "oracle-2mode": dict(modes=[(1.0, 0.3), (1.2, 0.3)], a0=[1.0, 0.8],
                         cutoff=16, block=0.5),
    "E": dict(modes=[(1.0, 1.0)], a0=[2.0], cutoff=64, block=1.0),
    "D": dict(modes=[(1.0, 0.5)], a0=[4.0], cutoff=80, block=1.0),
    "2mode-40": dict(modes=[(1.0, 0.3), (1.2, 0.3)], a0=[1.0, 0.8],
                     cutoff=40, block=1.0),
    "2mode-40-x": dict(modes=[(1.0, 0.3), (1.2, 0.3)], a0=[1.0, 0.8],
                       cutoff=40, block=1.0, current=SX),
}


def time_preset(modes, a0, cutoff, block, runs, blocks, current=SM):
    """Median first-block and later-block ``evolve`` times and read-out
    times in seconds, the dimension of the truncated space and the
    number of bands of H_S."""
    observables = [sc.atomic_observable(SZ, len(modes))] + [
        sc.Observable(f=None, poly=sc.mode_monomial(len(modes), n, 1, 1))
        for n in range(len(modes))]
    firsts, laters, reads = [], [], []
    for _ in range(runs):
        # a new spec each run, so its first block builds H_S afresh
        spec = sc.ModelSpec(h0=SZ, modes=[sc.FieldMode(w, g * current)
                                          for w, g in modes])
        amps = sc.build_initial(spec, [1.0, 0.0], a0, [cutoff] * len(a0),
                                tail_threshold=1.0).amplitudes
        state = sc.FockCompositeState(amps / np.linalg.norm(amps))
        times, read = [], []
        for _ in range(blocks):
            t0 = time.perf_counter()
            state = sc.evolve(state, spec, block, tail_threshold=1.0)
            t1 = time.perf_counter()
            for ob in observables:
                sc.antinormal_expectation(state, ob, tail_threshold=1.0)
            read.append(time.perf_counter() - t1)
            times.append(t1 - t0)
        firsts.append(times[0])
        laters.append(statistics.median(times[1:]))
        reads.append(statistics.median(read))
    bands = _hamiltonian(spec, state.amplitudes.shape[1:])[1]
    return (statistics.median(firsts), statistics.median(laters),
            statistics.median(reads), state.amplitudes.size, len(bands))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=9, help="runs per preset")
    ap.add_argument("--blocks", type=int, default=8, help="blocks per run")
    ap.add_argument("--cutoff", type=int, help="cutoff of every preset")
    args = ap.parse_args(argv)
    if args.blocks < 2:
        ap.error("--blocks must be at least 2")

    print(f"runs={args.runs} blocks={args.blocks}")
    print(f"{'preset':<13} {'dim':>6} {'B':>2} {'first_ms':>9} "
          f"{'later_ms':>9} {'read_ms':>9}")
    for name, preset in PRESETS.items():
        if args.cutoff is not None:
            preset = dict(preset, cutoff=args.cutoff)
        first, later, read, dim, n_bands = time_preset(
            **preset, runs=args.runs, blocks=args.blocks)
        print(f"{name:<13} {dim:>6} {n_bands:>2} {1e3 * first:9.3f} "
              f"{1e3 * later:9.3f} {1e3 * read:9.3f}")


if __name__ == "__main__":
    main()
