"""Time the initial chain sampler in one process.

    PYTHONPATH=src python scripts/time_sample.py [--n 20000] [--seed 11]
        [--alpha0 1] [--atomic 1 0] [--step-cap 0.45] [--segment-len 6]

Runs ``initial_chain`` on ``coherent_bargmann(alpha0, atomic)`` (one
mode per ``--alpha0`` value; complex values are written like ``0.5-1.2j``)
and prints:

- seconds: wall time of ``initial_chain``, sampling and the states at
  the sampled points;
- proposals: calls of the log-weight that ``log_weight_from_phi``
  returned (Metropolis proposals, plus one per walk start);
- peak RSS of the whole process;
- sha256 of the chain's ``alphas``, ``phis`` and ``segment_starts``
  bytes, so that two versions of the package can be checked to sample
  the same chain bit for bit.

Compare two versions of the package by running this script in fresh
processes, alternating between them, on the same machine.
"""

import argparse
import hashlib
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

import semichain as sc  # noqa: E402
from semichain import chain as chain_module, sampling  # noqa: E402
from semichain.sampling import SamplerParams  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20000, help="chain points")
    ap.add_argument("--seed", type=int, default=11, help="sampler seed")
    ap.add_argument("--alpha0", type=complex, nargs="+", default=[1.0],
                    help="coherent amplitude of each mode")
    ap.add_argument("--atomic", type=complex, nargs="+", default=[1.0, 0.0],
                    help="atomic vector (need not be normalized)")
    ap.add_argument("--step-cap", type=float, default=0.45)
    ap.add_argument("--segment-len", type=int, default=6)
    args = ap.parse_args(argv)

    calls = [0]
    factory = sampling.log_weight_from_phi

    def counting_factory(*a, **kw):
        logw = factory(*a, **kw)

        def counted(alpha):
            calls[0] += 1
            return logw(alpha)

        return counted

    # initial_chain looks the factory up in semichain.chain
    chain_module.log_weight_from_phi = counting_factory

    n_modes = len(args.alpha0)
    phi0 = sc.coherent_bargmann(args.alpha0, args.atomic)
    params = SamplerParams(step_cap=args.step_cap, segment_len=args.segment_len)
    t0 = time.perf_counter()
    chain = sc.initial_chain(phi0, n_modes, args.n, args.step_cap,
                             np.random.default_rng(args.seed), params=params)
    elapsed = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    digest = hashlib.sha256()
    for arr in (chain.alphas, chain.phis, chain.segment_starts.astype(np.int64)):
        digest.update(np.ascontiguousarray(arr).tobytes())

    print(f"N={args.n} seed={args.seed} alpha0={args.alpha0} "
          f"atomic={args.atomic}")
    print(f"seconds {elapsed:.3f}")
    print(f"proposals {calls[0]} ({1e6 * elapsed / calls[0]:.2f} us each)")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS MiB {usage.ru_maxrss / 1024:.1f}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
