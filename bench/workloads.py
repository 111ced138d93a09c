"""Workload inputs and output checks.

Every workload uses fixed physics; the benchmark seed only picks the
program's RNG seed for each run, so the same seed regenerates the same
inputs and every seed does the same amount of work.

- ``chain-large``: ``semichain run`` on the resonant two-level model of
  acceptance criterion 1 (d = 2, M = 1, g = 0.2, alpha0 = 1,
  N = 20000) with ``engine: both``. Large-N stepping and sampling; the
  derivative kernel dominates once the run is past sampling.
- ``oracle-2mode``: ``semichain run`` with ``engine: oracle`` on two
  rotating-wave modes. Only the truncated-Fock propagator works here, so
  chain changes must show no change.
- ``resample``: the library path of acceptance criterion 8: sample
  N = 4000, step 1000 times, then ``reformat``. The runner's reformat
  never fires at this coupling, so this is the only workload that runs
  the interpolated-weight sampler.
"""

import csv
import io
import random

CSV_HEADER = "t,observable,estimate_re,estimate_im,stderr,oracle_re,oracle_im"
SUITE_HEADER = "stage,observable,estimate_re,estimate_im,stderr"

_SZ = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
_H0 = [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]


def _lowering(g):
    return [[[0, 0], [0, 0]], [[g, 0], [0, 0]]]


# Chain run length: long enough that stepping outweighs sampling N = 20000
# points (the trace must show the derivative as the largest self time),
# short enough for one or two runs in a measurement window.
CHAIN_T = 0.5
CHAIN_RECORD = 0.25
ORACLE_T = 1.0
ORACLE_RECORD = 0.5
RESAMPLE = {"n_points": 4000, "burn_in": 30000, "step_cap": 0.45,
            "segment_len": 6, "steps": 1000, "eps": 1e-3, "g": 0.2,
            "alpha0": 1.0}

CHAIN_Z_LIMIT = 5.0          # criterion 1: rows within 5 stderr
# At t = 0 every point carries the same atomic state, so an atomic
# observable has zero stderr and chain and oracle agree to rounding.
ROUNDING = 1e-12
INVARIANT_TOL = 1e-8         # excitation number drift across rows
REFORMAT_GATE = 3.0          # criterion 8: 3 combined stderr

WORKLOADS = ("chain-large", "oracle-2mode", "resample")


def chain_large_config(seed):
    return {
        "model": {"h0": _H0, "modes": [{"omega": 1.0, "j": _lowering(0.2)}]},
        "initial": {"atomic": [[1, 0], [0, 0]], "alpha0": [[1, 0]]},
        "engine": "both",
        "schedule": {"t_final": CHAIN_T, "record_every": CHAIN_RECORD},
        "chain": {"n_points": 20000},
        "observables": [
            {"name": "sz", "f": _SZ},
            {"name": "a_adag", "poly": [{"c": [1, 0], "p": [1], "q": [1]}]},
            {"name": "sm_astar", "f": _lowering(1.0),
             "poly": [{"c": [1, 0], "p": [0], "q": [1]}]},
        ],
        "seed": seed,
    }


def oracle_2mode_config(seed):
    return {
        "model": {"h0": _H0, "modes": [{"omega": 1.0, "j": _lowering(0.3)},
                                       {"omega": 1.2, "j": _lowering(0.3)}]},
        "initial": {"atomic": [[1, 0], [0, 0]], "alpha0": [[1, 0], [0.8, 0]]},
        "engine": "oracle",
        "schedule": {"t_final": ORACLE_T, "record_every": ORACLE_RECORD},
        "oracle": {"cutoff": 16},
        "observables": [
            {"name": "sz", "f": _SZ},
            {"name": "a0_adag0", "poly": [{"c": [1, 0], "p": [1, 0], "q": [1, 0]}]},
            {"name": "a1_adag1", "poly": [{"c": [1, 0], "p": [0, 1], "q": [0, 1]}]},
        ],
        "seed": seed,
    }


def resample_input(seed):
    return dict(RESAMPLE, seed=seed)


MAKERS = {"chain-large": chain_large_config,
          "oracle-2mode": oracle_2mode_config,
          "resample": resample_input}


def make_inputs(workload, seed):
    """Endless stream of run inputs; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield MAKERS[workload](rng.randrange(2 ** 31))


def simulated_time(workload):
    if workload == "chain-large":
        return CHAIN_T
    if workload == "oracle-2mode":
        return ORACLE_T
    return RESAMPLE["steps"] * RESAMPLE["eps"]


def first_cycle_target(workload):
    """The function whose first call ends set-up: the first update
    cycle, or the first oracle step when the chain never runs."""
    if workload == "oracle-2mode":
        return "semichain.oracle", "evolve"
    return "semichain.chain", "step"


def _rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r} is not {header!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def check_output(workload, text, error=None):
    """Raise ValueError when a run's output is wrong.

    ``text`` is the CSV the run wrote; ``error`` the exception the run
    reported (``"Type: message"``) or None.
    """
    if error is not None:
        raise ValueError(f"run raised {error}")
    if workload == "resample":
        _check_resample(_rows(text, SUITE_HEADER))
        return
    rows = _rows(text, CSV_HEADER)
    if workload == "chain-large":
        expected = (round(CHAIN_T / CHAIN_RECORD) + 1) * 3
    else:
        expected = (round(ORACLE_T / ORACLE_RECORD) + 1) * 3
    if len(rows) != expected:
        raise ValueError(f"{len(rows)} rows, expected {expected}")
    if any(len(r) != 7 for r in rows):
        raise ValueError("row with a wrong column count")
    if workload == "chain-large":
        _check_chain_vs_oracle(rows)
    else:
        _check_excitation_number(rows)


def _check_chain_vs_oracle(rows):
    for t, name, est_re, est_im, se, orc_re, orc_im in rows:
        diff = abs(complex(float(est_re), float(est_im))
                   - complex(float(orc_re), float(orc_im)))
        if not diff <= CHAIN_Z_LIMIT * float(se) + ROUNDING:
            raise ValueError(f"t={t} {name}: |chain - oracle| = {diff:.3g} "
                             f"exceeds {CHAIN_Z_LIMIT} stderr ({float(se):.3g})")


def _check_excitation_number(rows):
    """sum_n <a_n a_n^dag> + <sz>/2 is conserved by rotating-wave coupling."""
    totals = {}
    for t, name, est_re, est_im, se, orc_re, orc_im in rows:
        if est_re or est_im or se:
            raise ValueError("oracle-only run wrote chain columns")
        weight = 0.5 if name == "sz" else 1.0
        totals[t] = totals.get(t, 0.0) + weight * float(orc_re)
    values = list(totals.values())
    if max(values) - min(values) > INVARIANT_TOL:
        raise ValueError(f"excitation number drifted by "
                         f"{max(values) - min(values):.3g} across rows")


def _check_resample(rows):
    before = {r[1]: r for r in rows if r[0] == "before"}
    after = {r[1]: r for r in rows if r[0] == "after"}
    if len(rows) != 10 or len(before) != 5 or set(before) != set(after):
        raise ValueError(f"{len(rows)} suite rows, expected 5 before and 5 after")
    for name, (_, _, re0, im0, s0) in before.items():
        _, _, re1, im1, s1 = after[name]
        shift = abs(complex(float(re1), float(im1)) - complex(float(re0), float(im0)))
        tol = REFORMAT_GATE * abs(complex(float(s0), float(s1))) + ROUNDING
        if not shift <= tol:
            raise ValueError(f"{name} moved by {shift:.3g} across reformat "
                             f"(> {REFORMAT_GATE} combined stderr {tol:.3g})")
