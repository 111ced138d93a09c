"""Experiment orchestration: run a validated config end to end.

Produces a CSV time series (one row per record time per observable), a
JSON manifest echoing the configuration as given plus every default
it applied, and a checkpoint after each recorded block. Identical
seed and config give byte-identical CSV output; a resumed run continues
from the checkpoint and reproduces the uninterrupted file exactly
(emitted rows are stored in the checkpoint verbatim).

The seed is read once, by the initial chain's draw; the steps after it
are deterministic, so no generator state is checkpointed or restored.

The chain steps by RK4 (``INTEGRATOR``; ``step`` defaults to Euler);
estimates and the oracle's tail check use the library defaults.

Progress goes to standard error; data only to files.
"""

import json
import os
import sys

import numpy as np

from . import __version__
from .chain import coherent_bargmann, estimate, initial_chain, step
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, validate_config
from .oracle import antinormal_expectation, build_initial, evolve

CSV_HEADER = "t,observable,estimate_re,estimate_im,stderr,oracle_re,oracle_im"
INTEGRATOR = "rk4"


def _log(msg):
    print(f"[semichain] {msg}", file=sys.stderr, flush=True)


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def _emit_rows(t, config: RunConfig, chain_state, oracle_state):
    rows = []
    for ob in config.observables:
        est_re = est_im = se = None
        orc_re = orc_im = None
        if chain_state is not None:
            val, stderr = estimate(chain_state, ob)
            est_re, est_im, se = val.real, val.imag, stderr
        if oracle_state is not None:
            ref = antinormal_expectation(oracle_state, ob)
            orc_re, orc_im = ref.real, ref.imag
        rows.append(",".join([
            _fmt(t), ob.name or "unnamed",
            _fmt(est_re), _fmt(est_im), _fmt(se), _fmt(orc_re), _fmt(orc_im),
        ]))
    return rows


def _schedule(config: RunConfig):
    n_blocks = int(round(config.t_final / config.record_every))
    steps_per_block = int(round(config.record_every / config.chain["eps"]))
    return n_blocks, steps_per_block


def run(config: RunConfig, out_dir) -> dict:
    """Execute a run from scratch; returns the paths of the CSV, the
    manifest and the last checkpoint. A run that is interrupted leaves
    the checkpoint of its last finished block and no CSV; ``resume``
    continues from it."""
    os.makedirs(out_dir, exist_ok=True)
    chain_state = None
    oracle_state = None
    if config.engine in ("chain", "both"):
        # a coherent start is drawn exactly: no walk, so no step cap
        phi0 = coherent_bargmann(config.alpha0, config.atomic)
        _log(f"sampling initial chain: N={config.chain['n_points']}")
        chain_state = initial_chain(
            phi0, config.spec.n_modes, config.chain["n_points"],
            rng=np.random.default_rng(config.seed))
    if config.engine in ("oracle", "both"):
        cutoffs = [config.oracle["cutoff"]] * config.spec.n_modes
        oracle_state = build_initial(config.spec, config.atomic, config.alpha0,
                                     cutoffs)
    rows = _emit_rows(0.0, config, chain_state, oracle_state)
    return _run_loop(config, out_dir, chain_state, oracle_state, rows,
                     blocks_done=0)


def resume(checkpoint_path, out_dir) -> dict:
    """Continue a checkpointed run; the final CSV is identical to the
    uninterrupted run's."""
    data = load_checkpoint(checkpoint_path)
    config = validate_config(data["config"])
    os.makedirs(out_dir, exist_ok=True)
    _log(f"resuming after block {data['blocks_done']} "
         f"from {checkpoint_path}")
    return _run_loop(config, out_dir, data["chain"], data["oracle"],
                     list(data["rows"]), blocks_done=data["blocks_done"])


def _run_loop(config: RunConfig, out_dir, chain_state, oracle_state, rows,
              blocks_done) -> dict:
    n_blocks, steps_per_block = _schedule(config)
    eps = config.chain["eps"]
    csv_path = os.path.join(out_dir, "timeseries.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")

    for block in range(blocks_done, n_blocks):
        if chain_state is not None:
            for _ in range(steps_per_block):
                chain_state = step(chain_state, config.spec, eps,
                                   integrator=INTEGRATOR)
        if oracle_state is not None:
            oracle_state = evolve(oracle_state, config.spec,
                                  config.record_every)
        t = (block + 1) * config.record_every
        rows.extend(_emit_rows(t, config, chain_state, oracle_state))
        save_checkpoint(ckpt_path, config_resolved=config.resolved, rows=rows,
                        blocks_done=block + 1, chain=chain_state,
                        oracle_state=oracle_state)
        _log(f"block {block + 1}/{n_blocks} done (t={t:.6g})")

    with open(csv_path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row + "\n")
    manifest = {
        "package_version": __version__,
        "config": config.resolved,
        "applied_defaults": config.applied_defaults,
        "outputs": {"timeseries": os.path.basename(csv_path),
                    "checkpoint": os.path.basename(ckpt_path)},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _log(f"wrote {csv_path}")
    return {"timeseries": csv_path, "manifest": manifest_path,
            "checkpoint": ckpt_path}
