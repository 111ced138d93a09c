"""Experiment orchestration: run a validated config end to end.

Produces a CSV time series (one row per record time per observable), a
JSON manifest echoing the fully resolved configuration and every
applied default, and a checkpoint after each recorded block. Identical
seed and config give byte-identical CSV output; a resumed run continues
from the checkpoint and reproduces the uninterrupted file exactly
(emitted rows are stored in the checkpoint verbatim).

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
from .sampling import SamplerParams

CSV_HEADER = "t,observable,estimate_re,estimate_im,stderr,oracle_re,oracle_im"


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
            val, stderr = estimate(chain_state, ob,
                                   batch_count=config.chain["batch_count"])
            est_re, est_im, se = val.real, val.imag, stderr
        if oracle_state is not None:
            ref = antinormal_expectation(oracle_state, ob,
                                         config.oracle["tail_threshold"])
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


def run(config: RunConfig, out_dir, stop_after_blocks=None) -> dict:
    """Execute a run from scratch; returns the output paths.

    ``stop_after_blocks`` ends the run early after that many recorded
    blocks, leaving a checkpoint to resume from (no CSV is written for
    a partial run).
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    chain_state = None
    oracle_state = None
    if config.engine in ("chain", "both"):
        # a coherent start is drawn exactly: no walk, so the sampler's
        # knobs keep their defaults
        phi0 = coherent_bargmann(config.alpha0, config.atomic)
        _log(f"sampling initial chain: N={config.chain['n_points']}")
        chain_state = initial_chain(
            phi0, config.spec.n_modes, config.chain["n_points"],
            SamplerParams().step_cap, rng, lineage=(f"seed={config.seed}",))
    if config.engine in ("oracle", "both"):
        cutoffs = [config.oracle["cutoff"]] * config.spec.n_modes
        oracle_state = build_initial(config.spec, config.atomic, config.alpha0,
                                     cutoffs, config.oracle["tail_threshold"])
    rows = _emit_rows(0.0, config, chain_state, oracle_state)
    return _run_loop(config, out_dir, rng, chain_state, oracle_state, rows,
                     blocks_done=0, stop_after_blocks=stop_after_blocks)


def resume(checkpoint_path, out_dir) -> dict:
    """Continue a checkpointed run; the final CSV is identical to the
    uninterrupted run's."""
    data = load_checkpoint(checkpoint_path)
    config = validate_config(data["config"])
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    rng.bit_generator.state = data["rng_state"]
    _log(f"resuming after block {data['blocks_done']} "
         f"from {checkpoint_path}")
    return _run_loop(config, out_dir, rng, data["chain"], data["oracle"],
                     list(data["rows"]), blocks_done=data["blocks_done"])


def _run_loop(config: RunConfig, out_dir, rng, chain_state, oracle_state,
              rows, blocks_done, stop_after_blocks=None) -> dict:
    n_blocks, steps_per_block = _schedule(config)
    c = config.chain
    eps = c["eps"]
    csv_path = os.path.join(out_dir, "timeseries.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")

    for block in range(blocks_done, n_blocks):
        if chain_state is not None:
            for _ in range(steps_per_block):
                chain_state = step(chain_state, config.spec, eps,
                                   integrator=c["integrator"])
        if oracle_state is not None:
            oracle_state = evolve(oracle_state, config.spec,
                                  config.record_every,
                                  tail_threshold=config.oracle["tail_threshold"])
        t = (block + 1) * config.record_every
        rows.extend(_emit_rows(t, config, chain_state, oracle_state))
        save_checkpoint(ckpt_path, config_resolved=config.resolved,
                        rng_state=rng.bit_generator.state, rows=rows,
                        blocks_done=block + 1, chain=chain_state,
                        oracle_state=oracle_state)
        _log(f"block {block + 1}/{n_blocks} done (t={t:.6g})")
        if stop_after_blocks is not None and block + 1 >= stop_after_blocks \
                and block + 1 < n_blocks:
            _log(f"stopping early after block {block + 1}; resume from "
                 f"{ckpt_path}")
            return {"checkpoint": ckpt_path}

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
