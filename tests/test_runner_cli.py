import json
import struct

import numpy as np
import pytest

from semichain.checkpoint import CheckpointError, load_checkpoint
from semichain.cli import main as cli_main
from semichain.config import validate_config
from semichain.runner import CSV_HEADER, resume, run

from test_config import minimal_config


def small_config(engine="both", t_final=0.25, record_every=0.125, n_points=400,
                 seed=42, **chain_overrides):
    raw = minimal_config()
    raw["engine"] = engine
    raw["schedule"] = {"t_final": t_final, "record_every": record_every}
    chain = {"n_points": n_points}
    chain.update(chain_overrides)
    raw["chain"] = chain
    raw["oracle"] = {"cutoff": 14}
    raw["seed"] = seed
    raw["observables"].append(
        {"name": "aad", "poly": [{"c": [1.0, 0.0], "p": [1], "q": [1]}]})
    return raw


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_oracle_only_free_field_constant(tmp_path):
    raw = small_config(engine="oracle")
    raw["model"]["modes"][0]["j"] = [[[0.0, 0.0], [0.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0]]]
    cfg = validate_config(raw)
    paths = run(cfg, tmp_path / "out")
    lines = read(paths["timeseries"]).decode().strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    sz_rows = [r for r in rows if r[1] == "sz"]
    assert len(sz_rows) == 3  # t = 0, 0.125, 0.25
    vals = {float(r[6]) for r in sz_rows}  # oracle_im column is index 6
    refs = [float(r[5]) for r in sz_rows]
    assert max(refs) - min(refs) < 1e-12  # constant over time
    # estimate columns are empty for oracle-only runs
    assert all(r[2] == "" and r[3] == "" and r[4] == "" for r in sz_rows)


def test_chain_only_leaves_oracle_columns_empty(tmp_path):
    cfg = validate_config(small_config(engine="chain"))
    paths = run(cfg, tmp_path / "out")
    lines = read(paths["timeseries"]).decode().strip().split("\n")
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[5] == "" and r[6] == "" for r in rows)
    assert all(r[2] != "" for r in rows)


def test_determinism_byte_identical(tmp_path):
    cfg = validate_config(small_config())
    p1 = run(cfg, tmp_path / "a")
    p2 = run(cfg, tmp_path / "b")
    assert read(p1["timeseries"]) == read(p2["timeseries"])
    assert read(p1["manifest"]) == read(p2["manifest"])


def test_seed_changes_output(tmp_path):
    p1 = run(validate_config(small_config(seed=1)), tmp_path / "a")
    p2 = run(validate_config(small_config(seed=2)), tmp_path / "b")
    assert read(p1["timeseries"]) != read(p2["timeseries"])


def test_resume_reproduces_uninterrupted_run(tmp_path):
    cfg = validate_config(small_config())
    full = run(cfg, tmp_path / "full")
    partial = run(cfg, tmp_path / "part", stop_after_blocks=1)
    assert "timeseries" not in partial  # no CSV for a partial run
    resumed = resume(partial["checkpoint"], tmp_path / "part")
    assert read(resumed["timeseries"]) == read(full["timeseries"])


def _add_generator_state(path):
    """Give a checkpoint's header the ``rng_state`` key that older
    versions wrote: a PCG64 state with every integer as a string."""
    def enc(x):
        if isinstance(x, dict):
            return {k: enc(v) for k, v in x.items()}
        return {"__int__": str(x)} if isinstance(x, int) else x

    with open(path, "rb") as f:
        magic, (hlen,) = f.read(8), struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen))
        arrays = f.read()
    header["rng_state"] = enc(np.random.default_rng(42).bit_generator.state)
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<Q", len(blob)) + blob + arrays)


def test_resume_from_a_checkpoint_with_a_generator_state(tmp_path):
    cfg = validate_config(small_config())
    full = run(cfg, tmp_path / "full")
    partial = run(cfg, tmp_path / "part", stop_after_blocks=1)
    _add_generator_state(partial["checkpoint"])
    resumed = resume(partial["checkpoint"], tmp_path / "part")
    assert read(resumed["timeseries"]) == read(full["timeseries"])


def test_manifest_lists_applied_defaults(tmp_path):
    cfg = validate_config(small_config())
    paths = run(cfg, tmp_path / "out")
    manifest = json.loads(read(paths["manifest"]))
    assert manifest["config"]["seed"] == 42
    assert "chain.eps" in manifest["applied_defaults"]
    assert manifest["package_version"]


def test_checkpoint_roundtrip(tmp_path):
    cfg = validate_config(small_config())
    paths = run(cfg, tmp_path / "out")
    data = load_checkpoint(paths["checkpoint"])
    assert data["blocks_done"] == 2
    assert data["chain"].n_points == 400
    assert data["oracle"].time == pytest.approx(0.25)
    assert data["rows"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_cli_validate_ok(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert cli_main(["validate", str(cfg_path)]) == 0


def test_cli_validate_reports_all_errors(tmp_path, capsys):
    raw = small_config()
    del raw["seed"]
    raw["engine"] = "nope"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["validate", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "engine" in err


def test_cli_run_and_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(engine="oracle")))
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg_path), "--output-dir", str(out),
                     "--seed", "7"]) == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["config"]["seed"] == 7
    assert (out / "timeseries.csv").exists()


def test_cli_resume(tmp_path):
    cfg = validate_config(small_config(engine="oracle"))
    partial = run(cfg, tmp_path / "out", stop_after_blocks=1)
    assert cli_main(["resume", str(partial["checkpoint"]),
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "timeseries.csv").exists()


def test_cli_missing_file(tmp_path):
    assert cli_main(["run", str(tmp_path / "none.json")]) == 2


def test_csv_schema_matches_contract(tmp_path):
    cfg = validate_config(small_config())
    paths = run(cfg, tmp_path / "out")
    header = read(paths["timeseries"]).decode().split("\n", 1)[0]
    assert header == "t,observable,estimate_re,estimate_im,stderr,oracle_re,oracle_im"
