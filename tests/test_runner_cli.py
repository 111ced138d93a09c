import gc
import json
import struct
import weakref

import numpy as np
import pytest

from semichain import runner
from semichain.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
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


class _Interrupted(Exception):
    """Stands for whatever stops a run between two blocks, a kill say."""


def _interrupted_run(cfg, out_dir, monkeypatch):
    """Run ``cfg`` until the checkpoint of its first block is written,
    then stop it the way an interruption would; returns the checkpoint's
    path."""
    def save_then_stop(path, **kwargs):
        save_checkpoint(path, **kwargs)
        if kwargs["blocks_done"] == 1:
            raise _Interrupted

    with monkeypatch.context() as m:
        m.setattr(runner, "save_checkpoint", save_then_stop)
        with pytest.raises(_Interrupted):
            run(cfg, out_dir)
    assert not (out_dir / "timeseries.csv").exists()  # no CSV for a partial run
    return out_dir / "checkpoint.bin"


def test_resume_reproduces_uninterrupted_run(tmp_path, monkeypatch):
    cfg = validate_config(small_config())
    full = run(cfg, tmp_path / "full")
    partial = _interrupted_run(cfg, tmp_path / "part", monkeypatch)
    resumed = resume(partial, tmp_path / "part")
    assert read(resumed["timeseries"]) == read(full["timeseries"])


def _with_blob(raw, edit):
    """The checkpoint bytes ``raw`` with the header's JSON text passed
    through ``edit``; the arrays that follow it are kept."""
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    blob = edit(raw[16:16 + hlen])
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:]


def _with_header(raw, edit):
    """The checkpoint bytes ``raw`` with its parsed header changed in
    place by ``edit``."""
    def rewrite(blob):
        header = json.loads(blob)
        edit(header)
        return json.dumps(header).encode("utf-8")

    return _with_blob(raw, rewrite)


def _as_older_version(header):
    """Give the header of a checkpoint after one step the keys that older
    versions wrote: the chain's ``n_steps`` and ``lineage``, and an
    ``rng_state``, a PCG64 state with every integer as a string."""
    def enc(x):
        if isinstance(x, dict):
            return {k: enc(v) for k, v in x.items()}
        return {"__int__": str(x)} if isinstance(x, int) else x

    header["chain"]["n_steps"] = 1
    header["chain"]["lineage"] = ["seed=42"]
    header["rng_state"] = enc(np.random.default_rng(42).bit_generator.state)


def test_resume_from_a_checkpoint_with_a_generator_state(tmp_path, monkeypatch):
    cfg = validate_config(small_config())
    full = run(cfg, tmp_path / "full")
    partial = _interrupted_run(cfg, tmp_path / "part", monkeypatch)
    partial.write_bytes(_with_header(read(partial), _as_older_version))
    resumed = resume(partial, tmp_path / "part")
    assert read(resumed["timeseries"]) == read(full["timeseries"])


def _normalized(config):
    """The config echo that older versions stored: every complex entry
    a float [re, im] pair, every number of the schedule and of each mode
    a float, and every default written in."""
    def pairs(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()

    return {"model": {"h0": pairs(config.spec.h0),
                      "modes": [{"omega": float(m.omega), "j": pairs(m.j)}
                                for m in config.spec.modes]},
            "initial": {"atomic": pairs(config.atomic),
                        "alpha0": pairs(config.alpha0)},
            "engine": config.engine,
            "schedule": {"t_final": config.t_final,
                         "record_every": config.record_every},
            "chain": dict(config.chain), "oracle": dict(config.oracle),
            "observables": config.resolved["observables"],
            "seed": config.seed}


def test_resume_from_a_checkpoint_with_a_normalized_config(tmp_path,
                                                          monkeypatch):
    raw = small_config()
    raw["model"]["modes"][0]["omega"] = 1
    raw["initial"]["alpha0"] = [1]
    cfg = validate_config(raw)
    assert _normalized(cfg) != cfg.resolved
    full = run(cfg, tmp_path / "full")
    partial = _interrupted_run(cfg, tmp_path / "part", monkeypatch)
    partial.write_bytes(_with_header(
        read(partial), lambda h: h.update(config=_normalized(cfg))))
    resumed = resume(partial, tmp_path / "part")
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


def test_cli_freezes_the_import_graph_and_still_collects(tmp_path):
    # main freezes what the imports made, so the collections at exit
    # skip it; the collector stays on and frees cycles made afterwards.
    # A second call freezes nothing, so it pins no garbage the first
    # call left for the collector.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    assert cli_main(["validate", str(cfg_path)]) == 0
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert cli_main(["validate", str(cfg_path)]) == 0
    assert gc.get_freeze_count() == frozen

    class Node:
        pass

    a, b = Node(), Node()
    a.other, b.other = b, a
    ref = weakref.ref(a)
    del a, b
    gc.collect()
    assert ref() is None


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


def test_cli_resume(tmp_path, monkeypatch):
    cfg = validate_config(small_config(engine="oracle"))
    partial = _interrupted_run(cfg, tmp_path / "out", monkeypatch)
    assert cli_main(["resume", str(partial),
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "timeseries.csv").exists()


@pytest.fixture(scope="module")
def finished_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("finished")
    return run(validate_config(small_config(n_points=40)), out)["checkpoint"]


MALFORMED = {
    "missing_key": lambda raw: _with_header(raw, lambda h: h.pop("rows")),
    "wrong_type_rows": lambda raw: _with_header(
        raw, lambda h: h.update(rows=[1.0, 2.0])),
    "wrong_type_time": lambda raw: _with_header(
        raw, lambda h: h["chain"].update(time="0.25")),
    "null_segment_starts": lambda raw: _with_header(
        raw, lambda h: h["chain"].update(segment_starts=None)),
    "fractional_segment_starts": lambda raw: _with_header(
        raw, lambda h: h["chain"].update(segment_starts=[0.5])),
    "json_cut_short": lambda raw: _with_blob(raw, lambda b: b[:len(b) // 2]),
    "not_utf8": lambda raw: _with_blob(raw, lambda b: b"\xff" + b[1:]),
    "short_prelude": lambda raw: raw[:12],
    "array_does_not_fit": lambda raw: raw[:-16],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_checkpoint_is_one_error_line(case, finished_checkpoint,
                                                tmp_path, capsys):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(MALFORMED[case](read(finished_checkpoint)))
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(path)
    capsys.readouterr()
    assert cli_main(["resume", str(path), "--output-dir",
                     str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: CheckpointError: ")
    assert not (tmp_path / "out" / "timeseries.csv").exists()


def test_cli_missing_file(tmp_path):
    assert cli_main(["run", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("content, command", [
    (b'{"model": ', "validate"),
    (b"\xff\xfe{}", "validate"),
    (b"[1, 2]", "run"),
], ids=["json_cut_short", "not_utf8", "not_an_object"])
def test_cli_reports_an_unusable_config(content, command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    extra = (["--seed", "3", "--output-dir", str(tmp_path / "out")]
             if command == "run" else [])
    assert cli_main([command, str(path)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config errors:\n  - config ")
    assert len(err.strip().split("\n")) == 2


def test_cli_lists_every_malformed_entry(tmp_path, capsys):
    raw = small_config()
    raw["chian"] = {"n_points": 100}
    raw["schedule"]["record_evry"] = 0.125
    raw["initial"]["alpha0"] = [[1.0, 0.0], True]
    raw["observables"] += [
        {"name": "s,z", "pol": [{"p": [1], "q": [1]}]},
        {"name": ["x"], "poly": 5},
        {"poly": [{"p": 1, "q": [1]}, {"p": [1.5], "q": [0]}]},
    ]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    problems = [
        "chian: unknown option",
        "schedule.record_evry: unknown option",
        "initial.alpha0[1]: expected a finite number or [re, im] pair",
        "observables[2].pol: unknown option",
        "observables[2].name: expected a non-empty string",
        "observables[3].name: expected a non-empty string",
        "observables[3].poly: expected an array, got 5",
        "observables[4].poly[0].p: expected an array of 1 non-negative",
        "observables[4].poly[1].p: expected an array of 1 non-negative",
    ]
    for command in (["validate"], ["run", "--output-dir", str(tmp_path)]):
        assert cli_main([command[0], str(path)] + command[1:]) == 2
        err = capsys.readouterr().err.split("\n")
        assert err[0] == "config errors:"
        for problem in problems:
            assert any(line.startswith(f"  - {problem}") for line in err), problem
    assert not (tmp_path / "timeseries.csv").exists()


def test_cli_config_path_is_a_directory(tmp_path, capsys):
    assert cli_main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")


def test_csv_schema_matches_contract(tmp_path):
    cfg = validate_config(small_config())
    paths = run(cfg, tmp_path / "out")
    header = read(paths["timeseries"]).decode().split("\n", 1)[0]
    assert header == "t,observable,estimate_re,estimate_im,stderr,oracle_re,oracle_im"
