import numpy as np
import pytest

from semichain.config import validate_config
from semichain.errors import ConfigError


def minimal_config(**overrides):
    cfg = {
        "model": {
            "h0": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            "modes": [{"omega": 1.0,
                       "j": [[[0.0, 0.0], [0.0, 0.0]], [[0.2, 0.0], [0.0, 0.0]]]}],
        },
        "initial": {"atomic": [[1.0, 0.0], [0.0, 0.0]], "alpha0": [[1.0, 0.0]]},
        "engine": "both",
        "schedule": {"t_final": 1.0},
        "observables": [
            {"name": "sz", "f": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]},
        ],
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg


def test_minimal_config_gets_defaults():
    cfg = validate_config(minimal_config())
    assert cfg.chain["eps"] == 1e-3
    assert cfg.chain["n_points"] == 20000
    assert cfg.oracle["cutoff"] == 16
    assert cfg.record_every == cfg.t_final
    assert "chain.eps" in cfg.applied_defaults
    assert "oracle.cutoff" in cfg.applied_defaults
    assert cfg.applied_defaults["schedule.record_every"] == 1.0
    assert cfg.spec.d == 2 and cfg.spec.n_modes == 1
    assert cfg.observables[0].name == "sz"


def test_non_hermitian_h0_single_diagnostic():
    raw = minimal_config()
    raw["model"]["h0"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("Hermitian" in p for p in exc.value.problems)


def test_multiple_errors_all_reported():
    raw = minimal_config()
    raw["model"]["h0"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any("Hermitian" in p for p in probs)
    assert any("seed" in p for p in probs)
    assert len(probs) >= 2


def test_missing_seed_rejected():
    raw = minimal_config()
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("seed" in p for p in exc.value.problems)


def test_dimension_mismatch_reported():
    raw = minimal_config()
    raw["initial"]["atomic"] = [[1.0, 0.0]]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("dimension" in p for p in exc.value.problems)


def test_record_every_must_divide():
    raw = minimal_config()
    raw["schedule"]["record_every"] = 0.00037
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("multiple" in p for p in exc.value.problems)


def test_unknown_chain_option_rejected():
    raw = minimal_config(chain={"n_pts": 100})
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("unknown option" in p for p in exc.value.problems)


def test_unnormalized_atomic_rejected():
    raw = minimal_config()
    raw["initial"]["atomic"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("normalized" in p for p in exc.value.problems)


def test_engine_checked():
    raw = minimal_config(engine="quantum")
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("engine" in p for p in exc.value.problems)


def test_json_text_accepted():
    import json
    cfg = validate_config(json.dumps(minimal_config()))
    assert cfg.engine == "both"


def test_resolved_roundtrips():
    cfg = validate_config(minimal_config())
    again = validate_config(cfg.resolved)
    assert np.allclose(again.spec.h0, cfg.spec.h0)
    assert again.seed == cfg.seed
    assert again.chain == cfg.chain


def test_observable_poly_from_config():
    raw = minimal_config()
    raw["observables"].append(
        {"name": "aad", "poly": [{"c": [1.0, 0.0], "p": [1], "q": [1]}]})
    cfg = validate_config(raw)
    ob = cfg.observables[1]
    assert ob.f is None
    assert ob.poly[0].p == (1,) and ob.poly[0].q == (1,)


def test_oracle_dt_rejected_with_other_errors():
    raw = minimal_config(oracle={"dt": 1e-3})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("oracle.dt") and "unknown option" in p for p in probs)
    assert any("seed" in p for p in probs)
