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
    assert cfg.chain["eps"] == 2.5e-2
    assert cfg.chain["integrator"] == "midpoint"
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


def test_record_every_off_the_default_eps_names_the_default():
    raw = minimal_config()
    raw["schedule"]["record_every"] = 0.01
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("schedule.record_every")
               and "chain.eps = 0.025 (the default)" in p for p in probs)
    assert any("seed" in p for p in probs)
    # a set eps is named without the remark, and one that divides passes
    raw = minimal_config(chain={"eps": 0.003})
    raw["schedule"]["record_every"] = 0.01
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any("chain.eps = 0.003, got 0.01" in p for p in exc.value.problems)
    raw["chain"]["eps"] = 1e-3
    assert validate_config(raw).record_every == 0.01


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


def test_deriv_window_rejected_with_other_errors():
    raw = minimal_config(chain={"deriv_window": 2})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("chain.deriv_window") and "unknown option" in p
               for p in probs)
    assert any("seed" in p for p in probs)


def test_centered_deriv_scheme_rejected_with_other_errors():
    raw = minimal_config(chain={"deriv_scheme": "centered"})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("chain.deriv_scheme") for p in probs)
    assert any("seed" in p for p in probs)


def test_multimode_chain_engine_rejected_with_other_errors():
    raw = minimal_config()
    raw["model"]["modes"].append(dict(raw["model"]["modes"][0], omega=1.2))
    raw["initial"]["alpha0"] = [[1.0, 0.0], [0.8, 0.0]]
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("engine: both") and "single-mode" in p
               for p in probs)
    assert any("seed" in p for p in probs)
    raw["seed"] = 42
    raw["engine"] = "oracle"
    assert validate_config(raw).spec.n_modes == 2


@pytest.mark.parametrize("t_final, record_every",
                         [(1.0, 0.4), (1.0, 3.0), (1e-20, 1e308)])
def test_t_final_must_be_whole_number_of_blocks(t_final, record_every):
    # 0.4 would end the run at t = 0.8, 3.0 would record only t = 0, and
    # the last ratio underflows to 0 blocks
    raw = minimal_config()
    raw["schedule"] = {"t_final": t_final, "record_every": record_every}
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("schedule.t_final") for p in probs)
    assert any("seed" in p for p in probs)


@pytest.mark.parametrize("key, value", [
    ("burn_in", 5000), ("reformat", "off"), ("delta_min", 1e-8),
    ("step_cap", 0.45), ("segment_len", 6), ("reformat_burn_in", 100)])
def test_retired_chain_keys_are_unknown_options(key, value):
    # a coherent start is drawn exactly and the runner never reformats,
    # so the sampler's and reformat's keys reach no code; each is an
    # unknown option, reported together with every other problem
    raw = minimal_config(chain={key: value})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert f"chain.{key}: unknown option" in probs
    assert any("seed" in p for p in probs)


def test_non_finite_numbers_rejected():
    import json
    text = json.dumps(minimal_config(chain={"eps": float("nan"),
                                            "batch_count": float("inf")}))
    text = text.replace('"t_final": 1.0', '"t_final": Infinity')
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    probs = exc.value.problems
    for key in ("chain.eps", "chain.batch_count", "schedule.t_final"):
        assert any(p.startswith(key) for p in probs), key
    raw = minimal_config()
    raw["initial"]["atomic"] = [[float("nan"), 0.0], [0.0, 0.0]]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any(p.startswith("initial.atomic[0]") for p in exc.value.problems)


@pytest.mark.parametrize("cutoff", ["many", -3, 2.5, 1, True])
def test_bad_oracle_values_rejected_with_other_errors(cutoff):
    raw = minimal_config(oracle={"cutoff": cutoff,
                                 "tail_threshold": float("nan")})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    for key in ("oracle.cutoff", "oracle.tail_threshold", "seed"):
        assert any(p.startswith(key) for p in probs), key
    cfg = validate_config(minimal_config(oracle={"cutoff": 2,
                                                 "tail_threshold": 1.0}))
    assert cfg.oracle == {"cutoff": 2, "tail_threshold": 1.0}
