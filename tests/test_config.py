import copy
import json

import numpy as np
import pytest

from semichain.config import parse_config_text, validate_config
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
    assert cfg.chain == {"n_points": 20000, "eps": 0.125}
    assert cfg.oracle == {"cutoff": 16}
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
    raw["schedule"]["record_every"] = 0.1
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("schedule.record_every")
               and "chain.eps = 0.125 (the default)" in p for p in probs)
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
    cfg = validate_config(parse_config_text(json.dumps(minimal_config())))
    assert cfg.engine == "both"


def _same_run(a, b):
    """The two RunConfigs describe the same run."""
    assert np.array_equal(a.spec.h0, b.spec.h0)
    assert len(a.spec.modes) == len(b.spec.modes)
    assert all(m.omega == n.omega and np.array_equal(m.j, n.j)
               for m, n in zip(a.spec.modes, b.spec.modes))
    assert np.array_equal(a.atomic, b.atomic)
    assert np.array_equal(a.alpha0, b.alpha0)
    assert len(a.observables) == len(b.observables)
    for x, y in zip(a.observables, b.observables):
        assert x.name == y.name and x.poly == y.poly
        assert (x.f is None) == (y.f is None)
        assert x.f is None or np.array_equal(x.f, y.f)
    assert (a.engine, a.seed, a.t_final, a.record_every, a.chain, a.oracle) \
        == (b.engine, b.seed, b.t_final, b.record_every, b.chain, b.oracle)


def test_resolved_roundtrips():
    raw = minimal_config()
    raw["observables"].append({"poly": [{"p": [1], "q": [1]}]})
    given = copy.deepcopy(raw)
    cfg = validate_config(raw)
    assert raw == given  # the input is not changed
    expected = copy.deepcopy(raw)
    expected["schedule"]["record_every"] = 1.0
    expected["chain"] = {"n_points": 20000, "eps": 0.125}
    expected["oracle"] = {"cutoff": 16}
    assert cfg.resolved == expected
    # numbers are echoed as written, and read back to the same run
    raw["initial"]["alpha0"] = [[1, 0]]
    raw["model"]["modes"][0]["omega"] = 1
    cfg = validate_config(raw)
    assert json.dumps(cfg.resolved["initial"]["alpha0"]) == "[[1, 0]]"
    assert cfg.resolved["model"]["modes"][0]["omega"] == 1
    _same_run(validate_config(cfg.resolved), cfg)
    _same_run(validate_config(json.loads(json.dumps(cfg.resolved))), cfg)


def _observable(raw, **entry):
    raw["observables"].append(dict({"name": "extra"}, **entry))


@pytest.mark.parametrize("change, problem", [
    (lambda raw: raw.update(chian={"n_points": 100}), "chian: unknown option"),
    (lambda raw: raw["model"].update(H0=[]), "model.H0: unknown option"),
    (lambda raw: raw["model"]["modes"][0].update(freq=1.0),
     "model.modes[0].freq: unknown option"),
    (lambda raw: raw["initial"].update(alpha=[[1, 0]]),
     "initial.alpha: unknown option"),
    (lambda raw: raw["schedule"].update(record_evry=0.5),
     "schedule.record_evry: unknown option"),
    (lambda raw: _observable(raw, pol=[{"p": [1], "q": [1]}]),
     "observables[1].pol: unknown option"),
    (lambda raw: _observable(raw, poly=[{"p": [1], "q": [1], "coeff": 2}]),
     "observables[1].poly[0].coeff: unknown option"),
    (lambda raw: _observable(raw, poly=[{"p": [1.5], "q": [0]}]),
     "observables[1].poly[0].p: expected an array of 1 non-negative "
     "integers, got [1.5]"),
    (lambda raw: _observable(raw, poly=[{"p": [True], "q": [0]}]),
     "observables[1].poly[0].p: expected an array of 1 non-negative "
     "integers, got [True]"),
    (lambda raw: _observable(raw, poly=[{"p": [0], "q": [-1]}]),
     "observables[1].poly[0].q: expected an array of 1 non-negative "
     "integers, got [-1]"),
    (lambda raw: _observable(raw, poly=[{"p": 1, "q": [1]}]),
     "observables[1].poly[0].p: expected an array of 1 non-negative "
     "integers, got 1"),
    (lambda raw: _observable(raw, poly=[{"p": [1, 0], "q": [1]}]),
     "observables[1].poly[0].p: expected an array of 1 non-negative "
     "integers, got [1, 0]"),
    (lambda raw: _observable(raw, poly=5),
     "observables[1].poly: expected an array, got 5"),
    (lambda raw: raw["model"]["modes"][0].update(omega="1.0"),
     "model.modes[0].omega: expected a finite number, got '1.0'"),
    (lambda raw: raw["model"]["modes"][0].update(omega=True),
     "model.modes[0].omega: expected a finite number, got True"),
], ids=["top_level", "model", "mode", "initial", "schedule", "observable",
        "monomial", "float_power", "bool_power", "negative_power",
        "power_not_an_array", "power_per_mode", "poly_not_an_array",
        "omega_text", "omega_bool"])
def test_malformed_entries_listed_with_other_errors(change, problem):
    # every object rejects a key it does not know, and every entry is
    # checked for its type: none is ignored, cut or read as another type
    raw = minimal_config()
    change(raw)
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert problem in probs
    assert any(p.startswith("seed") for p in probs)


def test_broken_model_still_lists_observable_problems():
    # only the sizes of f, p and q need the model; every other problem
    # of an observable is reported with the model's own
    raw = minimal_config()
    raw["observables"] += [
        {"name": "a", "pol": [{"p": [1], "q": [1]}]},
        {"name": "b", "poly": 5},
        {"name": "c", "poly": [{"p": 1, "q": [1]}]},
    ]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.problems == [
        "observables[1].pol: unknown option",
        "observables[2].poly: expected an array, got 5",
        "observables[3].poly[0].p: expected an array of 1 non-negative "
        "integers, got 1",
    ]
    raw["model"]["modes"][0]["omega"] = True
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.problems == [
        "model.modes[0].omega: expected a finite number, got True",
        "observables[1].pol: unknown option",
        "observables[2].poly: expected an array, got 5",
        "observables[3].poly[0].p: expected an array of non-negative "
        "integers, got 1",
    ]


@pytest.mark.parametrize("observables, problems", [
    ([{"poly": [{"p": 1, "q": [1]}, {"p": [1.5], "q": [0]}]}],
     ["observables[0].poly[0].p: expected an array of 1 non-negative "
      "integers, got 1",
      "observables[0].poly[1].p: expected an array of 1 non-negative "
      "integers, got [1.5]"]),
    ([{"poly": []}], ["observables[0]: empty polynomial"]),
    ([], ["observables: at least one observable is required"]),
    (None, ["observables: at least one observable is required"]),
    (5, ["observables: expected an array"]),
], ids=["malformed_monomials", "empty_poly", "empty_list", "missing",
        "not_an_array"])
def test_observable_problems_are_reported_once(observables, problems):
    # a poly whose every monomial is malformed is not empty, and a list
    # of malformed observables is not missing: no line restates them
    raw = minimal_config()
    if observables is None:
        del raw["observables"]
    else:
        raw["observables"] = observables
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.problems == problems


@pytest.mark.parametrize("change, problem", [
    (lambda raw: raw["observables"][0].update(f=5),
     "observables[0].f: expected a 2-D array"),
    (lambda raw: raw["observables"][0].update(f=[[[1, 0]], [[1, 0], [0, 0]]]),
     "observables[0].f: rows have unequal lengths"),
    (lambda raw: raw["observables"][0].update(f=[[]]),
     "observables[0].f[0]: expected a non-empty array"),
    (lambda raw: raw["model"].update(h0=5), "model.h0: expected a 2-D array"),
    (lambda raw: raw["model"]["modes"][0].update(j=5),
     "model.modes[0].j: expected a 2-D array"),
], ids=["f", "f_ragged", "f_empty_row", "h0", "j"])
def test_malformed_matrix_gets_one_line(change, problem):
    # a matrix that could not be read has no size to compare with the
    # model's dimension, so no second line reports one
    raw = minimal_config()
    change(raw)
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.problems == [problem]


@pytest.mark.parametrize("name", ["s,z", 's"z', "s\nz", "s\rz", "", ["x"], 3])
def test_observable_name_must_be_one_csv_field(name):
    raw = minimal_config()
    raw["observables"][0]["name"] = name
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    assert any(p.startswith("observables[0].name: expected a non-empty "
                            "string") for p in probs)
    assert any(p.startswith("seed") for p in probs)


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


def test_midpoint_integrator_rejected_with_other_errors():
    # the runner always steps RK4, so the integrator key is gone: any
    # value, the retired midpoint included, is an unknown option
    for integrator in ("midpoint", "euler", "rk4"):
        raw = minimal_config(chain={"integrator": integrator})
        del raw["seed"]
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        probs = exc.value.problems
        assert "chain.integrator: unknown option" in probs
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
    text = json.dumps(minimal_config(chain={"eps": float("nan"),
                                            "n_points": float("inf")}))
    text = text.replace('"t_final": 1.0', '"t_final": Infinity')
    with pytest.raises(ConfigError) as exc:
        validate_config(parse_config_text(text))
    probs = exc.value.problems
    for key in ("chain.eps", "chain.n_points", "schedule.t_final"):
        assert any(p.startswith(key) for p in probs), key
    raw = minimal_config()
    raw["initial"]["atomic"] = [[float("nan"), 0.0], [0.0, 0.0]]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert any(p.startswith("initial.atomic[0]") for p in exc.value.problems)


@pytest.mark.parametrize("cutoff", ["many", -3, 2.5, 1, True])
def test_bad_oracle_values_rejected_with_other_errors(cutoff):
    raw = minimal_config(oracle={"cutoff": cutoff})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    for key in ("oracle.cutoff", "seed"):
        assert any(p.startswith(key) for p in probs), key
    cfg = validate_config(minimal_config(oracle={"cutoff": 2}))
    assert cfg.oracle == {"cutoff": 2}


def test_retired_keys_are_all_listed_with_other_errors():
    # the runner steps RK4, estimates with 32 batches and checks the
    # oracle's tail at 1e-8 through module constants: a config, or the
    # resolved config of an older checkpoint, that names any of the
    # retired keys gets one problem per key, with every other problem
    raw = minimal_config(chain={"integrator": "rk4", "batch_count": 32},
                         oracle={"cutoff": 16, "tail_threshold": 1e-8})
    del raw["seed"]
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    probs = exc.value.problems
    for key in ("chain.integrator", "chain.batch_count",
                "oracle.tail_threshold"):
        assert f"{key}: unknown option" in probs
    assert any("seed" in p for p in probs)
    assert len(probs) == 4
