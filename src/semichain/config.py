"""Run configuration: parsing, validation, defaults.

A run is described by a single JSON document (key/value tree, arrays;
complex numbers as two-element [re, im] arrays). Validation collects
every problem it finds and reports them together; on success it returns
a fully defaulted RunConfig plus the list of defaults that were applied
so the run manifest can echo them.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SemichainError
from .model import FieldMode, ModelSpec
from .observables import Monomial, Observable

CHAIN_DEFAULTS = {
    "n_points": 20000,
    "eps": 2.5e-2,
    "batch_count": 32,
    "integrator": "midpoint",  # step() itself defaults to euler
}

ORACLE_DEFAULTS = {
    "cutoff": 16,
    "tail_threshold": 1e-8,
}

SCHEDULE_DEFAULTS = {
    "record_every": None,     # None -> t_final (record only start and end)
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted description of one run."""

    spec: ModelSpec
    atomic: np.ndarray
    alpha0: np.ndarray
    engine: str               # chain | oracle | both
    observables: tuple
    seed: int
    t_final: float
    record_every: float
    chain: dict
    oracle: dict
    resolved: dict = field(repr=False)        # full config echo
    applied_defaults: dict = field(repr=False)


def _finite_number(x) -> bool:
    """A JSON number other than NaN and +-Infinity (which json.loads
    accepts); booleans are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _whole_multiple(a, b) -> bool:
    """a / b is a positive integer, within 1e-9 relative."""
    ratio = a / b
    return (math.isfinite(ratio) and round(ratio) >= 1
            and abs(ratio - round(ratio)) <= 1e-9 * ratio)


def _complex_scalar(v, path, errors):
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(_finite_number(x) for x in v)):
        return complex(v[0], v[1])
    if _finite_number(v):
        return complex(v)
    errors.append(f"{path}: expected a finite number or [re, im] pair, got {v!r}")
    return 0j


def _complex_vector(v, path, errors):
    if not isinstance(v, list) or not v:
        errors.append(f"{path}: expected a non-empty array")
        return np.zeros(1, dtype=complex)
    return np.array([_complex_scalar(x, f"{path}[{i}]", errors)
                     for i, x in enumerate(v)])


def _complex_matrix(v, path, errors):
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        errors.append(f"{path}: expected a 2-D array")
        return np.zeros((1, 1), dtype=complex)
    rows = [_complex_vector(r, f"{path}[{i}]", errors) for i, r in enumerate(v)]
    if len({r.shape[0] for r in rows}) != 1:
        errors.append(f"{path}: rows have unequal lengths")
        return np.zeros((1, 1), dtype=complex)
    return np.array(rows)


def _to_jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return np.stack([x.real, x.imag], axis=-1).tolist()
        return x.tolist()
    if isinstance(x, dict):
        return {k: _to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_jsonable(v) for v in x]
    return x


def _model_from(raw, errors):
    model = raw.get("model")
    if not isinstance(model, dict):
        errors.append("model: section missing")
        return None
    h0 = _complex_matrix(model.get("h0", []), "model.h0", errors)
    modes_raw = model.get("modes")
    if not isinstance(modes_raw, list) or not modes_raw:
        errors.append("model.modes: expected a non-empty array of modes")
        return None
    modes = []
    for i, m in enumerate(modes_raw):
        if not isinstance(m, dict) or "omega" not in m or "j" not in m:
            errors.append(f"model.modes[{i}]: need 'omega' and 'j'")
            continue
        j = _complex_matrix(m["j"], f"model.modes[{i}].j", errors)
        try:
            modes.append(FieldMode(float(m["omega"]), j))
        except (TypeError, ValueError, SemichainError) as e:
            errors.append(f"model.modes[{i}]: {e}")
    if errors:
        return None
    try:
        return ModelSpec(h0=h0, modes=tuple(modes))
    except SemichainError as e:
        errors.append(f"model: {e}")
        return None


def _observables_from(raw, n_modes, d, errors):
    entries = raw.get("observables")
    if entries is None:
        return ()
    if not isinstance(entries, list):
        errors.append("observables: expected an array")
        return ()
    out = []
    for i, ob in enumerate(entries):
        path = f"observables[{i}]"
        if not isinstance(ob, dict):
            errors.append(f"{path}: expected an object")
            continue
        name = ob.get("name", f"obs{i}")
        f = ob.get("f")
        fmat = None if f is None else _complex_matrix(f, f"{path}.f", errors)
        if fmat is not None and fmat.shape != (d, d):
            errors.append(f"{path}.f: expected {d}x{d}, got {fmat.shape}")
            continue
        poly_raw = ob.get("poly")
        if poly_raw is None:
            poly = (Monomial(1.0, (0,) * n_modes, (0,) * n_modes),)
        else:
            poly = []
            for jm, mono in enumerate(poly_raw):
                mpath = f"{path}.poly[{jm}]"
                if not isinstance(mono, dict):
                    errors.append(f"{mpath}: expected an object")
                    continue
                c = _complex_scalar(mono.get("c", 1.0), f"{mpath}.c", errors)
                p = mono.get("p", [0] * n_modes)
                q = mono.get("q", [0] * n_modes)
                if len(p) != n_modes or len(q) != n_modes:
                    errors.append(f"{mpath}: p and q need one entry per mode")
                    continue
                try:
                    poly.append(Monomial(c, tuple(p), tuple(q)))
                except ValueError as e:
                    errors.append(f"{mpath}: {e}")
            poly = tuple(poly)
        if not poly:
            errors.append(f"{path}: empty polynomial")
            continue
        try:
            out.append(Observable(f=fmat, poly=poly, name=str(name)))
        except (ValueError, SemichainError) as e:
            errors.append(f"{path}: {e}")
    return tuple(out)


def _positive(raw, key, path, errors):
    v = raw.get(key)
    if not _finite_number(v):
        errors.append(f"{path}.{key}: expected a positive number, got {v!r}")
        return None
    if v <= 0:
        errors.append(f"{path}.{key}: must be positive, got {v!r}")
        return None
    return float(v)


def validate_config(raw) -> RunConfig:
    """Validate a raw config (dict or JSON text) into a RunConfig.

    Raises ConfigError carrying the complete list of problems when
    anything is wrong; never stops at the first error.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError([f"config is not valid JSON: {e}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    errors = []
    applied = {}

    spec = _model_from(raw, errors)
    engine = raw.get("engine", "both")
    if engine not in ("chain", "oracle", "both"):
        errors.append(f"engine: expected chain|oracle|both, got {engine!r}")
    if "engine" not in raw:
        applied["engine"] = "both"

    seed = raw.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append("seed: required integer (no silent nondeterminism)")
        seed = 0

    schedule = raw.get("schedule")
    t_final = record_every = None
    if not isinstance(schedule, dict):
        errors.append("schedule: section missing (needs t_final)")
    else:
        t_final = _positive(schedule, "t_final", "schedule", errors)
        if "record_every" in schedule:
            record_every = _positive(schedule, "record_every", "schedule", errors)
        elif t_final is not None:
            record_every = t_final
            applied["schedule.record_every"] = t_final

    atomic = alpha0 = None
    initial = raw.get("initial")
    if not isinstance(initial, dict):
        errors.append("initial: section missing (needs atomic and alpha0)")
    else:
        atomic = _complex_vector(initial.get("atomic", []), "initial.atomic", errors)
        alpha0 = _complex_vector(initial.get("alpha0", []), "initial.alpha0", errors)
        nrm = np.linalg.norm(atomic)
        if nrm == 0.0:
            errors.append("initial.atomic: zero vector")
        elif abs(nrm - 1.0) > 1e-9:
            errors.append("initial.atomic: must be normalized (norm "
                          f"{nrm:.6f}); normalize it explicitly")

    chain_cfg = dict(CHAIN_DEFAULTS)
    raw_chain = raw.get("chain", {})
    if not isinstance(raw_chain, dict):
        errors.append("chain: expected an object")
        raw_chain = {}
    for key in raw_chain:
        if key not in CHAIN_DEFAULTS:
            errors.append(f"chain.{key}: unknown option")
    for key, default in CHAIN_DEFAULTS.items():
        if key in raw_chain:
            chain_cfg[key] = raw_chain[key]
        else:
            applied[f"chain.{key}"] = default
    eps = _positive(chain_cfg, "eps", "chain", errors)
    for key in ("n_points", "batch_count"):
        if not _positive_int(chain_cfg[key]):
            errors.append(f"chain.{key}: must be a positive integer")
    if chain_cfg["integrator"] not in ("euler", "midpoint"):
        errors.append("chain.integrator: expected euler|midpoint")

    oracle_cfg = dict(ORACLE_DEFAULTS)
    raw_oracle = raw.get("oracle", {})
    if not isinstance(raw_oracle, dict):
        errors.append("oracle: expected an object")
        raw_oracle = {}
    for key in raw_oracle:
        if key not in ORACLE_DEFAULTS:
            errors.append(f"oracle.{key}: unknown option")
    for key, default in ORACLE_DEFAULTS.items():
        if key in raw_oracle:
            oracle_cfg[key] = raw_oracle[key]
        else:
            applied[f"oracle.{key}"] = default
    cutoff = oracle_cfg["cutoff"]
    if not _positive_int(cutoff) or cutoff < 2:
        errors.append(f"oracle.cutoff: must be an integer >= 2, got {cutoff!r}")
    _positive(oracle_cfg, "tail_threshold", "oracle", errors)

    if spec is not None and atomic is not None:
        if atomic.shape[0] != spec.d:
            errors.append(f"initial.atomic: dimension {atomic.shape[0]} does "
                          f"not match model dimension {spec.d}")
        if alpha0.shape[0] != spec.n_modes:
            errors.append(f"initial.alpha0: {alpha0.shape[0]} entries for "
                          f"{spec.n_modes} modes")

    if (spec is not None and spec.n_modes > 1
            and engine in ("chain", "both")):
        errors.append(f"engine: {engine} needs a single-mode model, this one "
                      f"has {spec.n_modes} modes; use engine oracle")

    observables = ()
    if spec is not None:
        observables = _observables_from(raw, spec.n_modes, spec.d, errors)
        if not observables:
            errors.append("observables: at least one observable is required")

    if t_final is not None and record_every is not None:
        if not _whole_multiple(t_final, record_every):
            errors.append("schedule.t_final must be a positive integer "
                          "multiple of schedule.record_every")
        if eps is not None and not _whole_multiple(record_every, eps):
            origin = " (the default)" if "chain.eps" in applied else ""
            errors.append("schedule.record_every must be a positive integer "
                          f"multiple of chain.eps = {eps:g}{origin}, got "
                          f"{record_every:g}")

    if errors:
        raise ConfigError(errors)

    resolved = {
        "model": _to_jsonable({"h0": spec.h0,
                               "modes": [{"omega": m.omega, "j": m.j}
                                         for m in spec.modes]}),
        "initial": _to_jsonable({"atomic": atomic, "alpha0": alpha0}),
        "engine": engine,
        "schedule": {"t_final": t_final, "record_every": record_every},
        "chain": dict(chain_cfg),
        "oracle": dict(oracle_cfg),
        "observables": raw.get("observables"),
        "seed": seed,
    }
    return RunConfig(
        spec=spec, atomic=atomic, alpha0=alpha0, engine=engine,
        observables=observables, seed=seed, t_final=t_final,
        record_every=record_every, chain=chain_cfg, oracle=oracle_cfg,
        resolved=resolved, applied_defaults=applied,
    )
