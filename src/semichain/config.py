"""Run configuration: parsing, validation, defaults.

A run is described by a single JSON document (key/value tree, arrays;
complex numbers as two-element [re, im] arrays). Validation collects
every problem it finds, an unknown key at any level among them, and
reports them together; on success it returns a fully defaulted
RunConfig, which echoes the document plus the defaults it applied.
"""

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SemichainError
from .model import FieldMode, ModelSpec
from .observables import Monomial, Observable, unit_poly

CHAIN_DEFAULTS = {
    "n_points": 20000,
    "eps": 0.125,         # the runner's RK4 step (runner.INTEGRATOR)
}

ORACLE_DEFAULTS = {
    "cutoff": 16,
}

# The keys each object of a config may hold; any other is an unknown
# option. A mode, an observable and a monomial are array entries.
_KEYS = {
    "config": ("model", "initial", "engine", "schedule", "chain", "oracle",
               "observables", "seed"),
    "model": ("h0", "modes"), "mode": ("omega", "j"),
    "initial": ("atomic", "alpha0"), "schedule": ("t_final", "record_every"),
    "chain": tuple(CHAIN_DEFAULTS), "oracle": tuple(ORACLE_DEFAULTS),
    "observable": ("name", "f", "poly"), "monomial": ("c", "p", "q"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted description of one run; ``resolved``
    is the config as given plus ``applied_defaults``."""

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
    resolved: dict = field(repr=False)
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
    """``v`` as a complex matrix, or None once ``errors`` has its problem."""
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        errors.append(f"{path}: expected a 2-D array")
        return None
    known = len(errors)
    rows = [_complex_vector(r, f"{path}[{i}]", errors) for i, r in enumerate(v)]
    if len(errors) > known:
        return None
    if len({r.shape[0] for r in rows}) != 1:
        errors.append(f"{path}: rows have unequal lengths")
        return None
    return np.array(rows)


def _check_keys(obj, kind, prefix, errors):
    """Report each key of ``obj`` not in ``_KEYS[kind]`` as unknown."""
    errors.extend(f"{prefix}{key}: unknown option" for key in obj
                  if key not in _KEYS[kind])


def _powers(v, n_modes, path, errors):
    """``v`` as a tuple if it holds non-negative ints, n_modes of them
    unless n_modes is None (no model to size it), else None."""
    if (isinstance(v, list) and (n_modes is None or len(v) == n_modes)
            and all(type(x) is int and x >= 0 for x in v)):
        return tuple(v)
    count = "" if n_modes is None else f"{n_modes} "
    errors.append(f"{path}: expected an array of {count}non-negative "
                  f"integers, got {v!r}")
    return None


def _model_from(raw, errors):
    model = raw.get("model")
    if not isinstance(model, dict):
        errors.append("model: section missing")
        return None
    _check_keys(model, "model", "model.", errors)
    h0 = _complex_matrix(model.get("h0", []), "model.h0", errors)
    modes_raw = model.get("modes")
    if not isinstance(modes_raw, list) or not modes_raw:
        errors.append("model.modes: expected a non-empty array of modes")
        return None
    modes = []
    for i, m in enumerate(modes_raw):
        path = f"model.modes[{i}]"
        if not isinstance(m, dict) or "omega" not in m or "j" not in m:
            errors.append(f"{path}: need 'omega' and 'j'")
            continue
        _check_keys(m, "mode", path + ".", errors)
        j = _complex_matrix(m["j"], f"{path}.j", errors)
        if not _finite_number(m["omega"]):
            errors.append(f"{path}.omega: expected a finite number, "
                          f"got {m['omega']!r}")
        elif j is not None:
            try:
                modes.append(FieldMode(float(m["omega"]), j))
            except SemichainError as e:
                errors.append(f"{path}: {e}")
    if errors:
        return None
    try:
        return ModelSpec(h0=h0, modes=tuple(modes))
    except SemichainError as e:
        errors.append(f"model: {e}")
        return None


def _observables_from(raw, spec, errors):
    """The config's observables. Each entry's keys, name, poly and
    monomials are checked even when there is no model (``spec`` None);
    only the sizes of f, p and q need one. Observables are built only
    while the config has no problem, since any problem rejects it."""
    entries = raw.get("observables")
    if entries is None or entries == []:
        errors.append("observables: at least one observable is required")
        return ()
    if not isinstance(entries, list):
        errors.append("observables: expected an array")
        return ()
    n_modes = None if spec is None else spec.n_modes
    out = []
    for i, ob in enumerate(entries):
        path = f"observables[{i}]"
        if not isinstance(ob, dict):
            errors.append(f"{path}: expected an object")
            continue
        _check_keys(ob, "observable", path + ".", errors)
        name = ob.get("name", f"obs{i}")  # a CSV field, written unquoted
        if not isinstance(name, str) or not name or set(name) & set(',"\r\n'):
            errors.append(f"{path}.name: expected a non-empty string without "
                          f"commas, double quotes or line breaks, got {name!r}")
        f = ob.get("f")
        fmat = None if f is None else _complex_matrix(f, f"{path}.f", errors)
        if fmat is not None and spec is not None and fmat.shape != (spec.d, spec.d):
            errors.append(f"{path}.f: expected {spec.d}x{spec.d}, got {fmat.shape}")
        poly_raw = ob.get("poly")
        poly = []
        if poly_raw == []:
            errors.append(f"{path}: empty polynomial")
        elif poly_raw is not None and not isinstance(poly_raw, list):
            errors.append(f"{path}.poly: expected an array, got {poly_raw!r}")
        elif poly_raw is not None:
            for jm, mono in enumerate(poly_raw):
                mpath = f"{path}.poly[{jm}]"
                if not isinstance(mono, dict):
                    errors.append(f"{mpath}: expected an object")
                    continue
                _check_keys(mono, "monomial", mpath + ".", errors)
                c = _complex_scalar(mono.get("c", 1.0), f"{mpath}.c", errors)
                p, q = (_powers(mono.get(key, [0] * (n_modes or 0)), n_modes,
                                f"{mpath}.{key}", errors) for key in "pq")
                if p is not None and q is not None:
                    poly.append(Monomial(c, p, q))
        if not errors:
            out.append(Observable(f=fmat, poly=poly or unit_poly(n_modes),
                                  name=name))
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


def _section(raw, name, defaults, errors, applied):
    """The optional section ``name`` of the config over its ``defaults``:
    unknown keys are errors, and every default it leaves in place is
    recorded in ``applied``."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        errors.append(f"{name}: expected an object")
        section = {}
    _check_keys(section, name, name + ".", errors)
    applied.update((f"{name}.{key}", default)
                   for key, default in defaults.items() if key not in section)
    return {**defaults, **section}


def parse_config_text(text):
    """The JSON value in a config's text (str, or UTF-8 bytes); raises
    ConfigError when the text is not valid JSON."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError([f"config is not valid JSON: {e}"]) from None


def validate_config(raw) -> RunConfig:
    """Validate a parsed config (see ``parse_config_text``) into a
    RunConfig.

    Raises ConfigError carrying the complete list of problems when
    anything is wrong; never stops at the first error.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    errors = []
    applied = {}

    spec = _model_from(raw, errors)
    _check_keys(raw, "config", "", errors)
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
        _check_keys(schedule, "schedule", "schedule.", errors)
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
        _check_keys(initial, "initial", "initial.", errors)
        atomic = _complex_vector(initial.get("atomic", []), "initial.atomic", errors)
        alpha0 = _complex_vector(initial.get("alpha0", []), "initial.alpha0", errors)
        nrm = np.linalg.norm(atomic)
        if nrm == 0.0:
            errors.append("initial.atomic: zero vector")
        elif abs(nrm - 1.0) > 1e-9:
            errors.append("initial.atomic: must be normalized (norm "
                          f"{nrm:.6f}); normalize it explicitly")

    chain_cfg = _section(raw, "chain", CHAIN_DEFAULTS, errors, applied)
    eps = _positive(chain_cfg, "eps", "chain", errors)
    if not _positive_int(chain_cfg["n_points"]):
        errors.append("chain.n_points: must be a positive integer")

    oracle_cfg = _section(raw, "oracle", ORACLE_DEFAULTS, errors, applied)
    cutoff = oracle_cfg["cutoff"]
    if not _positive_int(cutoff) or cutoff < 2:
        errors.append(f"oracle.cutoff: must be an integer >= 2, got {cutoff!r}")

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

    observables = _observables_from(raw, spec, errors)

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

    resolved = copy.deepcopy(raw)
    for key, value in applied.items():
        section, _, name = key.rpartition(".")
        (resolved.setdefault(section, {}) if section else resolved)[name] = value
    return RunConfig(
        spec=spec, atomic=atomic, alpha0=alpha0, engine=engine,
        observables=observables, seed=seed, t_final=t_final,
        record_every=record_every, chain=chain_cfg, oracle=oracle_cfg,
        resolved=resolved, applied_defaults=applied,
    )
