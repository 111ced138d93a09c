"""Composite system declaration and interaction-picture currents.

A model is a small atomic system (Hermitian Hamiltonian ``h0`` of
dimension ``d``) linearly coupled to a set of harmonic field modes.
Each mode carries an angular frequency ``omega`` and a d x d current
operator ``j`` (hbar = 1 throughout). The dynamical objects the rest
of the package needs from the model are the rotated current

    j_n(t) = exp(i omega_n t) * exp(i H0 t) J_n exp(-i H0 t),

which drives the semiclassical chain, and the atomic rotation
exp(i H0 t), which carries the full quantum reference between the
interaction and Schrodinger pictures.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyModeList, NonHermitianH0
from .hilbert import as_operator

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class FieldMode:
    """One harmonic mode: angular frequency and its coupling operator."""

    omega: float
    j: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j", as_operator(self.j))
        if not np.isfinite(self.omega):
            raise DimensionMismatch("mode frequency must be finite")


@dataclass(frozen=True)
class ModelSpec:
    """Validated composite model: atomic Hamiltonian plus field modes.

    Construction validates Hermiticity of ``h0`` and the shape of every
    mode current; instances are immutable afterwards. The eigenbasis of
    ``h0`` is precomputed once so that rotated currents are cheap in the
    per-step hot path.
    """

    h0: np.ndarray
    modes: tuple
    _evals: np.ndarray = field(init=False, repr=False, compare=False)
    _evecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h0 = as_operator(self.h0)
        if np.max(np.abs(h0 - h0.conj().T)) > _HERMITICITY_TOL:
            raise NonHermitianH0("h0 must be Hermitian within 1e-12")
        modes = tuple(m if isinstance(m, FieldMode) else FieldMode(*m) for m in self.modes)
        if len(modes) == 0:
            raise EmptyModeList("a model needs at least one field mode")
        d = h0.shape[0]
        for n, m in enumerate(modes):
            if m.j.shape != (d, d):
                raise DimensionMismatch(
                    f"mode {n} current has shape {m.j.shape}, expected ({d}, {d})")
        evals, evecs = np.linalg.eigh(h0)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_evals", evals)
        object.__setattr__(self, "_evecs", evecs)

    @property
    def d(self) -> int:
        return self.h0.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def omegas(self) -> np.ndarray:
        return np.array([m.omega for m in self.modes])


def atomic_rotation(spec: ModelSpec, t: float) -> np.ndarray:
    """exp(i H0 t) from the cached eigendecomposition of h0."""
    u = spec._evecs
    phases = np.exp(1j * spec._evals * t)
    return (u * phases) @ u.conj().T


def rotated_currents(spec: ModelSpec, t: float) -> list[np.ndarray]:
    """All rotated currents j_n(t) in mode order (one pass over the eigenbasis).

    Each equals J_n at t = 0; its singular values are time-independent
    because the conjugation is unitary and the mode phase has unit
    modulus.
    """
    u = spec._evecs
    phases = np.exp(1j * spec._evals * t)
    out = []
    for mode in spec.modes:
        core = (phases[:, None] * (u.conj().T @ mode.j @ u)) * phases.conj()[None, :]
        out.append(np.exp(1j * mode.omega * t) * (u @ core @ u.conj().T))
    return out


def classical_current_model(c, omegas) -> ModelSpec:
    """Degenerate d = 1 model with scalar currents.

    With a one-dimensional atomic space the conditional expectations
    reduce to the scalars ``c_n`` themselves, the phase-space drift is
    exactly solvable, and the chain dynamics become a rigid translation.
    Used heavily by the analytic test suite.
    """
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if c.shape != omegas.shape:
        raise DimensionMismatch("need one frequency per current")
    modes = tuple(FieldMode(float(w), np.array([[cn]])) for cn, w in zip(c, omegas))
    return ModelSpec(h0=np.zeros((1, 1)), modes=modes)
