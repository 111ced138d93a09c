"""Brute-force fully quantized reference dynamics.

The composite state lives in (atomic) x (truncated Fock per mode) as a
dense complex array of shape ``(d, n1+1, ..., nM+1)``. Evolution
solves the interaction-picture equation

    dPsi/dt = -i sum_n ( j_n(t) a_n^dag + j_n(t)^dag a_n ) Psi

exactly on the truncated space: the time dependence is the free
rotation exp(i (H0 + sum_n omega_n N_n) t) of one fixed sparse
Hamiltonian, whose exponential action is taken in a single call to
``scipy.sparse.linalg.expm_multiply``. Everything the
semiclassical chain claims to reproduce is computed here exactly
(within truncation): coherent-state amplitudes, the phase-space density,
Bargmann projections, and antinormally ordered expectations.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .errors import DimensionMismatch, TailMassExceeded
from .hilbert import as_state
from .model import ModelSpec, atomic_rotation, rotated_currents
from .observables import Observable

DEFAULT_TAIL_THRESHOLD = 1e-8
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class FockCompositeState:
    """Dense composite state in the atomic x Fock product basis."""

    amplitudes: np.ndarray  # shape (d, n1+1, ..., nM+1)
    time: float = 0.0

    @property
    def d(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def cutoffs(self) -> tuple:
        return tuple(s - 1 for s in self.amplitudes.shape[1:])

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def coherent_fock_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes <n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!) up to cutoff."""
    v = np.empty(cutoff + 1, dtype=complex)
    v[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(cutoff):
        v[n + 1] = v[n] * alpha / np.sqrt(n + 1)
    return v


def mode_occupation_mass(state: FockCompositeState, mode: int) -> np.ndarray:
    """Probability mass per Fock level of one mode."""
    p = np.abs(state.amplitudes) ** 2
    axes = tuple(ax for ax in range(p.ndim) if ax != mode + 1)
    return p.sum(axis=axes)


def tail_mass(state: FockCompositeState) -> float:
    """Largest over modes of the mass in that mode's top two levels."""
    worst = 0.0
    for m in range(state.n_modes):
        occ = mode_occupation_mass(state, m)
        worst = max(worst, float(occ[-2:].sum()))
    return worst


def check_tail(state: FockCompositeState, threshold: float = DEFAULT_TAIL_THRESHOLD):
    tm = tail_mass(state)
    if tm > threshold:
        raise TailMassExceeded(
            f"tail mass {tm:.3e} exceeds threshold {threshold:.3e} "
            f"(cutoffs {state.cutoffs} too small)")
    return state


def build_initial(spec: ModelSpec, atomic, alphas0, cutoffs,
                  tail_threshold: float = DEFAULT_TAIL_THRESHOLD) -> FockCompositeState:
    """Product state: normalized atomic vector x coherent field modes."""
    atomic = as_state(atomic, dim=spec.d)
    nrm = np.linalg.norm(atomic)
    if abs(nrm - 1.0) > 1e-9:
        raise DimensionMismatch("atomic initial vector must be normalized")
    atomic = atomic / nrm
    alphas0 = np.atleast_1d(np.asarray(alphas0, dtype=complex))
    cutoffs = tuple(int(c) for c in np.atleast_1d(cutoffs))
    if len(alphas0) != spec.n_modes or len(cutoffs) != spec.n_modes:
        raise DimensionMismatch("need one alpha0 and one cutoff per mode")
    if any(c < 2 for c in cutoffs):
        raise DimensionMismatch("cutoffs must be at least 2")
    amps = atomic
    for a0, cut in zip(alphas0, cutoffs):
        amps = np.multiply.outer(amps, coherent_fock_vector(a0, cut))
    state = FockCompositeState(amplitudes=amps, time=0.0)
    return check_tail(state, tail_threshold)


def _apply_lower(amps: np.ndarray, mode: int) -> np.ndarray:
    """Absorption operator a on one mode axis."""
    ax = mode + 1
    n_levels = amps.shape[ax]
    out = np.zeros_like(amps)
    src = np.take(amps, np.arange(1, n_levels), axis=ax)
    factors = np.sqrt(np.arange(1, n_levels))
    shape = [1] * amps.ndim
    shape[ax] = n_levels - 1
    sl = [slice(None)] * amps.ndim
    sl[ax] = slice(0, n_levels - 1)
    out[tuple(sl)] = src * factors.reshape(shape)
    return out


def _apply_raise(amps: np.ndarray, mode: int) -> np.ndarray:
    """Creation operator a^dag on one mode axis (truncates at the top)."""
    ax = mode + 1
    n_levels = amps.shape[ax]
    out = np.zeros_like(amps)
    src = np.take(amps, np.arange(0, n_levels - 1), axis=ax)
    factors = np.sqrt(np.arange(1, n_levels))
    shape = [1] * amps.ndim
    shape[ax] = n_levels - 1
    sl = [slice(None)] * amps.ndim
    sl[ax] = slice(1, n_levels)
    out[tuple(sl)] = src * factors.reshape(shape)
    return out


def _atomic_apply(mat: np.ndarray, amps: np.ndarray) -> np.ndarray:
    return np.tensordot(mat, amps, axes=(1, 0))


def _rhs(spec: ModelSpec, t: float, amps: np.ndarray) -> np.ndarray:
    """-i H(t) Psi in the interaction picture.

    This is the equation ``evolve`` solves; ``evolve`` never calls it.
    It stays as the independent reference that the propagator tests
    integrate, and as the name the benchmark tracer counts.
    """
    js = rotated_currents(spec, t)
    out = np.zeros_like(amps)
    for n, j in enumerate(js):
        out += _atomic_apply(j, _apply_raise(amps, n))
        out += _atomic_apply(j.conj().T, _apply_lower(amps, n))
    return -1j * out


def _free_rotation(spec: ModelSpec, amps: np.ndarray, t: float) -> np.ndarray:
    """exp(i (H0 + sum_n omega_n N_n) t) applied to composite amplitudes."""
    out = _atomic_apply(atomic_rotation(spec, t), amps)
    for n, omega in enumerate(spec.omegas):
        shape = [1] * amps.ndim
        shape[n + 1] = amps.shape[n + 1]
        phases = np.exp(1j * omega * t * np.arange(amps.shape[n + 1]))
        out = out * phases.reshape(shape)
    return out


def _schrodinger_hamiltonian(spec: ModelSpec, levels: tuple) -> sparse.csr_matrix:
    """Sparse H0 + sum_n (omega_n N_n + J_n a_n^dag + J_n^dag a_n).

    Built on the truncated product space with the atomic factor first,
    matching the C-order flattening of the amplitude array.
    """
    def embed(atomic, mode=None, field=None):
        out = sparse.csr_matrix(atomic)
        for n, size in enumerate(levels):
            factor = field if n == mode else sparse.identity(size, format="csr")
            out = sparse.kron(out, factor, format="csr")
        return out

    h = embed(spec.h0)
    for n, (mode, size) in enumerate(zip(spec.modes, levels)):
        number = sparse.diags(np.arange(size, dtype=float))
        raise_ = sparse.diags(np.sqrt(np.arange(1, size, dtype=float)), -1)
        h = h + embed(mode.omega * np.eye(spec.d), n, number) \
            + embed(mode.j, n, raise_) + embed(mode.j.conj().T, n, raise_.T)
    return h.tocsr()


def evolve(state: FockCompositeState, spec: ModelSpec, dt: float,
           tail_threshold: float = DEFAULT_TAIL_THRESHOLD) -> FockCompositeState:
    """Advance the composite state by ``dt``, exactly on the truncated space.

    The interaction-picture Hamiltonian at time t is the fixed
    Schrodinger-frame Hamiltonian H_S seen through the free rotation
    R(t) = exp(i (H0 + sum_n omega_n N_n) t), so

        Psi(t0 + dt) = R(t0 + dt) exp(-i H_S dt) R(-t0) Psi(t0).

    Truncation commutes with every N_n, so this is the exact propagator
    of the truncated model; the exponential action is computed with
    ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham 2011) at
    double-precision tolerance.
    """
    if spec.d != state.d or spec.n_modes != state.n_modes:
        raise DimensionMismatch("state and model disagree on dimensions")
    if dt == 0.0:
        return state
    psi = _free_rotation(spec, state.amplitudes, -state.time)
    h = _schrodinger_hamiltonian(spec, psi.shape[1:])
    psi = expm_multiply(-1j * dt * h, psi.ravel()).reshape(psi.shape)
    y = _free_rotation(spec, psi, state.time + dt)
    nrm = np.linalg.norm(y)
    if abs(nrm - 1.0) > _NORM_TOL:
        raise TailMassExceeded(
            f"norm drifted to {nrm:.12f}; propagator round-off or a "
            f"non-normalized input state")
    out = FockCompositeState(amplitudes=y, time=state.time + dt)
    return check_tail(out, tail_threshold)


def bargmann_projection(state: FockCompositeState, alpha_star) -> np.ndarray:
    """Entire part of the coherent-state wave function.

    phi(alpha*) = sum_n (alpha*)^n / sqrt(n!) <n|-components; the full
    coherent amplitude is e^{-|alpha|^2/2} phi(alpha*).
    """
    alpha_star = np.atleast_1d(np.asarray(alpha_star, dtype=complex))
    if alpha_star.shape[0] != state.n_modes:
        raise DimensionMismatch("need one alpha* per mode")
    amps = state.amplitudes
    for a_st in alpha_star:
        n_levels = amps.shape[1]
        b = np.empty(n_levels, dtype=complex)
        b[0] = 1.0
        for n in range(n_levels - 1):
            b[n + 1] = b[n] * a_st / np.sqrt(n + 1)
        amps = np.tensordot(amps, b, axes=(1, 0))
    return amps


def coherent_amplitude(state: FockCompositeState, alpha) -> np.ndarray:
    """Atomic-space wave function <alpha|Psi> at a phase-space point."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    gauss = np.exp(-0.5 * float(np.sum(np.abs(alpha) ** 2)))
    return gauss * bargmann_projection(state, alpha.conj())


def q_function(state: FockCompositeState, alpha) -> float:
    """Phase-space density ||<alpha|Psi>||^2 (measure d^2alpha / pi per mode)."""
    psi = coherent_amplitude(state, alpha)
    return float(np.sum(np.abs(psi) ** 2))


def _pad_modes(amps: np.ndarray, extra: tuple) -> np.ndarray:
    pad = [(0, 0)] + [(0, e) for e in extra]
    return np.pad(amps, pad)


def antinormal_expectation(state: FockCompositeState, obs: Observable,
                           tail_threshold: float = DEFAULT_TAIL_THRESHOLD) -> complex:
    """Exact matrix element of the antinormally ordered observable.

    Each monomial alpha^p conj(alpha)^q maps to a^p (atomic F) (a^dag)^q
    with all absorption operators on the left; the matrix element is
    computed as <(a^dag)^p Psi | F | (a^dag)^q Psi>. Mode axes are
    padded before raising so no amplitude is lost at the cutoff; the
    guard below rejects states whose own truncation is already suspect.
    """
    if obs.n_modes != state.n_modes:
        raise DimensionMismatch("observable and state disagree on mode count")
    check_tail(state, tail_threshold)
    f = obs.atomic_matrix(state.d)
    total = 0.0 + 0.0j
    for mono in obs.poly:
        extra = tuple(max(pn, qn) for pn, qn in zip(mono.p, mono.q))
        padded = _pad_modes(state.amplitudes, extra)
        bra = padded
        ket = padded
        for n, (pn, qn) in enumerate(zip(mono.p, mono.q)):
            for _ in range(pn):
                bra = _apply_raise(bra, n)
            for _ in range(qn):
                ket = _apply_raise(ket, n)
        total += mono.coeff * complex(np.vdot(bra, _atomic_apply(f, ket)))
    return total
