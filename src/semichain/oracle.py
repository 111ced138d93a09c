"""Brute-force fully quantized reference dynamics.

The composite state lives in (atomic) x (truncated Fock per mode) as a
dense complex array of shape ``(d, n1+1, ..., nM+1)``. Evolution
solves the interaction-picture equation

    dPsi/dt = -i sum_n ( j_n(t) a_n^dag + j_n(t)^dag a_n ) Psi

exactly on the truncated space: the time dependence is the free
rotation exp(i (H0 + sum_n omega_n N_n) t) of one fixed Schrodinger-frame
Hamiltonian H_S, whose exponential action is a Chebyshev expansion
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984) with H_S applied
matrix-free to the amplitude array. Everything the
semiclassical chain claims to reproduce is computed here exactly
(within truncation): coherent-state amplitudes, Bargmann projections,
and antinormally ordered expectations. The module needs numpy alone.
"""

from dataclasses import dataclass

import numpy as np

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


def _fock_powers(first: complex, z: complex, n_levels: int) -> np.ndarray:
    """first * z^n / sqrt(n!) for n = 0, ..., n_levels - 1."""
    v = np.empty(n_levels, dtype=complex)
    v[0] = first
    for n in range(n_levels - 1):
        v[n + 1] = v[n] * z / np.sqrt(n + 1)
    return v


def coherent_fock_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes <n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!) up to cutoff."""
    return _fock_powers(np.exp(-0.5 * abs(alpha) ** 2), alpha, cutoff + 1)


def tail_mass(state: FockCompositeState) -> float:
    """Largest over modes of the mass in that mode's top two levels."""
    amps = state.amplitudes
    return max(float(np.sum(np.abs(np.moveaxis(amps, m + 1, 0)[-2:]) ** 2))
               for m in range(state.n_modes))


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


def _ladder(amps: np.ndarray, mode: int, dagger: bool) -> np.ndarray:
    """The absorption operator a, or with ``dagger`` the creation
    operator a^dag (which truncates at the top), on one mode axis: a
    moves the amplitude of level n to level n - 1, a^dag that of level
    n - 1 to level n, each times sqrt(n)."""
    ax = mode + 1
    n_levels = amps.shape[ax]
    shape = [1] * amps.ndim
    shape[ax] = n_levels - 1
    factors = np.sqrt(np.arange(1, n_levels)).reshape(shape)
    lower = [slice(None)] * amps.ndim
    upper = list(lower)
    lower[ax] = slice(0, n_levels - 1)
    upper[ax] = slice(1, n_levels)
    src, dst = (lower, upper) if dagger else (upper, lower)
    out = np.zeros_like(amps)
    out[tuple(dst)] = amps[tuple(src)] * factors
    return out


def _atomic_apply(mat: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """An atomic operator on the first axis of composite amplitudes."""
    return (mat @ amps.reshape(amps.shape[0], -1)).reshape(amps.shape)


def _add_coupling(out: np.ndarray, amps: np.ndarray, currents) -> np.ndarray:
    """``out`` plus sum_n (J_n a_n^dag + J_n^dag a_n) amps, in place, for
    the pairs (J_n, J_n^dag) of ``currents`` in mode order."""
    for n, (j, j_dag) in enumerate(currents):
        out += _atomic_apply(j, _ladder(amps, n, dagger=True))
        out += _atomic_apply(j_dag, _ladder(amps, n, dagger=False))
    return out


def _rhs(spec: ModelSpec, t: float, amps: np.ndarray) -> np.ndarray:
    """-i H(t) Psi in the interaction picture: ``_add_coupling`` at j_n(t).

    This is the equation ``evolve`` solves; ``evolve`` never calls it.
    It stays as the independent reference that the propagator tests
    integrate, and as the name the benchmark tracer counts.
    """
    currents = [(j, j.conj().T) for j in rotated_currents(spec, t)]
    return -1j * _add_coupling(np.zeros_like(amps), amps, currents)


def _free_rotation(spec: ModelSpec, amps: np.ndarray, t: float) -> np.ndarray:
    """exp(i (H0 + sum_n omega_n N_n) t) applied to composite amplitudes."""
    out = _atomic_apply(atomic_rotation(spec, t), amps)
    for n, omega in enumerate(spec.omegas):
        shape = [1] * amps.ndim
        shape[n + 1] = amps.shape[n + 1]
        phases = np.exp(1j * omega * t * np.arange(amps.shape[n + 1]))
        out = out * phases.reshape(shape)
    return out


def _hamiltonian(spec: ModelSpec, levels: tuple):
    """H_S = H0 + sum_n (omega_n N_n + J_n a_n^dag + J_n^dag a_n) as a
    matrix-free map on composite amplitudes of mode sizes ``levels``,
    together with an interval that holds its whole spectrum.

    The interval adds, by Weyl's inequality, the extreme eigenvalues of
    h0 and of each mode's own term omega_n N_n + J_n a_n^dag + J_n^dag a_n,
    which acts on the atom and that one mode alone: an ``eigvalsh`` of
    size d (cutoff_n + 1) each.
    """
    lo, hi = float(spec._evals[0]), float(spec._evals[-1])
    number = np.zeros((1,) + tuple(levels))
    for n, (mode, size) in enumerate(zip(spec.modes, levels)):
        shape = [1] * number.ndim
        shape[n + 1] = size
        number = number + mode.omega * np.arange(size).reshape(shape)
        coupling = np.kron(mode.j, np.diag(np.sqrt(np.arange(1.0, size)), -1))
        term = np.kron(np.eye(spec.d), np.diag(mode.omega * np.arange(size)))
        evals = np.linalg.eigvalsh(term + coupling + coupling.conj().T)
        lo, hi = lo + evals[0], hi + evals[-1]
    currents = [(mode.j, mode.j.conj().T) for mode in spec.modes]

    def apply(amps):
        return _add_coupling(_atomic_apply(spec.h0, amps) + number * amps,
                             amps, currents)

    return apply, lo, hi


# Chebyshev terms whose coefficient is below this are dropped; the
# expansion is cut at the first such term past the order |z| where the
# Bessel coefficients start to decay monotonically.
_CHEB_TOL = 1e-16


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """(-i)^k J_k(z) for k = 0, 1, ... until they fall below
    ``_CHEB_TOL``: by the Jacobi-Anger expansion
    e^{-i z cos t} = sum_k (2 - delta_k0) (-i)^k J_k(z) cos(k t), they
    are the discrete Fourier coefficients of e^{-i z cos t}, sampled
    finely enough that aliasing stays below rounding."""
    size = 64
    while size < 2 * (abs(z) + 16 * abs(z) ** (1 / 3) + 32):
        size *= 2
    theta = 2 * np.pi * np.arange(size) / size
    coef = np.fft.fft(np.exp(-1j * z * np.cos(theta)))[:size // 2] / size
    tiny = np.abs(coef) < _CHEB_TOL
    tiny[:int(abs(z)) + 2] = False  # every term up to order |z|, and two
    return coef[:int(np.argmax(tiny))] if tiny.any() else coef


def _propagate(spec: ModelSpec, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H_S dt) psi by its Chebyshev expansion (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967, 1984).

    With H_S's spectrum inside [lo, hi], centre c and half-width r,
    exp(-i H_S dt) = e^{-i c dt} sum_k (2 - delta_k0) (-i)^k J_k(r dt)
    T_k((H_S - c) / r); the T_k(.) psi follow from the three-term
    recurrence, one application of H_S each.
    """
    apply, lo, hi = _hamiltonian(spec, psi.shape[1:])
    # a zero-width interval means H_S = c: any radius gives e^{-i c dt}
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo) or 1.0
    coef = _chebyshev_coefficients(radius * dt)

    def scaled(v):  # (H_S - c) v / r
        return (apply(v) - center * v) / radius

    prev, cur = psi, scaled(psi)
    out = coef[0] * prev + 2.0 * coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, 2.0 * scaled(cur) - prev
        out += 2.0 * c * cur
    return np.exp(-1j * center * dt) * out


def evolve(state: FockCompositeState, spec: ModelSpec, dt: float,
           tail_threshold: float = DEFAULT_TAIL_THRESHOLD) -> FockCompositeState:
    """Advance the composite state by ``dt``, exactly on the truncated space.

    The interaction-picture Hamiltonian at time t is the fixed
    Schrodinger-frame Hamiltonian H_S seen through the free rotation
    R(t) = exp(i (H0 + sum_n omega_n N_n) t), so

        Psi(t0 + dt) = R(t0 + dt) exp(-i H_S dt) R(-t0) Psi(t0).

    Truncation commutes with every N_n, so this is the exact propagator
    of the truncated model. exp(-i H_S dt) is applied as a Chebyshev
    expansion in (H_S - c) / r, where [c - r, c + r] bounds the spectrum
    of H_S: the extreme eigenvalues of h0 plus those of each mode's own
    term (``_hamiltonian``). The bound must hold, or the expansion
    diverges. Its coefficients are the Bessel values
    (-i)^k J_k(r dt), and the series stops at the first term past order
    r |dt| whose coefficient is below 1e-16; that takes about
    r |dt| + 15 (r |dt|)^(1/3) terms, each one application of H_S.
    """
    if spec.d != state.d or spec.n_modes != state.n_modes:
        raise DimensionMismatch("state and model disagree on dimensions")
    if dt == 0.0:
        return state
    psi = _free_rotation(spec, state.amplitudes, -state.time)
    psi = _propagate(spec, psi, dt)
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
        amps = np.tensordot(amps, _fock_powers(1.0, a_st, amps.shape[1]),
                            axes=(1, 0))
    return amps


def coherent_amplitude(state: FockCompositeState, alpha) -> np.ndarray:
    """Atomic-space wave function <alpha|Psi> at a phase-space point."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    gauss = np.exp(-0.5 * float(np.sum(np.abs(alpha) ** 2)))
    return gauss * bargmann_projection(state, alpha.conj())


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
        bra = ket = np.pad(state.amplitudes, [(0, 0)] + [
            (0, max(pn, qn)) for pn, qn in zip(mono.p, mono.q)])
        for n, (pn, qn) in enumerate(zip(mono.p, mono.q)):
            for _ in range(pn):
                bra = _ladder(bra, n, dagger=True)
            for _ in range(qn):
                ket = _ladder(ket, n, dagger=True)
        total += mono.coeff * complex(np.vdot(bra, _atomic_apply(f, ket)))
    return total
