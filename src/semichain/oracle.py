"""Brute-force fully quantized reference dynamics.

The composite state lives in (atomic) x (truncated Fock per mode) as a
dense complex array of shape ``(d, n1+1, ..., nM+1)``. Evolution
solves the interaction-picture equation

    dPsi/dt = -i sum_n ( j_n(t) a_n^dag + j_n(t)^dag a_n ) Psi

exactly on the truncated space: the time dependence is the free
rotation exp(i (H0 + sum_n omega_n N_n) t) of one fixed Schrodinger-frame
Hamiltonian H_S, whose exponential action is a Chebyshev expansion
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984). H_S is h0 plus one
matrix per mode, K_n = omega_n N_n + J_n a_n^dag + J_n^dag a_n on the
atom and mode n; these K_n give both the spectral bound of the
expansion and its sparse bands on the flattened amplitudes, the
diagonal and one gathered band per off-diagonal nonzero of a row of h0
or of a K_n, built once per model and mode sizes. The expansion's
Bessel coefficients come from Miller's backward recurrence. Everything
the semiclassical chain claims to reproduce is computed here exactly
(within truncation): coherent-state amplitudes, Bargmann projections,
and antinormally ordered expectations, where each monomial is one inner
product of two shifted slices of the state times their raising factors,
exact past the cutoff (no level is dropped). The module needs numpy
alone, and not its fft or random packages.
"""

import functools
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
    tops = (amps[(slice(None),) * (m + 1) + (slice(-2, None),)]
            for m in range(state.n_modes))
    return max(float(np.vdot(top, top).real) for top in tops)


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


def _atomic_apply(mat: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """An atomic operator on the first axis of composite amplitudes."""
    return (mat @ amps.reshape(amps.shape[0], -1)).reshape(amps.shape)


def _pair_operator(omega: float, j: np.ndarray, size: int) -> np.ndarray:
    """K = omega N + J a^dag + J^dag a on (atom) x (one mode of ``size``
    levels), as a dense matrix of size d * size."""
    coupling = np.kron(j, np.diag(np.sqrt(np.arange(1.0, size)), -1))
    term = np.kron(np.eye(len(j)), np.diag(omega * np.arange(size)))
    return term + coupling + coupling.conj().T


def _operator(h0: np.ndarray, pairs, levels: tuple) -> tuple:
    """h0 + sum_n K_n on the flattened composite amplitudes of mode sizes
    ``levels``, where K_n = ``pairs[n]`` acts on the atom and mode n.

    Returns the diagonal ``diag`` (D,) and the bands ``cols``, ``vals``
    (B, D) of the rest: the operator maps v to
    ``_apply_bands(diag, cols, vals, v)``. The k-th off-diagonal nonzero
    of every row of a factor (h0 or a K_n) shares one band, so a factor
    adds as many bands as its fullest row has such nonzeros. A padded
    entry has value 0 and points at its own row.
    """
    own = np.arange(len(h0) * int(np.prod(levels))).reshape(len(h0), *levels)
    diag = np.zeros(own.size, dtype=complex)
    cols, vals = [], []
    factors = [((0,), h0)] + [((0, n + 1), k) for n, k in enumerate(pairs)]
    for axes, f in factors:
        # rows[r, s]: the flat index of the factor's row r, the other
        # axes at s
        rows = np.moveaxis(own, axes, range(len(axes))).reshape(len(f), -1)
        diag[rows] += f.diagonal()[:, None]
        # np.nonzero lists the rows in order: an entry's slot in its row
        # is its position past the row's first entry
        r, c = np.nonzero((f != 0) & ~np.eye(len(f), dtype=bool))
        slot = np.arange(r.size) - np.searchsorted(r, r)
        band_cols = np.tile(np.arange(len(f)), (slot.max(initial=-1) + 1, 1))
        band_vals = np.zeros(band_cols.shape, dtype=complex)
        band_cols[slot, r], band_vals[slot, r] = c, f[r, c]
        col = np.empty((len(band_cols), own.size), dtype=int)
        val = np.empty(col.shape, dtype=complex)
        col[:, rows], val[:, rows] = rows[band_cols], band_vals[..., None]
        cols.append(col)
        vals.append(val)
    return diag, np.concatenate(cols), np.concatenate(vals)


def _apply_bands(diag, cols, vals, v: np.ndarray) -> np.ndarray:
    """diag * v plus the bands of ``_operator`` applied to the flat v."""
    return diag * v + (vals * v[cols]).sum(0)


def _rhs(spec: ModelSpec, t: float, amps: np.ndarray) -> np.ndarray:
    """-i H(t) Psi in the interaction picture, with
    H(t) = sum_n (j_n(t) a_n^dag + j_n(t)^dag a_n).

    This is the equation ``evolve`` solves; ``evolve`` never calls it.
    It stays as the independent reference that the propagator tests
    integrate, and as the name the benchmark tracer counts.
    """
    levels = amps.shape[1:]
    pairs = [_pair_operator(0.0, j, size)
             for j, size in zip(rotated_currents(spec, t), levels)]
    bands = _operator(np.zeros((spec.d, spec.d)), pairs, levels)
    return -1j * _apply_bands(*bands, amps.ravel()).reshape(amps.shape)


def _free_rotation(spec: ModelSpec, amps: np.ndarray, t: float) -> np.ndarray:
    """exp(i (H0 + sum_n omega_n N_n) t) applied to composite amplitudes."""
    out = _atomic_apply(atomic_rotation(spec, t), amps)
    for n, omega in enumerate(spec.omegas):
        shape = [1] * amps.ndim
        shape[n + 1] = amps.shape[n + 1]
        phases = np.exp(1j * omega * t * np.arange(amps.shape[n + 1]))
        out = out * phases.reshape(shape)
    return out


@functools.lru_cache(maxsize=1)
def _hamiltonian(spec: ModelSpec, levels: tuple) -> tuple:
    """H_S = H0 + sum_n K_n, K_n = omega_n N_n + J_n a_n^dag + J_n^dag a_n
    (``_pair_operator``), on the flattened composite amplitudes of mode
    sizes ``levels``, as its diagonal ``diag`` (D,) and the bands
    ``cols``, ``vals`` (B, D) of the rest (``_operator``), together with
    an interval [lo, hi] that holds its whole spectrum:
    H_S v = ``_apply_bands(diag, cols, vals, v)``.

    The interval adds, by Weyl's inequality, the extreme eigenvalues of
    h0 and of each K_n, which acts on the atom and that one mode alone:
    an ``eigvalsh`` of size d (cutoff_n + 1) each.

    The last result is kept, keyed on the spec (which compares by
    identity) and ``levels``, so the blocks of one run build it once; a
    spec never changes (its h0 and currents are read-only).
    """
    pairs = [_pair_operator(mode.omega, mode.j, size)
             for mode, size in zip(spec.modes, levels)]
    lo, hi = float(spec._evals[0]), float(spec._evals[-1])
    for k in pairs:
        evals = np.linalg.eigvalsh(k)
        lo, hi = lo + evals[0], hi + evals[-1]
    arrays = _operator(spec.h0, pairs, levels)
    for a in arrays:
        a.setflags(write=False)  # shared by every later block
    return arrays + (lo, hi)


# Chebyshev terms whose coefficient is below this are dropped; the
# expansion is cut at the first such term past the order |z| where the
# Bessel coefficients start to decay monotonically.
_CHEB_TOL = 1e-16
# (-i)^k for k mod 4, exactly
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """(-i)^k J_k(z) for k = 0, 1, ... until they fall below
    ``_CHEB_TOL``.

    Miller's backward recurrence J_{k-1}(x) = (2k / x) J_k(x) - J_{k+1}(x)
    at x = |z| (NIST DLMF 10.74(iv)), started from J_{top+1} = 0 and
    J_top = 1 well past the order where J_k falls below rounding, is
    stable downwards and gives the J_k up to one common factor; the
    identity J_0 + 2 sum_k J_2k = 1 fixes it. J_k(-x) = (-1)^k J_k(x).
    """
    x = abs(z)
    if x == 0.0:
        return np.array([1.0, 0.0], dtype=complex)
    cur, nxt = 1.0, 0.0  # J_k and J_{k+1}, up to one common factor
    down = [cur]
    for k in range(int(x + 16 * x ** (1 / 3) + 32), 0, -1):
        cur, nxt = 2 * k / x * cur - nxt, cur
        if abs(cur) > 1e200:  # a tiny x would overflow: rescale
            cur, nxt = cur * 1e-200, nxt * 1e-200
            down = [v * 1e-200 for v in down]
        down.append(cur)
    bessel = np.array(down[::-1])
    bessel /= bessel[0] + 2.0 * bessel[2::2].sum()
    tiny = np.abs(bessel) < _CHEB_TOL
    tiny[:int(x) + 2] = False  # every term up to order |z|, and two
    if tiny.any():
        bessel = bessel[:int(np.argmax(tiny))]
    phases = _MINUS_I_POWERS if z > 0 else _MINUS_I_POWERS.conj()
    return bessel * phases[np.arange(bessel.size) % 4]


def _propagate(spec: ModelSpec, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H_S dt) psi by its Chebyshev expansion (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967, 1984).

    With H_S's spectrum inside [lo, hi], centre c and half-width r,
    exp(-i H_S dt) = e^{-i c dt} sum_k (2 - delta_k0) (-i)^k J_k(r dt)
    T_k(X), X = (H_S - c) / r; the T_k(X) psi follow from the three-term
    recurrence T_{k+1} = 2 X T_k - T_{k-1}, one application of the bands
    of 2 X each.
    """
    diag, cols, vals, lo, hi = _hamiltonian(spec, psi.shape[1:])
    # a zero-width interval means H_S = c: any radius gives e^{-i c dt}
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo) or 1.0
    coef = _chebyshev_coefficients(radius * dt)
    diag2, vals2 = (2.0 / radius) * (diag - center), (2.0 / radius) * vals

    prev = psi.ravel()
    cur = 0.5 * _apply_bands(diag2, cols, vals2, prev)
    out = coef[0] * prev + 2.0 * coef[1] * cur
    for c in 2.0 * coef[2:]:
        prev, cur = cur, _apply_bands(diag2, cols, vals2, cur) - prev
        out += c * cur
    return (np.exp(-1j * center * dt) * out).reshape(psi.shape)


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


def _raised(amps: np.ndarray, powers: tuple, levels: list) -> np.ndarray:
    """prod_n (a_n^dag)^{p_n} Psi, with ``powers`` the p_n, at ``levels``
    (a range per mode, from p_n up): as (a^dag)^p |k> =
    sqrt((k + p)! / k!) |k + p>, level m holds the amplitude at m - p
    times sqrt(m! / (m - p)!)."""
    out = amps[(slice(None),) + tuple(slice(r.start - p, r.stop - p)
                                      for p, r in zip(powers, levels))]
    for n, (p, r) in enumerate(zip(powers, levels)):
        if p:  # weights on axis n + 1, broadcast over the later axes
            m = np.arange(r.start, r.stop, dtype=float)
            weight = np.sqrt(np.prod([m - k for k in range(p)], axis=0))
            out = out * weight.reshape((-1,) + (1,) * (len(powers) - 1 - n))
    return out


def antinormal_expectation(state: FockCompositeState, obs: Observable,
                           tail_threshold: float = DEFAULT_TAIL_THRESHOLD) -> complex:
    """Exact matrix element of the antinormally ordered observable.

    Each monomial alpha^p conj(alpha)^q maps to a^p (atomic F) (a^dag)^q
    with all absorption operators on the left. Its matrix element
    <(a^dag)^p Psi | F | (a^dag)^q Psi> is one inner product of two
    weighted slices of the state (``_raised``): on a mode of L levels the
    raised vectors share the levels max(p, q) <= m < L + min(p, q), and
    none when |p - q| >= L. Nothing is cut at the cutoff; the guard below
    rejects states whose own truncation is already suspect.
    """
    if obs.n_modes != state.n_modes:
        raise DimensionMismatch("observable and state disagree on mode count")
    check_tail(state, tail_threshold)
    f = obs.atomic_matrix(state.d)
    amps = state.amplitudes
    total = 0.0 + 0.0j
    for mono in obs.poly:
        # an empty range when |p - q| >= L keeps every slice stop >= 0
        levels = [range(max(p, q), max(p, q, size + min(p, q)))
                  for p, q, size in zip(mono.p, mono.q, amps.shape[1:])]
        bra, ket = (_raised(amps, powers, levels)
                    for powers in (mono.p, mono.q))
        total += mono.coeff * complex(np.vdot(bra, _atomic_apply(f, ket)))
    return total
