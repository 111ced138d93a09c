"""Semiclassical chain engine.

The composite system is represented by an ordered sequence of pairs
(alpha(k), phi(k)): a classical phase-space point of the field mode and
an unnormalized conditional atomic state attached to it. The sequence
is sampled from the phase-space density e^{-|alpha|^2} ||phi(alpha*)||^2,
evolved by a deterministic update cycle, and read out as unweighted
ensemble averages of conditional expectations.

In the update cycle every point moves with its conditional drift
velocity -i <j(t)>, and its state follows the comoving equation

    dphi/dt = -i alpha* j(t) phi - i (j^dag - <j^dag>) dphi/dalpha*:

the fixed-point equation of motion plus the transport term generated
by the point's own motion, which keeps each stored state equal to the
conditional state at its point's current position. Since every stored
state samples one entire function of alpha*, the derivative
dphi/dalpha* comes from one least-squares fit over the whole chain:
K = 8 displaced number states around the cloud's centre, solved by
Cholesky, with a minimum-norm ``lstsq`` fallback for chains too
degenerate to factor (see ``_derivatives``). The update is single-mode;
``step`` rejects chains with more than one mode.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpotrf, zpotrs

from .errors import (DegenerateIncrement, DimensionMismatch,
                     InterpolationDegraded, ZeroNormConditionalState)
from .hilbert import as_operator, as_state
from .model import ModelSpec, rotated_currents
from .observables import Observable, atomic_observable, mode_monomial
from .sampling import (SamplerParams, log_weight_from_phi, rewalk_segments,
                       sample_positions)

DEFAULT_DELTA_MIN = 1e-8
DEFAULT_BATCH_COUNT = 32
_ZERO_NORM_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ChainState:
    """Immutable chain snapshot.

    ``alphas`` has shape (N, M), ``phis`` shape (N, d). The chain is a
    concatenation of contiguous segments (``segment_starts`` holds the
    first index of each); within a segment consecutive increments are
    small, and ``chain_derivative`` and ``chain_quality`` take
    differences there, never across segment boundaries. ``lineage``
    records how the chain was produced, ``n_steps`` counts update cycles
    applied since sampling.

    A chain returned by ``step`` also carries the update workspace that
    its next ``step`` reuses; it is not part of the snapshot, so it
    takes no part in ``==``, ``repr`` or checkpoints, and a chain built
    any other way starts without one.
    """

    time: float
    alphas: np.ndarray
    phis: np.ndarray
    segment_starts: np.ndarray = None
    n_steps: int = 0
    lineage: tuple = ()
    _workspace: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=complex, order="C", copy=True)
        phis = np.array(self.phis, dtype=complex, order="C", copy=True)
        if alphas.ndim != 2 or phis.ndim != 2:
            raise DimensionMismatch("alphas and phis must be 2-D arrays")
        n = alphas.shape[0]
        if n < 2:
            raise DimensionMismatch("a chain needs at least 2 points")
        if phis.shape[0] != n:
            raise DimensionMismatch("alphas and phis must have one row per point")
        flat = phis.view(float)
        if not (np.all(np.isfinite(alphas.view(float)))
                and np.all(np.isfinite(flat))):
            raise DimensionMismatch("chain entries must be finite")
        if np.any(np.einsum("ki,ki->k", flat, flat) == 0.0):
            raise ZeroNormConditionalState("chain contains a zero conditional state")
        starts = self.segment_starts
        starts = np.array([0] if starts is None else starts, dtype=int)
        if starts[0] != 0 or np.any(np.diff(starts) < 2) or starts[-1] > n - 2:
            raise DimensionMismatch("segments must start at 0 and hold >= 2 points each")
        alphas.setflags(write=False)
        phis.setflags(write=False)
        starts.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "segment_starts", starts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time == other.time and self.n_steps == other.n_steps
                and self.lineage == other.lineage
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in ("segment_starts", "alphas", "phis")))

    @property
    def n_points(self) -> int:
        return self.alphas.shape[0]

    @property
    def n_modes(self) -> int:
        return self.alphas.shape[1]

    @property
    def d(self) -> int:
        return self.phis.shape[1]


def _is_identity(f: np.ndarray) -> bool:
    return bool(np.array_equal(f, np.eye(f.shape[0])))


def conditional_expectation(phi, f) -> complex:
    """<phi|F|phi> / <phi|phi>; the norm of phi cancels.

    The identity operator short-circuits to exactly 1 (the ratio is 1
    by construction, not merely to rounding).
    """
    phi = as_state(phi)
    f = as_operator(f, dim=phi.shape[0])
    n2 = np.vdot(phi, phi).real
    if n2 == 0.0:
        raise ZeroNormConditionalState("conditional state has zero norm")
    if _is_identity(f):
        return 1.0 + 0.0j
    return complex(np.vdot(phi, f @ phi) / n2)


def drift_velocity(phi, t: float, spec: ModelSpec) -> np.ndarray:
    """Phase-space velocity -i <j_n(t)> per mode."""
    js = rotated_currents(spec, t)
    return np.array([-1j * conditional_expectation(phi, j) for j in js])


def _norms2(phis: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ki->k", phis.conj(), phis).real


def _cond_exp_batch(phis: np.ndarray, f: np.ndarray, norms2: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ki->k", phis.conj(), phis @ f.T) / norms2


def _repeats(alphas, phis, i, delta_min):
    """Whether point i + 1 repeats point i: the same position and, to
    rounding, the same state (a Metropolis rejection)."""
    return bool(np.max(np.abs(alphas[i + 1] - alphas[i])) < delta_min
                and np.linalg.norm(phis[i + 1] - phis[i])
                <= 1e-12 * (1.0 + np.linalg.norm(phis[i])))


def chain_derivative(chain: ChainState, k: int, n: int,
                     delta_min: float = DEFAULT_DELTA_MIN) -> np.ndarray:
    """Finite-difference estimate of dphi/dalpha_n* at point k.

    Uses the forward neighbor for interior points and the backward one
    for the last point of a segment (hence of the chain), skipping
    exact repeats: every member of a run of repeats is one weighted
    point and gets the same partner. A vanishing increment with a
    vanishing state difference yields the zero vector; a vanishing
    increment with a real state difference means the graph has
    collapsed and raises DegenerateIncrement.
    """
    if not 0 <= k < chain.n_points:
        raise IndexError(f"point index {k} out of range")
    if not 0 <= n < chain.n_modes:
        raise IndexError(f"mode index {n} out of range")
    alphas, phis = chain.alphas, chain.phis
    edges = np.append(chain.segment_starts, chain.n_points)
    seg = np.searchsorted(edges, k, side="right") - 1
    seg_first, seg_last = int(edges[seg]), int(edges[seg + 1]) - 1
    # the run of repeats that holds k, then the point on either side
    hi = k
    while hi < seg_last and _repeats(alphas, phis, hi, delta_min):
        hi += 1
    if hi < seg_last:
        partner = hi + 1
    else:
        lo = k
        while lo > seg_first and _repeats(alphas, phis, lo - 1, delta_min):
            lo -= 1
        if lo == seg_first:  # the whole segment repeats point k
            return np.zeros(chain.d, dtype=complex)
        partner = lo - 1
    ka, kb = min(k, partner), max(k, partner)
    dphi = phis[kb] - phis[ka]
    dstar = np.conj(alphas[kb, n] - alphas[ka, n])
    if abs(dstar) < delta_min:
        if np.linalg.norm(dphi) <= 1e-12 * (1.0 + np.linalg.norm(phis[k])):
            return np.zeros(chain.d, dtype=complex)
        raise DegenerateIncrement(
            f"increment of mode {n} collapsed at point {k} while the "
            f"conditional states differ; reformat the chain")
    return dphi / dstar


# Terms K of the fitted expansion of the conditional state (see
# ``_derivatives``).
_FIT_TERMS = 8
# A Cholesky pivot that keeps less than this fraction of its column's
# squared norm means the fit's columns are numerically dependent.
_PIVOT_FLOOR = 1e-8
_SQRT = np.sqrt(np.arange(_FIT_TERMS))


class _Workspace:
    """Buffers of one chain's update cycle, for ``n`` points of dimension
    ``d``.

    A chain's first ``step`` makes it, and every chain that ``step``
    returns carries it on (``ChainState._workspace``), so the full-length
    temporaries are allocated once per run, not once per rate
    evaluation. ``_derivatives`` and ``_rates`` write into its buffers
    and return views of them, which the next use overwrites; one chain
    must not be stepped from several threads at once. Uses that never
    overlap share a buffer, to keep the resident set small: "scratch"
    holds the fit's stacked block, then the products of ``_rates``;
    "rates_phis" holds the squared states, then j phi.
    """

    def __init__(self, n, d):
        self.key = (n, d)
        self._flat = {}

    def array(self, name, shape, dtype=complex):
        """A C-contiguous array of ``shape`` at the start of the flat
        buffer ``name``, which grows to fit; arrays of one name share
        memory."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        flat = self._flat.get(name)
        if flat is None or flat.size < nbytes:
            flat = self._flat[name] = np.empty(nbytes, np.uint8)
        return flat[:nbytes].view(dtype).reshape(shape)


def _workspace_for(workspace, n, d):
    """``workspace`` if it was made for these sizes, else a new one."""
    if workspace is not None and workspace.key == (n, d):
        return workspace
    return _Workspace(n, d)


def _derivatives(alphas, phis, workspace=None):
    """Chain derivative dphi/dalpha* of a single-mode chain,
    component-major: shape (d, N) for ``alphas`` (N, 1) and ``phis``
    (N, d).

    Every stored state samples one entire function Phi of z = alpha*
    (Bargmann, Comm. Pure Appl. Math. 14, 1961), so one least-squares
    fit over all N points gives its derivative everywhere. The fit is in
    the displaced number-state basis around the cloud's centre (de
    Oliveira, Kim, Knight & Buzek, Phys. Rev. A 41, 2645, 1990): with c
    the mean of z, w = z - c and beta = conj(c),

        Phi(z) ~ e^{beta w} sum_{n<K} c_n w^n / sqrt(n!),  K = _FIT_TERMS,

    fitted by plain least squares to y_k = phi_k e^{-beta w_k}, and

        dPhi/dz = e^{beta w} sum_n (beta c_n + sqrt(n+1) c_{n+1}) w^n / sqrt(n!).

    A coherent state is the n = 0 term alone, and the columns are
    orthonormal under the unit complex Gaussian that a coherent start
    samples, so the K x K normal equations are well conditioned and are
    solved by Cholesky. A Metropolis repeat is just a repeated row. If
    the factorization fails, or a pivot shows numerically dependent
    columns (fewer than K distinct points, a fully duplicate chain), the
    same rows are solved by ``np.linalg.lstsq``, whose minimum-norm
    solution keeps the derivative finite.

    The buffers come from ``workspace`` (a new one if it is None or was
    made for other sizes); the result is a view of one of them.
    """
    n, d = phis.shape
    ws = _workspace_for(workspace, n, d)
    # rows: the basis w^m / sqrt(m!), then y
    block = ws.array("scratch", (_FIT_TERMS + d, n))
    basis, y = block[:_FIT_TERMS], block[_FIT_TERMS:]
    w = np.conjugate(alphas[:, 0], out=basis[1])
    center = w.mean()
    w -= center
    beta = center.conjugate()
    basis[0] = 1.0
    for m in range(2, _FIT_TERMS):
        np.multiply(basis[m - 1], w, out=basis[m])
        basis[m] *= 1.0 / _SQRT[m]
    carrier = ws.array("carrier", (n,))
    np.exp(np.multiply(beta, w, out=carrier), out=carrier)
    np.divide(phis.T, carrier, out=y)
    coef = _fit_coefficients(block, _FIT_TERMS)
    # coefficients of the derivative in the same basis
    dcoef = beta * coef
    dcoef[:-1] += _SQRT[1:, None] * coef[1:]
    deriv = np.matmul(dcoef.T, basis, out=ws.array("deriv", (d, n)))
    deriv *= carrier
    return deriv


def _fit_coefficients(block, k):
    """Least-squares coefficients, shape (k, d), of the rows
    ``block[k:]`` in the basis rows ``block[:k]``.

    One Hermitian rank-N update gives the Gram matrix and the right-hand
    sides together, from the block in place.
    """
    normal = zherk(1.0, block.T, trans=2)  # upper triangle of conj(B) B^T
    gram, rhs = normal[:k, :k], normal[:k, k:]
    factor, info = zpotrf(gram)
    if info == 0 and np.all(factor.diagonal().real ** 2
                            > _PIVOT_FLOOR * gram.diagonal().real):
        coef, _ = zpotrs(factor, rhs)
        return coef
    return np.linalg.lstsq(block[:k].T, block[k:].T, rcond=None)[0]


def _rates(alphas, phis, spec, t, workspace=None):
    """Time derivatives of (alphas, phis) from a frozen snapshot.

    Component-major: ``alphas`` is (1, N), ``phis`` is (d, N), and the
    rates come back in the same layouts, as views of the buffers of
    ``workspace`` (a new one if it is None or was made for other sizes).
    """
    d, n = phis.shape
    ws = _workspace_for(workspace, n, d)
    norms2 = ws.array("rates_norms2", (n,), float)
    # the squares of the states go where j phi goes next
    jphi = ws.array("rates_phis", (d, n))
    np.square(phis.real, out=jphi.real)
    np.square(phis.imag, out=jphi.imag)
    np.sum(np.add(jphi.real, jphi.imag, out=jphi.real), axis=0, out=norms2)
    if not norms2.all():
        raise ZeroNormConditionalState("conditional state collapsed to zero norm")
    (j,) = rotated_currents(spec, t)
    deriv = _derivatives(alphas.T, phis.T, workspace=ws)
    tmp = ws.array("scratch", (d, n))  # the fit is done with it
    a_dot = ws.array("rates_alphas", (1, n))
    v = a_dot[0]
    np.matmul(j, phis, out=jphi)
    np.sum(np.multiply(np.conjugate(phis, out=tmp), jphi, out=tmp), axis=0,
           out=v)
    v /= norms2
    # term = conj(alpha) j phi + j^dag deriv - conj(v) deriv, in place of
    # j phi; the last product goes in place of deriv
    term = np.multiply(np.conjugate(alphas[0], out=tmp[0]), jphi, out=jphi)
    term += np.matmul(j.conj().T, deriv, out=tmp)
    term -= np.multiply(np.conjugate(v, out=tmp[0]), deriv, out=deriv)
    np.multiply(-1j, v, out=v)
    np.multiply(-1j, term, out=term)
    return a_dot, term


def step(chain: ChainState, spec: ModelSpec, eps: float,
         integrator: str = "euler") -> ChainState:
    """One comoving update cycle of length eps on a single-mode chain.

    Both the phase-space move and the state update are computed from
    the pre-update snapshot and then committed together, so the cycle
    is order-independent across points. ``integrator='midpoint'``
    evaluates the rates a second time at a half-step snapshot. The cycle
    runs on component-major copies of the chain arrays, in the buffers
    of the chain's update workspace (``_Workspace``), which the returned
    chain carries on to its own step.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if spec.d != chain.d or spec.n_modes != chain.n_modes:
        raise DimensionMismatch("chain and model disagree on dimensions")
    if chain.n_modes != 1:
        raise DimensionMismatch(
            f"the chain update is single-mode; got {chain.n_modes} modes")
    n, d = chain.n_points, chain.d
    ws = _workspace_for(chain._workspace, n, d)
    alphas = chain.alphas.T  # (1, N) and already C-contiguous
    phis = ws.array("phis", (d, n))
    np.copyto(phis, chain.phis.T)
    a_dot, p_dot = _rates(alphas, phis, spec, chain.time, workspace=ws)
    if integrator == "midpoint":
        half = 0.5 * eps
        mid_a = np.multiply(half, a_dot, out=ws.array("mid_alphas", (1, n)))
        mid_p = np.multiply(half, p_dot, out=ws.array("mid_phis", (d, n)))
        a_dot, p_dot = _rates(np.add(alphas, mid_a, out=mid_a),
                              np.add(phis, mid_p, out=mid_p),
                              spec, chain.time + half, workspace=ws)
    elif integrator != "euler":
        raise ValueError(f"unknown integrator {integrator!r}")
    # the updated arrays overwrite the rates; ChainState copies them out
    np.add(alphas, np.multiply(eps, a_dot, out=a_dot), out=a_dot)
    np.add(phis, np.multiply(eps, p_dot, out=p_dot), out=p_dot)
    out = ChainState(
        time=chain.time + eps,
        alphas=a_dot.T,
        phis=p_dot.T,
        segment_starts=chain.segment_starts,
        n_steps=chain.n_steps + 1,
        lineage=chain.lineage,
    )
    object.__setattr__(out, "_workspace", ws)
    return out


def estimate(chain: ChainState, obs: Observable,
             batch_count: int = DEFAULT_BATCH_COUNT):
    """Ensemble average of conditional expectations, with a batch-means
    standard error.

    Returns ``(value, stderr)``: the plain average over points of
    poly(alpha(k)) * <F>_k, and the non-overlapping batch-means standard
    error (batches of consecutive points, so chain autocorrelation is
    respected).
    """
    if obs.n_modes != chain.n_modes:
        raise DimensionMismatch("observable and chain disagree on mode count")
    if obs.f is None or _is_identity(obs.f):
        cond = np.ones(chain.n_points, dtype=complex)
    else:
        f = as_operator(obs.f, dim=chain.d)
        norms2 = _norms2(chain.phis)
        if np.any(norms2 == 0.0):
            raise ZeroNormConditionalState("conditional state has zero norm")
        cond = _cond_exp_batch(chain.phis, f, norms2)
    vals = obs.poly_values(chain.alphas) * cond
    value = complex(vals.mean())
    b = max(2, min(batch_count, chain.n_points))
    per = chain.n_points // b
    means = vals[: b * per].reshape(b, per).mean(axis=1)
    centered = means - means.mean()
    stderr = float(np.sqrt(np.sum(np.abs(centered) ** 2) / (b * (b - 1))))
    return value, stderr


@dataclass(frozen=True)
class ChainQuality:
    """Within-segment increment statistics and degeneracy flags."""

    max_increment: np.ndarray   # per mode
    min_increment: np.ndarray   # per mode, duplicates excluded
    mean_increment: np.ndarray  # per mode
    frac_below_delta_min: np.ndarray  # per mode
    n_duplicate_pairs: int
    n_degenerate_pairs: int
    n_zero_norm: int
    n_segments: int

    def needs_reformat(self, step_cap: float) -> bool:
        return (float(np.max(self.max_increment)) > 2.0 * step_cap
                or self.n_degenerate_pairs > 0
                or self.n_zero_norm > 0)


def chain_quality(chain: ChainState,
                  delta_min: float = DEFAULT_DELTA_MIN) -> ChainQuality:
    """Increment metrics used to decide when reformatting is due."""
    alphas, phis = chain.alphas, chain.phis
    # consecutive pairs, minus those that straddle a segment start
    within = np.ones(chain.n_points - 1, dtype=bool)
    within[chain.segment_starts[1:] - 1] = False
    ia = np.nonzero(within)[0]
    ib = ia + 1
    inc = np.abs(alphas[ib] - alphas[ia])  # (pairs, M)
    d_phi_norm = np.linalg.norm(phis[ib] - phis[ia], axis=1)
    tol = 1e-12 * (1.0 + np.sqrt(_norms2(phis[ia])))
    dup = (np.max(inc, axis=1) < delta_min) & (d_phi_norm <= tol)
    degen = np.any(inc < delta_min, axis=1) & (d_phi_norm > tol)
    live = ~dup
    norms2 = _norms2(phis)
    zero_norm = int(np.sum(norms2 < _ZERO_NORM_FLOOR * norms2.mean()))
    min_inc = inc[live].min(axis=0) if np.any(live) else np.zeros(chain.n_modes)
    return ChainQuality(
        max_increment=inc.max(axis=0),
        min_increment=min_inc,
        mean_increment=inc.mean(axis=0),
        frac_below_delta_min=np.mean(inc < delta_min, axis=0),
        n_duplicate_pairs=int(np.sum(dup)),
        n_degenerate_pairs=int(np.sum(degen)),
        n_zero_norm=zero_norm,
        n_segments=len(chain.segment_starts),
    )


def coherent_bargmann(alpha0, atomic):
    """Entire conditional state of a coherent field times an atomic vector.

    The returned phi0 carries ``log_weight``, the closed form of its
    phase-space weight: e^{-|alpha|^2} ||phi0(alpha*)||^2 is exactly
    ||atomic||^2 e^{-|alpha - alpha0|^2}, a complex Gaussian around
    alpha0. The sampler uses it in place of evaluating phi0. It also
    carries ``values``, phi0(alpha_k*) at every row of an (N, M) array
    in one numpy pass, equal bit for bit to the per-point calls;
    ``initial_chain`` uses it to attach the states.
    """
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=complex))
    atomic = np.asarray(atomic, dtype=complex)
    offset = -0.5 * float(np.sum(np.abs(alpha0) ** 2))
    center = alpha0.tolist()
    norm2 = float(np.real(np.vdot(atomic, atomic)))
    log_norm2 = math.log(norm2) if norm2 > 0.0 else -math.inf

    def phi0(alpha_star):
        alpha_star = np.atleast_1d(np.asarray(alpha_star, dtype=complex))
        return np.exp(np.sum(alpha_star * alpha0) + offset) * atomic

    def log_weight(alpha):
        dist2 = 0.0
        for a, c in zip(alpha.tolist(), center):
            d = a - c
            dist2 += d.real * d.real + d.imag * d.imag
        return log_norm2 - dist2

    def values(alphas):
        return (np.exp(np.sum(np.conj(alphas) * alpha0, axis=1) + offset)[:, None]
                * atomic)

    phi0.log_weight = log_weight
    phi0.values = values
    return phi0


def initial_chain(phi0, n_modes: int, n_points: int, step_cap: float, rng,
                  params: SamplerParams | None = None,
                  start=None, time: float = 0.0,
                  lineage: tuple = ("sampled",)) -> ChainState:
    """Sample a chain from the weight e^{-|alpha|^2} ||phi0(alpha*)||^2
    and attach phi0 at the sampled points (through ``phi0.values`` when
    phi0 carries it, otherwise one call per point)."""
    if params is None:
        params = SamplerParams(step_cap=step_cap)
    elif params.step_cap != step_cap:
        raise ValueError("params.step_cap disagrees with step_cap")
    logw = log_weight_from_phi(phi0, n_modes)
    alphas, seg_starts = sample_positions(logw, n_modes, n_points, params, rng,
                                          start=start)
    values = getattr(phi0, "values", None)
    if values is not None:
        phis = values(alphas)
    else:
        phis = np.array([phi0(np.conj(a)) for a in alphas], dtype=complex)
    if phis.ndim != 2:
        raise DimensionMismatch("phi0 must return a fixed-size vector")
    return ChainState(time=time, alphas=alphas, phis=phis,
                      segment_starts=seg_starts, lineage=lineage)


def standard_suite(d: int, n_modes: int) -> list:
    """Observables used for reformat validation and generic smoke runs."""
    obs = []
    for n in range(n_modes):
        obs.append(Observable(f=None, poly=mode_monomial(n_modes, n, 1, 0),
                              name=f"alpha{n}"))
        obs.append(Observable(f=None, poly=mode_monomial(n_modes, n, 1, 1),
                              name=f"alpha{n}_abs2"))
    for i in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[i, i] = 1.0
        obs.append(atomic_observable(p, n_modes, name=f"pop{i}"))
    if d >= 2:
        x = np.zeros((d, d), dtype=complex)
        x[0, 1] = x[1, 0] = 1.0
        obs.append(atomic_observable(x, n_modes, name="coh01"))
    return obs


# A median relative misfit of the fit to the stored states above this
# means the chain no longer samples one entire function well enough to
# carry its states over (see ``reformat``).
_FIT_RESIDUAL_LIMIT = 0.1
_SQRT_FACTORIAL = np.sqrt([math.factorial(m) for m in range(_FIT_TERMS)])


class BargmannInterpolant:
    """The conditional state of a single-mode chain as one entire
    function of z = alpha*.

    The fit of ``_derivatives``: with c the mean of z over the chain,
    w = z - c and beta = conj(c),

        Phi(z) ~ e^{beta w} sum_{n<K} c_n w^n / sqrt(n!),  K = _FIT_TERMS,

    least-squares fitted to the stored states, with the same Cholesky
    solve and ``lstsq`` fallback. ``residual`` is the median over the
    chain of ||Phi(alpha_k*) - phi_k|| / ||phi_k||. ``values`` evaluates
    Phi at many points, ``phi_at`` at one point on Python scalars (Horner
    over the K terms of each component).
    """

    def __init__(self, alphas: np.ndarray, phis: np.ndarray):
        alphas = np.asarray(alphas, dtype=complex)
        phis = np.asarray(phis, dtype=complex)
        n, d = phis.shape
        z = alphas[:, 0].conj()
        center = z.mean()
        w = z - center
        beta = center.conjugate()
        block = np.empty((_FIT_TERMS + d, n), dtype=complex)
        block[0] = 1.0
        for m in range(1, _FIT_TERMS):
            np.multiply(block[m - 1], w / _SQRT[m], out=block[m])
        np.divide(phis.T, np.exp(beta * w), out=block[_FIT_TERMS:])
        coef = _fit_coefficients(block, _FIT_TERMS)
        # power-series coefficients of each component, highest first
        self._horner = (coef / _SQRT_FACTORIAL[:, None]).T[:, ::-1].copy()
        self._rows = self._horner.tolist()
        self._center, self._beta = complex(center), complex(beta)
        misfit = np.linalg.norm(self.values(alphas) - phis, axis=1)
        self.residual = float(np.median(misfit / np.linalg.norm(phis, axis=1)))

    def values(self, alphas):
        """Phi at every row of ``alphas`` (shape (N, 1)); shape (N, d)."""
        w = np.conj(alphas[:, 0]) - self._center
        acc = np.tile(self._horner[:, 0], (w.shape[0], 1))
        for a in self._horner.T[1:]:
            acc *= w[:, None]
            acc += a
        acc *= np.exp(self._beta * w)[:, None]
        return acc

    def phi_at(self, alpha):
        """Phi at the point whose coordinates are ``alpha`` (length 1)."""
        w = alpha.tolist()[0].conjugate() - self._center
        carrier = cmath.exp(self._beta * w)
        out = []
        for row in self._rows:
            acc = row[0]
            for a in row[1:]:
                acc = acc * w + a
            out.append(carrier * acc)
        return np.array(out)

    def log_weight(self, alpha):
        """log of e^{-|alpha|^2} ||Phi(alpha*)||^2."""
        n2 = 0.0
        for v in self.phi_at(alpha).tolist():
            n2 += v.real * v.real + v.imag * v.imag
        if not 0.0 < n2 < math.inf:
            return -math.inf
        a = alpha.tolist()[0]
        return math.log(n2) - (a.real * a.real + a.imag * a.imag)


def reformat(chain: ChainState, params: SamplerParams, rng,
             observables=None, gate_factor: float = 3.0) -> ChainState:
    """Re-walk the chain against its current weight to restore uniform
    small increments.

    The conditional state is carried over by the chain's own fit
    (``BargmannInterpolant``). The chain is split into the segments of
    ``_segment_lengths(N, params.segment_len)``, which for a chain
    sampled with the same ``segment_len`` are its own. Each segment
    keeps its first point as the seed, and phase B of the sampler
    (``rewalk_segments``) re-walks the rest of it under the fitted weight
    e^{-|alpha|^2} ||Phi(alpha*)||^2. The seeds are the evolved chain's
    points, so they are already distributed by that weight, and the
    capped walk leaves it invariant; within-segment increments are at
    most ``params.step_cap`` again. Every new point, seeds included,
    carries the fitted state. Since the seeds are shared, the estimates
    after reformat are correlated with those before.

    Raises DimensionMismatch for a chain with more than one mode, and
    InterpolationDegraded, before sampling, when the fit misses the
    stored states by a median relative residual above
    ``_FIT_RESIDUAL_LIMIT``. The result is validated too: every
    observable in the suite must agree with the pre-reformat estimate
    within ``gate_factor`` combined standard errors, otherwise
    InterpolationDegraded is raised.
    """
    if chain.n_modes != 1:
        raise DimensionMismatch(
            f"reformat is single-mode; got {chain.n_modes} modes")
    interp = BargmannInterpolant(chain.alphas, chain.phis)
    if not interp.residual <= _FIT_RESIDUAL_LIMIT:
        raise InterpolationDegraded(
            f"the fitted conditional state misses the stored states by a "
            f"median relative residual of {interp.residual:.3e} (> "
            f"{_FIT_RESIDUAL_LIMIT:g}); the chain no longer samples one "
            f"entire function")
    if observables is None:
        observables = standard_suite(chain.d, chain.n_modes)
    before = [estimate(chain, ob) for ob in observables]

    alphas, seg_starts = rewalk_segments(interp.log_weight, chain.alphas,
                                         params, rng)
    out = ChainState(time=chain.time, alphas=alphas,
                     phis=interp.values(alphas), segment_starts=seg_starts,
                     n_steps=chain.n_steps,
                     lineage=chain.lineage + (f"reformat@t={chain.time:.6g}",))
    after = [estimate(out, ob) for ob in observables]
    for ob, (v0, s0), (v1, s1) in zip(observables, before, after):
        tol = gate_factor * np.hypot(s0, s1) + 1e-12
        if abs(v1 - v0) > tol:
            raise InterpolationDegraded(
                f"observable {ob.name or 'unnamed'} moved by {abs(v1 - v0):.3e} "
                f"(> {tol:.3e}) across reformat")
    return out
