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
state samples one entire function of alpha*, one least-squares fit over
the whole chain (``BargmannInterpolant``) gives that function: K = 8
displaced number states around the cloud's centre, solved by Cholesky,
with a minimum-norm ``lstsq`` fallback for chains too degenerate to
factor. The update reads the fit's derivative dphi/dalpha*, and
``reformat`` carries the states over by the same fit's values. The
update is single-mode; ``step`` rejects chains with more than one mode.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpotrf, zpotrs

from .errors import (DegenerateIncrement, DimensionMismatch,
                     InterpolationDegraded, SamplerStuck,
                     ZeroNormConditionalState)
from .hilbert import as_operator, as_state
from .model import ModelSpec, rotated_currents
from .observables import Observable, atomic_observable, mode_monomial
from .sampling import (SamplerParams, _complex_normals, _segment_lengths,
                       log_weight_from_phi, move_lockstep, sample_positions)

DEFAULT_DELTA_MIN = 1e-8
DEFAULT_BATCH_COUNT = 32
_ZERO_NORM_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ChainState:
    """Immutable chain snapshot.

    ``alphas`` has shape (N, M), ``phis`` shape (N, d). The chain is a
    concatenation of contiguous segments (``segment_starts`` holds the
    first index of each); ``chain_derivative`` and ``chain_quality``
    take differences within a segment, never across its boundaries. A
    chain that the Metropolis sampler walked has small increments within
    each segment; a coherent start's iid cloud keeps the same split,
    with no small increments, and the update reads neither. ``lineage``
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
# ``BargmannInterpolant``).
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
    evaluation. The fit (``BargmannInterpolant``) and ``_rates`` write
    into its buffers and return views of them, which the next use
    overwrites; one chain must not be stepped from several threads at
    once. Uses that never overlap share a buffer, to keep the resident
    set small:

    - "scratch": the fit's stacked block (its basis rows, then the
      states it fits), which ``derivative()`` reads; then the products
      of ``_rates``;
    - "carrier": the fit's e^{beta w} at the chain's points;
    - "deriv": the fit's derivative, then the last product of
      ``_rates``;
    - "rates_phis": the squared states, then j phi.
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


def _fill_basis(alphas, basis, carrier, center=None):
    """The fit's columns at the points ``alphas`` (shape (N, 1)): the rows
    w^m / sqrt(m!) of w = alpha* - center into ``basis`` (K, N), and
    e^{beta w} with beta = conj(center) into ``carrier`` (N,). A None
    ``center`` is the mean of alpha*; returns the center used."""
    w = np.conjugate(alphas[:, 0], out=basis[1])
    if center is None:
        center = w.mean()
    w -= center
    basis[0] = 1.0
    for m in range(2, _FIT_TERMS):
        np.multiply(basis[m - 1], w, out=basis[m])
        basis[m] *= 1.0 / _SQRT[m]
    np.exp(np.multiply(center.conjugate(), w, out=carrier), out=carrier)
    return center


def _evaluate(coef, basis, carrier, out):
    """e^{beta w} sum_m coef_m w^m / sqrt(m!) on the columns that
    ``_fill_basis`` made, component-major (d, N), into ``out``."""
    np.matmul(coef.T, basis, out=out)
    out *= carrier
    return out


class BargmannInterpolant:
    """The conditional state of a single-mode chain as one entire
    function of z = alpha*, fitted once over the whole chain.

    Every stored state samples one entire function Phi of z (Bargmann,
    Comm. Pure Appl. Math. 14, 1961), so one least-squares fit over all
    N points gives it, and its derivative, everywhere. The fit is in the
    displaced number-state basis around the cloud's centre (de Oliveira,
    Kim, Knight & Buzek, Phys. Rev. A 41, 2645, 1990): with c the mean
    of z, w = z - c and beta = conj(c),

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
    solution keeps the fit finite.

    ``coef`` holds the c_n, shape (K, d). The update reads
    ``derivative()`` (through ``_derivatives``); ``reformat`` reads
    ``values``, ``log_weights`` and ``residual``. The basis and carrier
    at the chain's points live in the buffers of ``workspace`` (a new
    one if it is None or was made for other sizes).
    """

    def __init__(self, alphas, phis, workspace=None):
        alphas = np.asarray(alphas, dtype=complex)
        phis = np.asarray(phis, dtype=complex)
        n, d = phis.shape
        self._alphas, self._phis = alphas, phis
        self._ws = _workspace_for(workspace, n, d)
        # rows: the basis w^m / sqrt(m!), then y
        block = self._ws.array("scratch", (_FIT_TERMS + d, n))
        self._basis = block[:_FIT_TERMS]
        self._carrier = self._ws.array("carrier", (n,))
        self._center = _fill_basis(alphas, self._basis, self._carrier)
        np.divide(phis.T, self._carrier, out=block[_FIT_TERMS:])
        self.coef = _fit_coefficients(block, _FIT_TERMS)

    def derivative(self):
        """dPhi/dz at the chain's own points, shape (d, N), as a view of
        the workspace's "deriv" buffer. It reads the basis in "scratch",
        so it must come before anything else writes there."""
        n, d = self._phis.shape
        dcoef = self._center.conjugate() * self.coef
        dcoef[:-1] += _SQRT[1:, None] * self.coef[1:]
        return _evaluate(dcoef, self._basis, self._carrier,
                         self._ws.array("deriv", (d, n)))

    def values(self, alphas):
        """Phi at every row of ``alphas`` (shape (N, 1)); shape (N, d)."""
        n = alphas.shape[0]
        basis = np.empty((_FIT_TERMS, n), dtype=complex)
        carrier = np.empty(n, dtype=complex)
        _fill_basis(alphas, basis, carrier, self._center)
        out = np.empty((self.coef.shape[1], n), dtype=complex)
        return _evaluate(self.coef, basis, carrier, out).T

    def phi_at(self, alpha):
        """Phi at the point whose coordinates are ``alpha`` (length 1).

        The package itself evaluates the fit through ``values``; this
        form stays because the benchmark's tracer (``bench/tracer.py``)
        wraps it as its ``chain.interp`` target."""
        return self.values(alpha[None])[0]

    def log_weights(self, alphas):
        """log of e^{-|alpha|^2} ||Phi(alpha*)||^2 at every row of
        ``alphas`` (shape (N, 1)); -inf where Phi vanishes or is not
        finite."""
        n2 = _norms2(self.values(alphas))
        ok = (n2 > 0.0) & (n2 < math.inf)
        out = np.full(n2.shape, -math.inf)
        out[ok] = np.log(n2[ok]) - np.abs(alphas[ok, 0]) ** 2
        return out

    @property
    def residual(self):
        """Median over the chain of ||Phi(alpha_k*) - phi_k|| / ||phi_k||,
        computed on request from the arrays the fit was built from."""
        misfit = np.linalg.norm(self.values(self._alphas) - self._phis, axis=1)
        return float(np.median(misfit / np.linalg.norm(self._phis, axis=1)))


def _derivatives(alphas, phis, workspace=None):
    """Chain derivative dphi/dalpha* of a single-mode chain,
    component-major: shape (d, N) for ``alphas`` (N, 1) and ``phis``
    (N, d); the ``derivative()`` of the chain's fit
    (``BargmannInterpolant``), a view of a ``workspace`` buffer.

    ``_rates`` looks it up as a module global at each call, so it can be
    replaced from outside (the benchmark's tracer wraps it)."""
    return BargmannInterpolant(alphas, phis, workspace).derivative()


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


def chain_quality(chain: ChainState,
                  delta_min: float = DEFAULT_DELTA_MIN) -> ChainQuality:
    """Within-segment increment statistics and degeneracy flags. They
    describe a chain the Metropolis sampler walked; an iid cloud has no
    small increments to report on."""
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

    Its phase-space weight e^{-|alpha|^2} ||phi0(alpha*)||^2 is exactly
    ||atomic||^2 e^{-|alpha - alpha0|^2}, a complex Gaussian around
    alpha0. The returned phi0 carries:

    - ``draw(rng, n)``: n iid points of that weight, shape (n, M),
      alpha0 + (g1 + i g2) / sqrt(2) per mode from one
      ``rng.standard_normal((n, 2 M))`` call; it raises SamplerStuck,
      before drawing, when the atomic vector is zero (zero weight);
    - ``values(alphas)``: phi0(alpha_k*) at every row of an (N, M) array
      in one numpy pass, equal bit for bit to the per-point calls.

    ``initial_chain`` uses both.
    """
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=complex))
    atomic = np.asarray(atomic, dtype=complex)
    offset = -0.5 * float(np.sum(np.abs(alpha0) ** 2))
    norm2 = float(np.real(np.vdot(atomic, atomic)))

    def phi0(alpha_star):
        alpha_star = np.atleast_1d(np.asarray(alpha_star, dtype=complex))
        return np.exp(np.sum(alpha_star * alpha0) + offset) * atomic

    def values(alphas):
        return (np.exp(np.sum(np.conj(alphas) * alpha0, axis=1) + offset)[:, None]
                * atomic)

    def draw(rng, n):
        if not norm2 > 0.0:
            raise SamplerStuck("zero-weight start: the atomic state is zero")
        return alpha0 + _complex_normals(rng, n, alpha0.shape[0])

    phi0.values = values
    phi0.draw = draw
    return phi0


def initial_chain(phi0, n_modes: int, n_points: int, step_cap: float, rng,
                  params: SamplerParams | None = None,
                  start=None, time: float = 0.0,
                  lineage: tuple = ("sampled",)) -> ChainState:
    """Sample a chain from the weight e^{-|alpha|^2} ||phi0(alpha*)||^2
    and attach phi0 at the sampled points.

    A phi0 that carries ``draw`` (a coherent start, ``coherent_bargmann``)
    is sampled exactly: its ``n_points`` points are iid, from one draw,
    and are split into the segments of ``params.segment_len``. No
    Metropolis walk runs, so ``start``, the burn-in and the step cap
    play no part, and no point repeats another. Any other phi0 callable
    is sampled by the Metropolis sampler (``sample_positions``), which
    walks from ``start`` (the origin if None). The states come from
    ``phi0.values`` when phi0 carries it, otherwise from one call per
    point.
    """
    if params is None:
        params = SamplerParams(step_cap=step_cap)
    elif params.step_cap != step_cap:
        raise ValueError("params.step_cap disagrees with step_cap")
    draw = getattr(phi0, "draw", None)
    if draw is not None:
        if n_points < 2:
            raise ValueError("a chain needs at least 2 points")
        alphas = draw(rng, n_points)
        if alphas.shape[1] != n_modes:
            raise DimensionMismatch(
                f"phi0 has {alphas.shape[1]} modes, n_modes is {n_modes}")
        seg_starts = np.cumsum(
            [0] + _segment_lengths(n_points, params.segment_len)[:-1])
    else:
        logw = log_weight_from_phi(phi0, n_modes)
        alphas, seg_starts = sample_positions(logw, n_modes, n_points, params,
                                              rng, start=start)
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


def reformat(chain: ChainState, params: SamplerParams, rng,
             observables=None, gate_factor: float = 3.0) -> ChainState:
    """Move every point by a few Metropolis steps under the chain's
    current weight.

    The conditional state is carried over by the chain's own fit
    (``BargmannInterpolant``). Every point then makes
    ``params.segment_len - 1`` capped proposals under the fitted weight
    e^{-|alpha|^2} ||Phi(alpha*)||^2, all N points at once
    (``move_lockstep``), so none moves further than
    ``(segment_len - 1) * step_cap``. Each point starts from its own
    position, which is already distributed by that weight, and the
    capped walk leaves it invariant. Since every point starts where it
    was, the estimates after reformat are correlated with those before.
    Every point carries the fitted state afterwards, and the chain keeps
    its ``segment_starts``.

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
    residual = interp.residual
    if not residual <= _FIT_RESIDUAL_LIMIT:
        raise InterpolationDegraded(
            f"the fitted conditional state misses the stored states by a "
            f"median relative residual of {residual:.3e} (> "
            f"{_FIT_RESIDUAL_LIMIT:g}); the chain no longer samples one "
            f"entire function")
    if observables is None:
        observables = standard_suite(chain.d, chain.n_modes)
    before = [estimate(chain, ob) for ob in observables]

    alphas = move_lockstep(interp.log_weights, chain.alphas,
                           params.segment_len - 1, params, rng)
    out = ChainState(time=chain.time, alphas=alphas,
                     phis=interp.values(alphas),
                     segment_starts=chain.segment_starts,
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
