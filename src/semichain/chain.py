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
displaced number states around the cloud's centre, factored by
Cholesky, with a minimum-norm ``lstsq`` fallback for chains too
degenerate to factor. The update reads the fit's derivative
dphi/dalpha*, and ``reformat`` carries the states over by the same
fit's values. The update is single-mode; ``step`` rejects chains with
more than one mode.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateIncrement, DimensionMismatch,
                     InterpolationDegraded, SamplerStuck,
                     ZeroNormConditionalState)
from .hilbert import as_operator
from .model import ModelSpec, rotated_currents
from .observables import Observable, atomic_observable, mode_monomial
from .sampling import (SamplerParams, _complex_normals, _log_weights,
                       _phi_values, log_weight_from_phi, move_lockstep,
                       sample_positions)

_DELTA_MIN = 1e-8  # a smaller increment repeats a point, or has collapsed
DEFAULT_BATCH_COUNT = 32
_ZERO_NORM_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ChainState:
    """Immutable chain snapshot.

    ``alphas`` has shape (N, M), ``phis`` shape (N, d). A chain that the
    Metropolis sampler walked is a concatenation of contiguous segments
    with small increments within each (``segment_starts`` holds the
    first index of each); ``chain_derivative`` and ``chain_quality``
    take differences within a segment, never across its boundaries. Any
    other chain, a coherent start's iid cloud among them, is one segment
    (``segment_starts == [0]``). The update, ``estimate`` and
    ``reformat`` read no segments. After the draw the update is
    deterministic, so the time, points, states and segments are all a
    prediction needs.

    A chain returned by ``step`` also carries the update workspace that
    its next ``step`` reuses; it is not part of the snapshot, so it
    takes no part in ``==``, ``repr`` or checkpoints, and a chain built
    any other way starts without one.
    """

    time: float
    alphas: np.ndarray
    phis: np.ndarray
    segment_starts: np.ndarray = None
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
        if not (np.isfinite(alphas.view(float)).all()
                and np.isfinite(flat).all()):
            raise DimensionMismatch("chain entries must be finite")
        if (np.einsum("ki,ki->k", flat, flat) == 0.0).any():
            raise ZeroNormConditionalState("chain contains a zero conditional state")
        starts = self.segment_starts
        starts = np.array([0] if starts is None else starts)
        if (starts.dtype.kind != "i" or starts.ndim != 1 or starts.size == 0
                or starts[0] != 0 or (starts[1:] - starts[:-1] < 2).any()
                or starts[-1] > n - 2):
            raise DimensionMismatch("segment starts must be 1-D integers from "
                                    "0, with >= 2 points per segment")
        alphas.setflags(write=False)
        phis.setflags(write=False)
        starts.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "segment_starts", starts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time == other.time
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


def _norms2(phis: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ki->k", phis.conj(), phis).real


def _cond_exp_batch(phis: np.ndarray, f: np.ndarray, norms2: np.ndarray) -> np.ndarray:
    return np.einsum("ki,ki->k", phis.conj(), phis @ f.T) / norms2


def _repeats(alphas, phis, i):
    """Whether point i + 1 repeats point i: the same position and, to
    rounding, the same state (a Metropolis rejection)."""
    return bool(np.max(np.abs(alphas[i + 1] - alphas[i])) < _DELTA_MIN
                and np.linalg.norm(phis[i + 1] - phis[i])
                <= 1e-12 * (1.0 + np.linalg.norm(phis[i])))


def chain_derivative(chain: ChainState, k: int, n: int) -> np.ndarray:
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
    while hi < seg_last and _repeats(alphas, phis, hi):
        hi += 1
    if hi < seg_last:
        partner = hi + 1
    else:
        lo = k
        while lo > seg_first and _repeats(alphas, phis, lo - 1):
            lo -= 1
        if lo == seg_first:  # the whole segment repeats point k
            return np.zeros(chain.d, dtype=complex)
        partner = lo - 1
    ka, kb = min(k, partner), max(k, partner)
    dphi = phis[kb] - phis[ka]
    dstar = np.conj(alphas[kb, n] - alphas[ka, n])
    if abs(dstar) < _DELTA_MIN:
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


@functools.cache
def _inverse_sqrt_factorials(k):
    """1 / sqrt(m!) for m < k: the basis rows hold the bare powers w^m,
    and this normalization goes on the K x K and K x d arrays instead."""
    return np.array([1.0 / math.sqrt(math.factorial(m)) for m in range(k)])


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
      states it fits), which ``derivative()`` reads; then, in its first
      1 + d rows, the rates that ``_rates`` returns, and the updated
      state that ``step`` writes over them;
    - "carrier": the fit's e^{beta w} at the chain's points, then the
      per-point factors of ``_rates``;
    - "exp_parts": the real factors of the fit's carrier;
    - "deriv": the inverse of the fit's carrier, then the conjugated
      basis rows of its normal equations, then its derivative, then a
      product of ``_rates``;
    - "rates_phis": the squared states, then j phi, then a product of
      ``_rates``.

    ``step``'s "state", RK4 "stage" and "rk4_slope" are (1 + d, N):
    positions in row 0, states below, as are the rates.
    """

    def __init__(self, n, d):
        self.key = (n, d)
        self._flat = {}
        self._views = {}

    def array(self, name, shape, dtype=complex):
        """A C-contiguous array of ``shape`` (a tuple) at the start of the
        flat buffer ``name``, which grows to fit; arrays of one name share
        memory. The view is made once per (name, shape, dtype)."""
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            flat = self._flat.get(name)
            if flat is None or flat.size < nbytes:
                flat = self._flat[name] = np.empty(nbytes, np.uint8)
                self._views = {k: v for k, v in self._views.items()
                               if k[0] != name}
            view = self._views[key] = flat[:nbytes].view(dtype).reshape(shape)
        return view


def _workspace_for(workspace, n, d):
    """``workspace`` if it was made for these sizes, else a new one."""
    if workspace is not None and workspace.key == (n, d):
        return workspace
    return _Workspace(n, d)


def _fill_basis(alphas, basis, carrier, parts, inverse=None, center=None):
    """The fit's columns at the points ``alphas`` (shape (N, 1)): the
    powers w^m of w = alpha* - center into the rows of ``basis`` (K, N),
    and e^{beta w} with beta = conj(center) into ``carrier`` (N,), and
    e^{-beta w} into ``inverse`` if it is given. A None ``center`` is the
    mean of alpha*; returns the center used.

    The exponentials are built from the real exponential, cosine and
    sine of beta w (``parts``, shape (2, N), holds two of them), which
    is quicker than numpy's complex exponential and a complex division.
    """
    w = np.conjugate(alphas[:, 0], out=basis[1])
    if center is None:
        center = w.mean()
    w -= center
    basis[0] = 1.0
    for m in range(2, basis.shape[0]):
        np.multiply(basis[m - 1], w, out=basis[m])
    u = np.multiply(center.conjugate(), w, out=carrier)
    modulus, sine = parts
    np.exp(u.real, out=modulus)
    np.sin(u.imag, out=sine)
    np.cos(u.imag, out=u.real)
    if inverse is not None:
        np.divide(u.real, modulus, out=inverse.real)
        np.divide(sine, modulus, out=inverse.imag)
        np.negative(inverse.imag, out=inverse.imag)
    np.multiply(sine, modulus, out=u.imag)
    u.real *= modulus
    return center


def _evaluate(coef, basis, carrier, out):
    """e^{beta w} sum_m coef_m w^m / sqrt(m!) on the columns that
    ``_fill_basis`` made, component-major (d, N), into ``out``."""
    np.matmul(coef.T * _inverse_sqrt_factorials(coef.shape[0]), basis, out=out)
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
    samples, so the K x K normal equations are well conditioned: they are
    factored by ``np.linalg.cholesky`` and solved by ``np.linalg.solve``.
    A Metropolis repeat is just a repeated row. If the factorization
    fails, or a pivot shows numerically dependent columns (fewer than K
    distinct points, a fully duplicate chain), the same rows are solved
    by ``np.linalg.lstsq``, whose minimum-norm solution keeps the fit
    finite.

    ``coef`` holds the c_n, shape (K, d), and ``values`` takes K from
    it, so a fit keeps the K it was made with. The update reads
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
        inverse = self._ws.array("deriv", (n,))
        self._center = _fill_basis(alphas, self._basis, self._carrier,
                                   self._ws.array("exp_parts", (2, n), float),
                                   inverse)
        np.multiply(phis.T, inverse, out=block[_FIT_TERMS:])
        self.coef = _fit_coefficients(
            block, _FIT_TERMS, self._ws.array("deriv", (_FIT_TERMS, n)))

    def derivative(self):
        """dPhi/dz at the chain's own points, shape (d, N), as a view of
        the workspace's "deriv" buffer. It reads the basis in "scratch",
        so it must come before anything else writes there."""
        n, d = self._phis.shape
        dcoef = self._center.conjugate() * self.coef
        dcoef[:-1] += np.sqrt(np.arange(1, len(dcoef)))[:, None] * self.coef[1:]
        return _evaluate(dcoef, self._basis, self._carrier,
                         self._ws.array("deriv", (d, n)))

    def values(self, alphas):
        """Phi at every row of ``alphas`` (shape (N, 1)); shape (N, d)."""
        n = alphas.shape[0]
        basis = np.empty((self.coef.shape[0], n), dtype=complex)
        carrier = np.empty(n, dtype=complex)
        _fill_basis(alphas, basis, carrier, np.empty((2, n)),
                    center=self._center)
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
        return _log_weights(self.values(alphas), alphas)

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


def _fit_coefficients(block, k, conj):
    """Least-squares coefficients, shape (k, d), of the rows
    ``block[k:]`` in the basis rows ``norm[:, None] * block[:k]``, where
    ``norm`` holds the 1 / sqrt(m!).

    One product of the whole block with the conjugated basis rows
    (written into ``conj``, shape (k, N)) gives the Gram matrix and the
    right-hand sides together, transposed; both are normalized
    afterwards.
    """
    norm = _inverse_sqrt_factorials(k)
    normal = np.matmul(block, np.conjugate(block[:k], out=conj).T).T
    normal *= norm[:, None]
    gram, rhs = normal[:, :k], normal[:, k:]
    gram *= norm
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        factor = None
    if factor is not None and (factor.diagonal().real ** 2
                               > _PIVOT_FLOOR * gram.diagonal().real).all():
        return np.linalg.solve(gram, rhs)
    return np.linalg.lstsq(block[:k].T * norm, block[k:].T, rcond=None)[0]


def _rates(y, spec, t, workspace=None):
    """Time derivative of the state ``y`` from a frozen snapshot.

    Component-major: ``y`` is (1 + d, N), the positions in row 0 and the
    conditional states below, and its rate comes back in the same
    layout, as a view of the "scratch" buffer of ``workspace`` (a new
    one if it is None or was made for other sizes).
    """
    n = y.shape[1]
    d = y.shape[0] - 1
    alphas, phis = y[:1], y[1:]
    ws = _workspace_for(workspace, n, d)
    norms2 = ws.array("rates_norms2", (n,), float)
    # the squares of the states go where j phi goes next
    jphi = ws.array("rates_phis", (d, n))
    np.square(phis.view(float), out=jphi.view(float))
    np.sum(np.add(jphi.real, jphi.imag, out=jphi.real), axis=0, out=norms2)
    if not norms2.all():
        raise ZeroNormConditionalState("conditional state collapsed to zero norm")
    (j,) = rotated_currents(spec, t)
    deriv = _derivatives(alphas.T, phis.T, workspace=ws)
    rates = ws.array("scratch", (1 + d, n))  # the fit is done with it
    v, tmp = rates[0], rates[1:]
    np.matmul(j, phis, out=jphi)
    np.sum(np.multiply(np.conjugate(phis, out=tmp), jphi, out=tmp), axis=0,
           out=v)
    v /= norms2
    # -i (j^dag deriv - conj(v) deriv + conj(alpha) j phi), with the -i
    # taken into each factor; the products go in place of deriv and j phi
    factor = ws.array("carrier", (n,))  # the fit is done with it too
    term = np.matmul(-1j * j.conj().T, deriv, out=tmp)
    np.multiply(1j, np.conjugate(v, out=factor), out=factor)
    term += np.multiply(factor, deriv, out=deriv)
    np.multiply(-1j, np.conjugate(alphas[0], out=factor), out=factor)
    term += np.multiply(factor, jphi, out=jphi)
    np.multiply(-1j, v, out=v)
    return rates


def step(chain: ChainState, spec: ModelSpec, eps: float,
         integrator: str = "euler") -> ChainState:
    """One comoving update cycle of length eps on a single-mode chain.

    Both the phase-space move and the state update are computed from
    the pre-update snapshot and then committed together, so the cycle
    is order-independent across points. ``integrator='euler'`` takes
    one forward Euler step; ``integrator='rk4'`` takes one classical
    fourth-order Runge-Kutta step, whose four rate evaluations run at
    times t, t + eps/2, t + eps/2 and t + eps, and is what the runner
    uses. The cycle runs on one (1 + d, N) copy of the chain, in the
    buffers of the chain's update workspace (``_Workspace``), which the
    returned chain carries on to its own step.
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
    y = ws.array("state", (1 + d, n))
    np.copyto(y[:1], chain.alphas.T)
    np.copyto(y[1:], chain.phis.T)
    rates = _rates(y, spec, chain.time, workspace=ws)
    if integrator == "rk4":
        stage = ws.array("stage", (1 + d, n))
        slope = ws.array("rk4_slope", (1 + d, n))
        slope.fill(0.0)
        half = 0.5 * eps
        for reach, weight in ((half, 1 / 6), (half, 1 / 3), (eps, 1 / 3)):
            # the next stage's input y + reach k, then k's share of the
            # mean slope (k1 + 2 k2 + 2 k3 + k4) / 6: the rates are a view
            # of a buffer that the next _rates call overwrites
            np.add(y, np.multiply(reach, rates, out=stage), out=stage)
            slope += np.multiply(weight, rates, out=rates)
            rates = _rates(stage, spec, chain.time + reach, workspace=ws)
        slope += np.multiply(1 / 6, rates, out=rates)
        rates = slope
    elif integrator != "euler":
        raise ValueError(f"unknown integrator {integrator!r}")
    # the updated state overwrites the rates; ChainState copies it out
    np.add(y, np.multiply(eps, rates, out=rates), out=rates)
    out = ChainState(
        time=chain.time + eps,
        alphas=rates[:1].T,
        phis=rates[1:].T,
        segment_starts=chain.segment_starts,
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
        cond = _cond_exp_batch(chain.phis, f, _norms2(chain.phis))
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


def chain_quality(chain: ChainState) -> ChainQuality:
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
    dup = (np.max(inc, axis=1) < _DELTA_MIN) & (d_phi_norm <= tol)
    degen = np.any(inc < _DELTA_MIN, axis=1) & (d_phi_norm > tol)
    live = ~dup
    norms2 = _norms2(phis)
    zero_norm = int(np.sum(norms2 < _ZERO_NORM_FLOOR * norms2.mean()))
    min_inc = inc[live].min(axis=0) if np.any(live) else np.zeros(chain.n_modes)
    return ChainQuality(
        max_increment=inc.max(axis=0),
        min_increment=min_inc,
        mean_increment=inc.mean(axis=0),
        frac_below_delta_min=np.mean(inc < _DELTA_MIN, axis=0),
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
        return np.exp((alpha_star * alpha0).sum() + offset) * atomic

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


def initial_chain(phi0, n_modes: int, n_points: int,
                  step_cap: float | None = None, rng=None,
                  params: SamplerParams | None = None) -> ChainState:
    """Sample a chain from the weight e^{-|alpha|^2} ||phi0(alpha*)||^2
    and attach phi0 at the sampled points.

    A phi0 that carries ``draw`` (a coherent start, ``coherent_bargmann``)
    is sampled exactly: its ``n_points`` points are iid, from one draw
    of ``rng``, and form one segment. No Metropolis walk runs, so no
    sampler parameter plays a part (``step_cap`` may be left out), and
    no point repeats another. Any other phi0 callable is sampled by the
    Metropolis sampler (``sample_positions``), whose walkers, one per
    segment of ``params.segment_len`` points, all start at the origin
    (where the weight must not vanish) and move together, with the step
    cap of ``step_cap`` or ``params``. The weight and the states come from
    ``phi0.values`` when phi0 carries it, otherwise from one call per
    point. The chain starts at time 0.
    """
    if rng is None:
        raise TypeError("initial_chain needs a random generator, rng")
    if (params is not None and step_cap is not None
            and params.step_cap != step_cap):
        raise ValueError("params.step_cap disagrees with step_cap")
    draw = getattr(phi0, "draw", None)
    if draw is not None:
        if n_points < 2:
            raise ValueError("a chain needs at least 2 points")
        alphas = draw(rng, n_points)
        if alphas.shape[1] != n_modes:
            raise DimensionMismatch(
                f"phi0 has {alphas.shape[1]} modes, n_modes is {n_modes}")
        seg_starts = None
    else:
        if params is None:
            if step_cap is None:
                raise ValueError("the Metropolis sampler needs a step_cap")
            params = SamplerParams(step_cap=step_cap)
        logw = log_weight_from_phi(phi0, n_modes)
        alphas, seg_starts = sample_positions(logw, n_modes, n_points, params,
                                              rng)
    phis = _phi_values(phi0, alphas)
    if phis.ndim != 2:
        raise DimensionMismatch("phi0 must return a fixed-size vector")
    return ChainState(time=0.0, alphas=alphas, phis=phis,
                      segment_starts=seg_starts)


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
             gate_factor: float = 3.0) -> ChainState:
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
    observable of ``standard_suite`` must agree with the pre-reformat
    estimate within ``gate_factor`` combined standard errors, otherwise
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
    suite = standard_suite(chain.d, chain.n_modes)
    before = [estimate(chain, ob) for ob in suite]

    alphas = move_lockstep(interp.log_weights, chain.alphas,
                           params.segment_len - 1, params, rng)
    out = ChainState(time=chain.time, alphas=alphas,
                     phis=interp.values(alphas),
                     segment_starts=chain.segment_starts)
    after = [estimate(out, ob) for ob in suite]
    for ob, (v0, s0), (v1, s1) in zip(suite, before, after):
        tol = gate_factor * np.hypot(s0, s1) + 1e-12
        if abs(v1 - v0) > tol:
            raise InterpolationDegraded(
                f"observable {ob.name or 'unnamed'} moved by {abs(v1 - v0):.3e} "
                f"(> {tol:.3e}) across reformat")
    return out
