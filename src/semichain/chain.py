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
conditional state at its point's current position. The derivative
dphi/dalpha* is a local least-squares fit along the chain (see
``_derivatives``). The update is single-mode; ``step`` rejects chains
with more than one mode.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DegenerateIncrement, DimensionMismatch,
                     InterpolationDegraded, ZeroNormConditionalState)
from .hilbert import as_operator, as_state
from .model import ModelSpec, rotated_currents
from .observables import Observable, atomic_observable, mode_monomial
from .sampling import SamplerParams, log_weight_from_phi, sample_positions

DEFAULT_DELTA_MIN = 1e-8
DEFAULT_BATCH_COUNT = 32
_ZERO_NORM_FLOOR = 1e-14


@dataclass(frozen=True)
class ChainState:
    """Immutable chain snapshot.

    ``alphas`` has shape (N, M), ``phis`` shape (N, d). The chain is a
    concatenation of contiguous segments (``segment_starts`` holds the
    first index of each); within a segment consecutive increments are
    small and finite differences are taken, across segment boundaries
    they never are. ``lineage`` records how the chain was produced,
    ``n_steps`` counts update cycles applied since sampling.
    """

    time: float
    alphas: np.ndarray
    phis: np.ndarray
    segment_starts: np.ndarray = None
    n_steps: int = 0
    lineage: tuple = ()

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


def _phi_tol(phis: np.ndarray) -> np.ndarray:
    return 1e-12 * (1.0 + np.sqrt(_norms2(phis)))


@dataclass(frozen=True)
class _Groups:
    """Runs of consecutive duplicates (Metropolis repeats) per segment."""

    gid: np.ndarray        # (N,) group id per point
    first: np.ndarray      # (G,) first point index of each group
    last: np.ndarray       # (G,) last point index of each group
    seg_of_group: np.ndarray  # (G,) segment id per group
    group_lo: np.ndarray   # (G,) first group id of the group's segment
    group_hi: np.ndarray   # (G,) last group id of the group's segment


def _group_structure(alphas, phis, segment_starts, delta_min) -> _Groups:
    """Partition the chain into maximal runs of duplicate points.

    Stencils are built on groups rather than raw indices so that every
    member of a run sees the same difference partners and duplicates
    keep evolving identically (they are one weighted point).
    """
    n = alphas.shape[0]
    # the state test only runs where the points coincide
    k = np.nonzero(np.max(np.abs(alphas[1:] - alphas[:-1]), axis=1)
                   < delta_min)[0]
    same = np.zeros(n - 1, dtype=bool)
    same[k] = (np.linalg.norm(phis[k + 1] - phis[k], axis=1)
               <= _phi_tol(phis[k]))
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = ~same
    new_group[segment_starts] = True
    gid = np.cumsum(new_group) - 1
    n_groups = gid[-1] + 1
    first = np.nonzero(new_group)[0]
    last = np.empty(n_groups, dtype=int)
    last[:-1] = first[1:] - 1
    last[-1] = n - 1
    edges = np.append(segment_starts, n)
    seg_of_group = np.searchsorted(edges, first, side="right") - 1
    group_lo = gid[segment_starts][seg_of_group]
    last_point_of_seg = edges[seg_of_group + 1] - 1
    group_hi = gid[last_point_of_seg]
    return _Groups(gid=gid, first=first, last=last, seg_of_group=seg_of_group,
                   group_lo=group_lo, group_hi=group_hi)


def chain_derivative(chain: ChainState, k: int, n: int,
                     delta_min: float = DEFAULT_DELTA_MIN) -> np.ndarray:
    """Finite-difference estimate of dphi/dalpha_n* at point k.

    Uses the forward neighbor for interior points and the backward one
    for the last point of a segment (hence of the chain), skipping
    exact repeats. A vanishing increment with a vanishing state
    difference yields the zero vector; a vanishing increment with a
    real state difference means the graph has collapsed and raises
    DegenerateIncrement.
    """
    if not 0 <= k < chain.n_points:
        raise IndexError(f"point index {k} out of range")
    if not 0 <= n < chain.n_modes:
        raise IndexError(f"mode index {n} out of range")
    alphas, phis = chain.alphas, chain.phis
    g = _group_structure(alphas, phis, chain.segment_starts, delta_min)
    gk = g.gid[k]
    if gk < g.group_hi[gk]:
        partner = g.first[gk + 1]
    elif gk > g.group_lo[gk]:
        partner = g.last[gk - 1]
    else:  # the whole segment repeats point k
        return np.zeros(chain.d, dtype=complex)
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


# Groups per tile of the derivative kernel: small enough that every
# temporary stays in cache and is recycled by the allocator instead of
# being mapped afresh on each call.
_TILE = 1024
# Windows whose 2x2 slope-curvature system cancels by more than this
# factor (det < p t / _REFIT_CONDITION) lose up to that many ulps in the
# closed form; they are refitted from their points.
_REFIT_CONDITION = 1e3


def _derivatives(alphas, phis, segment_starts, delta_min, window=2):
    """Local least-squares chain derivative dphi/dalpha* of a single-mode
    chain, component-major: shape (d, N) for ``alphas`` (N, 1) and
    ``phis`` (N, d).

    Fits a quadratic in D = z_partner - z_center (z = alpha*) to the
    state increments over the distinct chain points within ``window``
    duplicate-groups of the center's group (same segment, center
    included) and returns the linear coefficient. With a single partner
    this reproduces the two-point quotient exactly; with more it both
    averages the random first-order error of the quotient (damping the
    noise self-amplification that strictly one-sided differencing shows
    over long runs) and absorbs the curvature of phi. Working on
    duplicate groups keeps Metropolis repeats evolving identically and
    guarantees the window spans distinct points whenever the segment
    has any.

    Every moment is summed directly over the window's increments, never
    as a difference of whole-chain sums, so no cancellation grows with N
    or |alpha| (Chan, Golub & LeVeque, Am. Stat. 37, 1983). The groups
    are fitted in tiles, each extended by ``window`` groups on both
    sides so that its windows are complete. The few windows with a
    nearly coincident pair of points, where the moments cannot resolve
    the curvature to full precision, are refitted by ``_refit_slopes``.
    """
    groups = _group_structure(alphas, phis, segment_starts, delta_min)
    n_groups = groups.first.shape[0]
    gs = np.arange(n_groups)
    lo = np.maximum(groups.group_lo, gs - window)
    hi = np.minimum(groups.group_hi, gs + window)
    # no pair further apart than the longest segment shares a segment
    window = min(window, int(np.max(groups.group_hi - groups.group_lo)))
    slope = np.empty((phis.shape[1], n_groups), dtype=complex)
    refit = []
    for a in range(0, n_groups, _TILE):
        b = min(a + _TILE, n_groups)
        ext = slice(max(a - window, 0), min(b + window, n_groups))
        core = slice(a - ext.start, b - ext.start)
        reps = groups.first[ext]
        sm, pm = _window_moments(alphas[reps, 0].conj(),
                                 np.take(phis.T, reps, axis=1),
                                 groups.seg_of_group[ext], window)
        slope[:, a:b], degenerate, ill = _window_slope(
            sm[:, core], pm[:, :, core], hi[a:b] - lo[a:b] + 1, delta_min)
        _check_collapsed(a + np.nonzero(degenerate)[0], lo, hi, groups.first,
                         phis)
        refit.append(a + np.nonzero(ill)[0])
    gs = np.concatenate(refit)
    if gs.size:
        slope[:, gs] = _refit_slopes(alphas, phis, groups.first, gs, lo, hi,
                                     window)
    return np.take(slope, groups.gid, axis=1)


def _refit_slopes(alphas, phis, reps, gs, lo, hi, window):
    """Quadratic-fit slopes, shape (d, len(gs)), of the windows around
    groups ``gs``, from an SVD of each window's design matrix; its error
    grows with the design's condition number, not with its square."""
    slots = gs[:, None] + np.arange(-window, window + 1)
    inside = (slots >= lo[gs, None]) & (slots <= hi[gs, None])
    pts = reps[np.where(inside, slots, gs[:, None])]
    centers = reps[gs, None]
    dz = (alphas[pts, 0] - alphas[centers, 0]).conj()
    design = np.stack([np.ones_like(dz), dz, dz * dz], axis=2)
    design *= inside[:, :, None]
    dphi = phis[pts] - phis[centers]
    return (np.linalg.pinv(design) @ dphi)[:, 1, :].T


def _window_moments(z, ph, seg, window):
    """Window sums of the increment moments around each group.

    Returns the scalar moments (sum D^2, sum |D|^2, sum |D|^4, sum D,
    sum conj(D) D^2) and the state moments (sum conj(D) dphi, sum dphi,
    sum conj(D)^2 dphi). Each shift s computes the increments of the
    group pairs (g, g + s) once and adds them to both groups: the
    reverse pair has D -> -D and dphi -> -dphi, under which the first
    three scalar moments and the first state moment keep their value
    and the others flip sign. A pair that straddles a segment boundary
    gets D = 0, which zeroes every moment but sum dphi; that one is
    masked.
    """
    n = z.shape[0]
    sm = np.zeros((5, n), dtype=complex)
    pm = np.zeros((3,) + ph.shape, dtype=complex)
    for s in range(1, min(window, n - 1) + 1):
        keep = seg[s:] == seg[:-s]
        sc = np.empty((5, n - s), dtype=complex)
        pc = np.empty((3, ph.shape[0], n - s), dtype=complex)
        dz, dphi = sc[3], pc[1]
        np.subtract(z[s:], z[:-s], out=dz)
        dz *= keep
        dzc = dz.conj()
        np.multiply(dz, dz, out=sc[0])
        np.multiply(dzc, dz, out=sc[1])
        np.multiply(sc[1], sc[1], out=sc[2])
        np.multiply(dzc, sc[0], out=sc[4])
        np.subtract(ph[:, s:], ph[:, :-s], out=dphi)
        np.multiply(dzc, dphi, out=pc[0])
        np.multiply(dzc, pc[0], out=pc[2])
        dphi *= keep
        sm[:, :-s] += sc
        pm[:, :, :-s] += pc
        sm[:3, s:] += sc[:3]
        sm[3:, s:] -= sc[3:]
        pm[0, :, s:] += pc[0]
        pm[1:, :, s:] -= pc[1:]
    return sm, pm


def _window_slope(sm, pm, counts, delta_min):
    """Closed-form slope from window moments, shape (d, groups), with
    the masks of windows without a usable increment (their slope is 0)
    and of quadratic windows too ill-conditioned for the closed form.

    Eliminating the intercept leaves a Hermitian 2x2 system in slope
    and curvature (its Schur complement); windows of fewer than 3
    groups solve the affine 1x1 one.
    """
    s2, s11, s22, s1, s12 = sm
    r1, r0, r2 = pm
    s11, s22 = s11.real, s22.real
    degenerate = s11 < (delta_min ** 2)
    # p b + q c = u, conj(q) b + t c = w
    mean1 = s1.conj() / counts
    p = np.where(degenerate, 1.0, s11 - (mean1 * s1).real)
    u = r1 - mean1 * r0
    quad = (counts >= 3) & ~degenerate
    mean2 = s2.conj() / counts
    q = s12 - mean1 * s2
    t = s22 - (mean2 * s2).real
    w = r2 - mean2 * r0
    det = np.where(quad, p * t - (q * q.conj()).real, 1.0)
    b = np.where(quad, (t * u - q * w) / det, u / p)
    b[:, degenerate] = 0.0
    return b, degenerate, quad & (_REFIT_CONDITION * det < p * t)


def _check_collapsed(degenerate, lo, hi, reps, phis):
    """Raise if a window without a usable increment (``degenerate``
    lists their group ids) has differing states."""
    for g in degenerate:
        center = phis[reps[g]]
        tol2 = float(_phi_tol(center[None, :])[0]) ** 2
        members = phis[reps[lo[g]: hi[g] + 1]]
        moved = float(np.max(np.sum(np.abs(members - center) ** 2, axis=1)))
        if moved > tol2:
            raise DegenerateIncrement(
                f"all increments collapsed around point {int(reps[g])} while "
                f"the conditional states differ; reformat the chain")


def _rates(alphas, phis, segment_starts, spec, t, delta_min, deriv_window=2):
    """Time derivatives of (alphas, phis) from a frozen snapshot.

    Component-major: ``alphas`` is (1, N), ``phis`` is (d, N), and the
    rates come back in the same layouts.
    """
    norms2 = np.sum(phis.real ** 2 + phis.imag ** 2, axis=0)
    if np.any(norms2 == 0.0):
        raise ZeroNormConditionalState("conditional state collapsed to zero norm")
    (j,) = rotated_currents(spec, t)
    deriv = _derivatives(alphas.T, phis.T, segment_starts, delta_min,
                         deriv_window)
    jphi = j @ phis
    v = np.sum(phis.conj() * jphi, axis=0) / norms2
    term = alphas[0].conj() * jphi + j.conj().T @ deriv
    term -= v.conj() * deriv
    return (-1j * v)[None], -1j * term


def step(chain: ChainState, spec: ModelSpec, eps: float,
         delta_min: float = DEFAULT_DELTA_MIN,
         integrator: str = "euler",
         deriv_window: int = 2) -> ChainState:
    """One comoving update cycle of length eps on a single-mode chain.

    Both the phase-space move and the state update are computed from
    the pre-update snapshot and then committed together, so the cycle
    is order-independent across points. ``integrator='midpoint'``
    evaluates the rates a second time at a half-step snapshot.
    ``deriv_window`` is the half-width, in duplicate groups, of the
    least-squares window of the chain derivative. The cycle runs on
    component-major copies of the chain arrays.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if spec.d != chain.d or spec.n_modes != chain.n_modes:
        raise DimensionMismatch("chain and model disagree on dimensions")
    if chain.n_modes != 1:
        raise DimensionMismatch(
            f"the chain update is single-mode; got {chain.n_modes} modes")
    alphas = np.ascontiguousarray(chain.alphas.T)
    phis = np.ascontiguousarray(chain.phis.T)
    a_dot, p_dot = _rates(alphas, phis, chain.segment_starts, spec,
                          chain.time, delta_min, deriv_window)
    if integrator == "midpoint":
        mid_a = alphas + 0.5 * eps * a_dot
        mid_p = phis + 0.5 * eps * p_dot
        a_dot, p_dot = _rates(mid_a, mid_p, chain.segment_starts, spec,
                              chain.time + 0.5 * eps, delta_min, deriv_window)
    elif integrator != "euler":
        raise ValueError(f"unknown integrator {integrator!r}")
    return ChainState(
        time=chain.time + eps,
        alphas=(alphas + eps * a_dot).T,
        phis=(phis + eps * p_dot).T,
        segment_starts=chain.segment_starts,
        n_steps=chain.n_steps + 1,
        lineage=chain.lineage,
    )


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
    """Entire conditional state of a coherent field times an atomic vector."""
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=complex))
    atomic = np.asarray(atomic, dtype=complex)
    offset = -0.5 * float(np.sum(np.abs(alpha0) ** 2))

    def phi0(alpha_star):
        alpha_star = np.atleast_1d(np.asarray(alpha_star, dtype=complex))
        return np.exp(np.sum(alpha_star * alpha0) + offset) * atomic

    return phi0


def initial_chain(phi0, n_modes: int, n_points: int, step_cap: float, rng,
                  params: SamplerParams | None = None,
                  start=None, time: float = 0.0,
                  lineage: tuple = ("sampled",)) -> ChainState:
    """Sample a chain from the weight e^{-|alpha|^2} ||phi0(alpha*)||^2
    and attach phi0 at the sampled points."""
    if params is None:
        params = SamplerParams(step_cap=step_cap)
    elif params.step_cap != step_cap:
        raise ValueError("params.step_cap disagrees with step_cap")
    logw = log_weight_from_phi(phi0, n_modes)
    alphas, seg_starts = sample_positions(logw, n_modes, n_points, params, rng,
                                          start=start)
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


class BargmannInterpolant:
    """Locally affine interpolation of the map alpha* -> phi.

    Fits phi ~ a + sum_n b_n (alpha_n* - query*) by least squares over
    the nearest stored chain points and evaluates the fit at the query.
    A plain two-point secant is exact for the same affine class but
    ill-posed on clustered chains (the two nearest points are usually
    near-collinear cluster mates, so the fit is unconstrained transverse
    to them); a handful of neighbors makes the local fit well-posed.
    """

    def __init__(self, alphas: np.ndarray, phis: np.ndarray, neighbors: int = 8):
        self.alphas = np.asarray(alphas, dtype=complex)
        self.phis = np.asarray(phis, dtype=complex)
        pts = np.column_stack([self.alphas.real, self.alphas.imag])
        self.tree = cKDTree(pts)
        self._k = min(neighbors, self.alphas.shape[0])

    def phi_at(self, alpha):
        """phi interpolated at the point whose coordinates are alpha."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
        q = np.concatenate([alpha.real, alpha.imag])
        _, idx = self.tree.query(q, k=self._k)
        idx = np.atleast_1d(idx)
        dstar = (self.alphas[idx] - alpha[None, :]).conj()  # (k, M)
        design = np.concatenate(
            [np.ones((idx.shape[0], 1), dtype=complex), dstar], axis=1)
        gram = design.conj().T @ design
        m = alpha.shape[0]
        spread = float(np.sum(np.abs(dstar) ** 2))
        gram[np.arange(1, m + 1), np.arange(1, m + 1)] += 1e-12 * max(spread, 1.0)
        coef, *_ = np.linalg.lstsq(gram, design.conj().T @ self.phis[idx],
                                   rcond=None)
        return coef[0]

    def log_weight(self, alpha):
        v = self.phi_at(alpha)
        n2 = float(np.real(np.vdot(v, v)))
        if n2 <= 0.0 or not np.isfinite(n2):
            return -np.inf
        return float(-np.sum(np.abs(alpha) ** 2) + np.log(n2))


def reformat(chain: ChainState, params: SamplerParams, rng,
             observables=None, gate_factor: float = 3.0) -> ChainState:
    """Resample the chain against its current weight to restore uniform
    small increments.

    The current map alpha* -> phi is carried over by piecewise-linear
    interpolation between nearest stored points. Because the interpolant
    is an uncontrolled approximation, the result is validated: every
    observable in the suite must agree with the pre-reformat estimate
    within ``gate_factor`` combined standard errors, otherwise
    InterpolationDegraded is raised.
    """
    interp = BargmannInterpolant(chain.alphas, chain.phis)
    if observables is None:
        observables = standard_suite(chain.d, chain.n_modes)
    before = [estimate(chain, ob) for ob in observables]

    # warm start at the heaviest stored point
    logw_stored = -np.sum(np.abs(chain.alphas) ** 2, axis=1) \
        + np.log(_norms2(chain.phis))
    start = chain.alphas[int(np.argmax(logw_stored))]
    alphas, seg_starts = sample_positions(interp.log_weight, chain.n_modes,
                                          chain.n_points, params, rng,
                                          start=start)
    phis = np.array([interp.phi_at(a) for a in alphas], dtype=complex)
    out = ChainState(time=chain.time, alphas=alphas, phis=phis,
                     segment_starts=seg_starts, n_steps=chain.n_steps,
                     lineage=chain.lineage + (f"reformat@t={chain.time:.6g}",))
    after = [estimate(out, ob) for ob in observables]
    for ob, (v0, s0), (v1, s1) in zip(observables, before, after):
        tol = gate_factor * np.hypot(s0, s1) + 1e-12
        if abs(v1 - v0) > tol:
            raise InterpolationDegraded(
                f"observable {ob.name or 'unnamed'} moved by {abs(v1 - v0):.3e} "
                f"(> {tol:.3e}) across reformat")
    return out
