"""Metropolis machinery for drawing small-increment chains from a
phase-space weight.

The target weight is w(alpha) = e^{-|alpha|^2} ||phi(alpha*)||^2, known
up to normalization through a batched ``log_weights`` callable, which
maps an (n, n_modes) array of positions to n log weights. The chain the
rest of the package needs has two properties in tension: its empirical
distribution must converge to w at close to iid rate (the estimator
tolerances assume ~4/sqrt(N)), while consecutive points must sit within
``step_cap`` of each other so the finite-difference derivative along
the chain is accurate. A single random-walk trace with capped proposals
cannot do both (its autocorrelation time grows like 1/step_cap^2), so
sampling is split in two phases, each a set of walkers that move
together, one per segment:

  phase A: uncapped Metropolis walks from the start, with a shared
    proposal scale adapted toward ~50% acceptance; each walker's final
    position is its segment's seed;
  phase B: from each seed, a short capped Metropolis walk (truncated
    Gaussian proposals, symmetric, so stationarity is exact) fills in
    the remaining points of the segment.

The result is a chain of contiguous short segments: every point is
w-distributed, within-segment increments never exceed the cap, and the
effective sample size is ~N / segment_len. Derivatives are taken within
segments only, so the large seed-to-seed jumps at segment boundaries
never enter a difference quotient.

``initial_chain`` runs this walk for a generic ``phi0`` callable, and
``chain_derivative`` (acceptance criterion 5) needs its small
increments. A coherent start needs none of it: ``initial_chain`` draws
its complex Gaussian weight exactly, iid.

``move_lockstep`` moves every point of a cloud at once by a few capped
proposals; ``chain.reformat`` uses it on an evolved chain, whose points
are already distributed by the current weight, which the capped walk
leaves invariant. All three walks make one move, ``_move``: a proposal
for every row at once.

Metropolis rejections duplicate the previous point. Duplicates carry
the repeat multiplicity the Metropolis measure requires, but a segment
consisting entirely of one duplicated point would have no usable
increment at all, so such segments are re-walked from the same seed.

A capped proposal is redrawn until every mode moves by at most
``step_cap``. With many modes and ``_SEG_SIGMA_FRAC`` near 1 that can
take hundreds of draws; after a million the sampler raises
SamplerStuck instead of running on.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplerStuck

_SIGMA_MIN = 1e-4
_SIGMA_MAX = 20.0
_MAX_CAP_DRAWS = 1_000_000  # draws one capped proposal may use up
_WALK_SIGMA0 = 1.0         # initial phase-A proposal scale
_SEG_SIGMA_FRAC = 0.5      # capped proposal scale / step_cap
_ACCEPT_TARGET = 0.5       # phase-A acceptance the adaptation aims at
_ACCEPT_FLOOR = 0.02       # phase-A acceptance below which the walk is stuck
_MAX_SEGMENT_RETRIES = 50  # re-walks of a segment that accepted no move
_MIN_WALK_MOVES = 50       # phase-A moves every walker makes to leave the start


@dataclass(frozen=True)
class SamplerParams:
    """The Metropolis sampler's knobs that callers set; the walk's other
    settings are the module constants above."""

    step_cap: float = 0.45
    segment_len: int = 6
    burn_in: int | None = None  # total phase-A proposals; None -> 10 * n_points

    def __post_init__(self):
        if self.step_cap <= 0:
            raise ValueError("step_cap must be positive")
        if self.segment_len < 2:
            raise ValueError("segment_len must be at least 2")


def _complex_normals(rng, n, n_modes):
    """(n, n_modes) unit complex Gaussians, (g1 + i g2) / sqrt(2), from
    one ``standard_normal((n, 2 * n_modes))`` call."""
    g = rng.standard_normal((n, 2 * n_modes))
    return (g[:, :n_modes] + 1j * g[:, n_modes:]) / np.sqrt(2.0)


def _log_weights(values, alphas):
    """log of e^{-|alpha|^2} ||phi||^2 per row of the states ``values`` at
    ``alphas``; -inf where phi vanishes or is not finite."""
    n2 = np.einsum("ki,ki->k", values.conj(), values).real
    ok = (n2 > 0.0) & (n2 < math.inf)
    out = np.full(n2.shape, -math.inf)
    out[ok] = np.log(n2[ok]) - np.sum(np.abs(alphas[ok]) ** 2, axis=1)
    return out


def _phi_values(phi, alphas):
    """phi(alpha_k*) at every row of the (n, n_modes) ``alphas``: through
    ``phi.values`` when phi carries it, otherwise by one call per row."""
    values = getattr(phi, "values", None)
    if values is not None:
        return values(alphas)
    return np.array([phi(np.conj(a)) for a in alphas], dtype=complex)


def log_weight_from_phi(phi):
    """Log of e^{-|alpha|^2} ||phi(alpha*)||^2 as a batched weight: it
    maps an (n, n_modes) array to n log weights, -inf where phi vanishes
    or is not finite. It evaluates phi by ``_phi_values``."""

    def log_weights(alphas):
        return _log_weights(_phi_values(phi, alphas), alphas)

    return log_weights


def _start_log_weights(log_weights, x):
    """The log weights at the walkers' start positions ``x``; raises
    SamplerStuck if any of them is zero."""
    logw = np.array(log_weights(x), dtype=float)
    if not np.all(np.isfinite(logw)):
        raise SamplerStuck(
            f"walk started at a zero-weight point "
            f"({int(np.sum(~np.isfinite(logw)))} of {x.shape[0]})")
    return logw


def _move(log_weights, x, logw, sigma, rng, cap=None):
    """One Metropolis proposal of scale ``sigma`` for every row of the
    positions ``x``, whose log weights are ``logw``; both are updated in
    place. Returns the boolean mask of accepted rows.

    With ``cap`` set, a row's proposal is redrawn until every mode moves
    by at most the cap (truncated Gaussian, symmetric). The draws are
    the normals, then the redraws, then one uniform per row.
    """
    n_rows, n_modes = x.shape
    step = sigma * _complex_normals(rng, n_rows, n_modes)
    if cap is not None:
        outside = np.nonzero(np.any(np.abs(step) > cap, axis=1))[0]
        for _ in range(_MAX_CAP_DRAWS - 1):
            if outside.size == 0:
                break
            redraw = sigma * _complex_normals(rng, outside.size, n_modes)
            step[outside] = redraw
            outside = outside[np.any(np.abs(redraw) > cap, axis=1)]
        if outside.size:
            raise SamplerStuck(
                f"no capped proposal of scale {sigma:g} moved every mode by "
                f"at most step_cap {cap:g} in {_MAX_CAP_DRAWS} draws; raise "
                f"step_cap")
    y = x + step
    logu = np.log(rng.random(n_rows))
    logw_y = log_weights(y)
    accept = logu < logw_y - logw
    x[accept] = y[accept]
    logw[accept] = logw_y[accept]
    return accept


def _segment_lengths(n_points, segment_len):
    """Split n_points into contiguous segments of >= 2 points each."""
    n_segments = max(1, n_points // segment_len)
    base = n_points // n_segments
    extra = n_points % n_segments
    lengths = [base + 1] * extra + [base] * (n_segments - extra)
    if lengths and lengths[-1] < 2:
        # only possible for tiny n_points; collapse to one segment
        return [n_points]
    return lengths


def sample_positions(log_weights, n_modes, n_points, params: SamplerParams,
                     rng):
    """Draw chain positions from the batched weight ``log_weights``.

    Returns ``(alphas, segment_starts)`` where ``alphas`` has shape
    ``(n_points, n_modes)`` and ``segment_starts`` lists the first index
    of each small-increment segment.

    Phase A walks one walker per segment from the origin, each by
    ceil(max(burn_in, 500) / n_segments) uncapped proposals, and at
    least ``_MIN_WALK_MOVES``; phase B walks every segment from its
    walker's final position at once.

    Raises SamplerStuck if the weight is zero at the origin, the phase-A
    acceptance rate cannot be pulled above the floor, or a segment
    cannot acquire a usable increment.
    """
    if n_points < 2:
        raise ValueError("a chain needs at least 2 points")
    lengths = np.array(_segment_lengths(n_points, params.segment_len))
    n_walks = lengths.size
    x = np.zeros((n_walks, n_modes), dtype=complex)
    logw = _start_log_weights(log_weights, x)

    burn_in = params.burn_in if params.burn_in is not None else 10 * n_points
    n_moves = max(-(-max(burn_in, 500) // n_walks), _MIN_WALK_MOVES)
    # Robbins-Monro adaptation of the shared proposal scale on each
    # move's acceptance rate; the floor is judged on the last half
    sigma = _WALK_SIGMA0
    window_from = n_moves // 2
    window_rate = 0.0
    for i in range(n_moves):
        rate = float(_move(log_weights, x, logw, sigma, rng).mean())
        if i >= window_from:
            window_rate += rate / (n_moves - window_from)
        gain = 4.0 / math.sqrt(i + 10.0)
        sigma = min(max(sigma * math.exp(gain * (rate - _ACCEPT_TARGET)),
                        _SIGMA_MIN), _SIGMA_MAX)
    if window_rate < _ACCEPT_FLOOR:
        raise SamplerStuck(
            f"phase-A acceptance {window_rate:.3f} below floor "
            f"{_ACCEPT_FLOOR} after adaptation")

    # phase B: path[j, s] is segment s's j-th point (past its length: unused)
    seg_sigma = _SEG_SIGMA_FRAC * params.step_cap
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    path = np.empty((lengths.max(), n_walks, n_modes), dtype=complex)
    todo = np.arange(n_walks)
    for _ in range(_MAX_SEGMENT_RETRIES):
        xb, logwb = x[todo], logw[todo]
        path[0, todo] = xb
        moved = np.zeros(todo.size, dtype=bool)
        for j in range(1, path.shape[0]):
            accept = _move(log_weights, xb, logwb, seg_sigma, rng,
                           params.step_cap)
            path[j, todo] = xb
            moved |= accept & (j < lengths[todo])
        todo = todo[~moved]
        if todo.size == 0:
            break
    else:
        raise SamplerStuck(
            f"segment at point {starts[todo[0]]} never accepted a move in "
            f"{_MAX_SEGMENT_RETRIES} re-walks")
    inside = np.arange(path.shape[0])[None, :] < lengths[:, None]
    alphas = path.transpose(1, 0, 2)[inside]
    return alphas, starts


def move_lockstep(log_weights, alphas, n_moves, params: SamplerParams, rng):
    """``n_moves`` capped Metropolis proposals for every point at once.

    Each row of the ``(n_points, n_modes)`` positions ``alphas`` is a
    walk of its own under ``log_weights``, which maps an (n, n_modes)
    array to n log weights. A proposal has phase B's scale,
    ``_SEG_SIGMA_FRAC * step_cap``, and is redrawn, row by row, until
    every mode moves by at most ``step_cap``, so no point moves further
    than ``n_moves * step_cap`` per mode. Returns the new positions.

    Raises SamplerStuck if a point starts at zero weight, or a row's
    capped proposal is still outside the cap after a million draws.
    """
    x = np.array(alphas, dtype=complex)
    logw = _start_log_weights(log_weights, x)
    sigma = _SEG_SIGMA_FRAC * params.step_cap
    for _ in range(n_moves):
        _move(log_weights, x, logw, sigma, rng, params.step_cap)
    return x
