"""Metropolis machinery for drawing small-increment chains from a
phase-space weight.

The target weight is w(alpha) = e^{-|alpha|^2} ||phi(alpha*)||^2, known
up to normalization through a ``log_weight`` callable. The chain the
rest of the package needs has two properties in tension: its empirical
distribution must converge to w at close to iid rate (the estimator
tolerances assume ~4/sqrt(N)), while consecutive points must sit within
``step_cap`` of each other so the finite-difference derivative along
the chain is accurate. A single random-walk trace with capped proposals
cannot do both (its autocorrelation time grows like 1/step_cap^2), so
sampling is split in two phases:

  phase A: an uncapped Metropolis walk, proposal scale adapted toward
    ~50% acceptance during burn-in, thinned to give near-independent
    segment seeds;
  phase B: from each seed, a short capped Metropolis walk (truncated
    Gaussian proposals, symmetric, so stationarity is exact) fills in
    the remaining points of the segment.

The result is a chain of contiguous short segments: every point is
exactly w-distributed, within-segment increments never exceed the cap,
and the effective sample size is ~N / segment_len. Derivatives are
taken within segments only, so the large seed-to-seed jumps at segment
boundaries never enter a difference quotient.

This walk is what ``initial_chain`` runs for a generic ``phi0``
callable; ``chain_derivative`` (acceptance criterion 5) needs its small
increments. A coherent start needs none of it: its weight is a complex
Gaussian, so ``initial_chain`` draws those points exactly, iid, and the
update's derivative is one fit over the whole cloud, which reads no
increments.

``move_lockstep`` moves every point of a cloud at once by a few capped
proposals, each point a Metropolis walk of its own under a vectorized
weight. ``chain.reformat`` uses it on an evolved chain: every point
starts from its own position, which is already distributed by the
current weight, and the capped walk leaves that weight invariant.

Metropolis rejections duplicate the previous point. Duplicates carry
the repeat multiplicity the Metropolis measure requires and are handled
downstream by a neighbor-skip rule, but a segment consisting entirely
of one duplicated point would have no usable increment at all, so such
segments are re-walked from the same seed.

A capped proposal is redrawn until every mode moves by at most
``step_cap``. With many modes and ``_SEG_SIGMA_FRAC`` near 1 that can
take hundreds of draws; after a million the sampler raises
SamplerStuck instead of running on.

The walk itself runs on Python scalars: the position is a list of
complex numbers, and the Gaussian and uniform draws come from numpy in
blocks of 8192 and are handed out as Python numbers. Every numpy step
whose rounding Python's would not match (the proposal scale's exp
factors, the cap test) is still done by numpy, a chunk of draws at a
time, so a given generator state gives the same chain bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplerStuck

_SIGMA_MIN = 1e-4
_SIGMA_MAX = 20.0
_BLOCK = 8192              # draws per RNG call
_CHUNK = 1024              # draws turned into Python numbers at a time
_MAX_CAP_DRAWS = 1_000_000  # draws one capped proposal may use up
_SEED_STRIDE = 8           # phase-A proposals between segment seeds
_WALK_SIGMA0 = 1.0         # initial phase-A proposal scale
_SEG_SIGMA_FRAC = 0.5      # capped proposal scale / step_cap
_ACCEPT_TARGET = 0.5       # phase-A acceptance the adaptation aims at
_ACCEPT_FLOOR = 0.02       # phase-A acceptance below which the walk is stuck
_MAX_SEGMENT_RETRIES = 50  # re-walks of a segment that accepted no move


@dataclass(frozen=True)
class SamplerParams:
    """The Metropolis sampler's knobs that callers set; the walk's other
    settings are the module constants above."""

    step_cap: float = 0.45
    segment_len: int = 6
    burn_in: int | None = None     # None -> 10 * n_points proposals

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


class _BufferedDraws:
    """Blocked RNG draws, handed out as Python numbers so that the walk
    runs on scalars.

    Each block is one ``standard_normal((8192, 2 * n_modes))`` call and
    one ``random(8192)`` call, in that order, so the stream does not
    depend on how the draws are consumed. A block is turned into Python
    numbers a chunk at a time, which keeps few of them alive at once.
    """

    def __init__(self, rng, n_modes):
        self.rng = rng
        self.n_modes = n_modes
        self._next = _BLOCK
        self._advance()

    def _advance(self):
        """Hand out the next chunk, drawing a new block when needed."""
        if self._next >= _BLOCK:
            self._normals = _complex_normals(self.rng, _BLOCK, self.n_modes)
            self._logu = np.log(self.rng.random(_BLOCK))
            self._next = 0
        lo = self._next
        self._next += _CHUNK
        self._chunk = self._normals[lo: self._next]
        self.normals = self._chunk.tolist()
        self.logu = self._logu[lo: self._next].tolist()
        self._inside_for = None
        self.pos = 0

    def next(self):
        if self.pos >= _CHUNK:
            self._advance()
        i = self.pos
        self.pos += 1
        return self.normals[i], self.logu[i]

    def next_inside(self, sigma, cap):
        """The next draw whose step ``sigma * normal`` moves every mode by
        at most ``cap``; the draws skipped on the way are used up.

        The cap test is numpy's ``abs``, taken once per chunk: Python's
        ``abs`` of a complex can differ from it in the last bits.
        """
        for _ in range(_MAX_CAP_DRAWS):
            if self.pos >= _CHUNK:
                self._advance()
            if self._inside_for != (sigma, cap):
                self._inside = np.all(np.abs(sigma * self._chunk) <= cap,
                                      axis=1).tolist()
                self._inside_for = (sigma, cap)
            i = self.pos
            self.pos += 1
            if self._inside[i]:
                return self.normals[i], self.logu[i]
        raise SamplerStuck(
            f"no capped proposal of scale {sigma:g} moved every mode by at "
            f"most step_cap {cap:g} in {_MAX_CAP_DRAWS} draws; raise "
            f"step_cap")


class _Walker:
    """Current state of a Metropolis walk on log weights.

    The position is a list of Python complex numbers, one per mode; the
    weight is called with it as a 1-D complex array. ``logw``, the log
    weight at ``x0``, is evaluated unless the caller already has it.
    """

    def __init__(self, log_weight, x0, draws, logw=None):
        self.log_weight = log_weight
        self.x = list(x0)
        if logw is None:
            logw = log_weight(np.array(self.x))
        self.logw = float(logw)
        if not math.isfinite(self.logw):
            raise SamplerStuck("walk started at a zero-weight point")
        self.draws = draws
        self.accepted = 0

    def step(self, sigma, cap=None):
        """One Metropolis proposal; returns True if accepted.

        With ``cap`` set, proposals are redrawn until every mode moves by
        at most the cap (truncated Gaussian, symmetric).
        """
        if cap is None:
            noise, logu = self.draws.next()
        else:
            noise, logu = self.draws.next_inside(sigma, cap)
        y = [a + sigma * n for a, n in zip(self.x, noise)]
        logw_y = float(self.log_weight(np.array(y)))
        if logu < logw_y - self.logw:
            self.x = y
            self.logw = logw_y
            self.accepted += 1
            return True
        return False


def log_weight_from_phi(phi, n_modes):
    """Log of e^{-|alpha|^2} ||phi(alpha*)||^2, as a closure that
    evaluates phi at one point.

    The Metropolis walk calls it once per proposal on a 1-element-per-mode
    array, so it uses array methods and Python comparisons where numpy's
    functions would add call overhead but no different rounding.
    """

    def logw(alpha):
        v = phi(np.conj(alpha))
        n2 = float(np.vdot(v, v).real)
        if not 0.0 < n2 < math.inf:
            return -math.inf
        return float(-(np.abs(alpha) ** 2).sum() + np.log(n2))

    return logw


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


def sample_positions(log_weight, n_modes, n_points, params: SamplerParams,
                     rng, start=None):
    """Draw chain positions from the weight.

    Returns ``(alphas, segment_starts)`` where ``alphas`` has shape
    ``(n_points, n_modes)`` and ``segment_starts`` lists the first index
    of each small-increment segment.

    Raises SamplerStuck if the phase-A acceptance rate cannot be pulled
    above the floor, or a segment cannot acquire a usable increment.
    """
    if n_points < 2:
        raise ValueError("a chain needs at least 2 points")
    draws = _BufferedDraws(rng, n_modes)
    x0 = np.zeros(n_modes, dtype=complex) if start is None else np.asarray(start, dtype=complex)
    walker = _Walker(log_weight, x0.tolist(), draws)

    burn_in = params.burn_in if params.burn_in is not None else 10 * n_points
    burn_in = max(burn_in, 500)
    sigma = _WALK_SIGMA0

    # Robbins-Monro adaptation of the phase-A proposal scale. The growth
    # and shrink factors are numpy's exp, tabulated a chunk at a time:
    # math.exp rounds some of them differently.
    window_from = burn_in - min(500, burn_in // 2)
    window_acc = 0
    for lo in range(0, burn_in, _CHUNK):
        hi = min(lo + _CHUNK, burn_in)
        gain = 4.0 / np.sqrt(np.arange(lo, hi) + 10.0)
        grow = np.exp(gain * (1.0 - _ACCEPT_TARGET)).tolist()
        shrink = np.exp(gain * (0.0 - _ACCEPT_TARGET)).tolist()
        for i, up, down in zip(range(lo, hi), grow, shrink):
            acc = walker.step(sigma)
            sigma = min(max(sigma * (up if acc else down), _SIGMA_MIN), _SIGMA_MAX)
            if acc and i >= window_from:
                window_acc += 1
    window_rate = window_acc / (burn_in - window_from)
    if window_rate < _ACCEPT_FLOOR:
        raise SamplerStuck(
            f"phase-A acceptance {window_rate:.3f} below floor "
            f"{_ACCEPT_FLOOR} after adaptation")

    lengths = _segment_lengths(n_points, params.segment_len)
    alphas = np.empty((n_points, n_modes), dtype=complex)
    segment_starts = []
    pos = 0
    for seg_len in lengths:
        # decorrelate, then take the current walk state as the seed
        for _ in range(_SEED_STRIDE):
            walker.step(sigma)
        alphas[pos: pos + seg_len] = _walk_segment(
            log_weight, walker.x, walker.logw, seg_len, params, draws, pos)
        segment_starts.append(pos)
        pos += seg_len
    return alphas, np.asarray(segment_starts, dtype=int)


def _walk_segment(log_weight, seed, seed_logw, seg_len, params, draws, pos):
    """Phase B: a capped walk of ``seg_len`` points from a seed, walked
    again from the same seed while every move is rejected; ``pos`` is the
    segment's first index, for the error message."""
    sigma = _SEG_SIGMA_FRAC * params.step_cap
    for _ in range(_MAX_SEGMENT_RETRIES):
        w = _Walker(log_weight, seed, draws, logw=seed_logw)
        seg = [w.x]
        for _ in range(1, seg_len):
            w.step(sigma, cap=params.step_cap)
            seg.append(w.x)
        if w.accepted:
            return seg
    raise SamplerStuck(
        f"segment at point {pos} never accepted a move in "
        f"{_MAX_SEGMENT_RETRIES} re-walks")


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
    n_points, n_modes = x.shape
    sigma = _SEG_SIGMA_FRAC * params.step_cap
    logw = np.array(log_weights(x), dtype=float)
    if not np.all(np.isfinite(logw)):
        raise SamplerStuck(
            f"walk started at a zero-weight point "
            f"({int(np.sum(~np.isfinite(logw)))} of {n_points})")
    for _ in range(n_moves):
        step = sigma * _complex_normals(rng, n_points, n_modes)
        outside = np.nonzero(np.any(np.abs(step) > params.step_cap, axis=1))[0]
        for _ in range(_MAX_CAP_DRAWS - 1):
            if outside.size == 0:
                break
            redraw = sigma * _complex_normals(rng, outside.size, n_modes)
            step[outside] = redraw
            outside = outside[np.any(np.abs(redraw) > params.step_cap, axis=1)]
        if outside.size:
            raise SamplerStuck(
                f"no capped proposal of scale {sigma:g} moved every mode by "
                f"at most step_cap {params.step_cap:g} in {_MAX_CAP_DRAWS} "
                f"draws; raise step_cap")
        y = x + step
        logu = np.log(rng.random(n_points))
        logw_y = log_weights(y)
        accept = logu < logw_y - logw
        x[accept] = y[accept]
        logw[accept] = logw_y[accept]
    return x
