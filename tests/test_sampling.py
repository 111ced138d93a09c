import numpy as np
import pytest

import semichain as sc
from semichain import chain as chain_module, sampling
from semichain.errors import DimensionMismatch, SamplerStuck
from semichain.sampling import SamplerParams, log_weight_from_phi, sample_positions

from conftest import disk_grid, quad_phase_plane


def _gaussian_weight(center):
    def logw(alphas):
        return -np.sum(np.abs(alphas - center) ** 2, axis=1)
    return logw


def test_vacuum_moments():
    # w = e^{-|a|^2}: mean 0, mean |a|^2 = 1
    rng = np.random.default_rng(101)
    n = 20000
    alphas, _ = sample_positions(_gaussian_weight(0.0), 1, n,
                                 SamplerParams(step_cap=0.45), rng)
    a = alphas[:, 0]
    assert abs(a.mean()) < 4.0 / np.sqrt(n)
    assert abs(np.mean(np.abs(a) ** 2) - 1.0) < 5.0 / np.sqrt(n)


def test_coherent_moments_match_quadrature():
    # weight of a coherent state: Gaussian centered at alpha0; the
    # expected moments come from direct 2-D integration of the weight
    a0 = 1.0
    phi0 = sc.coherent_bargmann([a0], [1.0])
    logw = log_weight_from_phi(phi0, 1)
    grid, wgt = disk_grid(radius=6.0, n=96)
    dens = np.exp(logw(grid[:, None]))
    norm = quad_phase_plane(dens, wgt)
    mean_q = quad_phase_plane(grid * dens, wgt) / norm
    var_q = quad_phase_plane(np.abs(grid - a0) ** 2 * dens, wgt) / norm
    assert mean_q == pytest.approx(a0, abs=1e-9)
    assert var_q == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(105)
    n = 20000
    alphas, _ = sample_positions(logw, 1, n, SamplerParams(step_cap=0.45), rng)
    a = alphas[:, 0]
    assert abs(a.mean() - mean_q) < 4.0 / np.sqrt(n)
    assert abs(np.mean(np.abs(a - a0) ** 2) - var_q) < 5.0 / np.sqrt(n)


def test_small_burn_in_still_leaves_a_distant_start():
    # 3333 walkers share 500 burn-in proposals, yet each makes enough
    # moves to forget the start, 3.6 away from the weight's center;
    # bounds three times the moment tests' catch a chain still near it
    c = 3 - 2j
    n = 20000
    alphas, _ = sample_positions(_gaussian_weight(c), 1, n,
                                 SamplerParams(step_cap=0.45, burn_in=500),
                                 np.random.default_rng(3000))
    a = alphas[:, 0]
    assert abs(a.mean() - c) < 12.0 / np.sqrt(n)
    assert abs(np.mean(np.abs(a - c) ** 2) - 1.0) < 15.0 / np.sqrt(n)


def test_increments_respect_cap():
    rng = np.random.default_rng(107)
    cap = 0.3
    params = SamplerParams(step_cap=cap, segment_len=5)
    alphas, starts = sample_positions(_gaussian_weight(0.5), 1, 3000, params, rng)
    edges = np.append(starts, alphas.shape[0])
    for a, b in zip(edges[:-1], edges[1:]):
        seg = alphas[a:b, 0]
        assert np.all(np.abs(np.diff(seg)) <= cap + 1e-12)
        assert b - a >= 2


def _within_segment_steps(alphas, starts):
    """Largest per-mode move between consecutive points of a segment."""
    edges = np.append(starts, alphas.shape[0])
    return max(np.abs(np.diff(alphas[a:b], axis=0)).max()
               for a, b in zip(edges[:-1], edges[1:]))


def test_capped_proposals_never_break_the_cap_with_many_modes(monkeypatch):
    # with 12 modes and proposals as wide as the cap, only ~0.4% of
    # draws fit inside it, so a capped step needs hundreds of redraws
    cap = 0.3
    monkeypatch.setattr(sampling, "_SEG_SIGMA_FRAC", 1.0)
    params = SamplerParams(step_cap=cap, segment_len=5, burn_in=500)
    alphas, starts = sample_positions(_gaussian_weight(0.0), 12, 600, params,
                                      np.random.default_rng(3))
    assert alphas.shape == (600, 12)
    assert _within_segment_steps(alphas, starts) <= cap


def test_capped_proposal_draw_limit_raises(monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_CAP_DRAWS", 20)
    monkeypatch.setattr(sampling, "_SEG_SIGMA_FRAC", 1.0)
    params = SamplerParams(step_cap=0.3, segment_len=5, burn_in=500)
    with pytest.raises(SamplerStuck, match="step_cap 0.3 .*raise step_cap"):
        sample_positions(_gaussian_weight(0.0), 12, 600, params,
                         np.random.default_rng(3))


def test_zero_weight_start_raises():
    # a Gaussian around 0.5, zero where Re(alpha) <= 0: the walk's start,
    # the origin, has zero weight
    def half_plane(alphas):
        a = alphas[..., 0]
        return np.where(a.real > 0.0, -np.abs(a - 0.5) ** 2, -np.inf)

    with pytest.raises(SamplerStuck, match="zero-weight"):
        sample_positions(half_plane, 1, 100, SamplerParams(step_cap=0.3),
                         np.random.default_rng(3))


def test_zero_atomic_state_is_a_zero_weight_start():
    phi0 = sc.coherent_bargmann([1.0], [0.0, 0.0])
    with pytest.raises(SamplerStuck, match="zero-weight"):
        sc.initial_chain(phi0, 1, 100, 0.45, np.random.default_rng(1))


def test_minimal_two_point_chain():
    rng = np.random.default_rng(109)
    alphas, starts = sample_positions(_gaussian_weight(0.0), 1, 2,
                                      SamplerParams(step_cap=0.2), rng)
    assert alphas.shape == (2, 1)
    assert list(starts) == [0]


def test_segment_lengths_cover_points():
    rng = np.random.default_rng(113)
    params = SamplerParams(step_cap=0.4, segment_len=6)
    alphas, starts = sample_positions(_gaussian_weight(0.0), 1, 1000, params, rng)
    edges = np.append(starts, 1000)
    lengths = np.diff(edges)
    assert lengths.sum() == 1000
    assert np.all(lengths >= 2)


def test_sampler_stuck_raises():
    def needle(alphas):
        # nonzero only at the exact start point: every move is rejected
        return np.where(np.all(alphas == 0, axis=1), 0.0, -np.inf)

    rng = np.random.default_rng(127)
    with pytest.raises(SamplerStuck):
        sample_positions(needle, 1, 100, SamplerParams(step_cap=0.3), rng)


def test_multimode_positions_shape():
    rng = np.random.default_rng(131)
    alphas, _ = sample_positions(_gaussian_weight(0.0), 2, 8000,
                                 SamplerParams(step_cap=0.5), rng)
    assert alphas.shape == (8000, 2)
    cov = np.mean(np.abs(alphas) ** 2, axis=0)
    assert np.all(np.abs(cov - 1.0) < 0.2)


def test_deterministic_given_seed():
    params = SamplerParams(step_cap=0.3)
    a1, s1 = sample_positions(_gaussian_weight(0.0), 1, 400, params,
                              np.random.default_rng(7))
    a2, s2 = sample_positions(_gaussian_weight(0.0), 1, 400, params,
                              np.random.default_rng(7))
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1, s2)


# ------------------------------------------------- exact coherent starts

@pytest.mark.parametrize("alpha0, seed", [
    ([1.0], 201), ([3 - 2j], 202), ([0.3 + 0.4j, -0.7], 203)])
def test_coherent_start_draws_the_exact_gaussian(alpha0, seed):
    # iid points of ||atomic||^2 e^{-|alpha - alpha0|^2}: the mean and
    # the variance of every mode within iid rates, and no lag-1
    # correlation along the chain
    n = 20000
    phi0 = sc.coherent_bargmann(alpha0, [0.6, 0.8j])
    chain = sc.initial_chain(phi0, len(alpha0), n, 0.45,
                             np.random.default_rng(seed))
    for m, a0 in enumerate(alpha0):
        a = chain.alphas[:, m]
        assert abs(a.mean() - a0) <= 4.0 / np.sqrt(n)
        assert abs(np.mean(np.abs(a - a0) ** 2) - 1.0) <= 5.0 / np.sqrt(n)
        c = a - a.mean()
        lag1 = abs(np.vdot(c[:-1], c[1:])) / np.vdot(c, c).real
        assert lag1 <= 4.0 / np.sqrt(n)
    assert np.array_equal(chain.phis, phi0.values(chain.alphas))


def test_coherent_start_is_one_draw_and_one_segment():
    # an iid cloud has no small increments, so no segment split either
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    params = SamplerParams(step_cap=0.45, segment_len=6)
    chain = sc.initial_chain(phi0, 1, 1003, 0.45, np.random.default_rng(5),
                             params=params)
    assert np.array_equal(chain.alphas, phi0.draw(np.random.default_rng(5), 1003))
    assert chain.segment_starts.tolist() == [0]
    assert chain.time == 0.0
    with pytest.raises(DimensionMismatch, match="phi0 has 1 modes"):
        sc.initial_chain(phi0, 2, 1003, 0.45, np.random.default_rng(5))


def test_coherent_start_needs_no_step_cap():
    phi0 = sc.coherent_bargmann([0.5 - 1.2j], [1.0, 0.5j])
    chain = sc.initial_chain(phi0, 1, 1003, rng=np.random.default_rng(5))
    capped = sc.initial_chain(phi0, 1, 1003, 0.45, np.random.default_rng(5))
    assert chain == capped
    # the Metropolis walk of a plain callable does need its cap
    with pytest.raises(ValueError, match="step_cap"):
        sc.initial_chain(lambda a: phi0(a), 1, 100,
                         rng=np.random.default_rng(5))
    with pytest.raises(TypeError, match="rng"):
        sc.initial_chain(phi0, 1, 100)


def test_coherent_start_calls_no_weight(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a coherent start evaluated the weight")

    phi0 = sc.coherent_bargmann([0.5 - 1.2j], [1.0, 0.5j])
    monkeypatch.setattr(chain_module, "log_weight_from_phi", boom)
    monkeypatch.setattr(chain_module, "sample_positions", boom)
    chain = sc.initial_chain(phi0, 1, 2000, 0.45, np.random.default_rng(9))
    assert chain.n_points == 2000


def test_zero_atomic_state_draws_nothing():
    phi0 = sc.coherent_bargmann([1.0], [0.0, 0.0])
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(SamplerStuck, match="zero-weight"):
        sc.initial_chain(phi0, 1, 100, 0.45, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [1, 2])
def test_generic_callable_keeps_the_metropolis_chain(seed):
    # a plain phi0 callable is walked by sample_positions, as before
    phi0 = sc.coherent_bargmann([0.5 - 1.2j], [1.0, 0.5j])
    generic = lambda a: phi0(a)  # noqa: E731
    params = SamplerParams(step_cap=0.45, segment_len=6, burn_in=3000)
    chain = sc.initial_chain(generic, 1, 1500, 0.45,
                             np.random.default_rng(seed), params=params)
    alphas, starts = sample_positions(log_weight_from_phi(generic, 1), 1, 1500,
                                      params, np.random.default_rng(seed))
    assert chain.alphas.tobytes() == alphas.tobytes()
    assert np.array_equal(chain.segment_starts, starts)
    assert np.array_equal(chain.phis, [phi0(np.conj(a)) for a in alphas])


def test_lockstep_moves_respect_the_cap_and_keep_the_weight(monkeypatch):
    # 12 modes with proposals as wide as the cap: most draws are redrawn
    rng = np.random.default_rng(211)
    monkeypatch.setattr(sampling, "_SEG_SIGMA_FRAC", 1.0)
    params = SamplerParams(step_cap=0.3)
    start = (rng.standard_normal((4000, 12))
             + 1j * rng.standard_normal((4000, 12))) / np.sqrt(2)
    out = sampling.move_lockstep(_gaussian_weight(0.0), start, 5, params, rng)
    assert np.abs(out - start).max() <= 5 * 0.3 + 1e-12
    assert np.mean(np.any(out != start, axis=1)) > 0.5
    assert abs(np.mean(np.abs(out) ** 2) - 1.0) <= 5.0 / np.sqrt(out.size)


def test_lockstep_cap_draw_limit_and_zero_weight_raise(monkeypatch):
    params = SamplerParams(step_cap=0.3)
    start = np.zeros((50, 12), dtype=complex)
    monkeypatch.setattr(sampling, "_SEG_SIGMA_FRAC", 1.0)
    monkeypatch.setattr(sampling, "_MAX_CAP_DRAWS", 2)
    with pytest.raises(SamplerStuck, match="step_cap 0.3 .*raise step_cap"):
        sampling.move_lockstep(_gaussian_weight(0.0), start, 1, params,
                               np.random.default_rng(3))
    weights = lambda a: np.where(a[:, 0] == 0, -np.inf, 0.0)  # noqa: E731
    with pytest.raises(SamplerStuck, match="zero-weight"):
        sampling.move_lockstep(weights, start, 1, params,
                               np.random.default_rng(3))
