import numpy as np
import pytest

import semichain as sc
from semichain import sampling
from semichain.errors import SamplerStuck
from semichain.sampling import SamplerParams, log_weight_from_phi, sample_positions

from conftest import disk_grid, quad_phase_plane


def _gaussian_weight(center):
    def logw(alpha):
        return float(-np.sum(np.abs(alpha - center) ** 2))
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
    dens = np.exp([logw(np.array([g])) for g in grid])
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


def test_capped_proposals_never_break_the_cap_with_many_modes():
    # with 12 modes and proposals as wide as the cap, only ~0.4% of
    # draws fit inside it, so a capped step needs hundreds of redraws
    cap = 0.3
    params = SamplerParams(step_cap=cap, segment_len=5, burn_in=500,
                           seg_sigma_frac=1.0)
    alphas, starts = sample_positions(_gaussian_weight(0.0), 12, 600, params,
                                      np.random.default_rng(3))
    assert alphas.shape == (600, 12)
    assert _within_segment_steps(alphas, starts) <= cap


def test_capped_proposal_draw_limit_raises(monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_CAP_DRAWS", 20)
    params = SamplerParams(step_cap=0.3, segment_len=5, burn_in=500,
                           seg_sigma_frac=1.0)
    with pytest.raises(SamplerStuck, match="step_cap 0.3.*seg_sigma_frac"):
        sample_positions(_gaussian_weight(0.0), 12, 600, params,
                         np.random.default_rng(3))


@pytest.mark.parametrize("alpha0, atomic", [
    ([1.0], [1.0, 0.0]),
    ([0.5 - 1.2j], [0.6, 0.8j]),
    ([0.3 + 0.4j, -0.7], [2.0, 1.0 - 1.0j, 0.5]),   # not normalized
])
def test_coherent_log_weight_matches_generic(alpha0, atomic):
    phi0 = sc.coherent_bargmann(alpha0, atomic)
    exact = log_weight_from_phi(phi0, len(alpha0))
    assert exact is phi0.log_weight
    generic = log_weight_from_phi(lambda a: phi0(a), len(alpha0))
    rng = np.random.default_rng(17)
    for _ in range(200):
        alpha = 1.5 * (rng.standard_normal(len(alpha0))
                       + 1j * rng.standard_normal(len(alpha0)))
        alpha += np.asarray(alpha0)
        assert exact(alpha) == pytest.approx(generic(alpha), rel=1e-12,
                                             abs=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coherent_log_weight_samples_the_same_chain(seed):
    phi0 = sc.coherent_bargmann([0.5 - 1.2j], [1.0, 0.5j])
    params = SamplerParams(step_cap=0.45)
    chains = [sample_positions(log_weight_from_phi(phi, 1), 1, 2000, params,
                               np.random.default_rng(seed))
              for phi in (phi0, lambda a: phi0(a))]
    (a1, s1), (a2, s2) = chains
    assert a1.tobytes() == a2.tobytes()
    assert np.array_equal(s1, s2)


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
    def needle(alpha):
        # nonzero only at the exact start point: every move is rejected
        return 0.0 if np.all(alpha == 0) else -np.inf

    rng = np.random.default_rng(127)
    with pytest.raises(SamplerStuck):
        sample_positions(needle, 1, 100, SamplerParams(step_cap=0.3), rng)


def test_multimode_positions_shape():
    rng = np.random.default_rng(131)
    alphas, _ = sample_positions(_gaussian_weight(0.0), 2, 500,
                                 SamplerParams(step_cap=0.5), rng)
    assert alphas.shape == (500, 2)
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
