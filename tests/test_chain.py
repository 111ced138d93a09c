import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import semichain as sc
from semichain import chain as chain_module
from semichain.chain import (_FIT_RESIDUAL_LIMIT, _FIT_TERMS,
                             BargmannInterpolant, ChainState, _derivatives)
from semichain.checkpoint import save_checkpoint
from semichain.config import CHAIN_DEFAULTS
from semichain.errors import (DegenerateIncrement, DimensionMismatch,
                              InterpolationDegraded, ZeroNormConditionalState)
from semichain.observables import Observable, mode_monomial
from semichain.oracle import bargmann_projection
from semichain.sampling import SamplerParams

from conftest import bargmann_values


def _walk_chain(phi, n=200, step=0.05, seed=11, d=2, center=0.0,
                segment_starts=None, time=0.0):
    """Chain along a random small-step walk, states from a given map."""
    rng = np.random.default_rng(seed)
    steps = step * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)) / np.sqrt(2)
    alphas = (center + np.concatenate([[0.0], np.cumsum(steps)]))[:, None]
    phis = np.array([phi(a.conj()) for a in alphas[:, 0]])
    return ChainState(time=time, alphas=alphas, phis=phis,
                      segment_starts=segment_starts)


# ---------------------------------------------------------------- scalar ops

def test_conditional_expectation_basics(pauli):
    assert sc.conditional_expectation([1.0, 0.0], pauli["z"]) == pytest.approx(1.0)
    assert sc.conditional_expectation([1.0, 1.0], pauli["z"]) == pytest.approx(0.0)
    # unnormalized states give the same ratio
    assert sc.conditional_expectation([2.0, 0.0], pauli["z"]) == pytest.approx(1.0)


def test_conditional_expectation_identity_is_exactly_one(pauli):
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert sc.conditional_expectation(phi, pauli["id"]) == 1.0


def test_conditional_expectation_zero_norm(pauli):
    with pytest.raises(ZeroNormConditionalState):
        sc.conditional_expectation([0.0, 0.0], pauli["z"])


def test_conditional_expectation_scale_invariance(pauli):
    phi = np.array([0.3 + 1j, -0.7])
    c = 3.0 * np.exp(1j * np.pi / 7)
    for f in (pauli["x"], pauli["minus"]):
        assert sc.conditional_expectation(c * phi, f) == pytest.approx(
            sc.conditional_expectation(phi, f))


def test_drift_velocity_scalar_current():
    spec = sc.classical_current_model(0.5, 1.0)
    v = sc.drift_velocity(np.array([1.0 + 0j]), 0.0, spec)
    assert v[0] == pytest.approx(-0.5j)


def test_drift_velocity_ground_state(jc_spec):
    v = sc.drift_velocity(np.array([0.0, 1.0]), 0.0, jc_spec)
    assert v[0] == pytest.approx(0.0)


def test_drift_velocity_superposition(pauli):
    spec = sc.ModelSpec(h0=np.zeros((2, 2)), modes=[sc.FieldMode(0.0, pauli["minus"])])
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    v = sc.drift_velocity(phi, 0.0, spec)
    assert v[0] == pytest.approx(-0.5j)


# ------------------------------------------------------------ chain state

def test_chain_state_validation():
    with pytest.raises(Exception):
        ChainState(time=0.0, alphas=np.zeros((1, 1), complex),
                   phis=np.ones((1, 1), complex))
    with pytest.raises(ZeroNormConditionalState):
        ChainState(time=0.0, alphas=np.zeros((2, 1), complex),
                   phis=np.array([[1.0], [0.0]], dtype=complex))


def test_chain_state_immutable():
    ch = _walk_chain(lambda a: np.array([1.0, 0.0]) * np.exp(a), n=10)
    with pytest.raises(ValueError):
        ch.alphas[0, 0] = 5.0


def test_chain_state_accepts_any_memory_layout():
    rng = np.random.default_rng(5)
    alphas = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    pt = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    for phis in (np.asfortranarray(pt.T), pt.T):
        ch = ChainState(time=0.0, alphas=np.asfortranarray(alphas), phis=phis)
        assert ch.phis.flags.c_contiguous and ch.alphas.flags.c_contiguous
        assert np.array_equal(ch.phis, pt.T)
        assert np.array_equal(ch.alphas, alphas)


# ------------------------------------------------------------- derivatives

def test_derivative_exponential_map():
    for beta in (0.5, 1 + 1j):
        v = np.array([0.6, 0.8j])
        ch = _walk_chain(lambda a: np.exp(beta * a) * v, n=150, step=0.04, seed=5)
        for k in range(ch.n_points):
            d = sc.chain_derivative(ch, k, 0)
            expected = beta * np.exp(beta * ch.alphas[k, 0].conj()) * v
            partner = k + 1 if k < ch.n_points - 1 else k - 1
            inc = abs(ch.alphas[partner, 0] - ch.alphas[k, 0])
            rel = np.linalg.norm(d - expected) / np.linalg.norm(expected)
            assert rel <= 10.0 * inc


def test_derivative_constant_map_is_zero():
    ch = _walk_chain(lambda a: np.array([0.3, -0.4j]), n=20)
    for k in (0, 7, 19):
        assert np.allclose(sc.chain_derivative(ch, k, 0), 0.0, atol=1e-12)


def test_derivative_last_point_backward_rule():
    alphas = np.array([[0.1 + 0.0j], [0.15 + 0.05j]])
    phis = np.array([[1.0 + 0j, 0.2], [1.1, 0.25]])
    ch = ChainState(time=0.0, alphas=alphas, phis=phis)
    dstar = (alphas[0, 0] - alphas[1, 0]).conj()
    expected = (phis[0] - phis[1]) / dstar
    assert np.allclose(sc.chain_derivative(ch, 1, 0), expected, atol=1e-14)
    # the first point uses the forward difference with the same pair
    expected0 = (phis[1] - phis[0]) / (alphas[1, 0] - alphas[0, 0]).conj()
    assert np.allclose(sc.chain_derivative(ch, 0, 0), expected0, atol=1e-14)


def test_derivative_skips_duplicates():
    # metropolis repeats: identical consecutive points act as one node
    alphas = np.array([[0.0], [0.0], [0.1]], dtype=complex)
    phi = np.array([1.0, 0.0], dtype=complex)
    phis = np.array([phi, phi, 1.5 * phi])
    ch = ChainState(time=0.0, alphas=alphas, phis=phis)
    expected = (phis[2] - phis[0]) / (alphas[2, 0] - alphas[0, 0]).conj()
    assert np.allclose(sc.chain_derivative(ch, 0, 0), expected)
    assert np.allclose(sc.chain_derivative(ch, 1, 0), expected)


def test_derivative_degenerate_increment_raises():
    # coincident points with different states: the graph has collapsed
    alphas = np.array([[0.0], [0.0]], dtype=complex)
    phis = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    ch = ChainState(time=0.0, alphas=alphas, phis=phis)
    with pytest.raises(DegenerateIncrement):
        sc.chain_derivative(ch, 0, 0)
    # the update's fit cannot factor its normal equations here and falls
    # back to the minimum-norm least-squares fit
    d = _derivatives(ch.alphas, ch.phis)
    assert np.all(np.isfinite(d))
    assert np.allclose(d, _lstsq_fit_derivative(ch.alphas, ch.phis),
                       rtol=1e-12, atol=1e-14)


def test_derivative_fully_duplicate_chain_is_zero():
    phi = np.array([1.0, 2.0], dtype=complex)
    alphas = np.zeros((3, 1), dtype=complex)
    phis = np.array([phi, phi, phi])
    ch = ChainState(time=0.0, alphas=alphas, phis=phis)
    assert np.allclose(sc.chain_derivative(ch, 1, 0), 0.0)


def test_chain_derivative_matches_explicit_quotients():
    # forward quotient inside a segment, backward at each segment's last
    # point; no pair straddles a segment start
    v = np.array([0.6, 0.8j])
    ch = _walk_chain(lambda a: np.exp((1 + 0.5j) * a) * v, n=60, step=0.05,
                     seed=13, segment_starts=[0, 20, 40])
    a, p = ch.alphas[:, 0], ch.phis
    for k in range(ch.n_points):
        j = k - 1 if k in (19, 39, 59) else k + 1
        expected = (p[j] - p[k]) / np.conj(a[j] - a[k])
        assert np.allclose(sc.chain_derivative(ch, k, 0), expected,
                           rtol=1e-13, atol=0)


def test_lsq_derivative_beats_quotient_on_curvature():
    beta = 1 + 1j
    v = np.array([1.0, 0.0])
    ch = _walk_chain(lambda a: np.exp(beta * a) * v, n=400, step=0.1, seed=17)
    expected = beta * np.exp(beta * ch.alphas[:, 0].conj())
    d_pair = np.array([sc.chain_derivative(ch, k, 0)[0]
                       for k in range(ch.n_points)])
    d_lsq = _derivatives(ch.alphas, ch.phis)[0]
    err_pair = np.abs(d_pair - expected) / np.abs(expected)
    err_lsq = np.abs(d_lsq - expected) / np.abs(expected)
    assert np.median(err_lsq) < 0.5 * np.median(err_pair)


@pytest.mark.parametrize("alpha0, atomic", [
    ([1.0], [1.0, 0.0]),
    ([3 - 2j], [0.6, 0.8j]),
    ([0.5 + 0.1j], [1.0, 0.0]),
    ([0.3 + 0.4j, -0.7], [2.0, 1.0 - 1.0j, 0.5]),
])
def test_coherent_values_equal_the_per_point_states(alpha0, atomic):
    phi0 = sc.coherent_bargmann(alpha0, atomic)
    m = len(alpha0)
    rng = np.random.default_rng(13)
    alphas = np.asarray(alpha0) + 1.5 * (rng.standard_normal((20000, m))
                                         + 1j * rng.standard_normal((20000, m)))
    loop = np.array([phi0(np.conj(a)) for a in alphas], dtype=complex)
    assert np.array_equal(phi0.values(alphas), loop)
    # initial_chain takes the batch when a plain callable carries it, and
    # the loop otherwise; both walk the same Metropolis chain
    batched = lambda a: phi0(a)  # noqa: E731
    batched.values = phi0.values
    chains = [sc.initial_chain(phi, m, 3000, 0.45, np.random.default_rng(7))
              for phi in (batched, lambda a: phi0(a))]
    assert np.array_equal(chains[0].alphas, chains[1].alphas)
    assert np.array_equal(chains[0].phis, chains[1].phis)


# -------------------------------------------------------------------- step

def test_step_zero_current_only_advances_time():
    spec = sc.classical_current_model(0.0, 1.0)
    phi0 = sc.coherent_bargmann([0.0], [1.0])
    rng = np.random.default_rng(19)
    ch = sc.initial_chain(phi0, 1, 200, 0.3, rng)
    out = sc.step(ch, spec, 1e-3)
    assert out.time == pytest.approx(1e-3)
    assert np.allclose(out.alphas, ch.alphas, atol=1e-15)
    assert np.allclose(out.phis, ch.phis, atol=1e-15)


def test_step_classical_current_rigid_translation():
    # scalar current: every point translates by the same closed-form path
    c, omega = 0.5, 1.0
    spec = sc.classical_current_model(c, omega)
    phi0 = sc.coherent_bargmann([0.0], [1.0])
    rng = np.random.default_rng(23)
    ch0 = sc.initial_chain(phi0, 1, 300, 0.3, rng)
    eps, t_final = 1e-3, 1.0
    ch = ch0
    for _ in range(int(round(t_final / eps))):
        ch = sc.step(ch, spec, eps)
    disp = ch.alphas - ch0.alphas
    # all displacements identical (the velocity has no state dependence)
    assert np.max(np.abs(disp - disp[0])) < 1e-12
    closed = -(c / omega) * (np.exp(1j * omega * t_final) - 1.0)
    assert abs(disp[0, 0] - closed) <= 10.0 * eps * t_final


def test_step_first_moment_matches_mean_drift(jc_spec):
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(29)
    ch = sc.initial_chain(phi0, 1, 500, 0.45, rng)
    eps = 1e-3
    vels = np.array([sc.drift_velocity(ch.phis[k], ch.time, jc_spec)[0]
                     for k in range(ch.n_points)])
    out = sc.step(ch, jc_spec, eps)
    lhs = (out.alphas[:, 0].mean() - ch.alphas[:, 0].mean()) / eps
    assert abs(lhs - vels.mean()) < 1e-12


def test_step_single_euler_step_tracks_reference(jc_spec):
    # seed the chain with exact reference states at t=1, advance one
    # cycle, compare against the reference at the moved points
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [16])
    st = sc.evolve(st, jc_spec, 1.0)
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(31)
    base = sc.initial_chain(phi0, 1, 400, 0.45, rng)
    phis = np.array([bargmann_projection(st, a.conj()) for a in base.alphas])
    ch = ChainState(time=1.0, alphas=base.alphas, phis=phis,
                    segment_starts=base.segment_starts)
    eps = 1e-3
    out = sc.step(ch, jc_spec, eps)
    st2 = sc.evolve(st, jc_spec, eps)
    ref = np.array([bargmann_projection(st2, a.conj()) for a in out.alphas])
    rel = np.linalg.norm(out.phis - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.median(rel) < 2e-5
    assert np.max(rel) < 2e-3


def test_step_ordering_is_a_numerical_device(jc_spec):
    # same point set, segment-reversed ordering: the update must agree
    # within derivative-estimation error
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [16])
    st = sc.evolve(st, jc_spec, 1.0)
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(37)
    base = sc.initial_chain(phi0, 1, 240, 0.45, rng)
    phis = np.array([bargmann_projection(st, a.conj()) for a in base.alphas])
    ch = ChainState(time=1.0, alphas=base.alphas, phis=phis,
                    segment_starts=base.segment_starts)
    # reverse every segment
    edges = np.append(ch.segment_starts, ch.n_points)
    perm = np.concatenate([np.arange(a, b)[::-1]
                           for a, b in zip(edges[:-1], edges[1:])])
    ch_rev = ChainState(time=1.0, alphas=ch.alphas[perm], phis=ch.phis[perm],
                        segment_starts=ch.segment_starts)
    eps = 1e-3
    out = sc.step(ch, jc_spec, eps)
    out_rev = sc.step(ch_rev, jc_spec, eps)
    assert np.allclose(out.alphas[perm], out_rev.alphas, atol=1e-12)
    rel = np.linalg.norm(out.phis[perm] - out_rev.phis, axis=1) \
        / np.linalg.norm(out.phis, axis=1)
    assert np.max(rel) < 1e-4


def test_step_rejects_multimode_chain():
    spec = sc.classical_current_model([0.4, 0.2], [1.0, 1.3])
    rng = np.random.default_rng(41)
    alphas = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    ch = ChainState(time=0.0, alphas=alphas, phis=np.ones((10, 1)))
    with pytest.raises(DimensionMismatch, match="single-mode"):
        sc.step(ch, spec, 1e-3)


def test_step_holomorphy_no_alpha_dependence(jc_spec):
    # evolved conditional states depend on alpha* only: two chains that
    # visit the same alpha* through different orderings agree pointwise
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [16])
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(43)
    base = sc.initial_chain(phi0, 1, 200, 0.45, rng)
    ch = base
    for _ in range(500):
        ch = sc.step(ch, jc_spec, 1e-3)
    st = sc.evolve(st, jc_spec, 0.5)
    ref = np.array([bargmann_projection(st, a.conj()) for a in ch.alphas])
    lam = np.einsum("ki,ki->k", ref.conj(), ch.phis) \
        / np.einsum("ki,ki->k", ref.conj(), ref)
    rel = np.linalg.norm(ch.phis - lam[:, None] * ref, axis=1) \
        / np.linalg.norm(ch.phis, axis=1)
    assert np.median(rel) < 5e-3


# -------------------------------------------------------- update workspace


def _bits(chain):
    return chain.alphas.tobytes() + chain.phis.tobytes()


def _rebuilt(chain):
    """The same snapshot without the workspace ``step`` handed on."""
    return ChainState(time=chain.time, alphas=chain.alphas, phis=chain.phis,
                      segment_starts=chain.segment_starts,
                      n_steps=chain.n_steps, lineage=chain.lineage)


def _sampled_chain(n=800, seed=53):
    """A sampled chain with Metropolis repeats in many segments: a plain
    callable, so that the Metropolis sampler walks it."""
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    ch = sc.initial_chain(lambda a: phi0(a), 1, n, 0.45,
                          np.random.default_rng(seed))
    repeats = np.all(ch.alphas[1:] == ch.alphas[:-1], axis=1)
    assert repeats.sum() > n // 20 and len(ch.segment_starts) > 10
    return ch


@pytest.mark.parametrize("integrator", ["euler", "midpoint"])
def test_step_workspace_changes_nothing(jc_spec, integrator):
    # a run that carries the workspace matches, bit for bit, one that
    # builds a new workspace on every step
    carried = rebuilt = _sampled_chain()
    for _ in range(200):
        carried = sc.step(carried, jc_spec, 1e-2, integrator=integrator)
        rebuilt = sc.step(_rebuilt(rebuilt), jc_spec, 1e-2,
                          integrator=integrator)
        assert _bits(carried) == _bits(rebuilt)
    assert carried._workspace is not None


def test_workspace_is_invisible(jc_spec, tmp_path):
    ch = _sampled_chain(300)
    for _ in range(3):
        ch = sc.step(ch, jc_spec, 1e-3)
    twin = _rebuilt(ch)
    assert ch._workspace is not None and twin._workspace is None
    assert ch == twin and not ch != twin
    assert repr(ch) == repr(twin)
    assert ch != sc.step(twin, jc_spec, 1e-3)
    blobs = []
    for name, state in (("stepped", ch), ("rebuilt", twin)):
        path = tmp_path / name
        save_checkpoint(path, config_resolved={}, rows=[], blocks_done=1,
                        rng_state=np.random.default_rng(0).bit_generator.state,
                        chain=state)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------- estimate

def test_estimate_unit_observable_is_exact(jc_spec):
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(47)
    ch = sc.initial_chain(phi0, 1, 500, 0.45, rng)
    one = Observable(f=pauli_id(), poly=mode_monomial(1, 0, 0, 0), name="one")
    val, se = sc.estimate(ch, one)
    assert val == 1.0 + 0.0j
    assert se == 0.0


def pauli_id():
    return np.eye(2, dtype=complex)


def test_estimate_identity_none_is_exact(jc_spec):
    phi0 = sc.coherent_bargmann([0.0], [1.0, 0.0])
    rng = np.random.default_rng(53)
    ch = sc.initial_chain(phi0, 1, 300, 0.45, rng)
    val, se = sc.estimate(ch, Observable(f=None, poly=mode_monomial(1, 0, 0, 0)))
    assert val == 1.0 + 0.0j and se == 0.0


def test_estimate_vacuum_aadag():
    phi0 = sc.coherent_bargmann([0.0], [1.0])
    rng = np.random.default_rng(59)
    ch = sc.initial_chain(phi0, 1, 20000, 0.45, rng)
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    val, se = sc.estimate(ch, obs)
    assert abs(val - 1.0) < 5.0 * se


def test_estimate_scale_invariance(pauli, jc_spec):
    phi0 = sc.coherent_bargmann([1.0], [0.6, 0.8])
    rng = np.random.default_rng(61)
    ch = sc.initial_chain(phi0, 1, 300, 0.45, rng)
    obs = sc.atomic_observable(pauli["z"], 1, name="sz")
    val0, se0 = sc.estimate(ch, obs)
    phis = ch.phis.copy()
    phis[7] *= 3.0 * np.exp(1j * np.pi / 7)
    ch2 = ChainState(time=ch.time, alphas=ch.alphas, phis=phis,
                     segment_starts=ch.segment_starts)
    val1, se1 = sc.estimate(ch2, obs)
    assert val1 == pytest.approx(val0, abs=1e-12)
    assert se1 == pytest.approx(se0, abs=1e-12)


def test_estimate_batch_count_controls_batching(jc_spec):
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(67)
    ch = sc.initial_chain(phi0, 1, 640, 0.45, rng)
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 0), name="a")
    _, se32 = sc.estimate(ch, obs, batch_count=32)
    _, se8 = sc.estimate(ch, obs, batch_count=8)
    assert se32 > 0 and se8 > 0


# ----------------------------------------------------------------- quality

def test_chain_quality_uniform_synthetic():
    alphas = (0.01 * np.arange(10))[:, None].astype(complex)
    phis = np.exp(alphas.conj())
    ch = ChainState(time=0.0, alphas=alphas, phis=phis)
    q = sc.chain_quality(ch)
    assert q.max_increment[0] == pytest.approx(0.01)
    assert q.min_increment[0] == pytest.approx(0.01)
    assert q.mean_increment[0] == pytest.approx(0.01)
    assert q.n_duplicate_pairs == 0 and q.n_degenerate_pairs == 0


def test_chain_quality_two_point():
    alphas = np.array([[0.0], [0.05]], dtype=complex)
    phis = np.ones((2, 1), dtype=complex)
    q = sc.chain_quality(ChainState(time=0.0, alphas=alphas, phis=phis))
    assert q.max_increment[0] == pytest.approx(0.05)


def test_chain_quality_counts_duplicates():
    alphas = np.array([[0.0], [0.0], [0.1]], dtype=complex)
    phi = np.array([1.0 + 0j])
    phis = np.array([phi, phi, phi * 1.2])
    q = sc.chain_quality(ChainState(time=0.0, alphas=alphas, phis=phis))
    assert q.n_duplicate_pairs == 1
    assert q.n_degenerate_pairs == 0


def test_chain_quality_skips_pairs_across_segments():
    # the jump between the two segments is never an increment
    alphas = np.array([[0.0], [0.01], [0.02], [5.0], [5.01], [5.02]],
                      dtype=complex)
    phis = np.exp(alphas.conj())
    q = sc.chain_quality(ChainState(time=0.0, alphas=alphas, phis=phis,
                                    segment_starts=[0, 3]))
    assert q.max_increment[0] == pytest.approx(0.01)
    assert q.mean_increment[0] == pytest.approx(0.01)
    assert q.n_segments == 2


def test_chain_quality_flags_degenerate_pairs():
    alphas = np.array([[0.0], [0.0]], dtype=complex)
    phis = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    q = sc.chain_quality(ChainState(time=0.0, alphas=alphas, phis=phis))
    assert q.n_degenerate_pairs == 1


# ---------------------------------------------------------------- reformat

def test_reformat_preserves_estimates_on_fresh_chain():
    phi0 = sc.coherent_bargmann([1.0], [0.6, 0.8])
    rng = np.random.default_rng(71)
    params = SamplerParams(step_cap=0.45, segment_len=6, burn_in=20000)
    ch = sc.initial_chain(phi0, 1, 4000, 0.45, rng, params=params)
    out = sc.reformat(ch, params, rng)
    assert out.n_points == ch.n_points
    assert out.time == ch.time
    suite = sc.standard_suite(ch.d, ch.n_modes)
    for ob in suite:
        v0, s0 = sc.estimate(ch, ob)
        v1, s1 = sc.estimate(out, ob)
        assert abs(v1 - v0) <= 3.0 * np.hypot(s0, s1) + 1e-12


def test_reformat_translated_chain_keeps_moments():
    c, omega = 0.5, 1.0
    spec = sc.classical_current_model(c, omega)
    phi0 = sc.coherent_bargmann([0.0], [1.0])
    rng = np.random.default_rng(73)
    params = SamplerParams(step_cap=0.3, segment_len=6, burn_in=20000)
    ch = sc.initial_chain(phi0, 1, 3000, 0.3, rng, params=params)
    for _ in range(500):
        ch = sc.step(ch, spec, 1e-3)
    out = sc.reformat(ch, params, rng)
    a_obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 0), name="a")
    v0, s0 = sc.estimate(ch, a_obs)
    v1, s1 = sc.estimate(out, a_obs)
    assert abs(v1 - v0) <= 3.0 * np.hypot(s0, s1) + 1e-12


def _assert_lockstep_move(before, out, params):
    """No point of ``out`` is further from its place in ``before`` than
    segment_len - 1 capped steps, and the segments are kept."""
    moved = np.abs(out.alphas - before.alphas)
    # the cap is tested on the proposed step; adding it to the point
    # rounds at the 1e-16 level
    assert moved.max() <= (params.segment_len - 1) * params.step_cap + 1e-12
    assert np.array_equal(out.segment_starts, before.segment_starts)


def test_reformat_moves_a_stretched_chain_point_by_point():
    # one segment displaced by 0.7, far beyond 2 * cap: every point still
    # moves only by its own capped steps, and keeps the exact state
    phi0 = sc.coherent_bargmann([0.5], [0.6, 0.8])
    rng = np.random.default_rng(79)
    params = SamplerParams(step_cap=0.3, segment_len=6, burn_in=20000)
    ch = sc.initial_chain(phi0, 1, 2000, 0.3, rng, params=params)
    alphas = ch.alphas.copy()
    a, b = ch.segment_starts[:2]
    alphas[a + 1: b] += 0.7
    bad = ChainState(time=0.0, alphas=alphas, phis=phi0.values(alphas),
                     segment_starts=ch.segment_starts)
    out = sc.reformat(bad, params, rng)
    _assert_lockstep_move(bad, out, params)
    assert np.mean(np.any(out.alphas != bad.alphas, axis=1)) > 0.5
    assert np.max(_rel_err(out.phis, phi0.values(out.alphas))) <= 1e-10


def test_reformat_gate_raises_on_corrupt_interpolant():
    # states inconsistent with any smooth map: the gate must fire
    rng = np.random.default_rng(83)
    phi0 = sc.coherent_bargmann([0.0], [1.0])
    params = SamplerParams(step_cap=0.3, segment_len=6, burn_in=5000)
    ch = sc.initial_chain(phi0, 1, 500, 0.3, rng, params=params)
    phis = ch.phis * np.exp(
        4.0 * rng.standard_normal((ch.n_points, 1)))  # wild norms
    corrupt = ChainState(time=0.0, alphas=ch.alphas, phis=phis,
                         segment_starts=ch.segment_starts)
    with pytest.raises(InterpolationDegraded):
        sc.reformat(corrupt, params, rng)


def test_reformat_carries_states_of_the_fitted_class_exactly():
    # e^{beta z} q(z) with deg q < K is the fit's own class, so the new
    # points carry the exact states
    rng = np.random.default_rng(89)
    phi0 = sc.coherent_bargmann([1.0], [1.0])
    params = SamplerParams(step_cap=0.45, segment_len=6)
    ch = sc.initial_chain(phi0, 1, 2000, 0.45, rng, params=params)
    center = ch.alphas[:, 0].conj().mean()
    b = (rng.standard_normal((_FIT_TERMS, 2))
         + 1j * rng.standard_normal((_FIT_TERMS, 2)))

    def phi(alphas):
        z = alphas[:, 0].conj()
        w = (z - center)[:, None]
        return np.exp(np.conj(center) * z)[:, None] * sum(
            b[m] * w ** m for m in range(_FIT_TERMS))

    chain = ChainState(time=0.0, alphas=ch.alphas, phis=phi(ch.alphas),
                       segment_starts=ch.segment_starts)
    # the sampled points follow the coherent weight, not this one
    out = sc.reformat(chain, params, rng, gate_factor=math.inf)
    assert not np.array_equal(out.alphas, chain.alphas)
    assert np.max(_rel_err(out.phis, phi(out.alphas))) <= 1e-10
    # the walk's weight and ``phi_at`` read the same fit as ``values``
    interp = BargmannInterpolant(chain.alphas, chain.phis)
    some = out.alphas[:50]
    ref = interp.values(some)
    assert np.allclose([interp.phi_at(a) for a in some], ref, rtol=1e-13, atol=0)
    logw = np.log(np.sum(np.abs(ref) ** 2, axis=1)) - np.abs(some[:, 0]) ** 2
    assert np.allclose(interp.log_weights(some), logw, rtol=1e-13, atol=1e-13)


def test_reformat_rejects_two_modes():
    rng = np.random.default_rng(5)
    alphas = rng.standard_normal((40, 2)) + 0j
    ch = ChainState(time=0.0, alphas=alphas, phis=np.ones((40, 2)))
    with pytest.raises(DimensionMismatch, match="single-mode"):
        sc.reformat(ch, SamplerParams(), rng)


@pytest.mark.parametrize("case", ["noisy", "corrupt"])
def test_reformat_names_the_fit_residual_above_the_limit(case):
    # "corrupt" is the chain of the gate test above: it fails the fit,
    # before any sampling
    if case == "noisy":
        rng = np.random.default_rng(97)
        phi0 = sc.coherent_bargmann([1.0], [0.6, 0.8])
        params = SamplerParams(step_cap=0.45, segment_len=6)
        ch = sc.initial_chain(phi0, 1, 1000, 0.45, rng, params=params)
        noise = (rng.standard_normal(ch.phis.shape)
                 + 1j * rng.standard_normal(ch.phis.shape))
        phis = ch.phis + 0.2 * np.linalg.norm(ch.phis, axis=1)[:, None] * noise
    else:
        rng = np.random.default_rng(83)
        phi0 = sc.coherent_bargmann([0.0], [1.0])
        params = SamplerParams(step_cap=0.3, segment_len=6, burn_in=5000)
        ch = sc.initial_chain(phi0, 1, 500, 0.3, rng, params=params)
        phis = ch.phis * np.exp(4.0 * rng.standard_normal((ch.n_points, 1)))
    bad = ChainState(time=0.0, alphas=ch.alphas, phis=phis,
                     segment_starts=ch.segment_starts)
    residual = BargmannInterpolant(bad.alphas, bad.phis).residual
    assert residual > _FIT_RESIDUAL_LIMIT
    state = rng.bit_generator.state
    with pytest.raises(InterpolationDegraded,
                       match=re.escape(f"residual of {residual:.3e}")):
        sc.reformat(bad, params, rng)
    assert rng.bit_generator.state == state


def _evolved_chain(spec, seed, n=2000, steps=500):
    """Criterion 8's chain at desk scale: a coherent start (alpha0 = 1,
    excited atom) stepped ``steps`` times by 1e-3."""
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    rng = np.random.default_rng(seed)
    params = SamplerParams(step_cap=0.45, segment_len=6)
    ch = sc.initial_chain(phi0, 1, n, 0.45, rng, params=params)
    for _ in range(steps):
        ch = sc.step(ch, spec, 1e-3)
    return ch, params, rng


def test_reformat_moves_each_point_in_lockstep(jc_spec):
    ch, params, rng = _evolved_chain(jc_spec, 91, n=1200, steps=200)
    out = sc.reformat(ch, params, rng)
    _assert_lockstep_move(ch, out, params)
    assert np.mean(np.any(out.alphas != ch.alphas, axis=1)) > 0.5
    # every point carries the fitted state at its new place
    fit = BargmannInterpolant(ch.alphas, ch.phis)
    assert np.array_equal(out.phis, fit.values(out.alphas))


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_reformat_barely_moves_criterion_8_estimates(jc_spec, seed):
    ch, params, rng = _evolved_chain(jc_spec, seed)
    out = sc.reformat(ch, params, rng, gate_factor=math.inf)
    for ob in sc.standard_suite(ch.d, ch.n_modes):
        v0, s0 = sc.estimate(ch, ob)
        v1, s1 = sc.estimate(out, ob)
        assert abs(v1 - v0) < 1.5 * np.hypot(s0, s1)


# ---------------------------------------------------------- derivative fit

def _cloud(n, a0, seed=3):
    """n points of the unit complex Gaussian around a0, shape (n, 1)."""
    rng = np.random.default_rng(seed)
    return (a0 + (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            / np.sqrt(2))[:, None]


def _in_class(alphas, seed=1):
    """States e^{beta z} q(z) of the fitted class at z = alpha*, with
    beta the conjugate of the chain's mean z and q a random polynomial of
    degree K - 1, and their exact derivatives d/dz; both (N, 2)."""
    z = alphas[:, 0].conj()
    center = z.mean()
    w = z - center
    beta = np.conj(center)
    rng = np.random.default_rng(seed)
    b = (rng.standard_normal((_FIT_TERMS, 2))
         + 1j * rng.standard_normal((_FIT_TERMS, 2)))
    q = sum(b[m] * w[:, None] ** m for m in range(_FIT_TERMS))
    dq = sum(m * b[m] * w[:, None] ** (m - 1) for m in range(1, _FIT_TERMS))
    carrier = np.exp(beta * z)[:, None]
    return carrier * q, carrier * (beta * q + dq)


def _lstsq_fit_derivative(alphas, phis):
    """Reference: the fit of ``_derivatives`` solved by
    np.linalg.lstsq, shape (d, N)."""
    z = alphas[:, 0].conj()
    center = z.mean()
    w = z - center
    beta = np.conj(center)
    norms = np.sqrt([math.factorial(m) for m in range(_FIT_TERMS)])
    basis = w[:, None] ** np.arange(_FIT_TERMS) / norms
    carrier = np.exp(beta * w)[:, None]
    coef = np.linalg.lstsq(basis, phis / carrier, rcond=None)[0]
    dcoef = beta * coef
    dcoef[:-1] += np.sqrt(np.arange(1, _FIT_TERMS))[:, None] * coef[1:]
    return (carrier * (basis @ dcoef)).T


def _rel_err(got, ref):
    return np.linalg.norm(got - ref, axis=1) / np.linalg.norm(ref, axis=1)


@pytest.mark.parametrize("n, a0, near_pair", [
    (200_000, 6.0, False), (2000, 1.0, False), (20_000, 3 - 2j, False),
    (2000, 1.0, True)])
def test_fit_is_exact_on_its_class(n, a0, near_pair):
    # at N = 2e5 and |alpha| = 6 whole-chain moment sums used to cancel;
    # a pair of points 1e-6 apart is just two close rows of the fit
    alphas = _cloud(n, a0)
    if near_pair:
        alphas[1] = alphas[0] + 1e-6j
    phis, exact = _in_class(alphas)
    d = _derivatives(alphas, phis).T
    assert np.max(_rel_err(d, exact)) <= 1e-10


def test_fit_gives_a_repeated_row_its_originals_derivative():
    # Metropolis repeats are repeated rows: no grouping is needed
    reps = np.repeat(np.arange(500), 1 + np.arange(500) % 3)
    alphas = _cloud(500, 1.0)[reps]
    phis, exact = _in_class(alphas)
    d = _derivatives(alphas, phis).T
    first = np.searchsorted(reps, reps)
    assert np.array_equal(d, d[first])
    assert np.max(_rel_err(d, exact)) <= 1e-10


def test_one_fit_serves_the_update_and_reformat(jc_spec):
    # the derivative the update reads is the z-derivative of the values
    # that reformat reads: a central difference of ``values`` in
    # z = alpha* (alpha +- h moves z by +-h) matches ``derivative()``
    ch, _, _ = _evolved_chain(jc_spec, 7, n=2000, steps=500)
    fit = BargmannInterpolant(ch.alphas, ch.phis)
    deriv = fit.derivative()
    assert np.array_equal(_derivatives(ch.alphas, ch.phis), deriv)
    h = 1e-4
    diff = (fit.values(ch.alphas + h) - fit.values(ch.alphas - h)) / (2 * h)
    assert np.max(_rel_err(diff, deriv.T)) <= 1e-7


@pytest.mark.parametrize("case", ["coincident pair", "fully duplicate",
                                  "five points", "seven points"])
def test_fit_falls_back_to_lstsq_on_degenerate_chains(case):
    # fewer distinct points than terms: the Cholesky solve gives way to
    # the minimum-norm least-squares fit of the same rows. With seven
    # points the factorization itself succeeds on a rounding-level last
    # pivot, and only the pivot test catches it
    v = np.array([1.0, 0.3j])
    if case == "coincident pair":
        alphas = np.array([[0.4 - 0.2j], [0.4 - 0.2j]])
        phis = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    elif case == "fully duplicate":
        alphas = np.full((6, 1), 0.1 + 0.2j)
        phis = np.tile(v, (6, 1))
    else:
        alphas = (np.array([[0.5], [0.7 + 0.1j], [0.2 - 0.3j], [0.9],
                            [1.1 - 0.1j]]) if case == "five points"
                  else _cloud(7, 1.0, seed=0))
        phis = np.exp((0.8 + 0.1j) * alphas.conj()) * v
    d = _derivatives(alphas, phis)
    assert np.all(np.isfinite(d))
    ref = _lstsq_fit_derivative(alphas, phis)
    assert np.allclose(d, ref, rtol=1e-10, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("seed", [3, 5])
def test_step_keeps_each_state_on_the_oracle(jc_spec, seed):
    # criterion 1's model at N = 2000, T = 1: every stored state equals
    # the oracle's conditional state at its point, with no Monte Carlo
    # noise; the bounds hold the fit's error with a margin
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    ch = sc.initial_chain(phi0, 1, 2000, 0.45, np.random.default_rng(seed),
                          params=SamplerParams(step_cap=0.45, segment_len=6))
    for _ in range(1000):
        ch = sc.step(ch, jc_spec, 1e-3)
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [24],
                          tail_threshold=1e-8)
    st = sc.evolve(st, jc_spec, 1.0, tail_threshold=1e-8)
    err = _rel_err(ch.phis, bargmann_values(st, ch.alphas[:, 0].conj()))
    assert np.median(err) <= 1e-4
    assert np.max(err) <= 2e-4


def _lowered(state):
    """The single-mode oracle state with Fock amplitudes psi_{n+1}
    sqrt(n+1): its conditional state is dPhi_t/dz of the original's."""
    amps = state.amplitudes
    return SimpleNamespace(
        amplitudes=amps[:, 1:] * np.sqrt(np.arange(1, amps.shape[1])))


@pytest.mark.parametrize("seed", [3, 5])
def test_euler_with_the_exact_derivative_stays_on_the_oracle(
        jc_spec, monkeypatch, seed):
    # the fit replaced by the oracle's exact dPhi_t/dz at the time of
    # each step, with the oracle advanced by the same eps: what remains
    # is the error of transport and of the Euler step alone. Seeds
    # 100-109 gave a median of 4.2e-4 to 4.4e-4 and a max of 7.2e-4 to
    # 8.5e-4, so the bounds leave a margin of 1.35x and 1.4x. Counting
    # the calls pins that ``_rates`` looks ``_derivatives`` up at call
    # time
    eps, n_steps = 1e-2, 100
    oracle = [sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [24],
                               tail_threshold=1e-8)]
    calls = []

    def exact(alphas, phis, workspace=None):
        calls.append(oracle[0].time)
        return bargmann_values(_lowered(oracle[0]), alphas[:, 0].conj()).T

    monkeypatch.setattr(chain_module, "_derivatives", exact)
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    ch = sc.initial_chain(phi0, 1, 500, 0.45, np.random.default_rng(seed))
    for _ in range(n_steps):
        ch = sc.step(ch, jc_spec, eps)
        oracle[0] = sc.evolve(oracle[0], jc_spec, eps, tail_threshold=1e-8)
    assert calls == pytest.approx(eps * np.arange(n_steps))
    err = _rel_err(ch.phis, bargmann_values(oracle[0], ch.alphas[:, 0].conj()))
    assert np.median(err) <= 6e-4
    assert np.max(err) <= 1.2e-3


@pytest.mark.parametrize("seed", [3, 5])
def test_runner_defaults_keep_each_state_on_the_oracle(jc_spec, seed):
    # the runner's default step and integrator hold every stored state
    # at least as close to the oracle as the Euler bounds above
    eps, integrator = CHAIN_DEFAULTS["eps"], CHAIN_DEFAULTS["integrator"]
    phi0 = sc.coherent_bargmann([1.0], [1.0, 0.0])
    ch = sc.initial_chain(phi0, 1, 2000, 0.45, np.random.default_rng(seed),
                          params=SamplerParams(step_cap=0.45, segment_len=6))
    for _ in range(round(1.0 / eps)):
        ch = sc.step(ch, jc_spec, eps, integrator=integrator)
    assert ch.time == pytest.approx(1.0)
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [24],
                          tail_threshold=1e-8)
    st = sc.evolve(st, jc_spec, 1.0, tail_threshold=1e-8)
    err = _rel_err(ch.phis, bargmann_values(st, ch.alphas[:, 0].conj()))
    assert np.median(err) <= 1e-4
    assert np.max(err) <= 2e-4
