import numpy as np
import pytest

import semichain as sc
from semichain.errors import TailMassExceeded
from semichain.observables import Observable, mode_monomial
from semichain.oracle import _rhs, coherent_fock_vector, tail_mass

from conftest import disk_grid, quad_phase_plane, random_fock_state


def test_build_initial_vacuum(jc_spec):
    st = sc.build_initial(jc_spec, [1.0, 0.0], [0.0], [8])
    assert st.amplitudes[0, 0] == pytest.approx(1.0)
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0)


def test_build_initial_poisson_tail(jc_spec):
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [16])
    assert tail_mass(st) < 1e-12
    # Fock amplitudes are the Poisson series
    expected = np.exp(-0.5) * 1.0 / np.sqrt(np.array([1, 1, 2, 6]))
    assert np.allclose(st.amplitudes[0, :4], expected, atol=1e-12)


def test_build_initial_cutoff_too_small(jc_spec):
    with pytest.raises(TailMassExceeded):
        sc.build_initial(jc_spec, [1.0, 0.0], [3.0], [4])


def test_evolve_free_field_is_constant(pauli):
    spec = sc.ModelSpec(h0=pauli["z"] / 2,
                        modes=[sc.FieldMode(1.0, 0.0 * pauli["minus"])])
    st = sc.build_initial(spec, [1.0, 0.0], [0.5], [12])
    out = sc.evolve(st, spec, 1.5)
    assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-12)
    assert out.time == pytest.approx(1.5)


def test_evolve_classical_current_displaces_vacuum():
    # d = 1 scalar current: exact coherent state alpha(t) up to a phase
    spec = sc.classical_current_model(0.5, 1.0)
    st = sc.build_initial(spec, [1.0], [0.0], [16])
    t = 2.0
    out = sc.evolve(st, spec, t)
    alpha_t = -(0.5 / 1.0) * (np.exp(1j * 1.0 * t) - 1.0)
    target = coherent_fock_vector(alpha_t, 16)
    overlap = abs(np.vdot(target, out.amplitudes[0]))
    assert overlap > 1.0 - 1e-6
    assert abs(out.norm() - 1.0) < 1e-9


def test_evolve_jaynes_cummings_rabi(jc_spec, pauli):
    # resonant, atom excited, vacuum: <sigma_z>(t) = cos(2 g t)
    st = sc.build_initial(jc_spec, [1.0, 0.0], [0.0], [8])
    szobs = sc.atomic_observable(pauli["z"], 1, name="sz")
    for t in (0.7, 2.0):
        st = sc.evolve(st, jc_spec, t - st.time)
        got = sc.antinormal_expectation(st, szobs)
        assert got.real == pytest.approx(np.cos(2 * 0.2 * t), abs=1e-6)
        assert abs(got.imag) < 1e-10


def test_evolve_norm_conservation(jc_spec):
    st = sc.build_initial(jc_spec, [1.0, 0.0], [1.0], [16])
    out = sc.evolve(st, jc_spec, 3.0)
    assert abs(out.norm() - 1.0) < 1e-12


def _non_rwa_state(t0):
    """d = 3, M = 2 model with a non-diagonal complex h0 and currents that
    both raise and lower the atom, in a product state placed at time t0."""
    rng = np.random.default_rng(41)
    h0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h0 = 0.5 * (h0 + h0.conj().T)
    js = [0.2 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
          for _ in range(2)]
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(1.0, js[0]), sc.FieldMode(0.7, js[1])])
    atomic = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    st = sc.build_initial(spec, atomic / np.linalg.norm(atomic), [0.5, 0.3j], [12, 12])
    return spec, sc.FockCompositeState(amplitudes=st.amplitudes, time=t0)


def _rk4_interaction_picture(spec, amps, t0, dt, n_steps):
    """Fixed-step RK4 of the interaction-picture equation dPsi/dt = _rhs."""
    h, y = dt / n_steps, amps
    for i in range(n_steps):
        t = t0 + i * h
        k1 = _rhs(spec, t, y)
        k2 = _rhs(spec, t + h / 2, y + h / 2 * k1)
        k3 = _rhs(spec, t + h / 2, y + h / 2 * k2)
        k4 = _rhs(spec, t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_evolve_matches_interaction_picture_rk4():
    # the reference integrates j_n(t) directly, so it checks the frame
    # rotations on both sides of the Schrodinger-picture propagator
    spec, st = _non_rwa_state(t0=0.4)
    out = sc.evolve(st, spec, 0.8)
    ref = _rk4_interaction_picture(spec, st.amplitudes, 0.4, 0.8, 200)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-10
    assert out.time == pytest.approx(1.2)


def test_evolve_halves_compose():
    spec, st = _non_rwa_state(t0=0.4)
    whole = sc.evolve(st, spec, 0.8)
    halves = sc.evolve(sc.evolve(st, spec, 0.4), spec, 0.4)
    assert np.max(np.abs(whole.amplitudes - halves.amplitudes)) < 1e-12
    assert halves.time == pytest.approx(whole.time)


def test_coherent_amplitude_self_overlap(jc_spec):
    v = np.array([0.6, 0.8])
    st = sc.build_initial(jc_spec, v, [0.7 + 0.2j], [16])
    psi = sc.coherent_amplitude(st, [0.7 + 0.2j])
    assert np.allclose(psi, v, atol=1e-10)


def test_coherent_amplitude_distant_decay(jc_spec):
    st = sc.build_initial(jc_spec, [1.0, 0.0], [0.0], [16])
    psi = sc.coherent_amplitude(st, [3.0])
    assert np.linalg.norm(psi) <= np.exp(-0.5 * 9.0) + 1e-10


def test_bargmann_factorization_identity(jc_spec):
    rng = np.random.default_rng(17)
    for _ in range(20):
        st = random_fock_state(rng, d=2, cutoff=6)
        alpha = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        lhs = sc.coherent_amplitude(st, alpha)
        rhs = np.exp(-0.5 * abs(alpha[0]) ** 2) \
            * sc.bargmann_projection(st, alpha.conj())
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_bargmann_projection_vacuum_constant():
    amps = np.zeros((2, 5), dtype=complex)
    amps[:, 0] = [0.6, 0.8]
    st = sc.FockCompositeState(amplitudes=amps)
    for a in (0.0, 1.3 - 0.4j):
        assert np.allclose(sc.bargmann_projection(st, [a]), [0.6, 0.8])


def test_bargmann_projection_coherent(jc_spec):
    a0 = 0.8 + 0.3j
    st = sc.build_initial(jc_spec, [1.0, 0.0], [a0], [16])
    a_star = 0.4 - 0.2j
    expected = np.exp(a_star * a0 - 0.5 * abs(a0) ** 2) * np.array([1.0, 0.0])
    got = sc.bargmann_projection(st, [a_star])
    assert np.allclose(got, expected, atol=1e-10)


def test_bargmann_projection_single_photon():
    amps = np.zeros((2, 5), dtype=complex)
    amps[0, 1] = 1.0  # atomic level 0, one photon
    st = sc.FockCompositeState(amplitudes=amps)
    a_star = 0.9 + 0.1j
    assert np.allclose(sc.bargmann_projection(st, [a_star]),
                       [a_star, 0.0], atol=1e-14)


def test_q_function_vacuum():
    amps = np.zeros((1, 6), dtype=complex)
    amps[0, 0] = 1.0
    st = sc.FockCompositeState(amplitudes=amps)
    for a in (0.0, 0.5 + 0.5j, 2.0):
        assert sc.q_function(st, [a]) == pytest.approx(np.exp(-abs(a) ** 2),
                                                       abs=1e-12)


def test_q_function_coherent_gaussian():
    spec = sc.classical_current_model(0.1, 1.0)
    a0 = 1.0
    st = sc.build_initial(spec, [1.0], [a0], [20])
    for a in (0.3, 1.2 + 0.5j):
        expected = np.exp(-abs(a - a0) ** 2)
        assert sc.q_function(st, [a]) == pytest.approx(expected, abs=1e-9)


def test_q_function_normalization_by_quadrature():
    rng = np.random.default_rng(23)
    st = random_fock_state(rng, d=2, cutoff=5)
    alphas, weight = disk_grid(radius=6.0, n=96)
    vals = np.array([sc.q_function(st, [a]) for a in alphas])
    assert quad_phase_plane(vals, weight) == pytest.approx(1.0, abs=1e-4)


def test_antinormal_unit_observable(jc_spec):
    st = sc.build_initial(jc_spec, [0.6, 0.8], [0.5], [16])
    one = Observable(f=None, poly=mode_monomial(1, 0, 0, 0), name="one")
    assert sc.antinormal_expectation(st, one) == pytest.approx(1.0, abs=1e-12)


def test_antinormal_vacuum_aadag():
    amps = np.zeros((1, 8), dtype=complex)
    amps[0, 0] = 1.0
    st = sc.FockCompositeState(amplitudes=amps)
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    assert sc.antinormal_expectation(st, obs) == pytest.approx(1.0, abs=1e-12)


def test_antinormal_coherent_aadag(jc_spec):
    a0 = 0.9 - 0.4j
    st = sc.build_initial(jc_spec, [1.0, 0.0], [a0], [16])
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    got = sc.antinormal_expectation(st, obs)
    assert got == pytest.approx(abs(a0) ** 2 + 1.0, abs=1e-8)


def test_antinormal_quadrature_bridge_scalar():
    # expectation of the antinormal symbol equals the Q-weighted integral
    rng = np.random.default_rng(29)
    st = random_fock_state(rng, d=1, cutoff=5)
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    alphas, weight = disk_grid(radius=6.0, n=96)
    vals = np.array([abs(a) ** 2 * sc.q_function(st, [a]) for a in alphas])
    # the bridge identity is algebraic on the truncated state itself,
    # so the physical tail guard is irrelevant here
    expected = sc.antinormal_expectation(st, obs, tail_threshold=1.0)
    assert quad_phase_plane(vals, weight) == pytest.approx(expected.real, abs=1e-4)


def test_antinormal_quadrature_bridge_operator(pauli):
    # conditional expectations integrated against the Q-function
    rng = np.random.default_rng(31)
    st = random_fock_state(rng, d=2, cutoff=5)
    obs = sc.atomic_observable(pauli["x"], 1, name="sx")
    alphas, weight = disk_grid(radius=6.0, n=96)
    vals = np.empty(alphas.shape[0], dtype=complex)
    for i, a in enumerate(alphas):
        psi = sc.coherent_amplitude(st, [a])
        vals[i] = np.vdot(psi, pauli["x"] @ psi)
    got = quad_phase_plane(vals, weight)
    expected = sc.antinormal_expectation(st, obs, tail_threshold=1.0)
    assert abs(got - expected) < 1e-4


def test_antinormal_guards_tail(jc_spec):
    amps = np.zeros((2, 5), dtype=complex)
    amps[0, -1] = 1.0  # all mass at the cutoff level
    st = sc.FockCompositeState(amplitudes=amps)
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    with pytest.raises(TailMassExceeded):
        sc.antinormal_expectation(st, obs)


def test_antinormal_raising_is_exact_with_padding():
    # a a^dag on |n> gives n + 1 exactly even for n near the cutoff - 2
    amps = np.zeros((1, 9), dtype=complex)
    amps[0, 6] = 1.0
    st = sc.FockCompositeState(amplitudes=amps)
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    assert sc.antinormal_expectation(st, obs) == pytest.approx(7.0, abs=1e-12)


def test_evolve_raises_when_cutoff_cannot_hold_the_state():
    # a strong scalar drive pushes the displacement far beyond the cutoff
    spec = sc.classical_current_model(1.5, 0.3)
    st = sc.build_initial(spec, [1.0], [0.0], [6])
    with pytest.raises(TailMassExceeded):
        out = st
        for _ in range(40):
            out = sc.evolve(out, spec, 0.25)
