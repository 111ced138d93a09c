import numpy as np
import pytest

import semichain as sc
from semichain.errors import TailMassExceeded
from semichain.observables import Monomial, Observable, mode_monomial
from semichain.oracle import (_apply_bands, _chebyshev_coefficients,
                              _hamiltonian, _rhs, coherent_fock_vector,
                              tail_mass)

from conftest import disk_grid, q_function, quad_phase_plane, random_fock_state


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


@pytest.mark.parametrize("shape", [(3, 9), (2, 6, 7), (2, 4, 5, 3)],
                         ids=["M=1", "M=2", "M=3"])
def test_tail_mass_is_the_heaviest_top_two_levels(shape):
    rng = np.random.default_rng(len(shape))
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps[(slice(None),) * (len(shape) - 1) + (slice(-2, None),)] *= 3.0
    amps /= np.linalg.norm(amps)
    mass = np.abs(amps) ** 2
    direct = [mass.take([-2, -1], axis=axis).sum()
              for axis in range(1, len(shape))]
    # the last mode's tail is the heaviest, so a tail_mass that read
    # the first mode alone would fail
    assert int(np.argmax(direct)) == len(direct) - 1
    got = tail_mass(sc.FockCompositeState(amps))
    assert got == pytest.approx(max(direct), rel=1e-14, abs=0)


def test_build_initial_cutoff_too_small(jc_spec):
    with pytest.raises(TailMassExceeded):
        sc.build_initial(jc_spec, [1.0, 0.0], [3.0], [4])


def test_non_finite_inputs_fail_loudly(jc_spec):
    for a0 in (np.nan, np.inf):
        with pytest.raises(TailMassExceeded), np.errstate(invalid="ignore"):
            sc.build_initial(jc_spec, [1.0, 0.0], [a0], [8])
    st = sc.build_initial(jc_spec, [1.0, 0.0], [0.5], [16])
    nan = sc.FockCompositeState(amplitudes=np.full_like(st.amplitudes, np.nan))
    with pytest.raises(TailMassExceeded):
        sc.evolve(nan, jc_spec, 0.1)
    unit = Observable(f=None, poly=mode_monomial(1, 0, 0, 0))
    with pytest.raises(TailMassExceeded):
        sc.antinormal_expectation(nan, unit)
    for dt in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            sc.evolve(st, jc_spec, dt)
    back = sc.evolve(sc.evolve(st, jc_spec, 0.3), jc_spec, -0.3)
    assert np.allclose(back.amplitudes, st.amplitudes, atol=1e-12)


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
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


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
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


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
        assert q_function(st, [a]) == pytest.approx(np.exp(-abs(a) ** 2),
                                                    abs=1e-12)


def test_q_function_coherent_gaussian():
    spec = sc.classical_current_model(0.1, 1.0)
    a0 = 1.0
    st = sc.build_initial(spec, [1.0], [a0], [20])
    for a in (0.3, 1.2 + 0.5j):
        expected = np.exp(-abs(a - a0) ** 2)
        assert q_function(st, [a]) == pytest.approx(expected, abs=1e-9)


def test_q_function_normalization_by_quadrature():
    rng = np.random.default_rng(23)
    st = random_fock_state(rng, d=2, cutoff=5)
    alphas, weight = disk_grid(radius=6.0, n=96)
    vals = np.array([q_function(st, [a]) for a in alphas])
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
    vals = np.array([abs(a) ** 2 * q_function(st, [a]) for a in alphas])
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


def test_antinormal_matches_dense_ladder_matrices():
    # <(a^dag)^p Psi| F |(a^dag)^q Psi> from Kronecker products of a^dag
    # on a space padded by the largest power, where nothing is cut
    rng = np.random.default_rng(41)
    cutoffs = (3, 4)
    shape = (2,) + tuple(c + 1 for c in cutoffs)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.linalg.norm(amps)
    st = sc.FockCompositeState(amplitudes=amps)
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    monos = [Monomial(1.0, (2, 1), (0, 3)), Monomial(0.5 - 1j, (1, 0), (3, 2)),
             Monomial(-2.0j, (0, 4), (1, 2))]
    # |p - q| > cutoff + 1 on mode 0: a slice stop below 0 must not wrap
    far = Monomial(1.0, (1, 1), (cutoffs[0] + 3, 1))
    top = max(max(m.p + m.q) for m in monos + [far])
    padded = np.zeros((2,) + tuple(c + 1 + top for c in cutoffs), dtype=complex)
    padded[:, :shape[1], :shape[2]] = amps
    raising = [np.diag(np.sqrt(np.arange(1.0, size)), -1)
               for size in padded.shape[1:]]

    def raised(powers):
        op = np.eye(2)
        for r, p in zip(raising, powers):
            op = np.kron(op, np.linalg.matrix_power(r, p))
        return op @ padded.ravel()

    f_full = np.kron(f, np.eye(padded[0].size))
    dense = [m.coeff * np.vdot(raised(m.p), f_full @ raised(m.q)) for m in monos]
    for m, ref in zip(monos, dense):
        got = sc.antinormal_expectation(st, Observable(f=f, poly=[m]),
                                        tail_threshold=1.0)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    got = sc.antinormal_expectation(st, Observable(f=f, poly=monos),
                                    tail_threshold=1.0)
    assert abs(got - sum(dense)) <= 1e-12 * max(1.0, abs(sum(dense)))
    assert sc.antinormal_expectation(st, Observable(f=f, poly=[far]),
                                     tail_threshold=1.0) == 0


def test_evolve_raises_when_cutoff_cannot_hold_the_state():
    # a strong scalar drive pushes the displacement far beyond the cutoff
    spec = sc.classical_current_model(1.5, 0.3)
    st = sc.build_initial(spec, [1.0], [0.0], [6])
    with pytest.raises(TailMassExceeded):
        out = st
        for _ in range(40):
            out = sc.evolve(out, spec, 0.25)


def test_evolve_one_long_step_equals_ten_short_ones(jc_spec):
    # dt = 5 at cutoff 40 needs a Chebyshev series of some 200 terms;
    # steps of 0.5 need about 40 each
    st = sc.build_initial(jc_spec, [1.0, 0.0], [2.0], [40])
    long = sc.evolve(st, jc_spec, 5.0)
    short = st
    for _ in range(10):
        short = sc.evolve(short, jc_spec, 0.5)
    assert np.max(np.abs(long.amplitudes - short.amplitudes)) < 1e-12
    assert long.time == pytest.approx(short.time)


def _dense_parts(h0, modes, levels):
    """The free part H0 + sum_n omega_n N_n of H_S and its coupling
    sum_n (J_n a_n^dag + J_n^dag a_n) as dense matrices, from Kronecker
    products, for the (omega_n, J_n) of ``modes`` on mode sizes ``levels``."""
    def on_mode(n, op):  # op on mode n, the identity on the other modes
        out = np.eye(1)
        for m, size in enumerate(levels):
            out = np.kron(out, op if m == n else np.eye(size))
        return out

    free = np.kron(h0, np.eye(int(np.prod(levels))))
    coupling = 0.0
    for n, ((omega, j), size) in enumerate(zip(modes, levels)):
        number = on_mode(n, np.diag(np.arange(float(size))))
        free = free + omega * np.kron(np.eye(h0.shape[0]), number)
        lower = np.diag(np.sqrt(np.arange(1.0, size)), 1)
        raising = np.kron(j, on_mode(n, lower.T))
        coupling = coupling + raising + raising.conj().T
    return free, coupling


def _expi(h, t):
    """exp(i h t) for a Hermitian matrix h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w * t)) @ v.conj().T


def _dense_interaction_propagator(h0, omega, j, cutoff, t0, dt):
    """R(t0 + dt) exp(-i H_S dt) R(-t0) as one dense matrix, from
    ``np.linalg.eigh`` of the Kronecker-product H_S and of the free part
    H0 + omega N, for one mode."""
    free, coupling = _dense_parts(h0, [(omega, j)], [cutoff + 1])
    return _expi(free, t0 + dt) @ _expi(free + coupling, -dt) @ _expi(free, -t0)


@pytest.mark.parametrize("h0_scale, g, a", [(1.0, 1.2, 0.5), (20.0, 0.4, 0.1)])
def test_evolve_detuned_non_diagonal_h0_matches_dense_propagator(pauli, h0_scale, g, a):
    # h0 neither diagonal nor resonant with the mode, and a current that
    # does not conserve the excitation number. In the first case the
    # coupling, in the second h0, pushes the spectrum of H_S past the
    # interval that the other terms alone would give, so the expansion
    # converges only if its interval bounds every term
    h0 = h0_scale * (pauli["x"] / 2 + 0.3 * pauli["z"] / 2)
    j = g * pauli["minus"] + a * pauli["z"]
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(1.3, j)])
    amps = sc.build_initial(spec, [0.6, 0.8j], [0.0], [6]).amplitudes
    st = sc.FockCompositeState(amplitudes=amps, time=0.3)
    out = sc.evolve(st, spec, 1.7, tail_threshold=1.0)
    u = _dense_interaction_propagator(h0, 1.3, j, 6, 0.3, 1.7)
    ref = (u @ amps.ravel()).reshape(amps.shape)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-12


def test_spectral_interval_holds_the_spectrum_within_the_weyl_sum(pauli):
    # two modes, one with a negative frequency, h0 not diagonal, and
    # currents that do not conserve the excitation number: the interval
    # from each mode's own term holds the dense spectrum of H_S, and lies
    # inside the sum of the separate ranges of h0, omega N and each
    # coupling (+-2 ||J|| sqrt(cutoff)); here it is 8.2 wide against 12.6
    h0 = pauli["x"] / 2 + 0.3 * pauli["z"] / 2
    spec = sc.ModelSpec(h0=h0, modes=[
        sc.FieldMode(1.0, 0.4 * pauli["minus"] + 0.1 * pauli["z"]),
        sc.FieldMode(-0.7, 0.3 * pauli["x"])])
    shape = (2, 5, 4)
    diag, cols, vals, lo, hi = _hamiltonian(spec, shape[1:])
    basis = np.eye(int(np.prod(shape)), dtype=complex)
    dense = np.array([_apply_bands(diag, cols, vals, e) for e in basis]).T
    assert np.allclose(dense, dense.conj().T, rtol=0, atol=1e-14)
    spectrum = np.linalg.eigvalsh(dense)
    assert lo <= spectrum[0] and spectrum[-1] <= hi
    weyl = np.linalg.eigvalsh(h0)[[0, -1]]
    for mode, size in zip(spec.modes, shape[1:]):
        top = mode.omega * (size - 1)
        reach = 2.0 * np.linalg.norm(mode.j, 2) * np.sqrt(size - 1)
        weyl += [min(top, 0.0) - reach, max(top, 0.0) + reach]
    assert weyl[0] <= lo and hi <= weyl[1]
    assert hi - lo < 0.75 * (weyl[1] - weyl[0])


def _two_mode_model(pauli):
    """Two modes, one of them at a negative frequency, a non-diagonal h0
    and currents sigma_x + sigma_z that do not conserve the excitation
    number, with the spec and the (omega_n, J_n) pairs."""
    h0 = pauli["x"] / 2 + 0.3 * pauli["z"] / 2
    modes = [(1.0, 0.4 * (pauli["x"] + pauli["z"])),
             (-0.7, 0.3 * (pauli["x"] + pauli["z"]) + 0.1j * pauli["z"])]
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(w, j) for w, j in modes])
    return spec, h0, modes


def _three_level_model(pauli):
    """d = 3: an h0 with one off-diagonal pair, and two modes, one at a
    negative frequency, whose currents have 2, 0 and 1 nonzeros in their
    rows (their adjoints 1, 1 and 1), with the spec and the
    (omega_n, J_n) pairs."""
    h0 = np.diag([0.5, -0.2, 0.1]).astype(complex)
    h0[0, 2] = h0[2, 0] = 0.3
    shape = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]])
    modes = [(0.8, shape * [[0.2, 0.1j, 0], [0, 0, 0], [0, 0, -0.3]]),
             (-0.6, shape * [[0.1, -0.2, 0], [0, 0, 0], [0, 0, 0.4j]])]
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(w, j) for w, j in modes])
    return spec, h0, modes


def test_bands_match_the_dense_hamiltonian(pauli):
    for model, levels, n_bands in [
            # h0's off-diagonal row entry takes one band; each row of each
            # mode's K_n holds two entries from J (a^dag) and two from
            # J^dag (a)
            (_two_mode_model, (5, 4), 1 + 4 + 4),
            # one band for h0; the fullest K_n row, atom level 0, holds
            # two entries from J and one from J^dag
            (_three_level_model, (4, 3), 1 + 3 + 3)]:
        spec, h0, modes = model(pauli)
        diag, cols, vals, _, _ = _hamiltonian(spec, levels)
        free, coupling = _dense_parts(h0, modes, levels)
        basis = np.eye(free.shape[0], dtype=complex)
        got = np.array([_apply_bands(diag, cols, vals, e) for e in basis]).T
        assert np.max(np.abs(got - free - coupling)) < 1e-14
        assert cols.shape == vals.shape == (n_bands, free.shape[0])
        # short rows (an empty current row, a mode's edge levels) are
        # padded, and a padded entry points at its own row
        rows = np.broadcast_to(np.arange(free.shape[0]), cols.shape)
        assert (vals == 0).any()
        assert np.array_equal(cols[vals == 0], rows[vals == 0])


def test_rotating_wave_two_modes_take_two_bands(pauli, jc_spec):
    # a row of K_n holds its a^dag entry (atom down) or its a entry
    # (atom up), never both
    spec = sc.ModelSpec(h0=pauli["z"] / 2, modes=[
        sc.FieldMode(1.0, 0.3 * pauli["minus"]),
        sc.FieldMode(1.2, 0.3 * pauli["minus"])])
    diag, cols, vals, _, _ = _hamiltonian(spec, (17, 17))
    assert cols.shape == (2, 2 * 17 * 17)
    diag, cols, vals, _, _ = _hamiltonian(jc_spec, (33,))
    assert cols.shape == (1, 2 * 33)


def test_zero_currents_take_no_band_and_leave_the_state(pauli):
    spec = sc.ModelSpec(h0=pauli["z"] / 2, modes=[
        sc.FieldMode(1.0, np.zeros((2, 2))),
        sc.FieldMode(-0.7, np.zeros((2, 2)))])
    diag, cols, vals, _, _ = _hamiltonian(spec, (6, 5))
    assert cols.shape == vals.shape == (0, 2 * 6 * 5)
    rng = np.random.default_rng(44)
    amps = rng.standard_normal((2, 6, 5)) + 1j * rng.standard_normal((2, 6, 5))
    state = sc.FockCompositeState(amps / np.linalg.norm(amps), time=0.4)
    out = sc.evolve(state, spec, 1.3, tail_threshold=1.0)
    assert out.time == pytest.approx(1.7)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-14


def test_rhs_matches_the_dense_interaction_picture_hamiltonian(pauli):
    # H(t) = R(t) (H_S - H_free) R(t)^dag with R(t) = exp(i H_free t)
    spec, h0, modes = _two_mode_model(pauli)
    levels = (5, 4)
    free, coupling = _dense_parts(h0, modes, levels)
    rng = np.random.default_rng(43)
    amps = (rng.standard_normal((2,) + levels)
            + 1j * rng.standard_normal((2,) + levels))
    for t in (0.0, 0.9, -2.3):
        r = _expi(free, t)
        ref = -1j * (r @ coupling @ r.conj().T) @ amps.ravel()
        got = _rhs(spec, t, amps)
        assert got.shape == amps.shape
        assert np.max(np.abs(got.ravel() - ref)) < 1e-13


def _bessel_by_fft(z, size=4096):
    """(-i)^k J_k(z), k < size / 2, as the discrete Fourier coefficients
    of e^{-i z cos t} (Jacobi-Anger expansion)."""
    theta = 2 * np.pi * np.arange(size) / size
    return np.fft.fft(np.exp(-1j * z * np.cos(theta)))[:size // 2] / size


@pytest.mark.parametrize("z", [1e-3, 0.5, 9.47, 50.0, -3.3])
def test_chebyshev_coefficients_match_a_fourier_reference(z):
    coef = _chebyshev_coefficients(z)
    ref = _bessel_by_fft(z)
    assert coef.size > abs(z) + 1
    assert np.max(np.abs(coef - ref[:coef.size])) < 1e-14
    # what the series drops is below rounding
    assert np.max(np.abs(ref[coef.size:])) < 1e-14


@pytest.mark.parametrize("z", [400.0, -400.0, 1e-12])
def test_chebyshev_coefficients_at_extreme_arguments(z):
    # a large |z| starts the recurrence far above the transition, and a
    # tiny one grows it by orders of 2k / |z|: neither may overflow
    coef = _chebyshev_coefficients(z)
    assert np.all(np.isfinite(coef))
    # at t = 0 the Jacobi-Anger expansion sums to e^{-i z}, and its
    # squares to 1
    k_weight = np.where(np.arange(coef.size) == 0, 1.0, 2.0)
    assert abs(np.sum(k_weight * coef) - np.exp(-1j * z)) < 1e-12
    assert np.sum(k_weight * np.abs(coef) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_evolve_alternating_between_specs_matches_fresh_builds(pauli):
    # the operator built for one spec is reused only for that spec: a
    # run that alternates two models gets the bits of a build per block
    def specs():
        return [sc.ModelSpec(h0=pauli["z"] / 2,
                             modes=[sc.FieldMode(1.0, 0.3 * pauli["minus"])]),
                _two_mode_model(pauli)[0]]

    alternating = specs()
    states = [sc.build_initial(alternating[0], [0.6, 0.8], [1.0], [20]),
              sc.build_initial(alternating[1], [1.0, 0.0], [0.5, 0.2j],
                               [14, 14])]
    for k in (0, 0, 1, 0, 1, 1):
        fresh = sc.evolve(states[k], specs()[k], 0.4)
        states[k] = sc.evolve(states[k], alternating[k], 0.4)
        assert np.array_equal(states[k].amplitudes, fresh.amplitudes)
