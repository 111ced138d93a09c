import numpy as np
import pytest

import semichain as sc
from semichain.errors import DimensionMismatch, EmptyModeList, NonHermitianH0
from semichain.model import atomic_rotation, classical_current_model, rotated_currents


def test_validate_accepts_jc(pauli):
    spec = sc.ModelSpec(h0=pauli["z"] / 2, modes=[sc.FieldMode(1.0, pauli["minus"])])
    assert spec.d == 2 and spec.n_modes == 1


def test_specs_and_modes_compare_by_identity(pauli):
    def make():
        return sc.ModelSpec(h0=pauli["z"] / 2,
                            modes=[sc.FieldMode(1.0, pauli["minus"])])

    a, b = make(), make()
    assert a == a and a.modes[0] == a.modes[0]
    # equal values compare unequal, without comparing arrays
    assert a != b and a.modes[0] != b.modes[0]
    assert len({a, b, a}) == 2 and hash(a.modes[0]) == hash(a.modes[0])
    assert classical_current_model(0.5, 1.0) != classical_current_model(0.5, 1.0)


def test_validate_rejects_non_hermitian():
    h0 = np.zeros((2, 2), dtype=complex)
    h0[0, 1] = 1.0
    with pytest.raises(NonHermitianH0):
        sc.ModelSpec(h0=h0, modes=[sc.FieldMode(1.0, np.eye(2))])


def test_validate_rejects_wrong_mode_dimension(pauli):
    with pytest.raises(DimensionMismatch):
        sc.ModelSpec(h0=pauli["z"], modes=[sc.FieldMode(1.0, np.eye(3))])


def test_validate_rejects_empty_modes(pauli):
    with pytest.raises(EmptyModeList):
        sc.ModelSpec(h0=pauli["z"], modes=[])


def test_rotated_current_at_zero(jc_spec, pauli):
    assert np.allclose(rotated_currents(jc_spec, 0.0)[0],
                       0.2 * pauli["minus"], atol=1e-14)


def test_rotated_current_scalar_phase(pauli):
    spec = sc.ModelSpec(h0=np.zeros((2, 2)),
                        modes=[sc.FieldMode(1.0, pauli["minus"])])
    out = rotated_currents(spec, np.pi)[0]
    assert np.allclose(out, -pauli["minus"], atol=1e-12)


def test_rotated_current_closed_form(pauli):
    # exp(i sigma_z t / 2) sigma_minus exp(-i sigma_z t / 2) = e^{-it} sigma_minus
    spec = sc.ModelSpec(h0=pauli["z"] / 2, modes=[sc.FieldMode(1.0, pauli["minus"])])
    for t in (0.3, 1.7, 4.9):
        expected = np.exp(1j * t) * np.exp(-1j * t) * pauli["minus"]
        assert np.allclose(rotated_currents(spec, t)[0], expected, atol=1e-12)


def test_rotated_current_index_range():
    spec = classical_current_model([0.5, 0.3j], [1.0, 2.0])
    js = rotated_currents(spec, 0.4)
    assert len(js) == spec.n_modes
    assert np.allclose(js[1], 0.3j * np.exp(0.8j) * np.eye(1), atol=1e-14)


def test_rotated_current_singular_values_invariant():
    rng = np.random.default_rng(21)
    h0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h0 = h0 + h0.conj().T
    j = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(0.7, j)])
    ref = np.linalg.svd(j, compute_uv=False)
    for t in rng.uniform(0, 10, size=5):
        sv = np.linalg.svd(rotated_currents(spec, t)[0], compute_uv=False)
        assert np.allclose(sv, ref, atol=1e-9)


def test_rotated_current_periodicity(pauli):
    # commensurate case: omega = 1, atomic splitting 1 -> period 2*pi
    spec = sc.ModelSpec(h0=pauli["z"] / 2, modes=[sc.FieldMode(1.0, pauli["minus"])])
    t = 0.9
    assert np.allclose(rotated_currents(spec, t)[0],
                       rotated_currents(spec, t + 2 * np.pi)[0], atol=1e-12)


def test_rotated_currents_match_single():
    # each current is the mode phase times the atomic rotation conjugation
    rng = np.random.default_rng(22)
    h0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h0 = h0 + h0.conj().T
    js = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(0.7, js[0]), sc.FieldMode(1.3, js[1])])
    t = 2.3
    u = atomic_rotation(spec, t)
    for mode, got in zip(spec.modes, rotated_currents(spec, t)):
        expected = np.exp(1j * mode.omega * t) * (u @ mode.j @ u.conj().T)
        assert np.allclose(got, expected, atol=1e-12)


def test_atomic_rotation_is_unitary(jc_spec):
    u = atomic_rotation(jc_spec, 1.3)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_classical_current_model_single():
    spec = classical_current_model(0.5, 1.0)
    assert spec.d == 1 and spec.n_modes == 1
    assert spec.modes[0].j[0, 0] == 0.5
    assert np.allclose(rotated_currents(spec, 0.4)[0],
                       0.5 * np.exp(0.4j) * np.eye(1))


def test_classical_current_model_two_modes():
    spec = classical_current_model([0.5, 0.3j], [1.0, 2.0])
    assert spec.n_modes == 2
    assert spec.modes[1].j[0, 0] == 0.3j


def test_classical_current_model_zero_current():
    spec = classical_current_model([0.0], [2.0])
    assert np.allclose(rotated_currents(spec, 1.0)[0], np.zeros((1, 1)))


def test_spec_keeps_read_only_copies_of_h0_and_the_currents(pauli):
    # the cached eigenbasis and the oracle's cached operator assume that
    # a spec never changes, whoever holds the arrays it was built from
    h0, j = pauli["z"] / 2, 0.2 * pauli["minus"]
    spec = sc.ModelSpec(h0=h0, modes=[sc.FieldMode(1.0, j)])
    h0[0, 1] = 1.0
    j[0, 0] = 1.0
    assert spec.h0[0, 1] == 0.0 and spec.modes[0].j[0, 0] == 0.0
    with pytest.raises(ValueError):
        spec.h0[0, 1] = 1.0
    with pytest.raises(ValueError):
        spec.modes[0].j[0, 0] = 1.0
