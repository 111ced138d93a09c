"""Dense linear algebra the package relies on: operator and state
validation, and the matrix exponential exp(i H0 t) that
``model.atomic_rotation`` takes from the eigendecomposition of h0."""

import numpy as np
import pytest

import semichain as sc
from semichain.errors import DimensionMismatch, NonFiniteInput
from semichain.hilbert import as_operator, as_state
from semichain.model import atomic_rotation


def _spec(h0):
    d = h0.shape[0]
    return sc.ModelSpec(h0=h0, modes=[sc.FieldMode(1.0, np.zeros((d, d)))])


def _random_hermitian(rng, d):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return h + h.conj().T


def test_exp_of_zero_is_identity():
    spec = _spec(_random_hermitian(np.random.default_rng(2), 3))
    assert np.allclose(atomic_rotation(spec, 0.0), np.eye(3), atol=1e-14)


def test_exp_diagonal_phases():
    spec = _spec(np.diag([1.0, -1.0]))
    out = atomic_rotation(spec, np.pi) @ np.array([1.0, 1.0])
    assert np.allclose(out, [-1.0, -1.0], atol=1e-12)


def test_exp_matches_eigendecomposition():
    rng = np.random.default_rng(7)
    for _ in range(5):
        h = _random_hermitian(rng, 4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = 0.3
        evals, evecs = np.linalg.eigh(h)
        expected = evecs @ (np.exp(-1j * s * evals) * (evecs.conj().T @ v))
        got = atomic_rotation(_spec(h), -s) @ v
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(v)


def test_exp_unitarity_for_hermitian_generator():
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    out = atomic_rotation(_spec(h), 2.5) @ v
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-9


def test_exp_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        as_state([1.0, 0.0, 0.0], dim=2)
    with pytest.raises(DimensionMismatch):
        as_state(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((3, 3)), dim=2)


def test_exp_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        as_operator(np.array([[np.nan, 0], [0, 0]]))
    with pytest.raises(NonFiniteInput):
        as_operator(np.array([[0, 1j * np.inf], [0, 0]]))
    with pytest.raises(NonFiniteInput):
        as_state([1.0, np.inf])


def test_strided_inputs_are_accepted():
    # a transposed complex matrix and a strided vector have no
    # contiguous last axis; validation reads them as they are
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(as_operator(m.T), m.T)
    v = (rng.standard_normal(6) + 1j * rng.standard_normal(6))[::2]
    assert np.array_equal(as_state(v, dim=3), v)
    bad = m.copy()
    bad[0, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        as_operator(bad.T)

    h0 = _random_hermitian(rng, 3)
    spec = sc.ModelSpec(h0=h0.T, modes=[sc.FieldMode(1.0, m.conj().T)])
    ref = sc.ModelSpec(h0=h0.T.copy(), modes=[sc.FieldMode(1.0, m.conj().T.copy())])
    assert np.array_equal(spec.h0, ref.h0)
    assert np.array_equal(spec.modes[0].j, ref.modes[0].j)
    assert np.array_equal(atomic_rotation(spec, 0.7), atomic_rotation(ref, 0.7))
    ob = sc.Observable(f=m.T, poly=sc.unit_poly(1))
    assert np.array_equal(ob.f, m.T)
