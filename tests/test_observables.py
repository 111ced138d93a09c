import numpy as np
import pytest

from semichain.observables import (Monomial, Observable, atomic_observable,
                                   mode_monomial, unit_poly)


def test_monomial_validates_powers():
    with pytest.raises(ValueError):
        Monomial(1.0, (-1,), (0,))
    with pytest.raises(ValueError):
        Monomial(1.0, (1, 0), (0,))
    m = Monomial(2.0, (1,), (2,))
    assert m.coeff == 2.0 + 0j and m.p == (1,) and m.q == (2,)


def test_observable_requires_monomials():
    with pytest.raises(ValueError):
        Observable(f=None, poly=())


def test_observable_rejects_monomials_of_different_mode_counts():
    with pytest.raises(ValueError, match="same number of modes"):
        Observable(f=None, poly=[Monomial(1, (1,), (1,)),
                                 Monomial(1, (1, 0), (0, 0))])


def test_poly_values_single_mode():
    obs = Observable(f=None, poly=mode_monomial(1, 0, 1, 1), name="aad")
    alphas = np.array([[1.0 + 1.0j], [2.0]])
    assert np.allclose(obs.poly_values(alphas), [2.0, 4.0])


def test_poly_values_multimode_and_sum():
    # 0.5 * a0 * conj(a1) + 2
    poly = (Monomial(0.5, (1, 0), (0, 1)), Monomial(2.0, (0, 0), (0, 0)))
    obs = Observable(f=None, poly=poly)
    alphas = np.array([[2.0, 1.0 - 1.0j]])
    expected = 0.5 * 2.0 * np.conj(1.0 - 1.0j) + 2.0
    assert np.allclose(obs.poly_values(alphas), [expected])


def test_unit_poly_is_one():
    obs = Observable(f=None, poly=unit_poly(2))
    alphas = np.array([[0.3, -1j], [5.0, 2.0]])
    assert np.allclose(obs.poly_values(alphas), [1.0, 1.0])


def test_atomic_observable_matrix():
    f = np.array([[0, 1], [1, 0]], dtype=complex)
    obs = atomic_observable(f, 1, name="sx")
    assert obs.name == "sx"
    assert np.allclose(obs.atomic_matrix(2), f)
    assert np.allclose(Observable(f=None, poly=unit_poly(1)).atomic_matrix(3),
                       np.eye(3))


@pytest.mark.parametrize("power", [1.0, 1.5, True, np.bool_(True), "1", None],
                         ids=["float", "fraction", "bool", "numpy_bool", "str",
                              "none"])
def test_monomial_rejects_non_integer_powers(power):
    # int() would read 1.5 as 1 and True as 1
    with pytest.raises(ValueError, match="must be integers"):
        Monomial(1.0, (power,), (0,))
    with pytest.raises(ValueError, match="must be integers"):
        Monomial(1.0, (0,), (power,))


def test_monomial_accepts_numpy_integers():
    m = Monomial(1.0, (np.int64(2),), (np.uint8(1),))
    assert m.p == (2,) and m.q == (1,)
    assert all(type(x) is int for x in m.p + m.q)
