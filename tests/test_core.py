import numpy as np
import pytest

from mubgeo.core import (
    DEFAULT_EPS,
    Modulus,
    as_square_matrix,
    hermiticity_defect,
    is_prime,
    omega_power,
)
from mubgeo.errors import (
    DimensionMismatchError,
    NoInverseError,
    NotPrimeError,
    UnsupportedDimensionError,
)


def test_is_prime_small_values():
    primes = [n for n in range(2, 30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_modulus_accepts_odd_primes(d):
    assert Modulus(d).d == d


@pytest.mark.parametrize("d", [2, 1, 0, -5])
def test_modulus_rejects_too_small(d):
    with pytest.raises(UnsupportedDimensionError):
        Modulus(d)


@pytest.mark.parametrize("d", [6, 9, 15, 21])
def test_modulus_rejects_composites(d):
    with pytest.raises(NotPrimeError):
        Modulus(d)


def test_modulus_rejects_non_integer():
    with pytest.raises(UnsupportedDimensionError):
        Modulus(3.0)


def test_reduce():
    mod = Modulus(5)
    assert mod.reduce(7) == 2
    assert mod.reduce(-1) == 4
    assert mod.reduce(0) == 0


def test_inverse_examples():
    assert Modulus(3).inverse(2) == 2
    assert Modulus(5).inverse(2) == 3


def test_inverse_of_zero_rejected():
    with pytest.raises(NoInverseError):
        Modulus(5).inverse(0)
    with pytest.raises(NoInverseError):
        Modulus(5).inverse(10)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_inverse_exhaustive(d):
    mod = Modulus(d)
    for a in range(1, d):
        assert (a * mod.inverse(a)) % d == 1


def test_half_examples():
    assert Modulus(3).half(2) == 1
    assert Modulus(3).half(1) == 2
    assert Modulus(5).half(4) == 2


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_half_doubles_back(d):
    mod = Modulus(d)
    for a in range(d):
        assert (2 * mod.half(a)) % d == a


def test_omega_power_values():
    assert omega_power(3, 0) == 1
    w = omega_power(3, 1)
    assert abs(w.real + 0.5) <= DEFAULT_EPS
    assert abs(w.imag - np.sqrt(3) / 2) <= DEFAULT_EPS
    assert abs(omega_power(3, 3) - 1) <= DEFAULT_EPS
    assert abs(omega_power(3, -1) - omega_power(3, 2)) == 0


@pytest.mark.parametrize("d", [3, 5, 7])
def test_omega_conjugate_pairs(d):
    for k in range(d):
        assert abs(omega_power(d, k) * omega_power(d, -k) - 1) <= d * DEFAULT_EPS


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_omega_geometric_sum(d):
    for t in range(d):
        total = sum(omega_power(d, k * t) for k in range(d))
        expected = d if t == 0 else 0
        assert abs(total - expected) <= d * DEFAULT_EPS


def test_as_square_matrix_validation():
    m = as_square_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    with pytest.raises(DimensionMismatchError):
        as_square_matrix(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        as_square_matrix(np.ones((2, 2)), expected_d=3)
    with pytest.raises(ValueError):
        as_square_matrix(np.array([[np.inf, 0], [0, 0]]))


def test_hermiticity_defect_locates_entry():
    m = np.eye(3, dtype=complex)
    m[0, 2] = 1j
    defect, entry = hermiticity_defect(m)
    assert defect == pytest.approx(1.0)
    assert entry in ((0, 2), (2, 0))
