import re

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
    NotPrimeError,
    UnsupportedDimensionError,
)
from mubgeo.mub import verify_eigenrelation, verify_unbiasedness
from mubgeo.operators import verify_operator_identities
from mubgeo.phasespace import (
    MubProbabilities,
    map_operator,
    probabilities_from_state,
    quasi_from_probabilities,
    validate_density_matrix,
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


@pytest.mark.parametrize("d", [np.int64(5), np.int32(5), np.uint8(5)])
def test_modulus_takes_a_numpy_integer_as_the_int_it_equals(d):
    # stored as an int, so both moduli compare and hash alike for the phase-space caches
    mod = Modulus(d)
    assert type(mod.d) is int
    assert mod == Modulus(5)
    assert hash(mod) == hash(Modulus(5))


@pytest.mark.parametrize("d, shown", [(True, "True"), (5.0, "5.0"), (np.True_, "np.True_")])
def test_modulus_refuses_a_bool_or_a_float_in_the_same_words(d, shown):
    text = f"dimension must be an integer, got {shown}"
    with pytest.raises(UnsupportedDimensionError, match=f"^{re.escape(text)}$"):
        Modulus(d)


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


MOD5 = Modulus(5)
# inputs that a bad eps let through: a non-Hermitian matrix, and columns that sum to 2.5
NON_HERMITIAN = np.arange(25).reshape(5, 5)
SUMS_TO_2_5 = MubProbabilities(MOD5, np.full((6, 5), 0.5))

# every public function that takes eps, called with it
TAKES_EPS = {
    "map_operator": lambda eps: map_operator(MOD5, NON_HERMITIAN, eps),
    "validate_density_matrix": lambda eps: validate_density_matrix(MOD5, np.eye(5) / 5, eps),
    "probabilities_from_state": lambda eps: probabilities_from_state(MOD5, np.eye(5) / 5, eps),
    "quasi_from_probabilities": lambda eps: quasi_from_probabilities(SUMS_TO_2_5, eps),
    "verify_eigenrelation": lambda eps: verify_eigenrelation(MOD5, eps),
    "verify_unbiasedness": lambda eps: verify_unbiasedness(MOD5, eps),
    "verify_operator_identities": lambda eps: verify_operator_identities(MOD5, eps),
}


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0, -1])
@pytest.mark.parametrize("function", TAKES_EPS)
def test_every_function_that_takes_eps_refuses_a_bad_one(function, eps):
    # an eps of inf passed any defect, and nan compared false, with the CLI's text
    message = f"eps must be positive and finite, got {float(eps)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TAKES_EPS[function](eps)


def test_the_operator_battery_refuses_eps_at_its_ceiling():
    # held to d*eps, the 1/d gap of the point Gram cases could not fail at 1/(2 d^2) = 0.02; the
    # basis checks took any finite eps, and at 0.9 a basis copied onto another passed mub.unbiased
    for function in ("verify_operator_identities", "verify_eigenrelation", "verify_unbiasedness"):
        with pytest.raises(ValueError, match=re.escape("is not below 1/(2 d^2) = 0.02")):
            TAKES_EPS[function](0.02)
        assert TAKES_EPS[function](0.0199).passed, function
