"""Property tests of the phase-space kernels on generated Hermitian input.

Inputs are Hermitian matrices (G + G^dagger)/2 and states built from G G^dagger,
for G drawn entrywise. Each tolerance is 1e-13 * d times max(1, |M|_F) for
every input M the compared quantity depends on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mubgeo.core import Modulus
from mubgeo.geometry import incidence_matrix
from mubgeo.mub import x_matrix, z_matrix
from mubgeo.operators import line_operator_stack, point_operator_stack
from mubgeo.phasespace import (
    map_operator,
    pair_expectation,
    probabilities_from_state,
    quasi_from_probabilities,
    reconstruct,
)

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
ORACLE_PRIMES = [3, 5, 7, 11, 13]

entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
deterministic = settings(derandomize=True, database=None, max_examples=25, deadline=None)


@st.composite
def square(draw, primes):
    """(d, G) with G a complex d x d matrix."""
    d = draw(st.sampled_from(primes))
    parts = draw(arrays(np.float64, (2, d, d), elements=entries))
    return d, parts[0] + 1j * parts[1]


def hermitian(g):
    return (g + g.conj().T) / 2


def state(g):
    rho = g @ g.conj().T + np.eye(len(g))
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def tol(d, *matrices):
    return 1e-13 * d * np.prod([max(1.0, np.linalg.norm(m)) for m in matrices])


@deterministic
@given(square([7]), st.integers(0, 6), st.integers(0, 6))
def test_displacement_covariance(dg, s, t):
    d, g = dg
    mod = Modulus(d)
    b = hermitian(g)
    disp = np.linalg.matrix_power(x_matrix(mod), s) @ np.linalg.matrix_power(z_matrix(mod), t)
    moved = map_operator(mod, disp @ b @ disp.conj().T).values
    a, m0 = np.indices((d, d))
    expected = map_operator(mod, b).values[(a - s) % d, (m0 + t) % d]
    assert np.abs(moved - expected).max() <= tol(d, b)


@deterministic
@given(square(PRIMES))
def test_map_reconstruct_round_trip(dg):
    d, g = dg
    b = hermitian(g)
    assert np.abs(reconstruct(map_operator(Modulus(d), b)) - b).max() <= tol(d, b)


@deterministic
@given(square(PRIMES), st.data())
def test_pairing_is_trace_of_product(dg, data):
    d, g = dg
    mod = Modulus(d)
    parts = data.draw(arrays(np.float64, (2, d, d), elements=entries))
    first, second = hermitian(g), hermitian(parts[0] + 1j * parts[1])
    paired = pair_expectation(map_operator(mod, first), map_operator(mod, second))
    assert abs(paired - np.trace(first @ second).real) <= tol(d, first, second)


@deterministic
@given(square(PRIMES))
def test_tomography_matches_map(dg):
    d, g = dg
    mod = Modulus(d)
    rho = state(g)
    via_probs = quasi_from_probabilities(probabilities_from_state(mod, rho))
    assert np.abs(via_probs.values - map_operator(mod, rho).values).max() <= tol(d, rho)


@deterministic
@given(square(ORACLE_PRIMES))
def test_kernels_match_stack_oracle(dg):
    d, g = dg
    mod = Modulus(d)
    b, rho = hermitian(g), state(g)
    lines, points = line_operator_stack(mod), point_operator_stack(mod)
    quasi = map_operator(mod, b)
    expected = np.einsum("aij,ji->a", lines, b).real.reshape(d, d)
    assert np.abs(quasi.values - expected).max() <= tol(d, b)
    expected = np.einsum("a,aij->ij", quasi.values.reshape(-1), lines) / d
    assert np.abs(reconstruct(quasi) - expected).max() <= tol(d, quasi.values)
    probs = probabilities_from_state(mod, rho)
    expected = np.einsum("aij,ji->a", points, rho).real.reshape(d + 1, d)
    assert np.abs(probs.values - expected).max() <= tol(d, rho)
    expected = incidence_matrix(mod).T @ probs.values.reshape(-1) - 1.0
    assert np.abs(quasi_from_probabilities(probs).values.reshape(-1) - expected).max() <= tol(d)
