"""Property tests of the phase-space kernels on generated Hermitian input.

Inputs are Hermitian matrices (G + G^dagger)/2 and states built from G G^dagger,
for G drawn entrywise. Each tolerance is 1e-13 * d times max(1, |M|_F) for
every input M the compared quantity depends on. The file formats are tested on
tables drawn from every finite float.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle import (
    clifford_gates,
    incidence_matrix,
    line_operator_stack,
    mub_family,
    point_operator_stack,
    x_matrix,
    z_matrix,
)

from mubgeo.core import Modulus
from mubgeo.io import parse_probabilities_csv, parse_quasi_csv, probabilities_to_csv, quasi_to_csv
from mubgeo.phasespace import (
    MubProbabilities,
    QuasiDistribution,
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


@st.composite
def table(draw, primes):
    """(d, T) with T a real (d+1) x d table."""
    d = draw(st.sampled_from(primes))
    return d, draw(arrays(np.float64, (d + 1, d), elements=entries))


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
@given(square(ORACLE_PRIMES), st.booleans())
def test_clifford_covariance(dg, fourier):
    # tr(U^dagger B U P_j) = tr(B U P_j U^dagger) = V_B(pi(j)) for the gate's line permutation pi
    d, g = dg
    mod = Modulus(d)
    b = hermitian(g)
    s, f = clifford_gates(mod)
    a, m0 = np.indices((d, d))
    u, to = (f, (m0, -a % d)) if fourier else (s, (a, (m0 - a + mod.half(1)) % d))
    moved = map_operator(mod, u.conj().T @ b @ u).values
    assert np.abs(moved - map_operator(mod, b).values[to]).max() <= tol(d, b)


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
@given(square(PRIMES))
def test_probabilities_match_basis_diagonals(dg):
    d, g = dg
    mod = Modulus(d)
    rho = state(g)
    expected = [np.einsum("ni,nm,mi->i", u.conj(), rho, u).real for u in mub_family(mod)]
    assert np.abs(probabilities_from_state(mod, rho).values - expected).max() <= tol(d, rho)


@deterministic
@given(square(PRIMES), st.data())
def test_probability_covariance(dg, data):
    # Z^-c shifts state m of basis b >= 0 to m + c; X^-a shifts it to m - ab, and e_m to e_(m-a)
    d, g = dg
    mod = Modulus(d)
    a, c = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    rho = state(g)
    z, x = np.linalg.matrix_power(z_matrix(mod), c), np.linalg.matrix_power(x_matrix(mod), a)
    p = probabilities_from_state(mod, rho).values
    moved = probabilities_from_state(mod, z @ rho @ z.conj().T).values
    expected = np.vstack([p[0], np.roll(p[1:], -c, axis=1)])
    assert np.abs(moved - expected).max() <= tol(d, rho)
    moved = probabilities_from_state(mod, x @ rho @ x.conj().T).values
    expected = np.vstack([np.roll(p[0], a)] + [np.roll(p[b + 1], a * b % d) for b in range(d)])
    assert np.abs(moved - expected).max() <= tol(d, rho)


@deterministic
@given(table(ORACLE_PRIMES))
def test_tomography_is_incidence_sum_on_any_normalised_table(dt):
    d, t = dt
    mod = Modulus(d)
    p = t - t.mean(axis=1, keepdims=True) + 1 / d  # columns sum to 1, no state behind
    quasi = quasi_from_probabilities(MubProbabilities(mod, p))
    expected = incidence_matrix(mod).T @ p.reshape(-1) - 1.0
    assert np.abs(quasi.values.reshape(-1) - expected).max() <= tol(d, p)


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


@deterministic
@given(st.sampled_from(ORACLE_PRIMES), st.booleans(), st.data())
def test_csv_write_read_write_is_the_identity(d, points, data):
    # every finite float, signed zeros, subnormals and the largest included, in either layout
    mod = Modulus(d)
    kind, write, read = (
        (MubProbabilities, probabilities_to_csv, parse_probabilities_csv)
        if points
        else (QuasiDistribution, quasi_to_csv, parse_quasi_csv)
    )
    finite = st.floats(allow_nan=False, allow_infinity=False)
    table = kind(mod, data.draw(arrays(np.float64, (d + points, d), elements=finite)))
    text = write(table)
    again = read(text, mod)
    assert again.values.tobytes() == table.values.tobytes()
    assert write(again) == text
