import numpy as np
import pytest
from conftest import random_density, random_hermitian_trace_one

from mubgeo.core import Modulus, hermiticity_defect
from mubgeo.errors import (
    ColumnNotNormalizedError,
    DimensionMismatchError,
    IncompleteProbabilitiesError,
    MissingLineError,
    NonHermitianInputError,
)
from mubgeo.geometry import Line, Point, all_lines, all_points, lines_through_point
from mubgeo.operators import (
    line_operator_direct,
    line_operator_stack,
    point_operator,
    point_operator_stack,
)
from mubgeo.phasespace import (
    MubProbabilities,
    QuasiDistribution,
    map_operator,
    marginalize,
    pair_expectation,
    probabilities_from_state,
    quasi_from_probabilities,
    reconstruct,
    validate_density_matrix,
)

MOD3 = Modulus(3)
A_0_2 = point_operator(MOD3, Point(0, 2))


def test_map_maximally_mixed():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    assert np.abs(quasi.values - 1 / 3).max() <= 1e-10
    assert quasi.normalization() == pytest.approx(1, abs=1e-10)


def test_map_projector_gives_incidence_indicator():
    quasi = map_operator(MOD3, A_0_2)
    on = set(lines_through_point(MOD3, Point(0, 2)))
    for line in all_lines(MOD3):
        expected = 1.0 if line in on else 0.0
        assert quasi.value(line) == pytest.approx(expected, abs=1e-10)


def test_map_line_operator_is_sharp():
    quasi = map_operator(MOD3, line_operator_direct(MOD3, Line(1, 2)))
    for line in all_lines(MOD3):
        expected = 3.0 if line == Line(1, 2) else 0.0
        assert quasi.value(line) == pytest.approx(expected, abs=1e-10)


def test_map_rejects_non_hermitian():
    matrix = np.eye(3, dtype=complex)
    matrix[0, 1] = 1e-6
    with pytest.raises(NonHermitianInputError, match=r"\(0,1\)|\(1,0\)"):
        map_operator(MOD3, matrix)


def test_map_scales_tolerance_with_norm():
    # Hermitian up to rounding: entries near 1e7 leave an absolute asymmetry of ~2.5e-9
    d = 7
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    matrix = u @ np.diag(np.arange(d) * 1e7) @ u.conj().T
    assert hermiticity_defect(matrix)[0] > 1e-9
    back = reconstruct(map_operator(Modulus(d), matrix))
    assert np.abs(back - matrix).max() <= 1e-13 * d * np.linalg.norm(matrix)
    # a norm too large to square must not lift the bound to infinity
    huge = np.full((3, 3), 1e200 + 0j)
    huge[0, 1] *= 1 + 1e-5
    with pytest.raises(NonHermitianInputError, match=r"\(0,1\)"):
        map_operator(MOD3, huge)


def test_map_rejects_wrong_size():
    with pytest.raises(DimensionMismatchError):
        map_operator(MOD3, np.eye(4))


def test_quasi_table_validation():
    with pytest.raises(MissingLineError):
        QuasiDistribution(MOD3, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        QuasiDistribution(MOD3, np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        QuasiDistribution(MOD3, np.zeros((3, 3), dtype=complex))


def test_quasi_value_rejects_out_of_range_label():
    quasi = map_operator(Modulus(5), np.eye(5) / 5)
    with pytest.raises(ValueError, match=r"invalid line label \(7,-3\) for d=5"):
        quasi.value(Line(7, -3))


def test_reconstruct_uniform():
    quasi = QuasiDistribution(MOD3, np.full((3, 3), 1 / 3))
    assert np.abs(reconstruct(quasi) - np.eye(3) / 3).max() <= 1e-10


def test_reconstruct_incidence_indicator():
    values = np.zeros((3, 3))
    for line in lines_through_point(MOD3, Point(0, 2)):
        values[line.m_minus1, line.m0] = 1.0
    assert np.abs(reconstruct(QuasiDistribution(MOD3, values)) - A_0_2).max() <= 1e-10


@pytest.mark.parametrize("d", [3, 5, 7])
def test_round_trip_random_hermitian(rng, d):
    mod = Modulus(d)
    for _ in range(20):
        matrix = random_hermitian_trace_one(rng, d)
        again = reconstruct(map_operator(mod, matrix))
        assert np.abs(again - matrix).max() <= 1e-10


def test_pair_expectation_examples():
    v1 = map_operator(MOD3, point_operator(MOD3, Point(0, 1)))
    v2 = map_operator(MOD3, point_operator(MOD3, Point(1, 2)))
    assert pair_expectation(v1, v2) == pytest.approx(1 / 3, abs=1e-10)
    uniform = map_operator(MOD3, np.eye(3) / 3)
    assert pair_expectation(uniform, uniform) == pytest.approx(1 / 3, abs=1e-10)


def test_pair_expectation_matches_trace(rng):
    for d in (3, 5):
        mod = Modulus(d)
        rho = random_density(rng, d)
        obs = random_hermitian_trace_one(rng, d)
        paired = pair_expectation(map_operator(mod, rho), map_operator(mod, obs))
        assert paired == pytest.approx(np.trace(rho @ obs).real, abs=d * d * 1e-10)


def test_pair_expectation_dimension_check():
    with pytest.raises(DimensionMismatchError):
        pair_expectation(
            map_operator(MOD3, np.eye(3) / 3),
            map_operator(Modulus(5), np.eye(5) / 5),
        )


def test_validate_density_matrix():
    validate_density_matrix(MOD3, np.eye(3) / 3)
    with pytest.raises(ValueError, match="unit trace"):
        validate_density_matrix(MOD3, np.eye(3))
    with pytest.raises(NonHermitianInputError):
        validate_density_matrix(MOD3, np.eye(3) / 3 + 1e-5 * np.array([[0, 1j, 0]] * 3))
    ind = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(MOD3, ind)
    validate_density_matrix(MOD3, ind, check_psd=False)


def test_probabilities_from_state_examples():
    probs = probabilities_from_state(MOD3, np.eye(3) / 3)
    assert np.abs(probs.values - 1 / 3).max() <= 1e-10
    probs = probabilities_from_state(MOD3, A_0_2)
    assert probs.value(Point(0, 2)) == pytest.approx(1, abs=1e-10)
    assert probs.value(Point(1, -1)) == pytest.approx(1 / 3, abs=1e-10)
    assert np.abs(probs.column_sums() - 1).max() <= 1e-10
    probs.check_range()


def test_probabilities_table_validation():
    with pytest.raises(IncompleteProbabilitiesError):
        MubProbabilities(MOD3, np.zeros((3, 3)))
    bad = MubProbabilities(MOD3, np.full((4, 3), 0.5))
    with pytest.raises(ValueError, match="outside"):
        MubProbabilities(MOD3, np.full((4, 3), 1.5)).check_range()
    bad.check_range()  # 0.5 is a legal value even if columns are unnormalized


def test_quasi_from_probabilities_worked_line():
    probs = probabilities_from_state(MOD3, A_0_2)
    quasi = quasi_from_probabilities(probs)
    # line (1,2) carries the state's point, so three cross terms and the unit
    assert quasi.value(Line(1, 2)) == pytest.approx(1, abs=1e-10)
    direct = map_operator(MOD3, A_0_2)
    assert np.abs(quasi.values - direct.values).max() <= 3 * 1e-10


def test_quasi_from_probabilities_uniform():
    for d in (3, 5):
        mod = Modulus(d)
        probs = probabilities_from_state(mod, np.eye(d) / d)
        assert np.abs(quasi_from_probabilities(probs).values - 1 / d).max() <= d * 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_tomography_consistency_random(rng, d):
    mod = Modulus(d)
    for _ in range(10):
        rho = random_density(rng, d)
        via_probs = quasi_from_probabilities(probabilities_from_state(mod, rho))
        direct = map_operator(mod, rho)
        assert np.abs(via_probs.values - direct.values).max() <= d * 1e-10


def test_quasi_from_probabilities_rejects_unnormalized():
    values = np.full((4, 3), 0.3)
    with pytest.raises(ColumnNotNormalizedError, match="b=-1"):
        quasi_from_probabilities(MubProbabilities(MOD3, values))


def test_marginalize_examples():
    uniform = map_operator(MOD3, np.eye(3) / 3)
    assert marginalize(uniform, Point(0, -1)) == pytest.approx(1 / 3, abs=1e-10)
    state = map_operator(MOD3, A_0_2)
    assert marginalize(state, Point(0, 2)) == pytest.approx(1, abs=1e-10)
    assert marginalize(state, Point(0, -1)) == pytest.approx(1 / 3, abs=1e-10)


@pytest.mark.parametrize("d", [3, 5])
def test_marginals_equal_probabilities(rng, d):
    mod = Modulus(d)
    rho = random_density(rng, d)
    quasi = map_operator(mod, rho)
    probs = probabilities_from_state(mod, rho)
    for p in all_points(mod):
        assert marginalize(quasi, p) == pytest.approx(probs.value(p), abs=d * 1e-10)


def test_quasi_values_are_frozen():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    with pytest.raises(ValueError):
        quasi.values[0, 0] = 7.0


def test_phase_space_functions_build_no_operator_stack():
    caches = (point_operator_stack, line_operator_stack)
    before = [cache.cache_info()[:2] for cache in caches]
    mod = Modulus(11)
    rho = np.eye(11) / 11
    quasi = map_operator(mod, rho)
    reconstruct(quasi)
    quasi_from_probabilities(probabilities_from_state(mod, rho))
    marginalize(quasi, Point(3, 4))
    assert [cache.cache_info()[:2] for cache in caches] == before
