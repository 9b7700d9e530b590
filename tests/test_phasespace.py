import numpy as np
import pytest
from conftest import random_density, random_hermitian_trace_one
import oracle
from oracle import all_lines, all_points, point_operator

from mubgeo import mub, operators, phasespace
from mubgeo.core import Modulus, hermiticity_defect
from mubgeo.errors import (
    ColumnNotNormalizedError,
    DimensionMismatchError,
    IncompleteProbabilitiesError,
    MissingLineError,
    NonHermitianInputError,
    NormOutOfRangeError,
)
from mubgeo.geometry import Line, Point, lines_through_point
from mubgeo.operators import line_operator_direct
from mubgeo.phasespace import (
    MubProbabilities,
    QuasiDistribution,
    map_operator,
    pair_expectation,
    probabilities_from_state,
    quasi_from_probabilities,
    reconstruct,
    validate_density_matrix,
)

MOD3 = Modulus(3)
MOD5 = Modulus(5)
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


def beyond_the_float_range(amplitude, d=101):
    """Entries amplitude e^(2 pi i theta), theta seeded uniform: |B|_F = d amplitude."""
    return amplitude * np.exp(2j * np.pi * np.random.default_rng(0).uniform(size=(d, d)))


@pytest.mark.parametrize("amplitude", [2e306, 1.7e308])
def test_map_refuses_a_norm_past_the_float_range(amplitude):
    # eps times an infinite norm passed any defect (~4e306 here) with finite coefficients, and
    # near the largest float the refusal blamed the coefficients; warnings are errors here
    with pytest.raises(NormOutOfRangeError) as exc:
        map_operator(Modulus(101), beyond_the_float_range(amplitude))
    assert str(exc.value) == "input's Frobenius norm exceeds the float max / d = 1.78e+306"


def test_map_takes_a_norm_up_to_the_float_max_over_d():
    d = 101
    mod, near = Modulus(d), 0.999 * np.finfo(float).max / d
    assert np.isfinite(map_operator(mod, np.full((d, d), near / d)).values).all()
    skew = np.zeros((d, d))
    skew[0, 1] = near  # off Hermitian by its whole size, and judged on that
    with pytest.raises(NonHermitianInputError, match=r"asymmetry 1\.778e\+306 at entry \(0,1\)"):
        map_operator(mod, skew)


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.diag([1.5e308, 1.5e308, -1e308]), ValueError, "state must have unit trace, got inf+0j"),
        (
            [[0.5, 1e308, 0], [-1e308, 0.5, 0], [0, 0, 0]],
            NonHermitianInputError,
            "state is not Hermitian within 1e-10: max asymmetry inf at entry (0,1)",
        ),
    ],
)
def test_a_state_past_the_float_range_is_refused_without_a_warning(matrix, error, message):
    # the trace and the Hermiticity defect overflow; warnings are errors here
    with pytest.raises(ValueError) as exc:
        probabilities_from_state(MOD3, matrix)
    assert type(exc.value) is error
    assert str(exc.value) == message


ANTI_HERMITIAN_J = 1j * np.ones((5, 5))  # every entry off Hermitian by twice its size


def test_map_holds_imaginary_residue_to_d_times_hermiticity_bound():
    # defect 9e-11 passes the 1e-10 entrywise check; a coefficient sums 5 such entries
    matrix = np.eye(5) / 5 + 4.5e-11 * ANTI_HERMITIAN_J
    quasi = map_operator(MOD5, matrix)
    assert np.abs(quasi.values - map_operator(MOD5, np.eye(5) / 5).values).max() <= 1e-15


def test_probabilities_hold_imaginary_residue_to_d_times_hermiticity_bound():
    rho = np.eye(5) / 5 + 4.5e-11 * (ANTI_HERMITIAN_J - 1j * np.eye(5))
    probs = probabilities_from_state(MOD5, rho)
    assert np.abs(probs.values - 1 / 5).max() <= 1e-15


@pytest.mark.parametrize("kernel", [map_operator, probabilities_from_state])
def test_defect_just_above_hermiticity_bound_raises(kernel):
    matrix = np.eye(5) / 5 + 5.5e-11 * ANTI_HERMITIAN_J  # defect 1.1e-10 > 1e-10
    with pytest.raises(NonHermitianInputError, match="not Hermitian"):
        kernel(MOD5, matrix)


def _exact_state(rng, d):
    """A density matrix that is exactly Hermitian with a trace of exactly 1.

    The diagonal holds powers of two summing to 1; the off-diagonal part is a
    symmetrised random matrix, too small to make any eigenvalue negative.
    """
    top = 1 << (d - 1).bit_length()
    diag = np.full(d, 1.0 / top)
    diag[: top - d] *= 2
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    np.fill_diagonal(h, 0)
    return np.diag(diag) + h / (2 * top * np.linalg.norm(h, 2))


@pytest.mark.parametrize("d", [5, 31])
def test_exactly_hermitian_input_passes_at_any_eps(rng, d):
    # the residue bound is floored at the FFTs' own rounding, so a tiny eps rejects nothing exact
    rho = _exact_state(rng, d)
    assert hermiticity_defect(rho)[0] == 0.0
    mod = Modulus(d)
    quasi = map_operator(mod, rho, eps=1e-18)
    assert np.abs(reconstruct(quasi) - rho).max() <= 1e-13
    probs = probabilities_from_state(mod, rho, eps=1e-18)
    assert np.abs(probs.column_sums() - 1).max() <= 1e-13


# the complex transform behind each real-valued kernel
TRANSFORMS = {map_operator: "_line_coefficients", probabilities_from_state: "_chirp_probabilities"}


@pytest.mark.parametrize(
    "kernel, message",
    [
        (map_operator, "coefficients carry imaginary part 1.000e-06"),
        (probabilities_from_state, "probabilities carry imaginary part 1.000e-06"),
    ],
)
def test_imaginary_residue_of_a_faulted_kernel_raises(monkeypatch, kernel, message):
    transform = TRANSFORMS[kernel]
    original = getattr(phasespace, transform)
    monkeypatch.setattr(phasespace, transform, lambda *args: original(*args) + 1e-6j)
    with pytest.raises(NonHermitianInputError) as exc:
        kernel(MOD5, np.eye(5) / 5)
    assert str(exc.value) == message


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


def _state_with_lowest(rng, d, lowest):
    """A Hermitian state, trace 1 within rounding, whose smallest eigenvalue is lowest."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spectrum = rng.uniform(0.5, 1.5, d)
    spectrum[0] = 0
    spectrum *= (1 - lowest) / spectrum.sum()
    spectrum[0] = lowest
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2


def _eigvalsh_verdict(mod, rho, eps):
    """The message eigvalsh alone gives a state that passed the other checks, or None."""
    lowest = float(np.linalg.eigvalsh(rho).min())
    return f"state has negative eigenvalue {lowest:.6g}" if lowest < -mod.d * eps else None


@pytest.mark.parametrize("d", [5, 31])
@pytest.mark.parametrize("eps", [1e-10, 1e-7])
@pytest.mark.parametrize("scale", [-0.4, -0.9, -1.1, -1.5])
def test_psd_verdict_at_the_boundary_is_that_of_eigvalsh(rng, d, eps, scale):
    mod = Modulus(d)
    rho = _state_with_lowest(rng, d, scale * d * eps)
    expected = _eigvalsh_verdict(mod, rho, eps)
    assert (expected is None) == (scale > -1)
    # the shift d eps / 2 lifts only the first state above zero; the rest go to eigvalsh
    assert phasespace._certified_above(rho, d * eps) == (scale > -0.5)
    if expected is None:
        validate_density_matrix(mod, rho, eps)
    else:
        with pytest.raises(ValueError) as exc:
            validate_density_matrix(mod, rho, eps)
        assert str(exc.value) == expected


def test_pure_state_passes_at_large_d(rng):
    d = 401
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    validate_density_matrix(Modulus(d), np.outer(v, v.conj()))


def _refuse_eigvalsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh was called")

    monkeypatch.setattr(phasespace.np.linalg, "eigvalsh", refuse)


@pytest.mark.parametrize("d", [5, 31])
def test_well_conditioned_state_passes_on_the_certificate_alone(monkeypatch, rng, d):
    rho = random_density(rng, d)
    _refuse_eigvalsh(monkeypatch)
    validate_density_matrix(Modulus(d), rho)
    probabilities_from_state(Modulus(d), rho)


def test_eps_below_the_rounding_guard_goes_to_eigvalsh(monkeypatch, rng):
    rho = _exact_state(rng, 31)
    _refuse_eigvalsh(monkeypatch)
    with pytest.raises(AssertionError, match="eigvalsh was called"):
        validate_density_matrix(Modulus(31), rho, eps=1e-18)


def test_probabilities_from_state_examples():
    probs = probabilities_from_state(MOD3, np.eye(3) / 3)
    assert np.abs(probs.values - 1 / 3).max() <= 1e-10
    probs = probabilities_from_state(MOD3, A_0_2)
    assert probs.value(Point(0, 2)) == pytest.approx(1, abs=1e-10)
    assert probs.value(Point(1, -1)) == pytest.approx(1 / 3, abs=1e-10)
    assert np.abs(probs.column_sums() - 1).max() <= 1e-10


def test_probabilities_table_validation():
    with pytest.raises(IncompleteProbabilitiesError):
        MubProbabilities(MOD3, np.zeros((3, 3)))


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


def test_tomography_matches_map_at_large_d():
    d = 401
    mod = Modulus(d)
    rho = random_density(np.random.default_rng(401), d)
    via_probs = quasi_from_probabilities(probabilities_from_state(mod, rho))
    bound = 1e-13 * d * max(1.0, np.linalg.norm(rho))
    assert np.abs(via_probs.values - map_operator(mod, rho).values).max() <= bound


def test_quasi_from_probabilities_rejects_unnormalized():
    values = np.full((4, 3), 0.3)
    with pytest.raises(ColumnNotNormalizedError, match="b=-1"):
        quasi_from_probabilities(MubProbabilities(MOD3, values))


def _marginal(quasi, point):
    """(1/d) times the sum of the coefficients over the lines through the point."""
    return sum(quasi.values[line] for line in lines_through_point(quasi.mod, point)) / quasi.mod.d


def test_marginalize_examples():
    uniform = map_operator(MOD3, np.eye(3) / 3)
    assert _marginal(uniform, Point(0, -1)) == pytest.approx(1 / 3, abs=1e-10)
    state = map_operator(MOD3, A_0_2)
    assert _marginal(state, Point(0, 2)) == pytest.approx(1, abs=1e-10)
    assert _marginal(state, Point(0, -1)) == pytest.approx(1 / 3, abs=1e-10)


@pytest.mark.parametrize("d", [3, 5])
def test_marginals_equal_probabilities(rng, d):
    mod = Modulus(d)
    rho = random_density(rng, d)
    quasi = map_operator(mod, rho)
    probs = probabilities_from_state(mod, rho)
    for p in all_points(mod):
        assert _marginal(quasi, p) == pytest.approx(probs.value(p), abs=d * 1e-10)


def test_quasi_values_are_frozen():
    quasi = map_operator(MOD3, np.eye(3) / 3)
    with pytest.raises(ValueError):
        quasi.values[0, 0] = 7.0


def test_phase_space_functions_build_no_operator_stack(monkeypatch):
    # every operator or basis state the package can build goes through one of these
    def refuse(*args):
        raise AssertionError("a phase-space function built an operator or a basis state")

    for module, name in [
        (operators, "point_operator_direct"),
        (operators, "line_operator_direct"),
        (operators, "_point_operators"),
        (operators, "_line_operators"),
        (operators, "_point_states"),
        (mub, "mub_state"),
        (mub, "_states"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    mod = Modulus(11)
    rho = np.eye(11) / 11
    quasi = map_operator(mod, rho)
    reconstruct(quasi)
    pair_expectation(quasi, quasi)
    quasi_from_probabilities(probabilities_from_state(mod, rho))


CACHED_TABLES = (
    phasespace._line_tables,
    phasespace._chirps,
    phasespace._slices,
    phasespace._reconstruct_index,
)


def _chain(mod, rho):
    quasi = map_operator(mod, rho)
    reconstruct(quasi)
    quasi_from_probabilities(probabilities_from_state(mod, rho))


def test_warm_chain_builds_no_table(rng):
    mod = Modulus(31)
    _chain(mod, random_density(rng, 31))
    misses = [cache.cache_info().misses for cache in CACHED_TABLES]
    _chain(mod, random_density(rng, 31))
    assert [cache.cache_info().misses for cache in CACHED_TABLES] == misses


def test_tables_are_held_for_the_last_four_d_only():
    for d in (3, 5, 7, 11, 13):
        _chain(Modulus(d), np.eye(d) / d)
    assert [cache.cache_info().currsize for cache in CACHED_TABLES] == [4] * len(CACHED_TABLES)


def test_cached_tables_are_read_only():
    mod = Modulus(5)
    _chain(mod, np.eye(5) / 5)
    tables = [*phasespace._line_tables(5), *phasespace._chirps(mod), *phasespace._slices(mod)]
    tables.append(phasespace._reconstruct_index(mod))
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


def _same_bits(x, y):
    """Equal shapes and equal bytes: float views compared as integers, so -0.0 differs from 0.0."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("d", [3, 5, 31])
def test_kernels_equal_the_per_call_tables_bit_for_bit(rng, d):
    mod = Modulus(d)
    rho = random_density(rng, d)
    matrix = random_hermitian_trace_one(rng, d)
    assert _same_bits(phasespace._line_coefficients(rho), oracle.line_coefficients(rho))
    quasi = map_operator(mod, matrix)
    assert _same_bits(quasi.values, oracle.line_coefficients(matrix).real)
    assert _same_bits(reconstruct(quasi), oracle.reconstruct(quasi.values, mod))
    assert _same_bits(phasespace._chirp_probabilities(mod, rho), oracle.chirp_probabilities(mod, rho))
    probs = probabilities_from_state(mod, rho)
    assert _same_bits(probs.values, oracle.probabilities(mod, rho))
    tomo = quasi_from_probabilities(probs)
    assert _same_bits(tomo.values, oracle.quasi_from_probabilities(probs.values, mod))


@pytest.mark.parametrize("d", [3, 5, 31, 101])
def test_probabilities_agree_with_the_fourier_slice_route(rng, d):
    mod = Modulus(d)
    rho = random_density(rng, d)
    bound = 1e-13 * d * max(1.0, np.linalg.norm(rho))
    slices = oracle.probabilities_by_slices(mod, rho)
    assert np.abs(probabilities_from_state(mod, rho).values - slices).max() <= bound
