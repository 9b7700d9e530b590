import math
import tracemalloc

import numpy as np
import pytest
from oracle import mub_family, x_matrix, z_matrix
from test_mutants import NAN_FAULT, VERIFIERS, outcome

from mubgeo import mub

from mubgeo.core import DEFAULT_EPS, Modulus, omega_power
from mubgeo.mub import mub_state, verify_eigenrelation, verify_unbiasedness
from mubgeo.operators import verify_operator_identities

W = np.exp(2j * np.pi / 3)


def test_z_matrix():
    z = z_matrix(Modulus(3))
    assert np.abs(z - np.diag([1, W, W**2])).max() <= DEFAULT_EPS


def test_x_matrix_shifts():
    x = x_matrix(Modulus(3))
    e0 = np.array([1, 0, 0], dtype=complex)
    assert np.array_equal(x @ e0, np.array([0, 1, 0], dtype=complex))


@pytest.mark.parametrize("d", [3, 5])
def test_x_matrix_order(d):
    x = x_matrix(Modulus(d))
    assert np.abs(np.linalg.matrix_power(x, d) - np.eye(d)).max() <= d * DEFAULT_EPS


def test_state_uniform_for_basis_zero():
    v = mub_state(Modulus(3), 0, 0)
    assert np.abs(v - np.full(3, 1 / math.sqrt(3))).max() <= DEFAULT_EPS


def test_state_frozen_example():
    v = mub_state(Modulus(3), 0, 1)
    expected = np.array([1, W**2, W]) / math.sqrt(3)
    assert np.abs(v - expected).max() <= DEFAULT_EPS


@pytest.mark.parametrize("d", [3, 5, 13])
def test_state_equals_the_scalar_rule_exactly(d):
    # exact equality pins the digits that show state prints
    mod = Modulus(d)
    scale = 1.0 / math.sqrt(d)
    for b in range(d):
        hb = mod.half(b)
        for m in range(d):
            expected = [omega_power(d, hb * n * (n - 1) - n * m) * scale for n in range(d)]
            assert np.array_equal(mub_state(mod, b, m), np.array(expected))


def test_reference_basis_states():
    v = mub_state(Modulus(3), -1, 2)
    assert np.array_equal(v, np.array([0, 0, 1], dtype=complex))


def test_state_rejects_bad_labels():
    with pytest.raises(ValueError):
        mub_state(Modulus(3), 3, 0)
    with pytest.raises(ValueError):
        mub_state(Modulus(3), -2, 0)
    with pytest.raises(ValueError):
        mub_state(Modulus(3), 0, 3)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_leading_amplitude_fixes_phase(d):
    # amplitude at position 0 is exactly 1/sqrt(d): real, positive
    mod = Modulus(d)
    for b in range(d):
        for m in range(d):
            v = mub_state(mod, b, m)
            assert v[0].imag == 0.0
            assert v[0].real == pytest.approx(1 / math.sqrt(d), abs=0)


@pytest.mark.parametrize("d", [3, 5])
def test_each_basis_resolves_identity(d):
    for mat in mub_family(Modulus(d)):
        assert np.abs(mat @ mat.conj().T - np.eye(d)).max() <= d * DEFAULT_EPS


def test_family_layout():
    for d in (3, 5, 7, 11, 13):
        mod = Modulus(d)
        fam = mub_family(mod)
        assert fam.shape == (d + 1, d, d)
        assert np.array_equal(fam[0], np.eye(d, dtype=complex))
        for b in range(-1, d):
            for m in range(d):
                assert np.array_equal(fam[b + 1][:, m], mub_state(mod, b, m))


def test_the_checks_hold_no_memory_once_they_return():
    # nothing outlives a check: all d+1 bases would hold 16 (d+1) d^2 bytes, 1.7 MB at d = 47,
    # and the eigenrelation holds one basis of d states at a time
    d = 47
    mod = Modulus(d)
    tracemalloc.start()
    try:
        for verify in (verify_eigenrelation, verify_unbiasedness, verify_operator_identities):
            tracemalloc.reset_peak()
            assert verify(mod).passed
            held, peak = tracemalloc.get_traced_memory()
            assert held < 64 * 2**10, verify.__name__
            if verify is verify_eigenrelation:
                assert peak <= 2 * (d + 1) * d * d
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("b", [3, -1])
def test_one_basis_peaks_at_most_36_d_squared_bytes(b):
    # the basis itself is 16 d^2 bytes; the rule peaked at ~51 d^2 with its integer temporaries
    # and the reference basis cast to complex and merged by np.where
    d = 47
    tracemalloc.start()
    try:
        mub._states(Modulus(d), np.arange(d), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * d * d


def test_eigenrelation_direct_check():
    mod = Modulus(3)
    x = x_matrix(mod)
    z = z_matrix(mod)
    for b in range(3):
        op = x @ np.linalg.matrix_power(z, b)
        for m in range(3):
            v = mub_state(mod, b, m)
            assert np.linalg.norm(op @ v - omega_power(3, m) * v) <= 1e-10


def test_unbiased_overlap_magnitude():
    mod = Modulus(3)
    v1 = mub_state(mod, 1, 0)
    v2 = mub_state(mod, 2, 0)
    assert abs(abs(np.vdot(v1, v2)) - 0.5773502691896258) <= 1e-10
    e0 = mub_state(mod, -1, 0)
    assert abs(abs(np.vdot(e0, v1)) - 1 / math.sqrt(3)) <= 1e-10


def test_same_basis_overlap_vanishes():
    mod = Modulus(3)
    assert abs(np.vdot(mub_state(mod, 1, 0), mub_state(mod, 1, 1))) <= 1e-10


@pytest.mark.parametrize("d", [3, 5, 7])
def test_eigenrelation_report(d):
    report = verify_eigenrelation(Modulus(d))
    assert report.passed
    assert report.checks[0].axiom == "mub.eigenrelation"


@pytest.mark.parametrize("d", [3, 5, 7])
def test_unbiasedness_report(d):
    report = verify_unbiasedness(Modulus(d))
    assert report.passed
    assert {c.axiom for c in report.checks} == {"mub.orthonormal", "mub.unbiased"}


def test_eigenrelation_reads_z_powers_off_the_root_table():
    # X Z^b read off the table of roots leaves residuals below 1e-15 at d = 47
    assert verify_eigenrelation(Modulus(47), eps=5e-15).passed


@pytest.mark.parametrize("d", [5, 7])
def test_a_nan_amplitude_fails_every_mub_check(monkeypatch, d):
    # nan compares false, so checks that failed only a deviation above eps passed it
    verifiers = [v for v in VERIFIERS if v[0] is mub]
    assert outcome(monkeypatch, d, *NAN_FAULT, verifiers) == [
        ["mub.eigenrelation", "state (m=2, b=1) has residual nan"],
        ["mub.orthonormal", "basis b=1 deviates from orthonormality by nan"],
        ["mub.unbiased", "bases b=-1, b=1 overlap off 1/sqrt(d) by nan"],
    ]


def test_a_copied_basis_fails_unbiasedness_at_every_allowed_eps(monkeypatch):
    # basis 2 answers with the states of basis 1, whose overlaps are 1 and 0, not 1/sqrt(5): an
    # eps of 0.9 passed that; from 1/(2 d^2) = 0.02 on eps is refused, and below it the copy fails
    original = mub._states
    monkeypatch.setattr(
        mub, "_states", lambda mod, m, b: original(mod, m, np.where(np.asarray(b) == 2, 1, b))
    )
    mod = Modulus(5)
    with pytest.raises(ValueError, match="is not below 1/"):
        verify_unbiasedness(mod, 0.9)
    report = verify_unbiasedness(mod, 0.0199)
    assert [c.axiom for c in report.checks if not c.ok] == ["mub.unbiased"]
