"""The per-label construction routes of the operators, and dense operator stacks.

The package builds line operators from their anti-diagonal closed form, the
battery's projectors in one broadcast over the bases, and the phase-space
functions without building any operator. The tests hold these against slow
references: a point projector as the outer product of one state, a line
operator as the sum of its d+1 incident projectors minus the identity, and
every point and line operator stacked in point_index and line_index order.
It also builds the two Clifford gates that permute the line operators, and
evaluates the phase-space kernels with every index and phase table built anew
on each call, which the package's cached tables must match bit for bit.
"""

import numpy as np

from mubgeo.core import roots_of_unity
from mubgeo.geometry import all_lines, all_points, check_line, check_point, line_points
from mubgeo.mub import mub_state


def point_operator(mod, point):
    """Projector onto the basis state labelled by the point (outer-product route)."""
    check_point(mod, point)
    v = mub_state(mod, point.b, point.m)
    return np.outer(v, v.conj())


def line_operator_sum(mod, line):
    """Line operator as the sum of its incident projectors minus the identity."""
    check_line(mod, line)
    acc = -np.eye(mod.d, dtype=complex)
    for p in line_points(mod, line):
        acc = acc + point_operator(mod, p)
    return acc


def point_operator_stack(mod):
    """All d(d+1) point projectors, in point_index order."""
    return np.stack([point_operator(mod, p) for p in all_points(mod)])


def line_operator_stack(mod):
    """All d^2 line operators by the sum route, in line_index order."""
    return np.stack([line_operator_sum(mod, line) for line in all_lines(mod)])


def clifford_gates(mod):
    """The phase gate S = diag(omega^half(n(n-1))) and the Fourier gate F = omega^(n n') / sqrt(d).

    S P_(a, m0) S^dagger = P_(a, m0 - a + half(1)) and F P_(a, m0) F^dagger = P_(m0, -a).
    """
    n = np.arange(mod.d)
    roots = np.array(roots_of_unity(mod.d))
    return np.diag(roots[mod.half(n * (n - 1))]), roots[np.outer(n, n) % mod.d] / np.sqrt(mod.d)


def line_coefficients(b):
    """tr(B P_(a, m0)) for every line: omega^(2 a m0) times the FFT of B[2a - n, n] at 2 m0.

    The phases are bound to a name before the product. numpy reuses a large
    temporary operand in place, which can swap the operands of the product, and
    a complex product rounds its imaginary part differently by operand order.
    """
    d = len(b)
    k = np.arange(d)
    a = k[:, None]
    spectrum = np.fft.fft(b[(2 * a - k) % d, k], axis=1)
    phases = np.exp(2j * np.pi * (2 * a * k % d) / d)
    return spectrum[:, 2 * k % d] * phases


def slices(mod):
    """Row and column into FFT2(V), and phase, of frequency k of column b = -1..d-1, as [b+1, k]."""
    k = np.arange(mod.d)
    j = np.r_[1, k][:, None]
    m = np.r_[0, np.ones(mod.d, dtype=int)][:, None]
    return (k * j % mod.d, k * m), np.exp(2j * np.pi * k / mod.d)[k * mod.half(j * m) % mod.d]


def reconstruct(values, mod):
    """B[n, n'] = the FFT of V along m0 at row half(n + n'), frequency n - n', over d."""
    n, k = np.indices((mod.d, mod.d))
    spectrum = np.fft.fft(values, axis=1)
    return spectrum[mod.half(n + k), (n - k) % mod.d] / mod.d


def probabilities(mod, rho):
    """p(., b) as the inverse FFT of slice b of FFT2(V), times its phases, over d."""
    index, phases = slices(mod)
    return (np.fft.ifft(np.fft.fft2(line_coefficients(rho))[index] * phases, axis=1) / mod.d).real


def quasi_from_probabilities(values, mod):
    """V from the probabilities: each frequency on its slice, (0, 0) from the total."""
    index, phases = slices(mod)
    w = np.empty((mod.d, mod.d), dtype=complex)
    w[index] = np.fft.fft(values, axis=1) * phases.conj()
    w[0, 0] = values.sum(axis=1).sum() - mod.d
    return np.fft.ifft2(w).real * mod.d
