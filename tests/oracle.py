"""The per-label construction routes of the operators, and dense operator stacks.

The package builds line operators from their anti-diagonal closed form, the
battery's projectors in one broadcast over the bases, and the phase-space
functions without building any operator. The tests hold these against slow
references: a point projector as the outer product of one state, a line
operator as the sum of its d+1 incident projectors minus the identity, and
every point and line operator stacked in point_index and line_index order.
It also builds the two Clifford gates that permute the line operators.
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
