"""The second construction route of the line operators, and dense operator stacks.

The package builds line operators from their anti-diagonal closed form and
computes the phase-space functions without building any operator. The tests
hold both against these slow references: a line operator as the sum of its
d+1 incident projectors minus the identity, and every point and line operator
stacked in point_index and line_index order.
"""

import numpy as np

from mubgeo.geometry import all_lines, all_points, check_line, line_points
from mubgeo.operators import point_operator


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
