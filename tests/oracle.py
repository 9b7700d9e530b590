"""The per-label construction routes of the operators, and dense operator stacks.

The package builds line operators from their anti-diagonal closed form, the
battery's projectors and line operators block by block from the bases, and
the phase-space functions without building any operator. The tests hold these against slow
references: a point projector as the outer product of one state, a line
operator as the sum of its d+1 incident projectors minus the identity, and
every point and line operator stacked in point_index and line_index order.
It also builds the two Clifford gates that permute the line operators, and
evaluates the phase-space kernels with every index and phase table built anew
on each call, which the package's cached tables must match bit for bit.

dense_operator_battery is the exhaustive operator battery: every identity held
entry by entry on the dense d(d+1) x d x d stacks and the (d(d+1))^2 Grams,
each failing check named by its first offending label (or pair, row by row)
in label order. It is the reference that the package no longer holds: the
package's block battery, which names a witness from its sweep or from an exact
pass over blocks of rows, must give the same report, and deviations within
rounding of these, wherever the two are compared.
"""

import numpy as np

from mubgeo import operators
from mubgeo.core import DEFAULT_EPS, roots_of_unity
from mubgeo.geometry import (
    all_lines,
    all_points,
    check_line,
    check_point,
    format_line,
    format_point,
    incidence_matrix,
    line_points,
)
from mubgeo.mub import mub_family, mub_state
from mubgeo.report import AxiomReport, witness


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


def _over_lines(n, stack):
    """n^T stack as one real product on its float view: per line with n = N, per point with N^T."""
    d = stack.shape[-1]
    return (n.T @ stack.reshape(len(stack), -1).view(float)).view(complex).reshape(-1, d, d)


def _first(devs, tol, what, *names):
    """The first deviation not within tol (nan included) in label order, named per axis."""
    return witness(
        ~(devs <= tol),
        lambda *at: f"{what} {' vs '.join(name(i) for name, i in zip(names, at))}"
        f" deviates by {devs[at]:.3e}",
    )


def _trace_products(a, b):
    """tr(a[i] @ b[j]) for every pair (i, j), as one matrix product."""
    return a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T


def dense_operator_battery(mod, eps=DEFAULT_EPS):
    """The report of every operator identity, and (check, deviation, tolerance) per bound.

    A check with two bounds (op.point_projector: the projector law, then the
    trace) gives two entries. The deviation is the largest over the whole check.
    The direct routes are read through the operators module, so that a fault
    injected there reaches this battery too.
    """
    d = mod.d
    n = incidence_matrix(mod)
    eye = np.eye(d)
    states = mub_family(mod).transpose(0, 2, 1).reshape(len(n), d)  # point_index order
    a_stack = states[:, :, None] * states[:, None, :].conj()
    p_stack = _over_lines(n, a_stack) - eye
    tol = d * max(eps, 16 * d * np.finfo(float).eps)
    findings = {}
    deviations = []

    def held(name, dev, bound):
        deviations.append((name, float(np.max(dev)), bound))
        return dev

    def each(stack):
        return np.abs(stack).max(axis=(1, 2))

    def point(i):
        return format_point(all_points(mod)[i])

    def line(j):
        return format_line(all_lines(mod)[j])

    dev = held("op.point_hermitian", each(a_stack - a_stack.conj().transpose(0, 2, 1)), eps)
    findings["op.point_hermitian"] = _first(dev, eps, "point operator", point)

    dev = held("op.line_hermitian", each(p_stack - p_stack.conj().transpose(0, 2, 1)), eps)
    findings["op.line_hermitian"] = _first(dev, eps, "line operator", line)

    a_sq = a_stack @ a_stack
    dev = held("op.point_projector", each(a_sq - a_stack), tol)
    bad = _first(dev, tol, "projector law for point", point)
    dev = held("op.point_projector", np.abs(a_stack.trace(axis1=1, axis2=2) - 1.0), eps)
    if not bad:
        bad = _first(dev, eps, "trace of point operator", point)
    findings["op.point_projector"] = bad

    dev = each(a_stack.reshape(d + 1, d, d, d).sum(axis=1) - eye)
    held("op.column_completeness", dev, tol)
    findings["op.column_completeness"] = witness(
        ~(dev <= tol), lambda c: f"column b={c - 1} resolution deviates by {dev[c]:.3e}"
    )

    dev = held("op.global_sum", float(np.abs(a_stack.sum(axis=0) - (d + 1) * eye).max()), tol)
    findings["op.global_sum"] = "" if dev <= tol else f"total deviates from (d+1)I by {dev:.3e}"

    dev = held("op.line_sum", float(np.abs(p_stack.sum(axis=0) - d * eye).max()), tol)
    findings["op.line_sum"] = "" if dev <= tol else f"total deviates from dI by {dev:.3e}"

    dev = held("op.point_from_lines", each(_over_lines(n.T, p_stack) / d - a_stack), tol)
    findings["op.point_from_lines"] = _first(dev, tol, "line average at point", point)

    dev = held("op.line_trace", np.abs(p_stack.trace(axis1=1, axis2=2) - 1.0), tol)
    findings["op.line_trace"] = _first(dev, tol, "trace of line operator", line)

    dev = held("op.line_gram", np.abs(_trace_products(p_stack, p_stack) - d * np.eye(d * d)), tol)
    findings["op.line_gram"] = _first(dev, tol, "line gram", line, line)

    dev = held("op.line_involution", each(p_stack @ p_stack - eye), tol)
    findings["op.line_involution"] = _first(dev, tol, "square of line operator", line)

    s = p_stack + eye  # the sum of each line's projectors
    dev = held("op.cross_term_distillation", each(s @ s - _over_lines(n, a_sq) - s), tol)
    findings["op.cross_term_distillation"] = witness(
        ~(dev <= tol), lambda j: f"cross terms on line {line(j)} deviate by {dev[j]:.3e}"
    )

    column, row = np.divmod(np.arange(len(n)), d)
    dev = each(a_stack - operators._point_operators(mod, row, column - 1))
    held("op.point_route_equality", dev, eps)
    findings["op.point_route_equality"] = _first(dev, eps, "point routes at", point)

    dev = each(p_stack - operators._line_operators(mod, *np.divmod(np.arange(d * d), d)))
    held("op.line_route_equality", dev, eps)
    findings["op.line_route_equality"] = _first(dev, eps, "line routes at", line)

    same_column = np.kron(np.eye(d + 1), np.ones((d, d)))
    expected = (1.0 - same_column) / d + np.eye(len(n))
    dev = held("op.point_gram_cases", np.abs(_trace_products(a_stack, a_stack) - expected), tol)
    findings["op.point_gram_cases"] = _first(dev, tol, "point gram", point, point)

    dev = held("op.incidence_trace", np.abs(_trace_products(a_stack, p_stack) - n), tol)
    findings["op.incidence_trace"] = _first(dev, tol, "incidence trace", point, line)

    return AxiomReport.from_findings(d, findings), deviations
