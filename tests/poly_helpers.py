"""Polynomial helpers that only the tests use: shifts, multiplicities and weighted degrees.

They charge the field counter through the library's dense `UniPoly`/`BiPoly`
kernels, as the library's own routines do.
"""

import numpy as np

from rslist.koetter import InterpolationPoint, InterpolationProblem
from rslist.polynomials import NEG_INF, BiPoly, UniPoly, ZeroPolynomial


def x_plus(f, c: int) -> UniPoly:
    """X + c (equal to X - c in characteristic 2)."""
    return UniPoly(f, [c, 1])


def uni_taylor_shift(p: UniPoly, x: int) -> UniPoly:
    """p(X + x), computed by Horner accumulation in (X + x)."""
    if p.is_zero or x == 0:
        return p
    acc = UniPoly.zero(p.field)
    for i in range(p.coeffs.size - 1, -1, -1):
        acc = acc.mul_linear(x) + UniPoly.constant(p.field, int(p.coeffs[i]))
    return acc


def taylor_shift(p: BiPoly, x: int, y: int) -> BiPoly:
    """p(X + x, Y + y); entry (i, j) is the mixed Hasse-derivative value."""
    shifted = [uni_taylor_shift(c, x) for c in p.ycoeffs]
    if y == 0:
        return BiPoly(p.field, shifted)
    acc = BiPoly.zero(p.field)
    for j in range(len(shifted) - 1, -1, -1):
        # acc*(Y + y) + c_j
        acc = acc.shift_y() + acc.scale(y) + BiPoly(p.field, [shifted[j]])
    return acc


def multiplicity_at(p: BiPoly, x: int, y: int) -> int:
    """Largest m with all shifted coefficients of total degree < m zero."""
    if p.is_zero:
        raise ZeroPolynomial("multiplicity of 0 is undefined")
    t = taylor_shift(p, x, y)
    max_i = max((c.coeffs.size for c in t.ycoeffs), default=0)
    for m in range(0, max_i + len(t.ycoeffs) + 1):
        for j in range(min(m, len(t.ycoeffs) - 1), -1, -1):
            if t.ycoef(j).coef(m - j):
                return m
    return max_i + len(t.ycoeffs) + 1  # unreachable for nonzero p


def wdeg(p: BiPoly, wx: int, wy: int):
    """(wx, wy)-weighted degree; -inf for the zero polynomial."""
    best = NEG_INF
    for j, c in enumerate(p.ycoeffs):
        if c.is_zero:
            continue
        nz = np.nonzero(c.coeffs)[0]
        w = int((nz * wx + j * wy).max())
        if best == NEG_INF or w > best:
            best = w
    return best


def sub_y_scale(p: BiPoly, g: UniPoly) -> BiPoly:
    """p(X, Y*g(X)), the polynomial half of the birational coordinate map."""
    gj = UniPoly.one(p.field)
    rows = []
    for j, c in enumerate(p.ycoeffs):
        if j > 0:
            gj = gj.mul(g)
        rows.append(c.mul(gj))
    return BiPoly(p.field, rows)


def shift_points(problem: InterpolationProblem, e: UniPoly) -> InterpolationProblem:
    """Replace every y with y - e(x); multiplicities unchanged."""
    pts = [InterpolationPoint(p.x, p.y ^ e.eval_at(p.x), p.mult) for p in problem.points]
    return InterpolationProblem(problem.field, pts, problem.k)
