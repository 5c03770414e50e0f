"""The per-row Roth-Ruckenstein loop, kept as the reference for the log-domain one.

Each remainder is a `BiPoly`, and the transform m(X, X*Y + gamma) is built
row by row from `UniPoly.scale` and `+`, which charge the field counter
through the dense kernels. The library's loop (`rslist.factorization`) must
give the same prefixes, the same roots, and the same multiplications and
additions.
"""

import numpy as np

from rslist.factorization import univariate_roots
from rslist.polynomials import BiPoly, UniPoly, ZeroPolynomial

from poly_helpers import vpowers


def strip_x(m: BiPoly) -> BiPoly:
    """Divide out the largest power of X dividing every coefficient."""
    s = None
    for c in m.ycoeffs:
        if c.is_zero:
            continue
        first = int(np.nonzero(c.coeffs)[0][0])
        s = first if s is None else min(s, first)
        if s == 0:
            return m
    if not s:
        return m
    f = m.field
    return BiPoly(f, [UniPoly(f, c.coeffs[s:]) if not c.is_zero else c for c in m.ycoeffs])


def rr_transform(m: BiPoly, gamma: int) -> BiPoly:
    """m(X, X*Y + gamma); the new Y^i coefficient is X^i times a gamma-combination."""
    f = m.field
    ydeg = len(m.ycoeffs) - 1
    gpow = vpowers(f, gamma, ydeg)
    rows = []
    for i in range(ydeg + 1):
        acc = UniPoly.zero(f)
        for j in range(i, ydeg + 1):
            if (j & i) != i:  # C(j, i) even
                continue
            c = m.ycoeffs[j]
            if c.is_zero:
                continue
            acc = acc + c.scale(int(gpow[j - i]))
        shifted = np.zeros(acc.coeffs.size + i, dtype=np.int32)  # X^i * acc
        shifted[i:] = acc.coeffs
        rows.append(UniPoly(f, shifted))
    return BiPoly(f, rows)


def y_restriction(m: BiPoly) -> UniPoly:
    """m(0, Y) as a univariate polynomial in Y."""
    return UniPoly(m.field, [c.coef(0) for c in m.ycoeffs])


def rr_levels(h: BiPoly, depth: int) -> list[tuple[BiPoly, list[int]]]:
    """Roth-Ruckenstein to `depth` levels: (remainder, coefficient prefix) per live branch.

    Level by level: strip common X-powers, read the roots of m(0, Y), and
    recurse on m(X, X*Y + gamma). Branches that run out of roots die.
    Returns the last level in discovery order.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if h.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    level: list[tuple[BiPoly, list[int]]] = [(strip_x(h), [])]
    for _ in range(depth):
        level = [
            (strip_x(rr_transform(m, gamma)), prefix + [gamma])
            for m, prefix in level
            for gamma in univariate_roots(y_restriction(m))
        ]
    return level


def rr_power_series(h: BiPoly, depth: int) -> list[list[int]]:
    return [prefix for _, prefix in rr_levels(h, depth)]

