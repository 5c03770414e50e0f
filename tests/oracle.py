"""Brute-force references: dense linear-algebra interpolation and monomial counts.

These exist to certify the fast implementations on desk-scale instances and
are deliberately independent of them: constraints become explicit rows over
the monomial basis and Gaussian elimination finds the kernel vector with the
least possible leading monomial.
"""

from __future__ import annotations

import numpy as np

from rslist.koetter import InterpolationProblem, constraint_schedule, delta_star, n_constraints
from rslist.polynomials import BiPoly, MonomialOrder

from poly_helpers import bi_scale, from_arrays, vpowers

MAX_ORACLE_CONSTRAINTS = 200


class InstanceTooLarge(ValueError):
    """Too many constraints for dense elimination."""


def enumerate_monomials(delta: int, k: int) -> int:
    """Count monomials X^i Y^j with i + (k-1)j <= delta by direct enumeration."""
    count = 0
    j = 0
    while (k - 1) * j <= delta:
        count += delta - (k - 1) * j + 1
        j += 1
    return count


def _monomial_basis(delta: int, k: int) -> list[tuple[int, int]]:
    order = MonomialOrder.weighted(k)
    monos = []
    j = 0
    while (k - 1) * j <= delta:
        for i in range(delta - (k - 1) * j + 1):
            monos.append((i, j))
        j += 1
    monos.sort(key=lambda m: order.key(*m))
    return monos


def brute_force_interpolate(problem: InterpolationProblem) -> BiPoly:
    """Minimal-leading-monomial solution by Gaussian elimination.

    Columns are the monomials under delta* in ascending order; rows are the
    shifted-coefficient functionals. Forward elimination in column order
    makes the first non-pivot column the least achievable leading monomial;
    the corresponding special solution (normalized to leading coefficient 1)
    is returned.
    """
    problem.validate()
    f = problem.field
    k = problem.k
    n_cons = n_constraints(p.mult for p in problem.points)
    if n_cons > MAX_ORACLE_CONSTRAINTS:
        raise InstanceTooLarge(f"{n_cons} constraints exceeds {MAX_ORACLE_CONSTRAINTS}")
    dstar, _ = delta_star(n_cons, k)
    monos = _monomial_basis(dstar, k)
    ncols = len(monos)

    rows = []
    for pt in problem.points:
        xpow = vpowers(f, pt.x, dstar)
        ypow = vpowers(f, pt.y, dstar // (k - 1) if k > 1 else 0)
        for a, b in constraint_schedule(pt.mult):
            row = np.zeros(ncols, dtype=np.int32)
            for col, (i, j) in enumerate(monos):
                if i >= a and j >= b and (i & a) == a and (j & b) == b:
                    row[col] = f.mul(int(xpow[i - a]), int(ypow[j - b]))
            rows.append(row)

    # forward elimination, scanning columns in ascending monomial order
    pivots: list[tuple[int, np.ndarray]] = []  # (pivot column, normalized row)
    for row in rows:
        row = row.copy()
        for col, prow in pivots:
            if row[col]:
                row ^= f.vmul(prow, int(row[col]))
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        row = f.vmul(row, f.inv(int(row[c])))
        pivots.append((c, row))
        pivots.sort(key=lambda pr: pr[0])

    pivot_cols = {c for c, _ in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]

    def special_solution(free: int) -> np.ndarray:
        vec = np.zeros(ncols, dtype=np.int32)
        vec[free] = 1
        for c, prow in sorted(pivots, key=lambda pr: -pr[0]):
            acc = 0
            for cc in np.nonzero(prow)[0]:
                if cc != c:
                    acc ^= f.mul(int(prow[cc]), int(vec[cc]))
            vec[c] = acc
        return vec

    solution = special_solution(free_cols[0])
    # minimality certificate: every kernel basis vector tops out exactly at its
    # own free column, so any combination leads at the largest free column
    # involved and nothing beats the least one
    for free in free_cols[1:]:
        other = special_solution(free)
        assert int(np.nonzero(other)[0].max()) == free

    # sanity: every constraint row annihilates the solution
    for row in rows:
        acc = 0
        for cc in np.nonzero(row)[0]:
            acc ^= f.mul(int(row[cc]), int(solution[cc]))
        if acc != 0:
            raise AssertionError("oracle solution does not satisfy its own constraints")

    max_j = max(j for _, j in monos)
    grid = [np.zeros(dstar + 1, dtype=np.int32) for _ in range(max_j + 1)]
    for col, (i, j) in enumerate(monos):
        if solution[col]:
            grid[j][i] = solution[col]
    poly = from_arrays(f, grid)
    lead = poly.leading_monomial(MonomialOrder.weighted(k))
    if lead[2] != 1:
        poly = bi_scale(poly, f.inv(lead[2]))
    return poly
