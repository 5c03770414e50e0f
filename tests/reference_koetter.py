"""The per-polynomial Koetter engine, kept as the reference for the tensor engine.

Each basis polynomial is a `BiPoly`; a constraint's discrepancy is a
callable applied to one polynomial at a time, and every step charges the
field counter through the dense `UniPoly`/`BiPoly` kernels. The library's
engine (`rslist.koetter`) must give the same polynomials, the same trace
rows and the same counts, and raise `InexactDivision` on the same inputs.
"""

import numpy as np

from rslist.galois import Field
from rslist.koetter import (
    InterpolationPoint,
    InterpolationProblem,
    SolveResult,
    TraceRow,
    constraint_schedule,
    delta_star,
    n_constraints,
)
from rslist.polynomials import ORDER_REDUCED, BiPoly, MonomialOrder, UniPoly

from poly_helpers import bi_scale, exact_div, mul_linear, vpowers


class BasisState:
    """r+1 basis polynomials whose leading monomials have Y-degrees 0..r.

    Leading monomials are tracked incrementally: an update never changes a
    polynomial's leading term except the pivot step, which raises its
    X-degree by one.
    """

    __slots__ = ("polys", "order", "leadings")

    def __init__(self, polys: list[BiPoly], order: MonomialOrder, leadings=None) -> None:
        self.polys = list(polys)
        self.order = order
        if leadings is None:
            leadings = [p.leading_monomial(order)[:2] for p in self.polys]
        self.leadings = list(leadings)

    def ascending(self) -> list[int]:
        """Basis indices sorted ascending by leading monomial."""
        return sorted(range(len(self.polys)), key=lambda j: self.order.key(*self.leadings[j]))

    def minimal(self) -> BiPoly:
        return self.polys[self.ascending()[0]]


def shifted_coef(p: BiPoly, x: int, y: int, a: int, b: int, xpowers=None, ypowers=None) -> int:
    """coef(p(X+x, Y+y); X^a Y^b) without materializing the full shift.

    Term-by-term accumulation of c_{i,j} x^(i-a) y^(j-b) over the slots
    whose binomial coefficients are odd; two multiplications per term.
    """
    f = p.field
    ydeg = len(p.ycoeffs) - 1
    if ydeg < b:
        return 0
    if ypowers is None:
        ypowers = vpowers(f, y, ydeg - b)
    if xpowers is None:
        maxdeg = max((c.coeffs.size - 1 for c in p.ycoeffs if not c.is_zero), default=0)
        xpowers = vpowers(f, x, max(maxdeg - a, 0))
    total = 0
    for j in range(b, ydeg + 1):
        if (j & b) != b:
            continue
        c = p.ycoeffs[j]
        deg = c.coeffs.size - 1
        if c.is_zero or deg < a:
            continue
        idx = np.arange(a, deg + 1, dtype=np.int64)
        sel = idx[(idx & a) == a]
        prod = f.vmul(c.coeffs[sel], xpowers[sel - a])
        terms = f.vmul(prod, int(ypowers[j - b]))
        f.counter.additions += max(terms.size - 1, 0)
        total ^= int(np.bitwise_xor.reduce(terms)) if terms.size else 0
    return total


def update_basis(state: BasisState, x: int, discrepancy_fn) -> BasisState:
    """One constraint step at a point on X = x: discrepancy_fn(G) = 0 imposed on the basis.

    If every discrepancy is zero the state is returned unchanged. Otherwise
    the order-least polynomial with nonzero discrepancy becomes the pivot:
    it corrects the others and is itself multiplied by (X - x).
    """
    polys = state.polys
    if not polys:
        return state
    f = polys[0].field
    deltas = [discrepancy_fn(p) for p in polys]
    live = [j for j, d in enumerate(deltas) if d != 0]
    if not live:
        return state
    keys = sorted((state.order.key(*state.leadings[j]), j) for j in live)
    if len(live) > 1 and keys[0][0] == keys[1][0]:
        raise AssertionError("pivot tie: leading monomials not distinct")
    t = keys[0][1]
    inv_dt = f.inv(deltas[t])
    new_polys = list(polys)
    new_leadings = list(state.leadings)
    for j in live:
        if j == t:
            continue
        ratio = f.mul(deltas[j], inv_dt)
        new_polys[j] = polys[j] + bi_scale(polys[t], ratio)
    new_polys[t] = BiPoly(f, [mul_linear(u, x) for u in polys[t].ycoeffs])
    la, lb = state.leadings[t]
    new_leadings[t] = (la + 1, lb)
    return BasisState(new_polys, state.order, new_leadings)


def _max_x_degree(state: BasisState) -> int:
    return max(
        (c.coeffs.size - 1 for p in state.polys for c in p.ycoeffs if not c.is_zero),
        default=0,
    )


class PowerCache:
    """Per-point powers of x, grown on demand; counts only newly computed entries."""

    def __init__(self, f: Field, x: int) -> None:
        self.field = f
        self.x = x
        self.arr = np.ones(1, dtype=np.int32)

    def upto(self, n: int) -> np.ndarray:
        if self.arr.size <= n:
            old = self.arr.size
            f = self.field
            f.counter.multiplications += n + 1 - old
            out = np.zeros(n + 1, dtype=np.int32)
            out[:old] = self.arr
            if self.x != 0:
                lx = int(f.log[self.x])
                idx = np.arange(old, n + 1, dtype=np.int64)
                out[old:] = f.exp[(lx * idx) % (f.q - 1)]
            self.arr = out
        return self.arr


def standard_discrepancy(f: Field, r: int):
    """Discrepancy builder for coef(G(X+x, Y+y); X^a Y^b) on a basis up to Y^r."""

    def at_point(pt: InterpolationPoint):
        xcache = PowerCache(f, pt.x)
        ypow = vpowers(f, pt.y, r) if pt.y else None

        def at_constraint(state: BasisState, a: int, b: int):
            xpow = xcache.upto(max(_max_x_degree(state) - a, 0))
            return lambda p: shifted_coef(p, pt.x, pt.y, a, b, xpowers=xpow, ypowers=ypow)

        return at_constraint

    return at_point


def _transformed_basis_poly(poly: BiPoly, x: int, vi: int, xp_powers: list[UniPoly]) -> BiPoly:
    """(X - x)^vi * poly(X, Y / (X - x)) as a polynomial.

    The Y^l coefficient is multiplied by (X - x)^(vi - l), or exactly divided
    by (X - x)^(l - vi) when l > vi; inexact division means the basis lost
    its tail-divisibility structure.
    """
    f = poly.field
    rows = []
    for ell, c in enumerate(poly.ycoeffs):
        d = vi - ell
        if c.is_zero:
            rows.append(c)
        elif d >= 0:
            rows.append(c.mul(xp_powers[d]))
        else:
            rows.append(exact_div(c, xp_powers[-d]))
    return BiPoly(f, rows)


def transformed_discrepancy(v: dict[int, int], f: Field, r: int):
    """Discrepancy builder for T* points: the standard one on the transformed polynomial."""

    def at_point(pt: InterpolationPoint):
        vi = v[pt.x]
        max_pow = max(vi, r - vi, 1)
        xp_powers = [UniPoly.one(f)]
        for _ in range(max_pow):
            xp_powers.append(mul_linear(xp_powers[-1], pt.x))
        ypow = vpowers(f, pt.y, r) if pt.y else None

        def at_constraint(state: BasisState, a: int, b: int):
            return lambda p: shifted_coef(
                _transformed_basis_poly(p, pt.x, vi, xp_powers), pt.x, pt.y, a, b, ypowers=ypow
            )

        return at_constraint

    return at_point


def run_constraints(state: BasisState, points, discrepancy_at, trace) -> BasisState:
    for pt in points:
        disc = discrepancy_at(pt)
        for a, b in constraint_schedule(pt.mult):
            state = update_basis(state, pt.x, disc(state, a, b))
            if trace is not None:
                basis = [(j, state.polys[j]) for j in state.ascending()]
                trace.append(TraceRow(pt.x, pt.y, pt.mult, a, b, basis))
    return state


def solve(problem: InterpolationProblem, collect_trace: bool = False) -> SolveResult:
    """`rslist.koetter.solve` on the per-polynomial engine."""
    problem.validate()
    f = problem.field
    n_cons = n_constraints(p.mult for p in problem.points)
    dstar, r = delta_star(n_cons, problem.k)
    state = BasisState([BiPoly.y_power(f, j) for j in range(r + 1)], MonomialOrder.weighted(problem.k))
    trace = [] if collect_trace else None
    state = run_constraints(state, problem.points, standard_discrepancy(f, r), trace)
    return SolveResult(state.minimal(), state, n_cons, dstar, r, trace)


def solve_reduced(ctx, collect_trace: bool = False) -> SolveResult:
    """`rslist.reencoding.solve_reduced` on the per-polynomial engine."""
    f, r = ctx.g.field, ctx.r
    polys = [BiPoly(f, [UniPoly.zero(f)] * j + [ctx.tails[j]]) for j in range(r + 1)]
    state = BasisState(polys, ORDER_REDUCED)
    trace = [] if collect_trace else None
    state = run_constraints(state, ctx.s_star, standard_discrepancy(f, r), trace)
    state = run_constraints(state, ctx.t_star, transformed_discrepancy(ctx.v, f, r), trace)
    return SolveResult(state.minimal(), state, ctx.reduced_constraints(), -1, r, trace)
