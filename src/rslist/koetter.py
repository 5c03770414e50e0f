"""Groebner-basis bivariate interpolation (Koetter's algorithm).

Solves the weighted-degree-minimal interpolation problem: given points
(x_i, y_i) with multiplicities m_i and the code dimension k, find a nonzero
Q(X, Y) vanishing to order m_i at every point with minimal (1, k-1)-weighted
degree. The engine is parameterized by monomial order, initial basis and
discrepancy so the reduced variant can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .galois import Field
from .polynomials import BiPoly, MonomialOrder


class DuplicatePoint(ValueError):
    """The same (x, y) pair appears twice in the point set."""


@dataclass(frozen=True)
class InterpolationPoint:
    x: int
    y: int
    mult: int = 1


@dataclass
class InterpolationProblem:
    field: Field
    points: list[InterpolationPoint]
    k: int

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"code dimension k={self.k} < 1")
        q = self.field.q
        seen = set()
        for p in self.points:
            if not (0 <= p.x < q and 0 <= p.y < q):
                raise ValueError(f"point ({p.x}, {p.y}) has an element outside GF({q})")
            if p.mult < 1:
                raise ValueError(f"multiplicity {p.mult} < 1")
            if (p.x, p.y) in seen:
                raise DuplicatePoint(f"point ({p.x}, {p.y}) repeated")
            seen.add((p.x, p.y))


def n_constraints(mults) -> int:
    """Total number of linear constraints: sum of m(m+1)/2."""
    return sum(m * (m + 1) // 2 for m in mults)


def monomial_count_chi(delta: int, k: int) -> int:
    """Number of monomials X^i Y^j with i + (k-1)j <= delta."""
    if delta < 0:
        return 0
    w = k - 1
    jmax = delta // w
    return (jmax + 1) * (delta + 1) - w * jmax * (jmax + 1) // 2


def delta_star(n_cons: int, k: int) -> tuple[int, int]:
    """Least delta with chi(delta) > n_cons, and r = delta // (k-1).

    For k = 1 the (1, 0)-weight puts no bound on the Y-degree, so the count
    is taken over the square i <= delta, j <= delta and r = delta.
    """
    if k < 1:
        raise ValueError(f"code dimension k={k} < 1")
    if k == 1:
        d = 0
        while (d + 1) * (d + 1) <= n_cons:
            d += 1
        return d, d
    lo, hi = 0, 1
    while monomial_count_chi(hi, k) <= n_cons:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if monomial_count_chi(mid, k) > n_cons:
            hi = mid
        else:
            lo = mid + 1
    return lo, lo // (k - 1)


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

    def validate(self) -> None:
        keys = set()
        for j, p in enumerate(self.polys):
            lead = p.leading_monomial(self.order)[:2]
            if lead != tuple(self.leadings[j]):
                raise AssertionError(f"stale leading monomial for basis index {j}")
            if lead[1] != j:
                raise AssertionError(f"leading Y-degree {lead[1]} != index {j}")
            key = self.order.key(*lead)
            if key in keys:
                raise AssertionError("leading monomials not distinct")
            keys.add(key)


def update_basis(state: BasisState, x: int, discrepancy_fn) -> BasisState:
    """One constraint step at a point on X = x: discrepancy_fn(G) = 0 imposed on the basis.

    `discrepancy_fn(p)` gives the constraint's coefficient for one basis
    polynomial p, e.g. coef(p(X+x, Y+y); X^a Y^b). If every discrepancy is
    zero the state is returned unchanged. Otherwise the order-least
    polynomial with nonzero discrepancy becomes the pivot: it corrects the
    others and is itself multiplied by (X - x).
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
        new_polys[j] = polys[j] + polys[t].scale(ratio)
    new_polys[t] = polys[t].mul_linear_x(x)
    la, lb = state.leadings[t]
    new_leadings[t] = (la + 1, lb)
    return BasisState(new_polys, state.order, new_leadings)


@dataclass
class TraceRow:
    x: int
    y: int
    mult: int
    a: int
    b: int
    basis: list[tuple[int, BiPoly]]  # (index j, polynomial), ascending by order


@dataclass
class SolveResult:
    minimal: BiPoly
    basis: BasisState
    n_constraints: int
    delta_star: int
    r: int
    trace: list[TraceRow] | None = dataclass_field(default=None)


def _snapshot(state: BasisState) -> list[tuple[int, BiPoly]]:
    return [(j, state.polys[j]) for j in state.ascending()]


def format_trace_row(f: Field, row: "TraceRow") -> str:
    """Canonical one-line form of an iteration: point, multiplicity, basis ascending."""
    pt = f"({f.format_element(row.x)}, {f.format_element(row.y)}) m={row.mult}"
    polys = " | ".join(f"G{j} = {p.to_text()}" for j, p in row.basis)
    return f"{pt} | {polys}"


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


def constraint_schedule(mult: int):
    """The (a, b) order for one point: a outer ascending, b inner ascending."""
    for a in range(mult):
        for b in range(mult - a):
            yield a, b


def standard_discrepancy(f: Field, r: int):
    """Discrepancy builder for coef(G(X+x, Y+y); X^a Y^b) on a basis up to Y^r.

    Called once per point; the powers of x and y it prepares are shared by
    that point's constraints, the x-powers grown on demand to the basis's
    X-degree at each constraint.
    """

    def at_point(pt: InterpolationPoint):
        xcache = PowerCache(f, pt.x)
        ypow = f.vpowers(pt.y, r) if pt.y else None

        def at_constraint(state: BasisState, a: int, b: int):
            xpow = xcache.upto(max(_max_x_degree(state) - a, 0))
            return lambda p: p.shifted_coef(pt.x, pt.y, a, b, xpowers=xpow, ypowers=ypow)

        return at_constraint

    return at_point


def run_constraints(state: BasisState, points, discrepancy_at, trace: list[TraceRow] | None) -> BasisState:
    """Impose every constraint of `points` on the basis, in schedule order.

    `discrepancy_at(point)` returns a function of (state, a, b) that gives
    the discrepancy of constraint (a, b) as a function of one polynomial.
    One TraceRow per constraint is appended to `trace` unless it is None.
    """
    for pt in points:
        disc = discrepancy_at(pt)
        for a, b in constraint_schedule(pt.mult):
            state = update_basis(state, pt.x, disc(state, a, b))
            if trace is not None:
                trace.append(TraceRow(pt.x, pt.y, pt.mult, a, b, _snapshot(state)))
    return state


def solve(problem: InterpolationProblem, collect_trace: bool = False) -> SolveResult:
    """Run Koetter's algorithm on the given problem.

    Points are processed in the given order with the (a, b) schedule of
    `constraint_schedule`. Returns the order-least basis polynomial, which
    satisfies every constraint and has minimal (1, k-1)-weighted degree.
    Outputs are not normalized.
    """
    problem.validate()
    f = problem.field
    n_cons = n_constraints(p.mult for p in problem.points)
    dstar, r = delta_star(n_cons, problem.k)
    order = MonomialOrder.weighted(problem.k)
    state = BasisState([BiPoly.y_power(f, j) for j in range(r + 1)], order)
    trace: list[TraceRow] | None = [] if collect_trace else None
    state = run_constraints(state, problem.points, standard_discrepancy(f, r), trace)
    return SolveResult(state.minimal(), state, n_cons, dstar, r, trace)
