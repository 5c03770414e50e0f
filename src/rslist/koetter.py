"""Groebner-basis bivariate interpolation (Koetter's algorithm).

Solves the weighted-degree-minimal interpolation problem: given points
(x_i, y_i) with multiplicities m_i and the code dimension k, find a nonzero
Q(X, Y) vanishing to order m_i at every point with minimal (1, k-1)-weighted
degree. The engine is parameterized by monomial order, initial basis and
point class (standard or T*), so the reduced variant reuses it.

Inside the constraint loop the r+1 basis polynomials are one BasisTensor:
an (r+1, r+1, D) int32 array whose entry [j, l, i] is the X^i Y^l
coefficient of G_j, an (r+1, r+1) array of trimmed row lengths, and a
capacity D that is doubled on demand.

Every constraint of a point reads Hasse derivatives at its x, so each
point keeps one table H[j, l, s], the order-s Hasse derivative at x of row
Y^l of G_j for s < S, which has (r+1)^2 S entries, no more than about the
box. Its first constraint builds it with one log/antilog gather per order
s over the box, against the weights x^(i - s) on the slots with C(i, s)
odd. A constraint's discrepancies for all polynomials are then read from
the table with the row factors y^(l - b) and XOR-reduced. The update adds
ratio * pivot to the other live polynomials and multiplies the pivot by
(X - x), and the table takes the same exact step: H[others] ^= ratio *
H[t], and the pivot's orders move up by one with order 0 cleared, since
multiplying by X - x does that to the Hasse derivatives at x. BiPolys are
built only for trace rows and for the returned state.

Counts are charged analytically from the row lengths, and they are exactly
what the dense per-polynomial loop would charge under the convention in
`galois.Field`'s docstring. That loop takes each discrepancy term by term:
two multiplications and one fewer addition per odd-binomial term, the x-
and y-powers it needs, and at a T* point a dense multiply or divide by
(X - x)^(v - l) first. Its update charges one multiplication per ratio, a
scale of the pivot per other live polynomial, one addition per overlapping
slot of each sum and the pivot's (X - x) product. `ConstraintPoint.charge`
and `update_basis` spell the rules out, and tests/reference_koetter.py keeps
that loop to hold the engine to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .galois import Field
from .polynomials import BiPoly, InexactDivision, MonomialOrder, UniPoly


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


def constraint_schedule(mult: int):
    """The (a, b) order for one point: a outer ascending, b inner ascending."""
    for a in range(mult):
        for b in range(mult - a):
            yield a, b


MIN_WIDTH = 8  # initial capacity of the basis tensor's X axis
GATHER_BLOCK = 1 << 15  # entries per block of a Hasse-table gather


class BasisTensor:
    """The basis inside the constraint loop: coeffs[j, l, i] is the X^i Y^l coefficient of G_j.

    sizes[j, l] is the trimmed length of that row, 0 for a zero row, and the
    slots from it on are zero. The last axis is a capacity that is doubled
    whenever the pivot's shift by X would overflow it.
    """

    __slots__ = ("field", "order", "coeffs", "sizes", "leadings")

    def __init__(self, state: BasisState) -> None:
        n = len(state.polys)
        self.field = state.polys[0].field
        self.order = state.order
        self.leadings = list(state.leadings)
        self.sizes = np.array([[p.ycoef(l).coeffs.size for l in range(n)] for p in state.polys], dtype=np.int64)
        width = MIN_WIDTH
        while width <= self.sizes.max():
            width *= 2
        self.coeffs = np.zeros((n, n, width), dtype=np.int32)
        for j, p in enumerate(state.polys):
            for l, c in enumerate(p.ycoeffs):
                self.coeffs[j, l, : c.coeffs.size] = c.coeffs

    def state(self) -> BasisState:
        f = self.field
        polys = [
            BiPoly(f, [UniPoly(f, self.coeffs[j, l, :s].copy()) for l, s in enumerate(row)])
            for j, row in enumerate(self.sizes)
        ]
        return BasisState(polys, self.order, self.leadings)


def _odd_binomial_counts(a: int, top: int) -> np.ndarray:
    """c[n] = #{i < n : C(i, a) odd} for n <= top."""
    return np.concatenate(([0], np.cumsum((np.arange(top) & a) == a)))


class ConstraintPoint:
    """One point's data for its constraints, its Hasse table and the per-point counts.

    `v` is None at a standard point. At a T* point of the reduced problem
    it is the multiplicity of the re-encoding point at x, and the
    discrepancy is taken on (X - x)^v G(X, Y / (X - x)): in characteristic 2
    that is the standard one with the row offset a - v + l in place of a,
    valid once every row l > v is divisible by (X - x)^(l - v).

    `hasse[j, l, s]` is the order-s Hasse derivative at x of row Y^l of
    G_j, for s below `orders`: the multiplicity at a standard point, and
    max(mult + r - v, r - v, 1) at a T* point, which covers the offsets
    a - v + l and the divisibility orders below l - v. The first
    `update_basis` call builds it from the basis, and every later one
    applies its own step to it, so a point's constraints must be imposed
    one after another, with no other change to the basis in between.

    Construction charges the per-point setup: r multiplications for the
    powers of y != 0 and, at a T* point, the powers (X - x)^i for
    i <= max(v, r - v, 1), built one linear factor at a time.
    """

    __slots__ = ("x", "y", "v", "xpowers", "orders", "hasse", "check")

    def __init__(self, f: Field, pt: InterpolationPoint, r: int, v: int | None = None) -> None:
        self.x, self.y, self.v = pt.x, pt.y, v
        self.xpowers = 1  # a standard point's x-powers charged so far: x^0
        self.hasse = None
        ctr = f.counter
        if pt.y:
            ctr.multiplications += r
        if v is None:
            self.orders = pt.mult
            self.check = None
        else:
            top = max(v, r - v, 1)
            ctr.multiplications += top * (top + 1) // 2
            self.orders = max(pt.mult + r - v, r - v, 1)
            # (row l, order s) with s < l - v: the derivatives that must vanish
            self.check = np.arange(self.orders) < np.arange(r + 1)[:, None] - v

    def build(self, f: Field, coeffs: np.ndarray, width: int) -> None:
        """Fill the Hasse table from the basis: one log/antilog gather per order s.

        Order s is the XOR of coeffs[j, l, i] x^(i - s) over the slots
        s <= i < width with C(i, s) odd; the weights' logs are reduced below
        q - 1, so one coefficient log may be added to them inside `exp`. The
        rows go in blocks of about GATHER_BLOCK entries, which bounds the
        temporaries.
        """
        n = len(coeffs)
        lx = int(f.log[self.x]) if self.x else 0
        self.hasse = np.empty((n, n, self.orders), dtype=np.int32)
        for s in range(self.orders):
            slots = np.arange(s, width)
            slots = slots[:1] if self.x == 0 else slots[(slots & s) == s]
            weights = ((slots - s) * lx % (f.q - 1)).astype(np.int32)
            if slots.size == width - s:
                slots = slice(s, width)
            step = max(GATHER_BLOCK // (n * weights.size or 1), 1)
            for i in range(0, n, step):
                logs = np.take(f.log, coeffs[:, i : i + step][..., slots])
                logs += weights
                self.hasse[:, i : i + step, s] = np.bitwise_xor.reduce(np.take(f.exp, logs), axis=2)

    def check_divisible(self) -> None:
        """At a T* point, raise InexactDivision unless (X - x)^(l - v) divides every row l > v.

        That is, the Hasse derivatives at x of the orders below l - v vanish.
        A combination of rows with such zeros keeps them, and so does the
        pivot's product by X - x, which moves every order up by one.
        """
        if self.check is None:
            return
        bad = np.argwhere((self.hasse != 0) & self.check)
        if bad.size:
            j, l, _ = bad[0]
            raise InexactDivision(f"row Y^{l} of G{j} not divisible by (X + {self.x})^{l - self.v}")

    def charge(self, f: Field, sizes: np.ndarray, a: int, b: int) -> None:
        """Charge what the per-polynomial loop charges for constraint (a, b)'s discrepancies.

        That loop takes coef(P(X+x, Y+y); X^a Y^b) of one polynomial P at a
        time, P = G at a standard point and the transformed G at a T* one.
        A standard point charges its x-powers on demand, up to the basis's
        X-degree minus a. A T* point multiplies each nonzero row of G by
        (X - x)^(v - l), or divides it by (X - x)^(l - v), densely, then
        charges the transformed polynomial's x-powers up to its X-degree
        minus a. Every P with Y-degree >= b charges, at y = 0, the y-powers
        up to its Y-degree minus b, and on each row l >= b with C(l, b) odd,
        two multiplications and one fewer addition per slot i >= a with
        C(i, a) odd.
        """
        n = len(sizes)
        ell = np.arange(n)
        nonzero = sizes > 0
        ydeg = np.where(nonzero.any(1), n - 1 - nonzero[:, ::-1].argmax(1), -1)
        has = ydeg >= b
        mults = 0
        if self.v is None:
            lengths = sizes
            top = max(int(sizes.max()) - 1 - a, 0)
            if top >= self.xpowers:
                mults += top + 1 - self.xpowers
                self.xpowers = top + 1
        else:
            d = self.v - ell
            mults += int(np.where(d >= 0, sizes * (d + 1), (sizes + d) * (2 - d))[nonzero].sum())
            lengths = np.where(nonzero, sizes + d, 0)
            mults += int(np.maximum(lengths.max(1) - 1 - a, 0)[has].sum())
        if self.y == 0:
            mults += int((ydeg - b)[has].sum())
        terms = _odd_binomial_counts(a, int(lengths.max()))[lengths]
        terms[:, (ell < b) | ((ell & b) != b)] = 0
        total = int(terms.sum())
        ctr = f.counter
        ctr.multiplications += mults + 2 * total
        ctr.additions += total - int(np.count_nonzero(terms))


def update_basis(basis: BasisTensor, point: ConstraintPoint, a: int, b: int) -> bool:
    """Impose constraint (a, b) of `point` on every basis polynomial at once; True if the basis changed.

    On the point's first constraint its Hasse table is built from the basis,
    and a T* point checks on it the divisibility its transform needs. The
    updates keep the checked derivatives zero, so once per point is enough. A
    polynomial's discrepancy is the sum over the rows l >= b with C(l, b)
    odd of y^(l - b) times the table's entry of order a (a - v + l at a T*
    point). If all are zero nothing changes. Otherwise the order-least
    polynomial with nonzero discrepancy is the pivot: the others gain
    ratio * pivot, and the pivot is multiplied by (X - x). The table takes
    the same step; multiplying by X - x moves each Hasse order at x up by
    one. Per other live polynomial that charges one multiplication for its
    ratio, the pivot's length for the scaling and, as additions, the
    overlap of the two polynomials' rows; the pivot's product charges its
    length again.
    """
    f = basis.field
    coeffs, sizes = basis.coeffs, basis.sizes
    if point.hasse is None:
        point.build(f, coeffs, int(sizes.max()))
        point.check_divisible()
    hasse = point.hasse
    point.charge(f, sizes, a, b)
    rows = np.arange(len(sizes))
    orders = np.full_like(rows, a) if point.v is None else rows + (a - point.v)
    keep = (orders >= 0) & (rows >= b) & ((rows & b) == b)
    if point.y == 0:
        keep &= rows == b
    rows = rows[keep]
    ly = int(f.log[point.y]) if point.y else 0
    terms = f.exp[f.log[hasse[:, rows, orders[keep]]] + (rows - b) * ly % (f.q - 1)]
    deltas = np.bitwise_xor.reduce(terms, axis=1)
    live = np.flatnonzero(deltas)
    if not live.size:
        return False
    keys = sorted((basis.order.key(*basis.leadings[j]), int(j)) for j in live)
    if len(keys) > 1 and keys[0][0] == keys[1][0]:
        raise AssertionError("pivot tie: leading monomials not distinct")
    t = keys[0][1]
    others = np.array([j for _, j in keys[1:]], dtype=np.int64)
    pivot_size = int(sizes[t].sum())
    ctr = f.counter
    ctr.multiplications += others.size * (1 + pivot_size) + pivot_size
    ctr.additions += int(np.minimum(sizes[others], sizes[t]).sum())
    wt = int(sizes[t].max())
    logt = np.take(f.log, coeffs[t, :, :wt])
    if others.size:
        logh = np.take(f.log, hasse[t])
        ratios = (f.log[deltas[others]] - f.log[deltas[t]]) % (f.q - 1)
        for j, ratio in zip(others, ratios):
            coeffs[j, :, :wt] ^= np.take(f.exp, logt + ratio)
            hasse[j] ^= np.take(f.exp, logh + ratio)
        # a row keeps the longer length unless both had the same one: then trim it
        old = sizes[others]
        sizes[others] = np.maximum(old, sizes[t])
        js, ls = np.nonzero((old == sizes[t]) & (old > 0))
        if js.size:
            nonzero = coeffs[others[js], ls, :wt] != 0
            sizes[others[js], ls] = np.where(nonzero.any(1), wt - nonzero[:, ::-1].argmax(1), 0)
    if wt == coeffs.shape[2]:
        coeffs = basis.coeffs = np.concatenate((coeffs, np.zeros_like(coeffs)), axis=2)
    coeffs[t, :, 1 : wt + 1] = coeffs[t, :, :wt]
    coeffs[t, :, 0] = 0
    coeffs[t, :, :wt] ^= np.take(f.exp, logt + f.log[point.x])
    sizes[t] += sizes[t] > 0
    hasse[t, :, 1:] = hasse[t, :, :-1]
    hasse[t, :, 0] = 0
    la, lb = basis.leadings[t]
    basis.leadings[t] = (la + 1, lb)
    return True


def run_constraints(
    state: BasisState, points, trace: list[TraceRow] | None, v: dict[int, int] | None = None
) -> BasisState:
    """Impose every constraint of `points` on the basis, in schedule order.

    A point whose x is a key of `v` is a T* point with multiplicity v[x]
    (see ConstraintPoint); the others are standard. The loop runs on a
    BasisTensor; BiPolys are built for the returned state and, unless
    `trace` is None, for the one TraceRow appended per constraint.
    """
    basis = BasisTensor(state)
    r = len(state.polys) - 1
    for pt in points:
        point = ConstraintPoint(basis.field, pt, r, v.get(pt.x) if v else None)
        for a, b in constraint_schedule(pt.mult):
            update_basis(basis, point, a, b)
            if trace is not None:
                trace.append(TraceRow(pt.x, pt.y, pt.mult, a, b, _snapshot(basis.state())))
    return basis.state()


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
    state = run_constraints(state, problem.points, trace)
    return SolveResult(state.minimal(), state, n_cons, dstar, r, trace)
