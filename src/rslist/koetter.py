"""Groebner-basis bivariate interpolation (Koetter's algorithm).

Solves the weighted-degree-minimal interpolation problem: given points
(x_i, y_i) with multiplicities m_i and the code dimension k, find a nonzero
Q(X, Y) vanishing to order m_i at every point with minimal (1, k-1)-weighted
degree. The engine is parameterized by monomial order, initial basis and
point class (standard or T*), so the reduced variant reuses it.

Inside the constraint loop the r+1 basis polynomials are one BasisTensor:
an (r+1, r+1, W) int32 array whose entry [j, l, i] is the X^i Y^l
coefficient of G_j, an (r+1, r+1) array of trimmed row lengths, and a
capacity W that is doubled on demand.

Every constraint of a point is a mixed Hasse derivative of the basis at
that point, so each point keeps one table D[j, a, b], the discrepancy of
G_j for constraint (a, b), for a and b below the multiplicity. Its first
constraint builds it through a Hasse table H[j, l, s], the order-s
derivative at x of row Y^l of G_j. H takes one log/antilog gather over the
box, for the terms c_i x^i, and one XOR fold of them by a period p = 2^e >=
the number of orders: by Lucas's theorem C(i, s) is odd iff i & s = s, and
for s < p that depends only on i mod p. Then D[j, a, b] = sum over l of
C(l, b) y^(l - b) H[j, l, a] (order a - v + l at a T* point, only l = b at
y = 0). A constraint's discrepancies are the column D[:, a, b]. The update
adds ratio * pivot to the other live polynomials and multiplies the pivot
by (X - x), sweeping only the pivot's rows up to its last nonzero one.
D is linear in the basis, so it takes the same exact step: D[others] ^=
ratio * D[t], and the pivot's a-axis moves up by one with a = 0 cleared,
since multiplying by X - x does that to the Hasse derivatives at x. At a
T* point the cleared entries are exact because the derivatives of the
orders below l - v stay zero on every row l > v, which the table's build
checks once per point. The solve result keeps the tensor as its basis,
and BiPolys are built from it only when a trace row, the minimal
polynomial or a reader of `BasisTensor.polys` asks for them.

A point's constraint schedule, `constraint_schedule(mult)`, and the masks
and index arrays of its table build and its charges depend only on its
class, (r + 1, mult, v, y == 0), so `point_plan` builds them once per
class, and `odd_table` the charges' odd-binomial prefix table once per
multiplicity and power-of-2 width. Each keeps them in a bounded
`functools.lru_cache`, shared by every point, decode and thread of the
process, and their arrays are read-only.

Counts are charged analytically from the row lengths, and they are exactly
what the dense per-polynomial loop would charge under the convention in
`galois.Field`'s docstring. That loop takes each discrepancy term by term:
two multiplications and one fewer addition per odd-binomial term, the x-
and y-powers it needs, and at a T* point a dense multiply or divide by
(X - x)^(v - l) first. A point's discrepancy charges are taken once, over
all its constraints, when its last one is imposed, and if the T* check
fails, what that loop charged before its division failed. Its update
charges one multiplication per ratio, a scale of the pivot per other live
polynomial, one addition per overlapping slot of each sum and the pivot's
(X - x) product. `ConstraintPoint.charge` and `update_basis` spell the
rules out, and tests/reference_koetter.py keeps that loop to hold the
engine to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .galois import Field
from .polynomials import GATHER_BLOCK, BiPoly, InexactDivision, MonomialOrder, UniPoly


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
    basis: BasisTensor
    n_constraints: int
    delta_star: int
    r: int
    trace: list[TraceRow] | None = dataclass_field(default=None)


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


class BasisTensor:
    """Koetter's basis of r+1 polynomials: coeffs[j, l, i] is the X^i Y^l coefficient of G_j.

    sizes[j, l] is the trimmed length of that row, 0 for a zero row, and the
    slots from it on are zero. The last axis is a capacity that is doubled
    whenever the pivot's shift by X would overflow it. leadings[j] is the
    (X-degree, Y-degree) of G_j's leading monomial under `order`, given by
    the caller and kept by `update_basis`: an update changes no leading
    monomial but the pivot's, whose X-degree it raises by one.
    """

    __slots__ = ("field", "order", "coeffs", "sizes", "leadings")

    def __init__(self, polys: list[BiPoly], order: MonomialOrder, leadings) -> None:
        n = len(polys)
        self.field = polys[0].field
        self.order = order
        self.leadings = list(leadings)
        self.sizes = np.array([[p.ycoef(l).coeffs.size for l in range(n)] for p in polys], dtype=np.int64)
        width = MIN_WIDTH
        while width <= self.sizes.max():
            width *= 2
        self.coeffs = np.zeros((n, n, width), dtype=np.int32)
        for j, p in enumerate(polys):
            for l, c in enumerate(p.ycoeffs):
                self.coeffs[j, l, : c.coeffs.size] = c.coeffs

    @property
    def polys(self) -> list[BiPoly]:
        """The basis as BiPolys, built from the tensor on each read."""
        f = self.field
        return [
            BiPoly(f, [UniPoly(f, self.coeffs[j, l, :s].copy()) for l, s in enumerate(row)])
            for j, row in enumerate(self.sizes)
        ]

    def ascending(self) -> list[int]:
        """Basis indices sorted ascending by leading monomial."""
        return sorted(range(len(self.leadings)), key=lambda j: self.order.key(*self.leadings[j]))


PLAN_CACHE_SIZE = 64  # entries per plan cache below; one decode uses a few


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class PointPlan(NamedTuple):
    """The arrays a point's table build and charges take from its class, read-only and shared.

    The class is (r + 1, mult, v, y == 0): nothing here depends on the
    point's x, its y != 0 or the basis. The number of Hasse orders S is
    mult at a standard point and max(mult + r - v, r - v, 1) at a T* one.
    """

    superset: np.ndarray  # [s, m]: m & s == s, for s < S and m below the fold period
    neg_orders: np.ndarray  # [s]: -s, the power of x that H[j, l, s] takes
    gather: np.ndarray  # [a, l]: l * S + max(o, 0) for the order o that row l reads for a
    lift: np.ndarray  # [b, l]: l - b, the power of y on row l
    keep: np.ndarray  # [a, b, l]: the rows l that sum into D[j, a, b]
    check: np.ndarray | None  # [l, s]: s < l - v at a T* point, the derivatives that must vanish
    schedule: np.ndarray  # [c, 2]: (a, b) of constraint c, in the order of `constraint_schedule(mult)`
    rows: np.ndarray  # [c, 1, l]: l >= b and C(l, b) odd, the rows constraint c's charge counts


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def point_plan(n: int, mult: int, v: int | None, y_zero: bool) -> PointPlan:
    """The `PointPlan` of the class (n = r + 1, mult, v, y == 0)."""
    orders = mult if v is None else max(mult + n - 1 - v, n - 1 - v, 1)
    s, m = np.arange(orders), np.arange(1 << (orders - 1).bit_length())
    rows, ab = np.arange(n), np.arange(mult)[:, None]
    order = ab + 0 * rows if v is None else ab - v + rows  # [a, l]
    odd = (rows >= ab) & ((rows & ab) == ab)  # [b, l]: l >= b and C(l, b) odd
    keep = rows == ab if y_zero else odd
    schedule = np.array(list(constraint_schedule(mult)))
    return PointPlan(
        _frozen((m & s[:, None]) == s[:, None]),
        _frozen(-s),
        _frozen(rows * orders + np.maximum(order, 0)),
        _frozen(rows - ab),
        _frozen(keep & (order >= 0)[:, None, :]),
        None if v is None else _frozen(s < rows[:, None] - v),
        _frozen(schedule),
        _frozen(odd[schedule[:, 1], None, :]),
    )


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def odd_table(a_max: int, width: int) -> np.ndarray:
    """odd[a, m] = #{i < m : C(i, a) odd} for a <= a_max and m < width, read-only and shared."""
    avals = np.arange(a_max + 1)[:, None]
    odd = np.cumsum((np.arange(width - 1) & avals) == avals, axis=1)
    return _frozen(np.concatenate((np.zeros_like(avals), odd), axis=1))


class ConstraintPoint:
    """One point's data for its constraints: its discrepancy table and its pending charges.

    `v` is None at a standard point. At a T* point of the reduced problem
    it is the multiplicity of the re-encoding point at x, and the
    discrepancy is taken on (X - x)^v G(X, Y / (X - x)): in characteristic 2
    that is the standard one with the Hasse order a - v + l in place of a
    on row l, valid once every row l > v is divisible by (X - x)^(l - v).

    `table[j, a, b]` is the discrepancy of G_j for constraint (a, b), for
    a and b below the multiplicity. The first `update_basis` call builds it
    from the basis, and every later one applies its own step to it, so a
    point's constraints must be imposed one after another, in the order of
    `constraint_schedule`, with no other change to the basis in between.

    Construction looks up the point's class plan, `point_plan`, which holds
    its schedule and every mask and index array that `build` and `charge`
    read; a point keeps no array of its own but its table. It also charges
    the per-point setup: r multiplications for the powers of y != 0 and, at
    a T* point, the powers (X - x)^i for i <= max(v, r - v, 1), built one
    linear factor at a time. Each constraint's row lengths wait in
    `pending`, and `charge` takes them all at once when the point's last
    constraint is imposed.
    """

    __slots__ = ("x", "y", "v", "mult", "plan", "table", "pending")

    def __init__(self, f: Field, pt: InterpolationPoint, r: int, v: int | None = None) -> None:
        self.x, self.y, self.v, self.mult = pt.x, pt.y, v, pt.mult
        self.plan = point_plan(r + 1, pt.mult, v, pt.y == 0)
        self.table = None
        self.pending = []
        ctr = f.counter
        if pt.y:
            ctr.multiplications += r
        if v is not None:
            top = max(v, r - v, 1)
            ctr.multiplications += top * (top + 1) // 2

    def build(self, f: Field, coeffs: np.ndarray, sizes: np.ndarray) -> None:
        """Fill the discrepancy table from the basis, through the point's Hasse table.

        H[j, l, s], the order-s Hasse derivative at x of row Y^l of G_j, is
        x^(-s) times the XOR of u[j, l, i] = coeffs[j, l, i] x^i over the
        slots i with C(i, s) odd, for s below the class's number of orders
        S. By Lucas's theorem C(i, s) is odd iff i & s = s, which for s
        below the period p, the least power of 2 >= S, depends only on i
        mod p. So u takes one log/antilog gather over the box, padded with
        zero slots to a multiple of p, and is XOR-folded by p into
        P[j, l, m], m < p; then H[j, l, s] is x^(-s) times the XOR of
        P[j, l, m] over m & s = s. At x = 0, H[j, l, s] is coeffs[j, l, s].
        The logs of x^i are reduced below q - 1, so one coefficient log may
        be added to them inside `exp`, and the polynomials go in blocks of
        about GATHER_BLOCK entries, which bounds the temporaries. At a T* point every row
        l > v must have zero derivatives of the orders below l - v, or
        InexactDivision is raised. Then D[j, a, b] is the XOR over
        the rows l >= b with C(l, b) odd of y^(l - b) H[j, l, o], where o is
        a, or a - v + l if that is >= 0 at a T* point; at y = 0 only l = b
        counts. Every mask and index array of these steps, and the T*
        check's, comes from the point's class plan; only the logs of x and
        y and the box are the point's own.
        """
        n, width, plan = len(coeffs), int(sizes.max()), self.plan
        log, exp, qm = f.log, f.exp, f.q - 1
        if self.x == 0:
            hasse = np.zeros((n, n, plan.neg_orders.size), dtype=np.int32)
            top = min(hasse.shape[2], coeffs.shape[2])
            hasse[..., :top] = coeffs[..., :top]
        else:
            period = plan.superset.shape[1]
            span = -(-width // period) * period
            box = coeffs[..., :span]
            if box.shape[2] < span:
                box = np.pad(box, ((0, 0), (0, 0), (0, span - box.shape[2])))
            lx = f.log_tuple[self.x]
            weights = np.arange(span) * lx % qm
            folded = np.empty((n, n, period), dtype=np.int32)
            step = max(GATHER_BLOCK // (n * span), 1)
            for j in range(0, n, step):
                terms = exp.take(log.take(box[j : j + step]) + weights)
                folded[j : j + step] = np.bitwise_xor.reduce(terms.reshape(-1, n, span // period, period), axis=2)
            sums = np.bitwise_xor.reduce(folded[:, :, None, :] * plan.superset, axis=3)  # [j, l, s]
            hasse = exp.take(log.take(sums) + plan.neg_orders * lx % qm)
        if plan.check is not None:
            bad = np.argwhere((hasse != 0) & plan.check)
            if bad.size:
                # the per-polynomial loop got through G_0 .. G_{j-1} and G_j's rows up to l
                j, l, _ = bad[0]
                self.charge(f, [np.where(np.arange(n)[:, None] < j, sizes, 0)])
                f.counter.multiplications += int(self.transformed(sizes[j, : l + 1])[1].sum())
                raise InexactDivision(f"row Y^{l} of G{j} not divisible by (X + {self.x})^{l - self.v}")
        logs = log.take(hasse.reshape(n, -1).take(plan.gather, axis=1))[:, :, None, :]  # [j, a, 1, l]
        if self.y:
            logs = logs + plan.lift * f.log_tuple[self.y] % qm
        terms = exp.take(logs) * plan.keep
        self.table = np.bitwise_xor.reduce(terms, axis=3)

    def transformed(self, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """At a T* point, the rows' lengths after the per-polynomial loop's transform, and its multiplications.

        That loop multiplies each nonzero row l by (X - x)^(v - l), or
        divides it by (X - x)^(l - v), densely: a product charges the two
        lengths' product, and a division one plus the divisor's length per
        quotient slot.
        """
        d = self.v - np.arange(sizes.shape[-1])
        cost = np.where(d >= 0, sizes * (d + 1), np.maximum(sizes + d, 0) * (2 - d))
        return np.where(sizes > 0, sizes + d, 0), cost

    def charge(self, f: Field, pending) -> None:
        """Charge what the per-polynomial loop charges for the discrepancies of the schedule's first constraints.

        `pending` holds, per constraint from the schedule's first, the row
        lengths of the basis it was imposed on; the constraints' a's, b's
        and row masks are the class plan's first len(pending). That loop
        takes coef(P(X+x, Y+y); X^a Y^b) of one polynomial P at a time, P =
        G at a standard point and the transformed G at a T* one. A standard
        point charges its x-powers once, up to the largest X-degree minus a
        over its constraints. A T* point charges the transform, then the
        transformed polynomial's x-powers up to its X-degree minus a. Every
        P with Y-degree >= b charges, at y = 0, the y-powers up to its
        Y-degree minus b, and on each row l >= b with C(l, b) odd, two
        multiplications and one fewer addition per slot i >= a with C(i, a)
        odd, counted from one prefix table of those slots, `odd_table`,
        shared by every point whose multiplicity and power-of-2 width of the
        row lengths are the same. The Y-degrees are found only where they
        are charged: at T* and at y = 0 points.
        """
        plan, c = self.plan, len(pending)
        (a, b), sizes = plan.schedule[:c].T, np.array(pending)
        if self.v is not None or self.y == 0:
            n = sizes.shape[-1]
            nonzero = sizes > 0
            ydeg = np.where(nonzero.any(2), n - 1 - nonzero[..., ::-1].argmax(2), -1)
            has = ydeg >= b[:, None]
        if self.v is None:
            lengths = sizes
            mults = max(int((sizes.max((1, 2)) - 1 - a).max()), 0)
        else:
            lengths, cost = self.transformed(sizes)
            mults = int(cost.sum()) + int(np.maximum(lengths.max(2) - 1 - a[:, None], 0)[has].sum())
        if self.y == 0:
            mults += int((ydeg - b[:, None])[has].sum())
        odd = odd_table(self.mult - 1, 1 << int(lengths.max()).bit_length())
        terms = odd[a[:, None, None], lengths] * plan.rows[:c]
        total = int(terms.sum())
        ctr = f.counter
        ctr.multiplications += mults + 2 * total
        ctr.additions += total - int(np.count_nonzero(terms))


def update_basis(basis: BasisTensor, point: ConstraintPoint, a: int, b: int) -> bool:
    """Impose constraint (a, b) of `point` on every basis polynomial at once; True if the basis changed.

    On the point's first constraint its discrepancy table is built from the
    basis (a T* point checks there the divisibility its transform needs),
    and the point's last constraint charges the discrepancies of all of
    them. The discrepancies are the table's column (a, b). If all are zero
    nothing changes. Otherwise the order-least polynomial with nonzero
    discrepancy is the pivot: the others gain ratio * pivot, and the pivot
    is multiplied by (X - x). Both sweep only the pivot's box, up to its
    longest row's length and its last nonzero row: the pivot is zero past
    both, so the skipped sums and shifts would change nothing. The others
    are updated together, in blocks of about GATHER_BLOCK entries. The
    table takes the same step, which is exact because it is linear in the
    basis: table[others] ^= ratio * table[t], and the pivot's a-axis moves
    up by one with a = 0 cleared, since multiplying by X - x does that to
    each Hasse order at x. At a T* point the a = 0 entries are
    H[t, l, l - v - 1] before the step, zero for l > v by the divisibility
    that the updates keep. Per other live polynomial the update charges
    one multiplication for its ratio, the pivot's length for the scaling
    and, as additions, the overlap of the two polynomials' rows; the
    pivot's product charges its length again.

    The column and the row lengths are read once into Python lists, and
    the pivot, the charges and the new lengths are worked out from them;
    numpy touches only the coefficient box and the table; the ratios'
    logs are read from `Field.log_tuple`. A row of an other keeps the
    longer of the two lengths, unless both had the same one: then the sum
    may have cancelled, so its top coefficient is read, and only if that
    is zero is the row re-read to trim it.
    """
    f = basis.field
    coeffs, sizes = basis.coeffs, basis.sizes
    if point.table is None:
        point.build(f, coeffs, sizes)
    point.pending.append(sizes.copy())
    if len(point.pending) == len(point.plan.schedule):
        point.charge(f, point.pending)
    table = point.table
    deltas = table[:, a, b].tolist()
    key, leadings = basis.order.key, basis.leadings
    keys = sorted((key(*leadings[j]), j) for j, d in enumerate(deltas) if d)
    if not keys:
        return False
    if len(keys) > 1 and keys[0][0] == keys[1][0]:
        raise AssertionError("pivot tie: leading monomials not distinct")
    t = keys[0][1]
    others = [j for _, j in keys[1:]]
    sl = sizes.tolist()
    st = sl[t]
    pivot_size, wt = sum(st), max(st)
    lt = len(st)  # the pivot's rows from lt on are zero
    while not st[lt - 1]:
        lt -= 1
    ctr = f.counter
    ctr.multiplications += len(others) * (1 + pivot_size) + pivot_size
    log, exp, qm, scalar_log = f.log, f.exp, f.q - 1, f.log_tuple
    logt = log.take(coeffs[t, :lt, :wt])
    if others:
        overlap, trims = 0, []  # trims: the (j, l, length) whose equal-length sum may have cancelled
        for j in others:
            row = sl[j]
            for l in range(lt):
                s, p = row[l], st[l]
                overlap += min(s, p)
                if s < p:
                    row[l] = p
                elif s == p and s:
                    trims.append((j, l, s))
        ctr.additions += overlap
        logd = log.take(table[t])
        lmin = scalar_log[deltas[t]]
        ratios = np.array([(scalar_log[deltas[j]] - lmin) % qm for j in others], dtype=logt.dtype).reshape(-1, 1, 1)
        rows = np.array(others)
        step = max(GATHER_BLOCK // (lt * wt), 1)
        for i in range(0, len(others), step):
            js, rs = rows[i : i + step], ratios[i : i + step]
            coeffs[js, :lt, :wt] ^= exp.take(logt + rs)
            table[js] ^= exp.take(logd + rs)
        sizes[rows] = [sl[j] for j in others]
        cancelled = [(j, l) for j, l, s in trims if not coeffs[j, l, s - 1]]
        if cancelled:
            js, ls = zip(*cancelled)
            nonzero = coeffs[js, ls, :wt] != 0
            sizes[js, ls] = np.where(nonzero.any(1), wt - nonzero[:, ::-1].argmax(1), 0)
    if wt == coeffs.shape[2]:
        coeffs = basis.coeffs = np.concatenate((coeffs, np.zeros_like(coeffs)), axis=2)
    box = coeffs[t, :lt]
    shifted = exp.take(logt + scalar_log[point.x])  # x * pivot, to which X * pivot is added
    shifted[:, 1:] ^= box[:, : wt - 1]
    box[:, wt] = box[:, wt - 1]
    box[:, :wt] = shifted
    sizes[t] = [s + 1 if s else 0 for s in st]
    table[t, 1:] = table[t, :-1]
    table[t, 0] = 0
    la, lb = leadings[t]
    leadings[t] = (la + 1, lb)
    return True


def run_constraints(
    tails: list[UniPoly], order: MonomialOrder, points, collect_trace: bool, v: dict[int, int] | None = None
) -> tuple[BiPoly, BasisTensor, list[TraceRow] | None]:
    """Koetter's loop from the basis G_j = t_j(X) Y^j: every constraint of `points`, in schedule order.

    The leading monomials start at (deg t_j, j) under `order`. A point whose
    x is a key of `v` is a T* point with multiplicity v[x] (see
    ConstraintPoint); the others are standard. Returns the order-least
    basis polynomial, the basis and, if `collect_trace`, one TraceRow per
    constraint (else None).
    """
    f, r = tails[0].field, len(tails) - 1
    polys = [BiPoly(f, [UniPoly.zero(f)] * j + [t]) for j, t in enumerate(tails)]
    basis = BasisTensor(polys, order, [(int(t.degree), j) for j, t in enumerate(tails)])
    trace: list[TraceRow] | None = [] if collect_trace else None
    for pt in points:
        point = ConstraintPoint(f, pt, r, v.get(pt.x) if v else None)
        for a, b in point.plan.schedule.tolist():
            update_basis(basis, point, a, b)
            if trace is not None:
                polys = basis.polys
                trace.append(TraceRow(pt.x, pt.y, pt.mult, a, b, [(j, polys[j]) for j in basis.ascending()]))
    return basis.polys[basis.ascending()[0]], basis, trace


def solve(problem: InterpolationProblem, collect_trace: bool = False) -> SolveResult:
    """Run Koetter's algorithm on the given problem.

    Points are processed in the given order with the (a, b) schedule of
    `constraint_schedule`, from the basis G_j = Y^j. Returns the
    order-least basis polynomial, which satisfies every constraint and has
    minimal (1, k-1)-weighted degree. Outputs are not normalized.
    """
    problem.validate()
    n_cons = n_constraints(p.mult for p in problem.points)
    dstar, r = delta_star(n_cons, problem.k)
    ones = [UniPoly.one(problem.field)] * (r + 1)
    minimal, basis, trace = run_constraints(ones, MonomialOrder.weighted(problem.k), problem.points, collect_trace)
    return SolveResult(minimal, basis, n_cons, dstar, r, trace)
