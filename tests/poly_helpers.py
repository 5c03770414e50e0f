"""Field and polynomial helpers that only the tests use: shifts, multiplicities,
weighted degrees, the invariant checks, and the original-problem
reconstruction that serves as the paper-equivalence oracle.

They charge the field counter as the library's own kernels do: one
multiplication per scalar product or power and one per slot of a vector
product, one addition per scalar sum.
"""

import numpy as np

from rslist.galois import DivisionByZero, OpCounter
from rslist.koetter import InterpolationPoint, InterpolationProblem
from rslist.polynomials import (
    NEG_INF,
    BiPoly,
    InexactDivision,
    UniPoly,
    ZeroPolynomial,
    lagrange_interpolate,
    root_product,
)


def field_add(f, a: int, b: int) -> int:
    """a + b, counted as one addition."""
    f.counter.additions += 1
    return a ^ b


def field_pow(f, a: int, e: int) -> int:
    """a^e for any integer e (a != 0 when e < 0), counted as one multiplication."""
    f.counter.multiplications += 1
    if a == 0:
        if e < 0:
            raise DivisionByZero("negative power of 0")
        return 1 if e == 0 else 0
    return int(f.exp[(int(f.log[a]) * e) % (f.q - 1)])


def vpowers(f, x: int, n: int) -> np.ndarray:
    """x^0 .. x^n as an array; counts n multiplications."""
    f.counter.multiplications += n
    out = np.zeros(n + 1, dtype=np.int32)
    out[0] = 1
    if x != 0 and n > 0:
        lx = int(f.log[x])
        out[1:] = f.exp[(lx * np.arange(1, n + 1, dtype=np.int64)) % (f.q - 1)]
    return out


def constant(f, c: int) -> UniPoly:
    """The constant polynomial c (zero when c is 0)."""
    return UniPoly(f, [c])


def from_arrays(f, rows) -> BiPoly:
    """The bivariate polynomial whose row Y^l has the X-coefficients rows[l]."""
    return BiPoly(f, [UniPoly(f, r) for r in rows])


def x_plus(f, c: int) -> UniPoly:
    """X + c (equal to X - c in characteristic 2)."""
    return UniPoly(f, [c, 1])


def horner(p: UniPoly, x: int) -> int:
    """p(x) by Horner's rule, one counted multiplication per step: what `UniPoly.eval_many` charges per point."""
    if p.is_zero:
        return 0
    f = p.field
    acc = int(p.coeffs[-1])
    for c in p.coeffs[-2::-1]:
        acc = f.mul(acc, x) ^ int(c)
    return acc


def dense_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    """p * q as one scaling of the longer factor per coefficient of the shorter: what `UniPoly.mul` charges."""
    if p.is_zero or q.is_zero:
        return UniPoly.zero(p.field)
    a, b = p.coeffs, q.coeffs
    if a.size < b.size:
        a, b = b, a
    out = np.zeros(a.size + b.size - 1, dtype=np.int32)
    for i in range(b.size):
        out[i : i + a.size] ^= p.field.vmul(a, int(b[i]))
    return UniPoly(p.field, out)


def mul_linear(p: UniPoly, c: int) -> UniPoly:
    """p * (X + c), charging one multiplication per coefficient of p."""
    if p.is_zero:
        return p
    out = np.zeros(p.coeffs.size + 1, dtype=np.int32)
    out[1:] = p.coeffs
    out[:-1] ^= p.field.vmul(p.coeffs, c)
    return UniPoly(p.field, out)


def exact_div(p: UniPoly, d: UniPoly) -> UniPoly:
    """p / d by schoolbook long division; InexactDivision when the remainder is nonzero."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    f = p.field
    if p.coeffs.size < d.coeffs.size:
        quo, rem = UniPoly.zero(f), p
    else:
        rem = p.coeffs.copy()
        dlead_inv = f.inv(int(d.coeffs[-1]))
        dn = d.coeffs.size
        quo = np.zeros(rem.size - dn + 1, dtype=np.int32)
        for i in range(rem.size - dn, -1, -1):
            c = f.mul(int(rem[i + dn - 1]), dlead_inv)
            quo[i] = c
            rem[i : i + dn] ^= f.vmul(d.coeffs, c)
        quo, rem = UniPoly(f, quo), UniPoly(f, rem)
    if not rem.is_zero:
        raise InexactDivision(f"remainder {rem.to_text()} dividing by {d.to_text()}")
    return quo


def shift_y(p: BiPoly) -> BiPoly:
    """p * Y."""
    if p.is_zero:
        return p
    return BiPoly(p.field, (UniPoly.zero(p.field),) + p.ycoeffs)


def scale_poly(p: BiPoly, u: UniPoly) -> BiPoly:
    """p * u(X), row by row."""
    return BiPoly(p.field, [c.mul(u) for c in p.ycoeffs])


def sub_y_shift(p: BiPoly, e: UniPoly) -> BiPoly:
    """p(X, Y + e(X)); self-inverse in characteristic 2."""
    if p.is_zero or e.is_zero:
        return p
    acc = BiPoly.zero(p.field)
    for j in range(len(p.ycoeffs) - 1, -1, -1):
        acc = shift_y(acc) + scale_poly(acc, e) + BiPoly(p.field, [p.ycoeffs[j]])
    return acc


def y_eval(p: BiPoly, fpoly: UniPoly) -> UniPoly:
    """p(X, f(X)) by Horner in Y."""
    acc = UniPoly.zero(p.field)
    for j in range(len(p.ycoeffs) - 1, -1, -1):
        acc = acc.mul(fpoly) + p.ycoeffs[j]
    return acc


def master(f, xs) -> UniPoly:
    """prod (X + x) over xs, built under a throwaway counter."""
    with f.count_into(OpCounter()):
        return root_product(f, xs, np.ones(len(xs), dtype=np.int64))


def interpolate(f, points) -> UniPoly:
    """`lagrange_interpolate` through the points, with its master built here uncounted.

    The call itself charges the master's k(k+1)/2, so the counts are the library's.
    """
    pts = list(points)
    return lagrange_interpolate(master(f, [x for x, _ in pts]), pts)


def psi_of(ctx) -> UniPoly:
    """psi = prod (X + x_i)^(v_i) over the context's re-encoding points, built under a throwaway counter."""
    f = ctx.g.field
    with f.count_into(OpCounter()):
        return root_product(f, ctx.rset.xs, [p.mult for p in ctx.rset.points])


def reconstruct(h: BiPoly, psi: UniPoly, g: UniPoly, e: UniPoly) -> BiPoly:
    """psi(X) * h(X, (Y - e(X)) / g(X)) as a polynomial: the original problem's Q.

    Each Y^j coefficient of psi*h_j/g^j must divide exactly; InexactDivision
    signals that h violates the required tail-divisibility structure.
    """
    if h.is_zero:
        return h
    field = h.field
    rows = []
    gj = UniPoly.one(field)
    for j, c in enumerate(h.ycoeffs):
        if j > 0:
            gj = gj.mul(g)
        rows.append(exact_div(psi.mul(c), gj) if not c.is_zero else UniPoly.zero(field))
    return sub_y_shift(BiPoly(field, rows), e)


def y_degree(p: BiPoly):
    """Degree in Y; -inf for the zero polynomial."""
    return len(p.ycoeffs) - 1 if p.ycoeffs else NEG_INF


def bipoly_from_json(f, obj) -> BiPoly:
    """The inverse of `BiPoly.to_json`; elements may be written as `Field.parse_element` takes them."""
    return BiPoly(f, [UniPoly(f, [f.parse_element(c) for c in row]) for row in obj])


def validate_basis(state) -> None:
    """Assert that the kept leading monomials are current, have Y-degree j at index j and are distinct.

    `state` is a `koetter.BasisTensor` or the reference engine's state: anything with `polys`,
    `order` and `leadings`.
    """
    keys = set()
    for j, p in enumerate(state.polys):
        lead = p.leading_monomial(state.order)[:2]
        if lead != tuple(state.leadings[j]):
            raise AssertionError(f"stale leading monomial for basis index {j}")
        if lead[1] != j:
            raise AssertionError(f"leading Y-degree {lead[1]} != index {j}")
        key = state.order.key(*lead)
        if key in keys:
            raise AssertionError("leading monomials not distinct")
        keys.add(key)


def check_tail_divisibility(state, ctx) -> None:
    """Assert every basis polynomial's Y^l coefficient is divisible by the context's t_l."""
    for p in state.polys:
        for ell, c in enumerate(p.ycoeffs):
            if c.is_zero or ell >= len(ctx.tails):
                continue
            exact_div(c, ctx.tails[ell])


def uni_taylor_shift(p: UniPoly, x: int) -> UniPoly:
    """p(X + x), computed by Horner accumulation in (X + x)."""
    if p.is_zero or x == 0:
        return p
    acc = UniPoly.zero(p.field)
    for i in range(p.coeffs.size - 1, -1, -1):
        acc = mul_linear(acc, x) + constant(p.field, int(p.coeffs[i]))
    return acc


def bi_scale(p: BiPoly, s: int) -> BiPoly:
    """s * p, one `UniPoly.scale` per Y-row."""
    return BiPoly(p.field, [c.scale(s) for c in p.ycoeffs])


def taylor_shift(p: BiPoly, x: int, y: int) -> BiPoly:
    """p(X + x, Y + y); entry (i, j) is the mixed Hasse-derivative value."""
    shifted = [uni_taylor_shift(c, x) for c in p.ycoeffs]
    if y == 0:
        return BiPoly(p.field, shifted)
    acc = BiPoly.zero(p.field)
    for j in range(len(shifted) - 1, -1, -1):
        # acc*(Y + y) + c_j
        acc = shift_y(acc) + bi_scale(acc, y) + BiPoly(p.field, [shifted[j]])
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
