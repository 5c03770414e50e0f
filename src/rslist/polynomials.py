"""Univariate and bivariate polynomial arithmetic over GF(2^m).

Polynomials are immutable after construction. UniPoly stores a dense,
canonical (no trailing zero) coefficient array; the zero polynomial is the
empty array with degree -inf. BiPoly is Y-major: a tuple of UniPoly, entry j
being the coefficient of Y^j, with a nonzero top coefficient.

All coefficient arithmetic routes through the owning Field's counted kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import Field

NEG_INF = float("-inf")


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class InexactDivision(ValueError):
    """Division expected to be exact left a nonzero remainder."""


class DuplicateAbscissa(ValueError):
    """Interpolation points share an X-coordinate."""


@dataclass(frozen=True)
class MonomialOrder:
    """Weighted-degree order on monomials X^a Y^b; ties go to the lower Y-degree.

    weight_y may be negative, in which case this is a total order but not a
    well-order; Koetter's update only ever compares existing leading terms,
    so the missing least element is harmless.
    """

    weight_x: int
    weight_y: int

    def key(self, a: int, b: int) -> tuple[int, int]:
        return (a * self.weight_x + b * self.weight_y, b)

    @classmethod
    def weighted(cls, k: int) -> "MonomialOrder":
        return cls(1, k - 1)


ORDER_REDUCED = MonomialOrder(1, -1)


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=np.int32)
        n = arr.size
        while n > 0 and arr[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = np.ascontiguousarray(arr[:n])
        self.coeffs.setflags(write=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, [1])

    @classmethod
    def constant(cls, field: Field, c: int) -> "UniPoly":
        return cls(field, [c])

    # -- basics ----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self):
        return self.coeffs.size - 1 if self.coeffs.size else NEG_INF

    def coef(self, i: int) -> int:
        return int(self.coeffs[i]) if 0 <= i < self.coeffs.size else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs.size == other.coeffs.size
            and bool(np.all(self.coeffs == other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs.tobytes()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] ^= b
        self.field.counter.additions += b.size
        return UniPoly(self.field, out)

    __sub__ = __add__  # characteristic 2

    def scale(self, s: int) -> "UniPoly":
        return UniPoly(self.field, self.field.vmul(self.coeffs, s))

    def mul(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        a, b = self.coeffs, other.coeffs
        if a.size < b.size:
            a, b = b, a
        out = np.zeros(a.size + b.size - 1, dtype=np.int32)
        f = self.field
        for i in range(b.size):
            out[i : i + a.size] ^= f.vmul(a, int(b[i]))
        return UniPoly(f, out)

    __mul__ = mul

    def mul_linear(self, c: int) -> "UniPoly":
        """Multiply by (X + c)."""
        if self.is_zero:
            return self
        out = np.zeros(self.coeffs.size + 1, dtype=np.int32)
        out[1:] = self.coeffs
        out[:-1] ^= self.field.vmul(self.coeffs, c)
        return UniPoly(self.field, out)

    def shift_up(self, s: int) -> "UniPoly":
        """Multiply by X^s."""
        if self.is_zero or s == 0:
            return self
        out = np.zeros(self.coeffs.size + s, dtype=np.int32)
        out[s:] = self.coeffs
        return UniPoly(self.field, out)

    def eval_at(self, x: int) -> int:
        if self.is_zero:
            return 0
        f = self.field
        acc = int(self.coeffs[-1])
        for i in range(self.coeffs.size - 2, -1, -1):
            acc = f.mul(acc, x) ^ int(self.coeffs[i])
        return acc

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Horner evaluation at a vector of points."""
        xs = np.asarray(xs, dtype=np.int32)
        if self.is_zero:
            return np.zeros_like(xs)
        f = self.field
        acc = np.full_like(xs, int(self.coeffs[-1]))
        for i in range(self.coeffs.size - 2, -1, -1):
            acc = f.vmul(acc, xs) ^ int(self.coeffs[i])
        return acc

    def formal_derivative(self) -> "UniPoly":
        """First-order Hasse derivative; in characteristic 2 this keeps c_{i+1} for even i."""
        if self.coeffs.size <= 1:
            return UniPoly.zero(self.field)
        out = self.coeffs[1:].copy()
        out[1::2] = 0
        return UniPoly(self.field, out)

    def divmod(self, d: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if d.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if self.coeffs.size < d.coeffs.size:
            return UniPoly.zero(f), self
        rem = self.coeffs.copy()
        dlead_inv = f.inv(int(d.coeffs[-1]))
        dn = d.coeffs.size
        quo = np.zeros(rem.size - dn + 1, dtype=np.int32)
        for i in range(rem.size - dn, -1, -1):
            c = f.mul(int(rem[i + dn - 1]), dlead_inv)
            quo[i] = c
            rem[i : i + dn] ^= f.vmul(d.coeffs, c)
        return UniPoly(f, quo), UniPoly(f, rem)

    def exact_div(self, d: "UniPoly") -> "UniPoly":
        quo, rem = self.divmod(d)
        if not rem.is_zero:
            raise InexactDivision(f"remainder {rem.to_text()} dividing by {d.to_text()}")
        return quo

    # -- display / serialization ---------------------------------------------

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.coeffs.size):
            v = int(self.coeffs[i])
            if v == 0:
                continue
            ve = self.field.format_element(v)
            if i == 0:
                parts.append(ve)
            else:
                xs = "X" if i == 1 else f"X^{i}"
                parts.append(xs if v == 1 else f"{ve}*{xs}")
        return " + ".join(parts)

    def to_json(self) -> list[int]:
        return [int(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: Field, obj) -> "UniPoly":
        return cls(field, [field.parse_element(c) for c in obj])

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()})"


class BiPoly:
    __slots__ = ("field", "ycoeffs")

    def __init__(self, field: Field, ycoeffs) -> None:
        cs = list(ycoeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.ycoeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "BiPoly":
        return cls(field, [])

    @classmethod
    def from_arrays(cls, field: Field, rows) -> "BiPoly":
        return cls(field, [UniPoly(field, r) for r in rows])

    @classmethod
    def y_power(cls, field: Field, j: int) -> "BiPoly":
        rows = [UniPoly.zero(field)] * j + [UniPoly.one(field)]
        return cls(field, rows)

    # -- basics --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ycoeffs

    @property
    def y_degree(self):
        return len(self.ycoeffs) - 1 if self.ycoeffs else NEG_INF

    def ycoef(self, j: int) -> UniPoly:
        return self.ycoeffs[j] if 0 <= j < len(self.ycoeffs) else UniPoly.zero(self.field)

    def coef(self, i: int, j: int) -> int:
        return self.ycoef(j).coef(i)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiPoly)
            and self.field == other.field
            and self.ycoeffs == other.ycoeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ycoeffs))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        n = max(len(self.ycoeffs), len(other.ycoeffs))
        return BiPoly(self.field, [self.ycoef(j) + other.ycoef(j) for j in range(n)])

    __sub__ = __add__

    def scale(self, s: int) -> "BiPoly":
        return BiPoly(self.field, [c.scale(s) for c in self.ycoeffs])

    def scale_poly(self, p: UniPoly) -> "BiPoly":
        return BiPoly(self.field, [c.mul(p) for c in self.ycoeffs])

    def shift_y(self) -> "BiPoly":
        """Multiply by Y."""
        if self.is_zero:
            return self
        return BiPoly(self.field, (UniPoly.zero(self.field),) + self.ycoeffs)

    # -- orders ----------------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> tuple[int, int, int]:
        """The order-greatest monomial (a, b, coefficient); raises on zero."""
        if self.is_zero:
            raise ZeroPolynomial("leading monomial of 0")
        best = None
        for j, c in enumerate(self.ycoeffs):
            if c.is_zero:
                continue
            nz = np.nonzero(c.coeffs)[0]
            keys = nz * order.weight_x + j * order.weight_y
            i = int(nz[int(np.argmax(keys))])
            cand = (int(keys.max()), j, i)
            if best is None or cand[:2] > best[:2]:
                best = cand
        w, j, i = best
        return (i, j, int(self.ycoeffs[j].coeffs[i]))

    # -- substitutions ---------------------------------------------------------

    def sub_y_shift(self, e: UniPoly) -> "BiPoly":
        """p(X, Y + e(X)); self-inverse in characteristic 2."""
        if self.is_zero or e.is_zero:
            return self
        acc = BiPoly.zero(self.field)
        for j in range(len(self.ycoeffs) - 1, -1, -1):
            acc = acc.shift_y() + acc.scale_poly(e) + BiPoly(self.field, [self.ycoeffs[j]])
        return acc

    def y_eval(self, fpoly: UniPoly) -> UniPoly:
        """p(X, f(X)) by Horner in Y."""
        acc = UniPoly.zero(self.field)
        for j in range(len(self.ycoeffs) - 1, -1, -1):
            acc = acc.mul(fpoly) + self.ycoeffs[j]
        return acc

    # -- display / serialization -----------------------------------------------

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j in range(len(self.ycoeffs) - 1, -1, -1):
            c = self.ycoeffs[j]
            if c.is_zero:
                continue
            ct = c.to_text()
            multi = np.count_nonzero(c.coeffs) > 1
            if j == 0:
                parts.append(f"({ct})" if multi else ct)
                continue
            ys = "Y" if j == 1 else f"Y^{j}"
            if multi:
                parts.append(f"({ct})*{ys}")
            elif ct == "1":
                parts.append(ys)
            else:
                parts.append(f"{ct}*{ys}")
        return " + ".join(parts)

    def to_json(self) -> list[list[int]]:
        return [c.to_json() for c in self.ycoeffs]

    @classmethod
    def from_json(cls, field: Field, obj) -> "BiPoly":
        return cls(field, [UniPoly.from_json(field, row) for row in obj])

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()})"


LAGRANGE_BLOCK = 256  # points per batched pass: the temporaries stay O(256 k)


def lagrange_interpolate(field: Field, points) -> UniPoly:
    """The unique polynomial of degree < k = len(points) through the given points.

    The sum over the points with y_i != 0 of y_i * num_i(X) / num_i(x_i),
    where num_i = master / (X + x_i) and master = prod_j (X + x_j). The points
    go in blocks of LAGRANGE_BLOCK. Within a block the synthetic divisions,
    the Horner evaluations num_i(x_i) and the scalings each run as one
    vector op per coefficient over all the block's points, and the scaled
    numerators are XOR-reduced in point order into the running sum.

    The counts are those of the dense per-point loop (exact_div, eval_at,
    div, scale, then acc + term). Per point with y_i != 0: 3k
    multiplications for the division (each of its k steps multiplies by the
    divisor's inverted lead and updates 2 slots), k - 1 for Horner, 1 for
    the division of y_i and k for the scaling, plus the trimmed size of the
    running sum before the point as additions. The master costs k(k+1)/2.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    xs = [p[0] for p in pts]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("x-coordinates must be distinct")
    master = UniPoly.one(field)
    for x in xs:
        master = master.mul_linear(x)
    m = master.coeffs
    k = len(xs)
    live = np.array([(x, y) for x, y in pts if y != 0], dtype=np.int32).reshape(-1, 2)
    acc = np.zeros(k, dtype=np.int32)
    acc_size = 0
    for start in range(0, len(live), LAGRANGE_BLOCK):
        bx, by = live[start : start + LAGRANGE_BLOCK].T
        # num[i] is coefficient i of every numerator of the block
        num = np.empty((k, bx.size), dtype=np.int32)
        num[k - 1] = m[k]
        for i in range(k - 1, 0, -1):
            num[i - 1] = m[i] ^ field.vmul(num[i], bx)
        rem = m[0] ^ field.vmul(num[0], bx)
        field.counter.multiplications += 2 * num.size
        if rem.any():
            raise InexactDivision(f"remainder dividing the master by X + {bx[rem.argmax()]}")
        denom = num[k - 1]
        for i in range(k - 2, -1, -1):
            denom = field.vmul(denom, bx) ^ num[i]
        terms = field.vmul(num, field.vmul(by, field.vinv(denom)))
        # column j becomes the running sum after the block's point j
        terms[:, 0] ^= acc
        np.bitwise_xor.accumulate(terms, axis=1, out=terms)
        nonzero = terms != 0
        sizes = np.where(nonzero.any(axis=0), k - nonzero[::-1].argmax(axis=0), 0)
        field.counter.additions += acc_size + int(sizes[:-1].sum())
        acc, acc_size = terms[:, -1], int(sizes[-1])
    return UniPoly(field, acc)


def reconstruct(h: BiPoly, psi: UniPoly, g: UniPoly, e: UniPoly) -> BiPoly:
    """psi(X) * h(X, (Y - e(X)) / g(X)) as a polynomial.

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
        rows.append(psi.mul(c).exact_div(gj) if not c.is_zero else UniPoly.zero(field))
    qprime = BiPoly(field, rows)
    return qprime.sub_y_shift(e)
