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
GATHER_BLOCK = 1 << 15  # entries per block of a batched log/antilog gather: bounds the temporaries


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
        """The product, as one `dense_products` row; charges the two lengths' product, as the dense loop does."""
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        f, a, b = self.field, self.coeffs, other.coeffs
        f.counter.multiplications += a.size * b.size
        return UniPoly(f, dense_products(f, a[None], b[None])[0])

    __mul__ = mul

    def eval_at(self, x: int) -> int:
        """The value at x: `eval_many` at one point."""
        return int(self.eval_many(x))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Values at a vector of points, as one gather per block of points.

        p(x) is the XOR over i of c_i x^i = exp[log c_i + w_i], for w_i the
        log of x^i from `_power_logs`; a zero c_i's log is the sentinel that
        lands in exp's zero tail. The points go in blocks of about
        GATHER_BLOCK terms. Charges (n - 1) len(xs) multiplications for n
        coefficients, as Horner's rule does, and nothing for the zero
        polynomial.
        """
        xs = np.asarray(xs, dtype=np.int32)
        if self.is_zero:
            return np.zeros_like(xs)
        f, n = self.field, self.coeffs.size
        f.counter.multiplications += (n - 1) * xs.size
        flat = xs.ravel()
        out = np.empty(flat.size, dtype=np.int32)
        logc = f.log[self.coeffs].astype(np.uint32)
        step = max(GATHER_BLOCK // n, 1)
        for s in range(0, flat.size, step):
            w = _power_logs(f, flat[s : s + step], n)
            w += logc
            out[s : s + step] = np.bitwise_xor.reduce(np.take(f.exp, w), axis=1)
        return out.reshape(xs.shape)

    def formal_derivative(self) -> "UniPoly":
        """First-order Hasse derivative; in characteristic 2 this keeps c_{i+1} for even i."""
        if self.coeffs.size <= 1:
            return UniPoly.zero(self.field)
        out = self.coeffs[1:].copy()
        out[1::2] = 0
        return UniPoly(self.field, out)

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
    def y_power(cls, field: Field, j: int) -> "BiPoly":
        rows = [UniPoly.zero(field)] * j + [UniPoly.one(field)]
        return cls(field, rows)

    # -- basics --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ycoeffs

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

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()})"


def _power_logs(field: Field, xs: np.ndarray, n: int) -> np.ndarray:
    """Entry (i, s) is the exp-table log of xs[i]^s for s < n, as uint32; uncounted.

    That is s log x mod (q - 1). As q - 1 = 2^m - 1, one fold of the
    product's high bits onto its low ones leaves it below 2(q - 1), and a
    conditional subtraction of q - 1 takes it to [0, q - 2]; 0^s for s >= 1
    gets the zero sentinel. So one more log added to an entry indexes exp
    correctly: a nonzero product stays below 2(q - 1), where exp is periodic,
    and a zero factor's sentinel lands in the zero tail. The fold runs in
    place: the table and one temporary of its size are all it holds.
    """
    qm = field.q - 1
    w = (field.log[xs] % qm).astype(np.uint32)[:, None] * (np.arange(n, dtype=np.uint32) % qm)
    low = w & qm
    w >>= field.m
    w += low
    np.subtract(w, qm, out=low)
    np.minimum(w, low, out=w)
    w[xs == 0, 1:] = field.zero_log
    return w


def dense_products(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row p is the coefficient array of the product of rows a[p] and b[p]; uncounted.

    A block of rows of the shorter factor takes one log/antilog outer
    product with the longer one, T[p, i, j] = a[p, i] b[p, j], padded to
    rows of one slot more than its anti-diagonal sums need. Read back with
    one slot less per row, row i of T moves right by i, so entry (i, j) lands
    in column i + j and an XOR down the rows sums the anti-diagonals. The
    blocks hold about GATHER_BLOCK terms, so the temporaries stay O(block)
    whatever the sizes.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    pairs, la = a.shape
    lb = b.shape[1]
    out = np.zeros((pairs, la + lb - 1), dtype=np.int32)
    rows = min(la, max(GATHER_BLOCK // lb, 1))
    step = max(GATHER_BLOCK // (rows * lb), 1)
    loga, logb = field.log[a], field.log[b]
    for p in range(0, pairs, step):
        for i in range(0, la, rows):
            block = loga[p : p + step, i : i + rows]
            n, r = block.shape
            terms = np.zeros((n, r, r + lb), dtype=np.int32)
            terms[:, :, :lb] = np.take(field.exp, block[:, :, None] + logb[p : p + step, None, :])
            sums = terms.reshape(n, -1)[:, : r * (r + lb - 1)].reshape(n, r, r + lb - 1)
            out[p : p + step, i : i + r + lb - 1] ^= np.bitwise_xor.reduce(sums, axis=1)
    return out


def subproduct(field: Field, roots: np.ndarray) -> np.ndarray:
    """Coefficients of prod_i (X + roots[i]), for at least one root; uncounted.

    A subproduct tree: each level multiplies all its pairs in one
    `dense_products` call, and a level of odd length gets a factor 1.
    """
    level = np.stack([roots, np.ones_like(roots)], axis=1)
    while len(level) > 1:
        if len(level) % 2:
            one = np.zeros((1, level.shape[1]), dtype=np.int32)
            one[0, 0] = 1
            level = np.concatenate([level, one])
        level = dense_products(field, level[0::2], level[1::2])
    return level[0, : roots.size + 1]


def root_product(field: Field, xs, exps) -> UniPoly:
    """prod_i (X + x_i)^(e_i) for exponents e_i >= 0; an x_i may be 0.

    With A_b the `subproduct` of the x_i whose e_i has bit b set, the
    result P is built by square-and-multiply from the top bit down: P
    becomes P^2 A_b, which is A_b itself at the top bit, where P = 1. A
    square needs no products in characteristic 2: P^2 = F(X^2), where F
    holds P's squared coefficients, one gather on the logs (a zero's
    sentinel log doubles into exp's zero tail). With A = E(X^2) + X O(X^2),
    P^2 A has F E at the even powers and F O at the odd ones, one
    `dense_products` call on two rows, half the work of multiplying P^2
    with its zero odd coefficients.

    Charges N(N+1)/2 multiplications and no additions for N = sum e_i:
    what the chain of N multiplications by X + x_i, starting from 1,
    charges under the counting convention.
    """
    xs = np.asarray(xs, dtype=np.int32)
    exps = np.asarray(exps, dtype=np.int64)
    n = int(exps.sum())
    field.counter.multiplications += n * (n + 1) // 2
    top = int(exps.max(initial=0)).bit_length() - 1
    out = subproduct(field, xs[(exps >> top) & 1 == 1]) if top >= 0 else np.ones(1, dtype=np.int32)
    for bit in range(top - 1, -1, -1):
        squares = field.exp[2 * field.log[out]]
        chosen = (exps >> bit) & 1 == 1
        if not chosen.any():
            out = np.zeros(2 * squares.size - 1, dtype=np.int32)
            out[::2] = squares
            continue
        a = subproduct(field, xs[chosen])
        halves = np.zeros(a.size + a.size % 2, dtype=np.int32)
        halves[: a.size] = a
        prod = dense_products(field, np.stack([squares, squares]), halves.reshape(-1, 2).T)
        out = prod.T.reshape(-1)[: 2 * squares.size + a.size - 2]
    return UniPoly(field, out)


LAGRANGE_BLOCK = 256  # points per batched pass: the temporaries stay O(256 k)


def lagrange_interpolate(master: UniPoly, points) -> UniPoly:
    """The unique polynomial of degree < k = len(points) through the given points.

    With the caller's master m = prod_j (X + x_j), of degree k or ValueError,
    it is the sum over the points with y_i != 0 of c_i m / (X + x_i), for
    c_i = y_i / m'(x_i): in characteristic 2 the quotient's value at x_i is
    m'(x_i). Synthetic division gives the quotient's coefficient j as
    sum_s m[j+1+s] x_i^s, so with the power sums P[s] = sum_i c_i x_i^s the
    result is f[j] = sum_s m[j+1+s] P[s], m's Hankel matrix times P. That is
    the top half of the product of m with P reversed, taken directly, one
    gather and XOR per block of about GATHER_BLOCK entries, without the
    bottom half that `dense_products` would also compute.

    The points go in blocks of LAGRANGE_BLOCK, and one table of the logs of
    x_i^s for s <= k (`_power_logs`) serves a whole block. With E the even part
    of m, E(x_i) and m'(x_i) are one gather and XOR each at the even powers, and
    m(x_i) = E(x_i) + x_i m'(x_i) must be 0, or InexactDivision is raised, as
    the remainder of a division by a wrong master would be. The terms c_i x_i^s
    are one more gather, and their XOR accumulate down the points, carried
    across blocks, gives the power sums P_p after each point p in turn.

    The counts are closed forms of what the dense per-point loop (long
    division of the master by X + x_i, Horner's rule at x_i, the division
    of y_i, the scaling, then acc + term) charges. Per point with y_i != 0,
    5k multiplications: 3k for the division, k - 1 for Horner, 1 for y_i's
    division and k for the scaling. The dense loop's master, k multiplications
    by X + x_i, is charged k(k+1)/2 here, though passed in. Each point charges
    as additions the trimmed size of the running sum before it. After point p
    that sum has size k - t_p, for t_p the least s with P_p[s] != 0, or 0 if
    there is none: m is monic, so its coefficient k - 1 - t is P_p[t] plus
    multiples of the P_p[s], s < t.
    """
    pts = np.array(list(points), dtype=np.int32).reshape(-1, 2)
    if not pts.size:
        raise ValueError("need at least one point")
    k, f = len(pts), master.field
    if master.degree != k:
        raise ValueError(f"master of degree {master.degree} for {k} points")
    ordered = np.sort(pts[:, 0])
    if (ordered[1:] == ordered[:-1]).any():
        raise DuplicateAbscissa("x-coordinates must be distinct")
    live = pts[pts[:, 1] != 0]
    f.counter.multiplications += k * (k + 1) // 2 + 5 * k * len(live)
    m = master.coeffs
    logm = f.log[m].astype(np.uint32)
    sums = np.zeros(k, dtype=np.int32)
    size = 0
    for start in range(0, len(live), LAGRANGE_BLOCK):
        bx, by = live[start : start + LAGRANGE_BLOCK].T
        w = _power_logs(f, bx, k + 1)
        even = np.bitwise_xor.reduce(f.exp[w[:, 0::2] + logm[0::2]], axis=1)
        deriv = np.bitwise_xor.reduce(f.exp[w[:, :k:2] + logm[1::2]], axis=1)
        rem = even ^ f.exp[f.log[bx] + f.log[deriv]]
        if rem.any():
            raise InexactDivision(f"remainder dividing the master by X + {bx[rem.argmax()]}")
        # the table becomes the logs of c_i x_i^s in place; row p of the terms, the power sums after point p
        w = w[:, :k]
        w += ((f.log[by] - f.log[deriv]) % (f.q - 1)).astype(np.uint32)[:, None]
        terms = f.exp[w]
        del w  # so that the next block's table does not meet this one
        terms[0] ^= sums
        np.bitwise_xor.accumulate(terms, axis=0, out=terms)
        nonzero = terms != 0
        sizes = np.where(nonzero.any(axis=1), k - nonzero.argmax(axis=1), 0)
        f.counter.additions += size + int(sizes[:-1].sum())
        sums, size = terms[-1], int(sizes[-1])
    # row j of the Hankel view is m[j+1:], padded with the zero sentinel; it meets only P[:k - j]
    pad = np.full(2 * k - 1, f.zero_log, dtype=np.uint32)
    pad[:k] = logm[1:]
    hankel = np.ndarray((k, k), pad.dtype, pad, strides=pad.strides * 2)
    logp = f.log[sums].astype(np.uint32)
    out = np.empty(k, dtype=np.int32)
    rows = max(GATHER_BLOCK // k, 1)
    for j in range(0, k, rows):
        out[j : j + rows] = np.bitwise_xor.reduce(f.exp[hankel[j : j + rows, : k - j] + logp[: k - j]], axis=1)
    return UniPoly(f, out)
