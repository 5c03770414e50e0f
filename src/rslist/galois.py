"""Arithmetic in GF(2^m) with log/antilog tables and per-context operation counters."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

MIN_EXTENSION = 2
MAX_EXTENSION = 16


class NonPrimitivePolynomial(ValueError):
    """The defining polynomial does not generate the full multiplicative group."""


class DegreeMismatch(ValueError):
    """The defining polynomial has the wrong degree or a zero constant term."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


@dataclass
class OpCounter:
    """Running totals of field operations; monotone."""

    multiplications: int = 0
    additions: int = 0

    def snapshot(self) -> dict[str, int]:
        return {"multiplications": self.multiplications, "additions": self.additions}


# The counter that field arithmetic charges in the running thread or asyncio
# task; a context with no `count_into` scope open charges the shared default.
_ACTIVE_COUNTER: ContextVar[OpCounter] = ContextVar("rslist_active_counter", default=OpCounter())


class Field:
    """GF(2^m) for 2 <= m <= 16, defined by a primitive polynomial.

    Elements are ints in [0, 2^m); bit i of the value is the coefficient of
    alpha^i in the polynomial basis. Multiplication goes through log/antilog
    tables laid out so that zero needs no branch: `log[a]` is the discrete
    log of a != 0 and `log[0]` is the sentinel `zero_log` = 2(q-1); `exp`
    has 4(q-1)+1 entries, alpha^i at i and at i + (q-1) for i < q-1, and 0
    from index `zero_log` on. A product is `exp[log[a] + log[b]]`, and any
    sum that involves a zero operand lands in the zero tail. `log_tuple`
    holds `log` as Python ints, for scalar lookups in Python loops, where
    indexing the array would build a numpy scalar each time. `elements`
    lists the field in the order 0, 1, alpha, ..., alpha^(q-2). `vmul(a, b)`
    takes an array `a` and either an array of the same shape or one element
    `b`.

    Counting convention: every scalar product counts one multiplication
    (including products by 0 or 1), and vector kernels count one
    multiplication per slot of `a`, as a dense software loop would. Inverse
    lookups are free; div counts one multiplication. A kernel that batches
    such a loop charges what the loop would: `polynomials.root_product`
    charges N(N+1)/2 multiplications and no additions for N linear factors,
    as the chain of N multiplications by X + x_i from 1 does,
    `UniPoly.eval_many` charges n - 1 per point for n coefficients, as
    Horner's rule does, `UniPoly.mul` charges the product of its factors'
    lengths, as scaling one factor per coefficient of the other does, and
    `lagrange_interpolate` the k(k+1)/2 of a master it is passed.

    A Field holds only these tables and its parameters, all immutable after
    construction, so threads and asyncio tasks may share one. Counts go to
    the counter of the running context, not to the Field: `count_into`
    scopes a caller-owned counter for the current thread or task, and
    `counter` reads the one in force.
    """

    def __init__(self, m: int, prim_poly: int) -> None:
        if not MIN_EXTENSION <= m <= MAX_EXTENSION:
            raise DegreeMismatch(f"extension degree m={m} outside [{MIN_EXTENSION}, {MAX_EXTENSION}]")
        if prim_poly.bit_length() != m + 1:
            raise DegreeMismatch(f"defining polynomial must have degree exactly {m}")
        if not prim_poly & 1:
            raise DegreeMismatch("defining polynomial must have a nonzero constant term")
        self.m = m
        self.prim_poly = prim_poly
        self.q = 1 << m

        q = self.q
        self.zero_log = zero_log = 2 * (q - 1)
        exp = np.zeros(2 * zero_log + 1, dtype=np.int32)
        log = np.full(q, zero_log, dtype=np.int32)
        v = 1
        for i in range(q - 1):
            if v == 1 and i > 0:
                raise NonPrimitivePolynomial(f"alpha has order {i}, expected {q - 1}")
            exp[i] = v
            log[v] = i
            v <<= 1
            if v & q:
                v ^= prim_poly
        if v != 1:
            raise NonPrimitivePolynomial("alpha does not have order q-1")
        exp[q - 1 : zero_log] = exp[: q - 1]
        self.exp = exp
        self.log = log
        self.log_tuple = tuple(log.tolist())
        self.elements = np.concatenate(([0], exp[: q - 1])).astype(np.int32)
        for table in (self.exp, self.log, self.elements):
            table.setflags(write=False)

    # -- scalar arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        _ACTIVE_COUNTER.get().multiplications += 1
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.exp[self.q - 1 - self.log[a]])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def from_exponent(self, i: int) -> int:
        return int(self.exp[i % (self.q - 1)])

    def all_elements(self) -> list[int]:
        """0, 1, alpha, alpha^2, ..., alpha^(q-2): the array `elements` as a list."""
        return self.elements.tolist()

    # -- vector kernels (dense counting) -----------------------------------

    def vmul(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        _ACTIVE_COUNTER.get().multiplications += a.size
        return self.exp[self.log[a] + self.log[b]]

    def vinv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverses of a nonzero array; free, like `inv`."""
        if not a.all():
            raise DivisionByZero("inverse of 0")
        return self.exp[self.q - 1 - self.log[a]]

    # -- display and serialization ------------------------------------------

    def format_element(self, v: int, exp_form: bool = True) -> str:
        if not exp_form:
            return str(v)
        if v == 0:
            return "0"
        e = int(self.log[v])
        if e == 0:
            return "1"
        if e == 1:
            return "a"
        return f"a^{e}"

    def parse_element(self, s) -> int:
        """An element written as an int or as a string ("0", "1", "a", "a^i" or decimal)."""
        if isinstance(s, bool) or not isinstance(s, (int, str)):
            raise ValueError(f"element {s!r} is neither an integer nor a string")
        if isinstance(s, int):
            v = s
        else:
            s = s.strip()
            if s == "a":
                return self.from_exponent(1)
            try:
                if s.startswith("a^"):
                    return self.from_exponent(int(s[2:]))
                v = int(s)
            except ValueError:
                raise ValueError(f"element {s!r} is not an integer, 'a' or 'a^i' with an integer i") from None
        if not 0 <= v < self.q:
            raise ValueError(f"element {v} outside GF(2^{self.m})")
        return v

    def to_json(self) -> dict:
        return {"m": self.m, "prim_poly": self.prim_poly}

    @classmethod
    def from_json(cls, obj: dict) -> "Field":
        return cls(int(obj["m"]), int(obj["prim_poly"]))

    @property
    def counter(self) -> OpCounter:
        """The running context's counter; a shared default tally outside any scope."""
        return _ACTIVE_COUNTER.get()

    @contextmanager
    def count_into(self, counter: OpCounter):
        """Charge the block's field operations to `counter`.

        The scope belongs to the running thread or asyncio task, so it
        collects the operations of every Field in that context and none of
        other contexts, which keep their own scopes even on a shared Field.
        """
        token = _ACTIVE_COUNTER.set(counter)
        try:
            yield counter
        finally:
            _ACTIVE_COUNTER.reset(token)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.m == other.m and self.prim_poly == other.prim_poly

    def __hash__(self) -> int:
        return hash((self.m, self.prim_poly))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, prim_poly=0x{self.prim_poly:x})"


# Handy defining polynomials for the fields used throughout the tests.
GF8_POLY = 0b1011          # X^3 + X + 1
GF16_POLY = 0b10011        # X^4 + X + 1
GF256_POLY = 0b100011101   # X^8 + X^4 + X^3 + X^2 + 1
