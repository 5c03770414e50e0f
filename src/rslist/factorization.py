"""Factorization of reduced interpolation solutions into candidate messages.

A rational Y-root omega(X)/sigma(X) of H is recovered as a power series by a
depth-limited Roth-Ruckenstein recursion, compressed into the locator /
evaluator pair by Berlekamp-Massey, checked against the rejection rules,
and turned into a message polynomial by corrected re-encoding. A branch is
just its list of power-series coefficients; no level holds more than
deg_Y(H) of them, since a child's m(0, Y) has Y-degree at most its root's
multiplicity in the parent's. The direct path's full polynomial Y-root
extraction lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .galois import Field
from .polynomials import BiPoly, UniPoly, ZeroPolynomial, lagrange_interpolate
from .reencoding import ReducedContext, ReencodingSet

ACCEPTED = "accepted"
DEGREE_EXCEEDS_TAU = "degree_exceeds_tau"
CONVOLUTION_NONZERO_TAIL = "convolution_nonzero_tail"
INSUFFICIENT_ROOTS = "insufficient_roots"
ZERO_ERROR_VALUE = "zero_error_value"
REJECTED_BY_VERIFICATION = "rejected_by_verification"


@dataclass
class LocatorEvaluatorPair:
    sigma: UniPoly  # normalized with sigma(0) = 1
    omega: UniPoly


@dataclass
class CandidateMessage:
    f: UniPoly | None
    status: str
    sigma: UniPoly | None = None
    omega: UniPoly | None = None
    error_positions: list[int] = dataclass_field(default_factory=list)
    error_values: dict[int, int] = dataclass_field(default_factory=dict)
    branch_indices: list[int] = dataclass_field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED

    def to_json(self, f: Field, exp_form: bool = True) -> dict:
        fmt = lambda v: f.format_element(v, exp_form)  # noqa: E731
        return {
            "f": [fmt(c) for c in self.f.to_json()] if self.f is not None else None,
            "status": self.status,
            "sigma": [fmt(c) for c in self.sigma.to_json()] if self.sigma else None,
            "omega": [fmt(c) for c in self.omega.to_json()] if self.omega else None,
            "error_positions": self.error_positions,
            "error_values": {str(i): fmt(v) for i, v in self.error_values.items()},
            "branches": self.branch_indices,
        }


def univariate_roots(p: UniPoly) -> list[int]:
    """All distinct roots in the field, by exhaustive evaluation in element order."""
    if p.is_zero:
        raise ZeroPolynomial("every element is a root of 0")
    elems = p.field.elements
    return elems[p.eval_many(elems) == 0].tolist()


def _strip_x(m: BiPoly) -> BiPoly:
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


def _rr_transform(m: BiPoly, gamma: int) -> BiPoly:
    """m(X, X*Y + gamma); the new Y^i coefficient is X^i times a gamma-combination."""
    f = m.field
    ydeg = len(m.ycoeffs) - 1
    gpow = f.vpowers(gamma, ydeg)
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
        rows.append(acc.shift_up(i))
    return BiPoly(f, rows)


def _y_restriction(m: BiPoly) -> UniPoly:
    """m(0, Y) as a univariate polynomial in Y."""
    return UniPoly(m.field, [c.coef(0) for c in m.ycoeffs])


def _rr_levels(h: BiPoly, depth: int) -> list[tuple[BiPoly, list[int]]]:
    """Roth-Ruckenstein to `depth` levels: (remainder, coefficient prefix) per live branch.

    Level by level: strip common X-powers, read the roots of m(0, Y), and
    recurse on m(X, X*Y + gamma). Branches that run out of roots die.
    Returns the last level in discovery order.
    """
    if h.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    level: list[tuple[BiPoly, list[int]]] = [(_strip_x(h), [])]
    for _ in range(depth):
        level = [
            (_strip_x(_rr_transform(m, gamma)), prefix + [gamma])
            for m, prefix in level
            for gamma in univariate_roots(_y_restriction(m))
        ]
    return level


def rr_power_series(h: BiPoly, depth: int) -> list[list[int]]:
    """First `depth` power-series coefficients of every rational Y-root of h, in discovery order."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return [prefix for _, prefix in _rr_levels(h, depth)]


def polynomial_y_roots(q: BiPoly, depth: int) -> list[UniPoly]:
    """All f with deg f < depth and q(X, f(X)) = 0, by full Roth-Ruckenstein."""
    roots = []
    for m, prefix in _rr_levels(q, depth):
        if m.ycoef(0).is_zero:  # m(X, 0) = 0, so the prefix is a Y-root
            roots.append(UniPoly(q.field, prefix))
    return roots


def _xor_lists(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] ^= v
    return out


def berlekamp_massey(field: Field, gammas: list[int]) -> tuple[LocatorEvaluatorPair | None, str]:
    """Shortest LFSR for the syndrome sequence, plus the evaluator convolution.

    Rejects with rule (a) when deg sigma exceeds tau = len/2, and rule (b)
    when the convolution has a nonzero coefficient at or beyond deg sigma:
    a genuine locator/evaluator pair has deg omega <= deg sigma - 1, since
    omega is the quotient of a degree < k difference by the degree k - t
    complement of the locator. Without the boundary coefficient the check
    admits rational roots whose corrected message has degree k.
    """
    n = len(gammas)
    tau = n // 2
    f = field
    c = [1]
    bpoly = [1]
    length = 0
    m = 1
    b = 1
    for i in range(n):
        d = gammas[i]
        for j in range(1, length + 1):
            if j < len(c):
                d ^= f.mul(c[j], gammas[i - j])
        if d == 0:
            m += 1
            continue
        coef = f.div(d, b)
        shifted = [0] * m + [f.mul(coef, v) for v in bpoly]
        if 2 * length <= i:
            old = c[:]
            c = _xor_lists(c, shifted)
            length = i + 1 - length
            bpoly = old
            b = d
            m = 1
        else:
            c = _xor_lists(c, shifted)
            m += 1
    sigma = UniPoly(f, c)
    t = int(sigma.degree) if not sigma.is_zero else 0
    if t > tau:
        return None, DEGREE_EXCEEDS_TAU
    conv = []
    for i in range(n):
        acc = 0
        for j in range(min(i, t) + 1):
            acc ^= f.mul(sigma.coef(j), gammas[i - j])
        conv.append(acc)
    if any(conv[i] for i in range(t, n)):
        return None, CONVOLUTION_NONZERO_TAIL
    omega = UniPoly(f, conv[:t])
    return LocatorEvaluatorPair(sigma, omega), ACCEPTED


def find_error_locations(sigma: UniPoly, rset: ReencodingSet) -> tuple[list[int] | None, str]:
    """Positions in the re-encoding set where sigma vanishes (rule c on failure)."""
    t = int(sigma.degree) if not sigma.is_zero else 0
    if t == 0:
        return [], ACCEPTED
    roots = univariate_roots(sigma)
    if len(roots) < t:
        return None, INSUFFICIENT_ROOTS
    rxs = rset.xs
    if any(root not in rxs for root in roots):
        return None, INSUFFICIENT_ROOTS
    positions = [i for i, x in enumerate(rxs) if x in roots]
    return positions, ACCEPTED


def error_values(
    pair: LocatorEvaluatorPair, g: UniPoly, locations: list[int], rset: ReencodingSet
) -> tuple[dict[int, int] | None, str]:
    """e_i = omega(x_i) g'(x_i) / sigma'(x_i) per location; rule (d) on any zero."""
    f = g.field
    gprime = g.formal_derivative()
    sprime = pair.sigma.formal_derivative()
    out: dict[int, int] = {}
    for i in locations:
        x = rset.points[i].x
        num = f.mul(pair.omega.eval_at(x), gprime.eval_at(x))
        e = f.div(num, sprime.eval_at(x))
        if e == 0:
            return None, ZERO_ERROR_VALUE
        out[i] = e
    return out, ACCEPTED


def corrected_message(rset: ReencodingSet, locations: list[int], errors: dict[int, int]) -> UniPoly:
    """Interpolate the k corrected re-encoding values into the message polynomial."""
    f = rset.e_poly.field
    loc = set(locations)
    pts = []
    for i, p in enumerate(rset.points):
        y = p.y ^ errors[i] if i in loc else p.y
        pts.append((p.x, y))
    return lagrange_interpolate(f, pts)


def factor_reduced(h: BiPoly, ctx: ReducedContext, rset: ReencodingSet, tau: int) -> list[CandidateMessage]:
    """Full pipeline per branch; rejected branches keep their status.

    Accepted candidates with equal f are merged, keeping every branch index.
    tau beyond k is allowed (2k syndromes always suffice, extras are just
    more convolution checks); tau < 1 is rejected.
    """
    if tau < 1:
        raise ValueError(f"tau={tau} must be >= 1")
    f = h.field
    out: list[CandidateMessage] = []
    by_f: dict[bytes, CandidateMessage] = {}
    for idx, gammas in enumerate(rr_power_series(h, 2 * tau)):
        pair, status = berlekamp_massey(f, gammas)
        if pair is None:
            out.append(CandidateMessage(None, status, branch_indices=[idx]))
            continue
        locations, status = find_error_locations(pair.sigma, rset)
        if locations is None:
            out.append(CandidateMessage(None, status, pair.sigma, pair.omega, branch_indices=[idx]))
            continue
        errors, status = error_values(pair, ctx.g, locations, rset)
        if errors is None:
            out.append(
                CandidateMessage(None, status, pair.sigma, pair.omega, locations, branch_indices=[idx])
            )
            continue
        msg = corrected_message(rset, locations, errors)
        key = msg.coeffs.tobytes()
        if key in by_f:
            by_f[key].branch_indices.append(idx)
            continue
        cand = CandidateMessage(msg, ACCEPTED, pair.sigma, pair.omega, locations, errors, [idx])
        by_f[key] = cand
        out.append(cand)
    return out
