"""Factorization of reduced interpolation solutions into candidate messages.

A rational Y-root omega(X)/sigma(X) of H is recovered as a power series by a
depth-limited Roth-Ruckenstein recursion, compressed into the locator /
evaluator pair by Berlekamp-Massey, checked against the rejection rules,
and turned into a message polynomial by corrected re-encoding. The
recursion keeps each branch's remainder as one array of logs, so a level
costs two table gathers per row and a superset XOR-sum; no level holds
more than deg_Y(H) branches, since a child's m(0, Y) has Y-degree at most
its root's multiplicity in the parent's. The direct path's full polynomial
Y-root extraction runs the same recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .galois import Field
from .polynomials import BiPoly, UniPoly, ZeroPolynomial, lagrange_interpolate
from .reencoding import ReducedContext

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
        fmt = f.format_element if exp_form else int
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


# A Roth-Ruckenstein branch: (logs, offs, lens, prefix). Row j of the
# remainder m has the X-coefficients exp[logs[j] + offs[j]]: logs[j] holds
# logs (the sentinel `Field.zero_log` past a row's end and at its zeros)
# and offs[j] is a log offset below q - 1, so that no gather is spent
# undoing a row-wide scalar. lens[j] is row j's trimmed length, and the
# array is as wide as the longest row.
Branch = tuple[np.ndarray, list[int], list[int], list[int]]


def _cancelled_length(terms: np.ndarray, rows: list[int], n: int) -> int:
    """Trimmed length of the XOR of the given rows' first n slots: where equal lengths meet."""
    acc = np.bitwise_xor.reduce(terms[rows, :n], axis=0)
    nonzero = np.flatnonzero(acc)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _placed(
    f: Field, rows: np.ndarray, lens: list[int], shifts: list[int], table: np.ndarray | None = None
) -> tuple[np.ndarray, list[int]]:
    """Row i times X^shifts[i], divided by the largest X-power dividing every row, and its new lengths.

    The rows are logs, or values when `table` (the log table) is given, in
    which case each row's live slots take one gather on their way. The
    result is as wide as its longest row.
    """
    zero = f.zero_log
    firsts = (rows[: len(lens)] != (zero if table is None else 0)).argmax(axis=1).tolist()
    s = min(first + shift for first, shift, n in zip(firsts, shifts, lens) if n)
    new_lens = [n + shift - s if n else 0 for n, shift in zip(lens, shifts)]
    out = np.full((len(lens), max(new_lens)), zero, dtype=np.int32)
    for i, (n, shift) in enumerate(zip(lens, shifts)):
        if n:
            lo = max(s - shift, 0)
            if table is None:
                out[i, lo + shift - s : new_lens[i]] = rows[i, lo:n]
            else:
                table.take(rows[i, lo:n], out=out[i, lo + shift - s : new_lens[i]], mode="clip")
    return out, new_lens


def _y_roots(f: Field, exp: list[int], logs: np.ndarray, offs: list[int]) -> list[int]:
    """Roots of m(0, Y) in element order, charged as `univariate_roots` charges them.

    Column 0 holds the logs of m(0, Y)'s coefficients. With at most two
    terms, c_a Y^a + c_b Y^b, the roots are 0 when a > 0 and the y with
    y^(b-a) = c_a / c_b, whose logs solve one linear congruence mod q - 1;
    only a longer m(0, Y) is evaluated at every element. Either way n
    coefficients cost (n - 1)q multiplications, as `eval_many` charges.
    """
    qm = f.q - 1
    col = [(v + o) % qm if v != f.zero_log else None for v, o in zip(logs[:, 0].tolist(), offs)]
    while col[-1] is None:
        col.pop()
    terms = [a for a, c in enumerate(col) if c is not None]
    if len(terms) > 2:
        return univariate_roots(UniPoly(f, [0 if c is None else exp[c] for c in col]))
    a, b = terms[0], len(col) - 1
    f.counter.multiplications += b * f.q
    roots = [0] if a else []
    if a < b:
        e, rhs = b - a, (col[a] - col[b]) % qm
        g = math.gcd(e, qm)
        if rhs % g == 0:  # g solutions, one per residue class mod (q - 1)/g
            period = qm // g
            y = rhs // g * pow(e // g, -1, period) % period
            roots += [exp[y + t * period] for t in range(g)]
    return roots


def _rr_child(f: Field, branch: Branch, gamma: int, supersets: list[list[int]]) -> Branch:
    """The branch of m(X, X*Y + gamma), X-powers stripped.

    By Lucas's theorem row i of m(X, X*Y + gamma) is X^i times the sum over
    j with j & i = i of gamma^(j-i) m_j. With S_j = gamma^j m_j (an
    antilog gather per row), a superset XOR-sum over the bits of j gives
    gamma^i times that sum in row i, so a log gather per row and the offset
    -i log gamma finish it; at gamma = 0 only j = i survives and the rows
    stay as they are. Every gather index is in range by construction, and
    mode "clip" spares the copy of `out` that mode "raise" makes.

    Charges, from the row lengths, what building each row from
    `UniPoly.scale` and `+` charges: d for gamma's powers, one
    multiplication per slot of m_j for every pair (i, j), and, when
    gamma != 0, the smaller of the running sum's and the term's lengths as
    additions. Where two equal lengths meet the top may cancel, and only
    there the running sum is read from its values.
    """
    logs, offs, lens, prefix = branch
    d = len(lens) - 1
    f.counter.multiplications += d + sum(n << bin(j).count("1") for j, n in enumerate(lens))
    if gamma == 0:
        logs, lens = _placed(f, logs, lens, list(range(d + 1)))
        return logs, offs, lens, prefix + [gamma]
    qm = f.q - 1
    lg = int(f.log[gamma])
    size = 1 << d.bit_length()
    terms = np.zeros((size, logs.shape[1]), dtype=np.int32)
    for j, (n, o) in enumerate(zip(lens, offs)):
        if n:
            f.exp[(o + j * lg) % qm :].take(logs[j, :n], out=terms[j, :n], mode="clip")
    adds = 0
    sums = []
    for i in range(d + 1):
        acc = 0
        live = []
        for j in supersets[i]:
            n = lens[j]
            if n:
                live.append(j)
                adds += min(acc, n)
                acc = max(acc, n) if acc != n else _cancelled_length(terms, live, n)
        sums.append(acc)
    f.counter.additions += adds
    bit = 1
    while bit < size:
        view = terms.reshape(size // (2 * bit), 2, bit, -1)
        view[:, 0] ^= view[:, 1]
        bit <<= 1
    logs, lens = _placed(f, terms, sums, list(range(d + 1)), f.log)
    return logs, [(-i * lg) % qm for i in range(d + 1)], lens, prefix + [gamma]


def _root_branch(h: BiPoly) -> Branch:
    """h with common X-powers stripped, as a branch with an empty prefix."""
    f = h.field
    lens = [c.coeffs.size for c in h.ycoeffs]
    values = np.zeros((len(lens), max(lens)), dtype=np.int32)
    for j, c in enumerate(h.ycoeffs):
        values[j, : lens[j]] = c.coeffs
    logs, lens = _placed(f, values, lens, [0] * len(lens), f.log)
    return logs, [0] * len(lens), lens, []


def _rr_levels(h: BiPoly, depth: int) -> list[Branch]:
    """Roth-Ruckenstein to `depth` >= 1 levels: the live branches of the last one, in discovery order.

    Level by level: read the roots of m(0, Y), and recurse on m(X, X*Y +
    gamma) with common X-powers stripped. Branches that run out of roots
    die.
    """
    if depth < 1:
        raise ValueError(f"depth={depth} must be >= 1")
    if h.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    f = h.field
    d = len(h.ycoeffs) - 1
    level = [_root_branch(h)]
    exp = f.exp.tolist()
    supersets = [[j for j in range(i, d + 1) if j & i == i] for i in range(d + 1)]
    for _ in range(depth):
        parents, level = level, []
        while parents:  # a parent's arrays go as soon as its children are built
            branch = parents.pop(0)
            level += [_rr_child(f, branch, gamma, supersets) for gamma in _y_roots(f, exp, branch[0], branch[1])]
    return level


def rr_power_series(h: BiPoly, depth: int) -> list[list[int]]:
    """First `depth` power-series coefficients of every rational Y-root of h, in discovery order."""
    return [prefix for *_, prefix in _rr_levels(h, depth)]


def polynomial_y_roots(q: BiPoly, depth: int) -> list[UniPoly]:
    """All f with deg f < depth and q(X, f(X)) = 0, by full Roth-Ruckenstein."""
    # a branch whose row 0 is zero has m(X, 0) = 0, so its prefix is a Y-root
    return [UniPoly(q.field, prefix) for _, _, lens, prefix in _rr_levels(q, depth) if not lens[0]]


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


def find_error_locations(sigma: UniPoly, ctx: ReducedContext) -> tuple[list[int] | None, str]:
    """Positions in the re-encoding set where sigma vanishes (rule c on failure)."""
    t = int(sigma.degree) if not sigma.is_zero else 0
    if t == 0:
        return [], ACCEPTED
    roots = univariate_roots(sigma)
    if len(roots) < t:
        return None, INSUFFICIENT_ROOTS
    rxs = ctx.rset.xs
    if any(root not in rxs for root in roots):
        return None, INSUFFICIENT_ROOTS
    positions = [i for i, x in enumerate(rxs) if x in roots]
    return positions, ACCEPTED


def error_values(
    pair: LocatorEvaluatorPair, locations: list[int], ctx: ReducedContext
) -> tuple[dict[int, int] | None, str]:
    """e_i = omega(x_i) g'(x_i) / sigma'(x_i) per location; rule (d) on any zero."""
    f = ctx.g.field
    sprime = pair.sigma.formal_derivative()
    out: dict[int, int] = {}
    for i in locations:
        x = ctx.rset.points[i].x
        num = f.mul(pair.omega.eval_at(x), ctx.gprime.eval_at(x))
        e = f.div(num, sprime.eval_at(x))
        if e == 0:
            return None, ZERO_ERROR_VALUE
        out[i] = e
    return out, ACCEPTED


def corrected_message(ctx: ReducedContext, errors: dict[int, int]) -> UniPoly:
    """Interpolate the k corrected re-encoding values into the message polynomial.

    `errors` maps each error position, an index into the re-encoding
    points, to its error value, as `error_values` returns them; g is the master.
    """
    pts = [(p.x, p.y ^ errors.get(i, 0)) for i, p in enumerate(ctx.rset.points)]
    return lagrange_interpolate(ctx.g, pts)


def is_y_root(h: BiPoly, sigma: UniPoly, omega: UniPoly) -> bool:
    """Rule (e): whether omega/sigma is an exact Y-root of h, by one homogeneous Horner pass.

    With r = deg_Y h, sigma^r h(X, omega/sigma) = sum_j h_j omega^j sigma^(r-j)
    accumulates from the top row down as acc <- acc*omega + h_j*sigma^(r-j),
    counted as `UniPoly.mul` and `+` count. A candidate message f that
    `factor_reduced` accepted has (f - e)/g = omega/sigma, and the original
    problem's Q is psi h(X, (Y - e)/g) with psi != 0, so this holds exactly
    when Y - f(X) divides Q.
    """
    acc = h.ycoeffs[-1]
    sigma_power = UniPoly.one(h.field)
    for c in reversed(h.ycoeffs[:-1]):
        sigma_power = sigma_power.mul(sigma)
        acc = acc.mul(omega) + c.mul(sigma_power)
    return acc.is_zero


def factor_reduced(h: BiPoly, ctx: ReducedContext, tau: int, verify: bool = False) -> list[CandidateMessage]:
    """Rules (a)-(e) as one chain per branch; a rejected branch keeps the status of the rule it failed.

    Each branch's one candidate is filled in as its rules pass: sigma and
    omega (rules a, b), the error positions (c), the error values (d), the
    corrected message, and with `verify` rule (e), `is_y_root`, which is
    charged here like the rest. No two candidates that rules (a)-(d) accept
    share an f: distinct branches have distinct 2 tau-prefixes, and an
    accepted prefix is fixed by its error positions and values. tau beyond
    k is allowed (2k syndromes always suffice, extras are just more
    convolution checks); tau < 1 is rejected.
    """
    if tau < 1:
        raise ValueError(f"tau={tau} must be >= 1")
    out: list[CandidateMessage] = []
    for idx, gammas in enumerate(rr_power_series(h, 2 * tau)):
        pair, status = berlekamp_massey(h.field, gammas)
        cand = CandidateMessage(None, status, branch_indices=[idx])
        out.append(cand)
        if pair is None:
            continue
        cand.sigma, cand.omega = pair.sigma, pair.omega
        locations, cand.status = find_error_locations(pair.sigma, ctx)
        if locations is None:
            continue
        cand.error_positions = locations
        errors, cand.status = error_values(pair, locations, ctx)
        if errors is None:
            continue
        cand.error_values = errors
        cand.f = corrected_message(ctx, errors)
        if verify and not is_y_root(h, pair.sigma, pair.omega):
            cand.status = REJECTED_BY_VERIFICATION
    return out
