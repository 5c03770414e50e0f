import random

import pytest

from rslist.galois import GF8_POLY, GF16_POLY, Field
from rslist.koetter import InterpolationPoint, InterpolationProblem, delta_star, n_constraints
from rslist.polynomials import BiPoly, UniPoly

from poly_helpers import from_arrays


@pytest.fixture(scope="session")
def gf8():
    return Field(3, GF8_POLY)


@pytest.fixture(scope="session")
def gf16():
    return Field(4, GF16_POLY)


def worked_points(f):
    a = f.from_exponent
    return [
        InterpolationPoint(a(1), a(4), 2),
        InterpolationPoint(a(2), a(6), 1),
        InterpolationPoint(a(2), a(3), 1),
        InterpolationPoint(a(3), 1, 1),
        InterpolationPoint(a(3), a(1), 1),
        InterpolationPoint(1, a(1), 1),
        InterpolationPoint(1, 1, 1),
    ]


@pytest.fixture
def worked_problem(gf8):
    """The worked GF(8) instance: k = 2, seven points, N = 9."""
    return InterpolationProblem(gf8, worked_points(gf8), 2)


@pytest.fixture
def shifted_problem(gf8):
    """The worked instance after the re-encoding shift, in the published point order."""
    from golden_tables import TABLE_SHIFTED_POINTS

    pts = [
        InterpolationPoint(gf8.parse_element(x), gf8.parse_element(y), m)
        for x, y, m in TABLE_SHIFTED_POINTS
    ]
    return InterpolationProblem(gf8, pts, 2)


def parse_poly_text(f, text):
    """Inverse of the canonical to_text form, for golden-table comparisons."""
    text = text.strip()
    if text == "0":
        return BiPoly.zero(f)
    rows = {}
    for part in _split_terms(text):
        ypow, uni = _split_y(part)
        rows.setdefault(ypow, []).append(uni)
    max_j = max(rows)
    ycoeffs = []
    for j in range(max_j + 1):
        coeffs = {}
        for uni in rows.get(j, []):
            for xpow, val in _parse_uni(f, uni):
                coeffs[xpow] = coeffs.get(xpow, 0) ^ val
        arr = [0] * (max(coeffs) + 1 if coeffs else 0)
        for i, v in coeffs.items():
            arr[i] = v
        ycoeffs.append(UniPoly(f, arr))
    return BiPoly(f, ycoeffs)


def _split_terms(text):
    parts = []
    depth = 0
    cur = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text[i : i + 3] == " + ":
            parts.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return parts


def _split_y(part):
    if "*Y^" in part:
        body, ypow = part.rsplit("*Y^", 1)
        return int(ypow), body
    if part.endswith("*Y"):
        return 1, part[:-2]
    if part.startswith("Y^"):
        return int(part[2:]), "1"
    if part == "Y":
        return 1, "1"
    return 0, part


def _parse_uni(f, text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    out = []
    for term in text.split(" + "):
        term = term.strip()
        if "*X^" in term:
            elem, xp = term.split("*X^")
            out.append((int(xp), f.parse_element(elem)))
        elif "*X" in term:
            elem, _ = term.split("*X")
            out.append((1, f.parse_element(elem)))
        elif term.startswith("X^"):
            out.append((int(term[2:]), 1))
        elif term == "X":
            out.append((1, 1))
        else:
            out.append((0, f.parse_element(term)))
    return out


def random_unipoly(f, rng, max_deg):
    return UniPoly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg) + 1)])


def random_bipoly(f, rng, max_xdeg, max_ydeg, nonzero=True):
    while True:
        rows = [
            [rng.randrange(f.q) for _ in range(rng.randint(0, max_xdeg) + 1)]
            for _ in range(rng.randint(0, max_ydeg) + 1)
        ]
        p = from_arrays(f, rows)
        if not (nonzero and p.is_zero):
            return p


def random_planted_problem(rng, fields, max_n=15, max_k=5, max_constraints=12, max_mult=2):
    """A small instance with a planted message on distinct nonzero x's; may carry errors."""
    f = rng.choice(fields)
    k = rng.randint(2, max_k)
    nonzero = f.all_elements()[1:]
    n = rng.randint(k + 1, min(max_n, len(nonzero)))
    xs = rng.sample(nonzero, n)
    fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
    points = []
    budget = max_constraints
    for x in xs:
        m = rng.randint(1, max_mult)
        if m * (m + 1) // 2 > budget:
            m = 1
        if budget <= 0:
            break
        y = fpoly.eval_at(x)
        if rng.random() < 0.25:
            y ^= rng.randrange(1, f.q)
        points.append(InterpolationPoint(x, y, m))
        budget -= m * (m + 1) // 2
    if len(points) < k:
        return random_planted_problem(rng, fields, max_n, max_k, max_constraints, max_mult)
    return InterpolationProblem(f, points, k), fpoly


def random_repeated_x_problem(rng, fields, max_k=4, max_constraints=20):
    """A small planted instance whose x's repeat, so the reduced path meets T* points.

    Each x (zero included) carries 1 to 3 points with distinct y's and
    multiplicities 1 to 3; usually one of them is the planted message's
    value. Redrawn until there are at least k distinct nonzero x's.
    """
    f = rng.choice(fields)
    k = rng.randint(2, max_k)
    xs = rng.sample(f.all_elements(), rng.randint(k, min(k + 3, f.q)))
    fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
    points = []
    budget = max_constraints
    for x in xs:
        truth = fpoly.eval_at(x)
        wrong = [y for y in range(f.q) if y != truth]
        ys = rng.sample(wrong, rng.randint(0, 2))
        if rng.random() < 0.85 or not ys:
            ys.insert(rng.randint(0, len(ys)), truth)
        for y in ys:
            m = rng.randint(1, 3)
            if m * (m + 1) // 2 > budget:
                m = 1
            if budget <= 0:
                break
            points.append(InterpolationPoint(x, y, m))
            budget -= m * (m + 1) // 2
    if len({p.x for p in points if p.x}) < k:
        return random_repeated_x_problem(rng, fields, max_k, max_constraints)
    return InterpolationProblem(f, points, k), fpoly


def random_unplanted_problem(rng, fields, max_k=4, max_constraints=120):
    """A small instance with no planted message, over one of `fields`.

    1 <= k <= max_k, and k + 1 to 2k + 3 x's (zero allowed) share points
    with uniform y's: the (x, y) pairs are taken in shuffled order with
    multiplicities 1 to 3 until the next would pass a budget of between a
    quarter of max_constraints and max_constraints. Redrawn until there are
    at least k distinct nonzero x's.
    """
    f = rng.choice(fields)
    k = rng.randint(1, max_k)
    xs = rng.sample(f.all_elements(), rng.randint(k + 1, min(2 * k + 3, f.q)))
    pairs = [(x, y) for x in xs for y in range(f.q)]
    rng.shuffle(pairs)
    budget = rng.randint(max_constraints // 4, max_constraints)
    points = []
    for x, y in pairs:
        m = rng.randint(1, 3)
        if m * (m + 1) // 2 > budget:
            break
        points.append(InterpolationPoint(x, y, m))
        budget -= m * (m + 1) // 2
    if len({p.x for p in points if p.x}) < k:
        return random_unplanted_problem(rng, fields, max_k, max_constraints)
    return InterpolationProblem(f, points, k)


GF64_POLY = 0b1000011  # X^6 + X + 1


def gs_radius_problem(seed, m, k=15):
    """A hard-decision RS(63, k) word over GF(64) at the Guruswami-Sudan radius: (problem, message, t).

    Every nonzero x carries one point of multiplicity m. The codeword of a
    random message gets t errors at random positions, where t is the largest
    count for which the message's score m(n - t) still exceeds delta*, so
    the message must be on every list.
    """
    rng = random.Random(seed)
    f = Field(6, GF64_POLY)
    xs = f.elements[1:]
    n = xs.size
    dstar = delta_star(n_constraints([m] * n), k)[0]
    t = n - dstar // m - 1
    fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
    ys = fpoly.eval_many(xs)
    for i in rng.sample(range(n), t):
        ys[i] ^= rng.randrange(1, f.q)
    points = [InterpolationPoint(int(x), int(y), m) for x, y in zip(xs, ys)]
    return InterpolationProblem(f, points, k), fpoly, t


def random_tight_problem(rng, f):
    """A planted instance over `f` whose score is exactly delta* + 1.

    2 <= k <= 5 and k + 2 <= n <= 15 distinct nonzero x's with multiplicities
    1 to 3. Points become errors greedily, over a shuffled order, while the
    planted message's score S stays above delta*; the draw is repeated until
    S = delta* + 1.
    """
    while True:
        k = rng.randint(2, 5)
        xs = rng.sample(f.all_elements()[1:], rng.randint(k + 2, min(15, f.q - 1)))
        fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
        mults = [rng.randint(1, 3) for _ in xs]
        dstar = delta_star(n_constraints(mults), k)[0]
        ys = [fpoly.eval_at(x) for x in xs]
        score = sum(mults)
        for i in rng.sample(range(len(xs)), len(xs)):
            if score - mults[i] > dstar:
                ys[i] ^= rng.randrange(1, f.q)
                score -= mults[i]
        if score == dstar + 1:
            points = [InterpolationPoint(x, y, m) for x, y, m in zip(xs, ys, mults)]
            return InterpolationProblem(f, points, k), fpoly
