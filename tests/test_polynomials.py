import random
import tracemalloc

import numpy as np
import pytest

from rslist import polynomials
from rslist.galois import GF8_POLY, GF16_POLY, GF256_POLY, Field, OpCounter
from rslist.polynomials import (
    NEG_INF,
    BiPoly,
    DuplicateAbscissa,
    InexactDivision,
    MonomialOrder,
    UniPoly,
    ZeroPolynomial,
    lagrange_interpolate,
    root_product,
)

import properties
from conftest import parse_poly_text, random_bipoly, random_unipoly
from golden_tables import Q_DIRECT, Q_SHIFTED, H_REDUCED
from poly_helpers import (
    bipoly_from_json,
    constant,
    dense_mul,
    exact_div,
    from_arrays,
    horner,
    interpolate,
    master,
    mul_linear,
    multiplicity_at,
    reconstruct,
    sub_y_scale,
    sub_y_shift,
    taylor_shift,
    uni_taylor_shift,
    wdeg,
    x_plus,
    y_eval,
)
from reference_koetter import shifted_coef

FIELD_FIXTURES = ["gf8", "gf16"]


@pytest.fixture
def q31(gf8):
    return parse_poly_text(gf8, Q_DIRECT)


@pytest.fixture
def h63(gf8):
    return parse_poly_text(gf8, H_REDUCED)


class TestUniPoly:
    def test_canonical_and_degree(self, gf8):
        p = UniPoly(gf8, [1, 2, 0, 0])
        assert p.degree == 1
        z = UniPoly(gf8, [0, 0])
        assert z.is_zero and z.degree == NEG_INF
        assert UniPoly(gf8, [5]).degree == 0  # distinct from the zero polynomial

    def test_add_cancellation(self, gf8):
        p = UniPoly(gf8, [1, 2, 3])
        q = UniPoly(gf8, [0, 0, 3])
        assert (p + q).degree == 1

    def test_mul_and_eval(self, gf8):
        a = gf8.from_exponent
        p = x_plus(gf8, a(1)).mul(x_plus(gf8, a(2)))
        # (X - a)(X - a^2) = X^2 + a^4 X + a^3
        assert p.to_json() == [a(3), a(4), 1]
        assert p.eval_at(a(1)) == 0 and p.eval_at(a(2)) == 0
        assert p.eval_at(a(3)) == gf8.mul(a(3) ^ a(1), a(3) ^ a(2))

    def test_exact_div(self, gf8):
        a = gf8.from_exponent
        num = UniPoly(gf8, [a(4), 0, 1])  # X^2 + a^4 = (X + a^2)^2
        assert exact_div(num, x_plus(gf8, a(2))) == x_plus(gf8, a(2))
        p = UniPoly(gf8, [3, 1, 5])
        assert exact_div(p, UniPoly.one(gf8)) == p
        with pytest.raises(InexactDivision):
            exact_div(UniPoly(gf8, [0, 1]), UniPoly(gf8, [1, 1]))

    def test_formal_derivative(self, gf8):
        a = gf8.from_exponent
        g = x_plus(gf8, a(1)).mul(x_plus(gf8, a(2)))
        assert g.formal_derivative().eval_at(a(2)) == a(4)
        assert constant(gf8, a(5)).formal_derivative().is_zero
        sigma = UniPoly(gf8, [1, a(5)])
        assert sigma.formal_derivative() == constant(gf8, a(5))

    def test_taylor_shift_univariate(self, gf8):
        rng = random.Random(3)
        for _ in range(50):
            p = random_unipoly(gf8, rng, 6)
            x = rng.randrange(8)
            shifted = uni_taylor_shift(p, x)
            for probe in gf8.all_elements():
                assert shifted.eval_at(probe) == p.eval_at(probe ^ x)


class TestLagrange:
    def test_reencoding_polynomial(self, gf8):
        a = gf8.from_exponent
        e = interpolate(gf8, [(a(1), a(4)), (a(2), a(6))])
        assert e.to_json() == [a(5), a(6)]

    def test_single_point(self, gf8):
        assert interpolate(gf8, [(3, 5)]) == constant(gf8, 5)

    def test_two_point_message(self, gf8):
        a = gf8.from_exponent
        p = interpolate(gf8, [(a(2), a(3)), (a(1), a(4))])
        assert p.to_json() == [a(6), a(2)]

    def test_duplicate_abscissa(self, gf8):
        with pytest.raises(DuplicateAbscissa):
            interpolate(gf8, [(1, 2), (1, 3)])
        with pytest.raises(ValueError, match="at least one point"):
            interpolate(gf8, [])

    def test_batched_equals_dense_loop(self):
        rng = random.Random(55)
        fields = [Field(3, GF8_POLY), Field(4, GF16_POLY), Field(8, GF256_POLY), Field(10, 0x409)]
        cases = []
        for f in fields:
            ks = [1, 2, f.q - 1, f.q] if f.q <= 16 else [1, 2]
            ks += [rng.randint(1, min(f.q, 40)) for _ in range(12)]
            for i, k in enumerate(ks):
                xs = rng.sample(range(f.q), k)  # 0 is among them now and then
                zero_share = (0.0, 0.3, 1.0)[i % 3]
                ys = [0 if rng.random() < zero_share else rng.randrange(1, f.q) for _ in xs]
                cases.append((f, list(zip(xs, ys))))
        # 290 points with y != 0: the second block of 256 starts mid-way
        f = fields[3]
        xs = rng.sample(range(f.q), 300)
        cases.append((f, [(x, rng.randrange(1, f.q) if i % 30 else 0) for i, x in enumerate(xs)]))
        assert any(not any(y for _, y in pts) for _, pts in cases)
        assert any(0 in dict(pts) for _, pts in cases)
        for f, pts in cases:
            batched, dense = OpCounter(), OpCounter()
            with f.count_into(batched):
                got = interpolate(f, pts)
            with f.count_into(dense):
                want = dense_lagrange(f, pts)
            assert got == want, pts
            assert batched == dense, (f, len(pts))

    def test_count_pin_k239(self):
        # 5k^2 for the k points with y != 0 plus k(k+1)/2 for the master
        f = Field(8, GF256_POLY)
        rng = random.Random(239)
        pts = [(x, rng.randrange(1, f.q)) for x in rng.sample(range(f.q), 239)]
        with f.count_into(OpCounter()) as c:
            interpolate(f, pts)
        assert c.multiplications == 5 * 239**2 + 239 * 240 // 2 == 314_285


def dense_lagrange(field, points):
    """The per-point loop that lagrange_interpolate batches, with the counts it charges."""
    master = UniPoly.one(field)
    for x, _ in points:
        master = mul_linear(master, x)
    acc = UniPoly.zero(field)
    for x, y in points:
        if y == 0:
            continue
        num = exact_div(master, x_plus(field, x))
        acc = acc + num.scale(field.div(y, horner(num, x)))
    return acc


KERNEL_FIELDS = [Field(3, GF8_POLY), Field(4, GF16_POLY), Field(8, GF256_POLY)]
# the default, then blocks of a few entries, so that every multi-block path runs
BLOCKS = [polynomials.GATHER_BLOCK, 1, 3, 7]


def linear_chain(field, xs, exps):
    """prod (X + x_i)^(e_i) as the chain of multiplications by X + x_i from 1."""
    p = UniPoly.one(field)
    for x, e in zip(xs, exps):
        for _ in range(e):
            p = mul_linear(p, x)
    return p


def root_product_cases(field, rng):
    cases = [([], []), ([5], [0]), ([0], [1]), ([0], [13]), ([3, 3], [2, 5]), ([1, 0, 2], [0, 0, 0])]
    for _ in range(25):
        n = rng.randint(1, 9)
        xs = [rng.randrange(field.q) for _ in range(n)]  # 0 and repeated roots now and then
        exps = [rng.choice([0, 1, rng.randint(0, 20)]) for _ in range(n)]
        cases.append((xs, exps))
    return cases


class TestRootProduct:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
    def test_equals_linear_chain(self, field, block, monkeypatch):
        monkeypatch.setattr(polynomials, "GATHER_BLOCK", block)
        rng = random.Random(field.q * 31 + block)
        for xs, exps in root_product_cases(field, rng):
            got_count, want_count = OpCounter(), OpCounter()
            with field.count_into(got_count):
                got = root_product(field, xs, exps)
            with field.count_into(want_count):
                want = linear_chain(field, xs, exps)
            assert got == want, (xs, exps)
            assert got_count == want_count, (xs, exps)
            n = sum(exps)
            assert got_count.multiplications == n * (n + 1) // 2 and got_count.additions == 0


def eval_many_cases(field, rng):
    q = field.q
    polys = [UniPoly.zero(field), constant(field, 0), constant(field, rng.randrange(1, q)), UniPoly(field, [0, 1])]
    polys.append(UniPoly(field, [rng.randrange(1, q), 0, 0, 0, rng.randrange(1, q)]))
    for _ in range(10):
        polys.append(UniPoly(field, [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(rng.randint(1, 40))]))
    points = [np.array(field.elements), np.array([0, 0, 1], dtype=np.int32), np.zeros(0, dtype=np.int32)]
    points.append(np.array([rng.randrange(q) for _ in range(rng.randint(1, 60))], dtype=np.int32))
    return [(p, xs) for p in polys for xs in points]


LAGRANGE_BLOCKS = [polynomials.LAGRANGE_BLOCK, 1, 3, 7]


def cancelling_points(field, rng, k, depth):
    """k points on random x's whose first depth + 1 have power sums P[s] = 0 for s < depth.

    With w_i = prod (x_i + x_j) over the other j <= depth + 1, the sum over
    those points of x_i^s / w_i is 0 for s < depth and 1 for s = depth, so
    c_i = 1 / w_i, and y_i = c_i m'(x_i) for the master m of all k points,
    makes the running sum after point depth + 1 lose its top depth
    coefficients. The other points get random y's, 0 now and then.
    """
    xs = rng.sample(range(field.q), k)
    with field.count_into(OpCounter()):

        def prod_diffs(i, js):
            v = 1
            for j in js:
                if j != i:
                    v = field.mul(v, xs[i] ^ xs[j])
            return v

        head = range(depth + 1)
        ys = [field.div(prod_diffs(i, range(k)), prod_diffs(i, head)) for i in head]
    ys += [rng.randrange(field.q) for _ in range(k - depth - 1)]
    return list(zip(xs, ys))


class TestLagrangeBlocks:
    """The power-sum kernel at its block edges: every carry of the running sum and its size across a boundary."""

    @pytest.mark.parametrize("block", LAGRANGE_BLOCKS)
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
    def test_equals_dense_loop(self, field, block, monkeypatch):
        monkeypatch.setattr(polynomials, "LAGRANGE_BLOCK", block)
        rng = random.Random(field.q * 23 + block)
        cases = []
        for k in (1, 2, 3, 7, 8, 15, min(field.q, 40)):
            if k > field.q:
                continue
            for zero_share in (0.0, 0.4):
                xs = rng.sample(range(field.q), k)  # 0 is among them now and then
                cases.append([(x, 0 if rng.random() < zero_share else rng.randrange(1, field.q)) for x in xs])
        cases += [cancelling_points(field, rng, min(field.q, 12), depth) for depth in (1, 2, 4)]
        for pts in cases:
            got_count, want_count = OpCounter(), OpCounter()
            with field.count_into(got_count):
                got = interpolate(field, pts)
            with field.count_into(want_count):
                want = dense_lagrange(field, pts)
            assert got == want, pts
            assert got_count == want_count, pts

    @pytest.mark.parametrize("block", LAGRANGE_BLOCKS)
    def test_cancelling_prefix_charges_its_trimmed_size(self, block, monkeypatch):
        # the running sum after point depth + 1 has size k - depth; a kernel that charged k per prefix fails
        monkeypatch.setattr(polynomials, "LAGRANGE_BLOCK", block)
        f = Field(8, GF256_POLY)
        rng = random.Random(block)
        k = 20
        for depth in (1, 2, 5):
            pts = cancelling_points(f, rng, k, depth)
            pts[depth + 1 :] = [(x, y or 1) for x, y in pts[depth + 1 :]]
            got_count, want_count = OpCounter(), OpCounter()
            with f.count_into(got_count):
                got = interpolate(f, pts)
            with f.count_into(want_count):
                want = dense_lagrange(f, pts)
            assert got == want
            assert got_count == want_count
            assert got_count.additions <= k * (k - 1) - depth  # a later prefix may cancel by chance too

    @pytest.mark.parametrize("block", LAGRANGE_BLOCKS)
    def test_master_contract(self, block, monkeypatch):
        # the right master gives the dense loop's values and counts, also when shared between calls;
        # one of another degree is refused before any charge, one that misses an x fails its m(x_i) = 0 check
        monkeypatch.setattr(polynomials, "LAGRANGE_BLOCK", block)
        f = Field(8, GF256_POLY)
        rng = random.Random(block + 5)
        xs = rng.sample(range(f.q), 20)
        m = master(f, xs)
        for _ in range(2):
            pts = [(x, rng.randrange(f.q)) for x in xs]
            got_count, want_count = OpCounter(), OpCounter()
            with f.count_into(got_count):
                got = lagrange_interpolate(m, pts)
            with f.count_into(want_count):
                want = dense_lagrange(f, pts)
            assert got == want and got_count == want_count
        pts = [(x, rng.randrange(1, f.q)) for x in xs]
        other = next(x for x in range(f.q) if x not in xs)
        for wrong in (master(f, xs[:-1]), master(f, xs + [other]), UniPoly.zero(f)):
            with f.count_into(OpCounter()) as c:
                with pytest.raises(ValueError, match="master of degree"):
                    lagrange_interpolate(wrong, pts)
            assert c == OpCounter()
        # the missed x is the last point's, in the last block at every block size
        with pytest.raises(InexactDivision):
            lagrange_interpolate(master(f, xs[:-1] + [other]), pts)


class TestEvalMany:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
    def test_equals_eval_at(self, field, block, monkeypatch):
        # eval_at is eval_many at one point; both must give Horner's values and counts
        monkeypatch.setattr(polynomials, "GATHER_BLOCK", block)
        rng = random.Random(field.q * 17 + block)
        for p, xs in eval_many_cases(field, rng):
            got_count, want_count = OpCounter(), OpCounter()
            with field.count_into(got_count):
                got = p.eval_many(xs)
            with field.count_into(want_count):
                want = [horner(p, int(x)) for x in xs]
            assert got.tolist() == want, (p, xs)
            assert got_count == want_count and got_count.multiplications == max(p.coeffs.size - 1, 0) * xs.size
            with field.count_into(OpCounter()) as c:
                assert [p.eval_at(int(x)) for x in xs] == want
            assert c == want_count


class TestMul:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f"q{f.q}")
    def test_equals_dense_loop(self, field, block, monkeypatch):
        # one dense_products row, charged what scaling the longer factor per coefficient of the shorter charges
        monkeypatch.setattr(polynomials, "GATHER_BLOCK", block)
        rng = random.Random(field.q * 19 + block)
        polys = [UniPoly.zero(field), constant(field, rng.randrange(1, field.q)), UniPoly(field, [0, 0, 1])]
        polys += [random_unipoly(field, rng, rng.choice([3, 30])) for _ in range(8)]
        for p in polys:
            for q in polys:
                got_count, want_count = OpCounter(), OpCounter()
                with field.count_into(got_count):
                    got = p.mul(q)
                with field.count_into(want_count):
                    want = dense_mul(p, q)
                assert got == want, (p, q)
                assert got_count == want_count and got_count.additions == 0, (p, q)


class TestKernelMemory:
    """The kernels' temporaries stay O(block + output) over GF(2^16), where q and N are large.

    A block is GATHER_BLOCK entries, or for Lagrange LAGRANGE_BLOCK points times k + 1 powers.
    """

    LIMIT_MB = 4
    LAGRANGE_LIMIT_MB = 9

    def peak_mb(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_root_product_and_eval_many_peaks(self):
        f = Field(16, 0x1100B)
        rng = np.random.default_rng(16)
        xs = rng.choice(f.q, 1000, replace=False)
        exps = rng.integers(0, 6, xs.size)
        assert exps.sum() > 2000
        with f.count_into(OpCounter()):
            assert self.peak_mb(lambda: root_product(f, xs, exps)) < self.LIMIT_MB
            p = UniPoly(f, rng.integers(0, f.q, 4001))
            points = f.elements[1:]
            assert self.peak_mb(lambda: p.eval_many(points)) < self.LIMIT_MB

    def test_lagrange_peak(self):
        # 2,000 points with y != 0: eight blocks of a 2,001 x LAGRANGE_BLOCK power table of uint32 logs
        f = Field(16, 0x1100B)
        rng = np.random.default_rng(17)
        xs = rng.choice(f.q, 2000, replace=False)
        pts = list(zip(xs.tolist(), rng.integers(1, f.q, xs.size).tolist()))
        with f.count_into(OpCounter()):
            assert self.peak_mb(lambda: interpolate(f, pts)) < self.LAGRANGE_LIMIT_MB


class TestWeightedDegree:
    def test_q31_total_degree(self, q31):
        assert wdeg(q31, 1, 1) == 3

    def test_zero(self, gf8):
        assert wdeg(BiPoly.zero(gf8), 1, 1) == NEG_INF
        assert wdeg(BiPoly.zero(gf8), 1, -1) == NEG_INF

    def test_h63_reduced_weight(self, h63):
        assert wdeg(h63, 1, -1) == 0

    def test_negative_weights_allowed(self, gf8):
        p = BiPoly.y_power(gf8, 2)
        assert wdeg(p, 1, -1) == -2


class TestLeadingMonomial:
    def test_q31_under_total_order(self, q31):
        assert q31.leading_monomial(MonomialOrder.weighted(2)) == (1, 2, 1)

    def test_constant(self, gf8):
        assert from_arrays(gf8, [[1]]).leading_monomial(MonomialOrder(1, 1)) == (0, 0, 1)

    def test_reduced_order_table_row(self, gf8):
        from rslist.polynomials import ORDER_REDUCED

        g3 = parse_poly_text(
            gf8,
            "(a^5 + a^4*X + a*X^2 + X^3)*Y^3 + (a^5 + a^3*X)*Y^2 + (1 + X)*Y",
        )
        assert g3.leading_monomial(ORDER_REDUCED) == (3, 3, 1)

    def test_zero_raises(self, gf8):
        with pytest.raises(ZeroPolynomial):
            BiPoly.zero(gf8).leading_monomial(MonomialOrder(1, 1))


class TestTaylorShift:
    def test_xy_expansion(self, gf8):
        a = gf8.from_exponent
        p = from_arrays(gf8, [[0], [0, 1]])  # X*Y
        x, y = a(2), a(5)
        s = taylor_shift(p, x, y)
        # (X + x)(Y + y) = XY + yX + xY + xy
        assert s.coef(1, 1) == 1
        assert s.coef(1, 0) == y
        assert s.coef(0, 1) == x
        assert s.coef(0, 0) == gf8.mul(x, y)

    def test_identity_shift(self, q31):
        assert taylor_shift(q31, 0, 0) == q31

    def test_q31_double_point(self, gf8, q31):
        a = gf8.from_exponent
        s = taylor_shift(q31, a(1), a(4))
        assert s.coef(0, 0) == 0 and s.coef(1, 0) == 0 and s.coef(0, 1) == 0

    def test_shifted_coef_matches_full_shift(self, gf8):
        rng = random.Random(11)
        for _ in range(60):
            p = random_bipoly(gf8, rng, 5, 3)
            x, y = rng.randrange(8), rng.randrange(8)
            full = taylor_shift(p, x, y)
            for a in range(4):
                for b in range(4):
                    assert shifted_coef(p, x, y, a, b) == full.coef(a, b)


class TestMultiplicity:
    def test_q31_points(self, gf8, q31):
        a = gf8.from_exponent
        assert multiplicity_at(q31, a(1), a(4)) == 2
        assert multiplicity_at(q31, 1, 1) == 1

    def test_line_through_point(self, gf8):
        rng = random.Random(4)
        fpoly = random_unipoly(gf8, rng, 3)
        xi = 3
        line = BiPoly(gf8, [fpoly, UniPoly.one(gf8)])  # Y - f(X)
        assert multiplicity_at(line, xi, fpoly.eval_at(xi)) == 1

    def test_zero_raises(self, gf8):
        with pytest.raises(ZeroPolynomial):
            multiplicity_at(BiPoly.zero(gf8), 0, 0)


class TestSubstitutions:
    def test_q31_shift_gives_q33(self, gf8, q31):
        a = gf8.from_exponent
        e = UniPoly(gf8, [a(5), a(6)])
        assert sub_y_shift(q31, e) == parse_poly_text(gf8, Q_SHIFTED)

    def test_zero_shift_identity(self, q31):
        assert sub_y_shift(q31, UniPoly.zero(q31.field)) == q31

    def test_y_plus_e(self, gf8):
        e = UniPoly(gf8, [3, 5])
        y = BiPoly.y_power(gf8, 1)
        assert sub_y_shift(y, e) == BiPoly(gf8, [e, UniPoly.one(gf8)])

    def test_scale_substitution(self, gf8):
        rng = random.Random(5)
        p = random_bipoly(gf8, rng, 3, 2)
        g = UniPoly(gf8, [3, 1])
        b = sub_y_scale(p, g)
        for x in gf8.all_elements():
            for y in gf8.all_elements():
                lhs = y_eval(b, constant(gf8, y)).eval_at(x)
                yg = gf8.mul(y, g.eval_at(x))
                rhs = y_eval(p, constant(gf8, yg)).eval_at(x)
                assert lhs == rhs


class TestReconstruct:
    def test_worked_reconstruction(self, gf8, h63, q31):
        a = gf8.from_exponent
        g = x_plus(gf8, a(1)).mul(x_plus(gf8, a(2)))
        psi = x_plus(gf8, a(1)).mul(x_plus(gf8, a(1))).mul(x_plus(gf8, a(2)))
        e = UniPoly(gf8, [a(5), a(6)])
        assert reconstruct(h63, psi, g, e) == q31
        assert reconstruct(h63, psi, g, UniPoly.zero(gf8)) == parse_poly_text(gf8, Q_SHIFTED)

    def test_zero(self, gf8):
        z = BiPoly.zero(gf8)
        one = UniPoly.one(gf8)
        assert reconstruct(z, one, one, one).is_zero

    def test_inexact_structure_rejected(self, gf8):
        a = gf8.from_exponent
        g = x_plus(gf8, a(1)).mul(x_plus(gf8, a(2)))
        psi = g
        # Y coefficient not divisible by g: psi*1/g^1 is not a polynomial
        h = BiPoly(gf8, [UniPoly.zero(gf8), constant(gf8, a(3))])
        bad = BiPoly(gf8, [UniPoly.zero(gf8), x_plus(gf8, a(4))])
        assert not reconstruct(h, psi, g, UniPoly.zero(gf8)).is_zero
        with pytest.raises(InexactDivision):
            reconstruct(bad, UniPoly.one(gf8), g, UniPoly.zero(gf8))


class TestTextForms:
    def test_roundtrip_golden(self, gf8, q31, h63):
        assert q31.to_text() == Q_DIRECT
        assert h63.to_text() == H_REDUCED
        assert parse_poly_text(gf8, q31.to_text()) == q31

    def test_json_roundtrip(self, gf8):
        rng = random.Random(9)
        p = random_bipoly(gf8, rng, 4, 3)
        assert bipoly_from_json(gf8, p.to_json()) == p

    def test_zero_text(self, gf8):
        assert BiPoly.zero(gf8).to_text() == "0"
        assert UniPoly.zero(gf8).to_text() == "0"


class TestProperties:
    CASES = 80

    def fields(self, gf8, gf16):
        return [gf8, gf16]

    def test_shift_involution(self, gf8, gf16):
        properties.check_shift_involution(random.Random(101), [gf8, gf16], self.CASES)

    def test_scale_substitution_multiplicity(self, gf8, gf16):
        properties.check_scale_substitution_multiplicity(random.Random(102), [gf8, gf16], self.CASES)

    def test_shift_substitution_multiplicity(self, gf8, gf16):
        properties.check_shift_substitution_multiplicity(random.Random(103), [gf8, gf16], self.CASES)

    def test_zero_y_divisibility(self, gf8, gf16):
        properties.check_zero_y_multiplicity_divisibility(random.Random(104), [gf8, gf16], self.CASES)

    def test_multiplicity_valuation(self, gf8, gf16):
        properties.check_multiplicity_valuation(random.Random(105), [gf8, gf16], self.CASES)

    def test_wdeg_preserved_by_shift(self, gf8, gf16):
        properties.check_wdeg_preserved_by_shift(random.Random(106), [gf8, gf16], self.CASES)
