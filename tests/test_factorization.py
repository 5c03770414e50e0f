import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rslist import factorization
from rslist.factorization import (
    ACCEPTED,
    CONVOLUTION_NONZERO_TAIL,
    DEGREE_EXCEEDS_TAU,
    INSUFFICIENT_ROOTS,
    ZERO_ERROR_VALUE,
    _rr_levels,
    berlekamp_massey,
    corrected_message,
    error_values,
    factor_reduced,
    find_error_locations,
    polynomial_y_roots,
    rr_power_series,
    univariate_roots,
)
from rslist.galois import GF8_POLY, GF16_POLY, GF256_POLY, Field, OpCounter
from rslist.koetter import InterpolationPoint, InterpolationProblem, delta_star, n_constraints
from rslist.polynomials import BiPoly, UniPoly, ZeroPolynomial, lagrange_interpolate
from rslist.reencoding import ReencodingSet, build_context, prepare_reduced, solve_reduced

import reference_rr
from conftest import random_unipoly
from poly_helpers import (
    constant,
    exact_div,
    from_arrays,
    master,
    mul_linear,
    psi_of,
    reconstruct,
    scale_poly,
    shift_y,
    x_plus,
    y_degree,
    y_eval,
)
import golden_tables as gt


@pytest.fixture
def worked_ctx(worked_problem):
    return prepare_reduced(worked_problem)


@pytest.fixture
def worked_h(worked_ctx):
    """The reduced interpolation polynomial of the worked instance."""
    return solve_reduced(worked_ctx).minimal


def make_ctx(f, pts):
    """The reduced context of re-encoding set `pts` with no other points, at r = 1."""
    g = master(f, [p.x for p in pts])
    e = lagrange_interpolate(g, [(p.x, p.y) for p in pts])
    n = n_constraints(p.mult for p in pts)
    return build_context(ReencodingSet(list(pts), g, e, list(range(len(pts)))), [], n, delta_star(n, len(pts))[0], 1)


class TestPowerSeries:
    def test_worked_problemd_branches(self, gf8, worked_h):
        branches = rr_power_series(worked_h, 8)
        assert len(branches) == 2
        assert branches[0] == [0] * 8
        assert [gf8.format_element(g) for g in branches[1]] == gt.ERROR_BRANCH_SYNDROMES

    def test_pure_y(self, gf8):
        assert rr_power_series(BiPoly.y_power(gf8, 1), 6) == [[0] * 6]

    def test_constant_root(self, gf8):
        c = gf8.from_exponent(4)
        h = BiPoly(gf8, [constant(gf8, c), UniPoly.one(gf8)])  # Y - c
        assert rr_power_series(h, 5) == [[c, 0, 0, 0, 0]]

    def test_zero_polynomial_raises(self, gf8):
        with pytest.raises(ZeroPolynomial):
            rr_power_series(BiPoly.zero(gf8), 4)

    def test_branch_count_capped(self, gf8):
        # (Y - a^2 X)(Y - a^4 X) has two rational roots, one branch each, and deg_Y = 2
        r1 = UniPoly(gf8, [0, gf8.from_exponent(2)])
        r2 = UniPoly(gf8, [0, gf8.from_exponent(4)])
        h = BiPoly(gf8, [r1.mul(r2), r1 + r2, UniPoly.one(gf8)])
        branches = rr_power_series(h, 4)
        assert sorted(branches) == sorted([r1.to_json() + [0, 0], r2.to_json() + [0, 0]])

    def test_levels_never_outgrow_deg_y(self, gf8):
        # a child's m(0, Y) has Y-degree at most its root's multiplicity in the
        # parent's, so no level holds more than deg_Y(h) branches
        rng = random.Random(19)
        for _ in range(200):
            rows = [[c if rng.random() < 0.4 else 0 for c in random_unipoly(gf8, rng, 4).coeffs] for _ in range(4)]
            h = from_arrays(gf8, rows)
            if not h.is_zero:
                bound = max(len(h.ycoeffs) - 1, 1)
                for d in range(1, 6):
                    assert len(_rr_levels(h, d)) <= bound

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_1_rejected(self, gf8, worked_h, depth):
        with pytest.raises(ValueError):
            rr_power_series(worked_h, depth)
        with pytest.raises(ValueError):
            polynomial_y_roots(worked_h, depth)


def rr_remainder(f, branch):
    """The remainder a log-domain branch of `_rr_levels` stands for, as a BiPoly."""
    logs, offs, lens, _ = branch
    return from_arrays(f, [f.exp[logs[j, :n] + offs[j]] for j, n in enumerate(lens)])


def random_rr_input(rng, f):
    """A random h for Roth-Ruckenstein, one of six shapes, sometimes times a power of X.

    Products of Y + p(X) have rational roots, some with p(0) = 0 (gamma = 0)
    and some repeated; sparse rows leave interior zero rows; rows of one
    length make equal-length sums whose tops may cancel; Y^d has the single
    root 0 at every level; Y^d + c has up to gcd(d, q - 1) roots; the last
    shape has an extra quadratic factor.
    """
    kind = rng.randrange(6)
    if kind in (0, 4):
        h = BiPoly(f, [random_unipoly(f, rng, 3)])
        if h.is_zero:
            h = BiPoly.y_power(f, 0)
        factors = [UniPoly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, 4))]) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            factors.append(factors[0])
        for p in factors:
            h = shift_y(h) + scale_poly(h, p)  # times Y + p
        if kind == 4:
            b, c = constant(f, rng.randrange(f.q)), constant(f, rng.randrange(1, f.q))
            h = shift_y(shift_y(h)) + scale_poly(shift_y(h), b) + scale_poly(h, c)  # times Y^2 + bY + c
    elif kind == 1:
        rows = [
            [rng.randrange(f.q) for _ in range(rng.randint(1, 7))] if rng.random() < 0.6 else []
            for _ in range(rng.randint(1, 6))
        ]
        h = from_arrays(f, rows + [[rng.randrange(1, f.q)]])
    elif kind == 2:
        width = rng.randint(1, 6)
        h = from_arrays(
            f, [[rng.randrange(f.q) for _ in range(width - 1)] + [rng.randrange(1, f.q)] for _ in range(rng.randint(2, 7))]
        )
    elif kind == 3:
        h = BiPoly.y_power(f, rng.randint(1, 5))
    else:
        d = rng.randint(2, 5)
        h = from_arrays(f, [random_unipoly(f, rng, 2).to_json() or [1]] + [[]] * (d - 1) + [[1]])
    if rng.random() < 0.3:
        e = rng.randint(1, 3)
        h = from_arrays(f, [[0] * e + c.to_json() for c in h.ycoeffs])  # times X^e
    return h


class TestMatchesReferenceRR:
    """The log-domain loop against the per-row one in tests/reference_rr.py.

    At every depth from 1 to 6 both must give the same remainders, prefixes
    and roots, and charge the same multiplications and additions.
    """

    CASES = 75
    DEPTHS = range(1, 7)

    @staticmethod
    def counted(f, fn, *args):
        ctr = OpCounter()
        with f.count_into(ctr):
            out = fn(*args)
        return out, ctr.snapshot()

    def test_same_branches_roots_and_counts(self, monkeypatch):
        cancelled = []
        real_cancelled_length = factorization._cancelled_length

        def spy_cancelled_length(terms, rows, n):
            got = real_cancelled_length(terms, rows, n)
            cancelled.append(got < n)
            return got

        shapes = set()  # (degree, nonzero terms capped at 3) of every m(0, Y) the recursion meets
        binomial_roots = []
        real_y_restriction = reference_rr.y_restriction

        def spy_y_restriction(m):
            p = real_y_restriction(m)
            terms = np.count_nonzero(p.coeffs)
            shapes.add((int(p.degree), min(terms, 3)))
            if terms == 2:
                with p.field.count_into(OpCounter()):
                    binomial_roots.append(len(univariate_roots(p)))
            return p

        monkeypatch.setattr(factorization, "_cancelled_length", spy_cancelled_length)
        monkeypatch.setattr(reference_rr, "y_restriction", spy_y_restriction)
        rng = random.Random(14)
        fields = [Field(2, 0b111), Field(3, GF8_POLY), Field(4, GF16_POLY)]
        gamma_zero = interior_zero_row = x_divides = pure_y = 0
        for i in range(self.CASES):
            f = fields[i % 3]
            h = random_rr_input(rng, f)
            for depth in self.DEPTHS:
                ref_levels, ref_ctr = self.counted(f, reference_rr.rr_levels, h, depth)
                levels, ctr = self.counted(f, _rr_levels, h, depth)
                assert ctr == ref_ctr
                assert [(rr_remainder(f, b), b[3]) for b in levels] == ref_levels
                prefixes = [prefix for _, prefix in ref_levels]
                roots = [UniPoly(f, prefix) for m, prefix in ref_levels if m.ycoef(0).is_zero]
                assert self.counted(f, rr_power_series, h, depth) == (prefixes, ref_ctr)
                assert self.counted(f, polynomial_y_roots, h, depth) == (roots, ref_ctr)
            gamma_zero += any(0 in p for p in prefixes)
            interior_zero_row += any(c.is_zero for c in h.ycoeffs[1:-1])
            x_divides += all(c.coef(0) == 0 for c in h.ycoeffs)
            pure_y += len(h.ycoeffs) > 1 and all(c.is_zero for c in h.ycoeffs[:-1]) and h.ycoeffs[-1].degree == 0
        assert gamma_zero >= 10 and interior_zero_row >= 10 and x_divides >= 10 and pure_y >= 5
        assert sum(cancelled) >= 10  # equal lengths whose sum lost its top
        # linear; single terms c*Y^d; binomials of higher degree (roots in closed form); longer ones
        assert {(1, 1), (1, 2), (2, 1), (3, 2), (2, 3)} <= shapes
        assert sum(n >= 3 for n in binomial_roots) >= 5  # Y^e = c with several solutions

    def test_large_profile_instance(self):
        # the reduced solution of instance seed 2001, whose branch lives through every level
        from rslist.bench import large_profile_problem

        problem, _ = large_profile_problem(seed=2001)
        ctx = prepare_reduced(problem)
        h = solve_reduced(ctx).minimal
        assert self.counted(h.field, rr_power_series, h, 12) == self.counted(
            h.field, reference_rr.rr_power_series, h, 12
        )


class TestRRMemory:
    def test_branches_stay_as_wide_as_their_rows(self):
        # A(X) (Y + p1)(Y + p2)(Y + p3)(Y^3 + c) over GF(256): three branches
        # live through 60 levels on rows of about 3,000 slots, and Y^3 + c
        # adds none, as c(0) = alpha is not a cube
        f = Field(8, GF256_POLY)
        rng = np.random.default_rng(3)
        h = BiPoly(f, [UniPoly(f, rng.integers(1, f.q, 3000))])
        for root in rng.integers(0, f.q, (3, 60)):
            h = shift_y(h) + scale_poly(h, UniPoly(f, root))
        c = UniPoly(f, np.concatenate([[2], rng.integers(0, f.q, 20)]))
        h = shift_y(shift_y(shift_y(h))) + scale_poly(h, c)
        box = len(h.ycoeffs) * max(c.coeffs.size for c in h.ycoeffs) * 4  # bytes of int32 rows
        with f.count_into(OpCounter()):
            tracemalloc.start()
            try:
                branches = rr_power_series(h, 60)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(branches) == 3
            assert peak < 8 * box
            for logs, _, lens, _ in _rr_levels(h, 60):
                assert logs.shape[1] == max(lens)


class TestBerlekampMassey:
    def test_all_zero_branch(self, gf8):
        pair, status = berlekamp_massey(gf8, [0] * 8)
        assert status == ACCEPTED
        assert pair.sigma == UniPoly.one(gf8)
        assert pair.omega.is_zero
        assert pair.sigma.degree == 0

    def test_worked_problemd_branch(self, gf8):
        a = gf8.from_exponent
        pair, status = berlekamp_massey(gf8, [gf8.parse_element(s) for s in gt.ERROR_BRANCH_SYNDROMES])
        assert status == ACCEPTED
        assert pair.sigma.to_json() == [1, a(5)]
        assert pair.omega.to_json() == [a(5)]
        assert pair.sigma.degree == 1

    def test_rule_b_rejection(self, gf8):
        a = gf8.from_exponent
        seq = [a(5), a(3), 0, 0]
        pair, status = berlekamp_massey(gf8, seq)
        assert pair is None and status in (DEGREE_EXCEEDS_TAU, CONVOLUTION_NONZERO_TAIL)
        # brute force: no sigma of degree <= 2 with sigma(0)=1 generates the
        # sequence with an all-zero convolution tail
        for c1, c2 in itertools.product(range(8), repeat=2):
            sigma = UniPoly(gf8, [1, c1, c2])
            t = int(sigma.degree) if not sigma.is_zero else 0
            conv = []
            for i in range(4):
                acc = 0
                for j in range(min(i, t) + 1):
                    acc ^= gf8.mul(sigma.coef(j), seq[i - j])
                conv.append(acc)
            assert any(conv[i] for i in range(t + 1, 4))

    def test_recovery_with_exact_2t_syndromes(self, gf8, gf16):
        rng = random.Random(77)
        for _ in range(40):
            f = rng.choice([gf8, gf16])
            t = rng.randint(1, 3)
            roots = rng.sample(f.all_elements()[1:], t)
            sigma = UniPoly.one(f)
            for x in roots:
                sigma = mul_linear(sigma, x)
            sigma = sigma.scale(f.inv(sigma.coef(0)))  # normalize sigma(0) = 1
            while True:
                omega = random_unipoly(f, rng, t - 1)
                if not omega.is_zero and all(omega.eval_at(x) for x in roots):
                    break
            tau = rng.randint(t, t + 2)
            series = _power_series_ratio(f, omega, sigma, 2 * tau)
            pair, status = berlekamp_massey(f, series)
            assert status == ACCEPTED
            assert pair.sigma == sigma and pair.omega == omega

    def test_bm_is_shortest_lfsr(self, gf8):
        # cross-check against exhaustive search over sigma of degree <= 2
        rng = random.Random(78)
        for _ in range(20):
            t = rng.randint(1, 2)
            roots = rng.sample(gf8.all_elements()[1:], t)
            sigma = UniPoly.one(gf8)
            for x in roots:
                sigma = mul_linear(sigma, x)
            sigma = sigma.scale(gf8.inv(sigma.coef(0)))
            omega = constant(gf8, rng.randrange(1, 8))
            series = _power_series_ratio(gf8, omega, sigma, 8)
            pair, status = berlekamp_massey(gf8, series)
            assert status == ACCEPTED
            best = None
            for degree in range(0, 3):
                for tail in itertools.product(range(8), repeat=degree):
                    cand = UniPoly(gf8, [1, *tail])
                    if int(cand.degree or 0) != degree:
                        continue
                    if _generates(gf8, cand, series):
                        best = degree
                        break
                if best is not None:
                    break
            assert int(pair.sigma.degree) == best


def _power_series_ratio(f, omega, sigma, n):
    """First n coefficients of omega/sigma with sigma(0) = 1."""
    out = []
    prev = []
    for i in range(n):
        acc = omega.coef(i)
        for j in range(1, min(i, int(sigma.degree)) + 1):
            acc ^= f.mul(sigma.coef(j), prev[i - j])
        out.append(acc)
        prev.append(acc)
    return out


def _generates(f, sigma, series):
    t = int(sigma.degree) if not sigma.is_zero else 0
    conv = []
    for i in range(len(series)):
        acc = 0
        for j in range(min(i, t) + 1):
            acc ^= f.mul(sigma.coef(j), series[i - j])
        conv.append(acc)
    return not any(conv[i] for i in range(t + 1, len(series)))


class TestErrorLocations:
    def test_worked_problemd(self, gf8, worked_ctx):
        a = gf8.from_exponent
        sigma = UniPoly(gf8, [1, a(5)])
        locs, status = find_error_locations(sigma, worked_ctx)
        assert status == ACCEPTED and locs == [1]

    def test_no_errors(self, gf8, worked_ctx):
        locs, status = find_error_locations(UniPoly.one(gf8), worked_ctx)
        assert status == ACCEPTED and locs == []

    def test_irreducible_sigma_rejected(self, gf8, worked_ctx):
        sigma = UniPoly(gf8, [1, 1, 1])  # X^2 + X + 1 has no roots in GF(8)
        assert univariate_roots(sigma) == []
        locs, status = find_error_locations(sigma, worked_ctx)
        assert locs is None and status == INSUFFICIENT_ROOTS

    def test_root_outside_reencoding_set_rejected(self, gf8, worked_ctx):
        a = gf8.from_exponent
        x = a(5)  # not a re-encoding x-coordinate
        sigma = x_plus(gf8, x).scale(gf8.inv(x))
        locs, status = find_error_locations(sigma, worked_ctx)
        assert locs is None and status == INSUFFICIENT_ROOTS


class TestErrorValues:
    def test_worked_problemd_value(self, gf8, worked_ctx):
        a = gf8.from_exponent
        from rslist.factorization import LocatorEvaluatorPair

        pair = LocatorEvaluatorPair(UniPoly(gf8, [1, a(5)]), constant(gf8, a(5)))
        values, status = error_values(pair, [1], worked_ctx)
        assert status == ACCEPTED and values == {1: a(4)}

    def test_empty_locations(self, gf8, worked_ctx):
        from rslist.factorization import LocatorEvaluatorPair

        pair = LocatorEvaluatorPair(UniPoly.one(gf8), UniPoly.zero(gf8))
        values, status = error_values(pair, [], worked_ctx)
        assert status == ACCEPTED and values == {}

    def test_zero_value_rejected(self, gf8, worked_ctx):
        a = gf8.from_exponent
        from rslist.factorization import LocatorEvaluatorPair

        # omega vanishing at the error location forces e_i = 0 (rule d)
        sigma = UniPoly(gf8, [1, a(5)])
        omega = x_plus(gf8, a(2))
        pair = LocatorEvaluatorPair(sigma, omega)
        values, status = error_values(pair, [1], worked_ctx)
        assert values is None and status == ZERO_ERROR_VALUE


class TestCorrectedMessage:
    def test_worked_problemd_with_error(self, gf8, worked_ctx):
        a = gf8.from_exponent
        f2 = corrected_message(worked_ctx, {1: a(4)})
        assert f2.to_json() == [a(6), a(2)]

    def test_no_errors_returns_e(self, gf8, worked_ctx):
        f1 = corrected_message(worked_ctx, {})
        assert f1 == worked_ctx.rset.e_poly

    def test_all_zero_values(self, gf8):
        pts = [InterpolationPoint(1, 0, 1), InterpolationPoint(2, 0, 1)]
        assert corrected_message(make_ctx(gf8, pts), {}).is_zero


class TestFactorReduced:
    def test_worked_problemd(self, gf8, worked_h, worked_ctx):
        a = gf8.from_exponent
        cands = factor_reduced(worked_h, worked_ctx, 4)
        accepted = [c for c in cands if c.accepted]
        assert {tuple(c.f.to_json()) for c in accepted} == {(a(5), a(6)), (a(6), a(2))}
        by_f = {tuple(c.f.to_json()): c for c in accepted}
        errorless = by_f[(a(5), a(6))]
        assert errorless.sigma == UniPoly.one(gf8) and errorless.omega.is_zero
        witherr = by_f[(a(6), a(2))]
        assert witherr.sigma.to_json() == [1, a(5)]
        assert witherr.omega.to_json() == [a(5)]
        assert witherr.error_positions == [1] and witherr.error_values == {1: a(4)}

    def test_pure_y_gives_e(self, gf8, worked_ctx):
        cands = factor_reduced(BiPoly.y_power(gf8, 1), worked_ctx, 4)
        accepted = [c for c in cands if c.accepted]
        assert len(accepted) == 1
        assert accepted[0].f == worked_ctx.rset.e_poly

    def test_tau_zero_rejected(self, gf8, worked_h, worked_ctx):
        with pytest.raises(ValueError):
            factor_reduced(worked_h, worked_ctx, 0)


class TestDirectRoots:
    def test_q31_roots(self, gf8, worked_problem):
        from rslist.koetter import solve

        a = gf8.from_exponent
        q = solve(worked_problem).minimal
        roots = polynomial_y_roots(q, 2)
        assert {tuple(r.to_json()) for r in roots} == {(a(5), a(6)), (a(6), a(2))}

    def test_no_roots(self, gf8):
        q = BiPoly(gf8, [UniPoly.one(gf8), UniPoly.one(gf8), UniPoly.one(gf8)])
        # Y^2 + Y + 1 has no roots over GF(8)
        assert polynomial_y_roots(q, 3) == []


class TestLinearFactorDivisibility:
    def divides_y_linear(self, h, sigma, omega):
        """True when sigma*Y - omega divides h over the polynomial ring."""
        f = h.field
        r = int(y_degree(h))
        if r < 1:
            return h.is_zero
        try:
            c = exact_div(h.ycoeffs[r], sigma)
            for j in range(r - 1, 0, -1):
                c = exact_div(h.ycoeffs[j] + omega.mul(c), sigma)
        except Exception:
            return False
        return h.ycoeffs[0] == omega.mul(c)

    def test_divides_on_example(self, gf8, worked_h):
        a = gf8.from_exponent
        assert self.divides_y_linear(worked_h, UniPoly(gf8, [1, a(5)]), constant(gf8, a(5)))
        assert self.divides_y_linear(worked_h, UniPoly.one(gf8), UniPoly.zero(gf8))

    def test_round_trip_random(self, gf8, gf16):
        rng = random.Random(90)
        done = 0
        while done < 25:
            f = rng.choice([gf8, gf16])
            k = rng.randint(2, 4)
            nonzero = f.all_elements()[1:]
            n = min(len(nonzero), k + rng.randint(2, 5))
            xs = rng.sample(nonzero, n)
            fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
            n_err = rng.randint(0, 1)
            pts = []
            for i, x in enumerate(xs):
                y = fpoly.eval_at(x)
                if i >= n - n_err:  # errors on non-re-encoded positions keep scores high
                    pass
                pts.append(InterpolationPoint(x, y, 2 if i < k else 1))
            err_pos = rng.randrange(k) if n_err else None
            if err_pos is not None:
                p = pts[err_pos]
                pts[err_pos] = InterpolationPoint(p.x, p.y ^ rng.randrange(1, f.q), p.mult)
            prob = InterpolationProblem(f, pts, k)
            ctx = prepare_reduced(prob)
            rset = ctx.rset
            h = solve_reduced(ctx).minimal
            q = reconstruct(h, psi_of(ctx), ctx.g, rset.e_poly)
            if not y_eval(q, fpoly).is_zero:
                continue  # not enough weighted agreement for divisibility
            # build sigma/omega from f's disagreements with R
            E = [i for i, p in enumerate(rset.points) if fpoly.eval_at(p.x) != p.y]
            sigma = UniPoly.one(f)
            lam = UniPoly.one(f)
            for i, p in enumerate(rset.points):
                if i in E:
                    sigma = mul_linear(sigma, p.x)
                else:
                    lam = mul_linear(lam, p.x)
            eta = fpoly + rset.e_poly
            omega = exact_div(eta, lam)
            assert self.divides_y_linear(h, sigma, omega)
            # consistency of the evaluator identity: lambda(x_i) = g'(x_i)/sigma'(x_i)
            gprime = ctx.g.formal_derivative()
            sprime = sigma.formal_derivative()
            for i in E:
                x = rset.points[i].x
                assert lam.eval_at(x) == f.div(gprime.eval_at(x), sprime.eval_at(x))
            done += 1
