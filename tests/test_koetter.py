import copy
import dataclasses
import random

import numpy as np
import pytest

from rslist import koetter
from rslist.galois import OpCounter
from rslist.koetter import (
    MIN_WIDTH,
    BasisState,
    BasisTensor,
    ConstraintPoint,
    DuplicatePoint,
    InterpolationPoint,
    InterpolationProblem,
    constraint_schedule,
    delta_star,
    format_trace_row,
    monomial_count_chi,
    n_constraints,
    solve,
    update_basis,
)
from rslist.polynomials import ORDER_REDUCED, BiPoly, InexactDivision, MonomialOrder, UniPoly
from rslist.reencoding import TooManyErasures, prepare_reduced, solve_reduced

import golden_tables as gt
import reference_koetter
from conftest import random_planted_problem, random_repeated_x_problem
from poly_helpers import multiplicity_at, taylor_shift, x_plus

LARGE_PROFILE_MULTS = [7] * 229 + [6] * 12 + [5] * 10 + [4] * 4 + [3] * 3 + [2] * 10 + [1] * 10


class TestFormulas:
    def test_n_constraints_worked_problem(self):
        assert n_constraints([2, 1, 1, 1, 1, 1, 1]) == 9

    def test_n_constraints_large_profile(self):
        assert n_constraints(LARGE_PROFILE_MULTS) == 6912

    def test_n_constraints_single(self):
        assert n_constraints([1]) == 1

    def test_chi_total_degree(self):
        assert monomial_count_chi(3, 2) == 10
        for d in range(30):
            assert monomial_count_chi(d, 2) == (d + 1) * (d + 2) // 2

    def test_chi_delta_zero(self):
        for k in range(2, 10):
            assert monomial_count_chi(0, k) == 1

    def test_chi_at_published_thresholds(self):
        # The delta* = 1598 / r = 6 figures pair with the 6192 equation count:
        # chi(1597) = 6188 <= 6192 < 6195 = chi(1598). With the profile's true
        # 6912 equations the threshold lands at 1697 instead.
        assert monomial_count_chi(1598, 239) == 6195
        assert monomial_count_chi(1597, 239) == 6188
        assert monomial_count_chi(1696, 239) == 6912
        assert monomial_count_chi(1697, 239) == 6920

    def test_delta_star_worked_problem(self):
        assert delta_star(9, 2) == (3, 3)

    def test_delta_star_small(self):
        assert delta_star(1, 2) == (1, 1)

    def test_delta_star_published_pair(self):
        assert delta_star(6192, 239) == (1598, 6)

    def test_delta_star_true_profile_count(self):
        assert delta_star(6912, 239) == (1697, 7)

    @pytest.mark.parametrize("k", [0, -1])
    def test_delta_star_rejects_k_below_1(self, k):
        # the doubling search would never end: chi(delta, k) < 0 for k < 1
        with pytest.raises(ValueError):
            delta_star(9, k)


class TestUpdateBasis:
    def make_initial(self, gf8, r=3, k=2):
        order = MonomialOrder.weighted(k)
        return BasisTensor(BasisState([BiPoly.y_power(gf8, j) for j in range(r + 1)], order))

    def at(self, basis, x, y, mult=1):
        return ConstraintPoint(basis.field, InterpolationPoint(x, y, mult), len(basis.sizes) - 1)

    def test_first_constraint_of_worked_instance(self, gf8):
        a = gf8.from_exponent
        basis = self.make_initial(gf8)
        assert update_basis(basis, self.at(basis, a(1), a(4), 2), 0, 0)
        got = {j: p.to_text() for j, p in enumerate(basis.state().polys)}
        want = dict(gt.TABLE_DIRECT[0][3])
        assert got == want

    def test_all_zero_discrepancies_noop(self, gf8):
        basis = self.make_initial(gf8)
        assert update_basis(basis, self.at(basis, 3, 5), 0, 0)
        before = (basis.coeffs.copy(), basis.sizes.copy(), list(basis.leadings))
        assert not update_basis(basis, self.at(basis, 3, 5), 0, 0)
        assert (basis.coeffs == before[0]).all() and (basis.sizes == before[1]).all()
        assert basis.leadings == before[2]

    def test_shifted_problem_second_constraint(self, gf8):
        a = gf8.from_exponent
        basis = self.make_initial(gf8)
        point = self.at(basis, a(1), 0, 2)
        update_basis(basis, point, 0, 0)
        update_basis(basis, point, 0, 1)
        polys = basis.state().polys
        assert polys[1].to_text() == "(a + X)*Y"
        assert polys[0].to_text() == "(a + X)"
        assert polys[2] == BiPoly.y_power(gf8, 2)
        assert polys[3] == BiPoly.y_power(gf8, 3)

    def test_exactly_one_leading_gains_x_degree(self, gf8):
        rng = random.Random(17)
        basis = self.make_initial(gf8)
        for _ in range(6):
            x, y = rng.randrange(1, 8), rng.randrange(8)
            before = list(basis.leadings)
            if not update_basis(basis, self.at(basis, x, y), 0, 0):
                continue
            after = basis.leadings
            grew = [j for j in range(4) if after[j] == (before[j][0] + 1, before[j][1])]
            same = [j for j in range(4) if after[j] == before[j]]
            assert len(grew) == 1 and len(same) == 3
            basis.state().validate()

    def test_capacity_doubles_past_min_width(self, gf8):
        basis = self.make_initial(gf8, r=0)
        point = self.at(basis, 3, 5, MIN_WIDTH + 2)
        for a in range(MIN_WIDTH + 1):
            assert update_basis(basis, point, a, 0)
        assert basis.coeffs.shape[2] == 2 * MIN_WIDTH
        want = UniPoly.one(gf8)
        for _ in range(MIN_WIDTH + 1):
            want = want.mul_linear(3)
        assert basis.state().polys == [BiPoly(gf8, [want])]


class TestSolve:
    def test_worked_problem_output(self, gf8, worked_problem):
        res = solve(worked_problem)
        assert res.minimal.to_text() == gt.Q_DIRECT
        assert (res.n_constraints, res.delta_star, res.r) == (9, 3, 3)

    def test_worked_problem_trace_rows(self, gf8, worked_problem):
        res = solve(worked_problem, collect_trace=True)
        assert len(res.trace) == 9
        for i, (x, y, m, rows) in enumerate(gt.TABLE_DIRECT):
            if i == 1:
                continue  # published row 2 reflects the transposed constraint order
            got = {j: p.to_text() for j, p in res.trace[i].basis}
            assert got == dict(rows), f"row {i + 1}"
        got2 = {j: p.to_text() for j, p in res.trace[1].basis}
        assert got2 == dict(gt.DIRECT_ROW2_SCHEDULED)

    def test_worked_problem_trace_ascending_order(self, gf8, worked_problem):
        res = solve(worked_problem, collect_trace=True)
        for i, (x, y, m, rows) in enumerate(gt.TABLE_DIRECT):
            if i == 1:
                continue
            assert [j for j, _ in res.trace[i].basis] == [j for j, _ in rows], f"row {i + 1}"

    def test_shifted_worked_instance_output_and_trace(self, gf8):
        pts = [
            InterpolationPoint(gf8.parse_element(x), gf8.parse_element(y), m)
            for x, y, m in gt.TABLE_SHIFTED_POINTS
        ]
        res = solve(InterpolationProblem(gf8, pts, 2), collect_trace=True)
        assert res.minimal.to_text() == gt.Q_SHIFTED
        assert len(res.trace) == 9
        for i, (x, y, m, rows) in enumerate(gt.TABLE_SHIFTED):
            got = {j: p.to_text() for j, p in res.trace[i].basis}
            assert got == dict(rows), f"row {i + 1}"

    def test_empty_problem(self, gf8):
        res = solve(InterpolationProblem(gf8, [], 2))
        assert res.minimal == BiPoly.from_arrays(gf8, [[1]])

    def test_duplicate_point_rejected(self, gf8):
        prob = InterpolationProblem(
            gf8, [InterpolationPoint(1, 2, 1), InterpolationPoint(1, 2, 1)], 2
        )
        with pytest.raises(DuplicatePoint):
            solve(prob)

    @pytest.mark.parametrize(
        "points,k",
        [
            ([InterpolationPoint(1, 2, 1)], 0),
            ([InterpolationPoint(1, 2, 1)], -1),
            ([InterpolationPoint(9, 2, 1)], 2),
            ([InterpolationPoint(1, 8, 1)], 2),
            ([InterpolationPoint(-1, 2, 1)], 2),
        ],
    )
    def test_out_of_range_problem_rejected(self, gf8, points, k):
        with pytest.raises(ValueError):
            InterpolationProblem(gf8, points, k).validate()
        with pytest.raises(ValueError):
            solve(InterpolationProblem(gf8, points, k))

    def test_all_constraints_satisfied(self, gf8, worked_problem):
        res = solve(worked_problem)
        for p in res.basis.polys:
            for pt in worked_problem.points:
                assert multiplicity_at(p, pt.x, pt.y) >= pt.mult
        res.basis.validate()

    def test_basis_satisfies_constraints_after_each_point(self, gf8, worked_problem):
        res = solve(worked_problem, collect_trace=True)
        idx = 0
        seen = []
        for pt in worked_problem.points:
            idx += pt.mult * (pt.mult + 1) // 2
            seen.append(pt)
            for _, poly in res.trace[idx - 1].basis:
                for q in seen:
                    assert multiplicity_at(poly, q.x, q.y) >= q.mult

    def test_output_leading_ydegrees_stay_distinct(self, gf16):
        rng = random.Random(23)
        for _ in range(10):
            prob, _ = random_planted_problem(rng, [gf16])
            res = solve(prob)
            res.basis.validate()

    def test_q31_factorization(self, gf8, worked_problem):
        a = gf8.from_exponent
        res = solve(worked_problem)
        f1 = UniPoly(gf8, [a(6), a(2)])
        f2 = UniPoly(gf8, [a(5), a(6)])
        lead = x_plus(gf8, a(3))
        prod_rows = [
            f1.mul(f2).mul(lead),
            (f1 + f2).mul(lead),
            lead,
        ]
        assert BiPoly(gf8, prod_rows) == res.minimal
        assert res.minimal.y_eval(f1).is_zero and res.minimal.y_eval(f2).is_zero

    def test_complexity_scaling(self, gf16):
        # multiplication count grows no worse than ~quadratically in N
        rng = random.Random(31)
        counts = {}
        for n_pts in (6, 12):
            xs = rng.sample(gf16.all_elements()[1:], n_pts)
            pts = [InterpolationPoint(x, rng.randrange(16), 1) for x in xs]
            prob = InterpolationProblem(gf16, pts, 3)
            ctr = OpCounter()
            with gf16.count_into(ctr):
                solve(prob)
            counts[n_pts] = ctr.multiplications
        assert counts[12] <= 8 * counts[6]

    def test_trace_row_format(self, gf8, worked_problem):
        res = solve(worked_problem, collect_trace=True)
        line = format_trace_row(gf8, res.trace[0])
        assert line == "(a, a^4) m=2 | G0 = (a + X) | G1 = Y + a^4 | G2 = Y^2 + a | G3 = Y^3 + a^5"


class TestMatchesReferenceEngine:
    """The tensor engine against the per-polynomial one in tests/reference_koetter.py.

    Both must give the same minimal polynomial, the same trace text and the
    same counters, and raise InexactDivision on the same inputs.
    """

    CASES = 60

    def run(self, solver, f, arg):
        """(minimal polynomial, trace text, counters) or ("InexactDivision", counters), and the result."""
        ctr = OpCounter()
        with f.count_into(ctr):
            try:
                res = solver(arg, collect_trace=True)
            except InexactDivision:
                return ("InexactDivision", ctr.snapshot()), None
        trace = [format_trace_row(f, row) for row in res.trace]
        return (res.minimal.to_text(), trace, ctr.snapshot()), res

    def assert_same(self, solver, reference, f, arg):
        got, res = self.run(solver, f, arg)
        assert got == self.run(reference, f, arg)[0]
        return res

    @staticmethod
    def width(res):
        return max(c.coeffs.size for p in res.basis.polys for c in p.ycoeffs)

    def problems(self, seed, fields):
        rng = random.Random(seed)
        for i in range(self.CASES):
            if i % 2:
                yield random_repeated_x_problem(rng, fields)[0]
            else:
                yield random_planted_problem(rng, fields, max_constraints=20, max_mult=3)[0]

    def test_direct_path(self, gf8, gf16):
        crossed = zero_y = 0
        for prob in self.problems(81, [gf8, gf16]):
            res = self.assert_same(solve, reference_koetter.solve, prob.field, prob)
            crossed += self.width(res) > MIN_WIDTH
            zero_y += any(p.y == 0 for p in prob.points)
        assert crossed >= 10 and zero_y >= 10

    def test_reduced_path(self, gf8, gf16):
        crossed = zero_y = t_star_mult_3 = 0
        for prob in self.problems(82, [gf8, gf16]):
            try:
                _, ctx, _, _ = prepare_reduced(prob)
            except TooManyErasures:
                continue
            res = self.assert_same(solve_reduced, reference_koetter.solve_reduced, prob.field, ctx)
            crossed += self.width(res) > MIN_WIDTH
            zero_y += any(p.y == 0 for p in ctx.s_star + ctx.t_star)
            t_star_mult_3 += any(p.mult == 3 for p in ctx.t_star)
        assert crossed >= 1 and zero_y >= 10 and t_star_mult_3 >= 3

    def test_corrupted_tails_raise_alike(self, gf8, gf16):
        # with every tail 1 the T* rows lose their divisibility, and both engines must notice
        # it with the same counts: what the per-polynomial loop charged before its division failed
        rng = random.Random(83)
        raised = 0
        for _ in range(self.CASES):
            prob, _ = random_repeated_x_problem(rng, [gf8, gf16])
            _, ctx, _, _ = prepare_reduced(prob)
            ctx = dataclasses.replace(ctx, tails=[UniPoly.one(prob.field)] * (ctx.r + 1))
            got = self.run(solve_reduced, prob.field, ctx)[0]
            assert got == self.run(reference_koetter.solve_reduced, prob.field, ctx)[0]
            raised += got[0] == "InexactDivision"
        assert 0 < raised < self.CASES

    def test_direct_calls_charge_each_point(self, gf8, gf16):
        # a point's discrepancy charges wait for its last constraint, so a caller that imposes
        # a point's schedule through update_basis must still be charged all of it
        def points_of(prob):
            try:
                _, ctx, _, _ = prepare_reduced(prob)
            except TooManyErasures:
                return
            polys = [BiPoly(prob.field, [UniPoly.zero(prob.field)] * j + [ctx.tails[j]]) for j in range(ctx.r + 1)]
            yield BasisState(polys, ORDER_REDUCED), ctx.s_star + ctx.t_star, ctx.v
            r = delta_star(n_constraints(p.mult for p in prob.points), prob.k)[1]
            state = BasisState([BiPoly.y_power(prob.field, j) for j in range(r + 1)], MonomialOrder.weighted(prob.k))
            yield state, prob.points, {}

        checked = t_star = 0
        for prob in self.problems(84, [gf8, gf16]):
            f = prob.field
            for state, points, v in points_of(prob):
                r = len(state.polys) - 1
                for pt in points:
                    ours, theirs = OpCounter(), OpCounter()
                    basis = BasisTensor(state)
                    with f.count_into(ours):
                        point = ConstraintPoint(f, pt, r, v.get(pt.x))
                        for a, b in constraint_schedule(pt.mult):
                            update_basis(basis, point, a, b)
                    if pt.x in v:
                        disc = reference_koetter.transformed_discrepancy(v, f, r)
                    else:
                        disc = reference_koetter.standard_discrepancy(f, r)
                    with f.count_into(theirs):
                        state = reference_koetter.run_constraints(state, [pt], disc, None)
                    assert ours.snapshot() == theirs.snapshot()
                    assert basis.state().polys == state.polys
                    checked += 1
                    t_star += pt.x in v
        assert checked >= 500 and t_star >= 50


class TestHasseTable:
    """A point's kept table of mixed Hasse derivatives against the basis it describes, after every constraint.

    Entry [j, a, b] of `ConstraintPoint.table` is the (a, b) Hasse
    derivative at the point of G_j (of its transform at a T* point), that
    is constraint (a, b)'s discrepancy. update_basis builds the table on a
    point's first constraint and then carries it through each step; a fresh
    build from the current BasisTensor must give the same table, on every
    entry.
    """

    CASES = 60

    def problems(self, seed, fields):
        rng = random.Random(seed)
        for i in range(self.CASES):
            if i % 2:
                yield random_repeated_x_problem(rng, fields)[0]
            else:
                yield random_planted_problem(rng, fields, max_constraints=20, max_mult=3)[0]

    @pytest.fixture
    def checked(self, monkeypatch):
        """Wrap update_basis so that every constraint compares the kept table with a fresh one."""
        seen = {"points": set(), "doubled": 0}
        real = koetter.update_basis

        def update_basis(basis, point, a, b):
            changed = real(basis, point, a, b)
            fresh = copy.copy(point)
            fresh.build(basis.field, basis.coeffs, basis.sizes)
            np.testing.assert_array_equal(point.table, fresh.table)
            seen["points"].add((point.x, point.y, point.v, point.mult))
            seen["doubled"] |= basis.coeffs.shape[2] > MIN_WIDTH
            return changed

        monkeypatch.setattr(koetter, "update_basis", update_basis)
        return seen

    def test_direct_path(self, gf8, gf16, checked):
        doubled = 0
        for prob in self.problems(91, [gf8, gf16]):
            checked["doubled"] = 0
            solve(prob)
            doubled += checked["doubled"]
        points = checked["points"]
        assert any(x == 0 for x, _, _, _ in points) and any(y == 0 for _, y, _, _ in points)
        assert doubled >= 5

    def test_reduced_path(self, gf8, gf16, checked):
        doubled = t_star_mult_3 = 0
        for prob in self.problems(92, [gf8, gf16]):
            try:
                _, ctx, _, _ = prepare_reduced(prob)
            except TooManyErasures:
                continue
            checked["doubled"] = 0
            solve_reduced(ctx)
            doubled += checked["doubled"]
            t_star_mult_3 += any(p.mult == 3 for p in ctx.t_star)
        points = checked["points"]
        assert any(x == 0 for x, _, _, _ in points) and any(y == 0 for _, y, _, _ in points)
        assert any(v is not None for _, _, v, _ in points)
        assert doubled >= 1 and t_star_mult_3 >= 3

    def test_build_matches_taylor_shift(self, gf8, gf16):
        # entry [j, a, b] is the X^a Y^b coefficient of G_j(X + x, Y + y)
        for prob in self.problems(93, [gf8, gf16]):
            f = prob.field
            state = solve(prob).basis
            basis = BasisTensor(state)
            for pt in prob.points[:3]:
                point = ConstraintPoint(f, pt, len(state.polys) - 1)
                point.build(f, basis.coeffs, basis.sizes)
                shifted = [taylor_shift(p, pt.x, pt.y) for p in state.polys]
                want = [[[p.ycoef(b).coef(a) for b in range(pt.mult)] for a in range(pt.mult)] for p in shifted]
                np.testing.assert_array_equal(point.table, want)
