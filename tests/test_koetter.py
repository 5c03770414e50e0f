import random

import pytest

from rslist.galois import OpCounter
from rslist.koetter import (
    BasisState,
    DuplicatePoint,
    InterpolationPoint,
    InterpolationProblem,
    delta_star,
    format_trace_row,
    monomial_count_chi,
    n_constraints,
    solve,
    update_basis,
)
from rslist.polynomials import BiPoly, MonomialOrder, UniPoly

import golden_tables as gt
from conftest import random_planted_problem

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
        return BasisState([BiPoly.y_power(gf8, j) for j in range(r + 1)], order)

    def test_first_constraint_of_worked_instance(self, gf8):
        a = gf8.from_exponent
        state = self.make_initial(gf8)
        state = update_basis(state, a(1), lambda p: p.shifted_coef(a(1), a(4), 0, 0))
        got = {j: state.polys[j].to_text() for j in range(4)}
        want = dict(gt.TABLE_DIRECT[0][3])
        assert got == want

    def test_all_zero_discrepancies_noop(self, gf8):
        state = self.make_initial(gf8)
        same = update_basis(state, 3, lambda p: 0)
        assert same is state

    def test_shifted_problem_second_constraint(self, gf8):
        a = gf8.from_exponent
        state = self.make_initial(gf8)
        state = update_basis(state, a(1), lambda p: p.shifted_coef(a(1), 0, 0, 0))
        state = update_basis(state, a(1), lambda p: p.shifted_coef(a(1), 0, 0, 1))
        assert state.polys[1].to_text() == "(a + X)*Y"
        assert state.polys[0].to_text() == "(a + X)"
        assert state.polys[2] == BiPoly.y_power(gf8, 2)
        assert state.polys[3] == BiPoly.y_power(gf8, 3)

    def test_exactly_one_leading_gains_x_degree(self, gf8):
        rng = random.Random(17)
        state = self.make_initial(gf8)
        for _ in range(6):
            x, y = rng.randrange(1, 8), rng.randrange(8)
            before = list(state.leadings)
            after_state = update_basis(state, x, lambda p: p.shifted_coef(x, y, 0, 0))
            if after_state is state:
                continue
            after = after_state.leadings
            grew = [j for j in range(4) if after[j] == (before[j][0] + 1, before[j][1])]
            same = [j for j in range(4) if after[j] == before[j]]
            assert len(grew) == 1 and len(same) == 3
            after_state.validate()
            state = after_state


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
                assert p.multiplicity_at(pt.x, pt.y) >= pt.mult
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
                    assert poly.multiplicity_at(q.x, q.y) >= q.mult

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
        lead = UniPoly.x_plus(gf8, a(3))
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
