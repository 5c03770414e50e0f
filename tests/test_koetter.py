import copy
import dataclasses
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rslist import koetter
from rslist.decoder import decode_direct, decode_reduced
from rslist.galois import Field, OpCounter
from rslist.koetter import (
    MIN_WIDTH,
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
from conftest import random_bipoly, random_planted_problem, random_repeated_x_problem
from poly_helpers import from_arrays, mul_linear, multiplicity_at, taylor_shift, validate_basis, x_plus, y_eval

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
        return BasisTensor([BiPoly.y_power(gf8, j) for j in range(r + 1)], order, [(0, j) for j in range(r + 1)])

    def at(self, basis, x, y, mult=1):
        return ConstraintPoint(basis.field, InterpolationPoint(x, y, mult), len(basis.sizes) - 1)

    def test_first_constraint_of_worked_instance(self, gf8):
        a = gf8.from_exponent
        basis = self.make_initial(gf8)
        assert update_basis(basis, self.at(basis, a(1), a(4), 2), 0, 0)
        got = {j: p.to_text() for j, p in enumerate(basis.polys)}
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
        polys = basis.polys
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
            validate_basis(basis)

    def test_capacity_doubles_past_min_width(self, gf8):
        basis = self.make_initial(gf8, r=0)
        point = self.at(basis, 3, 5, MIN_WIDTH + 2)
        for a in range(MIN_WIDTH + 1):
            assert update_basis(basis, point, a, 0)
        assert basis.coeffs.shape[2] == 2 * MIN_WIDTH
        want = UniPoly.one(gf8)
        for _ in range(MIN_WIDTH + 1):
            want = mul_linear(want, 3)
        assert basis.polys == [BiPoly(gf8, [want])]

    def test_update_of_many_others_peaks_at_a_few_boxes(self):
        # the others gain ratio * pivot in blocks of about GATHER_BLOCK entries, so an update's
        # temporaries stay a few pivot boxes (here 7 rows of about 3,000 slots, 82 KB in int32)
        # however many others there are; all six at once would peak at about 2.1 MB
        f = Field(16, 0x1100B)
        rng = np.random.default_rng(5)
        r = 6
        polys = [
            BiPoly(f, [UniPoly(f, rng.integers(1, f.q, rng.integers(2500, 3000))) for _ in range(r + 1)])
            for _ in range(r + 1)
        ]
        basis = BasisTensor(polys, MonomialOrder.weighted(2), [(0, j) for j in range(r + 1)])
        width = basis.coeffs.shape[2]
        with f.count_into(OpCounter()):
            point = ConstraintPoint(f, InterpolationPoint(12345, 777, 2), r)
            point.build(f, basis.coeffs, basis.sizes)
            for a, b in constraint_schedule(2):
                assert np.count_nonzero(point.table[:, a, b]) >= 5  # at least 4 others
                tracemalloc.start()
                try:
                    assert update_basis(basis, point, a, b)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 640 * 1024
        assert basis.coeffs.shape[2] == width  # no capacity doubling inside the measured updates


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
        assert res.minimal == from_arrays(gf8, [[1]])

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
        validate_basis(res.basis)

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
            validate_basis(res.basis)

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
        assert y_eval(res.minimal, f1).is_zero and y_eval(res.minimal, f2).is_zero

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
                ctx = prepare_reduced(prob)
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
            ctx = prepare_reduced(prob)
            ctx = dataclasses.replace(ctx, tails=[UniPoly.one(prob.field)] * (ctx.r + 1))
            got = self.run(solve_reduced, prob.field, ctx)[0]
            assert got == self.run(reference_koetter.solve_reduced, prob.field, ctx)[0]
            raised += got[0] == "InexactDivision"
        assert 0 < raised < self.CASES

    def test_direct_path_high_multiplicity(self, gf16):
        # multiplicities up to 7 give pivots whose last nonzero rows sit below Y^r, so the
        # update's sweeps over the pivot's live rows only are held to the per-polynomial loop
        rng = random.Random(85)
        wide = high = 0
        for _ in range(8):
            prob = random_planted_problem(rng, [gf16], max_constraints=40, max_mult=7)[0]
            res = self.assert_same(solve, reference_koetter.solve, gf16, prob)
            rows = len(res.basis.polys)
            wide += rows >= 8 and any(len(p.ycoeffs) < rows for p in res.basis.polys)
            high += max(p.mult for p in prob.points) >= 5
        assert wide >= 3 and high >= 3

    @pytest.mark.parametrize("block", [2, 48])
    def test_blocked_update_of_the_others(self, gf8, gf16, monkeypatch, block):
        # a GATHER_BLOCK of a few entries splits the others' update into several blocks; the
        # cases must also cover an other's row that cancels to length 0 and a capacity doubling
        monkeypatch.setattr(koetter, "GATHER_BLOCK", block)
        seen = {"split": 0, "cancelled": 0, "doubled": 0}
        real = koetter.update_basis

        def update_basis(basis, point, a, b):
            coeffs, sizes, leadings = basis.coeffs.copy(), basis.sizes.copy(), list(basis.leadings)
            changed = real(basis, point, a, b)
            if changed:
                width = coeffs.shape[2]
                t = next(j for j, lead in enumerate(leadings) if basis.leadings[j] != lead)
                others = sum(j != t and (basis.coeffs[j, :, :width] != coeffs[j]).any() for j in range(len(leadings)))
                box = (np.flatnonzero(sizes[t])[-1] + 1) * sizes[t].max()
                seen["split"] += bool(others > max(block // box, 1))
                seen["cancelled"] += bool(((sizes > 0) & (basis.sizes == 0)).any())
                seen["doubled"] += basis.coeffs.shape[2] > width
            return changed

        monkeypatch.setattr(koetter, "update_basis", update_basis)
        for prob in self.problems(86, [gf8, gf16]):
            self.assert_same(solve, reference_koetter.solve, prob.field, prob)
            try:
                ctx = prepare_reduced(prob)
            except TooManyErasures:
                continue
            self.assert_same(solve_reduced, reference_koetter.solve_reduced, prob.field, ctx)
        assert seen["split"] >= 50 and seen["cancelled"] >= 20 and seen["doubled"] >= 10, seen

    def test_direct_calls_charge_each_point(self, gf8, gf16):
        # a point's discrepancy charges wait for its last constraint, so a caller that imposes
        # a point's schedule through update_basis must still be charged all of it
        def points_of(prob):
            try:
                ctx = prepare_reduced(prob)
            except TooManyErasures:
                return
            polys = [BiPoly(prob.field, [UniPoly.zero(prob.field)] * j + [ctx.tails[j]]) for j in range(ctx.r + 1)]
            yield reference_koetter.BasisState(polys, ORDER_REDUCED), ctx.s_star + ctx.t_star, ctx.v
            r = delta_star(n_constraints(p.mult for p in prob.points), prob.k)[1]
            polys = [BiPoly.y_power(prob.field, j) for j in range(r + 1)]
            yield reference_koetter.BasisState(polys, MonomialOrder.weighted(prob.k)), prob.points, {}

        checked = t_star = 0
        for prob in self.problems(84, [gf8, gf16]):
            f = prob.field
            for state, points, v in points_of(prob):
                r = len(state.polys) - 1
                for pt in points:
                    ours, theirs = OpCounter(), OpCounter()
                    basis = BasisTensor(state.polys, state.order, state.leadings)
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
                    assert basis.polys == state.polys
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
                ctx = prepare_reduced(prob)
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
            basis = solve(prob).basis
            for pt in prob.points[:3]:
                point = ConstraintPoint(f, pt, len(basis.leadings) - 1)
                point.build(f, basis.coeffs, basis.sizes)
                shifted = [taylor_shift(p, pt.x, pt.y) for p in basis.polys]
                want = [[[p.ycoef(b).coef(a) for b in range(pt.mult)] for a in range(pt.mult)] for p in shifted]
                np.testing.assert_array_equal(point.table, want)

    def test_build_folds_exactly(self, gf16):
        # multiplicities 5-9 take the period-8 and period-16 folds of the Hasse table; rows
        # shorter than 8 keep the capacity at MIN_WIDTH, so a period-16 span reaches past it
        rng = random.Random(94)
        periods, ragged, past_capacity = set(), 0, 0
        for case in range(48):
            r = rng.randint(1, 4)
            polys = [random_bipoly(gf16, rng, rng.choice([3, 6, 11, 20]), r) for _ in range(r + 1)]
            order = MonomialOrder.weighted(2)
            basis = BasisTensor(polys, order, [p.leading_monomial(order)[:2] for p in polys])
            x = 0 if case % 4 == 0 else rng.randrange(1, gf16.q)
            y = 0 if case % 4 == 1 else rng.randrange(gf16.q)
            pt = InterpolationPoint(x, y, rng.randint(5, 9))
            point = ConstraintPoint(gf16, pt, r)
            point.build(gf16, basis.coeffs, basis.sizes)
            shifted = [taylor_shift(p, x, y) for p in polys]
            want = [[[p.ycoef(b).coef(a) for b in range(pt.mult)] for a in range(pt.mult)] for p in shifted]
            np.testing.assert_array_equal(point.table, want)
            period, width = 1 << (pt.mult - 1).bit_length(), int(basis.sizes.max())
            periods.add(period)
            ragged += width % period != 0
            past_capacity += -(-width // period) * period > basis.coeffs.shape[2]
        assert periods == {8, 16} and ragged >= 10 and past_capacity >= 3


def mixed_class_problem(f, k, seed):
    """A planted instance whose points span many point classes.

    Multiplicities 1 to 7 each sit on their own nonzero x at the planted
    message's value, and x = 0 carries one more point. The x's of the k
    highest multiplicities, the re-encoding set, carry a second point each,
    of multiplicity 1 or 2; the first of them is at y = 0 (or 1 where the
    message is 0 there). So the direct path meets x = 0 and y = 0 points,
    and the reduced path T* points and, at the planted values, y = 0 ones.
    """
    rng = random.Random(seed)
    fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
    xs = rng.sample(f.all_elements()[1:], 7)
    points = [InterpolationPoint(0, fpoly.eval_at(0), rng.randint(1, 3))]
    points += [InterpolationPoint(x, fpoly.eval_at(x), m) for m, x in enumerate(xs, 1)]
    for i, x in enumerate(xs[-k:]):
        truth = fpoly.eval_at(x)
        y = (0 if truth else 1) if i == 0 else rng.choice([y for y in range(f.q) if y != truth])
        points.append(InterpolationPoint(x, y, rng.randint(1, 2)))
    return InterpolationProblem(f, points, k)


PLAN_CACHES = (koetter.point_plan, koetter.odd_table)


def decode_signature(problem):
    """Both paths' candidates and phase counters."""
    out = []
    for report in (decode_direct(problem), decode_reduced(problem, tau=problem.k, verify=True)):
        cands = [(c.status, None if c.f is None else c.f.to_json(), c.error_positions) for c in report.candidates]
        out.append((report.path, cands, report.counters))
    return out


class TestPlanCaches:
    """The plans that `ConstraintPoint` reads are shared across points, decodes and threads."""

    def recorded_plans(self, monkeypatch):
        """Wrap the plan caches so that each returns its result into a list as well."""
        seen = []
        for cache in PLAN_CACHES:

            def recorded(*key, cache=cache):
                plan = cache(*key)
                seen.append((cache.__name__, key, plan))
                return plan

            monkeypatch.setattr(koetter, cache.__name__, recorded)
        return seen

    def test_threads_share_plans_and_decode_as_one_thread(self, gf16):
        problems = [mixed_class_problem(gf16, k, seed) for seed, k in enumerate((2, 3, 3, 4))]
        for prob in problems:
            assert {p.mult for p in prob.points} >= set(range(1, 8))
            assert any(p.x == 0 for p in prob.points) and any(p.y == 0 for p in prob.points)
            ctx = prepare_reduced(prob)
            assert len(ctx.t_star) == prob.k and any(p.y == 0 for p in ctx.s_star + ctx.t_star)
        want = [decode_signature(p) for p in problems]
        for cache in PLAN_CACHES:
            cache.cache_clear()
        start = threading.Barrier(len(problems))
        got = [[] for _ in problems]

        def work(i):
            start.wait(timeout=60)
            for _ in range(2):
                got[i].append(decode_signature(problems[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(problems))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for mine, theirs in zip(got, want):
            assert mine == [theirs, theirs]

    @pytest.mark.parametrize("mult", range(1, 8))
    def test_plan_schedule_is_constraint_schedule(self, mult):
        # run_constraints walks a point's plan and charge reads its first len(pending) entries,
        # so every class must carry the documented schedule and each constraint's charged rows
        n = 8
        for v in (None, 1, n - 1):
            for y_zero in (False, True):
                plan = koetter.point_plan(n, mult, v, y_zero)
                schedule = [tuple(ab) for ab in plan.schedule.tolist()]
                assert schedule == list(constraint_schedule(mult))
                for (_, b), rows in zip(schedule, plan.rows[:, 0]):
                    assert rows.tolist() == [l >= b and (l & b) == b for l in range(n)]

    def test_plans_are_read_only(self, gf16, monkeypatch):
        seen = self.recorded_plans(monkeypatch)
        for k in (2, 3):
            decode_signature(mixed_class_problem(gf16, k, seed=10 + k))
        names = {name for name, _, _ in seen}
        assert names == {cache.__name__ for cache in PLAN_CACHES}
        arrays = 0
        for _, _, plan in seen:
            for value in plan if isinstance(plan, tuple) else [plan]:
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable
                    arrays += 1
        assert arrays > len(seen)

    def test_eviction_keeps_the_bound_and_the_outputs(self, gf16, monkeypatch):
        problems = [mixed_class_problem(gf16, k, seed=20 + k) for k in range(2, 8)]
        for cache in PLAN_CACHES:
            cache.cache_clear()
        first = decode_signature(problems[0])
        seen = self.recorded_plans(monkeypatch)
        passes = [[decode_signature(p) for p in problems] for _ in range(2)]
        classes = {key for name, key, _ in seen if name == "point_plan"}
        assert len(classes) > koetter.PLAN_CACHE_SIZE
        for cache in PLAN_CACHES:
            info = cache.cache_info()
            assert info.maxsize == koetter.PLAN_CACHE_SIZE and info.currsize <= info.maxsize
        assert passes[0] == passes[1] and passes[0][0] == first
