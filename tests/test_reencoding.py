import random

import numpy as np
import pytest

from rslist import polynomials, reencoding
from rslist.decoder import decode_reduced
from rslist.koetter import InterpolationPoint, InterpolationProblem, solve
from rslist.polynomials import BiPoly, UniPoly
from rslist.reencoding import (
    TooManyErasures,
    build_context,
    prepare_reduced,
    select_reencoding_set,
    solve_reduced,
)

import properties
from conftest import random_planted_problem, random_repeated_x_problem
from poly_helpers import (
    check_tail_divisibility,
    multiplicity_at,
    psi_of,
    reconstruct,
    shift_points,
    sub_y_shift,
    validate_basis,
    wdeg,
)
import golden_tables as gt


class TestSelectReencodingSet:
    def test_worked_problem(self, gf8, worked_problem):
        a = gf8.from_exponent
        rset = select_reencoding_set(worked_problem)
        assert [(p.x, p.y, p.mult) for p in rset.points] == [(a(1), a(4), 2), (a(2), a(6), 1)]
        assert rset.e_poly.to_json() == [a(5), a(6)]
        assert rset.indices == [0, 1]

    def test_highest_multiplicities_absorbed(self):
        from rslist.bench import large_profile_problem

        problem, _ = large_profile_problem(seed=1)
        rset = select_reencoding_set(problem)
        mults = sorted((p.mult for p in rset.points), reverse=True)
        assert len(rset.points) == 239
        assert mults == [7] * 229 + [6] * 10

    def test_too_many_erasures(self, gf8):
        pts = [InterpolationPoint(3, y, 1) for y in range(4)]
        with pytest.raises(TooManyErasures):
            select_reencoding_set(InterpolationProblem(gf8, pts, 2))

    def test_x_zero_never_selected(self, gf8):
        pts = [
            InterpolationPoint(0, 1, 5),
            InterpolationPoint(1, 1, 1),
            InterpolationPoint(2, 1, 1),
        ]
        rset = select_reencoding_set(InterpolationProblem(gf8, pts, 2))
        assert all(p.x != 0 for p in rset.points)


class TestShiftPoints:
    def test_worked_problem(self, gf8, worked_problem):
        rset = select_reencoding_set(worked_problem)
        shifted = shift_points(worked_problem, rset.e_poly)
        got = [(gf8.format_element(p.x), gf8.format_element(p.y), p.mult) for p in shifted.points]
        assert got == [
            ("a", "0", 2),
            ("a^2", "0", 1),
            ("a^2", "a^4", 1),
            ("a^3", "a", 1),
            ("a^3", "1", 1),
            ("1", "0", 1),
            ("1", "a^3", 1),
        ]

    def test_zero_shift_identity(self, gf8, worked_problem):
        shifted = shift_points(worked_problem, UniPoly.zero(gf8))
        assert shifted.points == worked_problem.points

    def test_point_on_curve_zeroed(self, gf8):
        e = UniPoly(gf8, [3, 5])
        x = 4
        prob = InterpolationProblem(gf8, [InterpolationPoint(x, e.eval_at(x), 1)], 2)
        assert shift_points(prob, e).points[0].y == 0


class TestBuildContext:
    def test_worked_problemc(self, gf8, worked_problem):
        a = gf8.from_exponent
        rset = select_reencoding_set(worked_problem)
        remaining = [p for i, p in enumerate(worked_problem.points) if i not in rset.indices]
        ctx = build_context(rset, remaining, 9, 3, 3)  # the worked problem's N, delta* and r
        assert ctx.tails[0] == UniPoly.one(gf8)
        assert ctx.tails[1] == UniPoly.one(gf8)
        assert ctx.tails[2].to_text() == "a^2 + X"
        assert ctx.tails[3].to_text() == "a^5 + a^4*X + a*X^2 + X^3"
        s_star = {(p.x, p.y) for p in ctx.s_star}
        assert s_star == {(a(3), a(2)), (a(3), a(3)), (1, 0), (1, a(1))}
        assert [(p.x, p.y) for p in ctx.t_star] == [(a(2), 1)]
        assert ctx.v == {a(1): 2, a(2): 1}
        assert ctx.g.to_text() == "a^3 + a^4*X + X^2"
        assert int(psi_of(ctx).degree) == 3

    def test_all_tails_trivial_when_vmin_at_least_r(self, gf8):
        pts = [InterpolationPoint(1, 3, 3), InterpolationPoint(2, 5, 3)]
        prob = InterpolationProblem(gf8, pts, 2)
        rset = select_reencoding_set(prob)
        ctx = build_context(rset, [], 12, 4, 2)  # N = 12 and delta* = 4, at r = 2 instead of 4
        assert all(t == UniPoly.one(gf8) for t in ctx.tails)

    def test_empty_remaining(self, gf8, worked_problem):
        rset = select_reencoding_set(worked_problem)
        ctx = build_context(rset, [], 9, 3, 3)
        assert ctx.s_star == [] and ctx.t_star == []


class TestSetupProducts:
    def test_g_built_once_and_psi_never(self, gf16, monkeypatch):
        # g = prod (X + x_i) is e's master, the context's g and the correction's master; psi is only charged
        calls = []
        for mod in (polynomials, reencoding):

            def spy(field, xs, exps, inner=mod.root_product):
                calls.append(dict(zip(np.asarray(xs).tolist(), np.asarray(exps).tolist())))
                return inner(field, xs, exps)

            monkeypatch.setattr(mod, "root_product", spy)
        message = UniPoly(gf16, [3, 7, 1])
        mults = [4, 3, 2, 2, 1, 1, 1, 1]
        pts = [InterpolationPoint(x, message.eval_at(x) ^ (x == 6), m) for x, m in zip(range(1, 9), mults)]
        report = decode_reduced(InterpolationProblem(gf16, pts, 3), verify=True)
        assert (3, 7, 1) in report.accepted_set()
        chosen = [pts[i] for i in report.reencoding_positions]
        assert sorted(p.mult for p in chosen) == [2, 3, 4]
        assert sum(c == {p.x: 1 for p in chosen} for c in calls) == 1
        assert {p.x: p.mult for p in chosen} not in calls


class TestSolveReduced:
    def test_worked_problemc_output(self, gf8, worked_problem):
        ctx = prepare_reduced(worked_problem)
        assert solve_reduced(ctx).minimal.to_text() == gt.H_REDUCED

    def test_worked_problemc_trace(self, gf8, worked_problem):
        ctx = prepare_reduced(worked_problem)
        trace = solve_reduced(ctx, collect_trace=True).trace
        assert len(trace) == 5
        for i, (x, y, m, rows) in enumerate(gt.TABLE_REDUCED):
            got = {j: p.to_text() for j, p in trace[i].basis}
            assert got == dict(rows), f"row {i + 1}"
            assert [j for j, _ in trace[i].basis] == [j for j, _ in rows], f"row {i + 1} order"

    def test_first_row_pins_g1(self, gf8, worked_problem):
        ctx = prepare_reduced(worked_problem)
        state = dict((j, p) for j, p in solve_reduced(ctx, collect_trace=True).trace[0].basis)
        assert state[1].to_text() == "(a^3 + X)*Y"

    def test_no_reduced_points(self, gf8):
        # With P = R the reduced problem has no constraints; the (1,-1)-least
        # initial basis element is Y (weighted degree -1), whose factorization
        # yields f = e.
        pts = [InterpolationPoint(1, 3, 1), InterpolationPoint(2, 5, 1)]
        prob = InterpolationProblem(gf8, pts, 2)
        ctx = prepare_reduced(prob)
        res = solve_reduced(ctx)
        assert res.minimal == BiPoly.y_power(gf8, 1)
        assert res.n_constraints == 0

    def test_tail_divisibility_invariant(self, gf8, gf16):
        # the leading monomials that solve_reduced states, (deg t_j, j), must also stay current
        rng = random.Random(55)
        for _ in range(15):
            prob, _ = random_planted_problem(rng, [gf8, gf16])
            ctx = prepare_reduced(prob)
            check_tail_divisibility(solve_reduced(ctx).basis, ctx)
            validate_basis(solve_reduced(ctx).basis)
        for _ in range(40):
            prob, _ = random_repeated_x_problem(rng, [gf8, gf16])
            ctx = prepare_reduced(prob)
            check_tail_divisibility(solve_reduced(ctx).basis, ctx)
            validate_basis(solve_reduced(ctx).basis)

    def test_reduced_constraint_count(self, gf8, worked_problem):
        ctx = prepare_reduced(worked_problem)
        removed = sum(p.mult * (p.mult + 1) // 2 for p in ctx.rset.points)
        assert solve_reduced(ctx).n_constraints == ctx.n_constraints - removed == 5


class TestEquivalences:
    def test_shift_equivalence_on_example(self, gf8, worked_problem):
        rset = select_reencoding_set(worked_problem)
        shifted = shift_points(worked_problem, rset.e_poly)
        q = solve(worked_problem).minimal
        qprime = solve(shifted).minimal
        assert sub_y_shift(qprime, rset.e_poly) == q

    def test_shift_equivalence_random(self, gf8, gf16):
        rng = random.Random(60)
        for _ in range(20):
            prob, _ = random_planted_problem(rng, [gf8, gf16])
            try:
                rset = select_reencoding_set(prob)
            except TooManyErasures:
                continue
            shifted = shift_points(prob, rset.e_poly)
            assert sub_y_shift(solve(shifted).minimal, rset.e_poly) == solve(prob).minimal

    def test_reconstruction_equivalence_on_example(self, gf8, worked_problem):
        ctx = prepare_reduced(worked_problem)
        q = reconstruct(solve_reduced(ctx).minimal, psi_of(ctx), ctx.g, ctx.rset.e_poly)
        assert q == solve(worked_problem).minimal

    def test_reconstruction_equivalence_random(self, gf8, gf16):
        rng = random.Random(61)
        for _ in range(20):
            prob, _ = random_planted_problem(rng, [gf8, gf16])
            try:
                ctx = prepare_reduced(prob)
            except TooManyErasures:
                continue
            q = reconstruct(solve_reduced(ctx).minimal, psi_of(ctx), ctx.g, ctx.rset.e_poly)
            direct = solve(prob).minimal
            for pt in prob.points:
                assert multiplicity_at(q, pt.x, pt.y) >= pt.mult
            assert wdeg(q, 1, prob.k - 1) == wdeg(direct, 1, prob.k - 1)
            assert q == direct

    def test_degree_identity_random(self, gf8, gf16):
        rng = random.Random(62)
        for _ in range(20):
            prob, _ = random_planted_problem(rng, [gf8, gf16])
            try:
                ctx = prepare_reduced(prob)
            except TooManyErasures:
                continue
            h = solve_reduced(ctx).minimal
            qprime = reconstruct(h, psi_of(ctx), ctx.g, UniPoly.zero(prob.field))
            assert wdeg(qprime, 1, prob.k - 1) == int(psi_of(ctx).degree) + wdeg(h, 1, -1)


class TestProperties:
    CASES = 60

    def test_point_multiplicity_maps(self, gf8, gf16):
        properties.check_reduced_point_multiplicity_maps(random.Random(70), [gf8, gf16], self.CASES)

    def test_degree_identity(self, gf8, gf16):
        properties.check_degree_identity(random.Random(71), [gf8, gf16], self.CASES)
