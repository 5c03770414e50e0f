"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Two sub-assertions are strict expected failures, each tracking an internal
inconsistency in the golden source rather than an implementation gap:

* the direct-path golden trace's second row corresponds to imposing the
  (1, 0) coefficient constraint before (0, 1), while the documented schedule
  (and the shifted-problem golden trace) impose (0, 1) first; no single
  schedule reproduces both traces, and the state the documented schedule
  produces at that iteration is pinned in test_koetter;
* the published threshold pair (delta* = 1598, r = 6) for the large profile
  follows from 6192 equations, while the profile's constraint table sums to
  6912; the monomial-count formula that this same criterion pins against
  direct enumeration forces delta_star(6912, 239) = (1697, 7).
"""

import random
import time
from contextlib import contextmanager

import pytest

from rslist.bench import large_profile_problem
from rslist.decoder import decode_direct, decode_reduced
from rslist.factorization import factor_reduced, rr_power_series
from rslist.koetter import (
    InterpolationPoint,
    InterpolationProblem,
    delta_star,
    monomial_count_chi,
    n_constraints,
    solve,
)
from rslist.polynomials import MonomialOrder, UniPoly
from rslist.reencoding import TooManyErasures, prepare_reduced, solve_reduced

import properties
import golden_tables as gt
from conftest import random_planted_problem
from oracle import brute_force_interpolate, enumerate_monomials
from poly_helpers import multiplicity_at, psi_of, reconstruct, wdeg

DIRECT_TARGET = 159.56e6
REDUCED_TARGET = 350e3


@pytest.fixture
def crit(capsys):
    """Reports one ACCEPTANCE line per criterion on the real terminal."""

    @contextmanager
    def _criterion(n: int, desc: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {n}: FAIL - {desc}")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: PASS - {desc}")

    return _criterion


def test_criterion_1_direct_golden(gf8, worked_problem, crit):
    with crit(1, "direct golden run: exact output and trace (known row-2 divergence aside)"):
        t0 = time.perf_counter()
        res = solve(worked_problem, collect_trace=True)
        elapsed = time.perf_counter() - t0
        assert res.minimal.to_text() == gt.Q_DIRECT
        assert len(res.trace) == 9
        for i, (x, y, m, rows) in enumerate(gt.TABLE_DIRECT):
            if i == 1:
                continue
            got = {j: p.to_text() for j, p in res.trace[i].basis}
            assert got == dict(rows), f"trace row {i + 1}"
            assert [j for j, _ in res.trace[i].basis] == [j for j, _ in rows]
        assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="golden trace row 2 reflects the transposed within-point constraint "
    "order; the documented schedule (which the shifted golden trace follows) "
    "cannot reproduce it",
)
def test_criterion_1_direct_golden_row_2(gf8, worked_problem, capsys):
    res = solve(worked_problem, collect_trace=True)
    got = {j: p.to_text() for j, p in res.trace[1].basis}
    try:
        assert got == dict(gt.TABLE_DIRECT[1][3])
    except AssertionError:
        with capsys.disabled():
            print("ACCEPTANCE 1: XFAIL - trace row 2 as published (documented golden-source contradiction)")
        raise


def test_criterion_2_shifted_golden(gf8, crit):
    with crit(2, "shifted golden run: exact output and full trace"):
        pts = [
            InterpolationPoint(gf8.parse_element(x), gf8.parse_element(y), m)
            for x, y, m in gt.TABLE_SHIFTED_POINTS
        ]
        res = solve(InterpolationProblem(gf8, pts, 2), collect_trace=True)
        assert res.minimal.to_text() == gt.Q_SHIFTED
        assert len(res.trace) == 9
        for i, (x, y, m, rows) in enumerate(gt.TABLE_SHIFTED):
            got = {j: p.to_text() for j, p in res.trace[i].basis}
            assert got == dict(rows), f"trace row {i + 1}"


def test_criterion_3_reduced_golden(gf8, worked_problem, crit):
    with crit(3, "reduced golden run: context, output, trace, reconstruction"):
        ctx = prepare_reduced(worked_problem)
        res = solve_reduced(ctx, collect_trace=True)
        a = gf8.from_exponent
        assert ctx.tails[2].to_text() == "a^2 + X"
        assert ctx.tails[3].to_text() == "a^5 + a^4*X + a*X^2 + X^3"
        assert {(p.x, p.y) for p in ctx.s_star} == {(a(3), a(2)), (a(3), a(3)), (1, 0), (1, a(1))}
        assert [(p.x, p.y) for p in ctx.t_star] == [(a(2), 1)]
        assert res.minimal.to_text() == gt.H_REDUCED
        assert len(res.trace) == 5
        for i, (x, y, m, rows) in enumerate(gt.TABLE_REDUCED):
            got = {j: p.to_text() for j, p in res.trace[i].basis}
            assert got == dict(rows), f"trace row {i + 1}"
            assert [j for j, _ in res.trace[i].basis] == [j for j, _ in rows]
        q = reconstruct(res.minimal, psi_of(ctx), ctx.g, ctx.rset.e_poly)
        assert q.to_text() == gt.Q_DIRECT


def test_criterion_4_factorization_golden(gf8, worked_problem, crit):
    with crit(4, "factorization golden run: both candidates with locator data"):
        ctx = prepare_reduced(worked_problem)
        h = solve_reduced(ctx).minimal
        a = gf8.from_exponent
        branches = rr_power_series(h, 8)
        assert len(branches) == 2
        assert branches[0] == [0] * 8
        assert [gf8.format_element(g) for g in branches[1]] == gt.ERROR_BRANCH_SYNDROMES
        cands = factor_reduced(h, ctx, 4)
        accepted = {tuple(c.f.to_json()): c for c in cands if c.accepted}
        assert set(accepted) == {(a(5), a(6)), (a(6), a(2))}
        c1 = accepted[(a(5), a(6))]
        assert c1.sigma == UniPoly.one(gf8) and c1.omega.is_zero
        c2 = accepted[(a(6), a(2))]
        assert c2.sigma.to_json() == [1, a(5)]
        assert c2.omega.to_json() == [a(5)]
        assert c2.error_values == {1: a(4)}


LARGE_PROFILE_MULTS = [7] * 229 + [6] * 12 + [5] * 10 + [4] * 4 + [3] * 3 + [2] * 10 + [1] * 10
REDUCED_PROFILE = [6] * 2 + [5] * 10 + [4] * 4 + [3] * 3 + [2] * 10 + [1] * 10


def test_criterion_5_formulas(crit):
    with crit(5, "constraint/monomial formulas (stated delta* pair checked separately)"):
        assert n_constraints(LARGE_PROFILE_MULTS) == 6912
        assert n_constraints(REDUCED_PROFILE) == 290
        for k in range(2, 21):
            for delta in range(0, 201):
                assert monomial_count_chi(delta, k) == enumerate_monomials(delta, k)
        # the published threshold pair is consistent with 6192 equations,
        # and the true count 6912 pushes the threshold to (1697, 7)
        assert delta_star(6192, 239) == (1598, 6)
        assert delta_star(6912, 239) == (1697, 7)


@pytest.mark.xfail(
    strict=True,
    reason="(1598, 6) pairs with 6192 equations; the profile's true 6912 "
    "constraint count forces (1697, 7) under the monomial-count formula this "
    "criterion itself pins against enumeration",
)
def test_criterion_5_delta_star_as_stated(capsys):
    try:
        assert delta_star(6912, 239) == (1598, 6)
    except AssertionError:
        with capsys.disabled():
            print("ACCEPTANCE 5: XFAIL - delta_star(6912, 239) == (1598, 6) as stated (documented contradiction)")
        raise


def test_criterion_6_benchmark(crit):
    with crit(6, "large-profile benchmark: counts within 3x targets, ratio <= 1/100"):
        t0 = time.perf_counter()
        problem, _ = large_profile_problem(seed=1)
        assert n_constraints(p.mult for p in problem.points) == 6912
        direct_report = decode_direct(problem)
        reduced_report = decode_reduced(problem)
        direct = direct_report.counters["interpolation"]["multiplications"]
        reduced = reduced_report.counters["interpolation"]["multiplications"]
        assert reduced_report.reduced_constraints == 290
        assert DIRECT_TARGET / 3 <= direct <= DIRECT_TARGET * 3, direct
        assert REDUCED_TARGET / 3 <= reduced <= REDUCED_TARGET * 3, reduced
        assert reduced / direct <= 1 / 100
        assert time.perf_counter() - t0 < 300


def test_criterion_7_oracle_equivalence(gf8, gf16, crit):
    with crit(7, "oracle equivalence on 200 random instances"):
        rng = random.Random(777)
        order_cache = {}
        for _ in range(200):
            prob, _ = random_planted_problem(rng, [gf8, gf16])
            oracle_q = brute_force_interpolate(prob)
            fast = solve(prob).minimal
            assert wdeg(fast, 1, prob.k - 1) == wdeg(oracle_q, 1, prob.k - 1)
            order = order_cache.setdefault(prob.k, MonomialOrder.weighted(prob.k))
            assert fast.leading_monomial(order)[:2] == oracle_q.leading_monomial(order)[:2]
            for pt in prob.points:
                assert multiplicity_at(fast, pt.x, pt.y) >= pt.mult


def test_criterion_8_cross_path_equivalence(gf8, gf16, crit):
    with crit(8, "cross-path equivalence on 200 planted instances"):
        rng = random.Random(888)
        done = bezout_hits = 0
        while done < 200:
            prob, fpoly = random_planted_problem(rng, [gf8, gf16])
            try:
                direct = decode_direct(prob)
                reduced = decode_reduced(prob, tau=prob.k)
            except TooManyErasures:
                continue
            assert direct.accepted_set() == reduced.accepted_set()
            # the guarantee is checked against the a-priori bound, not against Q's degree
            dstar, r = delta_star(n_constraints(pt.mult for pt in prob.points), prob.k)
            assert wdeg(solve(prob).minimal, 1, prob.k - 1) <= dstar
            assert len(direct.accepted()) <= r and len(reduced.accepted()) <= r
            score = sum(pt.mult for pt in prob.points if fpoly.eval_at(pt.x) == pt.y)
            if score > dstar:
                bezout_hits += 1
                assert tuple(fpoly.to_json()) in direct.accepted_set()
                assert tuple(fpoly.to_json()) in reduced.accepted_set()
            done += 1
        assert bezout_hits >= 50  # the guaranteed-recovery clause saw real coverage


def test_criterion_9_property_suites(gf8, gf16, crit):
    with crit(9, "randomized property suites at 500 cases each"):
        fields = [gf8, gf16]
        properties.check_scale_substitution_multiplicity(random.Random(901), fields, 500)
        properties.check_shift_substitution_multiplicity(random.Random(902), fields, 500)
        properties.check_zero_y_multiplicity_divisibility(random.Random(903), fields, 500)
        properties.check_reduced_point_multiplicity_maps(random.Random(904), fields, 500)
        properties.check_degree_identity(random.Random(905), fields, 500)
        properties.check_shift_involution(random.Random(906), fields, 500)
        properties.check_multiplicity_valuation(random.Random(907), fields, 500)
        properties.check_wdeg_preserved_by_shift(random.Random(908), fields, 500)
