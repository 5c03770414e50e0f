import random

import pytest

from rslist.koetter import InterpolationPoint, InterpolationProblem, monomial_count_chi, solve
from rslist.polynomials import MonomialOrder

from conftest import random_planted_problem
from oracle import InstanceTooLarge, brute_force_interpolate, enumerate_monomials
from poly_helpers import from_arrays, multiplicity_at, wdeg
from golden_tables import Q_DIRECT


class TestEnumerateMonomials:
    def test_small(self):
        assert enumerate_monomials(3, 2) == 10

    def test_delta_zero(self):
        for k in range(2, 12):
            assert enumerate_monomials(0, k) == 1

    def test_matches_closed_form(self):
        for k in range(2, 8):
            for delta in range(0, 40):
                assert enumerate_monomials(delta, k) == monomial_count_chi(delta, k)


class TestBruteForce:
    def test_worked_problem_exact(self, gf8, worked_problem):
        q = brute_force_interpolate(worked_problem)
        assert wdeg(q, 1, 1) == 3
        assert q.to_text() == Q_DIRECT  # minimal solution is unique once normalized

    def test_zero_constraints(self, gf8):
        q = brute_force_interpolate(InterpolationProblem(gf8, [], 2))
        assert q == from_arrays(gf8, [[1]])

    def test_instance_too_large(self, gf8):
        pts = [InterpolationPoint(1, 1, 20)]
        with pytest.raises(InstanceTooLarge):
            brute_force_interpolate(InterpolationProblem(gf8, pts, 2))

    def test_constraints_satisfied(self, gf16):
        rng = random.Random(41)
        for _ in range(10):
            prob, _ = random_planted_problem(rng, [gf16])
            q = brute_force_interpolate(prob)
            for pt in prob.points:
                assert multiplicity_at(q, pt.x, pt.y) >= pt.mult

    def test_agrees_with_koetter(self, gf8, gf16):
        rng = random.Random(42)
        for _ in range(25):
            prob, _ = random_planted_problem(rng, [gf8, gf16])
            oracle_q = brute_force_interpolate(prob)
            fast = solve(prob).minimal
            order = MonomialOrder.weighted(prob.k)
            assert oracle_q.leading_monomial(order)[:2] == fast.leading_monomial(order)[:2]
            assert wdeg(oracle_q, 1, prob.k - 1) == wdeg(fast, 1, prob.k - 1)
            assert oracle_q == fast  # minimal solution with unit leading coefficient is unique
