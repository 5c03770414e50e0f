import random
import threading
from pathlib import Path

import pytest

from rslist import decoder
from rslist.cli import load_problem
from rslist.decoder import decode_direct, decode_reduced
from rslist.factorization import ACCEPTED, REJECTED_BY_VERIFICATION, is_y_root, polynomial_y_roots
from rslist.galois import Field
from rslist.koetter import InterpolationPoint, InterpolationProblem, delta_star, n_constraints, solve
from rslist.polynomials import UniPoly
from rslist.reencoding import TooManyErasures, prepare_reduced, solve_reduced

from conftest import (
    gs_radius_problem,
    random_planted_problem,
    random_repeated_x_problem,
    random_tight_problem,
    random_unplanted_problem,
)
from poly_helpers import psi_of, reconstruct, wdeg, y_eval


def counts(report):
    """(multiplications, additions) per phase."""
    return {phase: (c["multiplications"], c["additions"]) for phase, c in report.counters.items()}


# exact counts under the documented counting convention, per (path, problem);
# the reduced decodes run at tau = 4
PINNED_COUNTS = {
    ("direct", "worked"): {"interpolation": (487, 136), "factorization": (98, 22)},
    ("direct", "shifted"): {"interpolation": (335, 65), "factorization": (86, 7)},
    ("reduced", "worked"): {
        "reencoding_setup": (57, 2),
        "interpolation": (278, 47),
        "factorization": (555, 53),
    },
    ("reduced", "shifted"): {
        "reencoding_setup": (32, 0),
        "interpolation": (278, 47),
        "factorization": (525, 49),
    },
}


class TestDirect:
    def test_worked_problem(self, gf8, worked_problem):
        a = gf8.from_exponent
        report = decode_direct(worked_problem)
        assert report.accepted_set() == {(a(5), a(6)), (a(6), a(2))}
        assert (report.n_constraints, report.delta_star, report.r) == (9, 3, 3)

    def test_single_point_k1(self, gf8):
        prob = InterpolationProblem(gf8, [InterpolationPoint(3, 5, 1)], 1)
        report = decode_direct(prob)
        assert report.accepted_set() == {(5,)}

    def test_counters_present(self, gf8, worked_problem, shifted_problem):
        assert counts(decode_direct(worked_problem)) == PINNED_COUNTS["direct", "worked"]
        assert counts(decode_direct(shifted_problem)) == PINNED_COUNTS["direct", "shifted"]


class TestReduced:
    def test_worked_problem(self, gf8, worked_problem, shifted_problem):
        a = gf8.from_exponent
        report = decode_reduced(worked_problem, tau=4)
        assert report.accepted_set() == {(a(5), a(6)), (a(6), a(2))}
        assert report.reduced_constraints == 5
        assert counts(report) == PINNED_COUNTS["reduced", "worked"]
        assert counts(decode_reduced(shifted_problem, tau=4)) == PINNED_COUNTS["reduced", "shifted"]

    def test_error_free_word(self, gf8):
        rng = random.Random(5)
        k = 2
        fpoly = UniPoly(gf8, [rng.randrange(8) for _ in range(k)])
        pts = [InterpolationPoint(x, fpoly.eval_at(x), 2) for x in gf8.all_elements()[1:6]]
        report = decode_reduced(InterpolationProblem(gf8, pts, k))
        assert report.accepted_set() == {tuple(fpoly.to_json())}
        cand = report.accepted()[0]
        assert cand.error_positions == []

    def test_too_many_erasures_propagates(self, gf8):
        pts = [InterpolationPoint(3, y, 1) for y in range(4)]
        with pytest.raises(TooManyErasures):
            decode_reduced(InterpolationProblem(gf8, pts, 2))

    def test_verify_mode_keeps_true_candidates(self, gf8, worked_problem):
        plain = decode_reduced(worked_problem, tau=4)
        checked = decode_reduced(worked_problem, tau=4, verify=True)
        assert checked.accepted_set() == plain.accepted_set()


def reduced_solution_and_q(problem):
    """The reduced path's H and, as the paper-equivalence oracle, the original problem's Q rebuilt from it."""
    ctx = prepare_reduced(problem)
    h = solve_reduced(ctx).minimal
    return h, reconstruct(h, psi_of(ctx), ctx.g, ctx.rset.e_poly)


def verified_nonroots(report, h, q) -> int:
    """Check a `verify` decode against the oracle; the number of candidates it demoted.

    Each candidate that rules (a)-(d) accepted stays accepted exactly when
    Y - f(X) divides Q, and rule (e) gives the same verdict.
    """
    demoted = 0
    for c in report.candidates:
        if c.status in (ACCEPTED, REJECTED_BY_VERIFICATION):
            root = y_eval(q, c.f).is_zero
            assert is_y_root(h, c.sigma, c.omega) == root == c.accepted
            demoted += not root
    return demoted


class TestNonRootCandidate:
    """A GF(8), k = 2 problem where the reduced path lists a message that is not a Y-root of Q.

    The direct path accepts {3 + X, 6 + 4X}. At tau = 2 the reduced path's
    rejection rules also accept 2 + 3X, whose Y - f(X) does not divide the
    original problem's Q; `verify` demotes it by rule (e), and taus 1, 3 and
    4 never accept it. Running rule (e) on every decode would mend this, but
    adds counted multiplications to the reduced factorization.
    """

    PATH = Path(__file__).parent / "data" / "nonroot_gf8_problem.json"
    DIRECT = {(3, 1), (6, 4)}

    @pytest.mark.xfail(strict=True, reason="rules (a)-(d) accept 2 + 3X at tau = 2, which is not a Y-root of Q")
    def test_reduced_accepts_only_roots_of_q(self):
        problem, _, tau = load_problem(str(self.PATH))
        assert decode_direct(problem).accepted_set() == self.DIRECT
        assert decode_reduced(problem, tau=tau).accepted_set() <= self.DIRECT

    def test_verify_and_other_taus_list_only_roots(self):
        problem, _, tau = load_problem(str(self.PATH))
        assert tau == 2
        report = decode_reduced(problem, tau=2, verify=True)
        assert report.accepted_set() == self.DIRECT
        assert verified_nonroots(report, *reduced_solution_and_q(problem)) == 1  # 2 + 3X
        for other in (1, 3, 4):
            assert decode_reduced(problem, tau=other).accepted_set() == self.DIRECT


def assert_paths_agree(rng, fields, count, generator=random_planted_problem):
    """Both paths accept the same set on `count` planted problems; TooManyErasures is skipped."""
    done = 0
    while done < count:
        prob, _ = generator(rng, fields)
        try:
            direct = decode_direct(prob)
            reduced = decode_reduced(prob, tau=prob.k)
        except TooManyErasures:
            continue
        assert direct.accepted_set() == reduced.accepted_set()
        done += 1


class TestCrossPath:
    def test_small_random_instances(self, gf8, gf16):
        assert_paths_agree(random.Random(33), [gf8, gf16], 30)

    def test_repeated_x_instances(self, gf8, gf16):
        # shared x's put T* points into the reduced problem
        assert_paths_agree(random.Random(37), [gf8, gf16], 60, random_repeated_x_problem)

    def test_gf1024_instances(self):
        # m > 4 end to end
        assert_paths_agree(random.Random(36), [Field(10, 0x409)], 60)

    def test_unplanted_instances_with_verify(self, gf8, gf16):
        # at tau < k a verified reduced decode may miss a root that the direct
        # path lists, but never lists one that it does not
        rng = random.Random(41)
        demoted = 0
        for _ in range(40):
            problem = random_unplanted_problem(rng, [gf8, gf16])
            direct = decode_direct(problem).accepted_set()
            h, q = reduced_solution_and_q(problem)
            for tau in range(1, problem.k + 1):
                report = decode_reduced(problem, tau, verify=True)
                demoted += verified_nonroots(report, h, q)
                assert report.accepted_set() <= direct
                # each candidate is one branch, and no two that rules (a)-(d) accept share an f
                assert all(len(c.branch_indices) == 1 for c in report.candidates)
                fs = [tuple(c.f.to_json()) for c in report.candidates if c.f is not None]
                assert len(set(fs)) == len(fs)
            assert report.accepted_set() == direct  # tau = k
        assert demoted > 0  # the check would pass vacuously without non-roots

    def test_counter_ordering(self, gf8, gf16):
        # reduced interpolation does strictly less multiplication work whenever
        # the re-encoding set absorbs the highest multiplicities
        rng = random.Random(34)
        done = 0
        while done < 15:
            prob, _ = random_planted_problem(rng, [gf8, gf16], max_mult=3, max_constraints=16)
            try:
                direct = decode_direct(prob)
                reduced = decode_reduced(prob, tau=prob.k)
            except TooManyErasures:
                continue
            assert (
                reduced.counters["interpolation"]["multiplications"]
                < direct.counters["interpolation"]["multiplications"]
            )
            done += 1

    def test_planted_message_recovered_under_bezout(self, gf8, gf16):
        # a message whose score exceeds delta* must be on both lists, whatever Q the solver built
        rng = random.Random(35)
        done = 0
        while done < 20:
            prob, fpoly = random_planted_problem(rng, [gf8, gf16])
            try:
                direct = decode_direct(prob)
                reduced = decode_reduced(prob, tau=prob.k)
            except TooManyErasures:
                continue
            dstar, r = delta_star(n_constraints(pt.mult for pt in prob.points), prob.k)
            assert wdeg(solve(prob).minimal, 1, prob.k - 1) <= dstar
            assert len(direct.accepted()) <= r and len(reduced.accepted()) <= r
            score = sum(pt.mult for pt in prob.points if fpoly.eval_at(pt.x) == pt.y)
            if score > dstar:
                assert tuple(fpoly.to_json()) in direct.accepted_set()
                assert tuple(fpoly.to_json()) in reduced.accepted_set()
                done += 1

    def test_planted_message_recovered_at_score_delta_plus_one(self, gf16):
        # the tightest score the Bezout argument covers: S = delta* + 1
        rng = random.Random(41)
        for _ in range(40):
            prob, fpoly = random_tight_problem(rng, gf16)
            dstar, r = delta_star(n_constraints(pt.mult for pt in prob.points), prob.k)
            assert sum(pt.mult for pt in prob.points if fpoly.eval_at(pt.x) == pt.y) == dstar + 1
            assert wdeg(solve(prob).minimal, 1, prob.k - 1) <= dstar
            direct = decode_direct(prob)
            reduced = decode_reduced(prob, tau=prob.k)
            assert len(direct.accepted()) <= r and len(reduced.accepted()) <= r
            assert tuple(fpoly.to_json()) in direct.accepted_set()
            assert tuple(fpoly.to_json()) in reduced.accepted_set()

    @pytest.mark.parametrize("m, radius", [(2, 30), (3, 30), (4, 31)])
    def test_planted_message_recovered_at_gs_radius(self, m, radius):
        # hard-decision RS(63, 15) words with more errors than (n - k)/2 = 24; at tau = k
        # a verified reduced decode lists only roots of Q, so only what the direct path lists
        for seed in range(4):
            prob, fpoly, t = gs_radius_problem(seed, m)
            assert t == radius
            direct = decode_direct(prob).accepted_set()
            reduced = decode_reduced(prob, tau=prob.k, verify=True).accepted_set()
            assert tuple(fpoly.to_json()) in direct and tuple(fpoly.to_json()) in reduced
            assert reduced <= direct


def test_concurrent_decodes_on_a_shared_field_keep_exact_counts(gf8, worked_problem, shifted_problem):
    problems = {"worked": worked_problem, "shifted": shifted_problem}
    assert worked_problem.field is shifted_problem.field is gf8
    start = threading.Barrier(len(problems))
    got = {name: [] for name in problems}

    def work(name):
        start.wait()
        for _ in range(20):
            got[name].append(("direct", counts(decode_direct(problems[name]))))
            got[name].append(("reduced", counts(decode_reduced(problems[name], tau=4))))

    threads = [threading.Thread(target=work, args=(name,)) for name in problems]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for name, reports in got.items():
        assert len(reports) == 40
        for path, c in reports:
            assert c == PINNED_COUNTS[path, name], (path, name)


class TestLargeProfile:
    def test_reduced_decode_recovers_planted_message(self):
        from rslist.bench import large_profile_problem

        problem, fpoly = large_profile_problem(seed=1)
        report = decode_reduced(problem, tau=6)
        assert report.reduced_constraints == 290
        assert report.accepted_set() == {tuple(fpoly.to_json())}
        cand = report.accepted()[0]
        # the two planted errors sit in the mult-6 re-encoding positions
        assert cand.error_positions == [230, 233]
        assert counts(report) == {
            "reencoding_setup": (1_745_268, 56_882),
            "interpolation": (563_578, 220_196),
            "factorization": (362_557, 71_534),
        }

    def test_verify_costs_one_horner_pass(self):
        from rslist.bench import large_profile_problem

        problem, fpoly = large_profile_problem(seed=1)
        report = decode_reduced(problem, tau=6, verify=True)
        assert report.accepted_set() == {tuple(fpoly.to_json())}
        # the plain decode's 362,557 plus rule (e) on the one accepted candidate
        assert counts(report)["factorization"] == (364_050, 71_697)

    def test_verified_factorization_is_charged_inside_factor_reduced(self, monkeypatch):
        # rule (e) is the last rule of factor_reduced's chain, so a span around that one call
        # (as perfbench's tracer puts one) accounts for the whole factorization phase
        from rslist.bench import large_profile_problem

        charged = []
        real = decoder.factor_reduced

        def recording(h, *args, **kwargs):
            ctr = h.field.counter
            m0, a0 = ctr.multiplications, ctr.additions
            out = real(h, *args, **kwargs)
            charged.append((ctr.multiplications - m0, ctr.additions - a0))
            return out

        monkeypatch.setattr(decoder, "factor_reduced", recording)
        nonroot, _, tau = load_problem(str(TestNonRootCandidate.PATH))
        report = decode_reduced(nonroot, tau=tau, verify=True)
        assert REJECTED_BY_VERIFICATION in {c.status for c in report.candidates}  # rule (e) fired
        assert charged == [counts(report)["factorization"]]
        charged.clear()
        report = decode_reduced(large_profile_problem(seed=1)[0], tau=6, verify=True)
        assert charged == [counts(report)["factorization"]] == [(364_050, 71_697)]

    def test_direct_decode_counts(self):
        from rslist.bench import large_profile_problem

        problem, fpoly = large_profile_problem(seed=1)
        report = decode_direct(problem)
        assert report.accepted_set() == {tuple(fpoly.to_json())}
        assert counts(report) == {
            "interpolation": (70_161_699, 33_667_724),
            "factorization": (10_995_912, 5_903_006),
        }

    def test_bench_random_profile_decodes(self):
        from rslist.bench import random_problem

        problem, fpoly = random_problem(15, 7, seed=3)
        planted = tuple(fpoly.to_json())
        assert planted in decode_direct(problem).accepted_set()
        assert planted in decode_reduced(problem, tau=7).accepted_set()


class TestEffectiveTau:
    def test_reduced_default_is_min_k_6(self, worked_problem):
        from rslist.bench import random_problem

        assert decode_reduced(worked_problem).tau == 2  # k = 2
        problem, _ = random_problem(15, 7, seed=3)
        assert decode_reduced(problem).tau == 6

    def test_direct_default_is_k(self, gf8, worked_problem, monkeypatch):
        # the direct path takes no tau: it always runs Roth-Ruckenstein to depth k
        depths = []

        def recording(q, depth):
            depths.append(depth)
            return polynomial_y_roots(q, depth)

        monkeypatch.setattr(decoder, "polynomial_y_roots", recording)
        report = decode_direct(worked_problem)
        assert depths == [2]  # k = 2
        assert report.tau is None
        assert report.to_json(gf8)["stats"]["tau"] is None

    @pytest.mark.parametrize("tau", [0, -3])
    def test_tau_below_1_rejected(self, worked_problem, tau, monkeypatch):
        # the reduced path checks tau before any work; the checks in the
        # Roth-Ruckenstein loop and in factor_reduced stay behind it
        def no_work(*args, **kwargs):
            raise AssertionError("tau < 1 reached the re-encoding setup")

        monkeypatch.setattr(decoder, "prepare_reduced", no_work)
        with pytest.raises(ValueError):
            decode_reduced(worked_problem, tau)

    def test_explicit_tau_reported(self, gf8, worked_problem):
        report = decode_reduced(worked_problem, 3)
        assert report.tau == 3
        assert report.to_json(gf8)["stats"]["tau"] == 3


# the `stats` keys of a decode report on both paths, exactly as README lists them
REPORT_STATS_KEYS = {"n_constraints", "delta_star", "r", "tau", "reduced_constraints", "reencoding_positions"}


def test_report_json_shape(gf8, worked_problem):
    reports = [(decode_reduced(worked_problem, 4), 4, 5), (decode_direct(worked_problem), None, None)]
    for report, tau, reduced_constraints in reports:
        obj = report.to_json(gf8)
        assert obj["path"] == report.path
        assert set(obj["stats"]) == REPORT_STATS_KEYS
        assert obj["stats"]["n_constraints"] == 9
        assert obj["stats"]["tau"] == tau
        assert obj["stats"]["reduced_constraints"] == reduced_constraints
        statuses = {c["status"] for c in obj["candidates"]}
        assert "accepted" in statuses
