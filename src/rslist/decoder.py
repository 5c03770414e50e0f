"""End-to-end decoding via the direct and the reduced path, with counters."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .factorization import ACCEPTED, CandidateMessage, factor_reduced, polynomial_y_roots
from .galois import OpCounter
from .koetter import InterpolationProblem, solve
from .reencoding import prepare_reduced, solve_reduced


@dataclass
class DecodeReport:
    path: str
    candidates: list[CandidateMessage]
    counters: dict[str, dict[str, int]]
    n_constraints: int
    delta_star: int
    r: int
    tau: int | None = dataclass_field(default=None)  # the reduced path's effective error bound
    reduced_constraints: int | None = dataclass_field(default=None)
    reencoding_positions: list[int] | None = dataclass_field(default=None)  # indices into the problem's points
    trace: list | None = dataclass_field(default=None)

    def accepted(self) -> list[CandidateMessage]:
        return [c for c in self.candidates if c.accepted]

    def accepted_set(self) -> set[tuple[int, ...]]:
        return {tuple(c.f.to_json()) for c in self.accepted()}

    def to_json(self, field, exp_form: bool = True) -> dict:
        return {
            "path": self.path,
            "candidates": [c.to_json(field, exp_form) for c in self.candidates],
            "counters": self.counters,
            "stats": {
                "n_constraints": self.n_constraints,
                "delta_star": self.delta_star,
                "r": self.r,
                "tau": self.tau,
                "reduced_constraints": self.reduced_constraints,
                "reencoding_positions": self.reencoding_positions,
            },
        }


def decode_direct(problem: InterpolationProblem, collect_trace: bool = False) -> DecodeReport:
    """Reference path: Koetter solve, then every Y-root of degree < k, by Roth-Ruckenstein to depth k."""
    f = problem.field
    interp = OpCounter()
    fact = OpCounter()
    with f.count_into(interp):
        res = solve(problem, collect_trace=collect_trace)
    with f.count_into(fact):
        roots = polynomial_y_roots(res.minimal, problem.k)
    return DecodeReport(
        "direct",
        [CandidateMessage(root, ACCEPTED) for root in roots],
        {"interpolation": interp.snapshot(), "factorization": fact.snapshot()},
        res.n_constraints,
        res.delta_star,
        res.r,
        trace=res.trace,
    )


def decode_reduced(
    problem: InterpolationProblem,
    tau: int | None = None,
    verify: bool = False,
    collect_trace: bool = False,
) -> DecodeReport:
    """Re-encoding path: one `ReducedContext`, the reduced interpolation, then `factor_reduced`.

    tau defaults to min(k, 6); below 1 it is rejected before any work.
    The rejection rules (a)-(d) of `factor_reduced` alone can accept a
    message f for which Y - f(X) does not divide the original problem's Q,
    which the direct path never lists. `verify` adds rule (e), the last
    rule of `factor_reduced`'s chain, which demotes such candidates: one
    Horner pass per candidate that rules (a)-(d) accept, charged to the
    factorization phase.
    """
    f = problem.field
    if tau is None:
        tau = min(problem.k, 6)
    if tau < 1:
        raise ValueError(f"tau={tau} must be >= 1")
    setup = OpCounter()
    interp = OpCounter()
    fact = OpCounter()
    with f.count_into(setup):
        ctx = prepare_reduced(problem)
    with f.count_into(interp):
        res = solve_reduced(ctx, collect_trace=collect_trace)
    with f.count_into(fact):
        candidates = factor_reduced(res.minimal, ctx, tau, verify)
    return DecodeReport(
        "reduced",
        candidates,
        {
            "reencoding_setup": setup.snapshot(),
            "interpolation": interp.snapshot(),
            "factorization": fact.snapshot(),
        },
        ctx.n_constraints,
        ctx.delta_star,
        ctx.r,
        tau,
        reduced_constraints=res.n_constraints,
        reencoding_positions=ctx.rset.indices,
        trace=res.trace,
    )
