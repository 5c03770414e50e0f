"""Re-encoding shift, coordinate transformation and the reduced interpolation solver.

The pipeline removes the k highest-multiplicity points from the interpolation
problem: interpolate e(X) through them, shift all Y-values by e, then factor
out the known vanishing structure with the birational substitution
Y -> Y/g(X). What remains is a much smaller problem over the transformed
points, solved by the same Groebner engine under the (1, -1) order with
tail-polynomial initialization and a modified discrepancy for points that
share an X-coordinate with the removed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .koetter import (
    BasisTensor,
    InterpolationPoint,
    InterpolationProblem,
    SolveResult,
    TraceRow,
    delta_star,
    n_constraints,
    run_constraints,
)
from .polynomials import ORDER_REDUCED, BiPoly, UniPoly, lagrange_interpolate, root_product


class TooManyErasures(ValueError):
    """Fewer than k eligible distinct X-coordinates in the point set."""


@dataclass
class ReencodingSet:
    points: list[InterpolationPoint]  # exactly k, distinct nonzero x
    g: UniPoly  # prod (X + x_i) over their x's, built once: e's master, the context's g, the correction's master
    e_poly: UniPoly
    indices: list[int]  # positions of the chosen points in the source problem

    @property
    def xs(self) -> list[int]:
        return [p.x for p in self.points]


@dataclass
class ReducedContext:
    """What the re-encoding leaves for every later step of the reduced path; no step reads psi, so it has none."""

    rset: ReencodingSet
    g: UniPoly  # rset.g itself, not a copy
    gprime: UniPoly  # g's formal derivative
    tails: list[UniPoly]  # t_0 .. t_r
    v: dict[int, int]  # re-encoding x -> multiplicity
    s_star: list[InterpolationPoint]  # transformed points with g(x) != 0
    t_star: list[InterpolationPoint]  # transformed points sharing a re-encoding x
    n_constraints: int  # of the original problem
    delta_star: int  # of the original problem
    r: int

    def reduced_constraints(self) -> int:
        return n_constraints(p.mult for p in self.s_star + self.t_star)


def select_reencoding_set(problem: InterpolationProblem) -> ReencodingSet:
    """Pick k points of maximal multiplicity on distinct nonzero x-coordinates.

    Per X-coordinate the highest-multiplicity point wins; across coordinates
    the k largest multiplicities are taken, ties resolved by position in the
    problem so the first-listed points win.
    """
    k = problem.k
    best: dict[int, tuple[int, InterpolationPoint]] = {}
    for idx, p in enumerate(problem.points):
        if p.x == 0:
            continue
        cur = best.get(p.x)
        if cur is None or p.mult > cur[1].mult:
            best[p.x] = (idx, p)
    candidates = sorted(best.values(), key=lambda ip: (-ip[1].mult, ip[0]))
    if len(candidates) < k:
        raise TooManyErasures(f"only {len(candidates)} eligible x-coordinates, need {k}")
    chosen = sorted(candidates[:k], key=lambda ip: ip[0])
    g = root_product(problem.field, [p.x for _, p in chosen], np.ones(k, dtype=np.int64))
    e = lagrange_interpolate(g, [(p.x, p.y) for _, p in chosen])
    return ReencodingSet([p for _, p in chosen], g, e, [i for i, _ in chosen])


def build_context(
    rset: ReencodingSet, remaining: list[InterpolationPoint], n_orig: int, dstar: int, r: int
) -> ReducedContext:
    """Auxiliary polynomials and the transformed point set, with the original problem's N, delta* and r.

    g comes from the re-encoding set. t_j carries the excess (j - v_i)+
    factors that any reduced solution's Y^j coefficient must keep; each is
    one `root_product` call, which charges N(N+1)/2 for its N linear
    factors, as the chain of multiplications by X + x_i does, and so is psi
    = prod (X + x_i)^(v_i) charged, though not built. Remaining points split
    into S (fresh x, divide by g(x)) and T (re-encoding x, divide by g'(x));
    e, g and g' are evaluated there by `eval_many`, at n - 1 per point for n
    coefficients. g' stays in the context for the error values.
    """
    f, g = rset.g.field, rset.g
    roots = np.array(rset.xs, dtype=np.int32)
    mults = np.array([p.mult for p in rset.points], dtype=np.int64)
    # the pinned setup charge of a psi that no step builds; ROADMAP item 1's re-pin deletes this line
    f.counter.multiplications += (n_psi := int(mults.sum())) * (n_psi + 1) // 2
    tails = [root_product(f, roots, np.maximum(j - mults, 0)) for j in range(r + 1)]
    v = {p.x: p.mult for p in rset.points}
    xs = np.array([p.x for p in remaining], dtype=np.int32)
    on_r = np.array([p.x in v for p in remaining], dtype=bool)
    yshift = np.array([p.y for p in remaining], dtype=np.int32) ^ rset.e_poly.eval_many(xs)
    gprime = g.formal_derivative()
    denom = np.empty_like(xs)
    denom[on_r] = gprime.eval_many(xs[on_r])
    denom[~on_r] = g.eval_many(xs[~on_r])
    zs = f.vmul(yshift, f.vinv(denom))
    s_star: list[InterpolationPoint] = []
    t_star: list[InterpolationPoint] = []
    for p, z, t in zip(remaining, zs, on_r):
        (t_star if t else s_star).append(InterpolationPoint(p.x, int(z), p.mult))
    return ReducedContext(rset, g, gprime, tails, v, s_star, t_star, n_orig, dstar, r)


def solve_reduced(ctx: ReducedContext, collect_trace: bool = False) -> SolveResult:
    """Koetter engine on the reduced problem.

    Initialization G_j = t_j(X) Y^j with leading monomials (deg t_j, j),
    order (1, -1), standard discrepancies on S* points and the transformed
    discrepancy on T* points. Returns the (1, -1)-least basis polynomial.
    """
    f = ctx.g.field
    r = ctx.r
    polys = [BiPoly(f, [UniPoly.zero(f)] * j + [ctx.tails[j]]) for j in range(r + 1)]
    basis = BasisTensor(polys, ORDER_REDUCED, [(int(ctx.tails[j].degree), j) for j in range(r + 1)])
    trace: list[TraceRow] | None = [] if collect_trace else None
    run_constraints(basis, ctx.s_star + ctx.t_star, trace, ctx.v)
    return SolveResult(basis.polys[basis.ascending()[0]], basis, ctx.reduced_constraints(), -1, r, trace)


def prepare_reduced(problem: InterpolationProblem) -> ReducedContext:
    """Validate, select R, drop it and build the reduced context.

    r is taken from the original problem's constraint count so the basis
    spans the same Y-degrees as the original solution space; the context
    also keeps that count and delta*.
    """
    problem.validate()
    n_orig = n_constraints(p.mult for p in problem.points)
    dstar, r = delta_star(n_orig, problem.k)
    rset = select_reencoding_set(problem)
    drop = set(rset.indices)
    remaining = [p for i, p in enumerate(problem.points) if i not in drop]
    return build_context(rset, remaining, n_orig, dstar, r)
