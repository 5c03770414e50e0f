"""Randomized property checks shared by the module tests and the acceptance run."""

from rslist.koetter import InterpolationPoint, delta_star, n_constraints
from rslist.polynomials import BiPoly, UniPoly, lagrange_interpolate
from rslist.reencoding import ReencodingSet, build_context

from conftest import random_bipoly, random_unipoly
from poly_helpers import (
    exact_div,
    master,
    mul_linear,
    multiplicity_at,
    psi_of,
    reconstruct,
    sub_y_scale,
    sub_y_shift,
    wdeg,
    x_plus,
)


def check_scale_substitution_multiplicity(rng, fields, cases):
    """Multiplicity is preserved by Y -> Y*g(X) together with beta -> beta/g(alpha)."""
    for _ in range(cases):
        f = rng.choice(fields)
        p = random_bipoly(f, rng, 4, 3)
        alpha = rng.randrange(f.q)
        beta = rng.randrange(f.q)
        while True:
            g = random_unipoly(f, rng, 3)
            if not g.is_zero and g.eval_at(alpha) != 0:
                break
        b = sub_y_scale(p, g)
        gamma = f.div(beta, g.eval_at(alpha))
        assert multiplicity_at(p, alpha, beta) == multiplicity_at(b, alpha, gamma)


def check_shift_substitution_multiplicity(rng, fields, cases):
    """Multiplicity is preserved by Y -> Y + e(X) together with beta -> beta - e(alpha)."""
    for _ in range(cases):
        f = rng.choice(fields)
        p = random_bipoly(f, rng, 4, 3)
        e = random_unipoly(f, rng, 4)
        alpha = rng.randrange(f.q)
        beta = rng.randrange(f.q)
        b = sub_y_shift(p, e)
        assert multiplicity_at(p, alpha, beta) == multiplicity_at(b, alpha, beta ^ e.eval_at(alpha))


def check_zero_y_multiplicity_divisibility(rng, fields, cases):
    """Multiplicity >= m at (alpha, 0) iff (X - alpha)^(m-j)+ divides every a_j."""
    for _ in range(cases):
        f = rng.choice(fields)
        p = random_bipoly(f, rng, 5, 3)
        alpha = rng.randrange(f.q)
        m = rng.randint(1, 4)
        mult = multiplicity_at(p, alpha, 0)
        divisible = True
        for j, c in enumerate(p.ycoeffs):
            need = max(m - j, 0)
            if need == 0 or c.is_zero:
                continue
            probe = c
            try:
                for _ in range(need):
                    probe = exact_div(probe, x_plus(f, alpha))
            except Exception:
                divisible = False
                break
        assert (mult >= m) == divisible


def check_multiplicity_valuation(rng, fields, cases):
    """mult(AB) = mult(A) + mult(B); mult(A+B) >= min of the two."""
    for _ in range(cases):
        f = rng.choice(fields)
        a = random_bipoly(f, rng, 3, 2)
        b = random_bipoly(f, rng, 3, 2)
        alpha = rng.randrange(f.q)
        beta = rng.randrange(f.q)
        prod = _bipoly_mul(a, b)
        assert multiplicity_at(prod, alpha, beta) == multiplicity_at(a, alpha, beta) + multiplicity_at(
            b, alpha, beta
        )
        s = a + b
        if not s.is_zero:
            assert multiplicity_at(s, alpha, beta) >= min(
                multiplicity_at(a, alpha, beta), multiplicity_at(b, alpha, beta)
            )


def check_shift_involution(rng, fields, cases):
    for _ in range(cases):
        f = rng.choice(fields)
        p = random_bipoly(f, rng, 5, 3, nonzero=False)
        e = random_unipoly(f, rng, 4)
        assert sub_y_shift(sub_y_shift(p, e), e) == p


def check_wdeg_preserved_by_shift(rng, fields, cases):
    """(1, wy)-weighted degree survives Y -> Y + e(X) when deg e <= wy."""
    for _ in range(cases):
        f = rng.choice(fields)
        p = random_bipoly(f, rng, 5, 3)
        wy = rng.randint(1, 4)
        e = random_unipoly(f, rng, wy)
        assert wdeg(sub_y_shift(p, e), 1, wy) == wdeg(p, 1, wy)


def _bipoly_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    f = a.field
    rows = [UniPoly.zero(f)] * (len(a.ycoeffs) + len(b.ycoeffs) - 1)
    for i, ca in enumerate(a.ycoeffs):
        for j, cb in enumerate(b.ycoeffs):
            rows[i + j] = rows[i + j] + ca.mul(cb)
    return BiPoly(f, rows)


def random_context(rng, f, k_max=4, r=3):
    """The reduced context of a random re-encoding set at the given r; N and delta* are its k points'."""
    k = rng.randint(2, k_max)
    xs = rng.sample(f.all_elements()[1:], k)
    pts = [InterpolationPoint(x, rng.randrange(f.q), rng.randint(1, 3)) for x in xs]
    g = master(f, xs)
    e = lagrange_interpolate(g, [(p.x, p.y) for p in pts])
    n = n_constraints(p.mult for p in pts)
    return build_context(ReencodingSet(pts, g, e, list(range(k))), [], n, delta_star(n, k)[0], r)


def random_structured_h(rng, f, ctx, r):
    """A random nonzero H of the required tail-divisible form."""
    while True:
        rows = []
        for j in range(r + 1):
            q = random_unipoly(f, rng, 2) if rng.random() < 0.8 else UniPoly.zero(f)
            rows.append(q.mul(ctx.tails[j]))
        h = BiPoly(f, rows)
        if not h.is_zero:
            return h


def check_reduced_point_multiplicity_maps(rng, fields, cases):
    """Q' multiplicity at (alpha, beta) maps through the coordinate transform.

    For g(alpha) != 0 it equals H's multiplicity at (alpha, beta/g(alpha));
    for alpha = x_i it equals the multiplicity of the materialized
    (X - x_i)^v_i H(X, Y/(X - x_i)) at (alpha, beta/g'(alpha)).
    """
    from reference_koetter import _transformed_basis_poly

    for _ in range(cases):
        f = rng.choice(fields)
        r = rng.randint(1, 3)
        ctx = random_context(rng, f, r=r)
        h = random_structured_h(rng, f, ctx, r)
        qprime = reconstruct(h, psi_of(ctx), ctx.g, UniPoly.zero(f))
        if qprime.is_zero:
            continue
        if rng.random() < 0.5:
            while True:
                alpha = rng.randrange(f.q)
                if ctx.g.eval_at(alpha) != 0:
                    break
            beta = rng.randrange(f.q)
            gamma = f.div(beta, ctx.g.eval_at(alpha))
            assert multiplicity_at(qprime, alpha, beta) == multiplicity_at(h, alpha, gamma)
        else:
            pt = rng.choice(ctx.rset.points)
            alpha, vi = pt.x, pt.mult
            beta = rng.randrange(f.q)
            gp = ctx.gprime.eval_at(alpha)
            gamma = f.div(beta, gp)
            xp = [UniPoly.one(f)]
            for _ in range(max(vi, ctx.r) + 1):
                xp.append(mul_linear(xp[-1], alpha))
            hprime = _transformed_basis_poly(h, alpha, vi, xp)
            assert multiplicity_at(qprime, alpha, beta) == multiplicity_at(hprime, alpha, gamma)


def check_degree_identity(rng, fields, cases):
    """deg_(1,k-1) Q' = deg psi + deg_(1,-1) H for structured H."""
    for _ in range(cases):
        f = rng.choice(fields)
        r = rng.randint(1, 3)
        ctx = random_context(rng, f, r=r)
        k = len(ctx.rset.points)
        h = random_structured_h(rng, f, ctx, r)
        qprime = reconstruct(h, psi_of(ctx), ctx.g, UniPoly.zero(f))
        assert wdeg(qprime, 1, k - 1) == int(psi_of(ctx).degree) + wdeg(h, 1, -1)
