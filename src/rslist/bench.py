"""Benchmark instances for the direct/reduced decoding comparison."""

from __future__ import annotations

import random

from .galois import GF256_POLY, Field
from .koetter import InterpolationPoint, InterpolationProblem
from .polynomials import UniPoly

# Multiplicity profile of the large soft-decision instance: (multiplicity, #points).
LARGE_PROFILE = [(7, 229), (6, 12), (5, 10), (4, 4), (3, 3), (2, 10), (1, 10)]


def _distinct_offset(f: Field, rng: random.Random, taken: set[int]) -> int:
    while True:
        d = rng.randrange(1, f.q)
        if d not in taken:
            return d


def large_profile_problem(seed: int = 1) -> tuple[InterpolationProblem, UniPoly]:
    """A GF(256), n=255, k=239 instance realizing the large benchmark profile.

    The 229 mult-7 and 12 mult-6 points sit on their own x's (the re-encoding
    set will absorb the mult-7 points and 10 of the mult-6 ones); mult-5 and
    mult-4 points fill the remaining fresh x's; mult-3 and mult-2 points share
    x's with non-re-encoded points, and the mult-1 points share x's with
    mult-7 points so the transformed problem exercises both point classes.
    A message polynomial is planted with enough weighted agreement that the
    interpolation polynomial is divisible by Y - f(X); two of the mult-6
    re-encoding positions carry errors.
    """
    rng = random.Random(seed)
    f = Field(8, GF256_POLY)
    k = 239
    xs = f.all_elements()[1:]  # all 255 nonzero elements
    fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])

    counts = dict(LARGE_PROFILE)
    points: list[InterpolationPoint] = []
    c7, c6, c5 = counts[7], counts[6], counts[5]
    x_m7 = xs[:c7]
    x_m6 = xs[c7 : c7 + c6]
    x_m5 = xs[c7 + c6 : c7 + c6 + c5]
    x_m4 = xs[c7 + c6 + c5 :]
    error_positions = {1, 4}  # among the first 10 mult-6 points (the re-encoded ones)

    truth: dict[int, int] = {}
    for x in x_m7 + x_m6 + x_m5 + x_m4:
        truth[x] = fpoly.eval_at(x)

    for x in x_m7:
        points.append(InterpolationPoint(x, truth[x], 7))
    for i, x in enumerate(x_m6):
        y = truth[x]
        if i in error_positions:
            y ^= _distinct_offset(f, rng, {0})
        points.append(InterpolationPoint(x, y, 6))
    for x in x_m5:
        points.append(InterpolationPoint(x, truth[x], 5))
    for x in x_m4:
        points.append(InterpolationPoint(x, truth[x], 4))

    shared = x_m6[10:] + x_m5 + x_m4  # non-re-encoded x's for the mult-3/2 points
    used_offsets: dict[int, set[int]] = {}
    for i in range(counts[3]):
        x = shared[i]
        off = _distinct_offset(f, rng, used_offsets.setdefault(x, {0}))
        used_offsets[x].add(off)
        points.append(InterpolationPoint(x, truth[x] ^ off, 3))
    for i in range(counts[2]):
        x = shared[(counts[3] + i) % len(shared)]
        off = _distinct_offset(f, rng, used_offsets.setdefault(x, {0}))
        used_offsets[x].add(off)
        points.append(InterpolationPoint(x, truth[x] ^ off, 2))
    for i in range(counts[1]):
        x = x_m7[i]  # shares x with a mult-7 re-encoding point
        off = _distinct_offset(f, rng, used_offsets.setdefault(x, {0}))
        used_offsets[x].add(off)
        points.append(InterpolationPoint(x, truth[x] ^ off, 1))

    return InterpolationProblem(f, points, k), fpoly


def random_problem(n: int, k: int, seed: int, errors: int = 0) -> tuple[InterpolationProblem, UniPoly]:
    """A mult-1 instance over GF(16)/GF(256) with a planted message."""
    from .galois import GF16_POLY

    rng = random.Random(seed)
    f = Field(4, GF16_POLY) if n <= 15 else Field(8, GF256_POLY)
    xs = rng.sample(f.all_elements()[1:], n)
    fpoly = UniPoly(f, [rng.randrange(f.q) for _ in range(k)])
    points = []
    err = set(rng.sample(range(n), errors))
    for i, x in enumerate(xs):
        y = fpoly.eval_at(x)
        if i in err:
            y ^= rng.randrange(1, f.q)
        points.append(InterpolationPoint(x, y, 1))
    return InterpolationProblem(f, points, k), fpoly
