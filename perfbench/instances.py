"""Seeded decode instances owned by the benchmark.

The generators live here, not in `rslist.bench`, so that edits to the
package's own runner cannot change what the benchmark decodes. They use only
the public constructors (`Field`, `UniPoly`, `InterpolationPoint`,
`InterpolationProblem`) and `rs_codec.encode`, which is why `rs_codec` counts
in the benchmark's set-up time and not in decode time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rslist.galois import Field
from rslist.koetter import InterpolationPoint, InterpolationProblem
from rslist.polynomials import UniPoly
from rslist.rs_codec import CodeSpec, encode

# Multiplicity profile of the large soft-decision instance: (multiplicity, #points).
# 6912 constraints in total; re-encoding leaves 290.
SOFT_LARGE_PROFILE = [(7, 229), (6, 12), (5, 10), (4, 4), (3, 3), (2, 10), (1, 10)]
SOFT_LARGE_K = 239
HARD_K = 223  # RS(255, 223): unique-decoding radius 16
HARD_ERRORS = (8, 16)


@dataclass
class Instance:
    seed: int
    problem: InterpolationProblem
    message: UniPoly  # the planted message; every decode must list it
    errors: int  # symbol errors planted in the received word

    @property
    def planted(self) -> tuple[int, ...]:
        return tuple(self.message.to_json())


def _distinct_offset(f: Field, rng: random.Random, taken: set[int]) -> int:
    while True:
        d = rng.randrange(1, f.q)
        if d not in taken:
            return d


def soft_large(f: Field, seed: int) -> Instance:
    """GF(256), n = 255, k = 239 soft-decision instance of the large profile.

    The 229 mult-7 and 12 mult-6 points sit on their own x's, so re-encoding
    absorbs the mult-7 points and ten mult-6 ones; two of those ten carry
    errors. Mult-5 and mult-4 points fill the remaining x's, mult-3 and mult-2
    points share x's with points that are not re-encoded, and the mult-1
    points share x's with mult-7 points, so both transformed point classes
    occur. The random draws follow `rslist.bench.large_profile_problem` one
    for one: instance seed 1 is the large profile quoted in the ROADMAP
    Baseline.
    """
    rng = random.Random(seed)
    code = CodeSpec(f, f.q - 1, SOFT_LARGE_K)
    xs = code.support
    msg = UniPoly(f, [rng.randrange(f.q) for _ in range(code.k)])
    truth = dict(zip(xs, encode(code, msg)))

    counts = dict(SOFT_LARGE_PROFILE)
    c7, c6, c5 = counts[7], counts[6], counts[5]
    x_m7 = xs[:c7]
    x_m6 = xs[c7 : c7 + c6]
    x_m5 = xs[c7 + c6 : c7 + c6 + c5]
    x_m4 = xs[c7 + c6 + c5 :]
    error_positions = {1, 4}  # among the ten re-encoded mult-6 points

    points = [InterpolationPoint(x, truth[x], 7) for x in x_m7]
    for i, x in enumerate(x_m6):
        y = truth[x]
        if i in error_positions:
            y ^= _distinct_offset(f, rng, {0})
        points.append(InterpolationPoint(x, y, 6))
    points += [InterpolationPoint(x, truth[x], 5) for x in x_m5]
    points += [InterpolationPoint(x, truth[x], 4) for x in x_m4]

    shared = x_m6[10:] + x_m5 + x_m4
    sources = (
        [(shared[i], 3) for i in range(counts[3])]
        + [(shared[(counts[3] + i) % len(shared)], 2) for i in range(counts[2])]
        + [(x_m7[i], 1) for i in range(counts[1])]
    )
    used: dict[int, set[int]] = {}
    for x, mult in sources:
        off = _distinct_offset(f, rng, used.setdefault(x, {0}))
        used[x].add(off)
        points.append(InterpolationPoint(x, truth[x] ^ off, mult))

    return Instance(seed, InterpolationProblem(f, points, code.k), msg, len(error_positions))


def hard_rs255(f: Field, seed: int) -> Instance:
    """RS(255, 223) hard-decision codeword with 8 to 16 symbol errors.

    Every symbol is one point of multiplicity 1. The error count is drawn
    uniformly from HARD_ERRORS, the positions without repetition and each
    error value from the nonzero elements, so exactly that many symbols are
    wrong.
    """
    rng = random.Random(seed)
    code = CodeSpec(f, f.q - 1, HARD_K)
    msg = UniPoly(f, [rng.randrange(f.q) for _ in range(code.k)])
    word = encode(code, msg)
    errors = rng.randint(*HARD_ERRORS)
    for i in rng.sample(range(code.n), errors):
        word[i] ^= rng.randrange(1, f.q)
    points = [InterpolationPoint(x, y, 1) for x, y in zip(code.support, word)]
    return Instance(seed, InterpolationProblem(f, points, code.k), msg, errors)


def worked_gf8(f: Field) -> tuple[InterpolationProblem, set[tuple[int, ...]]]:
    """The worked GF(8) example (k = 2, seven points) and its two messages."""
    a = f.from_exponent
    points = [
        InterpolationPoint(a(1), a(4), 2),
        InterpolationPoint(a(2), a(6), 1),
        InterpolationPoint(a(2), a(3), 1),
        InterpolationPoint(a(3), 1, 1),
        InterpolationPoint(a(3), a(1), 1),
        InterpolationPoint(1, a(1), 1),
        InterpolationPoint(1, 1, 1),
    ]
    return InterpolationProblem(f, points, 2), {(a(5), a(6)), (a(6), a(2))}
