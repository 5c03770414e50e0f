import itertools
import random

import pytest

from rslist.polynomials import UniPoly
from rslist.rs_codec import CodeSpec, DegreeTooHigh, encode

from poly_helpers import constant, interpolate


@pytest.fixture
def code_gf8(gf8):
    a = gf8.from_exponent
    return CodeSpec(gf8, 4, 2, [1, a(1), a(2), a(3)])


class TestEncode:
    def test_worked_codeword(self, gf8, code_gf8):
        a = gf8.from_exponent
        f = UniPoly(gf8, [a(6), a(2)])
        assert encode(code_gf8, f) == [1, a(4), a(3), a(1)]

    def test_zero_message(self, code_gf8):
        assert encode(code_gf8, UniPoly.zero(code_gf8.field)) == [0, 0, 0, 0]

    def test_constant_message(self, gf8, code_gf8):
        c = gf8.from_exponent(5)
        assert encode(code_gf8, constant(gf8, c)) == [c] * 4

    def test_degree_too_high(self, gf8, code_gf8):
        with pytest.raises(DegreeTooHigh):
            encode(code_gf8, UniPoly(gf8, [1, 1, 1]))

    def test_injective_on_messages(self, gf8, code_gf8):
        seen = set()
        for c0, c1 in itertools.product(range(8), repeat=2):
            word = tuple(encode(code_gf8, UniPoly(gf8, [c0, c1])))
            assert word not in seen
            seen.add(word)

    def test_default_support_full(self, gf8):
        code = CodeSpec(gf8, 7, 3)
        assert sorted(code.support) == list(range(1, 8))


class TestReencode:
    """Re-encoding: the degree < k polynomial through k values, as the decoder computes it."""

    def test_zero_values(self, gf8):
        assert interpolate(gf8, [(1, 0), (2, 0)]).is_zero

    def test_reencoding_agrees_at_given_positions(self, gf8):
        rng = random.Random(21)
        code = CodeSpec(gf8, 7, 3)
        for _ in range(30):
            pts = [(x, rng.randrange(8)) for x in rng.sample(code.support, 3)]
            e = interpolate(gf8, pts)
            word = encode(code, e)
            for x, y in pts:
                assert word[code.support.index(x)] == y


def test_code_json_roundtrip(gf8, code_gf8):
    again = CodeSpec.from_json(code_gf8.to_json())
    assert again.field == gf8
    assert (again.n, again.k, again.support) == (code_gf8.n, code_gf8.k, code_gf8.support)


def test_code_validation(gf8):
    with pytest.raises(ValueError):
        CodeSpec(gf8, 3, 2, [1, 1, 2])
    with pytest.raises(ValueError):
        CodeSpec(gf8, 9, 2)
    with pytest.raises(ValueError):
        CodeSpec(gf8, 2, 3, [1, 2])
    for k in (0, -1):  # k < 1 has no message space and no weighted degree
        with pytest.raises(ValueError):
            CodeSpec(gf8, 3, k, [1, 2, 4])
    with pytest.raises(ValueError):
        CodeSpec(gf8, 2, 1, [1, 8])
