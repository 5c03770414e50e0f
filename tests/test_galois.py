import asyncio
import itertools
import random
import threading

import numpy as np
import pytest

from rslist.galois import (
    GF256_POLY,
    DegreeMismatch,
    DivisionByZero,
    Field,
    NonPrimitivePolynomial,
    OpCounter,
)

from poly_helpers import field_add, field_pow, vpowers


def carryless_mul_mod(a: int, b: int, prim_poly: int) -> int:
    """Shift-and-add product of two GF(2)[X] bit masks, reduced mod prim_poly; no tables."""
    m = prim_poly.bit_length() - 1
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= prim_poly
    return acc


class TestConstruction:
    def test_gf8_primitive(self, gf8):
        # alpha^3 = alpha + 1 for X^3 + X + 1
        assert gf8.q == 8
        assert gf8.from_exponent(3) == 0b011

    def test_gf256_primitive(self):
        f = Field(8, GF256_POLY)
        assert f.q == 256
        # exhaustive order check: alpha generates all 255 nonzero elements
        assert sorted(f.all_elements()[1:]) == list(range(1, 256))

    def test_reducible_rejected(self):
        # X^3 + X^2 + X + 1 = (X + 1)(X^2 + 1) over GF(2)
        with pytest.raises(NonPrimitivePolynomial):
            Field(3, 0b1111)

    def test_irreducible_but_not_primitive_rejected(self):
        # X^4 + X^3 + X^2 + X + 1 is irreducible but X has order 5, not 15
        with pytest.raises(NonPrimitivePolynomial):
            Field(4, 0b11111)

    def test_largest_supported_field(self):
        f = Field(16, 0b10001000000001011)  # X^16 + X^12 + X^3 + X + 1
        a = f.from_exponent
        assert f.mul(a(40000), a(30000)) == a(70000 % 65535)
        assert f.inv(a(7)) == a(65535 - 7)
        # log[0] is the sentinel 2(q-1); 0 * 0 reads the last entry of the table
        assert f.log[0] == f.zero_log == 2 * 65535 and f.exp.size == 2 * f.zero_log + 1
        top = a(65534)
        for x in (0, 1, a(7), top):
            assert f.mul(0, x) == f.mul(x, 0) == 0
        assert f.mul(top, top) == a(2 * 65534 % 65535)
        arr = np.array([0, 1, top, 0], dtype=np.int32)
        assert f.vmul(arr, 0).tolist() == [0, 0, 0, 0]
        assert f.vmul(arr, top).tolist() == [0, top, f.mul(top, top), 0]
        assert f.vmul(arr, arr[::-1].copy()).tolist() == [0, top, top, 0]
        rng = random.Random(16)
        for _ in range(200):
            x, y = rng.randrange(f.q), rng.randrange(f.q)
            assert f.mul(x, y) == carryless_mul_mod(x, y, f.prim_poly)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            Field(3, 0b10011)  # degree 4 polynomial for m = 3
        with pytest.raises(DegreeMismatch):
            Field(3, 0b1010)  # zero constant term
        with pytest.raises(DegreeMismatch):
            Field(1, 0b11)
        with pytest.raises(DegreeMismatch):
            Field(17, (1 << 17) | 3)


class TestArithmetic:
    def test_mul_exponents(self, gf8):
        a = gf8.from_exponent
        assert gf8.mul(a(3), a(5)) == a(1)  # exponents mod 7
        assert gf8.mul(a(1), 0) == 0
        assert gf8.mul(a(6), a(1)) == 1

    def test_add(self, gf8):
        a = gf8.from_exponent
        assert field_add(gf8, a(1), a(2)) == a(4)
        for v in gf8.all_elements():
            assert field_add(gf8, v, v) == 0

    def test_inv(self, gf8):
        a = gf8.from_exponent
        assert gf8.inv(a(1)) == a(6)
        with pytest.raises(DivisionByZero):
            gf8.inv(0)
        assert gf8.vinv(np.array([1, a(1)])).tolist() == [1, a(6)]
        with pytest.raises(DivisionByZero):
            gf8.vinv(np.array([a(1), 0, 1]))

    def test_pow(self, gf8):
        a = gf8.from_exponent
        assert field_pow(gf8, a(3), 0) == 1
        assert field_pow(gf8, a(3), 2) == a(6)
        assert field_pow(gf8, a(3), -1) == gf8.inv(a(3))
        assert field_pow(gf8, 0, 5) == 0

    def test_all_elements_order(self, gf8):
        elems = gf8.all_elements()
        assert elems[0] == 0 and elems[1] == 1
        assert elems[2] == gf8.from_exponent(1)
        assert len(set(elems)) == 8
        assert elems == gf8.elements.tolist() and all(type(e) is int for e in elems)
        assert not gf8.elements.flags.writeable

    @pytest.mark.parametrize("field_name", ["gf8", "gf16"])
    def test_field_axioms_exhaustive(self, field_name, request):
        f = request.getfixturevalue(field_name)
        elems = f.all_elements()
        pairs = list(itertools.product(elems, repeat=2))
        ref = [carryless_mul_mod(x, y, f.prim_poly) for x, y in pairs]
        for (x, y), xy in zip(pairs, ref):
            assert f.mul(x, y) == f.mul(y, x) == xy
            assert field_add(f, x, y) == field_add(f, y, x)
        xs, ys = np.array(pairs, dtype=np.int32).T
        assert f.vmul(xs, ys).tolist() == ref
        column = np.array(elems, dtype=np.int32)
        for s in elems:  # one element for b, as in vmul(coeffs, s)
            assert f.vmul(column, s).tolist() == [xy for (_, y), xy in zip(pairs, ref) if y == s]
        for x, y, z in itertools.product(elems, repeat=3):
            assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
            assert field_add(f, field_add(f, x, y), z) == field_add(f, x, field_add(f, y, z))
            assert f.mul(x, field_add(f, y, z)) == field_add(f, f.mul(x, y), f.mul(x, z))
        for x in elems[1:]:
            assert f.mul(x, f.inv(x)) == 1

    @pytest.mark.parametrize("field_name", ["gf8", "gf16"])
    def test_fermat(self, field_name, request):
        f = request.getfixturevalue(field_name)
        for x in f.all_elements()[1:]:
            assert field_pow(f, x, f.q - 1) == 1


class TestCounting:
    def test_scripted_mul_count(self, gf8):
        rng = random.Random(7)
        ctr = OpCounter()
        n = 997
        with gf8.count_into(ctr):
            for _ in range(n):
                gf8.mul(rng.randrange(8), rng.randrange(8))
        assert ctr.multiplications == n

    def test_trivial_operands_count(self, gf8):
        ctr = OpCounter()
        with gf8.count_into(ctr):
            gf8.mul(0, 3)
            gf8.mul(1, 1)
        assert ctr.multiplications == 2

    def test_vector_kernels_count_per_slot(self, gf8):
        arr = np.array([0, 1, 3, 5], dtype=np.int32)
        empty = np.array([], dtype=np.int32)
        ctr = OpCounter()
        with gf8.count_into(ctr):
            scaled = {s: gf8.vmul(arr, s) for s in (3, 0)}
            out2 = gf8.vmul(arr, arr)
            out_empty = [gf8.vmul(empty, 3), gf8.vmul(empty, 0), gf8.vmul(empty, empty)]
        assert ctr.multiplications == 12  # one per slot of the first operand, zeros included
        for i, v in enumerate(arr):
            for s, out in scaled.items():
                assert out[i] == gf8.mul(int(v), s)
            assert out2[i] == gf8.mul(int(v), int(v))
        assert scaled[0].tolist() == [0, 0, 0, 0]
        assert all(out.dtype == arr.dtype for out in [*scaled.values(), out2])
        assert [out.shape for out in out_empty] == [(0,)] * 3

    def test_counters_are_isolated(self, gf8):
        c1, c2 = OpCounter(), OpCounter()
        with gf8.count_into(c1):
            gf8.mul(3, 5)
        with gf8.count_into(c2):
            gf8.mul(3, 5)
            gf8.mul(3, 5)
        assert (c1.multiplications, c2.multiplications) == (1, 2)

    def test_threads_sharing_a_field_keep_their_counts(self, gf8):
        default = gf8.counter
        n = 100_000
        counters = [OpCounter() for _ in range(4)]
        start = threading.Barrier(len(counters))

        def work(ctr):
            start.wait()
            with gf8.count_into(ctr):
                for _ in range(n):
                    gf8.mul(3, 5)

        threads = [threading.Thread(target=work, args=(c,)) for c in counters]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [c.multiplications for c in counters] == [n] * len(counters)
        assert gf8.counter is default

    def test_asyncio_tasks_keep_their_counts(self, gf8):
        async def work(n):
            ctr = OpCounter()
            with gf8.count_into(ctr):
                for _ in range(n):
                    gf8.mul(3, 5)
                    await asyncio.sleep(0)  # hand over to the other task mid-scope
            return ctr.multiplications

        async def both():
            return await asyncio.gather(work(50), work(80))

        assert asyncio.run(both()) == [50, 80]

    def test_vpowers(self, gf8):
        a = gf8.from_exponent
        with gf8.count_into(OpCounter()) as ctr:
            p = vpowers(gf8, a(1), 7)
        assert [int(v) for v in p] == [1] + [a(i) for i in range(1, 7)] + [1]
        assert ctr.multiplications == 7


class TestDisplay:
    def test_format(self, gf8):
        a = gf8.from_exponent
        assert gf8.format_element(0) == "0"
        assert gf8.format_element(1) == "1"
        assert gf8.format_element(a(1)) == "a"
        assert gf8.format_element(a(5)) == "a^5"
        assert gf8.format_element(a(5), exp_form=False) == str(a(5))

    def test_parse_roundtrip(self, gf8):
        for v in gf8.all_elements():
            assert gf8.parse_element(gf8.format_element(v)) == v
            assert gf8.parse_element(v) == v
            assert gf8.parse_element(str(v)) == v

    def test_parse_rejects_out_of_range(self, gf8):
        for bad in (8, -1, 1.5, None, [1], {"x": 1}):
            with pytest.raises(ValueError):
                gf8.parse_element(bad)

    def test_json_roundtrip(self, gf8):
        f2 = Field.from_json(gf8.to_json())
        assert f2 == gf8
