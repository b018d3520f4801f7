"""Unit tests for repro.util.bits."""

import pytest

from repro.util import bits


class TestBitGetSetFlip:
    def test_get_low_bit(self):
        assert bits.bit_get(0b1010, 1) == 1
        assert bits.bit_get(0b1010, 0) == 0

    def test_get_high_bit(self):
        assert bits.bit_get(1 << 31, 31) == 1

    def test_set_to_one(self):
        assert bits.bit_set(0, 5, 1) == 32

    def test_set_to_zero(self):
        assert bits.bit_set(0xFF, 3, 0) == 0xF7

    def test_set_idempotent(self):
        assert bits.bit_set(0xAB, 1, 1) == bits.bit_set(bits.bit_set(0xAB, 1, 1), 1, 1)

    def test_flip_twice_restores(self):
        value = 0xDEADBEEF
        assert bits.bit_flip(bits.bit_flip(value, 17), 17) == value

    def test_flip_is_xor(self):
        assert bits.bit_flip(0, 4) == 16
        assert bits.bit_flip(16, 4) == 0

    def test_negative_bit_index_rejected(self):
        with pytest.raises(ValueError):
            bits.bit_get(1, -1)
        with pytest.raises(ValueError):
            bits.bit_set(1, -2, 0)
        with pytest.raises(ValueError):
            bits.bit_flip(1, -3)

    def test_bad_bit_value_rejected(self):
        with pytest.raises(ValueError):
            bits.bit_set(0, 0, 2)


class TestParityPopcount:
    def test_popcount(self):
        assert bits.popcount(0) == 0
        assert bits.popcount(0xFF) == 8
        assert bits.popcount(0b1010101) == 4

    def test_parity_even_popcount_is_zero(self):
        assert bits.parity(0b11) == 0

    def test_parity_odd_popcount_is_one(self):
        assert bits.parity(0b111) == 1

    def test_single_flip_changes_parity(self):
        value = 0x12345678
        for bit in (0, 7, 31):
            assert bits.parity(bits.bit_flip(value, bit)) != bits.parity(value)


class TestSignConversions:
    def test_sign_extend_positive(self):
        assert bits.sign_extend(0x7F, 8) == 127

    def test_sign_extend_negative(self):
        assert bits.sign_extend(0xFF, 8) == -1
        assert bits.sign_extend(0x80, 8) == -128

    def test_to_unsigned_wraps(self):
        assert bits.to_unsigned(-1) == 0xFFFFFFFF
        assert bits.to_unsigned(-2, 8) == 0xFE

    def test_round_trip_signed(self):
        for value in (-(2**31), -1, 0, 1, 2**31 - 1):
            assert bits.to_signed(bits.to_unsigned(value)) == value

    def test_mask(self):
        assert bits.mask(0) == 0
        assert bits.mask(4) == 0xF
        assert bits.mask(32) == 0xFFFFFFFF
