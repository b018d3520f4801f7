"""Property-based tests for bit utilities (hypothesis)."""

from hypothesis import given, strategies as st

from repro.util import bits

words = st.integers(min_value=0, max_value=0xFFFFFFFF)
bit_indices = st.integers(min_value=0, max_value=31)


class TestFlipProperties:
    @given(words, bit_indices)
    def test_flip_is_involution(self, value, bit):
        assert bits.bit_flip(bits.bit_flip(value, bit), bit) == value

    @given(words, bit_indices)
    def test_flip_changes_exactly_one_bit(self, value, bit):
        flipped = bits.bit_flip(value, bit)
        assert bits.popcount(value ^ flipped) == 1

    @given(words, bit_indices)
    def test_set_then_get(self, value, bit):
        assert bits.bit_get(bits.bit_set(value, bit, 1), bit) == 1
        assert bits.bit_get(bits.bit_set(value, bit, 0), bit) == 0

    @given(words, bit_indices)
    def test_set_preserves_other_bits(self, value, bit):
        for target in (0, 1):
            changed = bits.bit_set(value, bit, target)
            mask = ~(1 << bit)
            assert changed & mask == value & mask


class TestConversionProperties:
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_signed_unsigned_round_trip(self, value):
        assert bits.to_signed(bits.to_unsigned(value)) == value


class TestParityProperties:
    @given(words, bit_indices)
    def test_single_flip_always_changes_parity(self, value, bit):
        assert bits.parity(value) != bits.parity(bits.bit_flip(value, bit))

    @given(words, bit_indices, bit_indices)
    def test_double_flip_parity(self, value, bit_a, bit_b):
        double = bits.bit_flip(bits.bit_flip(value, bit_a), bit_b)
        if bit_a == bit_b:
            assert bits.parity(double) == bits.parity(value)
        else:
            # Two distinct flips cancel in the parity sum — the reason
            # multiplicity-2 faults escape the cache parity check.
            assert bits.parity(double) == bits.parity(value)

    @given(words)
    def test_parity_is_xor_of_bits(self, value):
        expected = 0
        for i in range(32):
            expected ^= (value >> i) & 1
        assert bits.parity(value) == expected
