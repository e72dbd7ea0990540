import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.codecs import (
    CodecError,
    coding_gain,
    make_codec,
)
from noclink.streams import (
    DataStream,
    StreamSpec,
    compute_bit_stats,
    generate_stream,
)


def stream(words, width):
    return DataStream(np.array(words, dtype=np.uint64), width)


class TestGray:
    def test_standard_map(self):
        c = make_codec("gray", 4)
        out = c.encode(stream([7], 4))
        assert out.words[0] == 4

    def test_zero_fixed_point(self):
        c = make_codec("gray", 4)
        assert c.encode(stream([0], 4)).words[0] == 0

    def test_ramp_single_toggle(self):
        c = make_codec("gray", 8)
        out = c.encode(stream(list(range(256)), 8))
        toggles = [bin(int(a ^ b)).count("1") for a, b in zip(out.words, out.words[1:])]
        assert all(t == 1 for t in toggles)


class TestCorrelator:
    def test_repeated_word_cancels(self):
        c = make_codec("correlator", 4)
        out = c.encode(stream([5, 5, 5], 4))
        assert list(out.words) == [5, 0, 0]

    def test_inversion_stabilizes_ones(self):
        c = make_codec("correlator+inv", 4)
        out = c.encode(stream([9, 9, 9, 9], 4))
        assert list(out.words[1:]) == [15, 15, 15]

    def test_gain_increases_with_mux(self):
        # checked numerically in the acceptance suite's coding sweep; here
        # only the codec-level effect: encoded correlated streams have much
        # higher joint-1 MSB probability than the raw streams
        s = generate_stream(StreamSpec("gaussian", 16, 20_000, sigma=256.0, rho=0.99, seed=1))
        enc = make_codec("correlator+inv", 16).encode(s)
        raw_p = compute_bit_stats(s).p[15]
        enc_p = compute_bit_stats(enc).p[15]
        assert enc_p > 0.95 > raw_p


class TestInvert:
    def test_distance_above_half_inverts(self):
        c = make_codec("invert", 16)
        out = c.encode(stream([0xFFFF], 16))
        assert out.words[0] == (1 << 16)  # data bits zeroed, invert bit set

    def test_equal_word_not_inverted(self):
        c = make_codec("invert", 16)
        out = c.encode(stream([0, 0], 16))
        assert list(out.words) == [0, 0]

    def test_tie_not_inverted(self):
        c = make_codec("invert", 4)
        out = c.encode(stream([0b0011], 4))  # distance 2 == N/2
        assert out.words[0] == 0b0011

    def test_transmitted_distance_bound(self):
        c = make_codec("invert", 9)
        s = generate_stream(StreamSpec("uniform", 9, 3000, seed=5))
        out = c.encode(s)
        prev = 0
        for w in out.words.tolist():
            assert bin(w ^ prev).count("1") <= 9 // 2 + 1
            prev = w

    def test_uniform_bit_stats_unchanged_on_data_bits(self):
        s = generate_stream(StreamSpec("uniform", 8, 100_000, seed=6))
        enc = make_codec("invert", 8).encode(s)
        raw = compute_bit_stats(s)
        coded = compute_bit_stats(enc)
        assert np.abs(coded.s[:8, :8] - raw.s).max() < 0.01


WIDTHS = st.integers(4, 32)


@st.composite
def random_streams(draw):
    width = draw(WIDTHS)
    words = draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=80))
    return stream(words, width)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "name", ["none", "invert", "gray", "correlator", "correlator+inv"]
    )
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity(self, name, data):
        s = data.draw(random_streams())
        codec = make_codec(name, s.width)
        enc = codec.encode(s)
        assert enc.width == codec.width_out
        dec = codec.decode(enc)
        assert dec.width == s.width
        assert np.array_equal(dec.words, s.words)

    def test_decode_width_mismatch(self):
        codec = make_codec("invert", 8)
        with pytest.raises(CodecError):
            codec.decode(stream([0], 8))  # encoded streams are 9 bits wide


class TestCodingGain:
    def test_identical_reports(self):
        assert coding_gain(10.0, 10.0) == 0.0

    def test_half_energy(self):
        assert coding_gain(10.0, 5.0) == pytest.approx(50.0)

    def test_zero_uncoded(self):
        with pytest.raises(CodecError):
            coding_gain(0.0, 5.0)

    def test_unknown_codec(self):
        with pytest.raises(CodecError):
            make_codec("huffman", 8)

    def test_coded_width_over_64_rejected(self):
        assert make_codec("gray", 64).width_out == 64
        assert make_codec("invert", 63).width_out == 64
        with pytest.raises(CodecError):
            make_codec("invert", 64)
