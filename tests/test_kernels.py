"""The array kernels of the stream path against per-word reference loops.

Each reference below is the straightforward word-by-word definition of
its kernel; the kernels must reproduce it bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.codecs import InvertCodec
from noclink.streams import BLOCK, DataStream, gram, multiplex_streams, word_bits


def reference_multiplex(streams, mux_prob, seed):
    rng = np.random.default_rng(seed)
    total = sum(len(s) for s in streams)
    k = len(streams)
    switch = rng.random(total) < mux_prob
    picks = rng.integers(0, k - 1, size=total)
    out = np.empty(total, dtype=np.uint64)
    trace = np.empty(total, dtype=np.int64)
    cursors = [0] * k
    words = [s.words for s in streams]
    active = 0
    for t in range(total):
        if t > 0 and switch[t]:
            other = int(picks[t])
            active = other if other < active else other + 1
        c = cursors[active]
        out[t] = words[active][c % len(words[active])]
        cursors[active] = c + 1
        trace[t] = active
    return out, trace


def reference_invert(words, n):
    mask = (1 << n) - 1
    invert_bit = 1 << n
    prev = 0
    out = np.empty(len(words), dtype=np.uint64)
    for k, w in enumerate(words.tolist()):
        if 2 * bin(w ^ prev).count("1") > n:  # ties are not inverted
            code = (~w & mask) | invert_bit
        else:
            code = w
        prev = code & mask
        out[k] = code
    return out


def reference_word_bits(words, width):
    w = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return ((w[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int8)


@st.composite
def multiplex_cases(draw):
    k = draw(st.integers(2, 5))
    width = draw(st.integers(1, 16))
    streams = [
        DataStream(np.array(draw(st.lists(st.integers(0, (1 << width) - 1),
                                          min_size=1, max_size=50)), dtype=np.uint64), width)
        for _ in range(k)
    ]
    mux_prob = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return streams, mux_prob, draw(st.integers(0, 2**32))


@st.composite
def word_walks(draw):
    """Words that move a few bits at a time, so that Hamming distances of
    exactly half the width (ties) occur."""
    n = draw(st.integers(1, 63))
    steps = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=60))
    word, words = draw(st.integers(0, (1 << n) - 1)), []
    for flips in steps:
        for bit in flips:
            word ^= 1 << bit
        words.append(word)
    return np.array(words, dtype=np.uint64), n


class TestMultiplexKernel:
    @given(multiplex_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        streams, mux_prob, seed = case
        out, trace = multiplex_streams(streams, mux_prob, seed=seed)
        ref_out, ref_trace = reference_multiplex(streams, mux_prob, seed)
        assert np.array_equal(trace, ref_trace)
        assert np.array_equal(out.words, ref_out)
        assert trace.dtype == np.int64
        assert out.width == streams[0].width

    def test_matches_reference_on_long_streams(self):
        rng = np.random.default_rng(5)
        streams = [DataStream(rng.integers(0, 1 << 16, size, dtype=np.uint64), 16)
                   for size in (3000, 50, 2999, 1, 700)]
        for mux_prob in (0.05, 0.7, 1.0):
            out, trace = multiplex_streams(streams, mux_prob, seed=9)
            ref_out, ref_trace = reference_multiplex(streams, mux_prob, 9)
            assert np.array_equal(trace, ref_trace)
            assert np.array_equal(out.words, ref_out)

    def test_matches_reference_on_one_long_run_of_equal_picks(self):
        # with two sources every pick is 0, so at mux probability 1 the
        # switch events form one run and the source alternates throughout
        rng = np.random.default_rng(6)
        streams = [DataStream(rng.integers(0, 1 << 8, size, dtype=np.uint64), 8)
                   for size in (20_000, 7_001)]
        out, trace = multiplex_streams(streams, 1.0, seed=4)
        ref_out, ref_trace = reference_multiplex(streams, 1.0, 4)
        assert np.array_equal(trace, ref_trace)
        assert np.array_equal(out.words, ref_out)

    def test_recycles_short_sources(self):
        streams = [DataStream(np.array([1], dtype=np.uint64), 4),
                   DataStream(np.array([2, 3], dtype=np.uint64), 4)]
        out, trace = multiplex_streams(streams, 0.0, seed=3)
        assert np.array_equal(trace, [0, 0, 0])
        assert np.array_equal(out.words, [1, 1, 1])


class TestInvertKernel:
    @given(word_walks())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        words, n = case
        coded = InvertCodec(n).encode(DataStream(words, n))
        assert np.array_equal(coded.words, reference_invert(words, n))
        assert coded.width == n + 1

    def test_tie_resets_the_flag(self):
        # 0 -> 3 inverts (distance 2 of 2); 3 -> 1 is then a tie against
        # the sent 0, which resets the flag
        words = np.array([3, 1], dtype=np.uint64)
        coded = InvertCodec(2).encode(DataStream(words, 2))
        assert coded.words.tolist() == [0b100, 0b001]
        assert np.array_equal(coded.words, reference_invert(words, 2))


class TestWordBitsKernel:
    @given(st.integers(1, 64).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, (1 << width) - 1), max_size=40)
        | st.lists(st.just((1 << width) - 1), max_size=3))))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        width, words = case
        words = np.array(words, dtype=np.uint64)
        bits = word_bits(words, width)
        ref = reference_word_bits(words, width)
        assert bits.dtype == ref.dtype == np.int8
        assert bits.shape == ref.shape == (len(words), width)
        assert np.array_equal(bits, ref)

    def test_top_bit_and_empty(self):
        words = np.array([1 << 63, (1 << 64) - 1], dtype=np.uint64)
        assert np.array_equal(word_bits(words, 64), reference_word_bits(words, 64))
        assert word_bits(np.array([], dtype=np.uint64), 64).shape == (0, 64)


class TestGramKernel:
    @given(st.integers(1, 64), st.integers(0, 300), st.sampled_from((0, -1)),
           st.sampled_from((1, 2, 3, 7, BLOCK)), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_float64_product(self, width, rows, low, block, seed):
        # blocks of 1, 2, 3 and 7 rows make the products cross block bounds
        a = np.random.default_rng(seed).integers(low, 2, (rows, width), dtype=np.int8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("noclink.streams.BLOCK", block)
            g = gram(a)
        assert g.dtype == np.float64
        assert np.array_equal(g, a.astype(np.float64).T @ a)
