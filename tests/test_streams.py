import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink import oracle, streams, sweeps
from noclink.oracle import LinkTrace
from noclink.streams import (
    BitStats,
    DataStream,
    StreamError,
    StreamSpec,
    compute_bit_stats,
    compute_sequential_switching,
    generate_stream,
    multiplex_streams,
    read_stream_binary,
    word_bits,
    write_stream_binary,
    write_stream_csv,
)


def stream(words, width):
    return DataStream(np.array(words, dtype=np.uint64), width)


class TestGenerate:
    def test_gaussian_matches_requested_moments(self):
        spec = StreamSpec("gaussian", 16, 100_000, sigma=256.0, rho=0.99, seed=3)
        s = generate_stream(spec)
        x = s.words.astype(np.float64)
        assert abs(x.std() - 256.0) / 256.0 < 0.10
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1 - 0.99) < 0.02

    def test_uniform_range(self):
        s = generate_stream(StreamSpec("uniform", 4, 4, seed=7))
        assert len(s) == 4
        assert s.words.max() < 16

    def test_perfect_correlation_is_constant(self):
        s = generate_stream(StreamSpec("gaussian", 8, 50, sigma=16.0, rho=1.0, seed=1))
        assert np.all(s.words == s.words[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_perfectly_correlated_lognormal_sits_at_the_offset(self, seed):
        # the std of a constant series can round above zero, which once put
        # seed 1 at the offset plus sigma
        s = generate_stream(StreamSpec("lognormal", 16, 50, sigma=300.0, rho=1.0, seed=seed))
        assert s.words.tolist() == [1 << 15] * 50

    def test_lognormal_moments(self):
        spec = StreamSpec("lognormal", 16, 50_000, sigma=512.0, rho=0.5, seed=9)
        x = generate_stream(spec).words.astype(np.float64)
        assert abs(x.std() - 512.0) / 512.0 < 0.10

    def test_reproducible(self):
        spec = StreamSpec("lognormal", 16, 1000, sigma=300.0, rho=0.7, seed=42)
        assert np.array_equal(generate_stream(spec).words, generate_stream(spec).words)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(distribution="pareto", width=8, length=10),
            dict(distribution="gaussian", width=8, length=10, sigma=0.5, rho=0.5),
            dict(distribution="gaussian", width=8, length=10, sigma=300.0, rho=0.5),
            dict(distribution="gaussian", width=8, length=10, sigma=16.0, rho=1.5),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(StreamError):
            StreamSpec(**kwargs)

    @pytest.mark.parametrize("width", [0, 65])
    def test_width_outside_a_word(self, width):
        with pytest.raises(StreamError, match=f"width {width} is outside"):
            StreamSpec("uniform", width, 10)
        with pytest.raises(StreamError, match=f"width {width} is outside"):
            stream([0], width)


class TestMultiplex:
    def test_zero_mux_stays_on_first_source(self):
        a = stream([1, 2, 3, 4], 4)
        b = stream([9, 10, 11, 12], 4)
        out, trace = multiplex_streams([a, b], 0.0, seed=1)
        assert np.all(trace == 0)
        assert np.array_equal(out.words[:4], a.words)

    def test_full_mux_alternates(self):
        a = stream([1] * 10, 4)
        b = stream([2] * 10, 4)
        _, trace = multiplex_streams([a, b], 1.0, seed=5)
        assert np.all(np.diff(trace) != 0)

    def test_empirical_switch_rate(self):
        a = generate_stream(StreamSpec("uniform", 8, 50_000, seed=1))
        b = generate_stream(StreamSpec("uniform", 8, 50_000, seed=2))
        _, trace = multiplex_streams([a, b], 0.5, seed=3)
        rate = np.mean(np.diff(trace) != 0)
        assert abs(rate - 0.5) < 0.01

    def test_word_multiset_matches_consumed_prefixes(self):
        a = stream([1, 2, 3], 4)
        b = stream([7, 8, 9, 10], 4)
        out, trace = multiplex_streams([a, b], 0.4, seed=11)
        for idx, src in enumerate((a, b)):
            taken = out.words[trace == idx]
            expect = [src.words[i % len(src)] for i in range(len(taken))]
            assert np.array_equal(taken, np.array(expect, dtype=np.uint64))

    def test_errors(self):
        a = stream([1], 4)
        with pytest.raises(StreamError):
            multiplex_streams([a], 0.5)
        with pytest.raises(StreamError):
            multiplex_streams([a, stream([1], 5)], 0.5)


class TestBitStats:
    def test_equal_bits(self):
        bs = compute_bit_stats(stream([0b11, 0b00, 0b11, 0b00], 2))
        assert np.allclose(bs.p, [0.5, 0.5])
        assert np.allclose(bs.s, [[0.5, 0.5], [0.5, 0.5]])

    def test_never_both_one(self):
        bs = compute_bit_stats(stream([0b01, 0b10, 0b01, 0b10], 2))
        assert np.allclose(bs.s, [[0.5, 0.0], [0.0, 0.5]])

    def test_constant_ones(self):
        bs = compute_bit_stats(stream([0b11] * 5, 2))
        assert np.allclose(bs.s, 1.0)

    def test_empty_errors(self):
        with pytest.raises(StreamError):
            compute_bit_stats(stream([], 4))

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=60), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_any_stream(self, words, _seed):
        bs = compute_bit_stats(stream(words, 8))
        bs.validate()  # symmetric, in [0,1], diag == p, S_ij <= min(p_i, p_j)

    @given(st.integers(1, 64).flatmap(lambda width: st.tuples(
        st.just(width), st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=300))))
    @settings(max_examples=200, deadline=None)
    def test_unchecked_stats_pass_the_check(self, case):
        # compute_bit_stats skips the re-check; what it builds must pass it
        width, words = case
        bs = compute_bit_stats(stream(words, width))
        bs.validate(atol=0.0)
        bits = stream(words, width).bits().astype(np.float64)
        assert np.array_equal(bs.s, BitStats(bits.T @ bits / len(words)).s)

    def test_stats_of_a_stream_are_not_rechecked(self, monkeypatch):
        def refuse(self, atol=1e-9):
            raise AssertionError("re-validated")

        monkeypatch.setattr(BitStats, "validate", refuse)
        assert compute_bit_stats(stream([1, 2, 3], 2)).width == 2
        with pytest.raises(AssertionError, match="re-validated"):
            BitStats(np.eye(2))


class TestSequentialSwitching:
    def test_correlated_toggling(self):
        sw = compute_sequential_switching(stream([0b00, 0b11, 0b00, 0b11], 2))
        assert np.allclose(np.diag(sw.t), [1.0, 1.0])
        assert sw.t[0, 1] == pytest.approx(0.0)

    def test_anti_correlated_toggling(self):
        sw = compute_sequential_switching(stream([0b01, 0b10, 0b01], 2))
        assert sw.t[0, 1] == pytest.approx(2.0)

    def test_constant_stream(self):
        sw = compute_sequential_switching(stream([5, 5, 5], 4))
        assert np.allclose(sw.t, 0.0)

    def test_too_short(self):
        with pytest.raises(StreamError):
            compute_sequential_switching(stream([1], 4))

    @given(st.lists(st.integers(0, 63), min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_diagonal_equals_column_toggle_frequency(self, words):
        s = stream(words, 6)
        sw = compute_sequential_switching(s)
        bits = s.bits()
        toggles = (np.diff(bits, axis=0) != 0).mean(axis=0)
        assert np.allclose(np.diag(sw.t), toggles)


class TestIO:
    def test_binary_roundtrip(self, tmp_path):
        s = generate_stream(StreamSpec("uniform", 16, 200, seed=4))
        p = tmp_path / "s.bin"
        write_stream_binary(p, s)
        back = read_stream_binary(p)
        assert back.width == 16
        assert np.array_equal(back.words, s.words)

    def test_csv_roundtrip(self, tmp_path):
        s = generate_stream(StreamSpec("uniform", 12, 50, seed=4))
        p = tmp_path / "s.csv"
        write_stream_csv(p, s)
        back = np.loadtxt(p, dtype=np.int64, ndmin=1).astype(np.uint64)
        assert np.array_equal(back, s.words)

    def test_csv_roundtrip_64_bit(self, tmp_path):
        # words at and past 2**63 are written unsigned, not wrapped negative
        s = stream([0, 2**63 - 1, 2**63, 2**64 - 1], 64)
        s = DataStream(np.concatenate((s.words, generate_stream(
            StreamSpec("uniform", 64, 100, seed=4)).words)), 64)
        p = tmp_path / "s.csv"
        write_stream_csv(p, s)
        assert "-" not in p.read_text()
        assert np.array_equal(np.loadtxt(p, dtype=np.uint64, ndmin=1), s.words)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTASTREAM")
        with pytest.raises(StreamError):
            read_stream_binary(p)


class TestValidation:
    def test_word_out_of_range(self):
        with pytest.raises(StreamError):
            stream([16], 4)

    def test_bitstats_rejects_asymmetric(self):
        with pytest.raises(StreamError):
            BitStats(np.array([[0.5, 0.1], [0.3, 0.5]]))


def test_mux_energy_sweep_draws_each_runs_streams_once(monkeypatch):
    seeds = []

    def counted(spec):
        seeds.append(spec.seed)
        return generate_stream(spec)

    monkeypatch.setattr(sweeps, "generate_stream", counted)
    rows = sweeps.mux_energy_sweep((0.0, 0.5, 1.0), length=2000, runs=2, seed=3)
    assert len(rows) == 3
    assert sorted(seeds) == [3, 4, 103, 104]


def test_each_types_words_and_each_trace_are_unpacked_once(monkeypatch):
    unpacked = []

    def counted(words, width):
        unpacked.append(len(words))
        return word_bits(words, width)

    for module in (streams, oracle):
        monkeypatch.setattr(module, "word_bits", counted)
    rng = np.random.default_rng(2)
    words = rng.integers(0, 256, 600, dtype=np.uint64)
    types = rng.integers(0, 3, 600)
    sweeps.per_type_stats(words, types, 3, 8)
    assert len(unpacked) == 3

    unpacked.clear()
    tr = LinkTrace.from_cycles(words, types, 8)
    oracle.exact_switching(tr)
    oracle.exact_switching(tr)
    assert unpacked == [600]

    bits = stream([1, 2, 3], 2).bits()
    with pytest.raises(ValueError):
        bits[0, 0] = 0
