import logging
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from noclink.simnet import CHUNK, PE, ConfigurationError, FlowSpec
from noclink.streams import StreamSpec, generate_stream
from noclink.traffic import (
    PayloadSource,
    TrafficError,
    load_traffic_spec,
    make_payload_source,
    pgm_source,
    pixel_source,
    raw_byte_source,
    source_from_spec,
)

NODES = {"A": (0, 0, 0), "B": (1, 0, 0)}


def simple_source(n=64, width=16):
    return PayloadSource(np.arange(n, dtype=np.uint64), width, "ramp")


class TestPayloadSource:
    def test_provider_preserves_order(self):
        src = simple_source()
        chunks = [src.take(5 * k, 5) for k in range(3)]
        assert np.array_equal(np.concatenate(chunks), np.arange(15))

    def test_recycles_from_start(self):
        src = PayloadSource(np.array([1, 2, 3], dtype=np.uint64), 4, "tiny")
        assert list(src.take(0, 7)) == [1, 2, 3, 1, 2, 3, 1]

    def test_width_overflow_rejected(self):
        with pytest.raises(TrafficError):
            PayloadSource(np.array([256], dtype=np.uint64), 8, "bad")

    def test_empty_rejected(self):
        with pytest.raises(TrafficError):
            PayloadSource(np.array([], dtype=np.uint64), 8, "empty")

    @given(st.integers(1, 50), st.lists(st.integers(0, 255), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_take_matches_modular_indexing(self, count, values):
        src = PayloadSource(np.array(values, dtype=np.uint64), 8, "p")
        got = np.concatenate([src.take(0, count), src.take(count, count)])
        want = [values[i % len(values)] for i in range(2 * count)]
        assert list(got) == want


class TestBuilders:
    def test_packed_pixels_layout(self):
        src = pixel_source("pixel-packed", 16, 100, sigma=40.0, rho=0.9, seed=3)
        hi = generate_stream(StreamSpec("gaussian", 8, 100, sigma=40.0, rho=0.9, seed=3))
        assert np.array_equal(src.words >> np.uint64(8), hi.words)

    def test_msb_pixels_layout(self):
        src = pixel_source("pixel-msb", 16, 100, sigma=40.0, rho=0.9, seed=3)
        hi = generate_stream(StreamSpec("gaussian", 8, 100, sigma=40.0, rho=0.9, seed=3))
        assert np.array_equal(src.words >> np.uint64(8), hi.words)

    def test_odd_width_rejected(self):
        with pytest.raises(TrafficError):
            pixel_source("pixel-packed", 15, 10, sigma=4.0, rho=0.5, seed=0)

    def test_unknown_pixel_kind_rejected(self):
        with pytest.raises(TrafficError, match="unknown pixel payload kind 'pixel-lsb'"):
            pixel_source("pixel-lsb", 16, 10, sigma=4.0, rho=0.5, seed=0)

    def test_raw_bytes_packed_msb_first(self, tmp_path):
        path = tmp_path / "img.raw"
        path.write_bytes(bytes([0xAB, 0xCD, 0x01, 0x02, 0xFF]))  # odd byte dropped
        src = raw_byte_source(path, 16)
        assert list(src.words) == [0xABCD, 0x0102]

    def test_pgm_roundtrip(self, tmp_path):
        pixels = np.arange(512 * 512, dtype=np.uint64) % 251
        path = tmp_path / "img.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n# synthetic\n512 512\n255\n")
            fh.write(bytes(int(p) for p in pixels))
        src = pgm_source(path, 16)
        assert len(src) == 512 * 512 // 2
        assert src.words[0] == (pixels[0] << 8) | pixels[1]

    def test_pgm_rejects_ascii_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(TrafficError):
            pgm_source(path, 16)

    @pytest.mark.parametrize("data, reason", [
        (b"P5\n2 2\n", "truncated PGM header"),
        (b"P5\n# no size\n", "truncated PGM header"),
        (b"P2\n2 2\n255\n0 1 2 3\n", "not a binary PGM (P5) file"),
        (b"P5\n2 x\n255\n\0\0\0\0", "malformed PGM header"),
        (b"P5\n2 2\n65535\n" + bytes(8), "only 8-bit PGM images are supported"),
        (b"P5\n2 2\n0\n" + bytes(4), "only 8-bit PGM images are supported"),
    ], ids=["size", "comment", "ascii", "malformed", "16-bit", "maxval-0"])
    def test_pgm_header_rejections(self, tmp_path, data, reason):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(TrafficError) as info:
            pgm_source(path, 16)
        assert str(info.value) == f"{path}: {reason}"

    def test_make_payload_source_synthetic(self):
        src = make_payload_source(
            {"payload": "gaussian", "sigma": "256", "rho": "0.9", "length": "50"}, 16
        )
        assert len(src) == 50 and src.width == 16

    def test_make_payload_source_unknown(self):
        with pytest.raises(TrafficError):
            make_payload_source({"payload": "video"}, 16)


def reference_ar1(rng, length, sigma, rho):
    """The whole-stream AR(1) formula that the payload draws must repeat."""
    x0 = rng.normal(0.0, sigma)
    if rho >= 1.0 or length == 1:
        return np.full(length, x0)
    eps = rng.normal(0.0, sigma * np.sqrt(1.0 - rho * rho), size=length - 1)
    tail, _ = lfilter([1.0], [1.0, -rho], eps, zi=np.array([rho * x0]))
    return np.concatenate(([x0], tail))


def reference_words(kind, width, length, sigma, rho, seed):
    """A payload's ``length`` words, generated whole."""

    def gaussian(w, s):
        x = reference_ar1(np.random.default_rng(s), length, sigma, rho)
        offset = float(1 << (w - 1)) if w > 1 else 0.5
        return np.clip(np.rint(x + offset), 0.0, float((1 << w) - 1)).astype(np.uint64)

    def uniform(w, s):
        return np.random.default_rng(s).integers(0, 1 << w, size=length, dtype=np.uint64)

    if kind == "uniform":
        return uniform(width, seed)
    if kind == "gaussian":
        return gaussian(width, seed)
    half = width // 2
    lo = gaussian(half, seed + 500) if kind == "pixel-packed" else uniform(half, seed + 5000)
    return (gaussian(half, seed) << np.uint64(half)) | lo


@st.composite
def drawn_payloads(draw):
    kind = draw(st.sampled_from(["uniform", "gaussian", "pixel-packed", "pixel-msb"]))
    width = draw(st.integers(8, 32))
    if kind.startswith("pixel"):
        width -= width % 2
    sample_width = width // 2 if kind.startswith("pixel") else width
    lo, hi = 2.0 ** (sample_width / 10.0), 2.0 ** (sample_width - 1)
    sigma = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    rho = draw(st.sampled_from([0.0, 0.9, 0.995, 1.0]))
    length = draw(st.integers(1, 5000))
    seed = draw(st.integers(0, 2**16))
    takes = draw(st.lists(
        st.tuples(st.integers(0, 3 * length), st.integers(1, 700)), min_size=1, max_size=12))
    return kind, width, length, sigma, rho, seed, takes


class TestOnDemandPayload:
    """Synthetic payloads are drawn as ``take`` reaches them."""

    @given(drawn_payloads())
    @settings(max_examples=150, deadline=None)
    def test_takes_equal_the_whole_stream(self, case):
        kind, width, length, sigma, rho, seed, takes = case
        cfg = {"payload": kind, "length": length, "seed": seed}
        if kind != "uniform":
            cfg.update(sigma=sigma, rho=rho)
        src = make_payload_source(cfg, width)
        want = reference_words(kind, width, length, sigma, rho, seed)
        for start, count in takes:
            got = src.take(start, count)
            assert np.array_equal(got, want[(start + np.arange(count)) % length])
        assert len(src) == length
        assert np.array_equal(src.words, want)

    @given(
        st.integers(1, 5000),
        st.lists(st.tuples(st.integers(0, 6000), st.integers(1, 700)), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_draws_at_most_twice_the_words_taken(self, length, takes):
        drawn = []

        def draw(count):
            drawn.append(count)
            return np.zeros(count, dtype=np.uint64)

        src = PayloadSource((), 8, "counted", draw=draw, length=length)
        reached = 0
        for start, count in takes:
            src.take(start, count)
            reached = max(reached, min(start + count, length))
            assert reached <= sum(drawn) <= min(max(2 * reached, 256), length)
        assert len(src) == length and len(src.words) == length == sum(drawn)

    def test_sequential_takes_draw_in_doubling_blocks(self):
        drawn = []

        def draw(count):
            drawn.append(count)
            return np.arange(count, dtype=np.uint64) % 256

        src = PayloadSource((), 8, "counted", draw=draw, length=3000)
        for k in range(100):
            src.take(31 * k, 31)
        assert drawn == [256, 256, 512, 1024, 952]

    def test_drawn_words_keep_the_width_check(self):
        src = PayloadSource(
            (), 8, "wide", draw=lambda count: np.full(count, 256, np.uint64), length=10)
        with pytest.raises(TrafficError, match="exceed 8 bits"):
            src.take(0, 1)

    def test_recycling_logged_once(self, caplog):
        src = PayloadSource(np.arange(10, dtype=np.uint64), 8, "short")
        with caplog.at_level(logging.INFO, logger="noclink.traffic"):
            for k in range(100):
                src.take(3 * k, 3)
        assert [r.getMessage() for r in caplog.records] == [
            "payload source short exhausted at word 10; recycling"]

    def test_scipy_loaded_only_by_a_correlated_draw(self):
        script = textwrap.dedent("""
            import sys
            import noclink, noclink.cli
            print("scipy" in sys.modules)
            from noclink.streams import DataStream, StreamSpec, multiplex_streams, stream_draw
            from noclink.traffic import make_payload_source
            src = make_payload_source({"payload": "uniform", "seed": 3, "length": 100}, 16)
            multiplex_streams([DataStream(src.take(0, 60), 16),
                               DataStream(src.take(60, 60), 16)], 0.5, seed=1)
            print("scipy" in sys.modules)
            words = stream_draw(StreamSpec("gaussian", 16, 500, sigma=256.0, rho=0.9, seed=4))(500)
            print("scipy" in sys.modules)
            print(*words.tolist())
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:3] == ["False", "False", "True"]
        want = reference_words("gaussian", 16, 500, 256.0, 0.9, 4)
        assert lines[3].split() == [str(w) for w in want.tolist()]


class TestInjectionSpec:
    """A flow's checks, made once by FlowSpec, and the loading of flows."""

    def test_rate_out_of_range(self):
        with pytest.raises(ConfigurationError, match="1.5"):
            FlowSpec(0, 0, "A", "B", 1.5, 32, simple_source())

    def test_packet_needs_a_body_flit(self):
        with pytest.raises(ConfigurationError, match="body flit"):
            FlowSpec(0, 0, "A", "B", 0.5, 1, simple_source())

    def test_negative_type_rejected(self):
        with pytest.raises(ConfigurationError, match="type_id"):
            FlowSpec(0, -1, "A", "B", 0.5, 32, simple_source())

    def test_load_assigns_types_per_source(self):
        flows = [
            {"src": "A", "dst": "B", "rate": "0.2", "payload": "uniform", "seed": "1"},
            {"src": "B", "dst": "A", "rate": "0.2", "payload": "uniform", "seed": "2"},
        ]
        specs = load_traffic_spec(flows, NODES, 16, 32)
        assert [s.type_id for s in specs] == [0, 1]
        assert [s.flow_id for s in specs] == [0, 1]

    def test_load_unknown_node(self):
        flows = [{"src": "Z", "dst": "B", "rate": "0.1", "payload": "uniform"}]
        with pytest.raises(TrafficError):
            load_traffic_spec(flows, NODES, 16, 32)

    def test_empty_traffic_permitted(self):
        assert load_traffic_spec([], NODES, 16, 32) == []

    def test_to_flow_specs_fresh_cursors(self):
        # the cursor is the PE's, so two PEs given one FlowSpec inject the same words
        spec = FlowSpec(0, 0, "A", "B", 0.5, 4, simple_source())
        first = inject_packets(spec, 50, 1)
        assert first and inject_packets(spec, 50, 1) == first


class RecordingNI:
    """Stands in for a PE's source NI: keeps each enqueued packet's
    injection cycle and body words, not its flits."""

    def __init__(self):
        self.packets: list[tuple[int, list[int]]] = []

    def enqueue_packet(self, flits):
        self.packets.append((flits[0].inject_cycle, [f.word for f in flits[1:]]))


def inject_packets(spec, cycles, seed):
    """The (PE cycle, body words) of the packets a PE injects for one flow
    over ``cycles`` PE cycles, driven tick by tick without a network."""
    ni = RecordingNI()
    pe = PE("A", {"A": 0, "B": 1}, 16, [spec], ni, head_type=1, seed=seed)
    for cycle, draws in pe.injections(0, cycles, 1):
        pe.tick(cycle, draws, NODES)
    return ni.packets


class TestInjectPackets:
    def test_binomial_bound(self):
        spec = FlowSpec(0, 0, "A", "B", 0.2, 32, simple_source(1024))
        packets = inject_packets(spec, 100_000, 7)
        assert 19_500 <= len(packets) <= 20_500
        cycles = [c for c, _ in packets]
        assert cycles == sorted(set(cycles)) and cycles[-1] < 100_000

    def test_schedule_equals_per_tick_draws(self):
        # spans cross CHUNK and one holds no tick of clock delay 3; the
        # uniforms must be those of one scalar draw per flow and tick
        rates = [0.1, 0.3]
        flows = [FlowSpec(i, i, "A", "B", rate, 4, simple_source())
                 for i, rate in enumerate(rates)]
        pe = PE("A", {"A": 0, "B": 1}, 16, flows, RecordingNI(), head_type=2, seed=11)
        spans = [(0, 5000), (5000, 5001), (5001, 13001)]
        assert spans[0][0] < CHUNK < spans[0][1] and spans[2][0] < 2 * CHUNK < spans[2][1]
        got = [hit for lo, hi in spans for hit in pe.injections(lo, hi, 3)]
        rng = np.random.default_rng(11)
        want = []
        for tick in range(-(-13001 // 3)):
            draws = rng.random(len(flows))
            if (draws < rates).any():
                want.append((3 * tick, draws.tolist()))
        assert len(want) > 1000 and got == want

    def test_zero_rate(self):
        spec = FlowSpec(0, 0, "A", "B", 0.0, 32, simple_source())
        assert inject_packets(spec, 10_000, 0) == []

    def test_payload_order_preserved(self):
        spec = FlowSpec(0, 0, "A", "B", 0.5, 4, simple_source(9, 16))
        packets = inject_packets(spec, 50, 1)
        assert packets
        words = np.concatenate([w for _, w in packets])
        expect = [i % 9 for i in range(len(words))]
        assert list(words) == expect

    def test_empirical_rate_converges(self):
        spec = FlowSpec(0, 0, "A", "B", 0.35, 8, simple_source())
        packets = inject_packets(spec, 100_000, 3)
        assert abs(len(packets) / 100_000 - 0.35) < 0.0035

    def test_image_sized_payload_consumed_sequentially(self):
        # a 512x512 8-bit image packed two pixels per flit yields 131072
        # payload words that whole packets consume in order
        pixels = (np.arange(512 * 512) % 256).astype(np.uint8)
        words = (pixels[0::2].astype(np.uint64) << np.uint64(8)) | pixels[1::2]
        src = PayloadSource(words, 16, "image")
        assert len(src) == 131_072
        drained = np.concatenate([src.take(31 * k, 31) for k in range(1000)])
        assert np.array_equal(drained, words[: 31 * 1000])
