import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.energy import TechnologyParams, template_2d_bus, template_3d_tsv, energy_2d
from noclink.oracle import (
    IDLE,
    LinkTrace,
    TraceError,
    exact_energy,
    exact_switching,
    replay_link_protocol,
    write_link_protocol,
)
from noclink.streams import StreamSpec, generate_stream, multiplex_streams

TECH = TechnologyParams(vdd=1.1, clock_period=1e-9)


def trace(words, types, width):
    return LinkTrace(np.array(words, dtype=np.uint64), np.array(types), width)


class TestExactSwitching:
    def test_every_cycle_toggles(self):
        t, _ = exact_switching(trace([0b00, 0b11, 0b00], [0, 0, 0], 2))
        assert np.allclose(np.diag(t.t), 1.0)

    def test_idle_holds_value(self):
        # one switching event averaged over 3 cycle pairs
        t, _ = exact_switching(trace([5, 0, 0, 6], [0, IDLE, IDLE, 0], 4))
        held_toggles = np.diag(t.t) * 3
        assert held_toggles.sum() == pytest.approx(bin(5 ^ 6).count("1"))

    def test_initial_hold_is_zero(self):
        t, p = exact_switching(trace([0, 0b11], [IDLE, 0], 2))
        assert np.allclose(np.diag(t.t), 1.0)  # 0b00 -> 0b11
        assert np.allclose(p, 0.5)

    def test_concatenation_property(self):
        rng = np.random.default_rng(0)
        w1, w2 = rng.integers(0, 16, 50), rng.integers(0, 16, 70)
        t1, _ = exact_switching(trace(w1, [0] * 50, 4))
        t2, _ = exact_switching(trace(w2, [0] * 70, 4))
        tc, _ = exact_switching(trace(np.concatenate([w1, w2]), [0] * 120, 4))
        junction = np.zeros((4, 4))
        db = np.array([(int(w2[0]) >> i & 1) - (int(w1[-1]) >> i & 1) for i in range(4)], float)
        corr = np.outer(db, db)
        junction = np.diag(corr)[:, None] - corr
        np.fill_diagonal(junction, np.diag(corr))
        expect = (49 * t1.t + 69 * t2.t + junction) / 119
        assert np.allclose(tc.t, expect)


class TestExactEnergy:
    def test_constant_trace(self):
        rep = exact_energy(trace([7, 7, 7], [0, 0, 0], 4), template_2d_bus(4, 100.0, 50.0), TECH)
        assert rep.total_fj == 0.0

    def test_single_full_transition_diagonal_only(self):
        cap = template_2d_bus(4, 100.0, 0.0)
        rep = exact_energy(trace([0, 15], [0, 0], 4), cap, TECH)
        assert rep.normalized_total_af == pytest.approx(400.0)
        assert rep.total_fj == pytest.approx(400.0 * 1e-3 * 1.1**2 / 2)

    def test_identity_with_exact_switching(self):
        a = generate_stream(StreamSpec("uniform", 8, 20_000, seed=1))
        b = generate_stream(StreamSpec("gaussian", 8, 20_000, sigma=16.0, rho=0.9, seed=2))
        mux, types = multiplex_streams([a, b], 0.3, seed=3)
        tr = LinkTrace(mux.words, types, 8)
        cap = template_2d_bus(8, 100.0, 60.0, 2)
        rep = exact_energy(tr, cap, TECH)
        t, _ = exact_switching(tr)
        expect = energy_2d(t, cap) * (len(tr) - 1)
        assert rep.normalized_total_af == pytest.approx(expect, rel=1e-9)

    def test_3d_uses_global_probabilities(self):
        tr = trace([0, 15, 0, 15], [0, 0, 0, 0], 4)
        cap = template_3d_tsv(2, 2, 0.0, 0.0, 100.0, -20.0)
        rep = exact_energy(tr, cap, TECH)
        # p = 0.5 per bit -> diagonal C = 100 - 20*(1.0) = 80 aF, 4 bits, 3 transitions
        assert rep.normalized_total_af == pytest.approx(3 * 4 * 80.0)

    def test_width_mismatch(self):
        with pytest.raises(TraceError):
            exact_energy(trace([0], [0], 4), template_2d_bus(8, 1.0, 1.0), TECH)


def protocol_reference(trace) -> bytes:
    """The protocol format written one record at a time."""
    held = trace.held_words()
    return "".join(
        f"{cycle},{'IDLE' if t < 0 else t},{int(held[cycle]):x}\n"
        for cycle, t in enumerate(trace.types.tolist())
    ).encode()


class TestProtocol:
    @given(
        st.integers(1, 64).flatmap(lambda width: st.lists(
            st.tuples(st.integers(-1, 40), st.integers(0, 2**width - 1)),
            min_size=1, max_size=150,
        ).map(lambda rows: (width, rows)))
    )
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_record_by_record_format(self, tmp_path_factory, case):
        width, rows = case
        tr = trace([w for _, w in rows], [t for t, _ in rows], width)
        path = tmp_path_factory.mktemp("proto") / "link.protocol"
        write_link_protocol(path, tr)
        assert path.read_bytes() == protocol_reference(tr)

    def test_roundtrip_with_idles(self, tmp_path):
        tr = trace([3, 0, 0, 9, 12], [1, IDLE, IDLE, 0, 2], 4)
        path = tmp_path / "link.protocol"
        write_link_protocol(path, tr)
        back = replay_link_protocol(path, 4)
        assert len(back) == 5
        assert np.array_equal(back.types, tr.types)
        assert np.array_equal(back.held_words(), tr.held_words())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.protocol"
        path.write_text("")
        with pytest.raises(TraceError):
            replay_link_protocol(path, 4)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.protocol"
        path.write_text("0,zap\n")
        with pytest.raises(TraceError):
            replay_link_protocol(path, 4)

    def test_exact_switching_consistent_after_roundtrip(self, tmp_path):
        a = generate_stream(StreamSpec("uniform", 8, 500, seed=4))
        types = np.array([0 if i % 3 else IDLE for i in range(500)])
        tr = LinkTrace(a.words, types, 8)
        path = tmp_path / "p.protocol"
        write_link_protocol(path, tr)
        back = replay_link_protocol(path, 8)
        t1, p1 = exact_switching(tr)
        t2, p2 = exact_switching(back)
        assert np.allclose(t1.t, t2.t)
        assert np.allclose(p1, p2)
        assert back.active_count() == tr.active_count()
