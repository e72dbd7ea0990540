import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.linkmodel import load_data_flow_matrix
from noclink.reporting import (
    IDLE,
    LinkObserver,
    ReportingError,
    SimulationError,
    data_flow_from_trace,
    emit_reports,
    latency_stats,
)
from noclink.simnet import FlowSpec, RouterConfig, build_network
from noclink.traffic import PayloadSource


def reference_counts(states, n):
    """Transition counts by the per-state state machine that ``record``
    replaced: idle cycles hold the last type, starting from the head type."""
    counts = np.zeros((2 * n, 2 * n), dtype=np.int64)
    prev, held = None, n - 1
    for s in states:
        if s == IDLE:
            state = n + held
        else:
            if not 0 <= s < n:
                raise ReportingError(f"type {s} out of range (n={n})")
            state = held = s
        if prev is not None:
            counts[prev, state] += 1
        prev = state
    return counts


def feed(obs, states):
    """Record the next cycles from a per-cycle sequence of states, IDLE on
    idle cycles: the flits are the cycles whose state is not IDLE."""
    states = np.asarray(states, dtype=np.int64)
    cycles = np.flatnonzero(states != IDLE)
    obs.record(obs.cycles + cycles, states[cycles], obs.cycles + states.size)


def observed(states, n, cuts=()):
    """An observer fed ``states`` in the segments between sorted ``cuts``."""
    obs = LinkObserver("L", n)
    bounds = [0, *cuts, len(states)]
    for lo, hi in zip(bounds, bounds[1:]):
        feed(obs, states[lo:hi])
    return obs


@st.composite
def segmented_states(draw):
    """n, a state sequence (with a leading idle run, possibly all idle)
    and sorted cut points, repeats giving empty segments."""
    n = draw(st.integers(1, 4))
    states = [IDLE] * draw(st.integers(0, 20)) + draw(
        st.lists(st.integers(-1, n - 1), max_size=200))
    cuts = sorted(draw(st.lists(st.integers(0, len(states)), max_size=12)))
    return n, states, cuts


class TestLinkObserver:
    def test_mixed_trace_counts(self):
        # states A(0), A, idle-holding-A, B(1): transitions
        # (A,A), (A,idleA), (idleA,B); the second segment holds A across the cut
        obs = observed([0, 0, IDLE, 1], 2, cuts=[2])
        assert obs.counts[0, 0] == 1
        assert obs.counts[0, 2] == 1  # idle holding type 0
        assert obs.counts[2, 1] == 1
        assert obs.counts.sum() == 3

    def test_all_idle_holds_initial_head_type(self):
        obs = observed([IDLE] * 10, 3, cuts=[1, 5])
        # initial hold is the head type (index n-1)
        assert obs.counts[5, 5] == 9

    def test_memory_constant_in_cycle_count(self):
        obs = LinkObserver("L", 4)
        for lo in range(0, 100_000, 1_000):
            feed(obs, np.arange(lo, lo + 1_000) % 4)
        assert obs.counts.shape == (8, 8)
        assert obs.counts.sum() == 99_999
        assert obs.cycles == 100_000

    def test_type_out_of_range(self):
        obs = LinkObserver("L", 2)
        with pytest.raises(ReportingError):
            feed(obs, [2])

    def test_vectorized_counts_reject_out_of_range(self):
        obs = LinkObserver("L", 2)
        feed(obs, [0, IDLE])
        before = obs.counts.copy()
        for bad in ([2], [0, -2], [IDLE, 1, 5]):
            with pytest.raises(ReportingError):
                feed(obs, bad)
        # a rejected segment counts nothing
        assert np.array_equal(obs.counts, before)
        assert obs.cycles == 2

    def test_finalize_normalization(self):
        obs = observed([0, 0, 0, 0, IDLE], 1, cuts=[1, 1, 4])
        m = obs.finalize()
        assert m.m[0, 0] == pytest.approx(0.75)
        assert m.m[0, 1] == pytest.approx(0.25)

    def test_finalize_needs_two_cycles(self):
        obs = LinkObserver("L", 1)
        feed(obs, [0])
        with pytest.raises(ReportingError):
            obs.finalize()

    def test_finalize_checks_transition_count(self):
        obs = observed([0, 1, IDLE], 2)
        obs.cycles += 1
        with pytest.raises(SimulationError):
            obs.finalize()

    @given(st.lists(st.integers(-1, 2), min_size=2, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_mass_sums_to_one(self, states):
        m = data_flow_from_trace(states, 3)
        assert m.m.sum() == pytest.approx(1.0, abs=1e-12)

    @given(segmented_states())
    @settings(max_examples=300, deadline=None)
    def test_vectorized_counts_equal_online_counts(self, case):
        # any split into segments, empty and one-cycle ones included,
        # counts like the per-state loop
        n, states, cuts = case
        obs = observed(states, n, cuts)
        assert obs.counts.dtype == np.int64
        assert np.array_equal(obs.counts, reference_counts(states, n))
        assert obs.cycles == len(states)

    def test_active_flits_match(self):
        states = [0, 1, IDLE, 1, 0, 0, IDLE]
        obs = observed(states, 2, cuts=[3])
        # flits in the counted transitions: every cycle after the first
        expect = [sum(1 for s in states[1:] if s == x) for x in range(2)]
        assert list(obs.type_flit_counts()) == expect == [2, 2]


@st.composite
def carried_states(draw):
    """n, a state sequence over a few of the n types, drawn in any order
    of first appearance (the head type n-1 possibly never sent), with idle
    runs anywhere, and sorted cut points."""
    n = draw(st.integers(1, 12))
    carried = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=5))
    states = []
    for _ in range(draw(st.integers(0, 12))):
        states += [IDLE] * draw(st.integers(0, 6))
        states += draw(st.lists(st.sampled_from(carried), max_size=6))
    cuts = sorted(draw(st.lists(st.integers(0, len(states)), max_size=8)))
    return n, states, cuts


class TestCompactCounts:
    @given(carried_states())
    @settings(max_examples=300, deadline=None)
    def test_dense_view_equals_online_counts(self, case):
        # types appear mid-segment, after held idle runs or never, and
        # each appearance may fall in any segment
        n, states, cuts = case
        obs = observed(states, n, cuts)
        counts = obs.counts
        assert counts.shape == (2 * n, 2 * n)
        assert np.array_equal(counts, reference_counts(states, n))
        assert np.array_equal(obs.type_flit_counts(), counts[:, :n].sum(axis=0))
        sent = {s for s in states if s != IDLE}
        assert set(obs.types.tolist()) == sent | {n - 1}
        if len(states) >= 2:
            assert np.array_equal(obs.finalize().m, counts / counts.sum())

    def test_stores_only_carried_types(self):
        # 33 types, two of them carried: every array the observer and its
        # M keep covers at most the 3 indexed types' 6 states
        obs = observed([IDLE, 20, 20, IDLE, IDLE, 4, 20, IDLE], 33, cuts=[3, 6])
        dfm = obs.finalize()
        assert obs.types.tolist() == [4, 20, 32]
        for owner in (obs, dfm):
            sizes = {name: a.size for name, a in vars(owner).items()
                     if isinstance(a, np.ndarray)}
            assert sizes and max(sizes.values()) <= (2 * 3) ** 2, sizes
        assert dfm.m.shape == (66, 66)


class TestLatencyStats:
    def test_two_samples(self):
        st_ = latency_stats([2, 4], 1e-9)
        assert st_["cycles"]["mean"] == 3.0
        assert st_["ns"]["mean"] == pytest.approx(3.0)

    def test_single_sample(self):
        st_ = latency_stats([5], 1e-9)
        assert st_["cycles"]["mean"] == st_["cycles"]["median"] == st_["cycles"]["max"] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ReportingError):
            latency_stats([], 1e-9)

    def test_clock_scaling(self):
        st_ = latency_stats([10], 2e-9)
        assert st_["ns"]["mean"] == pytest.approx(20.0)


class TestEmitReports:
    def make_result(self):
        nodes = {"A": (0, 0, 0), "B": (1, 0, 0)}

        payload = PayloadSource(np.zeros(1024, dtype=np.uint64), 16, "zeros")
        flows = [FlowSpec(0, 0, "A", "B", 0.05, 4, payload)]
        net = build_network(
            nodes, flows, flit_width=16,
            router_cfg=RouterConfig(vc_count=2, buffer_depth=4, clock_delay=1),
            pe_clock_delay=1, collect_traces=True, seed=3,
        )
        return net.run(2_000)

    def test_files_written(self, tmp_path):
        result = self.make_result()
        written = emit_reports(result, tmp_path)
        names = {p.name for p in written}
        assert "latency.json" in names
        assert "utilization.csv" in names
        assert "summary.json" in names
        m_files = [n for n in names if n.startswith("M_")]
        assert len(m_files) == len(result.data_flow)

    def test_matrix_roundtrip(self, tmp_path):
        result = self.make_result()
        emit_reports(result, tmp_path)
        m, cycles, link = load_data_flow_matrix(tmp_path / "M_A__B.csv")
        assert link == "A->B"
        assert cycles == result.cycles
        assert np.allclose(m.m, result.data_flow["A->B"].m)

    def test_utilization_consistent_with_counts(self, tmp_path):
        result = self.make_result()
        emit_reports(result, tmp_path)
        lines = (tmp_path / "utilization.csv").read_text().splitlines()[1:]
        for line in lines:
            link, frac, flits = line.split(",")
            recorded = result.link_flit_counts[link].sum()
            assert int(flits) == recorded
            # active transition mass times (cycles-1) ~ flit count
            assert abs(float(frac) * (result.cycles - 1) - recorded) <= 1.0

    def test_latency_json_valid(self, tmp_path):
        result = self.make_result()
        emit_reports(result, tmp_path)
        data = json.loads((tmp_path / "latency.json").read_text())
        assert data["flit"]["count"] == len(result.flit_latencies)

    def test_finalize_matrices_all_links(self):
        result = self.make_result()
        assert set(result.data_flow) == set(result.link_flit_counts)
        for dfm in result.data_flow.values():
            assert dfm.m.sum() == pytest.approx(1.0, abs=1e-12)


class TestIdleRun:
    def test_idle_reports(self, tmp_path):
        nodes = {"A": (0, 0, 0), "B": (1, 0, 0)}
        net = build_network(
            nodes, [], flit_width=16,
            router_cfg=RouterConfig(), pe_clock_delay=1, seed=0,
        )
        result = net.run(100)
        written = emit_reports(result, tmp_path)
        assert written
        for dfm in result.data_flow.values():
            n = result.n_types
            assert dfm.m[2 * n - 1, 2 * n - 1] == pytest.approx(1.0)
