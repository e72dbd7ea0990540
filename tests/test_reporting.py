import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.linkmodel import load_data_flow_matrix
from noclink.reporting import (
    IDLE,
    LinkObserver,
    ReportingError,
    data_flow_from_states,
    data_flow_from_trace,
    emit_reports,
    latency_stats,
)
from noclink.simnet import FlowSpec, RouterConfig, build_network


class TestLinkObserver:
    def test_mixed_trace_counts(self):
        # states A(0), A, idle-holding-A, B(1): transitions
        # (A,A), (A,idleA), (idleA,B)
        obs = LinkObserver("L", 2)
        for state in (0, 0, IDLE, 1):
            obs.record(state)
        assert obs.counts[0, 0] == 1
        assert obs.counts[0, 2] == 1  # idle holding type 0
        assert obs.counts[2, 1] == 1
        assert obs.counts.sum() == 3

    def test_all_idle_holds_initial_head_type(self):
        obs = LinkObserver("L", 3)
        for _ in range(10):
            obs.record(IDLE)
        # initial hold is the head type (index n-1)
        assert obs.counts[5, 5] == 9

    def test_memory_constant_in_cycle_count(self):
        obs = LinkObserver("L", 4)
        for i in range(100_000):
            obs.record(i % 4)
        assert obs.counts.shape == (8, 8)
        assert obs.counts.sum() == 99_999

    def test_type_out_of_range(self):
        obs = LinkObserver("L", 2)
        with pytest.raises(ReportingError):
            obs.record(2)

    def test_finalize_normalization(self):
        obs = LinkObserver("L", 1)
        for state in (0, 0, 0, 0, IDLE):
            obs.record(state)
        m = obs.finalize()
        assert m.m[0, 0] == pytest.approx(0.75)
        assert m.m[0, 1] == pytest.approx(0.25)

    def test_finalize_needs_two_cycles(self):
        obs = LinkObserver("L", 1)
        obs.record(0)
        with pytest.raises(ReportingError):
            obs.finalize()

    @given(st.lists(st.integers(-1, 2), min_size=2, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_mass_sums_to_one(self, states):
        m = data_flow_from_trace(states, 3)
        assert m.m.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.just(n),
            st.integers(0, 20),
            st.lists(st.integers(-1, n - 1), max_size=200),
        ))
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_counts_equal_online_counts(self, case):
        # a leading idle run (possibly the whole sequence) holds the head type
        n, lead, rest = case
        states = [IDLE] * lead + rest
        obs = LinkObserver("L", n)
        for s in states:
            obs.record(s)
        counts = data_flow_from_states(states, n)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, obs.counts)

    def test_vectorized_counts_reject_out_of_range(self):
        with pytest.raises(ReportingError):
            data_flow_from_states([0, 2], 2)

    def test_active_flits_match(self):
        obs = LinkObserver("L", 2)
        states = [0, 1, IDLE, 1, 0, 0, IDLE]
        for s in states:
            obs.record(s)
        active = sum(1 for s in states[1:] if s != IDLE)
        assert obs.active_flits() == active


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

        def payload(n):
            return np.zeros(n, dtype=np.uint64)

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
