import hashlib
import itertools
import json
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from noclink.linkmodel import DataFlowMatrix
from noclink.oracle import TRACE_COLUMNS
from noclink.reporting import IDLE, LinkObserver, data_flow_from_trace
from noclink.simnet import (
    CHUNK,
    LOCAL,
    XN,
    XP,
    YN,
    YP,
    ZN,
    ZP,
    ConfigurationError,
    Flit,
    FlowSpec,
    Link,
    Router,
    RouterConfig,
    SimulationError,
    SinkNI,
    SourceNI,
    _validate_paths,
    build_network,
    encode_head_word,
    route_xyz,
)
from noclink.traffic import PayloadSource

W = 16


def per_cycle_types(trace):
    """Each cycle's flit type in a recorded trace, IDLE when none arrives."""
    types = np.full(len(trace), IDLE, dtype=np.int64)
    types[trace.cycles] = trace.types
    return types


def ramp_payload():
    return PayloadSource(np.arange(1 << W, dtype=np.uint64), W, "ramp")


def two_node_net(**kwargs):
    nodes = {"A": (0, 0, 0), "B": (1, 0, 0)}
    defaults = dict(
        flit_width=W,
        router_cfg=RouterConfig(vc_count=1, buffer_depth=4, clock_delay=1),
        pe_clock_delay=1,
        collect_traces=True,
        seed=0,
    )
    defaults.update(kwargs)
    flows = defaults.pop("flows", [])
    return build_network(nodes, flows, **defaults)


def case_net(vc_count, rate=0.00625, seed=1, **kwargs):
    nodes = {
        "R1": (0, 0, 0), "R2": (1, 0, 0), "R3": (2, 0, 0),
        "R4": (0, 1, 0), "R5": (1, 1, 0), "R6": (2, 1, 0),
        "R7": (1, 1, 1),
    }
    flows = [
        FlowSpec(i, i, src, "R7", rate, 8, ramp_payload())
        for i, src in enumerate(["R1", "R2", "R3", "R4", "R6", "R5"])
    ]
    defaults = dict(
        flit_width=W,
        router_cfg=RouterConfig(vc_count=vc_count, buffer_depth=4, clock_delay=1),
        pe_clock_delay=2,
        collect_traces=True,
        seed=seed,
    )
    defaults.update(kwargs)
    return build_network(nodes, flows, **defaults)


class TestRouting:
    def test_x_first(self):
        assert route_xyz((1, 0, 0), (0, 1, 1)) == XN

    def test_then_y(self):
        assert route_xyz((1, 0, 0), (1, 1, 1)) == YP

    def test_then_z(self):
        assert route_xyz((0, 1, 1), (0, 1, 0)) == ZN

    def test_local_eject(self):
        assert route_xyz((2, 1, 0), (2, 1, 0)) == LOCAL

    def test_positive_directions(self):
        assert route_xyz((0, 0, 0), (1, 0, 0)) == XP
        assert route_xyz((1, 1, 0), (1, 1, 1)) == ZP
        assert route_xyz((1, 2, 0), (1, 1, 0)) == YN


class TestHeadWord:
    def test_deterministic_encoding(self):
        assert encode_head_word(3, 5, 16) == (3 << 8) | 5

    def test_packet_counter_wraps(self):
        assert encode_head_word(0, 256, 16) == encode_head_word(0, 0, 16)


class TestGoldenLatency:
    """Single 4-flit packet across one hop, all clocks at delay 1.

    Hand trace (cycle: event), with the fixed update order
    links-deliver / routers / sinks / PEs / source-NIs:

    * 0: source NI sends the head into the local link
    * 1: head in router A; route computation
    * 2: VC allocation
    * 3: head sent into link A->B (body flits pipeline one per cycle)
    * 4: head in router B; route computation
    * 5: VC allocation
    * 6: head sent into the local ejection link
    * 7: head delivered and drained by the sink => flit latency 7
    * tail follows three cycles behind => packet latency 10
    """

    def run_single_packet(self):
        flow = FlowSpec(0, 0, "A", "B", 0.0, 4, ramp_payload())
        net = two_node_net(flows=[flow])
        words = [7, 8, 9]
        flits = [Flit(0, 1, encode_head_word(1, 0, W), True, False, 0, (1, 0, 0), -1, 0)]
        flits += [
            Flit(0, 0, w, False, k == 2, 0, (1, 0, 0), k, 0)
            for k, w in enumerate(words)
        ]
        net.sources["A"].enqueue_packet(flits)
        return net.run(40, check_invariants=True)

    def test_head_latency(self):
        result = self.run_single_packet()
        assert result.flit_latencies[0] == 7

    def test_packet_latency(self):
        result = self.run_single_packet()
        assert result.packet_latencies == [10]
        assert result.ejected_flits == 4

    def test_flits_arrive_in_order(self):
        result = self.run_single_packet()
        trace = result.link_traces["B->PE_B"]
        words = trace.words[trace.indices >= 0]
        assert words.tolist() == [7, 8, 9]


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        results = [case_net(4, seed=9).run(5_000) for _ in range(2)]
        a, b = results
        assert a.flit_latencies == b.flit_latencies
        assert a.injected_flits == b.injected_flits
        for link in a.data_flow:
            assert np.array_equal(a.data_flow[link].m, b.data_flow[link].m)
            ta, tb = a.link_traces[link], b.link_traces[link]
            for column in ("types", "words", "flows", "indices"):
                assert np.array_equal(getattr(ta, column), getattr(tb, column))

    def test_different_seed_differs(self):
        a = case_net(4, seed=1).run(5_000)
        b = case_net(4, seed=2).run(5_000)
        assert a.injected_flits != b.injected_flits or a.flit_latencies != b.flit_latencies


class TestPinnedOutputs:
    """Outputs recorded before the router and source-NI output stages were
    merged, over configurations the benchmark pins do not reach: both
    arbitrations at 1, 2 and 4 VCs, slow router and PE clocks, and a
    source NI whose flows share its VCs."""

    @staticmethod
    def digest(result):
        h = hashlib.sha256()
        h.update(np.asarray(result.flit_latencies, dtype=np.int64).tobytes())
        h.update(np.asarray(result.packet_latencies, dtype=np.int64).tobytes())
        for link in sorted(result.data_flow):
            h.update(link.encode())
            h.update(result.data_flow[link].m.tobytes())
            h.update(np.asarray(result.link_flit_counts[link], dtype=np.int64).tobytes())
        h.update(json.dumps(result.summary(), sort_keys=True).encode())
        return h.hexdigest()

    CASE_STUDY = {
        ("priority", 1): "89be57bd1978c4b862a1ef4776d447c535af202103e4a0e1408b2c78d0e690fb",
        ("priority", 2): "76b05371c7ab2fdbf72bd276a466772349f7e23abe977f77424f32383e05d909",
        ("priority", 4): "b4ce4d31f410635e76d015bc5d59150667b03a1e45cf3d3b525f919d802d4490",
        ("fair", 1): "89be57bd1978c4b862a1ef4776d447c535af202103e4a0e1408b2c78d0e690fb",
        ("fair", 2): "47aa46991720eb98de76534d452d5e0f2b153a43909ee57ad8360e43cca4071a",
        ("fair", 4): "fdbe0e17ef4b10c2be5b1bb397aaad89da6690804b23446427c893a740f30ed0",
    }
    SHARED_SOURCE = {
        "priority": "2fff0868b2aaf4eca4b1939fa10ab01a3b4efbab6216e327ff39e4b3a0b3c3e0",
        "fair": "b048147ae9046711dc8c52729ae4026460e4416a1af5cdbfcf9956e701d7b197",
    }

    @pytest.mark.parametrize("arbitration, vc_count", list(CASE_STUDY))
    def test_case_study_arbitration(self, arbitration, vc_count):
        cfg = RouterConfig(vc_count=vc_count, buffer_depth=4, arbitration=arbitration)
        result = case_net(vc_count, rate=0.03, seed=21, router_cfg=cfg).run(
            3_000, check_invariants=True)
        assert self.digest(result) == self.CASE_STUDY[arbitration, vc_count]

    # (router clock, PE clock); with clocks that do not divide each other, a
    # tick moved to the other clock, or off its own, changes the outputs
    SLOW_CLOCKS = {
        (2, 4): "4dbe3e1b4accd54a53b91df3a6c74706cc33bcd92919137eb8ffc132d454aceb",
        (2, 3): "eb4e7baafbb647441489a83f824cb21de1eb124182685c02ce0755b4754466ab",
    }

    @pytest.mark.parametrize("router_clock, pe_clock", list(SLOW_CLOCKS))
    def test_slow_clocks(self, router_clock, pe_clock):
        cfg = RouterConfig(vc_count=2, buffer_depth=4, clock_delay=router_clock)
        result = case_net(2, rate=0.01, seed=22, router_cfg=cfg, pe_clock_delay=pe_clock).run(
            4_000, check_invariants=True)
        assert self.digest(result) == self.SLOW_CLOCKS[router_clock, pe_clock]

    @pytest.mark.parametrize("arbitration", list(SHARED_SOURCE))
    def test_flows_sharing_a_source(self, arbitration):
        flows = [FlowSpec(i, i % 2, "A", "B", 0.04, 5, ramp_payload()) for i in range(3)]
        cfg = RouterConfig(vc_count=2, buffer_depth=3, arbitration=arbitration)
        result = two_node_net(flows=flows, seed=23, router_cfg=cfg).run(
            3_000, check_invariants=True)
        assert self.digest(result) == self.SHARED_SOURCE[arbitration]


def mesh_net(vc_count, rate, seed):
    """A 3x3 mesh in which every node sources two flows to destinations
    drawn uniformly from the other nodes."""
    nodes = {f"N{x}{y}": (x, y, 0) for y in range(3) for x in range(3)}
    ids = sorted(nodes)
    rng = np.random.default_rng(31)
    flows = []
    for i, src in enumerate(ids):
        for _ in range(2):
            dst = int(rng.integers(0, len(ids) - 1))
            dst += dst >= i
            flows.append(FlowSpec(len(flows), len(flows) % 3, src, ids[dst], rate, 4,
                                  ramp_payload()))
    return build_network(nodes, flows, flit_width=W,
                         router_cfg=RouterConfig(vc_count=vc_count, buffer_depth=4),
                         pe_clock_delay=2, seed=seed)


def ordered_digest(result):
    """sha256 of a result's outputs, each list and dict in its own order."""
    h = hashlib.sha256()
    h.update(np.asarray(result.flit_latencies, dtype=np.int64).tobytes())
    h.update(np.asarray(result.packet_latencies, dtype=np.int64).tobytes())
    h.update(json.dumps(list(result.consumed_words.items())).encode())
    for link in sorted(result.data_flow):
        h.update(link.encode())
        h.update(result.data_flow[link].m.tobytes())
        h.update(np.asarray(result.link_flit_counts[link], dtype=np.int64).tobytes())
    h.update(json.dumps(result.summary(), sort_keys=True).encode())
    h.update(json.dumps(sorted(result.max_backlogs.items())).encode())
    return h.hexdigest()


class TestPinnedMesh:
    """Outputs recorded before the simulator became activity-driven, on a
    mesh with nine sinks that receive in the same cycles, near saturation
    at 2 VCs and far past it at 1 VC, where source-NI backlogs grow to
    hundreds of packets.  Latency lists and consumed words are hashed in
    their own order, so the order in which sinks drain is pinned too."""

    PINS = {
        (2, 0.07): "2fa673dfa801f9876486f6d90fbcb1d155076c1f1d352ab8eff0dc96118e65a4",
        (1, 0.2): "f94631b4345bf509be4e6350d9f29a891239b5378a49f34a17a047bf3adb65de",
    }

    @pytest.mark.parametrize("vc_count, rate", list(PINS))
    def test_mesh(self, vc_count, rate):
        result = mesh_net(vc_count, rate, seed=41).run(3_000, check_invariants=True)
        assert ordered_digest(result) == self.PINS[vc_count, rate]


class TestConservation:
    def test_flit_conservation_and_credit_invariant(self):
        # elevated rate so buffers fill and back-pressure is exercised;
        # the credit invariant is asserted inside run() every cycle
        net = case_net(2, rate=0.05, seed=3)
        result = net.run(5_000, check_invariants=True)
        assert result.injected_flits == result.ejected_flits + result.in_flight_flits
        assert result.injected_flits > 0

    def test_no_loss_under_heavy_blocking(self):
        net = case_net(1, rate=0.2, seed=4)
        result = net.run(3_000, check_invariants=True)
        assert result.injected_flits == result.ejected_flits + result.in_flight_flits

    def test_network_drains_when_injection_stops(self):
        net = case_net(2, rate=0.01, seed=5)
        net.run(10_000)
        for pe in net.pes.values():
            for flow in pe.flows:
                flow.rate = 0.0
        result = net.run(2_000)
        assert result.in_flight_flits == 0


class TestRepeatedRuns:
    def net(self):
        flow = FlowSpec(0, 0, "A", "B", 0.05, 4, ramp_payload())
        return two_node_net(flows=[flow], seed=3)

    def test_result_covers_every_run(self):
        net = self.net()
        first = net.run(1_000, check_invariants=True)
        result = net.run(1_000, check_invariants=True)
        assert result is first
        assert result.cycles == 2_000
        for trace in result.link_traces.values():
            assert len(trace) == result.cycles
        summary = result.summary()
        assert summary["injected_flits"] > 0
        assert summary["injected_flits"] == (
            summary["ejected_flits"] + summary["in_flight_flits"])
        assert summary["flit_latency"]["count"] == summary["ejected_flits"]
        assert min(result.flit_latencies) >= 0

    def test_two_runs_equal_one_run(self):
        net = self.net()
        net.run(700)
        split = net.run(1_300)
        whole = self.net().run(2_000)
        assert split.summary() == whole.summary()
        assert split.flit_latencies == whole.flit_latencies
        for link, dfm in whole.data_flow.items():
            assert np.array_equal(split.data_flow[link].m, dfm.m)
            for column in ("types", "words", "flows", "indices"):
                assert np.array_equal(getattr(split.link_traces[link], column),
                                      getattr(whole.link_traces[link], column))


    # a first run needs two cycles: M counts transitions between cycles
    SPLITS = (7, 1, 613) * 3

    @staticmethod
    def assert_same_result(split, whole):
        assert split.summary() == whole.summary()
        assert split.flit_latencies == whole.flit_latencies
        assert split.packet_latencies == whole.packet_latencies
        assert list(split.consumed_words.items()) == list(whole.consumed_words.items())
        for link, dfm in whole.data_flow.items():
            assert np.array_equal(split.data_flow[link].m, dfm.m), link
            assert np.array_equal(split.link_flit_counts[link], whole.link_flit_counts[link])
            for column in ("types", "words", "flows", "indices"):
                assert np.array_equal(getattr(split.link_traces[link], column),
                                      getattr(whole.link_traces[link], column)), link

    @pytest.mark.parametrize("vc_count, clock_delay, pe_clock_delay",
                             [(1, 1, 1), (1, 2, 3), (4, 1, 1), (4, 2, 3)])
    def test_split_runs_equal_one_run(self, vc_count, clock_delay, pe_clock_delay):
        def net():
            cfg = RouterConfig(vc_count=vc_count, buffer_depth=4, clock_delay=clock_delay)
            return case_net(vc_count, rate=0.03, seed=24, router_cfg=cfg,
                            pe_clock_delay=pe_clock_delay)

        split = net()
        for cycles in self.SPLITS:
            result = split.run(cycles, check_invariants=True)
        whole = net().run(sum(self.SPLITS), check_invariants=True)
        assert whole.injected_packets > 0
        self.assert_same_result(result, whole)

    @pytest.mark.parametrize("pe_clock_delay", [1, 2, 3])
    def test_split_runs_across_chunks_equal_one_run(self, pe_clock_delay):
        # runs that start and end on either side of chunk boundaries
        splits = (CHUNK - 1, 2, CHUNK + 1, 5, 3 * CHUNK // 2)

        def net():
            return case_net(2, rate=0.03, seed=26, pe_clock_delay=pe_clock_delay)

        split = net()
        for cycles in splits:
            result = split.run(cycles)
        whole = net().run(sum(splits))
        assert whole.injected_packets > 0
        self.assert_same_result(result, whole)

    def test_rate_change_between_runs(self):
        # a PE draws its uniforms ahead of time; a rate set between runs
        # must apply to every tick of the next run, drawn or not
        def net():
            net = case_net(2, rate=0.03, seed=25, pe_clock_delay=3)
            net.run(500)
            for pe in net.pes.values():
                for flow in pe.flows:
                    flow.rate = 0.0 if flow.flow_id % 2 else 0.08
            return net

        split = net()
        for cycles in self.SPLITS:
            result = split.run(cycles, check_invariants=True)
        whole = net().run(sum(self.SPLITS), check_invariants=True)
        self.assert_same_result(result, whole)
        assert ordered_digest(whole) == (
            "84baeedcf814c1e84713d356056b503dd5f880bc43b9f533a19f71bfdca3f47f")


class TestObserverConsistency:
    def test_matrices_match_trace_recount(self):
        result = case_net(4, rate=0.02, seed=6).run(8_000)
        for link, dfm in result.data_flow.items():
            types = per_cycle_types(result.link_traces[link])
            recount = data_flow_from_trace(types, result.n_types, link)
            assert np.array_equal(dfm.m, recount.m), link

    def test_active_mass_equals_flit_count(self):
        result = case_net(4, rate=0.02, seed=6).run(8_000)
        for link, dfm in result.data_flow.items():
            active = dfm.m[:, : result.n_types].sum() * (result.cycles - 1)
            flits = result.link_flit_counts[link].sum()
            # the first observed cycle is not part of any transition
            types = per_cycle_types(result.link_traces[link])
            first_active = 1 if types[0] != IDLE else 0
            assert int(round(active)) == flits - first_active, link

    def test_zero_traffic_idle_matrix(self):
        net = two_node_net(flows=[FlowSpec(0, 0, "A", "B", 0.0, 4, ramp_payload())])
        result = net.run(500)
        n = result.n_types
        for link, dfm in result.data_flow.items():
            expect = np.zeros((2 * n, 2 * n))
            expect[2 * n - 1, 2 * n - 1] = 1.0
            assert np.array_equal(dfm.m, expect), link


class TestChunkedObservation:
    """Links fold their events every CHUNK cycles; untraced links then
    drop them, traced links keep them.  Both must count like one fold of
    the whole trace."""

    def net(self, collect_traces, rate=0.05):
        flows = [FlowSpec(0, 0, "A", "B", rate, 4, ramp_payload()),
                 FlowSpec(1, 1, "B", "A", rate / 2, 3, ramp_payload())]
        return two_node_net(flows=flows, collect_traces=collect_traces, seed=5)

    def assert_same_counts(self, untraced, traced):
        assert not untraced.link_traces
        assert untraced.summary() == traced.summary()
        for link, dfm in traced.data_flow.items():
            assert np.array_equal(untraced.data_flow[link].m, dfm.m), link
            assert np.array_equal(untraced.link_flit_counts[link],
                                  traced.link_flit_counts[link]), link
            types = per_cycle_types(traced.link_traces[link])
            recount = data_flow_from_trace(types, traced.n_types, link)
            assert np.array_equal(dfm.m, recount.m), link

    @pytest.mark.parametrize("cycles", [CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK // 2])
    def test_untraced_equals_traced(self, cycles):
        self.assert_same_counts(self.net(False).run(cycles), self.net(True).run(cycles))

    def test_runs_straddling_a_chunk_boundary(self):
        results = []
        for traced in (False, True):
            net = self.net(traced)
            net.run(CHUNK - 100)
            results.append(net.run(CHUNK + 200))
        self.assert_same_counts(*results)

    def test_untraced_run_memory_is_bounded_by_the_chunk(self):
        net = self.net(False, rate=0.01)
        cycles = 10 * CHUNK
        tracemalloc.start()
        try:
            net.run(cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole_run_columns = len(net.links) * cycles * np.dtype(np.int64).itemsize
        assert peak < whole_run_columns / 4
        # an untraced link holds no events after a run
        assert all(link.chunks is None and not (link.chunk_cycles or link.chunk_types)
                   for link in net.links)


class TestFlowOrdering:
    def test_packets_arrive_intact_and_in_order(self):
        # consecutive packets of one flow may interleave on the ejection
        # link once the source NI VC has freed, but every packet's body
        # flits stay in order and no word is lost or duplicated
        result = case_net(4, rate=0.02, seed=7).run(10_000)
        trace = result.link_traces["R7->PE_R7"]
        body = trace.indices >= 0
        per_flow = {}
        for flow, index, word in zip(
            trace.flows[body].tolist(), trace.indices[body].tolist(), trace.words[body].tolist()
        ):
            per_flow.setdefault(flow, []).append((index, word))
        assert per_flow, "no payload reached the destination"
        body = 7  # flits_per_packet 8 => 7 body words per packet
        for flow, seq in per_flow.items():
            per_packet = {}
            for index, word in seq:
                assert word == index % (1 << W), f"flow {flow} corrupted"
                per_packet.setdefault(index // body, []).append(index)
            for packet, indices in per_packet.items():
                assert indices == sorted(indices), f"flow {flow} packet {packet}"
            complete = [p for p in per_packet.values() if len(p) == body]
            assert complete, f"flow {flow} finished no packet"


class TestVirtualChannels:
    def test_vcs_reduce_latency_under_contention(self):
        lat = {}
        for vc in (1, 4):
            result = case_net(vc, rate=0.02, seed=8).run(20_000)
            lat[vc] = float(np.mean(result.flit_latencies))
        assert lat[4] < lat[1]

    def test_priority_arbitration_runs(self):
        net = case_net(
            2, rate=0.02, seed=8,
            router_cfg=RouterConfig(vc_count=2, buffer_depth=4,
                                    arbitration="priority", clock_delay=1),
        )
        result = net.run(5_000, check_invariants=True)
        assert result.injected_flits == result.ejected_flits + result.in_flight_flits


class TestValidation:
    def test_unknown_arbitration(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(arbitration="lottery")

    def test_unreachable_destination(self):
        nodes = {"A": (0, 0, 0), "B": (2, 0, 0)}  # gap at x=1
        flows = [FlowSpec(0, 0, "A", "B", 0.1, 4, ramp_payload())]
        with pytest.raises(ConfigurationError):
            build_network(
                nodes, flows, flit_width=W,
                router_cfg=RouterConfig(), pe_clock_delay=1, seed=0,
            )

    def test_route_leaving_mid_path_names_the_router(self):
        # the first hop exists; the route leaves at C, going y+ from (1, 0, 0)
        nodes = {"A": (0, 0, 0), "C": (1, 0, 0), "B": (1, 2, 0)}
        flows = [FlowSpec(0, 0, "A", "B", 0.1, 4, ramp_payload())]
        with pytest.raises(ConfigurationError,
                           match=r"^flow 0: XYZ route A->B leaves the topology at \(1, 0, 0\)$"):
            build_network(nodes, flows, router_cfg=RouterConfig(), seed=0)

    @pytest.mark.parametrize("types, n_types", [((), 2), ((0,), 2), ((3,), 5), ((1, 6, 2), 8)])
    def test_type_count_is_highest_type_plus_two(self, types, n_types):
        flows = [FlowSpec(i, t, "A", "B", 0.1, 4, ramp_payload()) for i, t in enumerate(types)]
        net = two_node_net(flows=flows)
        assert net.result.n_types == n_types
        assert all(link.observer.n == n_types for link in net.links)
        assert all(pe.head_type == n_types - 1 for pe in net.pes.values())

    def test_zero_cycles_rejected(self):
        net = two_node_net(flows=[FlowSpec(0, 0, "A", "B", 0.0, 4, ramp_payload())])
        with pytest.raises(ConfigurationError):
            net.run(0)

    def test_a_run_ending_before_cycle_2_is_rejected_before_simulating(self):
        # M counts transitions between cycles, so one cycle gives a link none
        net = case_net(4)
        with pytest.raises(ConfigurationError, match="at least two cycles, got 1$"):
            net.run(1)
        assert net.result.cycles == 0
        assert all(link.observer.cycles == 0 for link in net.links)
        result = net.run(2)
        assert result.cycles == 2
        assert all(len(trace) == 2 for trace in result.link_traces.values())


class TestWiring:
    def test_input_vcs_know_their_link_in_port_order(self):
        # R2's inputs are attached x- (from R1), then x+ (from R3), y+ and
        # local; its input VCs must still be visited in (port, VC) order
        net = case_net(3)
        for router in net.routers.values():
            ports = [ivc.port for ivc in router.in_vcs]
            assert [(ivc.port, ivc.vc) for ivc in router.in_vcs] == sorted(
                (p, vc) for p in set(ports) for vc in range(3))
            for ivc in router.in_vcs:
                assert ivc.link.down is router
                assert ivc.link.buffers[ivc.vc] is ivc.buffer
        assert [ivc.port for ivc in net.routers["R2"].in_vcs[::3]] == [LOCAL, XP, XN, YP]

    def test_outputs_listed_by_port(self):
        net = case_net(1)
        outputs = net.routers["R5"].outputs
        assert [p for p, op in enumerate(outputs) if op is not None] == [LOCAL, XP, XN, YN, ZP]
        assert outputs[ZP].link.link_id == "R5->R7"
        assert outputs[LOCAL].link.link_id == "R5->PE_R5"

    def test_credits_go_back_to_the_input_link(self, monkeypatch):
        # each (link, VC) gets back one credit per flit it delivered that
        # has left the buffer it was delivered into
        delivered, returned = Counter(), Counter()
        deliver, stage_credit = Link.deliver, Link.stage_credit

        def counted_deliver(link):
            if link.reg_flit is not None:
                delivered[link, link.reg_vc] += 1
            deliver(link)

        def counted_credit(link, vc):
            returned[link, vc] += 1
            stage_credit(link, vc)

        monkeypatch.setattr(Link, "deliver", counted_deliver)
        monkeypatch.setattr(Link, "stage_credit", counted_credit)
        net = case_net(2, rate=0.05, seed=3)
        net.run(3_000, check_invariants=True)
        held = Counter({(link, vc): len(buf) for link in net.links
                        for vc, buf in enumerate(link.buffers)})
        assert sum(returned.values()) > 1_000
        assert returned + held == delivered


class TestInvariantErrors:
    def test_link_overflow_raises_under_optimization(self):
        # invariants must hold with assertions stripped (python -O); every
        # check names the link: the register, a full router input buffer,
        # a full sink buffer, and an extra credit back to a router port and
        # to a source-NI port
        script = textwrap.dedent("""
            import sys
            from noclink.simnet import Flit, RouterConfig, SimulationError, build_network
            flit = Flit(0, 0, 0, True, True, 0, (1, 0, 0), -1, 0)

            def link(link_id):
                net = build_network({"A": (0, 0, 0), "B": (1, 0, 0)}, [],
                                    router_cfg=RouterConfig(), seed=0)
                return net, next(lk for lk in net.links if lk.link_id == link_id)

            def busy_register(net, lk):
                lk.put(flit, 0)
                lk.put(flit, 0)

            def full_buffer(net, lk):
                lk.buffers[0].extend([flit] * lk.out_port.depth)
                lk.put(flit, 0)
                lk.deliver()

            def extra_credit(net, lk):
                lk.stage_credit(0)
                net.run(2)

            for check, link_id in [(busy_register, "A->B"), (full_buffer, "A->B"),
                                   (full_buffer, "B->PE_B"), (extra_credit, "A->B"),
                                   (extra_credit, "PE_A->A")]:
                try:
                    check(*link(link_id))
                except SimulationError as exc:
                    print(exc)
                else:
                    print(f"{check.__name__} on {link_id}: not caught")
                    sys.exit(1)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            "A->B: link register busy",
            "A->B: buffer overflow on vc 0",
            "B->PE_B: buffer overflow on vc 0",
            "A->B: credit overflow on vc 0",
            "PE_A->A: credit overflow on vc 0",
        ]

    def test_credit_lost_on_an_ni_fed_link_is_caught(self):
        flow = FlowSpec(0, 0, "A", "B", 0.2, 4, ramp_payload())
        net = two_node_net(
            flows=[flow], router_cfg=RouterConfig(vc_count=2, buffer_depth=4))
        link = next(lk for lk in net.links if lk.link_id == "PE_A->A")

        def flying():
            return [ov for ov in net.flying_credits if ov.port is link.out_port]

        net.run(2)
        while not flying():
            assert net.result.cycles < 200, "no credit came back to the source NI"
            net.run(1)
        net.flying_credits.remove(flying()[0])
        with pytest.raises(SimulationError, match=r"^PE_A->A vc \d: credits"):
            net.run(2_000, check_invariants=True)

    def test_sleeping_link_with_a_flit_is_caught(self, monkeypatch):
        # a link that is not woken when a flit enters its register would
        # never deliver it; the check names the link
        def put_without_wake(link, flit, vc):
            link.reg_flit = flit
            link.reg_vc = vc

        monkeypatch.setattr(Link, "put", put_without_wake)
        net = two_node_net(flows=[FlowSpec(0, 0, "A", "B", 0.2, 4, ramp_payload())])
        with pytest.raises(SimulationError,
                           match=r"^link PE_A->A is asleep while it holds work$"):
            net.run(200, check_invariants=True)

    @pytest.mark.parametrize("part, name", [
        (Router, "router A"), (SinkNI, "sink NI B"), (SourceNI, "source NI A"),
    ], ids=["router", "sink", "source"])
    def test_sleeping_part_with_work_is_caught(self, monkeypatch, part, name):
        # a router or sink that a delivery does not wake, or a source NI
        # that an enqueued packet does not wake, would keep its flits
        # forever; the check names the part
        deliver = Link.deliver

        def deliver_without_wake(link):
            down = link.down
            if not isinstance(down, part):
                return deliver(link)
            flit = link.reg_flit
            link.buffers[link.reg_vc].append(flit)
            link.reg_flit = None
            down.buffered += 1
            down.waiting += flit.is_head

        def enqueue_without_wake(ni, flits):
            ni.fifos.setdefault(flits[0].flow_id, deque()).append((ni.enqueued_packets, flits))
            ni.enqueued_packets += 1
            ni.backlog += 1

        if part is SourceNI:
            monkeypatch.setattr(SourceNI, "enqueue_packet", enqueue_without_wake)
        else:
            monkeypatch.setattr(Link, "deliver", deliver_without_wake)
        net = two_node_net(flows=[FlowSpec(0, 0, "A", "B", 0.2, 4, ramp_payload())])
        with pytest.raises(SimulationError, match=rf"^{name} is asleep while it holds work$"):
            net.run(200, check_invariants=True)

    @pytest.mark.parametrize("count", ["buffered", "waiting"])
    def test_stale_router_count_is_caught(self, monkeypatch, count):
        # a delivery that does not raise the downstream router's count would
        # leave it stale; the check names the router
        deliver = Link.deliver

        def deliver_uncounted(link):
            before = getattr(link.down, count)
            deliver(link)
            setattr(link.down, count, before)

        monkeypatch.setattr(Link, "deliver", deliver_uncounted)
        net = two_node_net(flows=[FlowSpec(0, 0, "A", "B", 0.2, 4, ramp_payload())])
        with pytest.raises(SimulationError, match=r"^router A: buffered \d+, waiting \d+ counted;"):
            net.run(200, check_invariants=True)


@st.composite
def random_meshes(draw):
    """A full 2D or 3D mesh of 2-18 nodes with random flows and router
    settings."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))
                 .filter(lambda s: s[0] * s[1] * s[2] >= 2))
    nodes = {f"N{x}{y}{z}": (x, y, z)
             for x in range(shape[0]) for y in range(shape[1]) for z in range(shape[2])}
    ids = sorted(nodes)
    flows = []
    for i in range(draw(st.integers(1, 2 * len(ids)))):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from([n for n in ids if n != src]))
        rate = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
        flows.append(FlowSpec(i, i % 3, src, dst, rate, draw(st.integers(2, 5)),
                              ramp_payload()))
    cfg = RouterConfig(vc_count=draw(st.integers(1, 4)), buffer_depth=draw(st.integers(1, 4)),
                       arbitration=draw(st.sampled_from(["fair", "priority"])),
                       clock_delay=draw(st.integers(1, 3)))
    return dict(nodes=nodes, flows=flows, flit_width=W, router_cfg=cfg,
                pe_clock_delay=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))


class TestRandomMeshes:
    @given(random_meshes())
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_and_counts_only_skip_idle_scans(self, mesh):
        # credits, wake sets, router counts and flit conservation are
        # checked every cycle, over two runs since each run recounts
        net = build_network(**mesh)
        net.run(150, check_invariants=True)
        result = net.run(50, check_invariants=True)
        assert result.injected_flits == result.ejected_flits + result.in_flight_flits

        # a router that scans its input VCs on every tick, whether or not a
        # head waits, gives the same outputs
        tick = Router.tick

        def scanning_tick(router):
            router.waiting += 1
            tick(router)
            router.waiting -= 1

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Router, "tick", scanning_tick)
            ref = build_network(**mesh)
            ref.run(150)
            ref_result = ref.run(50)
        assert ordered_digest(result) == ordered_digest(ref_result)


@st.composite
def sparse_meshes(draw):
    """2-12 nodes drawn from a 3x3x3 box, with random flows between the
    node pairs whose XYZ routes ``build_network`` accepts."""
    cells = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=2, max_size=12,
                          unique=True))
    nodes = {f"N{x}{y}{z}": (x, y, z) for x, y, z in cells}
    net = build_network(nodes, [])
    pairs = []
    for src, dst in itertools.permutations(sorted(nodes), 2):
        try:
            _validate_paths(net, [FlowSpec(0, 0, src, dst, 0.0, 2, None)])
        except ConfigurationError:
            continue
        pairs.append((src, dst))
    assume(pairs)
    flows = []
    for i in range(draw(st.integers(1, 2 * len(nodes)))):
        src, dst = draw(st.sampled_from(pairs))
        flows.append(FlowSpec(i, i % 3, src, dst, draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
                              draw(st.integers(2, 5)), ramp_payload()))
    cfg = RouterConfig(vc_count=draw(st.integers(1, 4)), buffer_depth=draw(st.integers(1, 4)),
                       clock_delay=draw(st.integers(1, 2)))
    return dict(nodes=nodes, flows=flows, flit_width=W, router_cfg=cfg,
                pe_clock_delay=draw(st.integers(1, 2)), collect_traces=True,
                seed=draw(st.integers(0, 2**16)))


class TestSparseMeshes:
    @given(sparse_meshes())
    @settings(max_examples=40, deadline=None)
    def test_conserved_deterministic_and_m_is_the_recount(self, mesh):
        result = build_network(**mesh).run(200, check_invariants=True)
        assert result.injected_flits == result.ejected_flits + result.in_flight_flits

        again = build_network(**mesh).run(200)
        assert ordered_digest(again) == ordered_digest(result)
        assert again.link_traces.keys() == result.link_traces.keys()
        for link, trace in result.link_traces.items():
            for name in TRACE_COLUMNS:
                assert np.array_equal(getattr(again.link_traces[link], name),
                                      getattr(trace, name)), (link, name)

            recount = LinkObserver.from_trace(trace, result.n_types, link).finalize()
            m = result.data_flow[link]
            assert np.array_equal(m.types, recount.types), link
            assert np.array_equal(m.compact, recount.compact), link


class TestClockDelays:
    def test_slow_router_still_delivers(self):
        net = case_net(
            2, rate=0.01, seed=10,
            router_cfg=RouterConfig(vc_count=2, buffer_depth=4, clock_delay=2),
            pe_clock_delay=4,
        )
        result = net.run(10_000, check_invariants=True)
        assert result.ejected_packets > 0
        assert result.injected_flits == result.ejected_flits + result.in_flight_flits
