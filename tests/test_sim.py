import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from noclink.linkmodel import DataFlowMatrix
from noclink.reporting import IDLE, data_flow_from_trace
from noclink.simnet import (
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
    RouterConfig,
    build_network,
    encode_head_word,
    route_xyz,
)

W = 16


def ramp_payload():
    pos = [0]

    def take(n):
        start = pos[0]
        pos[0] = start + n
        return np.arange(start, start + n, dtype=np.uint64) % (1 << W)

    return take


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


class TestObserverConsistency:
    def test_matrices_match_trace_recount(self):
        result = case_net(4, rate=0.02, seed=6).run(8_000)
        for link, dfm in result.data_flow.items():
            types = result.link_traces[link].types
            recount = data_flow_from_trace(types, result.n_types, link)
            assert np.array_equal(dfm.m, recount.m), link

    def test_active_mass_equals_flit_count(self):
        result = case_net(4, rate=0.02, seed=6).run(8_000)
        for link, dfm in result.data_flow.items():
            active = dfm.m[:, : result.n_types].sum() * (result.cycles - 1)
            flits = result.link_flit_counts[link].sum()
            # the first observed cycle is not part of any transition
            types = result.link_traces[link].types
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

    def test_zero_cycles_rejected(self):
        net = two_node_net(flows=[FlowSpec(0, 0, "A", "B", 0.0, 4, ramp_payload())])
        with pytest.raises(ConfigurationError):
            net.run(0)


class TestInvariantErrors:
    def test_link_overflow_raises_under_optimization(self):
        # invariants must hold with assertions stripped (python -O)
        script = textwrap.dedent("""
            import sys
            from noclink.simnet import Flit, RouterConfig, SimulationError, build_network
            net = build_network({"A": (0, 0, 0), "B": (1, 0, 0)}, [],
                                router_cfg=RouterConfig(), seed=0)
            link = net.links[0]
            flit = Flit(0, 0, 0, True, True, 0, (1, 0, 0), -1, 0)
            link.put(flit, 0)
            try:
                link.put(flit, 0)
            except SimulationError as exc:
                print(exc)
                sys.exit(0)
            sys.exit(1)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "link register busy" in proc.stdout


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
