"""Cycle-accurate mesh NoC simulation with virtual-channel routers.

Routers are input-buffered with a three-stage pipeline (route
computation, VC allocation, sending), credit-based flow control and
XYZ dimension-order routing on a possibly sparse 3D mesh.  Every link,
including the local links between network interfaces and their router,
feeds a :class:`noclink.reporting.LinkObserver` so that per-link
data-flow matrices fall out of a run for free.

Update order within one base cycle is fixed and fully deterministic:

1. links deliver flits downstream and credits upstream,
2. routers due this cycle tick (send, then VC allocation, then route
   computation, so information advances one stage per cycle),
3. sink NIs drain, PEs inject, source NIs send,
4. links record their state (type id or idle) for observation.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .reporting import IDLE, LinkObserver, SimulationError, latency_stats

LOCAL, XP, XN, YP, YN, ZP, ZN = range(7)
PORT_NAMES = ("local", "x+", "x-", "y+", "y-", "z+", "z-")
PORT_DELTAS = {
    XP: (1, 0, 0), XN: (-1, 0, 0),
    YP: (0, 1, 0), YN: (0, -1, 0),
    ZP: (0, 0, 1), ZN: (0, 0, -1),
}

FREE, ACTIVE, DRAINING = 0, 1, 2


class ConfigurationError(ValueError):
    pass


def route_xyz(current: tuple[int, int, int], dest: tuple[int, int, int]) -> int:
    """Dimension-order routing: reduce x, then y, then z offsets."""
    if current[0] != dest[0]:
        return XP if dest[0] > current[0] else XN
    if current[1] != dest[1]:
        return YP if dest[1] > current[1] else YN
    if current[2] != dest[2]:
        return ZP if dest[2] > current[2] else ZN
    return LOCAL


def encode_head_word(dest_index: int, packet_id: int, width: int) -> int:
    """Deterministic head-flit payload: destination in the upper half
    of the word, a wrapping packet counter in the lower half."""
    half = width // 2
    hi = dest_index % (1 << (width - half))
    return (hi << half) | (packet_id % (1 << half))


class Flit:
    __slots__ = (
        "flow_id", "type_id", "word", "is_head", "is_tail",
        "packet_id", "dest", "word_index", "inject_cycle",
    )

    def __init__(self, flow_id, type_id, word, is_head, is_tail,
                 packet_id, dest, word_index, inject_cycle):
        self.flow_id = flow_id
        self.type_id = type_id
        self.word = word
        self.is_head = is_head
        self.is_tail = is_tail
        self.packet_id = packet_id
        self.dest = dest
        self.word_index = word_index
        self.inject_cycle = inject_cycle

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"<{kind} f{self.flow_id} p{self.packet_id} w={self.word:#x}>"


@dataclass
class RouterConfig:
    vc_count: int = 1
    buffer_depth: int = 4
    routing: str = "xyz"
    selection: str = "round_robin"
    arbitration: str = "fair"
    clock_delay: int = 1

    def __post_init__(self):
        if self.vc_count < 1:
            raise ConfigurationError("vc_count must be >= 1")
        if self.buffer_depth < 1:
            raise ConfigurationError("buffer_depth must be >= 1")
        if self.routing != "xyz":
            raise ConfigurationError(f"unknown routing {self.routing!r}")
        if self.selection != "round_robin":
            raise ConfigurationError(f"unknown selection {self.selection!r}")
        if self.arbitration not in ("fair", "priority"):
            raise ConfigurationError(f"unknown arbitration {self.arbitration!r}")
        if self.clock_delay < 1:
            raise ConfigurationError("clock_delay must be >= 1")


@dataclass
class FlowSpec:
    """One typed traffic flow from a source PE to a destination PE."""

    flow_id: int
    type_id: int
    src: str
    dst: str
    rate: float
    flits_per_packet: int
    payload: Callable[[int], Sequence[int]]

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("injection rate must lie in [0, 1]")
        if self.flits_per_packet < 1:
            raise ConfigurationError("flits_per_packet must be >= 1")


class Link:
    """One-cycle register between an upstream and a downstream port,
    with a one-cycle reverse credit channel and an observer."""

    __slots__ = (
        "link_id", "upstream", "up_port", "downstream", "down_port",
        "observer", "vertical", "reg_flit", "reg_vc",
        "credit_fly", "credit_stage", "trace",
    )

    def __init__(self, link_id, upstream, up_port, downstream, down_port,
                 n_types, vertical=False, collect_trace=False):
        self.link_id = link_id
        self.upstream = upstream
        self.up_port = up_port
        self.downstream = downstream
        self.down_port = down_port
        self.observer = LinkObserver(link_id, n_types)
        self.vertical = vertical
        self.reg_flit: Flit | None = None
        self.reg_vc = 0
        self.credit_fly: list[int] = []
        self.credit_stage: list[int] = []
        self.trace = TraceColumns.idle(0) if collect_trace else None

    def put(self, flit: Flit, vc: int) -> None:
        if self.reg_flit is not None:
            raise SimulationError(f"{self.link_id}: link register busy")
        self.reg_flit = flit
        self.reg_vc = vc

    def stage_credit(self, vc: int) -> None:
        self.credit_stage.append(vc)

    def deliver(self) -> None:
        if self.credit_fly:
            for vc in self.credit_fly:
                self.upstream.accept_credit(self.up_port, vc)
            self.credit_fly.clear()
        self.credit_fly, self.credit_stage = self.credit_stage, self.credit_fly
        if self.reg_flit is not None:
            self.downstream.accept(self.down_port, self.reg_vc, self.reg_flit)
            self.reg_flit = None

    def observe(self) -> None:
        f = self.reg_flit
        if f is None:
            self.observer.record(IDLE)
        else:
            self.observer.record(f.type_id)
            tr = self.trace
            if tr is not None:
                # idle cycles keep the columns' fill values
                i = self.observer.cycles - 1
                tr.types[i] = f.type_id
                tr.words[i] = f.word
                tr.flows[i] = f.flow_id
                tr.indices[i] = f.word_index


class InputVC:
    __slots__ = ("buffer", "route", "out_vc")

    def __init__(self):
        self.buffer: deque[Flit] = deque()
        self.route: int | None = None
        self.out_vc: int | None = None


class OutputVC:
    __slots__ = ("state", "credits", "depth", "in_port", "in_vc")

    def __init__(self, depth):
        self.state = FREE
        self.credits = depth
        self.depth = depth
        self.in_port = -1
        self.in_vc = -1


class OutputPort:
    __slots__ = ("link", "vcs", "rr")

    def __init__(self, link, vc_count, downstream_depth):
        self.link = link
        self.vcs = [OutputVC(downstream_depth) for _ in range(vc_count)]
        self.rr = 0


class Router:
    def __init__(self, node_id: str, coords: tuple[int, int, int], cfg: RouterConfig):
        self.node_id = node_id
        self.coords = coords
        self.cfg = cfg
        self.inputs: dict[int, list[InputVC]] = {}
        self.in_links: dict[int, Link] = {}
        self.outputs: dict[int, OutputPort] = {}
        self._in_ports: list[int] = []
        self._out_ports: list[int] = []

    def attach_input(self, port: int, link: Link) -> None:
        self.inputs[port] = [InputVC() for _ in range(self.cfg.vc_count)]
        self.in_links[port] = link
        self._in_ports = sorted(self.inputs)

    def attach_output(self, port: int, link: Link, downstream_depth: int) -> None:
        self.outputs[port] = OutputPort(link, self.cfg.vc_count, downstream_depth)
        self._out_ports = sorted(self.outputs)

    def accept(self, port: int, vc: int, flit: Flit) -> None:
        buf = self.inputs[port][vc].buffer
        if len(buf) >= self.cfg.buffer_depth:
            raise SimulationError(
                f"{self.node_id}: buffer overflow on {PORT_NAMES[port]} vc {vc}")
        buf.append(flit)

    def accept_credit(self, port: int, vc: int) -> None:
        ov = self.outputs[port].vcs[vc]
        ov.credits += 1
        if ov.credits > ov.depth:
            raise SimulationError(
                f"{self.node_id}: credit overflow on {PORT_NAMES[port]} vc {vc}")
        if ov.state == DRAINING and ov.credits == ov.depth:
            ov.state = FREE

    def occupancy(self) -> int:
        return sum(len(vc.buffer) for vcs in self.inputs.values() for vc in vcs)

    def tick(self) -> None:
        fair = self.cfg.arbitration == "fair"
        # stage 3: output arbitration and sending
        for port in self._out_ports:
            op = self.outputs[port]
            nvc = len(op.vcs)
            if fair:
                order = [(op.rr + 1 + k) % nvc for k in range(nvc)]
            else:
                order = range(nvc)
            for idx in order:
                ov = op.vcs[idx]
                if ov.state != ACTIVE or ov.credits == 0:
                    continue
                ivc = self.inputs[ov.in_port][ov.in_vc]
                if not ivc.buffer:
                    continue
                flit = ivc.buffer.popleft()
                self.in_links[ov.in_port].stage_credit(ov.in_vc)
                ov.credits -= 1
                op.link.put(flit, idx)
                if flit.is_tail:
                    ov.state = DRAINING
                    ivc.route = None
                    ivc.out_vc = None
                if fair:
                    op.rr = idx
                break
        # stage 2: VC allocation for heads with a computed route
        for port in self._in_ports:
            for vc, ivc in enumerate(self.inputs[port]):
                if (ivc.route is None or ivc.out_vc is not None
                        or not ivc.buffer or not ivc.buffer[0].is_head):
                    continue
                op = self.outputs[ivc.route]
                for idx, ov in enumerate(op.vcs):
                    if ov.state == FREE:
                        ov.state = ACTIVE
                        ov.in_port = port
                        ov.in_vc = vc
                        ivc.out_vc = idx
                        break
        # stage 1: route computation for newly arrived heads
        for port in self._in_ports:
            for ivc in self.inputs[port]:
                if ivc.route is None and ivc.buffer and ivc.buffer[0].is_head:
                    out = route_xyz(self.coords, ivc.buffer[0].dest)
                    if out not in self.outputs:
                        raise SimulationError(
                            f"{self.node_id}: no {PORT_NAMES[out]} link toward"
                            f" {ivc.buffer[0].dest}"
                        )
                    ivc.route = out


class NIVC:
    __slots__ = ("state", "credits", "depth", "flits", "flow_id")

    def __init__(self, depth):
        self.state = FREE
        self.credits = depth
        self.depth = depth
        self.flits: deque[Flit] = deque()
        self.flow_id = -1


class SourceNI:
    """Packet queue feeding the router's local input port.

    Behaves like a router output stage: each queued packet claims the
    lowest free local VC and holds it until its tail flit is sent and
    all credits have returned.  Packets of one flow transmit strictly
    one at a time so flow-level packet order is preserved end to end.
    Blocking: the queue grows without loss when the router
    back-pressures."""

    def __init__(self, node_id, link: Link, vc_count, downstream_depth,
                 clock_delay, arbitration):
        self.node_id = node_id
        self.link = link
        self.clock_delay = clock_delay
        self.fair = arbitration == "fair"
        self.vcs = [NIVC(downstream_depth) for _ in range(vc_count)]
        self.rr = 0
        self.queue: deque[list[Flit]] = deque()
        self.active_flows: set[int] = set()
        self.enqueued_packets = 0
        self.max_backlog = 0

    def enqueue_packet(self, flits: list[Flit]) -> None:
        self.queue.append(flits)
        self.enqueued_packets += 1
        if len(self.queue) > self.max_backlog:
            self.max_backlog = len(self.queue)

    def accept_credit(self, _port: int, vc: int) -> None:
        v = self.vcs[vc]
        v.credits += 1
        if v.credits > v.depth:
            raise SimulationError(f"{self.node_id}: NI credit overflow")
        if v.state == DRAINING and v.credits == v.depth:
            v.state = FREE
            self.active_flows.discard(v.flow_id)
            v.flow_id = -1

    def occupancy(self) -> int:
        return sum(len(p) for p in self.queue) + sum(len(v.flits) for v in self.vcs)

    def tick(self) -> None:
        for v in self.vcs:
            if not self.queue:
                break
            if v.state != FREE:
                continue
            packet = None
            for cand in self.queue:
                if cand[0].flow_id not in self.active_flows:
                    packet = cand
                    break
            if packet is None:
                break
            self.queue.remove(packet)
            self.active_flows.add(packet[0].flow_id)
            v.state = ACTIVE
            v.flow_id = packet[0].flow_id
            v.flits.extend(packet)
        nvc = len(self.vcs)
        if self.fair:
            order = [(self.rr + 1 + k) % nvc for k in range(nvc)]
        else:
            order = range(nvc)
        for idx in order:
            v = self.vcs[idx]
            if v.state != ACTIVE or v.credits == 0 or not v.flits:
                continue
            flit = v.flits.popleft()
            v.credits -= 1
            self.link.put(flit, idx)
            if flit.is_tail:
                v.state = DRAINING
            if self.fair:
                self.rr = idx
            break


class SinkNI:
    """Consumes ejected flits, returns credits and records latency."""

    def __init__(self, node_id, in_link: Link, vc_count, depth, clock_delay, result):
        self.node_id = node_id
        self.in_link = in_link
        self.clock_delay = clock_delay
        self.depth = depth
        self.buffers = [deque() for _ in range(vc_count)]
        self.result = result

    def accept(self, _port: int, vc: int, flit: Flit) -> None:
        buf = self.buffers[vc]
        if len(buf) >= self.depth:
            raise SimulationError(f"{self.node_id}: sink buffer overflow")
        buf.append(flit)

    def occupancy(self) -> int:
        return sum(len(b) for b in self.buffers)

    def tick(self, cycle: int) -> None:
        res = self.result
        for vc, buf in enumerate(self.buffers):
            while buf:
                flit = buf.popleft()
                self.in_link.stage_credit(vc)
                res.flit_latencies.append(cycle - flit.inject_cycle)
                res.ejected_flits += 1
                if not flit.is_head:
                    res.consumed_words[flit.flow_id] = (
                        res.consumed_words.get(flit.flow_id, 0) + 1
                    )
                if flit.is_tail:
                    res.packet_latencies.append(cycle - flit.inject_cycle)
                    res.ejected_packets += 1


class PE:
    """Bernoulli packet injector for the flows sourced at this node."""

    def __init__(self, node_id, dest_index_of, flit_width, clock_delay,
                 flows: list[FlowSpec], ni: SourceNI, head_type: int, seed):
        self.node_id = node_id
        self.flit_width = flit_width
        self.clock_delay = clock_delay
        self.head_type = head_type
        self.flows = flows
        self.ni = ni
        self.rng = np.random.default_rng(seed)
        self.dest_index_of = dest_index_of
        self.packet_counter = {f.flow_id: 0 for f in flows}
        self.word_cursor = {f.flow_id: 0 for f in flows}
        self.injected_flits = 0
        self.injected_packets = 0

    def tick(self, cycle: int, dest_coords) -> None:
        for flow in self.flows:
            if self.rng.random() >= flow.rate:
                continue
            pid = self.packet_counter[flow.flow_id]
            self.packet_counter[flow.flow_id] = pid + 1
            dest = dest_coords[flow.dst]
            n_body = flow.flits_per_packet - 1
            head_word = encode_head_word(
                self.dest_index_of[flow.dst], pid, self.flit_width)
            flits = [Flit(flow.flow_id, self.head_type, head_word, True,
                          n_body == 0, pid, dest, -1, cycle)]
            if n_body:
                words = flow.payload(n_body)
                base = self.word_cursor[flow.flow_id]
                self.word_cursor[flow.flow_id] = base + n_body
                for k, w in enumerate(words):
                    flits.append(Flit(flow.flow_id, flow.type_id, int(w), False,
                                      k == n_body - 1, pid, dest, base + k, cycle))
            self.ni.enqueue_packet(flits)
            self.injected_flits += len(flits)
            self.injected_packets += 1


TRACE_COLUMNS = ("types", "words", "flows", "indices")


@dataclass
class TraceColumns:
    """Per-cycle record of one link register, one array entry per cycle.

    An entry holds the type, word, flow id and payload word index of the
    flit in the register (word index -1 for head flits).  Idle cycles
    hold the fill values: type IDLE, word 0, flow -1, word index -1.
    """

    types: np.ndarray  # int64
    words: np.ndarray  # uint64
    flows: np.ndarray  # int64
    indices: np.ndarray  # int64

    @classmethod
    def idle(cls, cycles: int) -> TraceColumns:
        def ints(fill):
            return np.full(cycles, fill, dtype=np.int64)
        return cls(ints(IDLE), np.zeros(cycles, dtype=np.uint64), ints(-1), ints(-1))

    def extended(self, cycles: int) -> TraceColumns:
        """These columns followed by ``cycles`` idle entries."""
        more = TraceColumns.idle(cycles)
        return TraceColumns(*(
            np.concatenate([getattr(self, name), getattr(more, name)])
            for name in TRACE_COLUMNS
        ))


@dataclass
class SimulationResult:
    cycles: int = 0
    clock_period: float = 1e-9
    n_types: int = 1
    flit_width: int = 16
    flit_latencies: list = field(default_factory=list)
    packet_latencies: list = field(default_factory=list)
    data_flow: dict = field(default_factory=dict)
    link_flit_counts: dict = field(default_factory=dict)
    link_vertical: dict = field(default_factory=dict)
    link_traces: dict = field(default_factory=dict)  # link id -> TraceColumns
    consumed_words: dict = field(default_factory=dict)
    injected_flits: int = 0
    injected_packets: int = 0
    ejected_flits: int = 0
    ejected_packets: int = 0
    in_flight_flits: int = 0
    max_backlogs: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {
            "cycles": self.cycles,
            "clock_period_s": self.clock_period,
            "injected_packets": self.injected_packets,
            "injected_flits": self.injected_flits,
            "ejected_packets": self.ejected_packets,
            "ejected_flits": self.ejected_flits,
            "in_flight_flits": self.in_flight_flits,
            "max_ni_backlog": dict(self.max_backlogs),
            "consumed_words_per_flow": dict(self.consumed_words),
        }
        if self.flit_latencies:
            out["flit_latency"] = latency_stats(self.flit_latencies, self.clock_period)
        if self.packet_latencies:
            out["packet_latency"] = latency_stats(self.packet_latencies, self.clock_period)
        return out


class Network:
    """A built mesh: routers, NIs, PEs and observed links."""

    def __init__(self, routers, sources, sinks, pes, links, n_types,
                 flit_width, clock_period, dest_coords):
        self.routers = routers
        self.sources = sources
        self.sinks = sinks
        self.pes = pes
        self.links = links
        self.n_types = n_types
        self.flit_width = flit_width
        self.clock_period = clock_period
        self.dest_coords = dest_coords

    def in_flight(self) -> int:
        total = sum(r.occupancy() for r in self.routers.values())
        total += sum(1 for link in self.links if link.reg_flit is not None)
        total += sum(s.occupancy() for s in self.sources.values())
        total += sum(s.occupancy() for s in self.sinks.values())
        return total

    def check_credit_invariant(self) -> None:
        """Credits plus downstream occupancy equal buffer depth for
        every (output, VC) pair; valid at cycle boundaries."""
        for router in self.routers.values():
            for port, op in router.outputs.items():
                link = op.link
                down = link.downstream
                for vc, ov in enumerate(op.vcs):
                    if isinstance(down, Router):
                        occ = len(down.inputs[link.down_port][vc].buffer)
                    else:
                        occ = len(down.buffers[vc])
                    in_reg = 1 if (link.reg_flit is not None and link.reg_vc == vc) else 0
                    in_fly = link.credit_fly.count(vc) + link.credit_stage.count(vc)
                    total = ov.credits + occ + in_reg + in_fly
                    if total != ov.depth:
                        raise SimulationError(
                            f"{router.node_id} {PORT_NAMES[port]} vc {vc}:"
                            f" credits {ov.credits} + occupancy {occ} + reg {in_reg}"
                            f" + in-flight {in_fly} != depth {ov.depth}")

    def run(self, cycles: int, *, check_invariants: bool = False) -> SimulationResult:
        if cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        result = SimulationResult(
            cycles=cycles, clock_period=self.clock_period,
            n_types=self.n_types, flit_width=self.flit_width)
        for sink in self.sinks.values():
            sink.result = result

        router_list = [self.routers[k] for k in sorted(self.routers)]
        sink_list = [self.sinks[k] for k in sorted(self.sinks)]
        pe_list = [self.pes[k] for k in sorted(self.pes)]
        source_list = [self.sources[k] for k in sorted(self.sources)]
        # flits ejected before this run (counters persist across runs)
        ejected_before = sum(pe.injected_flits for pe in pe_list) - self.in_flight()
        # traces, like the observers, cover every cycle since the network was built
        for link in self.links:
            if link.trace is not None:
                link.trace = link.trace.extended(cycles)

        for cycle in range(cycles):
            for link in self.links:
                link.deliver()
            for router in router_list:
                if cycle % router.cfg.clock_delay == 0:
                    router.tick()
            for sink in sink_list:
                if cycle % sink.clock_delay == 0:
                    sink.tick(cycle)
            for pe in pe_list:
                if cycle % pe.clock_delay == 0:
                    pe.tick(cycle, self.dest_coords)
            for src in source_list:
                if cycle % src.clock_delay == 0:
                    src.tick()
            for link in self.links:
                link.observe()
            if check_invariants:
                self.check_credit_invariant()
                injected = sum(pe.injected_flits for pe in pe_list)
                in_net = ejected_before + result.ejected_flits + self.in_flight()
                if injected != in_net:
                    raise SimulationError(
                        f"flit conservation violated at cycle {cycle}:"
                        f" injected {injected}, accounted {in_net}")

        result.injected_flits = sum(pe.injected_flits for pe in pe_list)
        result.injected_packets = sum(pe.injected_packets for pe in pe_list)
        result.in_flight_flits = self.in_flight()
        result.data_flow = {link.link_id: link.observer.finalize() for link in self.links}
        result.link_flit_counts = {
            link.link_id: link.observer.type_flit_counts() for link in self.links}
        result.link_vertical = {link.link_id: link.vertical for link in self.links}
        result.link_traces = {
            link.link_id: link.trace for link in self.links if link.trace is not None}
        result.max_backlogs = {
            nid: src.max_backlog for nid, src in self.sources.items()}
        return result


def build_network(
    nodes: dict[str, tuple[int, int, int]],
    flows: list[FlowSpec],
    *,
    flit_width: int = 16,
    router_cfg: RouterConfig | None = None,
    pe_clock_delay: int = 1,
    clock_period: float = 1e-9,
    n_payload_types: int | None = None,
    collect_traces: bool = False,
    seed: int = 0,
) -> Network:
    """Wire up routers, links and network interfaces for a (possibly
    sparse) 3D mesh given by ``nodes`` (id -> integer coordinates)."""
    cfg = router_cfg or RouterConfig()
    if not nodes:
        raise ConfigurationError("topology needs at least one node")
    coords_to_id = {}
    for nid, coords in nodes.items():
        coords = tuple(int(c) for c in coords)
        if len(coords) != 3 or min(coords) < 0:
            raise ConfigurationError(f"bad coordinates for node {nid!r}: {coords}")
        if coords in coords_to_id:
            raise ConfigurationError(f"nodes {coords_to_id[coords]!r} and {nid!r}"
                                     f" share coordinates {coords}")
        coords_to_id[coords] = nid
    node_coords = {nid: tuple(int(c) for c in coords) for nid, coords in nodes.items()}

    for flow in flows:
        for end in (flow.src, flow.dst):
            if end not in node_coords:
                raise ConfigurationError(f"flow {flow.flow_id}: unknown node {end!r}")
    if n_payload_types is None:
        n_payload_types = (max((f.type_id for f in flows), default=-1)) + 1
        if n_payload_types < 1:
            n_payload_types = 1
    for flow in flows:
        if not 0 <= flow.type_id < n_payload_types:
            raise ConfigurationError(
                f"flow {flow.flow_id}: type {flow.type_id} out of range")
    n_types = n_payload_types + 1  # payload types plus the head type

    routers = {nid: Router(nid, c, cfg) for nid, c in node_coords.items()}
    links: list[Link] = []

    # inter-router links, both directions wherever neighbors exist
    for nid, c in sorted(node_coords.items()):
        for port, (dx, dy, dz) in PORT_DELTAS.items():
            nc = (c[0] + dx, c[1] + dy, c[2] + dz)
            peer = coords_to_id.get(nc)
            if peer is None:
                continue
            link = Link(f"{nid}->{peer}", routers[nid], port,
                        routers[peer], _opposite(port), n_types,
                        vertical=dz != 0, collect_trace=collect_traces)
            links.append(link)
            routers[nid].attach_output(port, link, cfg.buffer_depth)
            routers[peer].attach_input(_opposite(port), link)

    # local links and network interfaces
    sources, sinks, pes = {}, {}, {}
    dest_index_of = {nid: i for i, nid in enumerate(sorted(node_coords))}
    result_placeholder = SimulationResult()
    for nid in sorted(node_coords):
        up = Link(f"PE_{nid}->{nid}", None, 0, routers[nid], LOCAL,
                  n_types, collect_trace=collect_traces)
        down = Link(f"{nid}->PE_{nid}", routers[nid], LOCAL, None, 0,
                    n_types, collect_trace=collect_traces)
        links.extend([up, down])
        routers[nid].attach_input(LOCAL, up)
        sink = SinkNI(nid, down, cfg.vc_count, cfg.buffer_depth,
                      pe_clock_delay, result_placeholder)
        routers[nid].attach_output(LOCAL, down, cfg.buffer_depth)
        down.downstream = sink
        source = SourceNI(nid, up, cfg.vc_count, cfg.buffer_depth,
                          pe_clock_delay, cfg.arbitration)
        up.upstream = source
        node_flows = [f for f in flows if f.src == nid]
        pe = PE(nid, dest_index_of, flit_width, pe_clock_delay,
                node_flows, source, head_type=n_types - 1,
                seed=np.random.SeedSequence([seed, dest_index_of[nid]]))
        sources[nid], sinks[nid], pes[nid] = source, sink, pe

    net = Network(routers, sources, sinks, pes, links, n_types,
                  flit_width, clock_period, node_coords)
    _validate_paths(net, flows)
    return net


def _opposite(port: int) -> int:
    return {XP: XN, XN: XP, YP: YN, YN: YP, ZP: ZN, ZN: ZP}[port]


def _validate_paths(net: Network, flows: list[FlowSpec]) -> None:
    coords_to_id = {r.coords: nid for nid, r in net.routers.items()}
    for flow in flows:
        cur = net.dest_coords[flow.src]
        dest = net.dest_coords[flow.dst]
        while cur != dest:
            port = route_xyz(cur, dest)
            dx, dy, dz = PORT_DELTAS[port]
            nxt = (cur[0] + dx, cur[1] + dy, cur[2] + dz)
            if nxt not in coords_to_id:
                raise ConfigurationError(
                    f"flow {flow.flow_id}: XYZ route {flow.src}->{flow.dst}"
                    f" leaves the topology at {cur}")
            cur = nxt
