"""Cycle-accurate mesh NoC simulation with virtual-channel routers.

Routers are input-buffered with a three-stage pipeline (route
computation, VC allocation, sending), credit-based flow control and
XYZ dimension-order routing on a possibly sparse 3D mesh.  Every link,
including the local links between network interfaces and their router,
feeds a :class:`noclink.reporting.LinkObserver` so that per-link
data-flow matrices fall out of a run for free.

Update order within one base cycle is fixed and fully deterministic:

1. links deliver flits into the downstream buffers and return credits
   to the upstream :class:`OutputPort`,
2. routers due this cycle tick (send, then VC allocation, then route
   computation, so information advances one stage per cycle),
3. sink NIs drain, PEs inject, source NIs send,
4. links that hold a flit record its type; idle cycles keep the
   record's ``IDLE`` fill and cost nothing.

Each link records its types into an array that its observer folds into
M every ``CHUNK`` cycles and at the end of a run: the link's trace
columns when traces are collected, otherwise a buffer of at most
``CHUNK`` cycles that exists only while ``Network.run`` runs.
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

# cycles between folds of the links' recorded types into their observers
CHUNK = 4096


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
    arbitration: str = "fair"
    clock_delay: int = 1

    def __post_init__(self):
        if self.vc_count < 1:
            raise ConfigurationError("vc_count must be >= 1")
        if self.buffer_depth < 1:
            raise ConfigurationError("buffer_depth must be >= 1")
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
    """One-cycle register from an upstream :class:`OutputPort` into the
    downstream per-VC ``buffers``, with a one-cycle reverse credit channel
    and an observer.

    The output port sets ``out_port`` and the downstream router input or
    sink NI sets ``buffers``, so a link delivers flits and returns credits
    without going through either end.

    During a run, ``types[cycle - base]`` records the type of the flit in
    the register at ``cycle``; the trace's type column (``base`` 0) on
    traced links, a per-run buffer of at most ``CHUNK`` cycles otherwise.
    """

    __slots__ = (
        "link_id", "out_port", "buffers", "observer", "vertical", "reg_flit",
        "reg_vc", "credit_fly", "credit_stage", "trace", "types", "base",
    )

    def __init__(self, link_id, n_types, vertical=False, collect_trace=False):
        self.link_id = link_id
        self.out_port: OutputPort | None = None
        self.buffers: list[deque[Flit]] = []
        self.observer = LinkObserver(link_id, n_types)
        self.vertical = vertical
        self.reg_flit: Flit | None = None
        self.reg_vc = 0
        self.credit_fly: list[int] = []
        self.credit_stage: list[int] = []
        self.trace = TraceColumns.idle(0) if collect_trace else None
        self.types: np.ndarray | None = None
        self.base = 0

    def put(self, flit: Flit, vc: int) -> None:
        if self.reg_flit is not None:
            raise SimulationError(f"{self.link_id}: link register busy")
        self.reg_flit = flit
        self.reg_vc = vc

    def stage_credit(self, vc: int) -> None:
        self.credit_stage.append(vc)

    def deliver(self) -> None:
        if self.credit_fly:
            accept_credit = self.out_port.accept_credit
            for vc in self.credit_fly:
                accept_credit(vc)
            self.credit_fly.clear()
        self.credit_fly, self.credit_stage = self.credit_stage, self.credit_fly
        flit = self.reg_flit
        if flit is not None:
            buf = self.buffers[self.reg_vc]
            if len(buf) >= self.out_port.depth:
                raise SimulationError(
                    f"{self.link_id}: buffer overflow on vc {self.reg_vc}")
            buf.append(flit)
            self.reg_flit = None

    def observe(self, cycle: int) -> None:
        """Record the flit in the register; called only when there is one."""
        f = self.reg_flit
        i = cycle - self.base
        self.types[i] = f.type_id
        tr = self.trace
        if tr is not None:
            tr.words[i] = f.word
            tr.flows[i] = f.flow_id
            tr.indices[i] = f.word_index

    def fold(self, end: int) -> None:
        """Fold the types recorded since the last fold, up to cycle ``end``,
        into the observer; an untraced link's buffer then starts afresh."""
        self.observer.record(self.types[self.observer.cycles - self.base:end - self.base])
        if self.trace is None:
            self.types.fill(IDLE)
            self.base = end


class InputVC:
    __slots__ = ("buffer", "route", "out_vc")

    def __init__(self):
        self.buffer: deque[Flit] = deque()
        self.route: int | None = None
        self.out_vc: int | None = None


class OutputVC:
    """One VC of an output stage.  ``flits`` is the deque it sends from: a
    source NI's own per-VC deque, or in a router the buffer of the input VC
    (``in_port``, ``in_vc``) that holds the VC.  A source NI stores the
    flow of the packet it carries in ``flow_id``."""

    __slots__ = ("state", "credits", "flits", "in_port", "in_vc", "flow_id")

    def __init__(self, depth):
        self.state = FREE
        self.credits = depth
        self.flits: deque[Flit] | None = None
        self.in_port = -1
        self.in_vc = -1
        self.flow_id = -1


class OutputPort:
    """The VCs feeding one link, with their credits and arbitration.

    ``orders[rr]`` is the VC order tried after ``rr`` last sent: round
    robin under ``fair``, always the lowest VC first under ``priority``.
    """

    __slots__ = ("link", "vcs", "depth", "orders", "rr")

    def __init__(self, link: Link, vc_count: int, downstream_depth: int, arbitration: str):
        link.out_port = self
        self.link = link
        self.vcs = [OutputVC(downstream_depth) for _ in range(vc_count)]
        self.depth = downstream_depth
        if arbitration == "fair":
            self.orders = [tuple((rr + 1 + k) % vc_count for k in range(vc_count))
                           for rr in range(vc_count)]
        else:
            self.orders = [tuple(range(vc_count))] * vc_count
        self.rr = 0

    def accept_credit(self, vc: int) -> None:
        ov = self.vcs[vc]
        ov.credits += 1
        if ov.credits > self.depth:
            raise SimulationError(f"{self.link.link_id}: credit overflow on vc {vc}")
        if ov.state == DRAINING and ov.credits == self.depth:
            ov.state = FREE

    def send(self) -> OutputVC | None:
        """Put one flit from the first ready VC on the link; return that VC."""
        vcs = self.vcs
        for idx in self.orders[self.rr]:
            ov = vcs[idx]
            if ov.state != ACTIVE or ov.credits == 0 or not ov.flits:
                continue
            flit = ov.flits.popleft()
            ov.credits -= 1
            self.link.put(flit, idx)
            if flit.is_tail:
                ov.state = DRAINING
            self.rr = idx
            return ov
        return None


class Router:
    def __init__(self, node_id: str, coords: tuple[int, int, int], cfg: RouterConfig):
        self.node_id = node_id
        self.coords = coords
        self.cfg = cfg
        self.inputs: dict[int, list[InputVC]] = {}
        self.in_links: dict[int, Link] = {}
        self.outputs: dict[int, OutputPort] = {}
        self._in_ports: list[int] = []
        self._out_ports: list[OutputPort] = []

    def attach_input(self, port: int, link: Link) -> None:
        self.inputs[port] = [InputVC() for _ in range(self.cfg.vc_count)]
        link.buffers = [ivc.buffer for ivc in self.inputs[port]]
        self.in_links[port] = link
        self._in_ports = sorted(self.inputs)

    def attach_output(self, port: int, link: Link, downstream_depth: int) -> None:
        self.outputs[port] = OutputPort(
            link, self.cfg.vc_count, downstream_depth, self.cfg.arbitration)
        self._out_ports = [self.outputs[p] for p in sorted(self.outputs)]

    def occupancy(self) -> int:
        return sum(len(vc.buffer) for vcs in self.inputs.values() for vc in vcs)

    def tick(self) -> None:
        # stage 3: output arbitration and sending
        for op in self._out_ports:
            ov = op.send()
            if ov is None:
                continue
            self.in_links[ov.in_port].stage_credit(ov.in_vc)
            if ov.state == DRAINING:  # the tail just left
                ivc = self.inputs[ov.in_port][ov.in_vc]
                ivc.route = None
                ivc.out_vc = None
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
                        ov.flits = ivc.buffer
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


class SourceNI:
    """Packet queue feeding the router's local input port through an
    :class:`OutputPort`, so it arbitrates and takes credits back exactly
    like a router output stage.

    Each queued packet claims the lowest free local VC and holds it until
    its tail flit is sent and all credits have returned.  A flow is busy
    while a VC that is not free carries it, and packets of one flow
    transmit strictly one at a time, so flow-level packet order is
    preserved end to end.  Blocking: the queue grows without loss when the
    router back-pressures."""

    def __init__(self, link: Link, vc_count, downstream_depth, clock_delay, arbitration):
        self.clock_delay = clock_delay
        self.out = OutputPort(link, vc_count, downstream_depth, arbitration)
        for ov in self.out.vcs:
            ov.flits = deque()
        self.queue: deque[list[Flit]] = deque()
        self.enqueued_packets = 0
        self.max_backlog = 0

    def enqueue_packet(self, flits: list[Flit]) -> None:
        self.queue.append(flits)
        self.enqueued_packets += 1
        if len(self.queue) > self.max_backlog:
            self.max_backlog = len(self.queue)

    def occupancy(self) -> int:
        return sum(len(p) for p in self.queue) + sum(len(v.flits) for v in self.out.vcs)

    def tick(self) -> None:
        queue = self.queue
        if queue:
            vcs = self.out.vcs
            busy = {ov.flow_id for ov in vcs if ov.state != FREE}
            for ov in vcs:
                if ov.state != FREE:
                    continue
                packet = next((p for p in queue if p[0].flow_id not in busy), None)
                if packet is None:
                    break
                queue.remove(packet)
                busy.add(packet[0].flow_id)
                ov.state = ACTIVE
                ov.flow_id = packet[0].flow_id
                ov.flits.extend(packet)
                if not queue:
                    break
        self.out.send()


class SinkNI:
    """Consumes ejected flits, returns credits and records latency."""

    def __init__(self, in_link: Link, vc_count, clock_delay, result):
        self.in_link = in_link
        self.clock_delay = clock_delay
        self.buffers = [deque() for _ in range(vc_count)]
        in_link.buffers = self.buffers
        self.result = result

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
                 flit_width, clock_period, dest_coords, result):
        self.routers = routers
        self.sources = sources
        self.sinks = sinks
        self.pes = pes
        self.links = links
        self.n_types = n_types
        self.flit_width = flit_width
        self.clock_period = clock_period
        self.dest_coords = dest_coords
        self.result = result

    def in_flight(self) -> int:
        total = sum(r.occupancy() for r in self.routers.values())
        total += sum(1 for link in self.links if link.reg_flit is not None)
        total += sum(s.occupancy() for s in self.sources.values())
        total += sum(s.occupancy() for s in self.sinks.values())
        return total

    def _flit_balance(self) -> int:
        """Injected flits less ejected flits less flits in the network."""
        injected = sum(pe.injected_flits for pe in self.pes.values())
        return injected - self.result.ejected_flits - self.in_flight()

    def check_credit_invariant(self) -> None:
        """Credits plus downstream occupancy equal buffer depth for every
        link and VC, NI-fed links included; valid at cycle boundaries."""
        for link in self.links:
            op = link.out_port
            for vc, ov in enumerate(op.vcs):
                occ = len(link.buffers[vc])
                in_reg = 1 if (link.reg_flit is not None and link.reg_vc == vc) else 0
                in_fly = link.credit_fly.count(vc) + link.credit_stage.count(vc)
                if ov.credits + occ + in_reg + in_fly != op.depth:
                    raise SimulationError(
                        f"{link.link_id} vc {vc}: credits {ov.credits} + occupancy {occ}"
                        f" + reg {in_reg} + in-flight {in_fly} != depth {op.depth}")

    def run(self, cycles: int, *, check_invariants: bool = False) -> SimulationResult:
        """Advance the network by ``cycles`` cycles.

        Returns the network's one result, which covers every cycle since
        the network was built: a further run extends and returns the same
        object.
        """
        if cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        result = self.result
        start = result.cycles
        result.cycles += cycles

        router_list = [self.routers[k] for k in sorted(self.routers)]
        sink_list = [self.sinks[k] for k in sorted(self.sinks)]
        pe_list = [self.pes[k] for k in sorted(self.pes)]
        source_list = [self.sources[k] for k in sorted(self.sources)]
        # flits enqueued directly at a source NI enter without a PE count, so
        # conservation holds this balance fixed rather than at zero
        balance = self._flit_balance()
        # traces, like the observers, cover every cycle since the network was built
        for link in self.links:
            if link.trace is not None:
                link.trace = link.trace.extended(cycles)
                link.types, link.base = link.trace.types, 0
            else:
                link.types = np.full(min(cycles, CHUNK), IDLE, dtype=np.int64)
                link.base = start

        # cycles count from the network's start, so that latencies and clock
        # phases carry across runs
        for lo in range(start, start + cycles, CHUNK):
            hi = min(lo + CHUNK, start + cycles)
            for cycle in range(lo, hi):
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
                    if link.reg_flit is not None:
                        link.observe(cycle)
                if check_invariants:
                    self.check_credit_invariant()
                    if self._flit_balance() != balance:
                        raise SimulationError(
                            f"flit conservation violated at cycle {cycle}: injected"
                            f" minus ejected minus in flight moved from {balance}"
                            f" to {self._flit_balance()}")
            for link in self.links:
                link.fold(hi)
        for link in self.links:
            link.types = None

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
            link = Link(f"{nid}->{peer}", n_types, vertical=dz != 0,
                        collect_trace=collect_traces)
            links.append(link)
            routers[nid].attach_output(port, link, cfg.buffer_depth)
            routers[peer].attach_input(_opposite(port), link)

    # local links and network interfaces
    sources, sinks, pes = {}, {}, {}
    dest_index_of = {nid: i for i, nid in enumerate(sorted(node_coords))}
    result = SimulationResult(clock_period=clock_period, n_types=n_types,
                              flit_width=flit_width)
    for nid in sorted(node_coords):
        up = Link(f"PE_{nid}->{nid}", n_types, collect_trace=collect_traces)
        down = Link(f"{nid}->PE_{nid}", n_types, collect_trace=collect_traces)
        links.extend([up, down])
        routers[nid].attach_input(LOCAL, up)
        routers[nid].attach_output(LOCAL, down, cfg.buffer_depth)
        sink = SinkNI(down, cfg.vc_count, pe_clock_delay, result)
        source = SourceNI(up, cfg.vc_count, cfg.buffer_depth, pe_clock_delay,
                          cfg.arbitration)
        node_flows = [f for f in flows if f.src == nid]
        pe = PE(nid, dest_index_of, flit_width, pe_clock_delay,
                node_flows, source, head_type=n_types - 1,
                seed=np.random.SeedSequence([seed, dest_index_of[nid]]))
        sources[nid], sinks[nid], pes[nid] = source, sink, pe

    net = Network(routers, sources, sinks, pes, links, n_types,
                  flit_width, clock_period, node_coords, result)
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
