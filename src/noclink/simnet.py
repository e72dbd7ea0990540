"""Cycle-accurate mesh NoC simulation with virtual-channel routers.

Routers are input-buffered with a three-stage pipeline (route
computation, VC allocation, sending), credit-based flow control and
XYZ dimension-order routing on a possibly sparse 3D mesh.  Every link,
including the local links between network interfaces and their router,
feeds a :class:`noclink.reporting.LinkObserver` so that per-link
data-flow matrices fall out of a run for free.

A router's wiring is one flat record: ``Router.in_vcs`` lists its input
VCs, each of which knows its port, its link and its VC on that link, and
``Router.outputs`` holds one :class:`OutputPort` per port.  An output VC
points at the input VC that holds it, so a sent flit's credit goes
straight back to that input VC's link.

The simulator is activity-driven: each phase of a cycle visits only
the components of its wake list, the ones that hold work.  A component
is listed exactly while the work counter it keeps is not zero: it joins
its list when the counter leaves zero, and the phase that ticks it keeps
it only while the counter, read after the tick, is not zero.  No part
stores a second copy of that fact.

- A link is listed while its register holds a flit: ``put`` lists it,
  and the delivery phase clears the list.
- A router or sink NI is listed by the delivery that takes its
  ``buffered`` count from zero; a router stays listed while ``buffered``
  is not zero, and a drain empties a sink.  Each router also counts its
  waiting heads (delivered, not yet allocated an output VC), and a tick
  scans its input VCs for route computation and VC allocation only while
  one waits.
- A source NI is listed by the packet enqueued while its ``backlog`` and
  its output's ``active`` VC count are both zero, and stays listed while
  either is not.
- A PE keeps no clock of its own: it ticks on the network's PE clock.
  It draws the uniforms of a chunk's ticks when the chunk starts, in the
  order of per-tick scalar draws, and acts only on the ticks on which
  some flow injects.

Credits do not wake links.  Whoever takes a flit out of a buffer stages
its credit with ``Link.stage_credit``; the network keeps the credits
staged in a cycle and those in flight in two lists, and a credit staged
at cycle t returns to its upstream output VC at the start of cycle t + 2.
Each credit touches only its own output VC, so the order in which they
return does not change a result.

Update order within one base cycle is fixed and fully deterministic:

1. the credits in flight return to their output VCs and the staged ones
   take off; listed links deliver their flits into the downstream buffers,
2. on a multiple of the router clock delay, listed routers tick (send,
   then, while a head waits, VC allocation and route computation in one
   pass, so information advances one stage per cycle),
3. on a multiple of the PE clock delay, listed sink NIs drain, in node-id
   order; PEs due to inject on this tick of the PE clock do so; listed
   source NIs send,
4. listed links, each holding the flit put this cycle, record it; idle
   cycles cost nothing.

Routers, source NIs and PEs touch disjoint state within a cycle, so
their order within a phase does not change a result.  The order in
which sinks drain fixes the order of the latency lists, so it does.
A run ends with every wake list exact, so the next run starts from them.

Flits are counted at the network's edge: a source NI adds each packet
enqueued to the result's injection counts, as a sink NI adds each flit
drained to its ejection counts.

A link records one event per flit it carries and folds the events into
its observer's M every ``CHUNK`` cycles and at the end of a run.  An
untraced link then drops them, so it holds at most one chunk's events; a
traced link keeps them for its :class:`noclink.oracle.LinkTrace`.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .oracle import LinkTrace
from .reporting import LinkObserver, SimulationError, latency_stats, link_file_name

if TYPE_CHECKING:
    from .traffic import PayloadSource

LOCAL, XP, XN, YP, YN, ZP, ZN = range(7)
PORT_NAMES = ("local", "x+", "x-", "y+", "y-", "z+", "z-")
PORT_DELTAS = {
    XP: (1, 0, 0), XN: (-1, 0, 0),
    YP: (0, 1, 0), YN: (0, -1, 0),
    ZP: (0, 0, 1), ZN: (0, 0, -1),
}

FREE, ACTIVE, DRAINING = 0, 1, 2

# cycles between folds of the links' recorded events into their observers
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
        "dest", "word_index", "inject_cycle",
    )

    def __init__(self, flow_id, type_id, word, is_head, is_tail,
                 dest, word_index, inject_cycle):
        self.flow_id = flow_id
        self.type_id = type_id
        self.word = word
        self.is_head = is_head
        self.is_tail = is_tail
        self.dest = dest
        self.word_index = word_index
        self.inject_cycle = inject_cycle

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"<{kind} f{self.flow_id} w={self.word:#x}>"


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
    """One typed traffic flow from a source PE to a destination PE.  The
    body flits of its packets carry the ``payload`` words in order, read
    at the PE's own position."""

    flow_id: int
    type_id: int
    src: str
    dst: str
    rate: float  # packets per PE tick
    flits_per_packet: int
    payload: PayloadSource = field(repr=False)

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"injection rate {self.rate} outside [0, 1]")
        if self.flits_per_packet < 2:
            raise ConfigurationError("packets need a head flit and at least one body flit")
        if self.type_id < 0:
            raise ConfigurationError("type_id must be non-negative")


class Link:
    """One-cycle register from an upstream :class:`OutputPort` into the
    downstream per-VC ``buffers``, with an observer.

    The output port sets ``out_port`` and the downstream router input or
    sink NI sets ``buffers``, so a link delivers flits without going
    through either end.  ``stage_credit`` hands a freed buffer slot's
    credit to ``credits``, its network's list of credits staged this
    cycle, which returns it to ``out_port`` two cycles later.

    ``down`` is the router or sink NI that owns ``buffers``; a delivery
    counts the flit there and lists it in its wake list when its count
    leaves zero.  A link is in its network's link wake list (``wakes``)
    while its register holds a flit.

    ``observe`` appends the flit's cycle and type to the current chunk's
    lists, and on a traced link its word, flow and word index; ``fold``
    turns them into arrays, which a traced link keeps in ``chunks``.
    """

    __slots__ = (
        "link_id", "out_port", "buffers", "down", "observer", "vertical", "reg_flit",
        "reg_vc", "credits", "chunk_cycles", "chunk_types", "chunk_words",
        "chunk_flows", "chunk_indices", "chunks", "wakes",
    )

    def __init__(self, link_id, n_types, vertical=False, collect_trace=False):
        self.link_id = link_id
        self.out_port: OutputPort | None = None
        self.buffers: list[deque[Flit]] = []
        self.down: Router | SinkNI | None = None
        self.observer = LinkObserver(link_id, n_types)
        self.vertical = vertical
        self.reg_flit: Flit | None = None
        self.reg_vc = 0
        self.credits: list[OutputVC] = []
        self.chunks: list[tuple[np.ndarray, ...]] | None = [] if collect_trace else None
        self._start_chunk()
        self.wakes: list[Link] = []

    def occupancy(self) -> int:
        return 0 if self.reg_flit is None else 1

    def put(self, flit: Flit, vc: int) -> None:
        if self.reg_flit is not None:
            raise SimulationError(f"{self.link_id}: link register busy")
        self.reg_flit = flit
        self.reg_vc = vc
        self.wakes.append(self)

    def stage_credit(self, vc: int) -> None:
        self.credits.append(self.out_port.vcs[vc])

    def deliver(self) -> None:
        """Move the flit in the register into its downstream buffer."""
        flit = self.reg_flit
        buf = self.buffers[self.reg_vc]
        if len(buf) >= self.out_port.depth:
            raise SimulationError(f"{self.link_id}: buffer overflow on vc {self.reg_vc}")
        buf.append(flit)
        self.reg_flit = None
        down = self.down
        if not down.buffered:
            down.wakes.append(down)
        down.buffered += 1
        if flit.is_head:
            down.waiting += 1

    def observe(self, cycle: int) -> None:
        """Record the flit in the register; called only when there is one."""
        f = self.reg_flit
        self.chunk_cycles.append(cycle)
        self.chunk_types.append(f.type_id)
        if self.chunks is not None:
            self.chunk_words.append(f.word)
            self.chunk_flows.append(f.flow_id)
            self.chunk_indices.append(f.word_index)

    def _start_chunk(self) -> None:
        self.chunk_cycles, self.chunk_types = [], []
        self.chunk_words, self.chunk_flows, self.chunk_indices = [], [], []

    def fold(self, end: int) -> None:
        """Fold the events recorded since the last fold, up to cycle ``end``,
        into the observer, and start the next chunk."""
        cycles = np.array(self.chunk_cycles, dtype=np.int64)
        types = np.array(self.chunk_types, dtype=np.int64)
        self.observer.record(cycles, types, end)
        if self.chunks is not None:
            self.chunks.append((cycles, types, np.array(self.chunk_words, dtype=np.uint64),
                                np.array(self.chunk_flows, dtype=np.int64),
                                np.array(self.chunk_indices, dtype=np.int64)))
        self._start_chunk()


class InputVC:
    """One VC of a router input port: the ``buffer`` that ``link`` fills on
    its VC ``vc``, the ``port`` it sits on, the :class:`OutputPort` its head
    was routed to (``route``) and whether it holds a VC there
    (``allocated``)."""

    __slots__ = ("buffer", "link", "vc", "port", "route", "allocated")

    def __init__(self, link: Link, vc: int, port: int):
        self.buffer: deque[Flit] = deque()
        self.link = link
        self.vc = vc
        self.port = port
        self.route: OutputPort | None = None
        self.allocated = False


class OutputVC:
    """VC ``vc`` of the output stage ``port``.  ``flits`` is the deque it
    sends from: a source NI's own per-VC deque, or in a router the buffer of
    the input VC ``src`` that holds the VC.  A source NI stores the flow of
    the packet it carries in ``flow_id``."""

    __slots__ = ("state", "credits", "depth", "flits", "src", "flow_id", "port", "vc")

    def __init__(self, port: OutputPort, vc: int, depth: int):
        self.state = FREE
        self.credits = depth
        self.depth = depth
        self.flits: deque[Flit] | None = None
        self.src: InputVC | None = None
        self.flow_id = -1
        self.port = port
        self.vc = vc


class OutputPort:
    """The VCs feeding one link, with their credits and arbitration.

    ``orders[rr]`` is the VC order tried after ``rr`` last sent: round
    robin under ``fair``, always the lowest VC first under ``priority``.
    ``active`` counts the VCs in state ``ACTIVE``; whoever claims a VC
    counts it, and ``send`` uncounts it with the tail.  A ``DRAINING`` VC
    frees once :func:`accept_credits` has brought all its credits back.
    """

    __slots__ = ("link", "vcs", "depth", "orders", "rr", "active")

    def __init__(self, link: Link, vc_count: int, downstream_depth: int, arbitration: str):
        link.out_port = self
        self.link = link
        self.vcs = [OutputVC(self, vc, downstream_depth) for vc in range(vc_count)]
        self.depth = downstream_depth
        if arbitration == "fair":
            self.orders = [tuple((rr + 1 + k) % vc_count for k in range(vc_count))
                           for rr in range(vc_count)]
        else:
            self.orders = [tuple(range(vc_count))] * vc_count
        self.rr = 0
        self.active = 0

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
                self.active -= 1
            self.rr = idx
            return ov
        return None


def accept_credits(credits: list[OutputVC]) -> None:
    """Give one credit back to each listed output VC; a draining VC whose
    credits are all back is free again."""
    for ov in credits:
        ov.credits += 1
        if ov.credits >= ov.depth:
            if ov.credits > ov.depth:
                raise SimulationError(
                    f"{ov.port.link.link_id}: credit overflow on vc {ov.vc}")
            if ov.state == DRAINING:
                ov.state = FREE


class Router:
    """Input-buffered VC router.

    ``in_vcs`` lists its input VCs in (port, VC) order, the order in which
    a tick visits them, and ``outputs[port]`` is the :class:`OutputPort`
    of each output link, or None where the router has none; ``ports``
    lists the present ones in port order.

    ``buffered`` counts the flits in the input buffers and ``waiting`` the
    heads delivered and not yet allocated an output VC: links raise both
    as they deliver, and a tick lowers them.  A head only arrives into an
    empty buffer, since the upstream VC frees only once all its credits
    are back, so a waiting head is the first flit of its buffer.  A tick
    scans the input VCs only while a head waits.

    It ticks on its network's router clock, and it is in the network's
    router wake list (``wakes``) exactly while ``buffered`` is not zero."""

    def __init__(self, node_id: str, coords: tuple[int, int, int], cfg: RouterConfig):
        self.node_id = node_id
        self.coords = coords
        self.cfg = cfg
        self.in_vcs: list[InputVC] = []
        self.outputs: list[OutputPort | None] = [None] * len(PORT_NAMES)
        self.ports: list[OutputPort] = []
        self.buffered = 0
        self.waiting = 0
        self.wakes: list[Router] = []

    def attach_input(self, port: int, link: Link) -> None:
        vcs = [InputVC(link, vc, port) for vc in range(self.cfg.vc_count)]
        link.buffers = [ivc.buffer for ivc in vcs]
        link.down = self
        # the visiting order fixes VC allocation, whatever the attach order
        self.in_vcs = sorted(self.in_vcs + vcs, key=attrgetter("port", "vc"))

    def attach_output(self, port: int, link: Link, downstream_depth: int) -> None:
        self.outputs[port] = OutputPort(
            link, self.cfg.vc_count, downstream_depth, self.cfg.arbitration)
        self.ports = [op for op in self.outputs if op is not None]

    def occupancy(self) -> int:
        return sum(len(ivc.buffer) for ivc in self.in_vcs)

    def recount(self) -> tuple[int, int]:
        """``buffered`` and ``waiting`` counted from the input VCs."""
        waiting = sum(1 for ivc in self.in_vcs
                      if ivc.buffer and not ivc.allocated and ivc.buffer[0].is_head)
        return self.occupancy(), waiting

    def tick(self) -> None:
        # stage 3: output arbitration and sending, on ports with an active VC
        for op in self.ports:
            if not op.active:
                continue
            ov = op.send()
            if ov is None:
                continue
            self.buffered -= 1
            src = ov.src
            src.link.stage_credit(src.vc)
            if ov.state == DRAINING:  # the tail just left
                src.route = None
                src.allocated = False
        # stages 2 and 1 in one pass: VC allocation for heads routed in an
        # earlier tick, route computation for newly arrived heads (which
        # are allocated in a later tick at the earliest)
        if self.waiting:
            self._allocate()

    def _allocate(self) -> None:
        for ivc in self.in_vcs:
            buf = ivc.buffer
            if not buf or ivc.allocated or not buf[0].is_head:
                continue
            op = ivc.route
            if op is None:
                out = route_xyz(self.coords, buf[0].dest)
                op = self.outputs[out]
                if op is None:
                    raise SimulationError(
                        f"{self.node_id}: no {PORT_NAMES[out]} link toward {buf[0].dest}")
                ivc.route = op
                continue
            for ov in op.vcs:
                if ov.state == FREE:
                    ov.state = ACTIVE
                    op.active += 1
                    ov.flits = buf
                    ov.src = ivc
                    ivc.allocated = True
                    self.waiting -= 1
                    break


class SourceNI:
    """Packet queue feeding the router's local input port through an
    :class:`OutputPort`, so it arbitrates and takes credits back exactly
    like a router output stage.

    Queued packets wait in one FIFO per flow.  Each free local VC, lowest
    first, claims the packet enqueued first among the flows that have no
    packet on a VC, and holds it until its tail flit is sent and all
    credits have returned.  A flow is busy while a VC that is not free
    carries it, and packets of one flow transmit strictly one at a time,
    so flow-level packet order is preserved end to end.  Blocking: the
    queue grows without loss when the router back-pressures.

    It ticks on its network's PE clock, and it is in the network's source
    wake list (``wakes``) exactly while ``backlog`` or ``out.active`` is
    not zero: a packet enqueued while both are zero lists it.  A VC's deque
    holds flits exactly while the VC is ``ACTIVE``.  Each packet enqueued
    adds itself and its flits to ``result``'s injection counts."""

    def __init__(self, link: Link, vc_count, downstream_depth, arbitration, result):
        self.out = OutputPort(link, vc_count, downstream_depth, arbitration)
        self.result = result
        for ov in self.out.vcs:
            ov.flits = deque()
        # flow id -> (enqueue number, flits) of that flow's queued packets
        self.fifos: dict[int, deque[tuple[int, list[Flit]]]] = {}
        self.backlog = 0
        self.enqueued_packets = 0
        self.max_backlog = 0
        self.wakes: list[SourceNI] = []

    def enqueue_packet(self, flits: list[Flit]) -> None:
        if not self.backlog and not self.out.active:
            self.wakes.append(self)
        fifo = self.fifos.setdefault(flits[0].flow_id, deque())
        fifo.append((self.enqueued_packets, flits))
        self.enqueued_packets += 1
        self.result.injected_packets += 1
        self.result.injected_flits += len(flits)
        self.backlog += 1
        if self.backlog > self.max_backlog:
            self.max_backlog = self.backlog

    def occupancy(self) -> int:
        queued = sum(len(p) for fifo in self.fifos.values() for _, p in fifo)
        return queued + sum(len(v.flits) for v in self.out.vcs)

    def tick(self) -> None:
        out = self.out
        if self.backlog:
            vcs = out.vcs
            busy = None
            for ov in vcs:
                if ov.state != FREE:
                    continue
                if busy is None:
                    busy = {ov.flow_id for ov in vcs if ov.state != FREE}
                first = min(((fifo[0][0], flow) for flow, fifo in self.fifos.items()
                             if fifo and flow not in busy), default=None)
                if first is None:
                    break
                flow = first[1]
                ov.flits.extend(self.fifos[flow].popleft()[1])
                self.backlog -= 1
                busy.add(flow)
                ov.state = ACTIVE
                out.active += 1
                ov.flow_id = flow
                if not self.backlog:
                    break
        if out.active:
            out.send()


class SinkNI:
    """Consumes ejected flits, returns credits and records latency.  A
    delivery lists it and the next PE-clock cycle drains it, listed sinks
    in node-id order (``rank``).  Deliveries raise ``buffered`` and
    ``waiting`` here as at a router, and a drain zeroes them."""

    def __init__(self, in_link: Link, vc_count, result):
        self.in_link = in_link
        self.buffers = [deque() for _ in range(vc_count)]
        in_link.buffers = self.buffers
        in_link.down = self
        self.result = result
        self.buffered = 0
        self.waiting = 0
        self.rank = 0
        self.wakes: list[SinkNI] = []

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
        self.buffered = self.waiting = 0


class PE:
    """Bernoulli packet injector for the flows sourced at this node.

    The PE keeps no clock: its network's PE clock ``clock`` gives its
    ticks, tick k falling on cycle k * ``clock``.  On each tick every flow
    draws one uniform, in flow order, and injects a packet if it is below
    the flow's rate.  ``injections`` draws the uniforms of a span of ticks
    at once, in the same order, and keeps only the ticks on which some
    flow injects.

    ``packet_counter`` is each flow's one counter: packet k of a flow
    carries the flow's payload words from k * (flits_per_packet - 1) on.
    """

    def __init__(self, node_id, dest_index_of, flit_width,
                 flows: list[FlowSpec], ni: SourceNI, head_type: int, seed):
        self.node_id = node_id
        self.flit_width = flit_width
        self.head_type = head_type
        self.flows = flows
        self.ni = ni
        self.rng = np.random.default_rng(seed)
        self.dest_index_of = dest_index_of
        self.packet_counter = {f.flow_id: 0 for f in flows}

    def injections(self, lo: int, hi: int, clock: int) -> list[tuple[int, list[float]]]:
        """(cycle, uniforms) of each tick of the PE clock ``clock`` in cycles
        [lo, hi) on which some flow injects at its current rate.  Spans must
        follow one another, since every tick in the span draws."""
        first, stop = -(-lo // clock), -(-hi // clock)
        if not self.flows or stop <= first:
            return []
        rows = self.rng.random((stop - first, len(self.flows)))
        hits = np.flatnonzero((rows < [f.rate for f in self.flows]).any(axis=1))
        return [((first + hit) * clock, rows[hit].tolist()) for hit in hits.tolist()]

    def tick(self, cycle: int, draws: list[float], dest_coords) -> None:
        """Inject on the tick at ``cycle``, given its flows' uniforms."""
        for flow, u in zip(self.flows, draws):
            if u >= flow.rate:
                continue
            pid = self.packet_counter[flow.flow_id]
            self.packet_counter[flow.flow_id] = pid + 1
            dest = dest_coords[flow.dst]
            n_body = flow.flits_per_packet - 1
            head_word = encode_head_word(
                self.dest_index_of[flow.dst], pid, self.flit_width)
            flits = [Flit(flow.flow_id, self.head_type, head_word, True,
                          False, dest, -1, cycle)]
            base = pid * n_body
            for k, w in enumerate(flow.payload.take(base, n_body).tolist()):
                flits.append(Flit(flow.flow_id, flow.type_id, w, False,
                                  k == n_body - 1, dest, base + k, cycle))
            self.ni.enqueue_packet(flits)


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
    link_traces: dict = field(default_factory=dict)  # link id -> oracle.LinkTrace
    consumed_words: dict = field(default_factory=dict)
    injected_flits: int = 0
    injected_packets: int = 0
    ejected_flits: int = 0
    ejected_packets: int = 0
    in_flight_flits: int = 0
    max_backlogs: dict = field(default_factory=dict)

    def add_link(self, link_id: str, observer: LinkObserver, vertical: bool,
                 trace: LinkTrace | None = None) -> None:
        """Record one link: its M and per-type flit counts from ``observer``,
        whether it is vertical, and its trace when one was kept."""
        self.data_flow[link_id] = observer.finalize()
        self.link_flit_counts[link_id] = observer.type_flit_counts()
        self.link_vertical[link_id] = vertical
        if trace is not None:
            self.link_traces[link_id] = trace

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
    """A built mesh: routers, NIs, PEs and observed links, with the wake
    lists of an activity-driven run.  ``routers``, ``sources``, ``sinks``
    and ``pes`` map node ids to parts in node-id order, the order in which
    a run visits them.  ``staged_credits`` and ``flying_credits`` are the
    two stages of the credit return.  Routers tick every ``router_clock``
    cycles, NIs and PEs every ``pe_clock``."""

    def __init__(self, routers, sources, sinks, pes, links, dest_coords, result,
                 router_clock, pe_clock):
        self.routers = routers
        self.sources = sources
        self.sinks = sinks
        self.pes = pes
        self.links = links
        self.dest_coords = dest_coords
        self.result = result
        self.router_clock = router_clock
        self.pe_clock = pe_clock
        for rank, sink in enumerate(sinks.values()):
            sink.rank = rank
        self.staged_credits: list[OutputVC] = []
        self.flying_credits: list[OutputVC] = []
        for link in links:
            link.credits = self.staged_credits
        self._links_awake: list[Link] = []
        self._routers_awake: list[Router] = []
        self._sinks_awake: list[SinkNI] = []
        self._sources_awake: list[SourceNI] = []
        # (kind, wake list, parts by name) of each kind of listed part
        self._wake_sets = (
            ("link", self._links_awake, {link.link_id: link for link in links}),
            ("router", self._routers_awake, routers),
            ("sink NI", self._sinks_awake, sinks),
            ("source NI", self._sources_awake, sources))
        for _, wakes, parts in self._wake_sets:
            for part in parts.values():
                part.wakes = wakes

    def check_wake_invariant(self) -> None:
        """No component is missing from its wake list while it holds work."""
        for kind, wakes, parts in self._wake_sets:
            listed = set(wakes)
            for name, part in parts.items():
                if part not in listed and part.occupancy():
                    raise SimulationError(f"{kind} {name} is asleep while it holds work")

    def check_count_invariant(self) -> None:
        """Each router's ``buffered`` and ``waiting`` match a recount."""
        for name, router in self.routers.items():
            counts = (router.buffered, router.waiting)
            if counts != router.recount():
                raise SimulationError(
                    f"router {name}: buffered {counts[0]}, waiting {counts[1]} counted;"
                    f" recount gives {router.recount()}")

    def in_flight(self) -> int:
        return sum(part.occupancy() for _, _, parts in self._wake_sets
                   for part in parts.values())

    def check_credit_invariant(self) -> None:
        """Credits plus downstream occupancy equal buffer depth for every
        link and VC, NI-fed links included; valid at cycle boundaries."""
        pending = Counter(self.staged_credits + self.flying_credits)
        for link in self.links:
            op = link.out_port
            for vc, ov in enumerate(op.vcs):
                occ = len(link.buffers[vc])
                in_reg = 1 if (link.reg_flit is not None and link.reg_vc == vc) else 0
                in_fly = pending[ov]
                if ov.credits + occ + in_reg + in_fly != op.depth:
                    raise SimulationError(
                        f"{link.link_id} vc {vc}: credits {ov.credits} + occupancy {occ}"
                        f" + reg {in_reg} + in-flight {in_fly} != depth {op.depth}")

    def run(self, cycles: int, *, check_invariants: bool = False) -> SimulationResult:
        """Advance the network by ``cycles`` cycles.

        Returns the network's one result, which covers every cycle since
        the network was built: a further run extends and returns the same
        object, and starts from the wake lists the last run left.  With
        ``check_invariants`` it checks after every cycle the credits, the
        routers' counts, the wake lists and that every injected flit has
        been ejected or is in flight.
        """
        result = self.result
        start = result.cycles
        end = start + cycles
        if cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        # M counts transitions between cycles, so a link needs two observed
        if end < 2:
            raise ConfigurationError(f"a network needs at least two cycles, got {end}")
        result.cycles = end

        pes = self.pes.values()
        dest_coords = self.dest_coords
        staged, flying = self.staged_credits, self.flying_credits
        links_awake, routers_awake = self._links_awake, self._routers_awake
        sinks_awake, sources_awake = self._sinks_awake, self._sources_awake
        router_clock, pe_clock = self.router_clock, self.pe_clock

        # cycles count from the network's start, so that latencies and clock
        # phases carry across runs
        for lo in range(start, end, CHUNK):
            hi = min(lo + CHUNK, end)
            # the PEs' injections of this chunk, in PE order within a cycle
            due: dict[int, list[tuple[PE, list[float]]]] = {}
            for pe in pes:
                for cycle, draws in pe.injections(lo, hi, pe_clock):
                    due.setdefault(cycle, []).append((pe, draws))
            for cycle in range(lo, hi):
                if flying:
                    accept_credits(flying)
                    flying.clear()
                if staged:
                    flying.extend(staged)
                    staged.clear()
                for link in links_awake:
                    link.deliver()
                links_awake.clear()
                if cycle % router_clock == 0:
                    for router in routers_awake:
                        router.tick()
                    routers_awake[:] = [r for r in routers_awake if r.buffered]
                if cycle % pe_clock == 0:
                    sinks_awake.sort(key=_RANK)
                    for sink in sinks_awake:
                        sink.tick(cycle)
                    sinks_awake.clear()
                    for pe, draws in due.get(cycle, ()):
                        pe.tick(cycle, draws, dest_coords)
                    for source in sources_awake:
                        source.tick()
                    sources_awake[:] = [s for s in sources_awake
                                        if s.backlog or s.out.active]
                for link in links_awake:
                    link.observe(cycle)
                if check_invariants:
                    self.check_credit_invariant()
                    self.check_count_invariant()
                    self.check_wake_invariant()
                    lost = result.injected_flits - result.ejected_flits - self.in_flight()
                    if lost:
                        raise SimulationError(
                            f"flit conservation violated at cycle {cycle}: injected"
                            f" minus ejected minus in flight is {lost}")
            for link in self.links:
                link.fold(hi)

        result.in_flight_flits = self.in_flight()
        # traces, like the observers, cover every cycle since the network was built
        for link in self.links:
            trace = None
            if link.chunks is not None:
                link.chunks = [tuple(np.concatenate(column) for column in zip(*link.chunks))]
                trace = LinkTrace(*link.chunks[0], length=end, width=result.flit_width)
            result.add_link(link.link_id, link.observer, link.vertical, trace)
        result.max_backlogs = {
            nid: src.max_backlog for nid, src in self.sources.items()}
        return result


_RANK = attrgetter("rank")


def build_network(
    nodes: dict[str, tuple[int, int, int]],
    flows: list[FlowSpec],
    *,
    flit_width: int = 16,
    router_cfg: RouterConfig | None = None,
    pe_clock_delay: int = 1,
    clock_period: float = 1e-9,
    collect_traces: bool = False,
    seed: int = 0,
) -> Network:
    """Wire up routers, links and network interfaces for a (possibly
    sparse) 3D mesh given by ``nodes`` (id -> integer coordinates).  The
    types are the flows' payload types plus one head type above them.
    Parts are built in node-id order, whatever the order of ``nodes``."""
    cfg = router_cfg or RouterConfig()
    if not nodes:
        raise ConfigurationError("topology needs at least one node")
    node_coords, coords_to_id = {}, {}
    for nid, coords in nodes.items():
        coords = tuple(int(c) for c in coords)
        if len(coords) != 3 or min(coords) < 0:
            raise ConfigurationError(f"bad coordinates for node {nid!r}: {coords}")
        if coords in coords_to_id:
            raise ConfigurationError(f"nodes {coords_to_id[coords]!r} and {nid!r}"
                                     f" share coordinates {coords}")
        node_coords[nid] = coords
        coords_to_id[coords] = nid

    for flow in flows:
        for end in (flow.src, flow.dst):
            if end not in node_coords:
                raise ConfigurationError(f"flow {flow.flow_id}: unknown node {end!r}")
    n_types = max((f.type_id for f in flows), default=0) + 2

    routers = {nid: Router(nid, node_coords[nid], cfg) for nid in sorted(node_coords)}
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
        sink = SinkNI(down, cfg.vc_count, result)
        source = SourceNI(up, cfg.vc_count, cfg.buffer_depth, cfg.arbitration, result)
        node_flows = [f for f in flows if f.src == nid]
        pe = PE(nid, dest_index_of, flit_width, node_flows, source, head_type=n_types - 1,
                seed=np.random.SeedSequence([seed, dest_index_of[nid]]))
        sources[nid], sinks[nid], pes[nid] = source, sink, pe

    # a run directory names each link's files by its file name
    named = {}
    for link in links:
        name = link_file_name(link.link_id)
        if name in named:
            other = named[name]
            shared = (f"the id {other!r}" if other == link.link_id else
                      f"the file name {name!r}: {other!r} and {link.link_id!r}")
            raise ConfigurationError(f"two links share {shared}; rename a node")
        named[name] = link.link_id

    net = Network(routers, sources, sinks, pes, links, node_coords, result,
                  cfg.clock_delay, pe_clock_delay)
    _validate_paths(net, flows)
    return net


def _opposite(port: int) -> int:
    return {XP: XN, XN: XP, YP: YN, YN: YP, ZP: ZN, ZN: ZP}[port]


def _validate_paths(net: Network, flows: list[FlowSpec]) -> None:
    """Follow each flow's XYZ route over the built links."""
    for flow in flows:
        router = net.routers[flow.src]
        dest = net.dest_coords[flow.dst]
        while router.coords != dest:
            op = router.outputs[route_xyz(router.coords, dest)]
            if op is None:
                raise ConfigurationError(
                    f"flow {flow.flow_id}: XYZ route {flow.src}->{flow.dst}"
                    f" leaves the topology at {router.coords}")
            router = op.link.down
