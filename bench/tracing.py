"""Call tracing for the traced benchmark run.

The tracer replaces public functions and methods of noclink with timing
wrappers, under the name each caller looks up: a function that a module
imported by name is patched in that module (``sweeps.link_energy_report``,
not ``linkmodel.link_energy_report``), and methods are patched on their
class.  Every call records its duration and its self time, which is the
duration minus the time covered by traced calls made inside it.

Calls made once per simulated cycle (router ticks, link deliver/observe,
``LinkObserver.record``) are too many to keep one by one, so they are
marked hot: they add to the per-name totals and to their parent's child
time but keep no span.  A wrapper's own bookkeeping is charged to its
parent as child time, so it shows in ``trace.overhead_s`` rather than in
any layer's self time.  Every other call keeps a span
``(name, start, end, parent)`` in memory; the spans are written out when
the benchmark ends.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # open calls: [child_s, span index]

    def wrap(self, fn, name, *, hot=False, before=None, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        total, counts = self.totals[name], self.counts

        def traced(*args, **kwargs):
            entered = clock()
            if before is not None:
                before(counts, *args, **kwargs)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else -1
            if hot:
                frame = [0.0, parent_span]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent_span])
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                total[0] += 1
                total[1] += dur
                total[2] += dur - frame[0]
                if not hot:
                    spans[frame[1]][1:3] = (start, end)
            if after is not None:
                after(counts, out)
            if parent is not None:
                # the wrapper's own bookkeeping counts as child time, so that
                # it does not inflate the caller's self time
                parent[0] += clock() - entered
            return out

        return functools.wraps(fn)(traced)

    def calls(self, name) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def self_s(self, *names) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def top_level_s(self) -> float:
        """Time covered by the spans that have no traced parent."""
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1)


def _patch(undo, owner, attr, replacement):
    undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _count_arg(key, size):
    def hook(counts, *args, **_):
        counts[key] += size(args)
    return hook


def _count_out(key, size=len):
    def hook(counts, out):
        counts[key] += size(out)
    return hook


def _after_run(counts, result):
    hops = sum(int(c.sum()) for c in result.link_flit_counts.values())
    counts["flit_hops"] += hops
    counts["link_cycles"] += result.cycles * len(result.link_flit_counts)
    counts["max_backlog"] = max(
        [counts["max_backlog"], *result.max_backlogs.values()])


def _idle_tick(counts, router):
    if router.occupancy() == 0:
        counts["idle_router_ticks"] += 1


@contextmanager
def installed(tracer: Tracer):
    """Patch the traced noclink entry points for the duration of the block."""
    from noclink import cli, codecs, config, reporting, simnet, sweeps, traffic

    undo: list = []

    def patch(owner, attr, name, **kw):
        _patch(undo, owner, attr, tracer.wrap(getattr(owner, attr), name, **kw))

    for attr in ("main", "cmd_simulate", "cmd_analyze", "cmd_oracle"):
        patch(cli, attr, f"cli.{attr}")
    for owner in (cli, config):
        patch(owner, "parse_config", "config.parse_config")
        patch(owner, "build_simulation", "config.build_simulation")
    patch(traffic, "make_payload_source", "traffic.make_payload_source",
          after=_count_out("payload_words"))
    patch(cli, "emit_reports", "reporting.emit_reports")
    patch(cli, "write_link_protocol", "oracle.write_link_protocol")
    patch(cli, "replay_link_protocol", "oracle.replay_link_protocol")
    oracle_cycles = _count_arg("oracle_cycles", lambda args: len(args[0]))
    for owner in (cli, sweeps):
        patch(owner, "exact_energy", "oracle.exact_energy", before=oracle_cycles)
    patch(sweeps, "exact_switching", "oracle.exact_switching", before=oracle_cycles)
    patch(sweeps, "link_stats_from_result", "sweeps.link_stats_from_result")
    patch(sweeps, "link_energy_report", "linkmodel.link_energy_report")
    patch(sweeps, "link_switching", "linkmodel.link_switching")
    patch(sweeps, "multiplex_streams", "streams.multiplex_streams",
          after=_count_out("multiplex_words", lambda out: len(out[0])))
    patch(sweeps, "generate_stream", "streams.generate_stream")
    patch(sweeps, "compute_bit_stats", "streams.compute_bit_stats")
    patch(sweeps, "compute_sequential_switching", "streams.compute_sequential_switching")
    patch(sweeps, "mux_accuracy_sweep", "sweeps.mux_accuracy_sweep",
          after=_count_out("accuracy_configs"))
    patch(sweeps, "coding_sweep", "sweeps.coding_sweep")

    count_words = _count_arg("words_encoded", lambda args: len(args[1]))
    for cls in (codecs.NoneCodec, codecs.GrayCodec, codecs.InvertCodec):
        patch(cls, "encode", f"codecs.encode.{cls.kind}", before=count_words)
    plain = tracer.wrap(codecs.CorrelatorCodec.encode, "codecs.encode.correlator",
                        before=count_words)
    inverted = tracer.wrap(codecs.CorrelatorCodec.encode, "codecs.encode.correlator_inv",
                           before=count_words)
    _patch(undo, codecs.CorrelatorCodec, "encode",
           lambda self, stream: (inverted if self.invert_output else plain)(self, stream))

    patch(simnet.Network, "run", "simnet.Network.run", after=_after_run)
    patch(simnet.Router, "tick", "simnet.Router.tick", hot=True, before=_idle_tick)
    patch(simnet.Link, "deliver", "simnet.Link.deliver", hot=True)
    patch(simnet.Link, "observe", "simnet.Link.observe", hot=True)
    patch(reporting.LinkObserver, "record", "reporting.LinkObserver.record", hot=True)
    for cls in (simnet.SourceNI, simnet.SinkNI, simnet.PE):
        patch(cls, "tick", f"simnet.{cls.__name__}.tick", hot=True)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


@contextmanager
def run_allocations(peaks: list):
    """Record the tracemalloc peak of every ``Network.run`` call, in bytes."""
    from noclink import simnet

    run = simnet.Network.run

    @functools.wraps(run)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return run(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    simnet.Network.run = measured
    try:
        yield peaks
    finally:
        simnet.Network.run = run


def _ratio(num, den):
    return num / den if den else 0.0


def _speedup(t: Tracer) -> float:
    """Oracle time per link over model time per link, on the same links."""
    for oracle, model in (("oracle.exact_switching", "linkmodel.link_switching"),
                          ("oracle.exact_energy", "linkmodel.link_energy_report")):
        if t.calls(oracle) and t.calls(model):
            return _ratio(t.self_s(oracle) / t.calls(oracle), t.self_s(model) / t.calls(model))
    return 0.0


CODEC_KINDS = ("gray", "correlator", "correlator_inv", "invert")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by benchmark metric name."""
    c = t.counts
    ticks = t.calls("simnet.Router.tick")
    out = {
        "simnet.router_tick_s": t.self_s("simnet.Router.tick"),
        "simnet.link_deliver_s": t.self_s("simnet.Link.deliver"),
        "simnet.ni_pe_s": t.self_s("simnet.SourceNI.tick", "simnet.SinkNI.tick", "simnet.PE.tick"),
        "simnet.run_s": t.self_s("simnet.Network.run"),
        "simnet.router_ticks": ticks,
        "simnet.idle_router_tick_share": _ratio(c["idle_router_ticks"], ticks),
        "simnet.idle_link_cycle_share": (
            1.0 - _ratio(c["flit_hops"], c["link_cycles"]) if c["link_cycles"] else 0.0),
        "simnet.flit_hops": c["flit_hops"],
        "simnet.max_backlog": c["max_backlog"],
        "simnet.observe_s": t.self_s("simnet.Link.observe"),
        "reporting.record_s": t.self_s("reporting.LinkObserver.record"),
        "reporting.record_calls": t.calls("reporting.LinkObserver.record"),
        "simnet.build_s": t.self_s("config.build_simulation"),
        "config.parse_s": t.self_s("config.parse_config"),
        "traffic.payload_s": t.self_s("traffic.make_payload_source"),
        "traffic.payload_words": c["payload_words"],
        "reporting.emit_s": t.self_s("reporting.emit_reports"),
        "oracle.protocol_write_s": t.self_s("oracle.write_link_protocol"),
        "cli.save_s": t.self_s("cli.cmd_simulate"),
        "cli.load_s": t.self_s("cli.cmd_analyze"),
        "linkmodel.link_stats_s": t.self_s("sweeps.link_stats_from_result"),
        "linkmodel.report_s": t.self_s("linkmodel.link_energy_report"),
        "linkmodel.reports": t.calls("linkmodel.link_energy_report"),
        "codecs.words_encoded": c["words_encoded"],
        "oracle.exact_s": t.self_s("oracle.exact_energy", "oracle.exact_switching"),
        "oracle.protocol_read_s": t.self_s("oracle.replay_link_protocol"),
        "oracle.cycles": c["oracle_cycles"],
        "linkmodel.model_vs_oracle_speedup": _speedup(t),
        "streams.multiplex_s": t.self_s("streams.multiplex_streams"),
        "streams.multiplex_words": c["multiplex_words"],
        "streams.generate_s": t.self_s("streams.generate_stream"),
        "streams.bit_stats_s": t.self_s(
            "streams.compute_bit_stats", "streams.compute_sequential_switching"),
        "sweeps.accuracy_configs": c["accuracy_configs"],
    }
    for kind in CODEC_KINDS:
        out[f"codecs.encode_s.{kind}"] = t.self_s(f"codecs.encode.{kind}")
    return out


# ratios and probes that read 0 when their base is absent from a workload
ABSENT = {
    "simnet.idle_router_tick_share": "no router ticked",
    "simnet.idle_link_cycle_share": "no link was simulated",
    "simnet.run_alloc_peak_mib": "no simulation ran",
    "linkmodel.model_vs_oracle_speedup": "the model and the oracle never ran on the same links",
}


def absent_reason(name: str, value: float) -> str | None:
    """Why a metric reads 0 on this workload, or None if it was measured."""
    return ABSENT.get(name) if value == 0 else None
