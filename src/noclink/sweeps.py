"""Experiment orchestration: accuracy/energy sweeps and the case study.

Three families of experiments are provided:

* ``mux_accuracy_sweep`` -- switching-estimation error of the link model
  against the bit-level oracle over multiplexed synthetic streams.
* ``mux_energy_sweep`` / ``coding_sweep`` -- stream-level link energy and
  coding gain as a function of the multiplexing probability.
* the seven-router case study -- a full simulation whose recorded link
  traces feed the model and the VC-blind baseline
  (``network_energy_reports``), the oracle (``exact_energy`` on a link's
  trace) and the post-simulation coding evaluation.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .codecs import CODECS, coding_gain, make_codec
from .energy import (
    Capacitance2D,
    Capacitance3D,
    TechnologyParams,
    template_2d_bus,
    template_3d_tsv,
)
from .linkmodel import (
    DataFlowMatrix,
    LinkEnergyReport,
    LinkTypeStats,
    link_energy_report,
    link_switching,
)
from .oracle import LinkTrace, exact_energy, exact_switching
from .reporting import LinkObserver
from .simnet import FlowSpec, RouterConfig, SimulationResult, build_network
from .streams import (
    DISTRIBUTIONS,
    DataStream,
    StreamSpec,
    compute_bit_stats,
    compute_sequential_switching,
    generate_stream,
    gather_multiplexed,
    multiplex_streams,
)
from .traffic import make_payload_source


class SweepError(ValueError):
    pass


# --- reference parasitics ---------------------------------------------------

TECH = TechnologyParams(vdd=1.1, clock_period=1e-9)


def case_study_cap2d(width: int = 16) -> Capacitance2D:
    """Horizontal metal-wire bus: nearest-neighbor coupling."""
    return template_2d_bus(width, 120.0, 40.0, 1)


def case_study_cap3d(width: int = 16) -> Capacitance3D:
    """Vertical TSV array: neighbor-dominated grid, mild high-bias relief."""
    rows, cols = _grid_shape(width)
    return template_3d_tsv(rows, cols, 40.0, -2.0, 120.0, -6.0)


def sweep_cap2d(width: int = 16) -> Capacitance2D:
    """Coupling-dominated bus for the stream-level sweeps.

    With two neighbors per side the per-wire coupling total (120)
    exceeds the ground capacitance (110).
    """
    return template_2d_bus(width, 110.0, 40.0, 2)


def _grid_shape(width: int) -> tuple[int, int]:
    root = int(np.sqrt(width))
    if root * root == width:
        return root, root
    return 1, width


# --- per-link statistics from recorded traces -------------------------------


def per_type_stats(words: np.ndarray, types: np.ndarray, carried, width: int) -> LinkTypeStats:
    """Bit and sequential switching statistics of the subsequence of each
    ``carried`` type (a ``DataFlowMatrix``'s ``types``, or n for 0..n-1).

    ``words[types == k]`` is type k's subsequence in transmission order,
    the sequence the per-type switching matrices describe; idle entries
    (type -1) belong to no type.  A type with fewer than two words gets
    the statistics of an all-zero pair.
    """
    bit_stats, seq = [], []
    for k in (range(carried) if np.ndim(carried) == 0 else carried):
        sel = words[types == k]
        if sel.size < 2:
            sel = np.zeros(2, dtype=np.uint64)
        ds = DataStream(sel, width)
        bit_stats.append(compute_bit_stats(ds))
        seq.append(compute_sequential_switching(ds))
    return LinkTypeStats(bit_stats, seq)


def link_stats_from_result(
    result: SimulationResult, link_id: str, trace: LinkTrace | None = None
) -> LinkTypeStats:
    """Per-type bit and switching statistics of one link's ``trace``, the
    link's recorded trace when none is given, at the trace's width."""
    if trace is None:
        trace = result.link_traces.get(link_id)
        if trace is None:
            raise SweepError(f"no recorded trace for link {link_id!r}")
    return per_type_stats(trace.words, trace.types, result.data_flow[link_id].types, trace.width)


def coded_traces(result: SimulationResult, codec_name: str) -> dict[str, LinkTrace]:
    """Every recorded link's trace with its body words coded by ``codec_name``.

    A flow's body flits carry word indices 0, 1, 2, ... in send order, and
    each crosses its source's local link, so the traces hold every word a
    flow sent up to its highest recorded index, a recycled payload
    unrolled.  Each flow's sent words are encoded once, as its source
    would send them coded (a stateful codec runs on across a wrap), and
    gathered back by (flow, index); head words are payload-independent
    and kept.  Routing and arbitration do not depend on the payload, so
    this equals simulating with the payloads coded at the sources.
    """
    traces = result.link_traces
    if not traces:
        raise SweepError("the run recorded no link traces to code")
    codec = make_codec(codec_name, result.flit_width)
    body = {link_id: t.indices >= 0 for link_id, t in traces.items()}
    flows, indices, words = (
        np.concatenate([getattr(t, name)[body[k]] for k, t in traces.items()])
        for name in ("flows", "indices", "words"))
    if flows.min(initial=0) < 0:
        raise SweepError(f"a body flit has flow id {int(flows.min())}")
    highest = np.full(int(flows.max(initial=-1)) + 1, -1, dtype=np.int64)
    np.maximum.at(highest, flows, indices)
    offset = np.concatenate(([0], np.cumsum(highest + 1)))  # of each flow's words
    at = offset[flows] + indices
    sent = np.zeros(offset[-1], dtype=np.uint64)
    sent[at] = words
    recorded = np.zeros(offset[-1], dtype=bool)
    recorded[at] = True
    if not recorded.all():
        pos = int(np.argmin(recorded))
        flow = int(np.searchsorted(offset, pos, side="right")) - 1
        raise SweepError(f"flow {flow}: word {pos - offset[flow]} of"
                         f" {highest[flow] + 1} sent is on no recorded link")
    disagree = sent[at] != words
    if disagree.any():
        raise SweepError(f"flow {int(flows[np.argmax(disagree)])}: the recorded"
                         " links disagree on one of its words")
    coded = np.concatenate([codec.encode(DataStream(part, result.flit_width)).words
                            for part in np.split(sent, offset[1:-1])])
    out = {}
    for link_id, t in traces.items():
        b = body[link_id]
        link_words = t.words.copy()
        link_words[b] = coded[offset[t.flows[b]] + t.indices[b]]
        out[link_id] = LinkTrace(t.cycles, t.types, link_words, t.flows, t.indices,
                                 length=t.length, width=codec.width_out)
    return out


def network_energy_reports(
    result: SimulationResult,
    cap2d: Capacitance2D,
    cap3d: Capacitance3D,
    *,
    traces: dict[str, LinkTrace] | None = None,
    eq11_literal: bool = False,
) -> dict[str, LinkEnergyReport]:
    """Model energy report for every link that carried at least one flit,
    priced from ``traces`` (as ``coded_traces`` builds them), or from the
    recorded traces when none are given."""
    kind = "flit" if traces is None else "coded"
    reports: dict[str, LinkEnergyReport] = {}
    for link_id, dfm in result.data_flow.items():
        if result.link_flit_counts[link_id].sum() == 0:
            continue
        trace = None if traces is None else traces[link_id]
        stats = link_stats_from_result(result, link_id, trace)
        cap = cap3d if result.link_vertical[link_id] else cap2d
        if stats.width != cap.width:
            raise SweepError(
                f"{link_id}: {kind} width {stats.width} does not match"
                f" capacitance width {cap.width}"
            )
        reports[link_id] = link_energy_report(
            stats, dfm, cap, TECH,
            link=link_id,
            payload_bits=result.flit_width,
            head_type=result.n_types - 1,
            eq11_literal=eq11_literal,
        )
    return reports


# --- the seven-router case study ---------------------------------------------

CASE_STUDY_NODES: dict[str, tuple[int, int, int]] = {
    "R1": (0, 0, 0), "R2": (1, 0, 0), "R3": (2, 0, 0),
    "R4": (0, 1, 0), "R5": (1, 1, 0), "R6": (2, 1, 0),
    "R7": (1, 1, 1),
}
CASE_STUDY_SOURCES = ["R1", "R2", "R3", "R4", "R6", "R5"]
CASE_STUDY_DEST = "R7"
CASE_STUDY_FLIT_WIDTH = 16
CASE_STUDY_FLITS_PER_PACKET = 32
# 20% mean injection, counted in flits per PE cycle, over 32-flit packets.
CASE_STUDY_RATE = 0.2 / CASE_STUDY_FLITS_PER_PACKET
CASE_STUDY_VC_LINKS = ("R2->R5", "R5->R7")
CASE_STUDY_SIGMA = 40.0  # the AR(1) spread of the case study's pixels
# the coding comparison's traffic: slow flows of strongly correlated MSB pixels
CASE_STUDY_CODING_TRAFFIC = dict(
    payload_kind="pixel-msb", rate=0.0075, rho=0.9999, stream_seed=110)


def case_study_traffic(
    *,
    payload_kind: str = "pixel-packed",
    rate: float = CASE_STUDY_RATE,
    rho: float = 0.995,
    stream_seed: int = 100,
) -> list[FlowSpec]:
    """Six sensor flows towards the memory node, one data type each, with
    pixel spread ``CASE_STUDY_SIGMA``."""
    return [
        FlowSpec(
            i, i, src, CASE_STUDY_DEST, rate, CASE_STUDY_FLITS_PER_PACKET,
            make_payload_source(
                {"payload": payload_kind, "sigma": CASE_STUDY_SIGMA, "rho": rho,
                 "seed": stream_seed + i, "length": 1 << 20},
                CASE_STUDY_FLIT_WIDTH,
            ),
        )
        for i, src in enumerate(CASE_STUDY_SOURCES)
    ]


def run_case_study(
    vc_count: int,
    *,
    cycles: int = 100_000,
    seed: int = 1,
    collect_traces: bool = True,
    check_invariants: bool = False,
    **traffic_kw,
) -> SimulationResult:
    """Simulate the case study; ``traffic_kw`` go to :func:`case_study_traffic`."""
    net = build_network(
        CASE_STUDY_NODES,
        case_study_traffic(**traffic_kw),
        flit_width=CASE_STUDY_FLIT_WIDTH,
        router_cfg=RouterConfig(
            vc_count=vc_count, buffer_depth=4, arbitration="fair", clock_delay=1,
        ),
        pe_clock_delay=2,
        clock_period=TECH.clock_period,
        collect_traces=collect_traces,
        seed=seed,
    )
    return net.run(cycles, check_invariants=check_invariants)


def evaluate_coding(
    result: SimulationResult,
    codec_names: list[str],
    cap2d: Capacitance2D,
    cap3d: Capacitance3D,
) -> dict[str, dict]:
    """Post-simulation coding comparison over one recorded simulation.

    Returns, per codec, the total network energy per cycle and the gain
    relative to uncoded transmission, priced from the recorded traces
    coded by ``coded_traces``.
    """
    out: dict[str, dict] = {}
    for name in ("none", *(n for n in codec_names if n != "none")):
        traces = None if name == "none" else coded_traces(result, name)
        reports = network_energy_reports(result, cap2d, cap3d, traces=traces)
        total = sum(r.energy_per_cycle_fj for r in reports.values())
        out[name] = {
            "energy_per_cycle_fj": total,
            "gain_percent": coding_gain(out["none"]["energy_per_cycle_fj"], total)
            if out else 0.0,
        }
    return out


# --- switching-estimation accuracy sweep --------------------------------------

DEFAULT_MUX_PROBS = (0.1, 0.4, 0.7, 1.0)


def _accuracy_run(
    n_streams: int, dist: str, width: int, mux_prob: float, flits: int, seed: int
) -> np.ndarray:
    """Absolute model-vs-oracle switching errors of one multiplexed run."""
    rng = np.random.default_rng(seed)
    per = flits // n_streams + 1
    streams = []
    for k in range(n_streams):
        if dist == "uniform":
            spec = StreamSpec("uniform", width, per, seed=seed * 131 + k)
        else:
            lo, hi = 2.0 ** (width / 10.0), 2.0 ** (width - 1)
            sigma = float(np.exp(rng.uniform(np.log(lo * 1.01), np.log(hi * 0.99))))
            rho = float(rng.uniform(0.0, 1.0))
            spec = StreamSpec(dist, width, per, sigma=sigma, rho=rho, seed=seed * 131 + k)
        streams.append(generate_stream(spec))
    mixed, src = multiplex_streams(streams, mux_prob, seed=seed + 7)
    trace, stats, m = _mixed_link(mixed.words[:flits], src[:flits], n_streams, width)
    t_oracle, _ = exact_switching(trace)
    t_model = link_switching(stats, m)
    return np.abs(t_model.t - t_oracle.t).ravel()


def _mixed_link(words, types, n: int, width: int
                ) -> tuple[LinkTrace, LinkTypeStats, DataFlowMatrix]:
    """A multiplexed stream as a link that carries a flit of type ``types[i]``
    every cycle, with the model's per-type statistics and M taken from it."""
    trace = LinkTrace.from_cycles(words, types, width)
    m = LinkObserver.from_trace(trace, n).finalize()
    return trace, per_type_stats(trace.words, trace.types, m.types, width), m


def _accuracy_config(args) -> dict:
    n_streams, dist, width, mux_prob, runs, flits, seed = args
    errors = [
        _accuracy_run(n_streams, dist, width, mux_prob, flits, seed + 7919 * r)
        for r in range(runs)
    ]
    err = np.concatenate(errors)
    per_run_max = np.array([e.max() for e in errors])
    return {
        "streams": n_streams,
        "distribution": dist,
        "width": width,
        "mux_prob": mux_prob,
        "runs": runs,
        "flits": flits,
        "rmse_pp": float(np.sqrt(np.mean(err**2)) * 100.0),
        # per-run maximum absolute error, averaged across runs; a single
        # run's maximum is a heavy-tailed statistic at pattern
        # correlations close to 1 (the effective sample count of a
        # 10^4-flit trace collapses), so the run-wise worst case is
        # reported separately
        "mae_pp": float(per_run_max.mean() * 100.0),
        "worst_run_max_pp": float(per_run_max.max() * 100.0),
        "mean_abs_pp": float(err.mean() * 100.0),
    }


def mux_accuracy_sweep(
    stream_counts=(2, 3, 4, 5),
    distributions=DISTRIBUTIONS,
    widths=(16, 32),
    mux_probs=DEFAULT_MUX_PROBS,
    runs: int = 100,
    flits: int = 10_000,
    seed: int = 1,
    jobs: int = 1,
) -> list[dict]:
    """Model-vs-oracle switching error grid over multiplexed streams."""
    _check_runs(runs)
    if jobs < 1:
        raise SweepError(f"a sweep needs at least one job, got jobs={jobs}")
    if flits < 2:
        raise SweepError(f"an accuracy run needs at least two flits, got flits={flits}")
    if min(stream_counts, default=2) < 2:
        raise SweepError(f"a mux needs at least two streams, got stream_counts={stream_counts}")
    configs = [
        (n, dist, width, mp, runs, flits, seed + 104729 * i)
        for i, (n, dist, width, mp) in enumerate(
            (n, dist, width, mp)
            for n in stream_counts
            for dist in distributions
            for width in widths
            for mp in mux_probs
        )
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_accuracy_config, configs))
    return [_accuracy_config(c) for c in configs]


def _check_runs(runs: int) -> None:
    if runs < 1:
        raise SweepError(f"a sweep needs at least one run, got runs={runs}")


# --- stream-level energy and coding sweeps -------------------------------------

# the word width of the sweeps' streams, and the AR(1) spread and lag-1
# correlation of their correlated streams
SWEEP_WIDTH = 16
SWEEP_SIGMA, SWEEP_RHO = 256.0, 0.99


def _two_streams(distribution: str, length: int, seed: int):
    return [
        generate_stream(StreamSpec(distribution, SWEEP_WIDTH, length, sigma=SWEEP_SIGMA,
                                   rho=SWEEP_RHO, seed=seed + k))
        for k in range(2)
    ]


def mux_energy_sweep(
    mux_probs=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    *,
    length: int = 40_000,
    runs: int = 5,
    seed: int = 1,
) -> list[dict]:
    """Energy per byte of two multiplexed correlated streams vs mux probability.

    The streams are gaussian, ``SWEEP_WIDTH`` bits wide, with ``SWEEP_SIGMA``
    and ``SWEEP_RHO``.  Emits the model estimate and the bit-level oracle
    value for the 2D and the 3D parasitics.
    """
    _check_runs(runs)
    caps = (sweep_cap2d(SWEEP_WIDTH), case_study_cap3d(SWEEP_WIDTH))
    bytes_per_cycle = SWEEP_WIDTH / 8.0
    accs = [{k: [] for k in ("model_2d", "model_3d", "oracle_2d", "oracle_3d")}
            for _ in mux_probs]
    for r in range(runs):
        rs = seed + 100 * r
        streams = _two_streams("gaussian", length, rs)
        for mp, acc in zip(mux_probs, accs):
            mixed, src = multiplex_streams(streams, mp, seed=rs + 7)
            trace, stats, m = _mixed_link(mixed.words, src, 2, SWEEP_WIDTH)
            for cap in caps:
                rep = link_energy_report(stats, m, cap, TECH, link=f"mux{mp}")
                orc = exact_energy(trace, cap, TECH)
                acc[f"model_{cap.kind}"].append(rep.energy_per_cycle_fj / bytes_per_cycle)
                acc[f"oracle_{cap.kind}"].append(orc.energy_per_cycle_fj / bytes_per_cycle)
    return [{"mux_prob": mp, "runs": runs, **{k: float(np.mean(v)) for k, v in acc.items()}}
            for mp, acc in zip(mux_probs, accs)]


def coding_sweep(
    codec_names=tuple(name for name in CODECS if name != "none"),
    mux_probs=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    *,
    distribution: str = "gaussian",
    length: int = 40_000,
    runs: int = 5,
    seed: int = 1,
) -> list[dict]:
    """Coding gain of each codec vs mux probability (bit-level oracle).

    Each run multiplexes two ``SWEEP_WIDTH``-bit streams of ``distribution``,
    one of ``streams.DISTRIBUTIONS``; ``SWEEP_SIGMA`` and ``SWEEP_RHO`` apply
    to ``gaussian`` and ``lognormal``.  Codecs that add wires (bus invert) are
    evaluated against uncoded transmission on the same widened link.
    """
    _check_runs(runs)
    widths = {name: make_codec(name, SWEEP_WIDTH).width_out for name in codec_names}
    caps = {w: (sweep_cap2d(w), case_study_cap3d(w)) for w in set(widths.values())}
    gains = {name: [([], []) for _ in mux_probs] for name in codec_names}
    for r in range(runs):
        rs = seed + 100 * r
        streams = _two_streams(distribution, length, rs)
        coded = {name: [make_codec(name, SWEEP_WIDTH).encode(s) for s in streams]
                 for name in codec_names}
        for i, mp in enumerate(mux_probs):
            # one mux for every output width; codecs of one width share its price
            mixed, src = multiplex_streams(streams, mp, seed=rs + 7)
            types = src.astype(np.int64)
            uncoded = {}  # output width -> the uncoded energy per cap
            for name, wout in widths.items():
                if wout not in uncoded:
                    trace = LinkTrace.from_cycles(mixed.words, types, wout)
                    uncoded[wout] = [exact_energy(trace, cap, TECH).energy_per_cycle_fj
                                     for cap in caps[wout]]
                trace = LinkTrace.from_cycles(gather_multiplexed(coded[name], src).words,
                                              types, wout)
                for cap, eu, acc in zip(caps[wout], uncoded[wout], gains[name][i]):
                    ec = exact_energy(trace, cap, TECH).energy_per_cycle_fj
                    acc.append(coding_gain(eu, ec))
    rows = []
    for name in codec_names:
        for mp, (g2, g3) in zip(mux_probs, gains[name]):
            rows.append({
                "codec": name,
                "mux_prob": mp,
                "runs": runs,
                "gain_2d_percent": float(np.mean(g2)),
                "gain_3d_percent": float(np.mean(g3)),
            })
    return rows


# --- CSV output ----------------------------------------------------------------


def write_csv(path, rows: list[dict]) -> Path:
    path = Path(path)
    if not rows:
        raise SweepError("no rows to write")
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = [k for k in rows[0] if not isinstance(rows[0][k], dict)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return path
