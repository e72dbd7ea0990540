"""Experiment orchestration: accuracy/energy sweeps and the case study.

Three families of experiments are provided:

* ``mux_accuracy_sweep`` -- switching-estimation error of the link model
  against the bit-level oracle over multiplexed synthetic streams.
* ``mux_energy_sweep`` / ``coding_sweep`` -- stream-level link energy and
  coding gain as a function of the multiplexing probability.
* the seven-router case study -- a full simulation whose recorded link
  traces feed the model, the VC-blind baseline, the oracle and the
  post-simulation coding evaluation.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codecs import coding_gain, make_codec
from .energy import (
    Capacitance2D,
    Capacitance3D,
    TechnologyParams,
    template_2d_bus,
    template_3d_tsv,
)
from .linkmodel import (
    LinkEnergyReport,
    LinkTypeStats,
    link_energy_report,
    link_switching,
)
from .oracle import LinkTrace, OracleEnergyReport, exact_energy, exact_switching
from .reporting import data_flow_from_trace
from .simnet import RouterConfig, SimulationResult, build_network
from .streams import (
    DISTRIBUTIONS,
    DataStream,
    StreamSpec,
    compute_bit_stats,
    compute_sequential_switching,
    generate_stream,
    multiplex_streams,
)
from .traffic import InjectionSpec, msb_pixel_source, packed_pixel_source, to_flow_specs


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


def per_type_stats(words: np.ndarray, types: np.ndarray, n: int, width: int) -> LinkTypeStats:
    """Bit and sequential switching statistics of each type's subsequence.

    ``words[types == k]`` is type k's subsequence in transmission order,
    the sequence the per-type switching matrices describe; idle entries
    (type -1) belong to no type.  A type with fewer than two words gets
    the statistics of an all-zero pair.
    """
    bit_stats, seq = [], []
    for k in range(n):
        sel = words[types == k]
        if sel.size < 2:
            sel = np.zeros(2, dtype=np.uint64)
        ds = DataStream(sel, width)
        bit_stats.append(compute_bit_stats(ds))
        seq.append(compute_sequential_switching(ds))
    return LinkTypeStats(bit_stats, seq)


def link_stats_from_result(
    result: SimulationResult,
    link_id: str,
    *,
    coded: dict[int, DataStream] | None = None,
) -> LinkTypeStats:
    """Per-type bit and switching statistics of one link's recorded trace.

    ``coded`` optionally maps flow ids to encoded payload streams; body
    words are then replaced by their encoded counterparts at the same
    source position (head words are payload-independent and kept as
    transmitted), giving the post-simulation coding statistics without
    re-simulating.  Source positions past the end of an encoded stream
    wrap around, as the payload sources recycle their words.
    """
    trace = result.link_traces.get(link_id)
    if trace is None:
        raise SweepError(f"no recorded trace for link {link_id!r}")
    words, width = trace.words, result.flit_width
    if coded is not None:
        body = trace.indices >= 0
        words = words.copy()
        for flow_id in np.unique(trace.flows[body]).tolist():
            enc = coded[flow_id]
            sel = body & (trace.flows == flow_id)
            words[sel] = enc.words[trace.indices[sel] % len(enc)]
        width = max((enc.width for enc in coded.values()), default=width)
    return per_type_stats(words, trace.types, result.n_types, width)


def link_oracle_energy(
    result: SimulationResult,
    link_id: str,
    cap,
    tech: TechnologyParams = TECH,
) -> OracleEnergyReport:
    trace = result.link_traces[link_id]
    return exact_energy(
        LinkTrace(trace.words, trace.types, result.flit_width), cap, tech, link=link_id)


def network_energy_reports(
    result: SimulationResult,
    cap2d: Capacitance2D,
    cap3d: Capacitance3D,
    tech: TechnologyParams = TECH,
    *,
    coded: dict[int, DataStream] | None = None,
    eq11_literal: bool = False,
) -> dict[str, LinkEnergyReport]:
    """Model energy report for every link that carried at least one flit."""
    reports: dict[str, LinkEnergyReport] = {}
    for link_id, dfm in result.data_flow.items():
        if result.link_flit_counts[link_id].sum() == 0:
            continue
        stats = link_stats_from_result(result, link_id, coded=coded)
        cap = cap3d if result.link_vertical[link_id] else cap2d
        if stats.width != cap.width:
            raise SweepError(
                f"{link_id}: codec width {stats.width} does not match"
                f" capacitance width {cap.width}"
            )
        reports[link_id] = link_energy_report(
            stats, dfm, cap, tech,
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

_PAYLOAD_BUILDERS = {
    "pixel-packed": packed_pixel_source,
    "pixel-msb": msb_pixel_source,
}


def case_study_traffic(
    *,
    payload_kind: str = "pixel-packed",
    rate: float = CASE_STUDY_RATE,
    sigma: float = 40.0,
    rho: float = 0.995,
    stream_seed: int = 100,
    length: int = 1 << 20,
) -> list[InjectionSpec]:
    """Six sensor flows towards the memory node, one data type each."""
    try:
        build = _PAYLOAD_BUILDERS[payload_kind]
    except KeyError as exc:
        raise SweepError(f"unknown case-study payload kind {payload_kind!r}") from exc
    specs = []
    for i, src in enumerate(CASE_STUDY_SOURCES):
        payload = build(
            CASE_STUDY_FLIT_WIDTH, length, sigma, rho, stream_seed + i,
            name=f"{payload_kind}:{src}",
        )
        specs.append(
            InjectionSpec(
                src, CASE_STUDY_DEST, i, rate, CASE_STUDY_FLITS_PER_PACKET, payload
            )
        )
    return specs


@dataclass
class CaseStudyRun:
    result: SimulationResult
    traffic: list[InjectionSpec]


def run_case_study(
    vc_count: int,
    *,
    cycles: int = 100_000,
    seed: int = 1,
    payload_kind: str = "pixel-packed",
    rate: float = CASE_STUDY_RATE,
    sigma: float = 40.0,
    rho: float = 0.995,
    stream_seed: int = 100,
    buffer_depth: int = 4,
    arbitration: str = "fair",
    collect_traces: bool = True,
    check_invariants: bool = False,
) -> CaseStudyRun:
    traffic = case_study_traffic(
        payload_kind=payload_kind, rate=rate, sigma=sigma, rho=rho,
        stream_seed=stream_seed,
    )
    net = build_network(
        CASE_STUDY_NODES,
        to_flow_specs(traffic),
        flit_width=CASE_STUDY_FLIT_WIDTH,
        router_cfg=RouterConfig(
            vc_count=vc_count, buffer_depth=buffer_depth,
            arbitration=arbitration, clock_delay=1,
        ),
        pe_clock_delay=2,
        clock_period=TECH.clock_period,
        collect_traces=collect_traces,
        seed=seed,
    )
    result = net.run(cycles, check_invariants=check_invariants)
    return CaseStudyRun(result, traffic)


def consumed_prefixes(
    traffic: list[InjectionSpec], result: SimulationResult
) -> dict[int, np.ndarray]:
    """Each flow's payload words up to the highest index any link carried.

    This is all of a flow's payload that the recorded traces refer to
    (at least one word per flow; a whole source that recycled).  Flow
    ids are positions in ``traffic``, as ``to_flow_specs`` numbers them.
    """
    highest = np.full(len(traffic), -1, dtype=np.int64)
    for trace in result.link_traces.values():
        body = trace.indices >= 0
        np.maximum.at(highest, trace.flows[body], trace.indices[body])
    return {
        i: spec.payload.words[: max(min(len(spec.payload), int(highest[i]) + 1), 1)]
        for i, spec in enumerate(traffic)
    }


def encode_flow_words(
    flow_words: dict[int, np.ndarray], codec_name: str, width: int
) -> dict[int, DataStream]:
    """Encode each flow's payload words with a codec (stateful per flow)."""
    return {
        flow_id: make_codec(codec_name, width).encode(DataStream(words, width))
        for flow_id, words in flow_words.items()
    }


def evaluate_coding(
    run: CaseStudyRun,
    codec_names: list[str],
    cap2d: Capacitance2D,
    cap3d: Capacitance3D,
    tech: TechnologyParams = TECH,
) -> dict[str, dict]:
    """Post-simulation coding comparison over one recorded simulation.

    Returns, per codec, the total network energy per cycle and the gain
    relative to uncoded transmission; routing and arbitration are
    payload-independent, so re-encoding the payload streams and
    replaying them through the recorded per-link word positions is
    exact.
    """
    result = run.result
    flow_words = consumed_prefixes(run.traffic, result)
    width = result.flit_width
    base_reports = network_energy_reports(result, cap2d, cap3d, tech)
    base_total = sum(r.energy_per_cycle_fj for r in base_reports.values())
    out = {"none": {"energy_per_cycle_fj": base_total, "gain_percent": 0.0}}
    for name in codec_names:
        if name == "none":
            continue
        coded = encode_flow_words(flow_words, name, width)
        reports = network_energy_reports(result, cap2d, cap3d, tech, coded=coded)
        total = sum(r.energy_per_cycle_fj for r in reports.values())
        out[name] = {
            "energy_per_cycle_fj": total,
            "gain_percent": coding_gain(base_total, total),
            "links": {k: r.energy_per_cycle_fj for k, r in reports.items()},
        }
    out["none"]["links"] = {k: r.energy_per_cycle_fj for k, r in base_reports.items()}
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
    mixed = DataStream(mixed.words[:flits], width)
    types = src[:flits].astype(np.int64)

    trace = LinkTrace(mixed.words, types, width)
    t_oracle, _ = exact_switching(trace)

    stats = per_type_stats(mixed.words, types, n_streams, width)
    m = data_flow_from_trace(types, n_streams)
    t_model = link_switching(stats, m)
    return np.abs(t_model.t - t_oracle.t).ravel()


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


# --- stream-level energy and coding sweeps -------------------------------------


def _two_streams(width: int, sigma: float, rho: float, length: int, seed: int):
    return [
        generate_stream(StreamSpec("gaussian", width, length, sigma=sigma, rho=rho, seed=seed)),
        generate_stream(
            StreamSpec("gaussian", width, length, sigma=sigma, rho=rho, seed=seed + 1)
        ),
    ]


def mux_energy_sweep(
    mux_probs=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    *,
    width: int = 16,
    sigma: float = 256.0,
    rho: float = 0.99,
    length: int = 40_000,
    runs: int = 5,
    seed: int = 1,
    cap2d: Capacitance2D | None = None,
    cap3d: Capacitance3D | None = None,
    tech: TechnologyParams = TECH,
) -> list[dict]:
    """Energy per byte of two multiplexed correlated streams vs mux probability.

    Emits the model estimate and the bit-level oracle value for the 2D
    and the 3D parasitics.
    """
    cap2d = cap2d or sweep_cap2d(width)
    cap3d = cap3d or case_study_cap3d(width)
    rows = []
    for mp in mux_probs:
        acc = {k: [] for k in ("model_2d", "model_3d", "oracle_2d", "oracle_3d")}
        for r in range(runs):
            streams = _two_streams(width, sigma, rho, length, seed + 100 * r)
            mixed, src = multiplex_streams(streams, mp, seed=seed + 100 * r + 7)
            types = src.astype(np.int64)
            trace = LinkTrace(mixed.words, types, width)
            stats = per_type_stats(mixed.words, types, 2, width)
            m = data_flow_from_trace(types, 2)
            bytes_per_cycle = width / 8.0
            for kind, cap in (("2d", cap2d), ("3d", cap3d)):
                rep = link_energy_report(stats, m, cap, tech, link=f"mux{mp}")
                orc = exact_energy(trace, cap, tech)
                acc[f"model_{kind}"].append(rep.energy_per_cycle_fj / bytes_per_cycle)
                acc[f"oracle_{kind}"].append(orc.energy_per_cycle_fj / bytes_per_cycle)
        row = {"mux_prob": mp, "runs": runs}
        row.update({k: float(np.mean(v)) for k, v in acc.items()})
        rows.append(row)
    return rows


def coding_sweep(
    codec_names=("invert", "gray", "correlator", "correlator+inv"),
    mux_probs=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    *,
    distribution: str = "gaussian",
    width: int = 16,
    sigma: float = 256.0,
    rho: float = 0.99,
    length: int = 40_000,
    runs: int = 5,
    seed: int = 1,
    tech: TechnologyParams = TECH,
) -> list[dict]:
    """Coding gain of each codec vs mux probability (bit-level oracle).

    Codecs that add wires (bus invert) are evaluated against uncoded
    transmission on the same widened link.
    """
    rows = []
    for name in codec_names:
        codec = make_codec(name, width)
        wout = codec.width_out
        cap2d, cap3d = sweep_cap2d(wout), case_study_cap3d(wout)
        for mp in mux_probs:
            g2, g3 = [], []
            for r in range(runs):
                rs = seed + 100 * r
                if distribution == "uniform":
                    streams = [
                        generate_stream(StreamSpec("uniform", width, length, seed=rs + k))
                        for k in range(2)
                    ]
                else:
                    streams = _two_streams(width, sigma, rho, length, rs)
                coded = [make_codec(name, width).encode(s) for s in streams]
                raw = [DataStream(s.words, wout) for s in streams]
                mixed_raw, src = multiplex_streams(raw, mp, seed=rs + 7)
                mixed_cod, _ = multiplex_streams(coded, mp, seed=rs + 7)
                types = src.astype(np.int64)
                for cap, acc in ((cap2d, g2), (cap3d, g3)):
                    eu = exact_energy(LinkTrace(mixed_raw.words, types, wout), cap, tech)
                    ec = exact_energy(LinkTrace(mixed_cod.words, types, wout), cap, tech)
                    acc.append(coding_gain(eu.energy_per_cycle_fj, ec.energy_per_cycle_fj))
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
