"""``noclink`` command line entry point.

Subcommands:

* ``simulate``     -- run a configured simulation, record M and link traces
* ``analyze``      -- link energy from a recorded run, optionally re-coded
* ``oracle``       -- bit-level exact energy of a recorded link protocol
* ``streams``      -- generate a synthetic stream and report its statistics
* ``sweep-mux``    -- switching-accuracy or energy sweep over mux probability
* ``sweep-coding`` -- coding gain sweep over mux probability
* ``case-study``   -- the seven-router reference study (latency, energy, coding)

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import sweeps
from .codecs import CodecError, make_codec
from .config import ConfigError, build_simulation, parse_config
from .energy import CapacitanceError, load_capacitance_model
from .linkmodel import LinkModelError
from .oracle import LinkTrace, TraceError, exact_energy, replay_link_protocol, write_link_protocol
from .reporting import (
    ReportingError, data_flow_from_states, data_flow_matrix, emit_reports, link_file_name,
)
from .simnet import TRACE_COLUMNS, ConfigurationError, SimulationResult, TraceColumns
from .streams import (
    StreamError,
    StreamSpec,
    compute_bit_stats,
    generate_stream,
    write_stream_binary,
    write_stream_csv,
)
from .sweeps import SweepError
from .traffic import TrafficError

VALIDATION_ERRORS = (
    ConfigError, ConfigurationError, TrafficError, SweepError, CodecError,
    StreamError, TraceError, CapacitanceError, LinkModelError, ReportingError,
    FileNotFoundError, ValueError,
)


# --- shared helpers -----------------------------------------------------------

# Run directory layout version; version 2 records each flow's consumed payload
# in traces.npz, so that ``analyze`` needs nothing outside the run directory.
RUN_FORMAT = 2


def _save_traces(result: SimulationResult, payloads: dict, out: Path) -> None:
    arrays: dict[str, np.ndarray] = {}
    for link_id, trace in result.link_traces.items():
        key = link_file_name(link_id)
        for name in TRACE_COLUMNS:
            arrays[f"{key}.{name}"] = getattr(trace, name)
    for flow_id, words in payloads.items():
        arrays[f"payload.{flow_id}"] = words
    np.savez_compressed(out / "traces.npz", **arrays)


def _load_run(run_dir: Path) -> tuple[SimulationResult, dict[int, np.ndarray]]:
    """The recorded result and each flow's consumed payload words."""
    meta = json.loads((run_dir / "meta.json").read_text())
    if meta.get("format") != RUN_FORMAT:
        raise ReportingError(f"{run_dir} was written by an earlier noclink without"
                             " the recorded payloads; re-run `noclink simulate`")
    result = SimulationResult(
        cycles=meta["cycles"],
        clock_period=meta["clock_period_s"],
        n_types=meta["n_types"],
        flit_width=meta["flit_width"],
    )
    n = result.n_types
    with np.load(run_dir / "traces.npz") as data:
        for link_id, vertical in meta["links"].items():
            key = link_file_name(link_id)
            trace = TraceColumns(*(data[f"{key}.{name}"] for name in TRACE_COLUMNS))
            counts = data_flow_from_states(trace.types, n, link_id)
            result.link_traces[link_id] = trace
            result.link_vertical[link_id] = bool(vertical)
            result.data_flow[link_id] = data_flow_matrix(counts, n, link_id)
            result.link_flit_counts[link_id] = counts[:, :n].sum(axis=0)
        payloads = {i: data[f"payload.{i}"] for i in range(meta["flows"])}
    return result, payloads


def _load_caps(args, width: int):
    cap2d = (
        load_capacitance_model(args.cap2d, "2d")
        if args.cap2d else sweeps.case_study_cap2d(width)
    )
    cap3d = (
        load_capacitance_model(args.cap3d, "3d")
        if args.cap3d else sweeps.case_study_cap3d(width)
    )
    return cap2d, cap3d


def _energy_reports(result, args, coded=None, width=None):
    cap2d, cap3d = _load_caps(args, width or result.flit_width)
    return sweeps.network_energy_reports(
        result, cap2d, cap3d, sweeps.TECH,
        coded=coded, eq11_literal=getattr(args, "eq11_literal", False),
    )


def _write_energy(reports: dict, path: Path) -> None:
    path.write_text(json.dumps({k: r.to_dict() for k, r in reports.items()}, indent=2))


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _parse_int_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


# --- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    net = build_simulation(cfg, seed=args.seed, collect_traces=True)
    result = net.run(args.cycles, check_invariants=args.check_invariants)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    energy = _energy_reports(result, args) if (args.cap2d or args.cap3d) else None
    emit_reports(result, out, energy)
    _save_traces(result, sweeps.consumed_prefixes(cfg.traffic, result), out)
    meta = {
        "format": RUN_FORMAT,
        "flows": len(cfg.traffic),
        "cycles": result.cycles,
        "clock_period_s": result.clock_period,
        "n_types": result.n_types,
        "flit_width": result.flit_width,
        "seed": args.seed,
        "links": {k: bool(v) for k, v in result.link_vertical.items()},
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    shutil.copy(args.config, out / "config.xml")
    if args.debug_protocol:
        proto = out / "protocols"
        proto.mkdir(exist_ok=True)
        for link_id, trace in result.link_traces.items():
            write_link_protocol(
                proto / f"{link_file_name(link_id)}.protocol",
                LinkTrace(trace.words, trace.types, result.flit_width),
            )
    print(f"simulated {result.cycles} cycles; reports in {out}")
    return 0


def cmd_analyze(args) -> int:
    run_dir = Path(args.run)
    result, payloads = _load_run(run_dir)
    coded = None
    width = result.flit_width
    if args.codec and args.codec != "none":
        width = make_codec(args.codec, width).width_out
        coded = sweeps.encode_flow_words(payloads, args.codec, result.flit_width)
    reports = _energy_reports(result, args, coded, width)
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    suffix = f"_{args.codec}" if args.codec and args.codec != "none" else ""
    path = out / f"energy{suffix}.json"
    _write_energy(reports, path)
    total = sum(r.energy_per_cycle_fj for r in reports.values())
    print(f"total link energy {total:.3f} fJ/cycle over {len(reports)} links -> {path}")
    return 0


def cmd_oracle(args) -> int:
    trace = replay_link_protocol(args.trace, args.width)
    kind = "3d" if args.cap3d else "2d"
    if args.cap2d and args.cap3d:
        raise SweepError("pass exactly one of --cap2d / --cap3d")
    if args.cap2d:
        cap = load_capacitance_model(args.cap2d, "2d")
    elif args.cap3d:
        cap = load_capacitance_model(args.cap3d, "3d")
    else:
        cap = (
            sweeps.case_study_cap3d(args.width) if args.vertical
            else sweeps.case_study_cap2d(args.width)
        )
        kind = "3d" if args.vertical else "2d"
    report = exact_energy(trace, cap, sweeps.TECH, link=str(args.trace))
    payload = {
        "trace": str(args.trace),
        "kind": kind,
        "cycles": int(trace.words.size),
        "energy_per_cycle_fj": report.energy_per_cycle_fj,
        "normalized_per_cycle_af": report.normalized_per_cycle_af,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def cmd_streams(args) -> int:
    spec = StreamSpec(
        args.dist, args.width, args.length,
        sigma=args.sigma, rho=args.rho, seed=args.seed,
    )
    stream = generate_stream(spec)
    if args.out:
        out = Path(args.out)
        if out.suffix == ".csv":
            write_stream_csv(out, stream)
        else:
            write_stream_binary(out, stream)
        print(f"wrote {stream.words.size} words to {out}")
    stats = compute_bit_stats(stream)
    print("bit probabilities:", np.array2string(stats.p, precision=4))
    return 0


def cmd_sweep_mux(args) -> int:
    if args.mode == "accuracy":
        rows = sweeps.mux_accuracy_sweep(
            stream_counts=_parse_int_list(args.streams),
            widths=_parse_int_list(args.widths),
            mux_probs=_parse_float_list(args.mux),
            runs=args.runs,
            flits=args.flits,
            seed=args.seed,
            jobs=args.jobs,
        )
    else:
        rows = sweeps.mux_energy_sweep(
            mux_probs=_parse_float_list(args.mux),
            runs=args.runs,
            seed=args.seed,
        )
    path = sweeps.write_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_sweep_coding(args) -> int:
    rows = sweeps.coding_sweep(
        codec_names=[c for c in args.codecs.split(",") if c],
        mux_probs=_parse_float_list(args.mux),
        distribution=args.dist,
        runs=args.runs,
        seed=args.seed,
    )
    path = sweeps.write_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_case_study(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cap2d, cap3d = sweeps.case_study_cap2d(), sweeps.case_study_cap3d()

    # performance: identical traffic with and without virtual channels
    perf_rows = []
    for vc in (4, 1):
        run = sweeps.run_case_study(
            vc, cycles=args.cycles, seed=args.seed, collect_traces=(vc == 4)
        )
        summary = run.result.summary()
        row = {"vc_count": vc}
        for key in ("flit_latency", "packet_latency"):
            if key in summary:
                row[f"{key}_ns"] = summary[key]["ns"]["mean"]
        perf_rows.append(row)
        if vc == 4:
            reports = sweeps.network_energy_reports(run.result, cap2d, cap3d, sweeps.TECH)
            energy_rows = []
            for link_id, rep in sorted(reports.items()):
                cap = cap3d if run.result.link_vertical[link_id] else cap2d
                orc = sweeps.link_oracle_energy(run.result, link_id, cap, sweeps.TECH)
                energy_rows.append({
                    "link": link_id,
                    "kind": rep.kind,
                    "model_fj_per_cycle": rep.energy_per_cycle_fj,
                    "standard_fj_per_cycle": rep.std_energy_per_cycle_fj,
                    "oracle_fj_per_cycle": orc.energy_per_cycle_fj,
                })
            sweeps.write_csv(out / "energy.csv", energy_rows)
            emit_reports(run.result, out / "vc4", reports)
    sweeps.write_csv(out / "latency.csv", perf_rows)

    # coding comparison on image-like payloads, with and without VCs
    coding_rows = []
    for vc in (4, 1):
        run = sweeps.run_case_study(
            vc, cycles=args.cycles, seed=args.seed,
            payload_kind="pixel-msb", rho=0.9999, rate=0.0075, stream_seed=110,
        )
        gains = sweeps.evaluate_coding(
            run, ["gray", "correlator+inv"], cap2d, cap3d, sweeps.TECH
        )
        for name, entry in gains.items():
            coding_rows.append({
                "vc_count": vc,
                "codec": name,
                "energy_fj_per_cycle": entry["energy_per_cycle_fj"],
                "gain_percent": entry["gain_percent"],
            })
    sweeps.write_csv(out / "coding.csv", coding_rows)
    print(f"case-study artifacts in {out}")
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noclink",
        description="NoC simulation and pattern-dependent link energy analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", required=out_required, help="output path")

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--cap2d", help="2d capacitance model file (optional)")
    p.add_argument("--cap3d", help="3d capacitance model file (optional)")
    p.add_argument("--debug-protocol", action="store_true")
    p.add_argument("--check-invariants", action="store_true")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="energy from a recorded simulation")
    p.add_argument("--run", required=True, help="simulate output directory")
    p.add_argument("--cap2d")
    p.add_argument("--cap3d")
    p.add_argument("--codec", default="none")
    p.add_argument("--eq11-literal", action="store_true", dest="eq11_literal")
    common(p, out_required=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("oracle", help="bit-level energy of a link protocol")
    p.add_argument("--trace", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--cap2d")
    p.add_argument("--cap3d")
    p.add_argument("--vertical", action="store_true",
                   help="use the 3d template when no model file is given")
    common(p, out_required=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("streams", help="generate a synthetic stream")
    p.add_argument("--dist", default="gaussian",
                   choices=("uniform", "gaussian", "lognormal"))
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--length", type=int, default=10_000)
    p.add_argument("--sigma", type=float)
    p.add_argument("--rho", type=float)
    common(p, out_required=False)
    p.set_defaults(func=cmd_streams)

    p = sub.add_parser("sweep-mux", help="accuracy or energy vs mux probability")
    p.add_argument("--mode", choices=("accuracy", "energy"), default="accuracy")
    p.add_argument("--streams", default="2..5")
    p.add_argument("--widths", default="16,32")
    p.add_argument("--mux", default="0.1,0.4,0.7,1.0")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--flits", type=int, default=10_000)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_sweep_mux)

    p = sub.add_parser("sweep-coding", help="coding gain vs mux probability")
    p.add_argument("--codecs", default="invert,gray,correlator,correlator+inv")
    p.add_argument("--mux", default="0.0,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--dist", default="gaussian")
    p.add_argument("--runs", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_sweep_coding)

    p = sub.add_parser("case-study", help="seven-router reference study")
    p.add_argument("--cycles", type=int, default=100_000)
    common(p)
    p.set_defaults(func=cmd_case_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
