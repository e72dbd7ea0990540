"""``noclink`` command line entry point.

Subcommands:

* ``simulate``     -- run a configured simulation, record M and link traces
* ``analyze``      -- link energy from a recorded run, optionally re-coded
* ``oracle``       -- bit-level exact energy of a recorded link protocol
* ``streams``      -- generate a synthetic stream and report its statistics
* ``sweep-mux``    -- switching-accuracy or energy sweep over mux probability
* ``sweep-coding`` -- coding gain sweep over mux probability
* ``case-study``   -- the seven-router reference study (latency, energy, coding)

The sweep commands pass on only the flags given, each as the keyword of the
sweep function it names, so an omitted flag keeps that function's default.

Exit codes: 0 success, 1 validation or usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import sweeps
from .config import build_simulation, parse_config
from .energy import load_capacitance_model
from .oracle import (TRACE_COLUMNS, LinkTrace, exact_energy, replay_link_protocol,
                     write_link_protocol)
from .reporting import (LinkObserver, ReportingError, emit_reports, link_file_name,
                        write_energy_json)
from .simnet import SimulationResult
from .streams import (
    DISTRIBUTIONS,
    StreamSpec,
    compute_bit_stats,
    generate_stream,
    write_stream_binary,
    write_stream_csv,
)
from .sweeps import SweepError

# every noclink error for bad input is a ValueError
VALIDATION_ERRORS = (
    ValueError, FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
    PermissionError,
)


# --- shared helpers -----------------------------------------------------------

# Run directory layout version; version 4 stores in traces.npz each of the
# TRACE_COLUMNS once, every link's flits one after another in meta.json's
# link order, and ``flits``, each link's flit count.
RUN_FORMAT = 4


def _save_traces(result: SimulationResult, out: Path) -> None:
    """Write traces.npz as ``np.savez_compressed`` does, but at zlib level 1: 3x faster."""
    traces = [result.link_traces[link] for link in result.link_vertical]
    flits = np.array([t.cycles.size for t in traces], dtype=np.int64)
    columns = {name: np.concatenate([getattr(t, name) for t in traces]) for name in TRACE_COLUMNS}
    with zipfile.ZipFile(out / "traces.npz", "w", zipfile.ZIP_DEFLATED, compresslevel=1) as npz:
        for name, column in {"flits": flits, **columns}.items():
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, column, allow_pickle=False)


def _require(entries, keys, source: Path) -> None:
    """Reject a run directory whose ``source`` lacks one of ``keys``."""
    missing = [k for k in keys if k not in entries]
    if missing:
        raise ReportingError(f"incomplete run directory: {source} has no"
                             f" {', '.join(missing)}; re-run `noclink simulate`")


def _check_meta(meta: dict, source: Path) -> None:
    """Reject a ``meta.json`` field of the wrong type or out of range."""
    for key, lo, hi in (("cycles", 1, math.inf), ("n_types", 1, math.inf),
                        ("flit_width", 1, 64), ("flows", 0, math.inf)):
        if type(meta[key]) is not int or not lo <= meta[key] <= hi:
            raise ReportingError(f"{source}: {key} {meta[key]!r} is not an integer"
                                 f" in [{lo}, {hi}]")
    period = meta["clock_period_s"]
    if type(period) not in (int, float) or not 0 < period < math.inf:
        raise ReportingError(f"{source}: clock_period_s {period!r} is not a positive number")
    links = meta["links"]
    if not isinstance(links, dict) or any(type(v) is not bool for v in links.values()):
        raise ReportingError(f"{source}: links is not an object of link ids to true/false")


def _load_run(run_dir: Path) -> SimulationResult:
    """The recorded result: M, flit counts and traces of every link."""
    source = run_dir / "meta.json"
    meta = json.loads(source.read_text())
    if not isinstance(meta, dict):
        raise ReportingError(f"{source} is not a JSON object")
    if meta.get("format") != RUN_FORMAT:
        raise ReportingError(f"{run_dir} was written by an earlier noclink, not in"
                             f" run-directory format {RUN_FORMAT} (one array per trace"
                             f" column in traces.npz); re-run `noclink simulate`")
    _require(meta, ("flows", "cycles", "clock_period_s", "n_types", "flit_width", "links"), source)
    _check_meta(meta, source)
    result = SimulationResult(
        cycles=meta["cycles"],
        clock_period=meta["clock_period_s"],
        n_types=meta["n_types"],
        flit_width=meta["flit_width"],
    )
    links, archive = meta["links"], run_dir / "traces.npz"
    try:
        with np.load(archive) as data:
            _require(data, ("flits", *TRACE_COLUMNS), archive)
            flits, columns = data["flits"], [data[name] for name in TRACE_COLUMNS]
    except (zipfile.BadZipFile, zlib.error) as exc:
        raise ReportingError(f"{archive} is damaged ({exc}); re-run `noclink simulate`") from exc
    if flits.dtype.kind not in "iu" or flits.shape != (len(links),) or (flits < 0).any():
        raise ReportingError(f"{archive}: flits is not one non-negative integer per link"
                             f" of meta.json's {len(links)}; re-run `noclink simulate`")
    total = int(flits.sum())
    short = [name for name, c in zip(TRACE_COLUMNS, columns) if c.shape != (total,)]
    if short:
        raise ReportingError(f"{archive}: {', '.join(short)} not {total} entries long, the sum"
                             f" of flits; re-run `noclink simulate`")
    bounds = np.cumsum(flits)[:-1]
    for (link_id, vertical), *parts in zip(links.items(),
                                           *(np.split(c, bounds) for c in columns)):
        trace = LinkTrace(*parts, length=result.cycles, width=result.flit_width)
        result.add_link(link_id, LinkObserver.from_trace(trace, result.n_types, link_id),
                        vertical, trace)
    return result


def _cap_model(path, kind: str, width: int):
    """The ``kind`` model in ``path``, else the case-study template at ``width``."""
    if path:
        return load_capacitance_model(path, kind)
    return sweeps.case_study_cap2d(width) if kind == "2d" else sweeps.case_study_cap3d(width)


def _check_cycles(cycles: int) -> None:
    if cycles < 2:
        raise SweepError(f"a run needs at least two cycles, got --cycles {cycles}")


def str_list(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok]


def float_list(text: str) -> list[float]:
    return [float(tok) for tok in str_list(text)]


def int_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in str_list(text)]


# --- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    _check_cycles(args.cycles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = parse_config(args.config)
    net = build_simulation(cfg, seed=args.seed, collect_traces=True)
    result = net.run(args.cycles, check_invariants=args.check_invariants)
    emit_reports(result, out)
    _save_traces(result, out)
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
            write_link_protocol(proto / f"{link_file_name(link_id)}.protocol", trace)
    print(f"simulated {result.cycles} cycles; reports in {out}")
    return 0


def cmd_analyze(args) -> int:
    run_dir = Path(args.run)
    result = _load_run(run_dir)
    traces, suffix, width = None, "", result.flit_width
    if args.codec and args.codec != "none":
        traces, suffix = sweeps.coded_traces(result, args.codec), f"_{args.codec}"
        width = next(iter(traces.values())).width
    reports = sweeps.network_energy_reports(
        result, _cap_model(args.cap2d, "2d", width), _cap_model(args.cap3d, "3d", width),
        traces=traces, eq11_literal=args.eq11_literal)
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    path = write_energy_json(out / f"energy{suffix}.json", reports)
    total = sum(r.energy_per_cycle_fj for r in reports.values())
    print(f"total link energy {total:.3f} fJ/cycle over {len(reports)} links -> {path}")
    return 0


def cmd_oracle(args) -> int:
    if args.cap2d and args.cap3d:
        raise SweepError("pass exactly one of --cap2d / --cap3d")
    trace = replay_link_protocol(args.trace, args.width)
    kind = "3d" if args.cap3d or (args.vertical and not args.cap2d) else "2d"
    cap = _cap_model(args.cap3d if kind == "3d" else args.cap2d, kind, args.width)
    report = exact_energy(trace, cap, sweeps.TECH, link=str(args.trace))
    payload = {
        "trace": str(args.trace),
        "kind": report.kind,
        "cycles": len(trace),
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


# the sweep function of each sweep command's mode
SWEEPS = {"accuracy": "mux_accuracy_sweep", "energy": "mux_energy_sweep",
          "coding": "coding_sweep"}
# sweep-mux flags that only the accuracy mode reads, by the keyword they set
ACCURACY_FLAGS = {"--streams": "stream_counts", "--widths": "widths",
                  "--flits": "flits", "--jobs": "jobs"}


def cmd_sweep(args) -> int:
    """Run the mode's sweep with the given flags, and only those, as keywords."""
    kwargs = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "func", "mode", "out")}
    given = [flag for flag, key in ACCURACY_FLAGS.items() if key in kwargs]
    if args.mode == "energy" and given:
        raise SweepError(f"sweep-mux --mode energy does not take {', '.join(given)}")
    rows = getattr(sweeps, SWEEPS[args.mode])(**kwargs)
    path = sweeps.write_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_case_study(args) -> int:
    _check_cycles(args.cycles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cap2d, cap3d = sweeps.case_study_cap2d(), sweeps.case_study_cap3d()

    # performance: identical traffic with and without virtual channels
    perf_rows = []
    for vc in (4, 1):
        result = sweeps.run_case_study(
            vc, cycles=args.cycles, seed=args.seed, collect_traces=(vc == 4)
        )
        summary = result.summary()
        row = {"vc_count": vc}
        for key in ("flit_latency", "packet_latency"):
            if key in summary:
                row[f"{key}_ns"] = summary[key]["ns"]["mean"]
        perf_rows.append(row)
        if vc == 4:
            reports = sweeps.network_energy_reports(result, cap2d, cap3d)
            energy_rows = []
            for link_id, rep in sorted(reports.items()):
                cap = cap3d if result.link_vertical[link_id] else cap2d
                orc = exact_energy(result.link_traces[link_id], cap, sweeps.TECH,
                                   link=link_id)
                energy_rows.append({
                    "link": link_id,
                    "kind": rep.kind,
                    "model_fj_per_cycle": rep.energy_per_cycle_fj,
                    "standard_fj_per_cycle": rep.std_energy_per_cycle_fj,
                    "oracle_fj_per_cycle": orc.energy_per_cycle_fj,
                })
            sweeps.write_csv(out / "energy.csv", energy_rows)
            emit_reports(result, out / "vc4")
            write_energy_json(out / "vc4" / "energy.json", reports)
    sweeps.write_csv(out / "latency.csv", perf_rows)

    # coding comparison on image-like payloads, with and without VCs
    coding_rows = []
    for vc in (4, 1):
        result = sweeps.run_case_study(
            vc, cycles=args.cycles, seed=args.seed, **sweeps.CASE_STUDY_CODING_TRAFFIC)
        gains = sweeps.evaluate_coding(result, ["gray", "correlator+inv"], cap2d, cap3d)
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


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: it exits 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``noclink`` parser, built once per process at its first call.  Each
    subcommand's ``func`` names its ``cmd_*`` function, which ``main`` looks
    up when it runs."""
    parser = _Parser(
        prog="noclink",
        description="NoC simulation and pattern-dependent link energy analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True, seed=1):
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--out", required=out_required, help="output path")

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--debug-protocol", action="store_true")
    p.add_argument("--check-invariants", action="store_true")
    common(p)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("analyze", help="energy from a recorded simulation")
    p.add_argument("--run", required=True, help="simulate output directory")
    p.add_argument("--cap2d")
    p.add_argument("--cap3d")
    p.add_argument("--codec", default="none")
    p.add_argument("--eq11-literal", action="store_true", dest="eq11_literal")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func="cmd_analyze")

    p = sub.add_parser("oracle", help="bit-level energy of a link protocol")
    p.add_argument("--trace", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--cap2d")
    p.add_argument("--cap3d")
    p.add_argument("--vertical", action="store_true",
                   help="use the 3d template when no model file is given")
    p.add_argument("--out", help="output path")
    p.set_defaults(func="cmd_oracle")

    p = sub.add_parser("streams", help="generate a synthetic stream")
    p.add_argument("--dist", default="gaussian", choices=DISTRIBUTIONS)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--length", type=int, default=10_000)
    p.add_argument("--sigma", type=float)
    p.add_argument("--rho", type=float)
    common(p, out_required=False)
    p.set_defaults(func="cmd_streams")

    # a sweep flag left out is None, and cmd_sweep leaves it to the sweep
    p = sub.add_parser("sweep-mux", help="accuracy or energy vs mux probability")
    p.add_argument("--mode", choices=("accuracy", "energy"), default="accuracy")
    p.add_argument("--streams", type=int_list, dest="stream_counts",
                   help="accuracy mode only")
    p.add_argument("--widths", type=int_list, help="accuracy mode only")
    p.add_argument("--mux", type=float_list, dest="mux_probs")
    p.add_argument("--runs", type=int)
    p.add_argument("--flits", type=int, help="accuracy mode only")
    p.add_argument("--jobs", type=int, help="accuracy mode only")
    common(p, seed=None)
    p.set_defaults(func="cmd_sweep")

    p = sub.add_parser("sweep-coding", help="coding gain vs mux probability")
    p.add_argument("--codecs", type=str_list, dest="codec_names")
    p.add_argument("--mux", type=float_list, dest="mux_probs")
    # the sweep checks --dist, so main returns 1 for a bad one, as for bad input
    p.add_argument("--dist", dest="distribution", metavar="{%s}" % ",".join(DISTRIBUTIONS))
    p.add_argument("--runs", type=int)
    common(p, seed=None)
    p.set_defaults(func="cmd_sweep", mode="coding")

    p = sub.add_parser("case-study", help="seven-router reference study")
    p.add_argument("--cycles", type=int, default=100_000)
    common(p)
    p.set_defaults(func="cmd_case_study")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
