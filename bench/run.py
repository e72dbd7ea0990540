"""noclink benchmark.

Run from the root of a noclink checkout:

    python3 bench/run.py --workload case-study-record --seed 1 --seconds 20 --trace 0

The benchmark imports noclink from ``src/`` of the checkout, writes the
workload's inputs from the seed, runs one pass at a fixed pin seed (which
warms up and checks the outputs against ``bench/pins.json``), then repeats
passes over the seeded inputs for ``--seconds`` seconds and reports
medians.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The metric names, units and bounds
come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object; each run also writes a result file with its provenance
under ``.bench_out/results``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import textwrap
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PIN_SEED = 1
SETUP_SAMPLES = 3
ENTRY_MODULE = "noclink.cli"  # imports every noclink module

clock = time.perf_counter


def _import_noclink() -> None:
    """Import noclink from the checkout, and from nowhere else."""
    if not (SRC / "noclink" / "__init__.py").is_file():
        raise SystemExit(f"error: no noclink sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    importlib.import_module(ENTRY_MODULE)
    import noclink

    if Path(noclink.__file__).resolve().parent != (SRC / "noclink").resolve():
        raise SystemExit(f"error: imported noclink from {noclink.__file__}, not {SRC}")


def _fresh_import_s() -> tuple[float, float]:
    """Raw and scaled time of importing noclink in a fresh interpreter.

    The child brackets its import with calibration loops of its own, since
    it may run on another CPU than this process.
    """
    from workloads import CALIBRATION_LOOPS, LOOP_S, calibration_loop

    code = f"CALIBRATION_LOOPS = {CALIBRATION_LOOPS}\n" + inspect.getsource(calibration_loop)
    code += textwrap.dedent(f"""
        import sys, time
        def calibrate():
            t0 = time.perf_counter()
            calibration_loop()
            return time.perf_counter() - t0
        loops = [calibrate() for _ in range(5)]
        sys.path.insert(0, {str(SRC)!r})
        t0 = time.perf_counter()
        import {ENTRY_MODULE}
        raw = time.perf_counter() - t0
        loops += [calibrate() for _ in range(5)]
        print(raw, sum(loops) / len(loops))
        """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, cwd=ROOT)
    raw, loop_s = map(float, out.stdout.split())
    return raw, raw * LOOP_S / loop_s


# --- provenance ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "noclink").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": workload.size(),
    }


# --- measuring --------------------------------------------------------------------------


class Tally:
    """Operations attempted and failures, over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, p, label: str) -> None:
        self.attempted += p.ops
        self.failures += [f"{label}: {f}" for f in p.failures]

    def same_outputs(self, passes, label: str) -> None:
        if len({p.digest for p in passes}) > 1:
            self.failures.append(f"{label}: outputs differ between passes over the same inputs")


def pin_pass(name: str, work: Path, tally: Tally) -> None:
    """One pass at the pin seed: warms up and checks the outputs against the pins."""
    from workloads import WORKLOADS

    pins = json.loads((HERE / "pins.json").read_text())
    p = one_pass(WORKLOADS[name](PIN_SEED, work))[1]
    tally.add(p, f"pin seed {PIN_SEED}")
    if pins.get(name) != p.digest:
        tally.failures.append(f"pin seed {PIN_SEED}: output digest {p.digest} != pinned {pins.get(name)}")


def one_pass(workload, speed=None):
    """Prepare the inputs and run one pass; return the preparation clock and the pass."""
    from workloads import RefClock

    prep = RefClock(speed)
    p = workload.run(prep.measure("prepare", workload.prepare), RefClock(speed))
    gc.collect()  # the networks are cyclic; free each pass's before the next
    return prep, p


def end_to_end(args, workload, tally: Tally, spec: dict) -> tuple[dict, dict]:
    from workloads import WORKLOAD_METRICS, HostSpeed

    imports = [_fresh_import_s() for _ in range(SETUP_SAMPLES)]
    passes, setups = [], []
    with HostSpeed() as speed:
        start = clock()
        while not passes or clock() - start < args.seconds:
            prep, p = one_pass(workload, speed)
            tally.add(p, f"pass {len(passes)}")
            passes.append(p)
            setups.append(prep.scaled["prepare"])
    tally.same_outputs(passes, "timed passes")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(
            scaled + setups[k % len(setups)] for k, (_, scaled) in enumerate(imports)),
        "pass_s": statistics.median(p.scaled_s for p in passes),
        "peak_rss_mib": peak_kib / 1024.0,
        **workload.metrics(passes),
        "failed_ops_share": len(tally.failures) / tally.attempted,
    }
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = {"value": values.pop(m["name"]), "unit": m["unit"],
                              "better": m["better"], "bound": m["bound"]}
    for name, value in values.items():
        unit, better, bound = WORKLOAD_METRICS[name]
        metrics[name] = {"value": value, "unit": unit, "better": better, "bound": bound}
    detail = {
        "passes": len(passes),
        "values": passes[0].values,
        "import_s": {"raw": [raw for raw, _ in imports],
                     "scaled": [scaled for _, scaled in imports]},
        "prepare_s": setups,
        "pass_s": {"raw": [p.raw_s for p in passes], "scaled": [p.scaled_s for p in passes]},
        "calibration_loop_s": {"samples": len(speed.samples),
                               "median": statistics.median(speed.samples),
                               "min": min(speed.samples)},
    }
    return metrics, detail


def traced(args, workload, tally: Tally, spec: dict):
    """Alternating untraced and traced passes, then one allocation pass."""
    import tracing

    untraced_s, traced_s, uncovered_s, tracers, passes = [], [], [], [], []
    start = clock()
    while not traced_s or clock() - start < args.seconds:
        for tracer in (None, tracing.Tracer()):
            with tracing.installed(tracer) if tracer else contextlib.nullcontext():
                prep, p = one_pass(workload)
            wall = prep.raw["prepare"] + p.raw_s
            passes.append(p)
            if tracer is None:
                untraced_s.append(wall)
            else:
                traced_s.append(wall)
                uncovered_s.append(wall - tracer.top_level_s())
                tracers.append(tracer)
    for p in passes:
        tally.add(p, "traced run")
    tally.same_outputs(passes, "traced and untraced passes")
    layers = [tracing.layer_metrics(t) for t in tracers]
    # counts must repeat exactly; times ("s") and their ratios ("x") are medians
    count_names = {m["name"] for m in spec["per_layer"] if m["unit"] not in ("s", "x")}
    counts = [{k: v for k, v in m.items() if k in count_names} for m in layers]
    if any(c != counts[0] for c in counts):
        tally.failures.append("traced run: per-layer counts differ between passes")

    peaks: list = []
    if workload.simulates:
        with tracing.run_allocations(peaks):
            p = one_pass(workload)[1]
        tally.add(p, "allocation pass")
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values.update(counts[0])
    values["simnet.run_alloc_peak_mib"] = max(peaks, default=0) / 2**20
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    values["trace.uncovered_s"] = statistics.median(uncovered_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                           "better": m["better"], "bound": None} for m in spec["per_layer"]}
    spans = [{"spans": t.spans, "totals": dict(t.totals), "counts": dict(t.counts)}
             for t in tracers]
    detail = {"passes": len(traced_s), "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return metrics, detail, spans


# --- reporting ------------------------------------------------------------------------------


def _print_metrics(workload: str, metrics: dict, trace: bool) -> None:
    from tracing import absent_reason

    for name, m in metrics.items():
        line = f"{workload:<18} {name:<36} {m['value']:>14.6g} {m['unit']}"
        reason = absent_reason(name, m["value"]) if trace else None
        if reason:
            line += f"  (absent: {reason})"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_noclink()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = OUT / "work" / run_id
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        tally = Tally()
        pin_pass(args.workload, work, tally)
        spans = None
        if args.trace:
            metrics, detail, spans = traced(args, workload, tally, spec)
        else:
            metrics, detail = end_to_end(args, workload, tally, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "run": run_id,
        "started_utc": stamp,
        "provenance": provenance(args, workload),
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "metrics": metrics,
        "detail": detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=2, default=float) + "\n")
    if spans is not None:
        (OUT / "spans").mkdir(exist_ok=True)
        (OUT / "spans" / f"{run_id}.json").write_text(json.dumps(spans, default=float))

    for failure in tally.failures:
        print(f"FAILED {failure}")
    _print_metrics(args.workload, metrics, bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
