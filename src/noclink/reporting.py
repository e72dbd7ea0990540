"""Per-link data-flow accumulation and result serialization.

A ``LinkObserver`` folds a link's flits, one (cycle, data type) event
each, into the 2n x 2n transition count matrix of its cycle states in
closed form, without visiting idle cycles.  It carries only the last
state between segments of cycles, so its memory is O(n^2) however many
cycles it counts, and any split into segments gives the same counts.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linkmodel import DataFlowMatrix, save_data_flow_matrix
from .oracle import IDLE, LinkTrace  # noqa: F401 (IDLE is part of this module's API)


class ReportingError(ValueError):
    pass


class SimulationError(RuntimeError):
    """A simulator invariant was violated."""


class LinkObserver:
    """Counts consecutive link-cycle state pairs for one link.

    States are 0..n-1 (transmitting type x) and n..2n-1 (idle holding
    the last pattern of type x).  Before the first observed cycle the
    link idles holding the head type (index n-1).
    """

    def __init__(self, link_id: str, n_types: int):
        if n_types < 1:
            raise ReportingError("need at least one data type")
        self.link_id = link_id
        self.n = n_types
        self.counts = np.zeros((2 * n_types, 2 * n_types), dtype=np.int64)
        self.cycles = 0
        self._last: int | None = None  # state of the last counted cycle

    @classmethod
    def from_trace(cls, trace: LinkTrace, n_types: int, link_id: str = "trace") -> LinkObserver:
        """A fresh observer that has counted every cycle of ``trace``."""
        observer = cls(link_id, n_types)
        observer.record(trace.cycles, trace.types, len(trace))
        return observer

    def record(self, cycles, types, end: int) -> None:
        """Fold cycles ``self.cycles`` to ``end`` - 1 into the counts: a flit of
        type ``types[i]`` on each of the ascending ``cycles``, idle cycles
        between.  Flits on c and c' make t -> t' if c' = c + 1, else
        t -> held(t), (c' - c - 2) x held(t) -> held(t) and held(t) -> t'."""
        if end <= self.cycles:
            return
        n, k = self.n, 2 * self.n
        t = np.asarray(types, dtype=np.int64)
        bad = (t < 0) | (t >= n)
        if bad.any():
            raise ReportingError(f"{self.link_id}: type {int(t[bad][0])} out of range (n={n})")
        # the cycle before this segment and each flit: state, idle cycles after
        at = np.concatenate(([self.cycles - 1], np.asarray(cycles, dtype=np.int64)))
        state = np.concatenate(([k - 1 if self._last is None else self._last], t))
        held = n + state % n
        gap = np.diff(at, append=end) - 1
        into = np.where(gap[:-1] == 0, state[:-1], held[:-1])
        counts = np.bincount(into * k + t, minlength=k * k)
        idle = gap > 0
        np.add.at(counts, state[idle] * k + held[idle], 1)
        np.add.at(counts, held[idle] * (k + 1), gap[idle] - 1)
        if self._last is None:
            # no transition precedes the link's first cycle (held head type or a flit)
            counts[(k - 1) * k + (int(t[0]) if gap[0] == 0 else k - 1)] -= 1
        self.counts += counts.reshape(k, k)
        self._last = int(state[-1] if gap[-1] == 0 else held[-1])
        self.cycles = end

    def type_flit_counts(self) -> np.ndarray:
        """Flits of each type that traversed the link within the counted transitions."""
        return self.counts[:, : self.n].sum(axis=0)

    def finalize(self) -> DataFlowMatrix:
        """The counts normalized into a data-flow matrix."""
        total = self.counts.sum()
        if total != max(self.cycles - 1, 0):
            raise SimulationError(
                f"{self.link_id}: {total} transitions in {self.cycles} cycles")
        if total < 1:
            raise ReportingError(f"{self.link_id}: need at least two observed cycles")
        return DataFlowMatrix(self.counts / total, self.n)


def data_flow_from_trace(states, n_types: int, link_id: str = "trace") -> DataFlowMatrix:
    """Convenience: a DataFlowMatrix from per-cycle types, ``IDLE`` when idle."""
    trace = LinkTrace.from_cycles(np.zeros(len(states), dtype=np.uint64), states, 1)
    return LinkObserver.from_trace(trace, n_types, link_id).finalize()


# --- latency ------------------------------------------------------------------

def latency_stats(samples, clock_period: float) -> dict:
    """Mean / median / p95 / max latency, in cycles and in ns."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ReportingError("latency statistics need at least one sample")
    cyc = {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }
    ns = {k: v * clock_period * 1e9 for k, v in cyc.items()}
    return {"count": int(arr.size), "cycles": cyc, "ns": ns}


# --- emission -----------------------------------------------------------------

def link_file_name(link_id: str) -> str:
    """File-name form of a link id: ``R2->R5`` becomes ``R2__R5``."""
    return link_id.replace("->", "__").replace("/", "_")


def emit_reports(result, out_dir) -> list[Path]:
    """Write per-link M CSVs, latency summaries and a utilization table.

    ``result`` is a ``noclink.simnet.SimulationResult``.  Nothing here
    prices a link; ``write_energy_json`` writes the energy reports.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for link_id, dfm in result.data_flow.items():
        path = out / f"M_{link_file_name(link_id)}.csv"
        save_data_flow_matrix(path, dfm, result.cycles, link_id)
        written.append(path)

    summary = result.summary()
    latency = {kind: summary[f"{kind}_latency"] for kind in ("flit", "packet")
               if f"{kind}_latency" in summary}
    written.append(_write_json(out / "latency.json", latency))

    lines = ["metric          mean     median      p95        max"]
    for name, st in latency.items():
        c = st["ns"]
        lines.append(
            f"{name:<8} [ns] {c['mean']:>8.2f} {c['median']:>8.2f}"
            f" {c['p95']:>8.2f} {c['max']:>10.2f}"
        )
    txt_path = out / "latency.txt"
    txt_path.write_text("\n".join(lines) + "\n")
    written.append(txt_path)

    util_path = out / "utilization.csv"
    with open(util_path, "w") as fh:
        fh.write("link,active_fraction,flits\n")
        for link_id, dfm in result.data_flow.items():
            flits = result.link_flit_counts[link_id].sum()
            fh.write(f"{link_id},{dfm.active_fraction():.9f},{int(flits)}\n")
    written.append(util_path)

    written.append(_write_json(out / "link_counts.json", {
        k: [int(v) for v in c] for k, c in result.link_flit_counts.items()}))
    written.append(_write_json(out / "summary.json", summary))
    return written


def write_energy_json(path: Path, reports: dict) -> Path:
    """Write ``energy*.json``: each link's report as its ``to_dict``."""
    return _write_json(path, {k: r.to_dict() for k, r in reports.items()})


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2))
    return path
