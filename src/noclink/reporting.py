"""Per-link data-flow accumulation and result serialization.

A ``LinkObserver`` consumes one state per link cycle (a data-type index
or idle) and maintains the 2n x 2n transition count matrix in O(n^2)
memory, independent of the simulated cycle count.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linkmodel import DataFlowMatrix, save_data_flow_matrix
from .oracle import IDLE, forward_fill


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
        self._prev: int | None = None
        self._held = n_types - 1  # head type by convention

    def record(self, type_or_idle: int) -> None:
        if type_or_idle == IDLE:
            state = self.n + self._held
        else:
            if not 0 <= type_or_idle < self.n:
                raise ReportingError(
                    f"{self.link_id}: type {type_or_idle} out of range (n={self.n})"
                )
            state = type_or_idle
            self._held = type_or_idle
        if self._prev is not None:
            self.counts[self._prev, state] += 1
        self._prev = state
        self.cycles += 1

    def active_flits(self) -> int:
        """Flits that traversed the link within the counted transitions."""
        return int(self.counts[:, : self.n].sum())

    def type_flit_counts(self) -> np.ndarray:
        return self.counts[:, : self.n].sum(axis=0)

    def finalize(self) -> DataFlowMatrix:
        if self.counts.sum() != max(self.cycles - 1, 0):
            raise SimulationError(
                f"{self.link_id}: {self.counts.sum()} transitions in {self.cycles} cycles")
        return data_flow_matrix(self.counts, self.n, self.link_id)


def data_flow_matrix(counts: np.ndarray, n_types: int, link_id: str) -> DataFlowMatrix:
    """Normalize transition counts into a data-flow matrix."""
    total = counts.sum()
    if total < 1:
        raise ReportingError(f"{link_id}: need at least two observed cycles")
    return DataFlowMatrix(counts / total, n_types)


def data_flow_from_states(states, n_types: int, link_id: str = "trace") -> np.ndarray:
    """Transition counts of a whole state sequence at once.

    Equal to the counts a ``LinkObserver`` accumulates when fed the
    states one by one: idle cycles hold the last transmitted type,
    starting from the head type, and consecutive state pairs are
    counted into the 2n x 2n matrix.
    """
    s = np.asarray(states, dtype=np.int64)
    active = s != IDLE
    bad = active & ((s < 0) | (s >= n_types))
    if bad.any():
        raise ReportingError(f"{link_id}: type {int(s[bad][0])} out of range (n={n_types})")
    state = np.where(active, s, n_types + forward_fill(s, active, n_types - 1))
    k = 2 * n_types
    pairs = np.bincount(state[:-1] * k + state[1:], minlength=k * k)
    return pairs.reshape(k, k).astype(np.int64)


def data_flow_from_trace(states, n_types: int, link_id: str = "trace") -> DataFlowMatrix:
    """Convenience: build a DataFlowMatrix from an explicit state sequence."""
    return data_flow_matrix(data_flow_from_states(states, n_types, link_id), n_types, link_id)


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


def emit_reports(result, out_dir, energy_reports: dict | None = None) -> list[Path]:
    """Write per-link M CSVs, latency summaries and a utilization table.

    ``result`` is a ``noclink.simnet.SimulationResult``; ``energy_reports``
    optionally maps link ids to ``LinkEnergyReport`` objects.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for link_id, dfm in result.data_flow.items():
        path = out / f"M_{link_file_name(link_id)}.csv"
        save_data_flow_matrix(path, dfm, result.cycles, link_id)
        written.append(path)

    latency = {}
    if result.flit_latencies:
        latency["flit"] = latency_stats(result.flit_latencies, result.clock_period)
    if result.packet_latencies:
        latency["packet"] = latency_stats(result.packet_latencies, result.clock_period)
    lat_path = out / "latency.json"
    lat_path.write_text(json.dumps(latency, indent=2))
    written.append(lat_path)

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

    counts_path = out / "link_counts.json"
    counts_path.write_text(json.dumps(
        {k: [int(v) for v in c] for k, c in result.link_flit_counts.items()}, indent=2
    ))
    written.append(counts_path)

    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(result.summary(), indent=2))
    written.append(summary_path)

    if energy_reports:
        e_path = out / "energy.json"
        e_path.write_text(json.dumps(
            {k: r.to_dict() for k, r in energy_reports.items()}, indent=2
        ))
        written.append(e_path)
    return written
