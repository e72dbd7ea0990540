"""Per-link data-flow accumulation and result serialization.

A ``LinkObserver`` folds a link's flits, one (cycle, data type) event
each, into the transition count matrix of its cycle states in closed
form, without visiting idle cycles.  It counts over the k types the link
has carried, not all n, and carries only the last state between segments
of cycles, so its memory is O(k^2) however many cycles it counts, and any
split into segments gives the same counts.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linkmodel import DataFlowMatrix, embed_states, save_data_flow_matrix
from .oracle import IDLE, LinkTrace  # noqa: F401 (IDLE is part of this module's API)


class ReportingError(ValueError):
    pass


class SimulationError(RuntimeError):
    """A simulator invariant was violated."""


class LinkObserver:
    """Counts consecutive link-cycle state pairs for one link.

    States are 0..n-1 (transmitting type x) and n..2n-1 (idle holding
    the last pattern of type x).  Before the first observed cycle the
    link idles holding the head type (index n-1).  The counts cover the
    k ascending ``types`` carried, the head type always among them, as
    ``DataFlowMatrix.compact`` does.
    """

    def __init__(self, link_id: str, n_types: int):
        if n_types < 1:
            raise ReportingError("need at least one data type")
        self.link_id = link_id
        self.n = n_types
        self.types = np.array([n_types - 1])
        self._slot = np.full(n_types, -1)  # type -> its index in ``types``, -1 if not carried
        self._slot[-1] = 0
        self._counts = np.zeros((2, 2), dtype=np.int64)
        self.cycles = 0
        self._last: int | None = None  # compact state of the last counted cycle

    @classmethod
    def from_trace(cls, trace: LinkTrace, n_types: int, link_id: str = "trace") -> LinkObserver:
        """A fresh observer that has counted every cycle of ``trace``."""
        observer = cls(link_id, n_types)
        observer.record(trace.cycles, trace.types, len(trace))
        return observer

    @property
    def counts(self) -> np.ndarray:
        """The 2n x 2n transition counts over all types, built on each read."""
        return embed_states(self._counts, self.types, self.n)

    def record(self, cycles, types, end: int) -> None:
        """Fold cycles ``self.cycles`` to ``end`` - 1 into the counts: a flit of
        type ``types[i]`` on each of the ascending ``cycles``, idle cycles
        between.  Flits on c and c' make t -> t' if c' = c + 1, else
        t -> held(t), (c' - c - 2) x held(t) -> held(t) and held(t) -> t'."""
        if end <= self.cycles:
            return
        n = self.n
        ty = np.asarray(types, dtype=np.int64)
        if ty.size and (ty.min() < 0 or ty.max() >= n):
            bad = ty[(ty < 0) | (ty >= n)]
            raise ReportingError(f"{self.link_id}: type {int(bad[0])} out of range (n={n})")
        t = self._slot[ty]  # each flit's compact state, -1 for a type not yet carried
        if ty.size and t.min() < 0:
            self._grow(ty)
            t = self._slot[ty]
        c = len(self.types)
        k = 2 * c
        # the cycle before this segment, each flit and the end: the state on
        # each but the end, the idle cycles after it
        at = np.concatenate(([self.cycles - 1], np.asarray(cycles, dtype=np.int64), [end]))
        state = np.concatenate(([k - 1 if self._last is None else self._last], t))
        held = state + c * (state < c)  # state's idle twin: 0 <= state < 2c
        gap = at[1:] - at[:-1] - 1
        into = np.where(gap[:-1] == 0, state[:-1], held[:-1])
        idle = gap > 0
        counts = np.bincount(np.concatenate((into * k + t, state[idle] * k + held[idle])),
                             minlength=k * k)
        np.add.at(counts, held[idle] * (k + 1), gap[idle] - 1)
        if self._last is None:
            # no transition precedes the link's first cycle (held head type or a flit)
            counts[(k - 1) * k + (int(t[0]) if gap[0] == 0 else k - 1)] -= 1
        self._counts += counts.reshape(k, k)
        self._last = int(state[-1] if gap[-1] == 0 else held[-1])
        self.cycles = end

    def _grow(self, new: np.ndarray) -> None:
        """Add the types in ``new`` to the index, moving the counts and the
        last state to their places in the larger matrix."""
        carried = self._slot >= 0
        carried[new] = True
        types = carried.nonzero()[0]
        at = np.searchsorted(types, self.types)
        if self._last is not None:
            self._last = int(np.concatenate((at, len(types) + at))[self._last])
        self._counts = embed_states(self._counts, at, len(types))
        self._slot[types] = np.arange(len(types))
        self.types = types

    def type_flit_counts(self) -> np.ndarray:
        """Flits of each type that traversed the link within the counted transitions."""
        out = np.zeros(self.n, dtype=np.int64)
        out[self.types] = self._counts[:, : len(self.types)].sum(axis=0)
        return out

    def finalize(self) -> DataFlowMatrix:
        """The counts normalized into a data-flow matrix over ``types``."""
        total = self._counts.sum()
        if total != max(self.cycles - 1, 0):
            raise SimulationError(
                f"{self.link_id}: {total} transitions in {self.cycles} cycles")
        if total < 1:
            raise ReportingError(f"{self.link_id}: need at least two observed cycles")
        return DataFlowMatrix(self._counts / total, self.n, self.types)


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
