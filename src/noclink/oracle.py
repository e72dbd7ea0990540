"""Bit-level reference: exact switching and energy from explicit traces.

This is the slow, trusted path used to validate the statistical link
model: it walks every transmitted word of a link and accumulates the
true transition quantities.  Idle cycles hold the last transmitted word
(no switching); the held value before the first flit is all-zeros.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import Capacitance2D, Capacitance3D, TechnologyParams, absolute_energy_fj
from .streams import SwitchingMatrix, word_bits

IDLE = -1


class TraceError(ValueError):
    """Malformed link trace or protocol file."""


def forward_fill(values: np.ndarray, active: np.ndarray, initial) -> np.ndarray:
    """Each entry's value at the last active position up to it, and
    ``initial`` before the first active position."""
    last = np.where(active, np.arange(active.size), -1)
    np.maximum.accumulate(last, out=last)
    return np.where(last >= 0, values[np.maximum(last, 0)], initial)


@dataclass(frozen=True)
class LinkTrace:
    """Per-cycle link record: a (word, type) pair or an idle marker."""

    words: np.ndarray  # uint64; ignored on idle cycles
    types: np.ndarray  # int64; IDLE (-1) marks an idle cycle
    width: int

    def __post_init__(self):
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        types = np.ascontiguousarray(self.types, dtype=np.int64)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "types", types)
        if words.shape != types.shape or words.ndim != 1:
            raise TraceError("trace words and types must be 1-d and equal length")
        if words.size < 1:
            raise TraceError("trace must contain at least one cycle")
        active = types >= 0
        if self.width < 64 and active.any():
            if int(words[active].max()) >= (1 << self.width):
                raise TraceError(f"trace word out of range for width {self.width}")

    def __len__(self) -> int:
        return int(self.words.size)

    def held_words(self) -> np.ndarray:
        """Value on the wires each cycle: last transmitted word, initially 0."""
        return forward_fill(self.words, self.types >= 0, np.uint64(0))

    def active_count(self) -> int:
        return int((self.types >= 0).sum())


def exact_switching(trace: LinkTrace) -> tuple[SwitchingMatrix, np.ndarray]:
    """True per-cycle switching matrix and held-value bit probabilities."""
    b = word_bits(trace.held_words(), trace.width)
    p = b.mean(axis=0)
    if len(trace) < 2:
        return SwitchingMatrix(np.zeros((trace.width, trace.width))), p
    d = np.diff(b, axis=0).astype(np.float64)
    return SwitchingMatrix.from_products((d.T @ d) / (len(trace) - 1)), p


@dataclass(frozen=True)
class OracleEnergyReport:
    link: str
    kind: str
    cycles: int
    active_cycles: int
    normalized_total_af: float
    normalized_per_cycle_af: float
    energy_per_cycle_fj: float
    total_fj: float
    energy_per_flit_fj: Optional[float]
    p: np.ndarray

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "link", "kind", "cycles", "active_cycles", "normalized_total_af",
            "normalized_per_cycle_af", "energy_per_cycle_fj", "total_fj",
            "energy_per_flit_fj",
        )}
        d["p"] = list(map(float, self.p))
        return d


def exact_energy(
    trace: LinkTrace,
    cap: Capacitance2D | Capacitance3D,
    tech: TechnologyParams,
    link: str = "",
) -> OracleEnergyReport:
    """Sum the per-transition energies of a trace against a capacitance model.

    The 3D capacitance is evaluated once with the empirical bit
    probabilities of the whole trace (the model's stationarity
    assumption), so discrepancies isolate switching-estimation error.
    """
    if cap.width != trace.width:
        raise TraceError(
            f"trace width {trace.width} does not match capacitance width {cap.width}"
        )
    b = word_bits(trace.held_words(), trace.width)
    p = b.mean(axis=0)
    if isinstance(cap, Capacitance3D):
        kind = "3d"
        c = cap.ct0 + cap.dct * (p[:, None] + p[None, :])
    else:
        kind = "2d"
        c = cap.c
    if len(trace) >= 2:
        d = np.diff(b, axis=0).astype(np.float64)
        # unnormalized switching: summed over the transitions, not averaged
        t = SwitchingMatrix.from_products(d.T @ d).t
        total = float(np.sum(np.diag(c) * np.diag(t)))
        c_off = c.copy()
        np.fill_diagonal(c_off, 0.0)
        total += float(np.sum(t * c_off))
    else:
        total = 0.0
    cycles = len(trace)
    per_cycle = total / max(cycles - 1, 1)
    e_cyc = absolute_energy_fj(per_cycle, tech)
    active = trace.active_count()
    return OracleEnergyReport(
        link=link,
        kind=kind,
        cycles=cycles,
        active_cycles=active,
        normalized_total_af=total,
        normalized_per_cycle_af=per_cycle,
        energy_per_cycle_fj=e_cyc,
        total_fj=absolute_energy_fj(total, tech),
        energy_per_flit_fj=(e_cyc * (cycles - 1) / active) if active else None,
        p=p,
    )


# --- protocol files -----------------------------------------------------------

def _digits(values: np.ndarray, base: int, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of non-negative integers, right-aligned in rows of at
    least ``width`` columns, and the mask that drops leading zeros (zero
    keeps one digit): ``chars[keep]`` spells the numbers."""
    top = int(values.max(initial=0))
    ndig = max(width, len(np.base_repr(top, base)))
    dtype = np.min_scalar_type(max(top, base**ndig - 1))  # narrow integers divide fastest
    powers = np.array([base**k for k in range(ndig - 1, -1, -1)], dtype=dtype)
    digits = (values.astype(dtype)[:, None] // powers) % dtype.type(base)
    keep = np.maximum.accumulate(digits != 0, axis=1)
    keep[:, -1] = True
    return np.frombuffer(b"0123456789abcdef", dtype=np.uint8)[digits], keep


def write_link_protocol(path, trace: LinkTrace) -> None:
    """One record per cycle: ``cycle,type_id|IDLE,hexword``."""
    n, idle = len(trace), trace.types < 0
    tag, tag_keep = _digits(np.maximum(trace.types, 0), 10, width=4)
    tag[idle, -4:] = np.frombuffer(b"IDLE", dtype=np.uint8)
    tag_keep[idle] = np.arange(tag.shape[1]) >= tag.shape[1] - 4
    cycle, cycle_keep = _digits(np.arange(n), 10)
    word, word_keep = _digits(trace.held_words(), 16)
    comma, newline = (np.full((n, 1), ord(c), dtype=np.uint8) for c in ",\n")
    sep = np.ones((n, 1), dtype=bool)
    chars = np.hstack([cycle, comma, tag, comma, word, newline])
    keep = np.hstack([cycle_keep, sep, tag_keep, sep, word_keep, sep])
    with open(path, "wb") as fh:
        fh.write(chars[keep].tobytes())


def replay_link_protocol(path, width: int) -> LinkTrace:
    """Reconstruct a per-cycle trace, including idle cycles, from a protocol file."""
    words: list[int] = []
    types: list[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise TraceError(f"{path}:{lineno}: malformed protocol record")
            _, tag, hexword = parts
            try:
                word = int(hexword, 16)
                t = IDLE if tag == "IDLE" else int(tag)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: malformed protocol record") from exc
            if width < 64 and word >= (1 << width):
                raise TraceError(f"{path}:{lineno}: word exceeds width {width}")
            words.append(word)
            types.append(t)
    if not words:
        raise TraceError(f"{path}: empty protocol file")
    return LinkTrace(np.array(words, dtype=np.uint64), np.array(types), width)
