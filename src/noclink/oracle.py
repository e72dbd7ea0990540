"""Bit-level reference: exact switching and energy from a link's flits.

This is the slow, trusted path used to validate the statistical link
model.  A :class:`LinkTrace` holds one event per flit a link carried.
Idle cycles hold the last transmitted word (no switching), all-zeros
before the first flit, so the oracle sums the true transition quantities
over these held runs without visiting idle cycles.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .energy import Capacitance, TechnologyParams, absolute_energy_fj, normalized_energy
from .streams import SwitchingMatrix, gram, word_bits

IDLE = -1

# a LinkTrace's columns and their dtypes; a run directory stores each link's
# columns under these names
TRACE_COLUMNS = {"cycles": np.int64, "types": np.int64, "words": np.uint64,
                 "flows": np.int64, "indices": np.int64}


class TraceError(ValueError):
    """Malformed link trace or protocol file."""


@dataclass(frozen=True)
class LinkTrace:
    """The flits one link carried over ``length`` cycles, one entry each, on
    the ascending ``cycles`` within [0, ``length``).  Simulated traces also
    hold each flit's flow id and payload word index (-1 for head flits).
    Each column is cast to its ``TRACE_COLUMNS`` dtype."""

    cycles: np.ndarray
    types: np.ndarray
    words: np.ndarray
    flows: Optional[np.ndarray] = None
    indices: Optional[np.ndarray] = None
    length: int = field(kw_only=True)
    width: int = field(kw_only=True)

    def __post_init__(self):
        columns = []
        for name, dtype in TRACE_COLUMNS.items():
            if getattr(self, name) is not None:
                column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
                object.__setattr__(self, name, column)
                columns.append(column)
        if any(c.ndim != 1 or c.size != self.cycles.size for c in columns):
            raise TraceError("trace columns must be 1-d and of equal length")
        c = self.cycles
        if self.length < 1 or c.size and (c[0] < 0 or c[-1] >= self.length
                                          or (np.diff(c) <= 0).any()):
            raise TraceError(f"trace cycles must ascend within [0, {self.length})")
        if self.types.size and self.types.min() < 0:
            raise TraceError(f"trace type {int(self.types.min())} is negative")
        if not 1 <= self.width <= 64:
            raise TraceError(f"trace width {self.width} is outside [1, 64]")
        if self.width < 64 and self.words.size and int(self.words.max()) >= (1 << self.width):
            raise TraceError(f"trace word out of range for width {self.width}")

    @classmethod
    def from_cycles(cls, words, types, width: int) -> LinkTrace:
        """The flits of a per-cycle record: the cycles whose type is not ``IDLE``."""
        words = np.asarray(words, dtype=np.uint64)
        types = np.asarray(types, dtype=np.int64)
        if words.shape != types.shape or types.ndim != 1:
            raise TraceError("per-cycle words and types must be 1-d and equal length")
        cycles = np.flatnonzero(types != IDLE)
        if cycles.size == types.size:  # every cycle carries a flit, as in a stream
            return cls(cycles, types, words, length=types.size, width=width)
        return cls(cycles, types[cycles], words[cycles], length=types.size, width=width)

    def __len__(self) -> int:
        return self.length

    @cached_property
    def held_products(self) -> tuple[np.ndarray, np.ndarray]:
        """Bit-difference products summed over cycle pairs, and bit probabilities.
        Each sum is an exact integer, so both equal the per-cycle sums bit for bit."""
        words, runs = _held_runs(self)
        bits = word_bits(words, self.width)
        p = (runs.astype(np.float64) @ bits.astype(np.float64)) / self.length
        products = gram(np.diff(bits, axis=0))
        products.flags.writeable = p.flags.writeable = False  # shared by every caller
        return products, p


def _held_runs(trace: LinkTrace) -> tuple[np.ndarray, np.ndarray]:
    """The held words and their run lengths: all-zeros, then each flit's word."""
    starts, words = trace.cycles, trace.words
    if not starts.size or starts[0] > 0:
        starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
        words = np.concatenate((np.zeros(1, dtype=np.uint64), words))
    return words, np.diff(starts, append=trace.length)


def exact_switching(trace: LinkTrace) -> tuple[SwitchingMatrix, np.ndarray]:
    """True per-cycle switching matrix and held-value bit probabilities."""
    products, p = trace.held_products
    return SwitchingMatrix.from_products(products / max(len(trace) - 1, 1)), p


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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["p"] = list(map(float, self.p))
        return d


def exact_energy(
    trace: LinkTrace,
    cap: Capacitance,
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
    products, p = trace.held_products
    # unnormalized switching: summed over the transitions, not averaged
    total = normalized_energy(SwitchingMatrix.from_products(products), cap, p)
    cycles = len(trace)
    per_cycle = total / max(cycles - 1, 1)
    e_cyc = absolute_energy_fj(per_cycle, tech)
    active = int(trace.cycles.size)
    return OracleEnergyReport(
        link=link,
        kind=cap.kind,
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

_DIGIT_CHAR = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_DIGIT_OF = np.full(256, 255, dtype=np.uint8)  # byte -> hex digit value, 255 if none
_DIGIT_OF[_DIGIT_CHAR] = _DIGIT_OF[np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)] = range(16)
_IDLE_TAG = np.frombuffer(b"IDLE", dtype=np.uint8)
_TAG_DIGITS = 18  # any 18-digit tag fits in int64
_WORD_DIGITS = 16  # 64 bits


def _digits(values: np.ndarray, base: int, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of non-negative integers, right-aligned in rows of at
    least ``width`` columns, and the mask that drops leading zeros (zero
    keeps one digit): ``chars[keep]`` spells the numbers."""
    top = int(values.max(initial=0))
    ndig = max(width, len(np.base_repr(top, base)))
    rest = values.astype(np.min_scalar_type(top))  # narrow integers divide fastest
    digits = np.empty((ndig, values.size), dtype=np.uint8)  # one row per column
    count = np.ones(values.size, dtype=np.uint8)  # significant digits
    for col in range(ndig - 1, -1, -1):
        quotient = rest // base
        digits[col] = rest - quotient * base  # numpy's % is far slower than //
        rest = quotient
        count += rest > 0
    keep = np.arange(ndig, dtype=np.uint8)[:, None] >= ndig - count
    return _DIGIT_CHAR.take(digits).T, keep.T


def write_link_protocol(path, trace: LinkTrace) -> None:
    """One record per cycle: ``cycle,type_id|IDLE,hexword`` of the held word."""
    n = len(trace)
    types = np.full(n, IDLE, dtype=np.int64)
    types[trace.cycles] = trace.types
    idle = types < 0
    tag, tag_keep = _digits(np.maximum(types, 0), 10, width=4)
    tag[idle, -4:] = _IDLE_TAG
    tag_keep[idle] = np.arange(tag.shape[1]) >= tag.shape[1] - 4
    cycle, cycle_keep = _digits(np.arange(n), 10)
    word, word_keep = _digits(np.repeat(*_held_runs(trace)), 16)
    comma, newline = (np.full((n, 1), ord(c), dtype=np.uint8) for c in ",\n")
    sep = np.ones((n, 1), dtype=bool)
    chars = np.hstack([cycle, comma, tag, comma, word, newline])
    keep = np.hstack([cycle_keep, sep, tag_keep, sep, word_keep, sep])
    with open(path, "wb") as fh:
        fh.write(chars[keep].tobytes())


def _parse_fields(data: np.ndarray, start: np.ndarray, end: np.ndarray, base: int,
                  max_digits: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The values of the digit fields ``data[start:end]`` in ``base``, and
    which fields hold 1 to ``max_digits`` digits and nothing else.  Each
    pass reads one digit column, counted from the right, of every field."""
    length = end - start
    ok = (length >= 1) & (length <= max_digits)
    value = np.zeros(start.size, dtype=dtype)
    for col in range(min(max_digits, int(length.max(initial=0)))):
        digit = _DIGIT_OF.take(data.take(end - 1 - col, mode="clip"))
        digit *= col < length  # zero left of the field
        ok &= digit < base
        value += digit * dtype(base**col)
    return value, ok


def _record_error(line: bytes, cycle: int) -> str:
    """Why one rejected record, expected to be cycle ``cycle``, is bad."""
    parts = line.decode("ascii", "backslashreplace").split(",")
    if len(parts) != 3:
        return "malformed protocol record"
    number, tag, word = parts
    if number != str(cycle):
        return f"record of cycle {number!r}, expected {cycle}"
    if tag != "IDLE" and not (tag.isascii() and tag.isdecimal() and len(tag) <= _TAG_DIGITS):
        return (f"type tag {tag!r} is neither IDLE nor a non-negative integer"
                f" of at most {_TAG_DIGITS} digits")
    digits = word.removeprefix("-")
    if digits and all(ch in "0123456789abcdefABCDEF" for ch in digits):
        return f"protocol word {word!r} is negative or wider than 64 bits"
    return "malformed protocol record"


def replay_link_protocol(path, width: int) -> LinkTrace:
    """The flits of a protocol file, whose records number cycles 0, 1, 2, ...

    Each line is empty or one record ``cycle,tag,word`` and ends in ``\\n``
    or ``\\r\\n`` (the last may end the file instead).  ``cycle`` is the
    record's number in decimal, without leading zeros; a type tag is
    ``IDLE`` or 1-18 decimal digits; the word is 1-16 hex digits, either
    case.  An ``IDLE`` record holds the word the link holds: zero before the
    first flit, then the last flit's word."""
    with open(path, "rb") as fh:
        raw = fh.read()
    data = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", dtype=np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    at_end = np.flatnonzero(data.take(seps) == ord("\n"))  # of each line, in seps
    line_end = seps[at_end]
    line_start = np.concatenate(([0], line_end[:-1] + 1))
    line_end -= (data[line_end - 1] == ord("\r")) & (line_end > line_start)
    records = np.flatnonzero(line_end > line_start)  # blank lines hold no record
    n = records.size
    if not n:
        raise TraceError(f"{path}: empty protocol file")
    start, end = line_start[records], line_end[records]
    # a record's two commas are the separators before its end; if it has
    # fewer, its cycle field ends before it starts, and if more, holds one
    first, second = (seps.take(at_end[records] - k, mode="clip") for k in (2, 1))

    cycles, ok = _parse_fields(data, start, first, 10, len(str(n - 1)), np.int64)
    ok &= cycles == np.arange(n)
    digits = np.ones(n, dtype=np.int64)  # of str(i), so no leading zeros pass
    for power in range(1, len(str(n - 1))):
        digits[10**power:] += 1
    ok &= first - start == digits
    tags, tag_ok = _parse_fields(data, first + 1, second, 10, _TAG_DIGITS, np.int64)
    idle = second - first == 5
    for k, char in enumerate(b"IDLE", 1):
        idle &= data.take(first + k, mode="clip") == char
    types = np.where(idle, IDLE, tags)
    words, word_ok = _parse_fields(data, second + 1, end, 16, _WORD_DIGITS, np.uint64)
    ok &= (tag_ok | idle) & word_ok
    if not ok.all():
        r = int(np.argmin(ok))
        raise TraceError(f"{path}:{records[r] + 1}: "
                         f"{_record_error(raw[start[r]:end[r]], r)}")

    trace = LinkTrace.from_cycles(words, types, width)
    held = np.repeat(*_held_runs(trace))
    bad = np.flatnonzero(idle & (words != held))
    if bad.size:
        c = int(bad[0])
        raise TraceError(f"{path}:{records[c] + 1}: IDLE record of cycle {c} has word"
                         f" {int(words[c]):x}, not the held word {int(held[c]):x}")
    return trace
