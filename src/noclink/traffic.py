"""Typed statistical traffic: payload word sources and flow loading.

``load_traffic_spec`` turns a configuration's flat flow mappings into
:class:`noclink.simnet.FlowSpec` records: source and destination nodes,
a payload word source, a Bernoulli packet-injection rate per PE tick
and a packet length in flits.  The ``uniform``, ``gaussian`` and pixel
payloads draw their words on demand, in growing blocks as the flow
reaches them, so a run generates about the words it sends; the
``lognormal`` kind (normalized over its whole length) and the file
payloads (raw bytes, PGM images, stored streams) are read whole.  A
flow that reads past a payload's ``length`` recycles it from the start,
with one logged notice per source.
"""
from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np

from .simnet import ConfigurationError, FlowSpec
from .streams import StreamError, StreamSpec, generate_stream, read_stream_binary, stream_draw

log = logging.getLogger(__name__)


class TrafficError(ValueError):
    pass


# --- payload sources ------------------------------------------------------


class PayloadSource:
    """Infinite, order-preserving word source of a fixed bit width.

    ``take`` reads words at any position; positions past ``length`` wrap
    around to the start (logged once).  A source built from an array
    holds all of it.  One built with ``draw`` (which returns the next
    ``count`` words) grows as ``take`` reaches its words: the first draw
    is 256 words, and each later one at least doubles the words drawn,
    capped at ``length``.  The source holds no cursor: each PE keeps its
    own position per flow.
    """

    FIRST_DRAW = 256

    def __init__(
        self, words, width: int, name: str = "payload", *,
        draw: Callable[[int], np.ndarray] | None = None, length: int | None = None,
    ):
        if width < 1 or width > 64:
            raise TrafficError(f"{name}: unsupported payload width {width}")
        self.width = width
        self.name = name
        self._words = np.empty(0, dtype=np.uint64)
        self._append(words)
        self._draw = draw
        self.length = self._words.size if draw is None else length
        if self.length is None or self.length < 1:
            raise TrafficError(f"{name}: payload must be a non-empty 1-d word array")
        self._recycled = False

    def __len__(self) -> int:
        return self.length

    @property
    def words(self) -> np.ndarray:
        """All ``length`` words, drawing the ones not drawn yet."""
        self._grow(self.length)
        return self._words

    def take(self, start: int, count: int) -> np.ndarray:
        """Words [start, start+count) with wrap-around recycling."""
        end, n = start + count, self.length
        if end > self._words.size:
            self._grow(min(end, n))
        if end <= n:
            return self._words[start:end]
        if not self._recycled:
            self._recycled = True
            log.info("payload source %s exhausted at word %d; recycling", self.name, n)
        idx = (start + np.arange(count)) % n
        return self._words[idx]

    def _grow(self, need: int) -> None:
        have = self._words.size
        if need > have:
            total = min(max(need, 2 * have, self.FIRST_DRAW), self.length)
            self._append(self._draw(total - have))

    def _append(self, words: np.ndarray) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 1:
            raise TrafficError(f"{self.name}: payload must be a non-empty 1-d word array")
        if words.size and int(words.max()) >> self.width:
            raise TrafficError(f"{self.name}: payload words exceed {self.width} bits")
        self._words = np.concatenate((self._words, words)) if self._words.size else words


def source_from_spec(spec: StreamSpec, name: str = "synthetic") -> PayloadSource:
    if spec.distribution == "lognormal":
        return PayloadSource(generate_stream(spec).words, spec.width, name)
    return PayloadSource((), spec.width, name, draw=stream_draw(spec), length=spec.length)


def pixel_source(
    kind: str, flit_width: int, length: int, sigma: float, rho: float, seed: int,
) -> PayloadSource:
    """A correlated pixel payload of ``kind``, named ``kind``.

    Each flit's upper half is an AR(1) gaussian pixel sample of
    ``flit_width/2`` bits drawn with ``seed``.  Its lower half is

    * ``pixel-packed``: a second, independent pixel sample (``seed + 500``),
      so two row-major pixels share a flit as in two-pixels-per-flit image
      packing;
    * ``pixel-msb``: uniform bits (``seed + 5000``), a pixel in the upper
      half over noise in the lower.
    """
    if flit_width % 2:
        raise TrafficError(f"{kind} payloads need an even flit width")
    half = flit_width // 2
    hi = stream_draw(StreamSpec("gaussian", half, length, sigma=sigma, rho=rho, seed=seed))
    if kind == "pixel-packed":
        low = StreamSpec("gaussian", half, length, sigma=sigma, rho=rho, seed=seed + 500)
    elif kind == "pixel-msb":
        low = StreamSpec("uniform", half, length, seed=seed + 5000)
    else:
        raise TrafficError(f"unknown pixel payload kind {kind!r}")
    lo, shift = stream_draw(low), np.uint64(half)
    return PayloadSource(
        (), flit_width, kind, draw=lambda count: (hi(count) << shift) | lo(count),
        length=length,
    )


def raw_byte_source(path, flit_width: int) -> PayloadSource:
    """Raw 8-bit file packed most-significant-first into flit words, named
    by its path."""
    data = np.fromfile(str(path), dtype=np.uint8)
    return _pack_bytes(data, flit_width, str(path))


def pgm_source(path, flit_width: int) -> PayloadSource:
    """Binary PGM (P5) image, row-major pixels packed into flit words,
    named by its path."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TrafficError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise TrafficError(f"{path}: not a binary PGM (P5) file")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise TrafficError(f"{path}: malformed PGM header") from exc
    if not 0 < maxval < 256:
        raise TrafficError(f"{path}: only 8-bit PGM images are supported")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return _pack_bytes(pixels, flit_width, str(path))


def _pack_bytes(data: np.ndarray, flit_width: int, name: str) -> PayloadSource:
    if flit_width % 8:
        raise TrafficError(f"{name}: flit width {flit_width} is not a whole byte count")
    per_flit = flit_width // 8
    if data.size < per_flit:
        raise TrafficError(f"{name}: payload shorter than one flit")
    usable = data.size - data.size % per_flit
    chunks = data[:usable].reshape(-1, per_flit).astype(np.uint64)
    words = np.zeros(chunks.shape[0], dtype=np.uint64)
    for k in range(per_flit):
        words = (words << np.uint64(8)) | chunks[:, k]
    return PayloadSource(words, flit_width, name)


_SYNTHETIC = {"uniform", "gaussian", "lognormal"}
_DEFAULT_LENGTH = 1 << 20


def make_payload_source(cfg: dict, flit_width: int) -> PayloadSource:
    """Build a payload source from a flat attribute mapping.

    Recognized kinds: the synthetic distributions (``uniform``,
    ``gaussian``, ``lognormal``), ``pixel-packed``, ``pixel-msb``,
    ``raw`` and ``pgm``.
    """
    kind = cfg.get("payload")
    if kind is None:
        raise TrafficError("flow is missing a payload kind")
    seed = _attr(cfg, "seed", int, 0)
    length = _attr(cfg, "length", int, _DEFAULT_LENGTH)
    if kind in _SYNTHETIC:
        sigma, rho = _attr(cfg, "sigma", float), _attr(cfg, "rho", float)
        spec = StreamSpec(kind, flit_width, length, sigma=sigma, rho=rho, seed=seed)
        return source_from_spec(spec, kind)
    if kind in ("pixel-packed", "pixel-msb"):
        sigma, rho = _attr(cfg, "sigma", float), _attr(cfg, "rho", float)
        if sigma is None or rho is None:
            raise TrafficError(f"{kind} payload needs sigma and rho")
        return pixel_source(kind, flit_width, length, sigma, rho, seed)
    if kind == "raw":
        return raw_byte_source(_file_of(cfg, kind), flit_width)
    if kind == "pgm":
        return pgm_source(_file_of(cfg, kind), flit_width)
    if kind == "stream":
        stream = read_stream_binary(_file_of(cfg, kind))
        if stream.width != flit_width:
            raise TrafficError(
                f"stream payload width {stream.width} does not match flit width {flit_width}"
            )
        return PayloadSource(stream.words, stream.width, cfg["file"])
    raise TrafficError(f"unknown payload kind {kind!r}")


def _attr(cfg: dict, key: str, kind: type, default=None):
    """Attribute ``key`` of a flow mapping as an int or float, or
    ``default`` when the flow does not set it."""
    if key not in cfg:
        return default
    try:
        return kind(cfg[key])
    except (TypeError, ValueError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise TrafficError(f"{key} {cfg[key]!r} is not {noun}") from exc


def _file_of(cfg: dict, kind: str) -> str:
    try:
        return cfg["file"]
    except KeyError as exc:
        raise TrafficError(f"{kind} payload needs a file attribute") from exc


# --- flows ------------------------------------------------------------------


def load_traffic_spec(
    flows: list[dict], nodes: dict, flit_width: int, flits_per_packet: int,
    where: list[str] | None = None,
) -> list[FlowSpec]:
    """Validate flat flow mappings into flow specs, numbered by position.

    Data types are assigned per (source, payload) pair in listed order
    unless a flow names its ``typeId`` explicitly, which must be below the
    number of flows (N flows never need more than N types); the type after
    the last payload type is reserved for head flits by the simulator.  A
    bad flow's error starts with ``where[i]``, or else with its position.
    """
    specs: list[FlowSpec] = []
    assigned: dict[tuple, int] = {}
    next_type = 0
    for cfg in flows:
        label = where[len(specs)] if where else f"flow {len(specs)}"
        missing = sorted({"src", "dst", "rate"} - cfg.keys())
        if missing:
            raise TrafficError(f"{label} is missing {missing}")
        try:
            src, dst, rate = cfg["src"], cfg["dst"], _attr(cfg, "rate", float)
            for node in (src, dst):
                if node not in nodes:
                    raise TrafficError(f"unknown node {node!r} in traffic flow")
            payload = make_payload_source(cfg, flit_width)
            if "typeId" in cfg:
                type_id = _attr(cfg, "typeId", int)
                if type_id >= len(flows):
                    raise TrafficError(
                        f"typeId {type_id} is not below the flow count {len(flows)}")
                next_type = max(next_type, type_id + 1)
            else:
                key = (src, payload.name, cfg.get("seed"))
                if key not in assigned:
                    assigned[key] = next_type
                    next_type += 1
                type_id = assigned[key]
            specs.append(
                FlowSpec(
                    len(specs), type_id, src, dst, rate,
                    _attr(cfg, "flitsPerPacket", int, flits_per_packet), payload,
                )
            )
        except (TrafficError, ConfigurationError, StreamError, OSError) as exc:
            raise TrafficError(f"{label}: {exc}") from exc
    return specs
