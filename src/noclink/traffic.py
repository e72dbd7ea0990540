"""Typed statistical traffic: payload word sources and flow loading.

``load_traffic_spec`` turns a configuration's flat flow mappings into
:class:`noclink.simnet.FlowSpec` records: source and destination nodes,
a payload word source, a Bernoulli packet-injection rate per PE tick
and a packet length in flits.  Payload sources are word arrays built
from synthetic stream specs or from files (raw bytes, PGM images,
stored streams); a flow that reads past the end recycles from the start
with a logged notice.
"""
from __future__ import annotations

import logging

import numpy as np

from .simnet import FlowSpec
from .streams import StreamSpec, generate_stream, read_stream_binary

log = logging.getLogger(__name__)


class TrafficError(ValueError):
    pass


# --- payload sources ------------------------------------------------------


class PayloadSource:
    """Infinite, order-preserving word source of a fixed bit width.

    Wraps a finite word array; ``take`` reads words at any position, and
    positions past the end wrap around to the start (logged).  The
    source holds no cursor: each PE keeps its own position per flow.
    """

    def __init__(self, words: np.ndarray, width: int, name: str = "payload"):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 1 or words.size < 1:
            raise TrafficError(f"{name}: payload must be a non-empty 1-d word array")
        if width < 1 or width > 64:
            raise TrafficError(f"{name}: unsupported payload width {width}")
        if words.size and int(words.max()) >> width:
            raise TrafficError(f"{name}: payload words exceed {width} bits")
        self.words = words
        self.width = width
        self.name = name

    def __len__(self) -> int:
        return int(self.words.size)

    def take(self, start: int, count: int) -> np.ndarray:
        """Words [start, start+count) with wrap-around recycling."""
        n = self.words.size
        if start + count <= n:
            return self.words[start : start + count]
        log.info("payload source %s exhausted at word %d; recycling", self.name, n)
        idx = (start + np.arange(count)) % n
        return self.words[idx]


def source_from_spec(spec: StreamSpec, name: str = "synthetic") -> PayloadSource:
    return PayloadSource(generate_stream(spec).words, spec.width, name)


def packed_pixel_source(
    flit_width: int, length: int, sigma: float, rho: float, seed: int,
    name: str = "pixel-packed",
) -> PayloadSource:
    """Two independent correlated pixel streams packed per flit.

    Each flit carries two (flit_width/2)-bit AR(1) pixel samples, the
    first in the upper half, matching row-major two-pixels-per-flit
    image packing.
    """
    if flit_width % 2:
        raise TrafficError("packed-pixel payloads need an even flit width")
    half = flit_width // 2
    hi = generate_stream(StreamSpec("gaussian", half, length, sigma=sigma, rho=rho, seed=seed))
    lo = generate_stream(
        StreamSpec("gaussian", half, length, sigma=sigma, rho=rho, seed=seed + 500)
    )
    words = (hi.words.astype(np.uint64) << np.uint64(half)) | lo.words.astype(np.uint64)
    return PayloadSource(words, flit_width, name)


def msb_pixel_source(
    flit_width: int, length: int, sigma: float, rho: float, seed: int,
    name: str = "pixel-msb",
) -> PayloadSource:
    """Correlated pixel sample in the upper flit half, uniform lower half."""
    if flit_width % 2:
        raise TrafficError("msb-pixel payloads need an even flit width")
    half = flit_width // 2
    hi = generate_stream(StreamSpec("gaussian", half, length, sigma=sigma, rho=rho, seed=seed))
    rng = np.random.default_rng(seed + 5000)
    lo = rng.integers(0, 1 << half, size=length, dtype=np.uint64)
    words = (hi.words.astype(np.uint64) << np.uint64(half)) | lo
    return PayloadSource(words, flit_width, name)


def raw_byte_source(path, flit_width: int, name: str | None = None) -> PayloadSource:
    """Raw 8-bit file packed most-significant-first into flit words."""
    data = np.fromfile(str(path), dtype=np.uint8)
    return _pack_bytes(data, flit_width, name or str(path))


def pgm_source(path, flit_width: int, name: str | None = None) -> PayloadSource:
    """Binary PGM (P5) image, row-major pixels packed into flit words."""
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
    return _pack_bytes(pixels, flit_width, name or str(path))


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
    seed = int(cfg.get("seed", 0))
    length = int(cfg.get("length", _DEFAULT_LENGTH))
    if kind in _SYNTHETIC:
        sigma = float(cfg["sigma"]) if "sigma" in cfg else None
        rho = float(cfg["rho"]) if "rho" in cfg else None
        spec = StreamSpec(kind, flit_width, length, sigma=sigma, rho=rho, seed=seed)
        return source_from_spec(spec, kind)
    if kind in ("pixel-packed", "pixel-msb"):
        try:
            sigma, rho = float(cfg["sigma"]), float(cfg["rho"])
        except KeyError as exc:
            raise TrafficError(f"{kind} payload needs sigma and rho") from exc
        build = packed_pixel_source if kind == "pixel-packed" else msb_pixel_source
        return build(flit_width, length, sigma, rho, seed)
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


def _file_of(cfg: dict, kind: str) -> str:
    try:
        return cfg["file"]
    except KeyError as exc:
        raise TrafficError(f"{kind} payload needs a file attribute") from exc


# --- flows ------------------------------------------------------------------


def load_traffic_spec(
    flows: list[dict], nodes: dict, flit_width: int, flits_per_packet: int
) -> list[FlowSpec]:
    """Validate flat flow mappings into flow specs, numbered by position.

    Data types are assigned per (source, payload) pair in listed order
    unless a flow names its ``typeId`` explicitly; the type after the
    last payload type is reserved for head flits by the simulator.
    """
    specs: list[FlowSpec] = []
    assigned: dict[tuple, int] = {}
    next_type = 0
    for cfg in flows:
        try:
            src, dst = cfg["src"], cfg["dst"]
            rate = float(cfg["rate"])
        except KeyError as exc:
            raise TrafficError(f"flow is missing attribute {exc}") from exc
        for node in (src, dst):
            if node not in nodes:
                raise TrafficError(f"unknown node {node!r} in traffic flow")
        payload = make_payload_source(cfg, flit_width)
        if payload.width != flit_width:
            raise TrafficError(
                f"payload width {payload.width} does not match flit width {flit_width}"
            )
        if "typeId" in cfg:
            type_id = int(cfg["typeId"])
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
                int(cfg.get("flitsPerPacket", flits_per_packet)), payload,
            )
        )
    return specs
