"""Low-power stream codecs: bus-invert, Gray and correlator coding.

Codecs are applied end-to-end at the sources, before packetization;
head flits are never encoded.  Every codec is exactly invertible.
"""
from __future__ import annotations

import numpy as np

from .streams import DataStream

CODEC_NAMES = ("none", "invert", "gray", "correlator", "correlator+inv")


class CodecError(ValueError):
    """Unknown codec or width mismatch while decoding."""


class Codec:
    kind = "none"

    def __init__(self, width: int):
        if width < 1:
            raise CodecError("codec width must be >= 1")
        self.width_in = width
        self.width_out = width

    def encode(self, stream: DataStream) -> DataStream:
        raise NotImplementedError

    def decode(self, stream: DataStream) -> DataStream:
        raise NotImplementedError

    def _check(self, stream: DataStream, width: int) -> None:
        if stream.width != width:
            raise CodecError(
                f"{self.kind}: stream width {stream.width}, expected {width}"
            )


class NoneCodec(Codec):
    def encode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_in)
        return stream

    decode = encode


class GrayCodec(Codec):
    """w -> w XOR (w >> 1); adjacent integers differ in exactly one bit."""

    kind = "gray"

    def encode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_in)
        w = stream.words
        return DataStream(w ^ (w >> np.uint64(1)), self.width_in, stream.type_id)

    def decode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_out)
        w = stream.words.copy()
        shift = 1
        while shift < self.width_in:
            w ^= w >> np.uint64(shift)
            shift *= 2
        return DataStream(w, self.width_in, stream.type_id)


class CorrelatorCodec(Codec):
    """c_t = d_t XOR d_{t-1}; optional driver-inversion stage on the output."""

    kind = "correlator"

    def __init__(self, width: int, invert_output: bool = False):
        super().__init__(width)
        self.invert_output = invert_output

    @property
    def _mask(self) -> np.uint64:
        return np.uint64((1 << self.width_in) - 1)

    def encode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_in)
        d = stream.words
        c = d.copy()
        c[1:] = d[1:] ^ d[:-1]
        if self.invert_output:
            c = ~c & self._mask
        return DataStream(c, self.width_in, stream.type_id)

    def decode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_out)
        c = stream.words
        if self.invert_output:
            c = ~c & self._mask
        d = np.bitwise_xor.accumulate(c)
        return DataStream(d, self.width_in, stream.type_id)


class InvertCodec(Codec):
    """Classical bus-invert: complement the word (invert bit set) whenever the
    Hamming distance to the previously transmitted code word exceeds N/2."""

    kind = "invert"

    def __init__(self, width: int):
        super().__init__(width)
        self.width_out = width + 1
        if self.width_out > 64:
            raise CodecError(f"invert: coded width {self.width_out} exceeds 64 bits")

    def encode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_in)
        n = self.width_in
        mask = (1 << n) - 1
        invert_bit = 1 << n
        prev = 0
        out = np.empty(len(stream), dtype=np.uint64)
        for k, w in enumerate(stream.words.tolist()):
            if 2 * _popcount(w ^ prev) > n:  # ties are not inverted
                code = (~w & mask) | invert_bit
            else:
                code = w
            prev = code & mask
            out[k] = code
        return DataStream(out, self.width_out, stream.type_id)

    def decode(self, stream: DataStream) -> DataStream:
        self._check(stream, self.width_out)
        n = self.width_in
        mask = np.uint64((1 << n) - 1)
        inverted = (stream.words >> np.uint64(n)) & np.uint64(1)
        low = stream.words & mask
        out = np.where(inverted.astype(bool), ~low & mask, low)
        return DataStream(out.astype(np.uint64), self.width_in, stream.type_id)


def _popcount(x: int) -> int:
    return bin(x).count("1")


def make_codec(name: str, width: int) -> Codec:
    if name == "none":
        return NoneCodec(width)
    if name == "invert":
        return InvertCodec(width)
    if name == "gray":
        return GrayCodec(width)
    if name == "correlator":
        return CorrelatorCodec(width, invert_output=False)
    if name == "correlator+inv":
        return CorrelatorCodec(width, invert_output=True)
    raise CodecError(f"unknown codec {name!r}")


def coding_gain(uncoded_per_byte: float, coded_per_byte: float) -> float:
    """Percent energy saved per effectively transmitted payload byte."""
    if uncoded_per_byte is None or uncoded_per_byte == 0.0:
        raise CodecError("uncoded energy per byte is zero or undefined")
    if coded_per_byte is None:
        raise CodecError("coded energy per byte is undefined")
    return (uncoded_per_byte - coded_per_byte) / uncoded_per_byte * 100.0
