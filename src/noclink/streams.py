"""Synthetic data streams and per-stream bit/switching statistics.

A stream is a sequence of unsigned words of a fixed bit width.  From a
stream we derive two kinds of statistics:

* ``BitStats`` -- the joint 1-probability matrix S (S_ij = fraction of
  words where bits i and j are both 1) and the bit probability vector p
  (its diagonal).
* ``SwitchingMatrix`` -- mean switching between consecutive words: the
  diagonal holds the self-switching probabilities E{db_i^2}, off-diagonal
  entries hold E{db_i^2 - db_i*db_j}.

Every statistic is a product aᵀa of a 0/±1 bit matrix, formed by ``gram``
in float32 blocks of ``BLOCK`` rows and returned as exact float64 counts.

scipy is imported only by the AR(1) recursion behind ``gaussian`` and
``lognormal`` streams and the pixel payloads built from them, at the first
such draw, so importing noclink does not load it.
"""
from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

STREAM_MAGIC = b"NESTRM"

DISTRIBUTIONS = ("uniform", "gaussian", "lognormal")

# rows per float32 block of ``gram`` and of the oracle's held words, chosen by
# timing the oracle on 10k- to 1M-row traces and the whole stream-sweep
# benchmark pass (README, "Statistics kernels"); any block of at most 2^24
# rows sums exactly, since float32 holds every integer up to 2^24
BLOCK = 1 << 15


class StreamError(ValueError):
    """Invalid stream data or stream specification."""


def word_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Unpack words into a (len, width) 0/1 matrix, bit 0 in column 0."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, axis=1, count=width, bitorder="little")
    return bits.view(np.int8)


def gram(a: np.ndarray) -> np.ndarray:
    """aᵀa of an (n, w) int8 0/±1 matrix as exact float64 counts: float32
    products of ``BLOCK``-row blocks, whose partial sums are integers within
    ±BLOCK and so exact in any order, summed in float64 (exact below 2^53
    rows).  Each block's float32 copy takes 4·BLOCK·w bytes however long
    ``a`` is."""
    out = np.zeros((a.shape[1],) * 2)
    for lo in range(0, len(a), BLOCK):
        f = a[lo:lo + BLOCK].astype(np.float32)
        out += f.T @ f
    return out


@dataclass(frozen=True)
class DataStream:
    words: np.ndarray
    width: int

    def __post_init__(self):
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        object.__setattr__(self, "words", words)
        if not 1 <= self.width <= 64:
            raise StreamError(f"stream width {self.width} is outside [1, 64]")
        if self.width < 64 and words.size and int(words.max()) >= (1 << self.width):
            raise StreamError(f"word out of range for width {self.width}")

    def __len__(self) -> int:
        return int(self.words.size)

    def bits(self) -> np.ndarray:
        """The (len, width) 0/1 matrix, unpacked once and shared read-only."""
        return self._bits

    @cached_property
    def _bits(self) -> np.ndarray:
        bits = word_bits(self.words, self.width)
        bits.flags.writeable = False
        return bits


@dataclass(frozen=True)
class BitStats:
    """Joint bit 1-probabilities S; the probability vector p is diag(S).
    ``BitStats(s)`` validates S; ``from_bits`` builds one that is valid by
    construction."""

    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=np.float64))
        self.validate()

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> BitStats:
        """S = bᵀb / n of an (n, width) int8 0/1 matrix, n >= 1.  ``gram``
        forms bᵀb as exact counts, so S is symmetric, lies in [0, 1] and has
        S_ij <= min(p_i, p_j) without a check."""
        stats = object.__new__(cls)
        object.__setattr__(stats, "s", gram(bits) / len(bits))
        return stats

    @property
    def width(self) -> int:
        return self.s.shape[0]

    @property
    def p(self) -> np.ndarray:
        return np.diag(self.s)

    def validate(self, atol: float = 1e-9) -> None:
        s = self.s
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise StreamError("S matrix must be square")
        if not np.allclose(s, s.T, atol=atol):
            raise StreamError("S matrix must be symmetric")
        if s.min() < -atol or s.max() > 1 + atol:
            raise StreamError("S entries must lie in [0, 1]")
        p = self.p
        bound = np.minimum(p[:, None], p[None, :])
        if np.any(s > bound + atol):
            raise StreamError("S_ij must not exceed min(p_i, p_j)")


@dataclass(frozen=True)
class SwitchingMatrix:
    """Per-cycle switching: diag E{db_i^2}, off-diag E{db_i^2 - db_i db_j}."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        object.__setattr__(self, "t", t)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise StreamError("switching matrix must be square")
        if not np.all(np.isfinite(t)):
            raise StreamError("switching matrix entries must be finite")

    @classmethod
    def from_products(cls, corr: np.ndarray) -> SwitchingMatrix:
        """Switching from bit-difference products ``corr[i, j] = E{db_i db_j}``
        (or their sums): ``corr_ii`` on the diagonal, ``corr_ii - corr_ij`` off it."""
        ts = np.diag(corr)
        t = ts[:, None] - corr
        np.fill_diagonal(t, ts)
        return cls(t)

    @property
    def width(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class StreamSpec:
    distribution: str
    width: int
    length: int
    sigma: float | None = None
    rho: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise StreamError(f"unknown distribution {self.distribution!r}")
        if not 1 <= self.width <= 64:
            raise StreamError(f"stream width {self.width} is outside [1, 64]")
        if self.length < 1:
            raise StreamError(f"length {self.length} must be >= 1")
        if self.seed < 0:
            raise StreamError(f"seed {self.seed} must be >= 0")
        if self.distribution in ("gaussian", "lognormal"):
            if self.sigma is None or self.rho is None:
                raise StreamError(f"{self.distribution} stream needs sigma and rho")
            lo, hi = 2.0 ** (self.width / 10.0), 2.0 ** (self.width - 1)
            if not lo <= self.sigma <= hi:
                raise StreamError(
                    f"sigma {self.sigma} outside [{lo:.3g}, {hi:.3g}] for width {self.width}"
                )
            if not 0.0 <= self.rho <= 1.0:
                raise StreamError(f"rho {self.rho} outside [0, 1]")


def _ar1_draw(
    rng: np.random.Generator, sigma: float, rho: float
) -> Callable[[int], np.ndarray]:
    """Stationary AR(1) series with variance sigma^2 and lag-1 correlation rho.

    ``draw(count)`` returns the next ``count`` >= 1 samples; draws made in
    turn equal one draw of their total length.
    """
    x0 = rng.normal(0.0, sigma)
    scale = sigma * np.sqrt(1.0 - rho * rho)
    zi = None  # lfilter state (rho times the last sample), once x0 is returned

    def draw(count: int) -> np.ndarray:
        nonlocal zi
        if rho >= 1.0:
            return np.full(count, x0)
        head = []
        if zi is None:
            head, count, zi = [x0], count - 1, np.array([rho * x0])
            if count == 0:  # lfilter returns a wrong final state for no input
                return np.array(head)
        eps = rng.normal(0.0, scale, size=count)
        # imported here because scipy.signal takes over a second to load and
        # only correlated draws need it
        from scipy.signal import lfilter

        tail, zi = lfilter([1.0], [1.0, -rho], eps, zi=zi)
        return np.concatenate((head, tail))

    return draw


def _quantize(x: np.ndarray, width: int) -> np.ndarray:
    top = float((1 << width) - 1)
    return np.clip(np.rint(x), 0.0, top).astype(np.uint64)


def _offset(width: int) -> float:
    return float(1 << (width - 1)) if width > 1 else 0.5


def stream_draw(spec: StreamSpec) -> Callable[[int], np.ndarray]:
    """``draw(count)``: the next ``count`` >= 1 words of a ``uniform`` or
    ``gaussian`` stream, unbounded by ``spec.length``.

    A ``lognormal`` stream is normalized by its whole mean and standard
    deviation, so it is only generated whole.
    """
    rng = np.random.default_rng(spec.seed)
    width = spec.width
    if spec.distribution == "uniform":
        return lambda count: rng.integers(0, 1 << width, size=count, dtype=np.uint64)
    if spec.distribution == "gaussian":
        ar1, offset = _ar1_draw(rng, spec.sigma, spec.rho), _offset(width)
        return lambda count: _quantize(ar1(count) + offset, width)
    raise StreamError(f"a {spec.distribution} stream is generated whole, not drawn")


def generate_stream(spec: StreamSpec) -> DataStream:
    """Generate a synthetic stream; deterministic for a given spec."""
    if spec.distribution != "lognormal":
        return DataStream(stream_draw(spec)(spec.length), spec.width)
    n, width = spec.length, spec.width
    w = np.exp(_ar1_draw(np.random.default_rng(spec.seed), 1.0, spec.rho)(n))
    # a constant series (rho = 1) sits at the offset; its std may round above 0
    if w.min() == w.max():
        x = np.full(n, _offset(width))
    else:
        x = (w - w.mean()) / w.std() * spec.sigma + _offset(width)
    return DataStream(_quantize(x, width), width)


def multiplex_streams(
    streams: list[DataStream], mux_prob: float, seed: int = 0
) -> tuple[DataStream, np.ndarray]:
    """Interleave streams, switching the active source with probability mux_prob.

    Each source is consumed in order and recycled from its start when
    exhausted.  The output length is the total input length.  Returns the
    interleaved stream and the per-position source-index trace.

    Draws: the generator seeded with ``seed`` first draws one uniform
    per output position (position t switches source when its uniform is
    below ``mux_prob``), then one pick per position, uniform over the
    k - 1 other sources (pick p selects source p if p < active, else
    p + 1).  Source 0 starts active and position 0 never switches.
    """
    if len(streams) < 2:
        raise StreamError("multiplexing needs at least two streams")
    width = streams[0].width
    if any(s.width != width for s in streams):
        raise StreamError("all multiplexed streams must share one width")
    if any(len(s) == 0 for s in streams):
        raise StreamError("cannot multiplex an empty stream")
    if not 0.0 <= mux_prob <= 1.0:
        raise StreamError("mux_prob must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    total = sum(len(s) for s in streams)
    k = len(streams)
    switch = rng.random(total) < mux_prob
    picks = rng.integers(0, k - 1, size=total)
    switch[0] = False

    # The source chain steps only at switch events and holds between them.
    # Over a run of equal picks p it alternates between p and p + 1; the
    # run starts at p + 1 when it is the first or p exceeds the previous
    # run's pick (the active source is then at most p), else at p.
    p = picks[switch]
    step = np.diff(p, prepend=-1)  # the first run counts as following a lower pick
    at = np.arange(p.size)
    first = np.maximum.accumulate(np.where(step != 0, at, 0))
    chain = p + ((step[first] > 0) ^ ((at - first) & 1).astype(bool))
    trace = np.concatenate(([0], chain))[np.cumsum(switch)]
    return gather_multiplexed(streams, trace), trace


def gather_multiplexed(streams: list[DataStream], trace: np.ndarray) -> DataStream:
    """The words that source trace ``trace`` takes from ``streams``, each
    source consumed in order and recycled from its start when exhausted.
    ``multiplex_streams`` draws the trace; the same trace gathers streams of
    the same lengths, such as their encodings, alike."""
    # each position's cursor is its rank among the positions of its source
    k, total = len(streams), len(trace)
    sizes = np.array([len(s) for s in streams])
    counts = np.bincount(trace, minlength=k)
    order = np.argsort(trace.astype(np.min_scalar_type(k - 1)), kind="stable")  # radix sort
    rank = np.empty(total, dtype=np.int64)
    rank[order] = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    gather = (np.cumsum(sizes) - sizes)[trace] + rank % sizes[trace]
    return DataStream(np.concatenate([s.words for s in streams])[gather], streams[0].width)


def compute_bit_stats(stream: DataStream) -> BitStats:
    if len(stream) == 0:
        raise StreamError("cannot compute bit statistics of an empty stream")
    return BitStats.from_bits(stream.bits())


def compute_sequential_switching(stream: DataStream) -> SwitchingMatrix:
    """Mean switching of consecutive words, from ``gram`` of their bit diffs."""
    if len(stream) < 2:
        raise StreamError("sequential switching needs at least two words")
    d = np.diff(stream.bits(), axis=0)
    return SwitchingMatrix.from_products(gram(d) / (len(stream) - 1))


# --- stream / matrix serialization -------------------------------------------

def write_stream_binary(path, stream: DataStream) -> None:
    with open(path, "wb") as fh:
        fh.write(STREAM_MAGIC + struct.pack("<H", stream.width))
        fh.write(stream.words.astype("<u8").tobytes())


def read_stream_binary(path) -> DataStream:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8 or header[:6] != STREAM_MAGIC:
            raise StreamError(f"{path}: not a stream file (bad magic)")
        (width,) = struct.unpack("<H", header[6:])
        body = fh.read()
    if len(body) % 8:
        raise StreamError(
            f"{path}: {8 + len(body)} bytes, not an 8-byte header plus whole 8-byte words")
    try:
        return DataStream(np.frombuffer(body, dtype="<u8").copy(), width)
    except StreamError as exc:  # a header width outside [1, 64], or a word wider
        raise StreamError(f"{path}: {exc}") from None


def write_stream_csv(path, stream: DataStream) -> None:
    np.savetxt(path, stream.words, fmt="%d")


def save_matrix_csv(path, matrix: np.ndarray, header: str) -> None:
    np.savetxt(path, np.asarray(matrix, dtype=np.float64), delimiter=",",
               header=header, comments="# ")


def load_matrix_csv(path) -> tuple[np.ndarray, str]:
    with open(path) as fh:
        first = fh.readline()
    header = first[1:].strip() if first.startswith("#") else ""
    m = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return m, header
