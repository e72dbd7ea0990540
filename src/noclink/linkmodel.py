"""Link switching and bit-probability estimation under VC multiplexing.

The link model combines per-data-type statistics with a data-flow matrix
M recorded during simulation.  M is a 2n x 2n joint distribution over
consecutive link-cycle state pairs: states 0..n-1 mean "transmitting a
flit of type x", states n..2n-1 mean "idle, link holds the last pattern
of type x".  Head flits are type n-1 by convention.  M is stored over the
k types a link carried, as the others have no mass, and priced over them.

Cross-type switching uses only the S matrices of the two streams (the
cross-correlation of distinct sources is taken as zero); same-type
switching always comes from the measured sequential statistics.  Each
estimate is one closed form over the per-type arrays of ``LinkTypeStats``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .energy import Capacitance, TechnologyParams, absolute_energy_fj, normalized_energy
from .streams import BitStats, SwitchingMatrix, load_matrix_csv, save_matrix_csv


class LinkModelError(ValueError):
    """Inconsistent link-model inputs."""


def embed_states(m: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """``m``, over the states of k types, in the 2 size x 2 size matrix over
    ``size`` types where those types sit at ``at``; zeros elsewhere."""
    at = np.concatenate((at, size + at))
    out = np.zeros((2 * size, 2 * size), dtype=m.dtype)
    out[at[:, None], at] = m
    return out


@dataclass(frozen=True)
class DataFlowMatrix:
    """Joint probabilities of consecutive link-cycle states: ``compact``
    over the k ascending ``types`` (all n by default), where state i < k
    transmits ``types[i]`` and k + i holds it; ``m`` over all n types."""

    compact: np.ndarray
    n: int
    types: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "compact", np.asarray(self.compact, dtype=np.float64))
        types = np.arange(self.n) if self.types is None else np.asarray(self.types)
        object.__setattr__(self, "types", types)
        self.validate()

    @property
    def k(self) -> int:
        return len(self.types)

    @property
    def m(self) -> np.ndarray:
        """M over all n types, built on each read."""
        return embed_states(self.compact, self.types, self.n)

    def validate(self, atol: float = 1e-9) -> None:
        n, m = self.k, self.compact
        if m.shape != (2 * n, 2 * n):
            raise LinkModelError(f"M must be {2 * n}x{2 * n}, got {m.shape}")
        if m.min() < -atol:
            raise LinkModelError("M entries must be non-negative")
        if abs(m.sum() - 1.0) > max(atol, 1e-9):
            raise LinkModelError(f"M entries must sum to 1, got {m.sum()}")
        # off the diagonal, M[n + x, n + y] (idle to idle) and M[x, n + y]
        # (active to idle) must be zero; the first (x, y) in row-major
        # order that breaks either names the error, idle to idle first
        off = ~np.eye(n, dtype=bool)
        idle = (m[n:, n:] > atol) & off
        bad = idle | ((m[:n, n:] > atol) & off)
        if bad.any():
            if idle.flat[bad.argmax()]:
                raise LinkModelError("idle cycles cannot change the held type")
            raise LinkModelError("entering idle must preserve the held type")

    def active_fraction(self) -> float:
        """Fraction of link cycles that transmit a flit."""
        return float(self.compact[:, : self.k].sum())

    def carried_frequencies(self) -> np.ndarray:
        """Per carried type, the fraction of link cycles transmitting it."""
        return self.compact[:, : self.k].sum(axis=0)


@dataclass(frozen=True)
class LinkTypeStats:
    """Per-type bit statistics and sequential switching, head type last;
    ``s`` (n, w, w), ``p`` (n, w) and ``t_seq`` (n, w, w) stack them."""

    bit_stats: list[BitStats]
    seq_switching: list[SwitchingMatrix]
    s: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)
    t_seq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bit_stats) != len(self.seq_switching):
            raise LinkModelError("bit stats / switching count mismatch")
        if not self.bit_stats:
            raise LinkModelError("need statistics for at least one type")
        width = self.bit_stats[0].width
        for bs, sw in zip(self.bit_stats, self.seq_switching):
            if bs.width != width or sw.width != width:
                raise LinkModelError("all per-type matrices must share one width")
        s = np.stack([bs.s for bs in self.bit_stats])
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", s.diagonal(axis1=1, axis2=2).copy())
        object.__setattr__(self, "t_seq", np.stack([sw.t for sw in self.seq_switching]))

    @property
    def n(self) -> int:
        return len(self.bit_stats)

    @property
    def width(self) -> int:
        return self.bit_stats[0].width


def mux_switching(sx: BitStats, sy: BitStats) -> SwitchingMatrix:
    """Switching matrix for a type-x pattern followed by a type-y pattern.

    E{db_i db_j} = S^y_ij + S^x_ij - p^y_i p^x_j - p^x_i p^y_j, assuming
    zero cross-correlation between the two streams.
    """
    if sx.width != sy.width:
        raise LinkModelError("mux switching needs equal stream widths")
    px, py = sx.p, sy.p
    return SwitchingMatrix.from_products(
        sy.s + sx.s - np.outer(py, px) - np.outer(px, py))


def _check_dims(stats: LinkTypeStats, m: DataFlowMatrix) -> None:
    if stats.n != m.k:
        raise LinkModelError(f"type count mismatch: stats n={stats.n}, M carries {m.k}")


def link_switching(stats: LinkTypeStats, m: DataFlowMatrix) -> SwitchingMatrix:
    """Mean per-cycle link switching: sum of (M_xy + M_{x+n,y}) T^{x->y}.

    ``mux_switching`` is linear in S and p, so with Wo the pair weights off
    the diagonal the cross-type sum is ``from_products`` of
    sum_k (Wo's column + row sum)_k S_k - P^T (Wo + Wo^T) P.
    """
    _check_dims(stats, m)
    k, mc, p = m.k, m.compact, stats.p
    w = mc[:k, :k] + mc[k:, :k]
    wo = w - np.diag(np.diag(w))
    corr = np.einsum("k,kij->ij", wo.sum(0) + wo.sum(1), stats.s) - p.T @ (wo + wo.T) @ p
    t = SwitchingMatrix.from_products(corr).t + np.einsum("k,kij->ij", np.diag(w), stats.t_seq)
    return SwitchingMatrix(t)


def standard_link_switching(stats: LinkTypeStats, m: DataFlowMatrix) -> SwitchingMatrix:
    """VC-blind baseline: per-type active frequencies weight sequential T only."""
    _check_dims(stats, m)
    return SwitchingMatrix(np.einsum("k,kij->ij", m.carried_frequencies(), stats.t_seq))


def link_bit_probabilities(
    stats: LinkTypeStats, m: DataFlowMatrix, literal: bool = False
) -> np.ndarray:
    """Mean held-value bit probabilities of the link.

    The printed formula omits idle->idle cycles; by default the weight
    sum is completed with the idle->idle mass so that the result is a
    true probability.  ``literal=True`` reproduces the uncorrected form.
    """
    _check_dims(stats, m)
    k, mc = m.k, m.compact
    w = mc[:, :k].sum(0) + mc[:k, k:].sum(0)
    if not literal:
        w = w + np.diag(mc[k:, k:])
    return w @ stats.p


@dataclass(frozen=True)
class LinkEnergyReport:
    link: str
    kind: str  # "2d" | "3d"
    normalized_per_cycle_af: float
    energy_per_cycle_fj: float
    active_fraction: float
    energy_per_flit_fj: Optional[float]
    payload_bytes_per_cycle: float
    energy_per_byte_fj: Optional[float]
    std_normalized_per_cycle_af: float
    std_energy_per_cycle_fj: float
    std_energy_per_flit_fj: Optional[float]
    std_energy_per_byte_fj: Optional[float]
    p_link: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["p_link"] = None if self.p_link is None else list(map(float, self.p_link))
        return d


def link_energy_report(
    stats: LinkTypeStats,
    m: DataFlowMatrix,
    cap: Capacitance,
    tech: TechnologyParams,
    *,
    link: str = "",
    payload_bits: int | None = None,
    head_type: int | None = None,
    eq11_literal: bool = False,
) -> LinkEnergyReport:
    """Per-cycle, per-flit and per-payload-byte energy for one link.

    ``payload_bits`` is the number of effective payload bits carried by a
    body flit (the uncoded width when a codec adds wires); head flits
    carry no payload.
    """
    t_link = link_switching(stats, m)
    t_std = standard_link_switching(stats, m)
    p_link = link_bit_probabilities(stats, m, literal=eq11_literal)
    e_norm = normalized_energy(t_link, cap, p_link)
    e_std = normalized_energy(t_std, cap, p_link)

    active = m.active_fraction()
    freqs = m.carried_frequencies()
    bits = stats.width if payload_bits is None else payload_bits
    body = freqs.sum() if head_type is None else freqs.sum() - freqs[m.types == head_type].sum()
    bytes_per_cycle = body * bits / 8.0

    e_cyc = absolute_energy_fj(e_norm, tech)
    e_std_cyc = absolute_energy_fj(e_std, tech)

    def per(val: float, denom: float) -> Optional[float]:
        return val / denom if denom > 0.0 else None

    return LinkEnergyReport(
        link=link,
        kind=cap.kind,
        normalized_per_cycle_af=e_norm,
        energy_per_cycle_fj=e_cyc,
        active_fraction=active,
        energy_per_flit_fj=per(e_cyc, active),
        payload_bytes_per_cycle=bytes_per_cycle,
        energy_per_byte_fj=per(e_cyc, bytes_per_cycle),
        std_normalized_per_cycle_af=e_std,
        std_energy_per_cycle_fj=e_std_cyc,
        std_energy_per_flit_fj=per(e_std_cyc, active),
        std_energy_per_byte_fj=per(e_std_cyc, bytes_per_cycle),
        p_link=p_link,
    )


def save_data_flow_matrix(path, m: DataFlowMatrix, cycles: int, link: str) -> None:
    save_matrix_csv(path, m.m, f"n={m.n} cycles={cycles} link={link}")


def load_data_flow_matrix(path) -> tuple[DataFlowMatrix, int, str]:
    mat, header = load_matrix_csv(path)
    tags = dict(tok.split("=", 1) for tok in header.split() if "=" in tok)
    n = int(tags["n"])
    cycles = int(tags.get("cycles", 0))
    link = tags.get("link", "")
    return DataFlowMatrix(mat, n), cycles, link
