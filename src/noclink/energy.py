"""Capacitance models and link energy evaluation for 2D and 3D links.

Capacitances are held in attofarads.  The "normalized" energy of a link
is the Frobenius inner product of a switching matrix with a capacitance
matrix and therefore also carries aF; the absolute energy per cycle is
normalized * V_dd^2 / 2, reported in femtojoules.

For 3D (TSV) links the capacitance depends linearly on the bit 1-
probabilities: C_ij = C_T0,ij + dC_T,ij * (p_i + p_j).  dC_T is stored
signed exactly as provided (negative for the usual p-doped substrate).

Pricing a link lives here, for the link model and the bit-level oracle
alike: a model's ``kind``, its matrix ``at(p)`` and ``normalized_energy``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .streams import SwitchingMatrix, load_matrix_csv, save_matrix_csv


class CapacitanceError(ValueError):
    """Invalid capacitance model."""


def _check_square_symmetric(c: np.ndarray, name: str) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise CapacitanceError(f"{name}: capacitance matrix must be square")
    if not np.isfinite(c).all():
        raise CapacitanceError(f"{name}: non-finite capacitance entry")
    scale = max(np.abs(c).max(), 1.0)
    if np.abs(c - c.T).max() > 1e-12 * scale:
        raise CapacitanceError(f"{name}: asymmetric capacitance matrix")
    return c


@dataclass(frozen=True)
class Capacitance2D:
    """Metal-wire bus: ground capacitances on the diagonal, coupling off it."""

    kind: ClassVar[str] = "2d"
    c: np.ndarray

    def __post_init__(self):
        c = _check_square_symmetric(self.c, "2d model")
        object.__setattr__(self, "c", c)
        if c.min() < 0:
            raise CapacitanceError("2d model: negative capacitance entry")

    @property
    def width(self) -> int:
        return self.c.shape[0]

    def at(self, p: np.ndarray | None = None) -> np.ndarray:
        """The capacitance matrix, the same at any bit probabilities."""
        return self.c


@dataclass(frozen=True)
class Capacitance3D:
    """TSV array: zero-probability capacitances C_T0 and slope dC_T."""

    kind: ClassVar[str] = "3d"
    ct0: np.ndarray
    dct: np.ndarray

    def __post_init__(self):
        ct0 = _check_square_symmetric(self.ct0, "3d model C_T0")
        dct = _check_square_symmetric(self.dct, "3d model dC_T")
        if ct0.shape != dct.shape:
            raise CapacitanceError(
                f"3d model: dimension mismatch {ct0.shape} vs {dct.shape}"
            )
        if np.diag(ct0).min() < 0:
            raise CapacitanceError("3d model: negative diagonal in C_T0")
        if (ct0 + 2.0 * dct).min() < -1e-12:
            raise CapacitanceError("3d model: capacitance goes negative at p = 1")
        object.__setattr__(self, "ct0", ct0)
        object.__setattr__(self, "dct", dct)

    @property
    def width(self) -> int:
        return self.ct0.shape[0]

    def at(self, p: np.ndarray) -> np.ndarray:
        """C_T0 + dC_T (p_i + p_j) at bit probabilities ``p``."""
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.width,):
            raise CapacitanceError(
                f"probability vector length {p.shape} does not match width {self.width}"
            )
        if p.min() < -1e-12 or p.max() > 1 + 1e-12:
            raise CapacitanceError("bit probabilities must lie in [0, 1]")
        return self.ct0 + self.dct * (p[:, None] + p[None, :])


Capacitance = Capacitance2D | Capacitance3D  # a link's model, priced through ``at(p)``


@dataclass(frozen=True)
class TechnologyParams:
    vdd: float
    clock_period: float  # seconds

    def __post_init__(self):
        if self.vdd <= 0 or self.clock_period <= 0:
            raise CapacitanceError("V_dd and clock period must be positive")


def absolute_energy_fj(normalized_af: float, tech: TechnologyParams) -> float:
    """Convert normalized energy (aF) to femtojoules: E = C * V_dd^2 / 2."""
    return normalized_af * 1e-3 * tech.vdd ** 2 / 2.0


def template_2d_bus(
    n: int, c_ground: float, c_couple: float, neighbor_range: int = 1
) -> Capacitance2D:
    """Regular bus: coupling c_couple / |i-j| up to the given neighbor range."""
    if n < 1 or neighbor_range < 1 or c_ground < 0 or c_couple < 0:
        raise CapacitanceError("invalid 2d bus template parameters")
    c = np.zeros((n, n))
    for d in range(1, neighbor_range + 1):
        val = c_couple / d
        c += np.diag(np.full(n - d, val), k=d) + np.diag(np.full(n - d, val), k=-d)
    np.fill_diagonal(c, c_ground)
    return Capacitance2D(c)


def template_3d_tsv(
    rows: int,
    cols: int,
    c0_neighbor: float,
    dc_neighbor: float,
    c0_ground: float,
    dc_ground: float,
) -> Capacitance3D:
    """Square-grid TSV array: side neighbors at weight 1, diagonals at 1/sqrt(2)."""
    n = rows * cols
    if rows < 1 or cols < 1:
        raise CapacitanceError("grid/width mismatch in 3d template")
    ct0 = np.zeros((n, n))
    dct = np.zeros((n, n))
    diag_w = 1.0 / np.sqrt(2.0)
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for dr, dc_, w in (
                (0, 1, 1.0), (1, 0, 1.0), (1, 1, diag_w), (1, -1, diag_w),
            ):
                rr, cc = r + dr, c + dc_
                if 0 <= rr < rows and 0 <= cc < cols:
                    j = rr * cols + cc
                    ct0[i, j] = ct0[j, i] = c0_neighbor * w
                    dct[i, j] = dct[j, i] = dc_neighbor * w
    np.fill_diagonal(ct0, c0_ground)
    np.fill_diagonal(dct, dc_ground)
    return Capacitance3D(ct0, dct)


def normalized_energy(t: SwitchingMatrix, cap: Capacitance, p: np.ndarray | None = None) -> float:
    """Normalized link energy per cycle: Frobenius product <T, C(p)> (aF);
    ``p`` (the bit probabilities) matters to 3D models only.  The model and
    the oracle share this sum, diagonal first: the oracle's tests pin that order."""
    if t.width != cap.width:
        raise CapacitanceError(
            f"switching width {t.width} does not match capacitance width {cap.width}"
        )
    c = cap.at(p)
    coupling = c - np.diag(np.diag(c))  # C with its diagonal zeroed
    return float(np.sum(np.diag(c) * np.diag(t.t))) + float(np.sum(t.t * coupling))


# --- serialization ------------------------------------------------------------

def _model_base(path) -> str:
    """The stem of a 3d model's ``.ct0.csv`` and ``.dct.csv`` files."""
    base = str(path)
    for suffix in (".ct0.csv", ".dct.csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return base


def save_capacitance_model(path, model: Capacitance) -> None:
    header = f"kind={model.kind} units=aF N={model.width}"
    if model.kind == "2d":
        save_matrix_csv(path, model.c, header)
    else:
        base = _model_base(path)
        save_matrix_csv(base + ".ct0.csv", model.ct0, header)
        save_matrix_csv(base + ".dct.csv", model.dct, header)


def load_capacitance_model(path, kind: str) -> Capacitance:
    if kind == "2d":
        m, _ = load_matrix_csv(path)
        return Capacitance2D(m)
    if kind == "3d":
        base = _model_base(path)
        ct0, _ = load_matrix_csv(base + ".ct0.csv")
        dct, _ = load_matrix_csv(base + ".dct.csv")
        return Capacitance3D(ct0, dct)
    raise CapacitanceError(f"unknown capacitance model kind {kind!r}")
