"""Hexagonal multicell layout, wrap-around geometry and large-scale path loss.

The layout is a hexagonal cluster of sites (19 sites for the standard two-ring
macrocell deployment) with toroidal wrap-around: the cluster tiles the plane
under six lattice translations, so every distance is measured on the quotient
torus and there are no border effects.

Large-scale loss per link = macro distance loss + log-normal shadowing +
penetration loss - sectorized antenna gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SiteLayout",
    "Cell",
    "PathLossMap",
    "build_hex_layout",
    "cells_of",
    "wrap_distance",
    "wrap_displacement",
    "drop_ues",
    "macro_path_loss_db",
    "antenna_gain_db",
    "path_loss",
]

SECTORS_PER_SITE = 3
PENETRATION_LOSS_DB = 20.0
SHADOW_STD_DB = 8.0
BORESIGHT_GAIN_DB = 14.0
MIN_UE_SITE_DISTANCE_M = 35.0


@dataclass(frozen=True)
class SiteLayout:
    """Immutable hexagonal site layout with wrap-around translations."""

    site_positions: np.ndarray          # (n_sites, 2) meters
    sectors_per_site: int
    inter_site_distance: float
    wrap_vectors: np.ndarray            # (7, 2); row 0 is the identity
    rings: int

    @property
    def n_sites(self) -> int:
        return self.site_positions.shape[0]

    @property
    def n_cells(self) -> int:
        return self.n_sites * self.sectors_per_site


@dataclass(frozen=True)
class Cell:
    cell_id: int
    site_id: int
    boresight_deg: float


@dataclass(frozen=True)
class PathLossMap:
    """Full (UE x cell) large-scale loss matrix in dB.

    Serving-link losses, cross losses toward neighbor cells and minimum
    neighbor losses are all reads of this single matrix.
    """

    loss_db: np.ndarray                 # (n_ues, n_cells)

    def serving_loss(self, ue_id: int, serving_cell: int) -> float:
        return float(self.loss_db[ue_id, serving_cell])

    def cross_losses(self, ue_id: int, serving_cell: int) -> np.ndarray:
        """Losses toward every non-serving cell, ascending."""
        row = np.delete(self.loss_db[ue_id], serving_cell)
        return np.sort(row)

    def min_cross_loss(self, ue_id: int, serving_cell: int) -> float:
        return float(self.cross_losses(ue_id, serving_cell)[0])


def _axial_rot60(q: int, r: int) -> tuple[int, int]:
    # 60-degree rotation on the hexagonal lattice preserves q^2 + q*r + r^2.
    return (-r, q + r)


def _hex_sites(rings: int) -> list[tuple[int, int]]:
    coords = [
        (q, r)
        for q in range(-rings, rings + 1)
        for r in range(-rings, rings + 1)
        if abs(q + r) <= rings
    ]
    coords.sort()
    return coords


def build_hex_layout(rings: int, isd: float) -> SiteLayout:
    """Build an n-ring hexagonal site cluster with exact wrap-around.

    rings=2 gives the standard 19-site / 57-cell macrocell deployment.
    The wrap translations are the six rotations of the cluster shift vector
    (rings+1, rings) in lattice coordinates, which tiles the plane with one
    cluster copy per fundamental domain.
    """
    if isd <= 0:
        raise ValueError(f"isd_m: must be positive, got {isd}")
    if rings < 0:
        raise ValueError(f"rings: must be >= 0, got {rings}")

    a1 = np.array([isd, 0.0])
    a2 = np.array([isd / 2.0, isd * math.sqrt(3.0) / 2.0])

    sites = np.array([q * a1 + r * a2 for q, r in _hex_sites(rings)])

    shift = (rings + 1, rings)
    wraps = [np.zeros(2)]
    q, r = shift
    for _ in range(6):
        wraps.append(q * a1 + r * a2)
        q, r = _axial_rot60(q, r)
    return SiteLayout(
        site_positions=sites,
        sectors_per_site=SECTORS_PER_SITE,
        inter_site_distance=float(isd),
        wrap_vectors=np.array(wraps),
        rings=rings,
    )


def cells_of(layout: SiteLayout) -> list[Cell]:
    """Enumerate the sectorized cells: 3 per site, boresights 0/120/240."""
    return [
        Cell(cell_id=s * layout.sectors_per_site + k,
             site_id=s,
             boresight_deg=120.0 * k)
        for s in range(layout.n_sites)
        for k in range(layout.sectors_per_site)
    ]


def wrap_displacement(origin, point, layout: SiteLayout) -> np.ndarray:
    """Shortest displacement origin -> point on the wrap-around torus."""
    diffs = np.asarray(point) + layout.wrap_vectors - np.asarray(origin)
    k = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
    return diffs[k]


def wrap_distance(p, q, layout: SiteLayout) -> float:
    """Toroidal distance: minimum over wrap translations of |p - (q + w)|."""
    diffs = np.asarray(q) + layout.wrap_vectors - np.asarray(p)
    return float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).min()))


def _voronoi_reduce(points: np.ndarray, layout: SiteLayout) -> np.ndarray:
    """Map points into the Voronoi cell of the wrap lattice around the origin."""
    basis = np.stack([layout.wrap_vectors[1], layout.wrap_vectors[2]], axis=1)
    coeffs = np.linalg.solve(basis, points.T).T
    base = np.round(coeffs)
    offsets = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)])
    cand = points[:, None, :] - (base[:, None, :] + offsets[None, :, :]) @ basis.T
    best = np.argmin(np.einsum("nkd,nkd->nk", cand, cand), axis=1)
    return cand[np.arange(len(points)), best]


def _site_distances(points: np.ndarray, layout: SiteLayout) -> np.ndarray:
    """Min over wrap images of the point-to-site distance, per (point, site)."""
    # (n, w, s, 2)
    diffs = (points[:, None, None, :] + layout.wrap_vectors[None, :, None, :]
             - layout.site_positions[None, None, :, :])
    d2 = np.einsum("nwsd,nwsd->nws", diffs, diffs)
    return np.sqrt(d2.min(axis=1))


def _wrap_geometry(points: np.ndarray, layout: SiteLayout):
    """Distance and bearing (deg) from every site to every point, wrap-aware."""
    diffs = (points[:, None, None, :] + layout.wrap_vectors[None, :, None, :]
             - layout.site_positions[None, None, :, :])
    d2 = np.einsum("nwsd,nwsd->nws", diffs, diffs)
    k = np.argmin(d2, axis=1)                       # (n, s)
    n_idx = np.arange(points.shape[0])[:, None]
    s_idx = np.arange(layout.n_sites)[None, :]
    chosen = diffs[n_idx, k, s_idx]                 # (n, s, 2)
    dist = np.sqrt(d2[n_idx, k, s_idx])
    bearing = np.degrees(np.arctan2(chosen[..., 1], chosen[..., 0]))
    return dist, bearing


def macro_path_loss_db(distance_m) -> np.ndarray:
    """Macrocell distance loss: 128.1 + 37.6 log10(d_km)."""
    return 128.1 + 37.6 * np.log10(np.asarray(distance_m, dtype=float) / 1000.0)


def antenna_gain_db(angle_off_deg, boresight_gain_db: float = BORESIGHT_GAIN_DB):
    """Sectorized 2D pattern: boresight gain - min(12*(theta/70)^2, 25) dB."""
    off = np.abs((np.asarray(angle_off_deg, dtype=float) + 180.0) % 360.0 - 180.0)
    return boresight_gain_db - np.minimum(12.0 * (off / 70.0) ** 2, 25.0)


def path_loss(ue_pos, cell: Cell, shadow_db: float, layout: SiteLayout,
              boresight_gain_db: float = BORESIGHT_GAIN_DB,
              min_dist_m: float = MIN_UE_SITE_DISTANCE_M) -> float:
    """Large-scale loss of a single UE-cell link in dB."""
    disp = wrap_displacement(layout.site_positions[cell.site_id], ue_pos, layout)
    d = float(np.hypot(*disp))
    if d < min_dist_m:
        raise ValueError(f"UE-site distance {d:.2f} m below minimum {min_dist_m} m")
    bearing = math.degrees(math.atan2(disp[1], disp[0]))
    gain = float(antenna_gain_db(bearing - cell.boresight_deg, boresight_gain_db))
    return float(macro_path_loss_db(d)) + shadow_db + PENETRATION_LOSS_DB - gain


def _pos_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0]))


def _shadow_draws(n_ues: int, n_sites: int, seed: int,
                  std_db: float = SHADOW_STD_DB) -> np.ndarray:
    """Per-(UE, site) log-normal shadowing, shared by co-site sectors."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    return rng.normal(0.0, std_db, size=(n_ues, n_sites))


def _loss_matrix(positions: np.ndarray, shadow: np.ndarray,
                 layout: SiteLayout) -> np.ndarray:
    """(n_ues, n_cells) loss matrix from positions and per-site shadowing."""
    dist, bearing = _wrap_geometry(positions, layout)
    base = macro_path_loss_db(dist) + shadow + PENETRATION_LOSS_DB  # (n, s)
    n_cells = layout.n_cells
    loss = np.empty((positions.shape[0], n_cells))
    for k in range(layout.sectors_per_site):
        gain = antenna_gain_db(bearing - 120.0 * k)
        loss[:, k::layout.sectors_per_site] = base - gain
    return loss


def _sample_positions(layout: SiteLayout, n: int, min_dist: float,
                      rng: np.random.Generator) -> np.ndarray:
    basis = np.stack([layout.wrap_vectors[1], layout.wrap_vectors[2]], axis=1)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        need = n - filled
        frac = rng.uniform(-0.5, 0.5, size=(need, 2))
        pts = _voronoi_reduce(frac @ basis.T, layout)
        ok = _site_distances(pts, layout).min(axis=1) >= min_dist
        kept = pts[ok]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    return out


def drop_ues(layout: SiteLayout, ues_per_cell: int,
             min_dist: float = MIN_UE_SITE_DISTANCE_M,
             seed: int = 0) -> tuple[np.ndarray, np.ndarray, PathLossMap]:
    """Drop ues_per_cell * n_cells UEs uniformly over the wrapped network area.

    Positions violating the minimum site distance are rejection-resampled.
    Returns the (n, 2) positions, each UE's serving cell and the full
    (UE x cell) loss matrix; deterministic given seed. Each UE attaches to
    the cell with the lowest loss in that matrix (ties by lowest cell_id).
    """
    n = ues_per_cell * layout.n_cells
    positions = _sample_positions(layout, n, min_dist, _pos_rng(seed))
    shadow = _shadow_draws(n, layout.n_sites, seed)
    loss = _loss_matrix(positions, shadow, layout)
    return positions, np.argmin(loss, axis=1), PathLossMap(loss_db=loss)
