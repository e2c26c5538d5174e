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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import SimConfig

__all__ = [
    "SiteLayout",
    "build_hex_layout",
    "drop_rng",
    "drop_seed",
    "drop_ues",
    "macro_path_loss_db",
    "antenna_gain_db",
]

SECTORS_PER_SITE = 3
PENETRATION_LOSS_DB = 20.0
SHADOW_STD_DB = 8.0
BORESIGHT_GAIN_DB = 14.0
# The random streams of a drop, each drawn from drop_rng: UE positions,
# shadowing, and the engine's per-slot fading.
POSITION_STREAM, SHADOW_STREAM, FADING_STREAM = 0, 1, 2
# Points per block of _wrap_geometry: a block's displacements, 7 wraps x 19
# sites x 2 coordinates each, take 0.5 MB.
_GEOMETRY_BLOCK = 256


@dataclass(frozen=True)
class SiteLayout:
    """Immutable hexagonal site layout with wrap-around translations."""

    site_positions: np.ndarray          # (n_sites, 2) meters
    wrap_vectors: np.ndarray            # (7, 2); row 0 is the identity

    @property
    def n_sites(self) -> int:
        return self.site_positions.shape[0]

    @property
    def n_cells(self) -> int:
        return self.n_sites * SECTORS_PER_SITE


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
    cluster copy per fundamental domain. SimConfig checks rings and isd.
    """
    a1 = np.array([isd, 0.0])
    a2 = np.array([isd / 2.0, isd * math.sqrt(3.0) / 2.0])

    sites = np.array([q * a1 + r * a2 for q, r in _hex_sites(rings)])

    shift = (rings + 1, rings)
    wraps = [np.zeros(2)]
    q, r = shift
    for _ in range(6):
        wraps.append(q * a1 + r * a2)
        q, r = _axial_rot60(q, r)
    return SiteLayout(site_positions=sites, wrap_vectors=np.array(wraps))


def _voronoi_reduce(points: np.ndarray, layout: SiteLayout) -> np.ndarray:
    """Map points into the Voronoi cell of the wrap lattice around the origin."""
    basis = np.stack([layout.wrap_vectors[1], layout.wrap_vectors[2]], axis=1)
    coeffs = np.linalg.solve(basis, points.T).T
    base = np.round(coeffs)
    offsets = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)])
    cand = points[:, None, :] - (base[:, None, :] + offsets[None, :, :]) @ basis.T
    best = np.argmin(np.einsum("nkd,nkd->nk", cand, cand), axis=1)
    return cand[np.arange(len(points)), best]


def _wrap_geometry(points: np.ndarray, layout: SiteLayout):
    """Distance and bearing (deg) from every site to every point, wrap-aware.

    Works _GEOMETRY_BLOCK points at a time, so that the (points, wraps,
    sites, 2) displacement array stays small; every point's result is the
    same as in one pass over all points.
    """
    n, sites = points.shape[0], layout.n_sites
    dist, bearing = np.empty((2, n, sites))
    s_idx = np.arange(sites)[None, :]
    for a in range(0, n, _GEOMETRY_BLOCK):
        block = points[a:a + _GEOMETRY_BLOCK]
        diffs = (block[:, None, None, :]
                 + layout.wrap_vectors[None, :, None, :]
                 - layout.site_positions[None, None, :, :])
        d2 = np.einsum("nwsd,nwsd->nws", diffs, diffs)
        k = np.argmin(d2, axis=1)                   # (block, s)
        n_idx = np.arange(len(block))[:, None]
        chosen = diffs[n_idx, k, s_idx]             # (block, s, 2)
        dist[a:a + _GEOMETRY_BLOCK] = np.sqrt(d2[n_idx, k, s_idx])
        bearing[a:a + _GEOMETRY_BLOCK] = np.degrees(
            np.arctan2(chosen[..., 1], chosen[..., 0]))
    return dist, bearing


def macro_path_loss_db(distance_m) -> np.ndarray:
    """Macrocell distance loss: 128.1 + 37.6 log10(d_km)."""
    return 128.1 + 37.6 * np.log10(np.asarray(distance_m, dtype=float) / 1000.0)


def antenna_gain_db(angle_off_deg):
    """Sectorized 2D pattern: boresight gain - min(12*(theta/70)^2, 25) dB."""
    off = np.abs((np.asarray(angle_off_deg, dtype=float) + 180.0) % 360.0 - 180.0)
    return BORESIGHT_GAIN_DB - np.minimum(12.0 * (off / 70.0) ** 2, 25.0)


def drop_seed(seed: int, drop_index: int) -> int:
    """Topology and fading seed of one drop, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, drop_index]).generate_state(1)[0])


def drop_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one of a drop's random streams (POSITION_STREAM,
    SHADOW_STREAM, FADING_STREAM), given the drop's seed (see drop_seed)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _shadow_draws(n_ues: int, n_sites: int, seed: int) -> np.ndarray:
    """Per-(UE, site) log-normal shadowing, shared by co-site sectors."""
    rng = drop_rng(seed, SHADOW_STREAM)
    return rng.normal(0.0, SHADOW_STD_DB, size=(n_ues, n_sites))


def _loss_matrix(positions: np.ndarray, shadow: np.ndarray,
                 layout: SiteLayout) -> np.ndarray:
    """(n_ues, n_cells) loss matrix from positions and per-site shadowing."""
    dist, bearing = _wrap_geometry(positions, layout)
    base = macro_path_loss_db(dist) + shadow + PENETRATION_LOSS_DB  # (n, s)
    n_cells = layout.n_cells
    loss = np.empty((positions.shape[0], n_cells))
    for k in range(SECTORS_PER_SITE):
        gain = antenna_gain_db(bearing - 120.0 * k)
        loss[:, k::SECTORS_PER_SITE] = base - gain
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
        ok = _wrap_geometry(pts, layout)[0].min(axis=1) >= min_dist
        kept = pts[ok]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    return out


def drop_ues(config: SimConfig,
             seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop ues_per_cell * n_cells UEs uniformly over the wrapped network area.

    Positions closer than min_dist_m to a site are rejection-resampled.
    Returns the (n, 2) positions, each UE's serving cell and the full
    (UE x cell) loss matrix; deterministic given seed. Each UE attaches to
    the cell with the lowest loss in that matrix (ties by lowest cell_id).
    """
    layout = config.layout
    n = config.ues_per_cell * layout.n_cells
    positions = _sample_positions(layout, n, config.min_dist_m,
                                  drop_rng(seed, POSITION_STREAM))
    shadow = _shadow_draws(n, layout.n_sites, seed)
    loss = _loss_matrix(positions, shadow, layout)
    return positions, np.argmin(loss, axis=1), loss
