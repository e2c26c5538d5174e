"""Reference oracle for ulsim.topology: scalar single-link geometry and path
loss. The runtime computes every UE-site pair at once (`_wrap_geometry`,
`_loss_matrix`) and never calls these; the topology tests use them as
independent per-link references."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ulsim.config import DEFAULTS
from ulsim.topology import (PENETRATION_LOSS_DB, SECTORS_PER_SITE, SiteLayout,
                            antenna_gain_db, macro_path_loss_db)


@dataclass(frozen=True)
class Cell:
    cell_id: int
    site_id: int
    boresight_deg: float


def cells_of(layout: SiteLayout) -> list[Cell]:
    """Enumerate the sectorized cells: 3 per site, boresights 0/120/240."""
    return [
        Cell(cell_id=s * SECTORS_PER_SITE + k,
             site_id=s,
             boresight_deg=120.0 * k)
        for s in range(layout.n_sites)
        for k in range(SECTORS_PER_SITE)
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


def path_loss(ue_pos, cell: Cell, shadow_db: float, layout: SiteLayout,
              min_dist_m: float = DEFAULTS["min_dist_m"]) -> float:
    """Large-scale loss of a single UE-cell link in dB."""
    disp = wrap_displacement(layout.site_positions[cell.site_id], ue_pos, layout)
    d = float(np.hypot(*disp))
    if d < min_dist_m:
        raise ValueError(f"UE-site distance {d:.2f} m below minimum {min_dist_m} m")
    bearing = math.degrees(math.atan2(disp[1], disp[0]))
    gain = float(antenna_gain_db(bearing - cell.boresight_deg))
    return float(macro_path_loss_db(d)) + shadow_db + PENETRATION_LOSS_DB - gain
