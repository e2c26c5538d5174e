"""dB / linear conversion helpers used throughout the simulator."""

from __future__ import annotations

import numpy as np

__all__ = ["db_to_linear"]


def db_to_linear(db):
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)
