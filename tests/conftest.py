"""Shared fixtures: the default configuration and small reusable layouts."""

import numpy as np
import pytest

from ulsim.config import SimConfig
from ulsim.topology import build_hex_layout


@pytest.fixture(scope="session")
def config():
    return SimConfig()


@pytest.fixture(scope="session")
def layout():
    return build_hex_layout(rings=2, isd=500.0)


@pytest.fixture(scope="session")
def small_layout():
    return build_hex_layout(rings=1, isd=500.0)


def make_snapshot(loss_db, serving):
    """Synthetic (serving, loss_db) drop from an explicit loss matrix (no
    geometry), as build_snapshot returns it."""
    return np.asarray(serving), np.asarray(loss_db, dtype=float)


def gains_of(loss_db):
    """Large-scale linear channel gains of a loss matrix, as simulate's."""
    return 10.0 ** (-np.asarray(loss_db, dtype=float) / 10.0)


def maxpower_config(**kw):
    return SimConfig(scheme="maxpower", **kw)


def cnb_config(zeta=1.3, **kw):
    return SimConfig(scheme="cnb", zeta=zeta, **kw)
