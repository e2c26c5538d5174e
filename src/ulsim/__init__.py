"""System-level uplink multicell simulator with coordinated power control."""

from .config import SimConfig
from .engine import MetricsAccumulator, run, run_drop
from .report import RunSummary, SweepResult, run_config, run_sweep, summarize
from .scheduler import pf_update
from .topology import SiteLayout, build_hex_layout

__version__ = "0.1.0"
