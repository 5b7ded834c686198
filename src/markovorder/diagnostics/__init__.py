"""Proof-side quantities and Monte Carlo verification of the tail bounds."""

from .core import (
    BoundParams,
    bernstein_norm,
    bernstein_tail_bound,
    bracket_grid,
    bracket_log_envelopes,
    entropy_bound,
    event_F,
    hellinger_path_distance,
    hellinger_stationary_distance,
    phi,
    typicality_check,
)
from .mc import (
    BernsteinMcReport,
    BracketCountReport,
    DeviationTailReport,
    InstanceBatteryReport,
    LilTrajectoryReport,
    bernstein_mc_check,
    bracket_battery,
    bracket_count_check,
    deviation_tail_mc,
    hellinger_sandwich_battery,
    lil_trajectory,
    norm_bound_battery,
    typicality_trend,
)
