"""Key-rate bounds and Monte Carlo simulation for a single-state
semi-quantum key distribution protocol under collective attacks."""

from .attacks import (
    RestrictedAttack,
    Statistics,
    compute_statistics,
    depolarizing_attack,
    load_attack,
)
from .keyrate import (
    KeyRateReport,
    depolarizing_bound,
    depolarizing_stats,
    key_rate_bound,
    load_statistics,
    threshold_b,
    threshold_q,
    x_error_from_bias,
)
from .protocol import (
    EstimatedStatistics,
    ProtocolConfig,
    ProtocolTranscript,
    run_protocol,
)

__all__ = [
    "RestrictedAttack",
    "Statistics",
    "compute_statistics",
    "depolarizing_attack",
    "load_attack",
    "KeyRateReport",
    "depolarizing_bound",
    "depolarizing_stats",
    "key_rate_bound",
    "load_statistics",
    "threshold_b",
    "threshold_q",
    "x_error_from_bias",
    "EstimatedStatistics",
    "ProtocolConfig",
    "ProtocolTranscript",
    "run_protocol",
]
