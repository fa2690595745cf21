"""Energy model for camera-class devices offloading analytics over an OFDM uplink.

Answers "at what workload complexity does offloading beat local compute?"
with a link budget, a clipping-aware class B amplifier model solved at its
SINR-optimal operating point, per-component transmitter power models, and
a seeded Monte-Carlo verifier for the amplifier closed forms.

Import the verifier from :mod:`foglink.mc`; ``import foglink`` loads no numpy.
"""

from .chain import (
    DeploymentParams,
    PowerBreakdown,
    RadioParams,
    breakeven_at,
    local_power,
    offload_power,
)
from .config import dump_defaults, load_params
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    FoglinkError,
    InfeasibleLinkError,
    NumericError,
)
from .link import (
    MIN_DISTANCE_KM,
    clip_power,
    noise_dbm,
    path_gain_db,
    required_sinr,
)
from .pa import pa_consumed_power, sinr_approx_db, snr_max_for_sinr_db
from .record import replace
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # pa
    "sinr_approx_db", "snr_max_for_sinr_db", "pa_consumed_power",
    # link
    "MIN_DISTANCE_KM", "path_gain_db", "noise_dbm",
    "required_sinr", "clip_power",
    # chain
    "RadioParams", "DeploymentParams", "PowerBreakdown", "local_power",
    "offload_power", "breakeven_at",
    # config
    "load_params", "dump_defaults",
    # records
    "replace",
    # units
    "db_to_linear", "linear_to_db", "dbm_to_watts", "watts_to_dbm",
    # errors
    "FoglinkError", "DomainError", "ConvergenceError",
    "InfeasibleLinkError", "ConfigError", "NumericError",
]

