"""Energy model for camera-class devices offloading analytics over an OFDM uplink.

Answers "at what workload complexity does offloading beat local compute?"
with a link budget, a clipping-aware class B amplifier model solved at its
SINR-optimal operating point, per-component transmitter power models, and
a seeded Monte-Carlo verifier for the amplifier closed forms.
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
from .pa import (
    bussgang_alpha,
    pa_consumed_power,
    sinr_approx_db,
    sinr_of_ibo,
    snr_max_for_sinr_db,
)
from .record import replace
from .units import db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # pa
    "bussgang_alpha", "sinr_of_ibo", "sinr_approx_db", "snr_max_for_sinr_db",
    "pa_consumed_power",
    # link
    "MIN_DISTANCE_KM", "path_gain_db", "noise_dbm",
    "required_sinr", "clip_power",
    # chain
    "RadioParams", "DeploymentParams", "PowerBreakdown", "local_power",
    "offload_power", "breakeven_at",
    # mc
    "McConfig", "McEstimate", "CHUNK_SAMPLES", "run_mc",
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

# The Monte-Carlo names load ``.mc``, and with it numpy, on first use, so
# the scalar pipeline starts without numpy.
_MC_NAMES = frozenset({"McConfig", "McEstimate", "CHUNK_SAMPLES", "run_mc"})


def __getattr__(name):
    if name in _MC_NAMES:
        from . import mc
        return getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
