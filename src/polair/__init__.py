"""Capacity and achievable information rates of unitary MIMO-AWGN channels.

Simulates the dual-polarization optical drift channel: a Haar-random
unitary channel with AWGN, pilot-aided LS and Kabsch channel estimation,
and the mismatched-decoding rate bounds that quantify the cost of
imperfect channel knowledge.
"""

__version__ = "0.1.0"

from .air import (
    AirEstimate,
    air_corollary4,
    air_corollary4_paired_mc,
    air_discrete_paired_mc,
    air_gaussian_paired_mc,
    air_synthetic_mc,
    capacity_perfect,
    synthetic_estimates,
)
from .channel import (
    ChannelParams,
    Constellation,
    make_constellation,
    make_pilots,
)
from .estimators import (
    estimate_kabsch,
    estimate_ls,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    default_config,
    run_experiment,
)
from .linalg import (
    haar_unitary,
    sample_cgauss,
)
