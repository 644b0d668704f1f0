"""loopdet: simulation, optimization and calibration toolkit for a
time-multiplexed photon-number-resolving detector built from one binary
click detector, a variable-ratio coupler and a fiber delay loop."""

__version__ = "0.1.0"

from .calibrate import (
    CalibrationResult,
    calibrate_from_channels,
    infer_t0,
    infer_tl,
)
from .clickstats import (
    ClickDistribution,
    PhotonSource,
    custom_click_distribution,
    fock_click_distribution,
    fock_click_matrix,
    infer_mu,
    multi_photon_content,
    poisson_click_distribution,
    source_multi_photon_content,
)
from .device import (
    ChannelProfile,
    CouplerSetting,
    DeviceParams,
    channel_transmissions,
    normalized_channels,
    reference_device,
    total_transmission,
)
from .entropy import EntropyScan, optimize_ratio, shannon_entropy
from .montecarlo import (
    SimSettings,
    SimulationResult,
    TofHistogram,
    accumulate_histogram,
    empirical_click_distribution,
    false_cm_bound,
    run_simulation,
)
from .postselect import PostselectResult, postselect, wm_curve

__all__ = [
    "CalibrationResult",
    "ChannelProfile",
    "ClickDistribution",
    "CouplerSetting",
    "DeviceParams",
    "EntropyScan",
    "PhotonSource",
    "PostselectResult",
    "SimSettings",
    "SimulationResult",
    "TofHistogram",
    "accumulate_histogram",
    "calibrate_from_channels",
    "channel_transmissions",
    "custom_click_distribution",
    "empirical_click_distribution",
    "false_cm_bound",
    "fock_click_distribution",
    "fock_click_matrix",
    "infer_mu",
    "infer_t0",
    "infer_tl",
    "multi_photon_content",
    "normalized_channels",
    "optimize_ratio",
    "poisson_click_distribution",
    "postselect",
    "reference_device",
    "run_simulation",
    "shannon_entropy",
    "source_multi_photon_content",
    "total_transmission",
    "wm_curve",
]
