"""Bayesian port sampling and reconstruction for fluid-antenna receivers.

The package splits channel estimation over a switched multi-port aperture
into an offline planning stage (greedy max-variance port selection plus
weight precomputation from a prior covariance) and an online stage that is
a single precomputed linear map of the received pilots.  Channel synthesis,
baseline estimators, and a Monte-Carlo benchmarking harness round out the
toolkit.
"""

from .baselines import (
    RankDeficientFitWarning,
    SteeringDictionary,
    build_steering_dictionary,
    estimate_fas_omp,
    estimate_selmmse,
    random_ports,
    selmmse_ports,
)
from .channels import (
    ChannelRealization,
    PilotObservation,
    PortGeometry,
    SscModelParams,
    build_port_geometry,
    draw_port_noise,
    generate_ssc_channel,
    noise_power_for_snr,
    observe_pilots,
    observe_ports,
    ssc_channel_from_rays,
)
from .fileio import (
    load_estimate,
    load_kernel,
    load_observation,
    load_plan,
    save_estimate,
    save_kernel,
    save_observation,
    save_plan,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    SchemeSpec,
    config_from_dict,
    emit_csv,
    load_config,
    nmse,
    read_csv,
    run_sweep,
    train_covariance_kernel,
)
from .kernels import (
    Kernel,
    default_eta,
    kernel_bessel,
    kernel_covariance,
    kernel_exponential,
)
from .sbar import (
    Reconstruction,
    SamplingPlan,
    design_plan,
    reconstruct,
)
from .svgplot import emit_svg

__version__ = "0.1.0"
