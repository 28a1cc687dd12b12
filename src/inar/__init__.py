"""Cumulative INAR (discrete Hawkes) count processes: simulation,
conditional least-squares estimation, sandwich inference, and Monte Carlo
studies."""

from .errors import (
    AllReplicationsFailed,
    DimensionMismatch,
    DomainError,
    InarError,
    InvalidLevel,
    InvalidRate,
    LagTooLarge,
    NonStationaryKernel,
    Overflow,
    ParseError,
    SampleSizeOutOfRange,
    SingularDesign,
    ValidationError,
    ZeroVariance,
)
from .model import (
    BoundsReport,
    ModelParams,
    RenewalSequence,
    ValidationReport,
    geometric_kernel,
    moment_bounds,
    renewal_sequence,
    solve_renewal,
    validate_params,
)
from .simulate import (
    CountPath,
    RngStream,
    poisson_sample,
    read_path_csv,
    simulate_lanes,
    simulate_path,
    write_path_csv,
)
from .estimate import (
    DesignSystem,
    ThetaVector,
    build_design,
    contrast,
    contrast_gradient,
    fit_lanes,
    intensity_series,
    rcond,
    residual_norm,
    solve_cls,
)
from .inference import (
    NormalityReport,
    SandwichCovariance,
    confidence_intervals,
    histogram_data,
    jarque_bera,
    normal_cdf,
    normal_quantile,
    qq_data,
    sandwich_covariance,
    shapiro_wilk,
)
from .montecarlo import (
    ComponentDiagnostics,
    McConfig,
    McSummary,
    component_label,
    normality_suite,
    run_experiment,
    summarize,
    truth_vector,
)
from .config import parse_config, parse_kernel_spec

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation: always "numpy"."""
    return "numpy"


# Base seed used by the bundled study configs and the acceptance suite.
DEFAULT_BASE_SEED = 11
