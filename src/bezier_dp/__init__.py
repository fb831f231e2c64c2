"""Differentially private moments, variance, covariance and correlation.

The add-remove mechanisms ride on Bernstein-basis aggregates: the basis
vector of a record sums to 1, so the whole aggregate has L1 sensitivity 1
and one unit of Laplace noise per cell privatizes every power sum at once.
Baselines (swap-model, per-aggregate naive, two-aggregate improved), an
analytic error theory, an empirical sensitivity audit and a reproducible
Monte Carlo harness round out the package.
"""

from types import ModuleType as _ModuleType

from .version import __version__
from .errors import (
    BezierDPError,
    CapacityError,
    ConfigError,
    DataFormatError,
    DomainError,
    ReplayExhaustedError,
    UndefinedStatisticError,
)
from .bernstein import (
    MAX_DEGREE,
    MAX_VECTOR_LEN,
    basis_matrix,
    bernstein_aggregate,
    bezier_inverse,
    bezier_matrix,
    multi_indices,
    tensor_apply_inverse,
)
from .noise import (
    NoiseRows,
    NoiseSource,
    derive_seed,
    derive_seeds,
    derive_substream,
    laplace_rows,
    uniforms01_rows,
)
from .stats import (
    CORRELATION_RANGE,
    COVARIANCE_RANGE,
    VARIANCE_RANGE,
    ClipRange,
    Dataset,
    correlation_exact,
    covariance_exact,
    feasible_rxy_bounds,
    moments_unnormalized,
    standardized_moment,
    variance_exact,
)
from .mechanisms import (
    MECHANISM_IDS,
    Estimate,
    PreparedMechanism,
    basis_spec,
    bezier_release,
    prepare,
    prepare_moment_release,
)
from .theory import (
    InstanceConstants,
    covariance_instance_constant,
    instance_constants,
    inverse_row_weight,
    moment_release_mse,
    predicted_normalized_mse,
    sigma_lower_bound,
    worst_case_table,
)
from .audit import (
    NeighborPair,
    SensitivityReport,
    bernstein_map,
    builtin_maps,
    empirical_sensitivity,
    neighbor_pair_block,
    random_neighbor_pair,
    swap_covariance_map,
    swap_variance_map,
    transformed_pair_map,
    unnormalized_covariance_map,
    unnormalized_variance_map,
)
from .harness import (
    DATA_CHANNEL,
    BenchmarkReport,
    BenchmarkRow,
    ExperimentConfig,
    generate_dataset,
    load_csv_dataset,
    parse_distribution,
    resolve_mechanism,
    run_benchmark,
    run_estimate,
    statistic_dimension,
)

# Every public name imported above; the submodules bound by those imports are
# not part of the star-import surface.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
