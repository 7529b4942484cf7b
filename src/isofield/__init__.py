"""Isotropic vector random fields on compact two-point homogeneous spaces.

Covariance matrix functions are Jacobi series with nonnegative-definite
matrix coefficients; fields are simulated by the corresponding series with
a uniform latent point and per-degree coefficient processes, and every
closed-form identity the construction relies on has a runnable numeric
check in `isofield.verify`.
"""

__version__ = "0.1.0"  # first, so that submodules can import it

from .errors import (
    DomainError,
    GeometryError,
    IsoFieldError,
    ModelError,
    ModelFormatError,
    NumericError,
    ParameterError,
    UsageError,
)
from .jacobi import (
    JacobiParams,
    QuadratureRule,
    gauss_jacobi,
    jacobi_all,
    jacobi_at_one,
    jacobi_eval,
    jacobi_norm_constant,
    jacobi_normalized,
)
from .modelio import dump_model, load_model, model_from_dict, model_hash, model_to_dict, save_model
from .simulate import (
    Realization,
    save_realization,
    simulate_spatial,
    simulate_spatiotemporal,
    substream,
)
from .spaces import (
    Point,
    SpaceFamily,
    SpaceParams,
    a_constant,
    dim_eigenspace,
    distance,
    laplace_eigenvalue,
    make_point,
    make_space,
    parse_space,
    sample_uniform,
    sample_uniform_batch,
    sphere_volume,
)
from .spectral import (
    PureSpatial,
    SeparableScalar,
    SeriesModel,
    TailEnvelope,
    ValidityReport,
    VectorMA1,
    angular_power_spectrum,
    eval_cov,
    recover_coefficients,
    truncation_bound,
    validate_spatial,
    validate_spatiotemporal,
)
from .verify import (
    IdentityReport,
    MCEstimate,
    check_space_identities,
    empirical_cov,
    mc_funk_hecke,
    mc_recover_vn,
    mc_zonal_covariance,
    replicate_seeds,
)

