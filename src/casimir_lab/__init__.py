"""Exact spectral combinatorics of Casimir operators on compact groups.

The pipeline, bottom to top: exact root systems and Weyl groups
(`rootsys`), weight-lattice Casimir classes as sphere configurations
(`weights`), representation arithmetic — dimensions, tensor products,
types (`reps`), the full orthogonal stabilizer of a sphere configuration
(`hidden`), metric-parameterized operators on irreducibles with resultant
certificates (`oplab`), and assembled spectral reports plus eigenspace
bounds (`spectra`).  All structural math is exact rational; floats appear
only in explicitly numeric spectra.
"""

from .errors import (
    CapExceeded,
    CasimirLabError,
    DimensionMismatch,
    InternalConsistencyError,
    InvalidDynkinType,
    NonDominantWeight,
    NotInLattice,
    NotPositiveDefinite,
)
from .hidden import (
    PermGroup,
    ShiftedConfig,
    check_weyl_inclusion,
    orbits,
    shifted_config,
    stabilizer_group,
)
from .oplab import (
    Certificate,
    ExactOperator,
    GroupSpec,
    IrrepSpec,
    MetricParam,
    SpectrumCluster,
    build_operator,
    certify,
    char_poly,
    diag_metric,
    enumerate_reps,
    multiplicity_at_float,
    numeric_spectrum,
    spectrum,
    witness_sequence,
)
from .reps import (
    KMode,
    KModule,
    RepType,
    bold_g_label,
    classify_type,
    dual_label,
    exterior_powers,
    invariant_dim,
    rep,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from .rootsys import RootSystem, RootSystemType, WeylElement, build_root_system, weyl_group, weyl_orbit
from .spectra import (
    EstimateBound,
    HodgeTable,
    SpectralReport,
    generic_estimate,
    hodge_rank1_check,
    normal_spectrum_report,
    real_spectrum_report,
)
from .weights import (
    CasimirClass,
    LatticeChoice,
    casimir_eigenvalue,
    classes_up_to,
    enumerate_dominant,
    make_weight,
    sphere_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
