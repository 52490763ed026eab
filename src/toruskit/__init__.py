"""Spectral toolkit for Laplacians on arbitrary flat tori.

Exact-arithmetic machinery for eigenvalue clustering, chain separation,
compound-matrix determinant identities, homological block solves, and
frequency-set measure estimates, plus a reproducible experiment runner.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BoxMismatch,
    DeltaOutOfRange,
    DependentVectors,
    DimensionMismatch,
    GammaOutOfRange,
    IdentityViolation,
    IntraClusterEntry,
    InvalidOrder,
    ParseError,
    ShapeMismatch,
    SingularGenerators,
    ToruskitError,
    UnknownSeries,
    ValidationError,
)
from .lattice import (  # noqa: F401
    LatticeBasis,
    bilinear,
    cauchy_binet_det,
    compound_matrix,
    gram_det_identity,
    mu,
    new_lattice,
)
from .clusters import (  # noqa: F401
    ClusterPartition,
    GammaChain,
    build_partition,
    chain_exponent,
    chain_scaling_experiment,
    delta_max,
    is_gamma_link,
    max_chain_length,
    verify_cluster_properties,
)
from .homological import (  # noqa: F401
    BlockMatrix,
    HomologicalSolution,
    cluster_weight_operator,
    decay_profile,
    dn_split,
    solve_homological,
    verify_remainder_support,
)
from .spacetime import (  # noqa: F401
    NLS,
    NLW,
    ChainBilinearData,
    FrequencyParams,
    SingularChain,
    SpaceTimeSite,
    chain_bilinear_data,
    chain_det_identity,
    chain_pair_bounds,
    diophantine_check,
    enumerate_singular_chains,
    enumerate_singular_sites,
    excluded_lambda_measure,
    is_singular,
    symbol_nls,
    symbol_nlw,
    theta_sublevel_cover,
)
from .config import ExperimentConfig, load_config, serialize  # noqa: F401
from .runner import RunReport, emit_plot_data, run_experiment  # noqa: F401
