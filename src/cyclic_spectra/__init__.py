"""Exact spectral calculus for star and comb products of rooted graphs.

The package computes eigenvalues, transforms, cumulants and limit behavior of
adjacency matrices of iterated graph products through exact rational-function
convolution identities, and validates everything against built-in brute-force
operator models.
"""

from .exact import Polynomial, RationalFunction, poly_gcd, square_free_part
from .graphs import (
    Graph,
    RootedGraph,
    adjacency,
    comb_product,
    complete,
    delete_root,
    friendship,
    named,
    nfold_comb,
    nfold_star,
    path,
    star,
    star_product,
)
from .transforms import (
    GreenFactorization,
    RootedSpectralData,
    SpectrumReport,
    cauchy,
    extract_spectrum,
    f_transform,
    factorize_green,
    green,
    h_transform,
    laurent_at_infinity,
    renormalized_cauchy,
    spectral_data,
)
from .convolutions import (
    TransformPair,
    comb_char_poly,
    cyclic_boolean_sum,
    cyclic_monotone_sum,
    nfold_comb_transforms,
    nfold_star_transforms,
    star_char_poly,
    star_cauchy_identity_check,
    transform_pair,
)
from .partitions import (
    CircularSeparatorSet,
    OrderedSetPartition,
    SetPartition,
    enumerate_partitions,
    is_cyclic_interval,
    kernel,
    maximal_arcs,
    moebius,
    ordered_kernel,
    packed_word,
    rotate_to_interval,
)
from .cumulants import (
    MomentData,
    MultiMomentOracle,
    boolean_cumulants,
    cyclic_boolean_cumulants,
    h_coefficients,
    moment_cumulant_check,
    partition_cumulant,
    partitioned_moment,
)
from .models import (
    MixedWord,
    OperatorModel,
    eigensolve,
    eval_cyclic_boolean_word,
    eval_cyclic_monotone_word,
    trace_moment,
    vacuum_moment,
)
from .limits import (
    BetaTable,
    CLTLimitReport,
    IDVerdict,
    alpha_k,
    beta_table,
    carleman_check,
    cb_clt_limits,
    cb_id_classify,
    cb_id_nth_root,
    clt_report,
    comb_limit_moment,
    finite_n_comb_moment,
    omega_of_ordered_partition,
    spectral_gap_report,
)

__version__ = "0.1.0"
