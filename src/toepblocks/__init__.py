"""Truncated Toeplitz operators on weighted Bergman spaces over the ball.

The package builds finite truncations of Toeplitz operators organized by
group-invariant symbol classes and checks the structural consequences of
that invariance: block-diagonality over the isotypic slices, repeated
single-block structure, trace identities and commutativity.
"""

from .mindex import (
    BasisP,
    Partition,
    dim_P,
    enumerate_basis,
    enumerate_kappas,
    enumerate_multiindices,
    kappa_of,
    split_alpha,
)
from .quad import (
    QuadratureSpec,
    c_lambda,
    complex_sphere_rule,
    haar_uk_sample,
    haar_unitary,
    positive_sphere_rule,
    radial_rule,
    sample_ball,
    sphere_monomial_integral,
    substream,
    torus_rule,
)
from .structure import (
    SequenceResult,
    StructureReport,
    block_traces,
    commutator,
    equivariance_check,
    extract_M,
    offblock_leakage,
    sequence_ST,
    trace_identity_check,
    trace_integral,
)
from .symbols import (
    GENERAL,
    QUASI_RADIAL,
    RADIAL,
    SEPARATELY_RADIAL,
    TM_INVARIANT,
    InvarianceClass,
    Symbol,
    act,
    block_hermitian,
    check_invariance,
    constant_symbol,
    cross_block_control,
    from_evaluator,
    from_f,
    from_g,
    from_radial_profile,
    kj_quasi_homogeneous,
    multiply,
    noncommuting_pair,
    phi_factor,
    pseudo_factor,
    radial_poly,
    xi_monomial,
    zpoly,
)
from .toeplitz import (
    BlockOperator,
    assemble_diagonal,
    average_operator,
    gamma_quasi_radial,
    load_operator,
    mblock_f,
    mblock_g,
    monomial_norm_sq,
    operator_from_json,
    operator_to_json,
    oracle_matrix,
    oracle_operators,
    quasi_radialize,
    save_operator,
    toeplitz_block_f,
    toeplitz_block_g,
    toeplitz_block_oracle,
    toeplitz_operator,
    unitary_action_matrix,
)

__version__ = "0.1.0"
