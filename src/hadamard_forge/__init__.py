"""Construction and spectral classification of complex Hadamard matrices.

The package builds parametric families of complex Hadamard matrices of
orders 4, 6, 8 and 12 out of circulant and negacyclic blocks, solves the
orthogonality constraints the block structure imposes, verifies the
Hadamard property numerically, and compares matrices up to unitary
equivalence through the spectra of the unitarily scaled matrices,
including the degree-halving reduction of their reciprocal spectral
polynomials.
"""

from .core import (
    DEFAULT_TOL,
    DegenerateCubic,
    DegenerateQuadratic,
    HadamardForgeError,
    InvalidDimensions,
    InvalidParameter,
    NotNormal,
    NotReciprocal,
    RootFindingFailure,
    SingularBranch,
    ToleranceConfig,
    assemble_sylvester,
    check_equivalence_certificate,
    circulant,
    dephase,
    entrywise_inv_transpose,
    is_hadamard,
    orthogonality_residual,
    permutation_matrix,
    search_equivalence_certificate,
    unimodularity_deviation,
)
from .spectra import (
    char_poly,
    circulant_block_spectrum,
    distinct_spectra,
    is_normal,
    lift_roots,
    multiset_match,
    poly_roots,
    reduced_roots,
    spectrum,
    unitary_equivalent,
)
from .constraints import (
    NumericSolveReport,
    c4_branches,
    c4_residual,
    c6_reduced_residual,
    c6_residuals,
    c6_solve_cubic,
    c6_solve_f,
    c6_solve_quadratic,
    c8_numeric_solve,
    c8_reduced_residual,
    c8_residuals,
    c8_solve_h,
    hu_residual,
)
from .families import (
    a6,
    b6,
    bf,
    bf_dephased,
    bf_quartic_roots,
    d6,
    d61,
    d61_family,
    d62_family,
    d8a,
    d81,
    double,
    h4,
    h42,
    h43,
    h44,
    h45,
    h4a,
    h4a_spectrum_closed,
    m4,
    m6,
    m6_branch_points,
    m6_from_branches,
    m6_standard,
    m8,
    m8_from_h_branch,
)

__version__ = "0.1.0"
