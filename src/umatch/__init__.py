"""Sparse exact linear algebra over prime fields, built around U-match
factorization, with a persistent (co)homology engine on top."""

from .coeff import GF, Field, FieldElement
from .complexes import (
    FilteredCliqueComplex,
    FilteredCubicalComplex,
    boundary_oracle,
    clique_from_points,
)
from .decompose import (
    CompressedUmatch,
    DecomposeOptions,
    FullUmatch,
    MatchingArray,
    clearing_filter,
    decompose_compressed,
    decompose_full,
    pareto_pairs,
)
from .errors import (
    DivisionByZeroError,
    FieldMismatchError,
    InternalInconsistencyError,
    UmatchError,
    UsageError,
)
from .linalg import (
    NO_SOLUTION,
    RdvDecomposition,
    SubspaceBasis,
    kernel_coords,
    rdv_bridge,
    solve_dx_b,
    solve_yd_c,
    subspace_basis,
    to_echelon,
    to_lu,
)
from .matrix import (
    MatrixOracle,
    SparseVector,
    StoredCsMatrix,
    antitranspose_view,
    axpy,
    dot,
    matvec,
    scale,
    submatrix_view,
    vecmat,
)
from .persistence import (
    Bar,
    Chain,
    Cochain,
    NEVER,
    NEVER_BOUNDS,
    PersistenceEngine,
)
from .retrieve import (
    RetrievalTarget,
    retrieve,
    solve_count_audit,
    triangular_solve,
)
from .sparsify import column_validity_check, delete_coefficients, early_stop_solve

__version__ = "0.1.0"
