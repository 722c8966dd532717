"""Exact-arithmetic toolkit for affine subspaces of nilpotent matrices of
fixed rank over prime fields and the rationals."""

from .catalog import (
    BoundReport,
    bound_gerstenhaber,
    bound_mms,
    bound_rank_bounded,
    bound_rank_full,
    bound_rank_one,
    bound_reports,
    conjecture_bound,
    counterexample_f2,
    witness_conjecture,
    witness_rank_full,
    witness_rank_one,
)
from .errors import (
    BudgetExceededError,
    DependentDirectionsError,
    FieldTooSmallError,
    NilspaceError,
    NotNilpotentError,
    PreconditionUnmetError,
    SingularMatrixError,
)
from .fields import RATIONALS, FieldSpec, PrimeField, RationalField, Scalar
from .matrices import (
    ExactMatrix,
    identity_matrix,
    inverse,
    is_nilpotent,
    jordan_partition,
    mat_pow,
    nilindex,
    rank,
    shift_matrix,
    submatrix,
    unit_matrix,
)
from .partitions import (
    Partition,
    conjugate,
    dominance_join,
    dominance_leq,
    dominance_meet,
    partition_bound,
    partitions_of,
)
from .reduction import (
    ShiftPolynomial,
    TraceWitness,
    clear_first_column,
    conjugate_by_shift,
    linear_trace_constraints,
    shift_poly_inverse,
    shift_poly_matrix,
    trace_condition_verify,
)
from .search import (
    CandidatePool,
    ConjectureTest,
    SearchReport,
    build_candidate_pool,
    canonical_bases,
    max_affine_dimension,
    check_conjecture,
)
from .spaces import (
    DEFAULT_BUDGET,
    AffineMatrixSpace,
    VerificationOutcome,
    Witness,
    change_basis,
    combine_outcomes,
    corner_entry_check,
    direction_nilpotency,
    verify_all_nilpotent,
    verify_constant_rank,
)

__version__ = "0.1.0"
