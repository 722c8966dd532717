"""Closed-form dimension bounds and explicit extremal witnesses.

Every bound carries the field-size hypothesis under which it is known to
hold, so callers can warn when a queried field violates it; the two-element
field shows the hypotheses are not removable.  The witnesses are staircase
spaces.  Only ``witness_conjecture`` machine-verifies its space before
handing it out; the two extremal ones are returned as constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceededError
from .fields import FieldSpec, PrimeField
from .matrices import ExactMatrix, shift_matrix, unit_matrix
from .spaces import (
    DEFAULT_BUDGET,
    PROVED,
    AffineMatrixSpace,
    verify_all_nilpotent,
    verify_constant_rank,
)

HYP_ANY = "any field"
HYP_RANK_BOUNDED = "|K| >= r+1"
HYP_MMS = "|K| > n"
HYP_RANK_FULL = "|K| >= n+1"
HYP_RANK_ONE = "|K| >= 3"
HYP_SUFFICIENTLY_LARGE = "|K| sufficiently large"


@dataclass(frozen=True, slots=True)
class BoundReport:
    """A named bound value with its inputs and field-size hypothesis."""

    name: str
    inputs: tuple[tuple[str, int], ...]
    value: int
    hypothesis: str

    def inputs_dict(self) -> dict[str, int]:
        return dict(self.inputs)


def bound_gerstenhaber(n: int) -> int:
    """Maximal dimension of a linear space of nilpotent n x n matrices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n - 1) // 2


def bound_rank_bounded(n: int, r: int) -> int:
    """Dimension bound for linear nilpotent spaces of rank at most r."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return n * (n - 1) // 2 - (n - r) * (n - r - 1) // 2


def bound_mms(n: int, r: int, k: int) -> int:
    """Dimension bound for linear nilpotent spaces with nilindex <= k and
    rank <= r (sharp for |K| > n)."""
    if k < 2:
        raise ValueError("need k >= 2")
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    q = r // (k - 1)
    value = (
        Fraction(n * r)
        - Fraction(r * r, 2)
        - Fraction(r, 2)
        + Fraction(q * q * (k - 1), 2)
        + Fraction(q * (-2 * r + k - 1), 2)
    )
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"bound is not a non-negative integer: {value}")
    return int(value)


def bound_rank_full(n: int) -> int:
    """Maximal dimension of an affine nilpotent space of constant rank n-1
    (for |K| >= n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1) * (n - 2) // 2


def bound_rank_one(n: int) -> int:
    """Maximal dimension of an affine nilpotent space of constant rank 1
    (for |K| >= 3)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return n - 2


def conjecture_bound(n: int, r: int) -> int:
    """Conjectured maximal dimension of an affine nilpotent space of
    constant rank r over a sufficiently large field: sum_{i=1..r} (n-1-i)."""
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    num = r * (2 * n - r - 3)
    if num % 2:
        raise AssertionError("conjectured value is not an integer")
    return num // 2


def bound_reports(n: int, r: Optional[int] = None, k: Optional[int] = None) -> list[BoundReport]:
    """All bounds applicable to the given parameters, as reports."""
    reports = [
        BoundReport("gerstenhaber", (("n", n),), bound_gerstenhaber(n), HYP_ANY)
    ]
    if r is not None:
        reports.append(
            BoundReport(
                "rank_bounded", (("n", n), ("r", r)), bound_rank_bounded(n, r),
                HYP_RANK_BOUNDED,
            )
        )
        if k is not None and k >= 2 and 1 <= r <= n - 1:
            reports.append(
                BoundReport(
                    "mms", (("n", n), ("r", r), ("k", k)), bound_mms(n, r, k), HYP_MMS
                )
            )
        if r == n - 1:
            reports.append(
                BoundReport("rank_full", (("n", n),), bound_rank_full(n), HYP_RANK_FULL)
            )
        if r == 1 and n >= 2:
            reports.append(
                BoundReport("rank_one", (("n", n),), bound_rank_one(n), HYP_RANK_ONE)
            )
        if 1 <= r <= n - 1:
            reports.append(
                BoundReport(
                    "conjecture", (("n", n), ("r", r)), conjecture_bound(n, r),
                    HYP_SUFFICIENTLY_LARGE,
                )
            )
    return reports


def hypothesis_violated(hypothesis: str, field: FieldSpec, n: int, r: Optional[int] = None) -> bool:
    """True when a finite field is known to violate the bound's hypothesis.

    The "sufficiently large" hypothesis has no explicit threshold and is
    never reported as violated.
    """
    if not isinstance(field, PrimeField):
        return False
    p = field.p
    if hypothesis == HYP_RANK_FULL:
        return p < n + 1
    if hypothesis == HYP_RANK_ONE:
        return p < 3
    if hypothesis == HYP_MMS:
        return p <= n
    if hypothesis == HYP_RANK_BOUNDED:
        return r is not None and p < r + 1
    return False


# ---------------------------------------------------------------------------
# witnesses

def witness_rank_full(n: int, field: FieldSpec) -> AffineMatrixSpace:
    """The extremal constant-rank-(n-1) space, the staircase of rank n-1:
    shift base, all unit matrices strictly above the superdiagonal as
    directions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _staircase_space(n, n - 1, field)


def witness_rank_one(n: int, field: FieldSpec) -> AffineMatrixSpace:
    """The extremal constant-rank-1 space, the staircase of rank 1: one unit
    base on the first row, the remaining first-row units as directions."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _staircase_space(n, 1, field)


def counterexample_f2() -> AffineMatrixSpace:
    """Over the two-element field: a dimension-1 affine space of nilpotent
    rank-1 2x2 matrices whose direction matrix is not nilpotent, exceeding
    the rank-1 bound that holds for |K| >= 3."""
    f2 = PrimeField(2)
    base = shift_matrix(2, f2)
    direction = ExactMatrix.from_rows(f2, [[0, 1], [1, 0]])
    return AffineMatrixSpace(f2, 2, base, (direction,))


def _staircase_space(n: int, r: int, field: FieldSpec) -> AffineMatrixSpace:
    """Rows 0..r-1 carry a fixed superdiagonal 1 plus free entries further
    right; rows r.. are zero.  Every member has leading entries in strictly
    increasing columns, hence rank exactly r, and is strictly upper
    triangular, hence nilpotent.  Dimension: sum_{i=1..r} (n-1-i)."""
    base = ExactMatrix.zeros(n, n, field)
    for i in range(r):
        base = base + unit_matrix(i, i + 1, n, field)
    dirs = tuple(
        unit_matrix(i, j, n, field) for i in range(r) for j in range(i + 2, n)
    )
    return AffineMatrixSpace(field, n, base, dirs)


def witness_conjecture(
    n: int,
    r: int,
    field: FieldSpec,
    budget: int = DEFAULT_BUDGET,
) -> Optional[AffineMatrixSpace]:
    """A verified constant-rank-r space of the conjectured dimension, or
    None when verification cannot fully succeed.

    The staircase pattern specializes to the rank-(n-1) witness at r = n-1
    and to the rank-1 witness at r = 1.  The construction is still machine
    verified before being returned: over a finite field both checks must be
    PROVED; over the rationals nilpotency must be PROVED while the rank
    lower bound can only be sampled, and any refutation returns None.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    space = _staircase_space(n, r, field)
    if space.d != conjecture_bound(n, r):
        raise AssertionError("staircase dimension does not match the target")
    try:
        nilp = verify_all_nilpotent(space, budget, sample_count=0)
        ranks = verify_constant_rank(space, r, budget,
                                     sample_count=0 if isinstance(field, PrimeField) else 256)
    except BudgetExceededError:
        return None
    if nilp.status != PROVED or ranks.refuted:
        return None
    if isinstance(field, PrimeField) and ranks.status != PROVED:
        return None
    return space
