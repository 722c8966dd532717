"""Shift-polynomial conjugation and trace-condition machinery.

A shift polynomial is an upper-triangular Toeplitz matrix ``I + sum c_i N^i``
where ``N`` is the superdiagonal shift; these form a group commuting with
the shift, and conjugating by them clears prescribed first-column entries
without touching hook-protected positions.  The trace conditions — every
power-times-element trace vanishes on a span of nilpotent matrices over a
large enough field — double as verifiers and as linear pruning constraints
for the search engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    FieldTooSmallError,
    NotNilpotentError,
    PreconditionUnmetError,
)
from .fields import FieldSpec, PrimeField, RawScalar
from .matrices import ExactMatrix, _matmul, _modulus, identity_matrix, inverse, is_nilpotent
from .spaces import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    VerificationOutcome,
    _BatchTest,
    _matmul_batch,
    _reduce,
    _run_sampling,
    _scan_grid,
    _scan_rows,
)


@dataclass(frozen=True, slots=True)
class ShiftPolynomial:
    """Coefficients c_1..c_{n-1} of the unit upper-triangular Toeplitz
    matrix I + sum_i c_i * shift^i (always invertible)."""

    field: FieldSpec
    n: int
    coefficients: tuple[RawScalar, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.coefficients) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} coefficients")
        ok = self.field.is_canonical
        if not all(ok(c) for c in self.coefficients):
            raise ValueError("coefficients must be canonical; use ShiftPolynomial.of")

    @classmethod
    def of(cls, field: FieldSpec, n: int, coefficients: Sequence) -> "ShiftPolynomial":
        norm = field.normalize
        return cls(field, n, tuple(norm(c) for c in coefficients))


def shift_poly_matrix(sp: ShiftPolynomial) -> ExactMatrix:
    """The explicit matrix: unit diagonal, c_k on the k-th superdiagonal."""
    field = sp.field
    one, zero = field.one, field.zero
    n = sp.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                row.append(one)
            elif j > i:
                row.append(sp.coefficients[j - i - 1])
            else:
                row.append(zero)
        rows.append(tuple(row))
    return ExactMatrix(field, tuple(rows))


def shift_poly_inverse(sp: ShiftPolynomial) -> ShiftPolynomial:
    """Inverse in the shift-polynomial group.

    The inverse of a unit upper-triangular Toeplitz matrix is again one, so
    the first row of ``inverse(shift_poly_matrix(sp))`` past its unit
    diagonal entry holds the inverse's coefficients.
    """
    return ShiftPolynomial(sp.field, sp.n, inverse(shift_poly_matrix(sp)).rows[0][1:])


def conjugate_by_shift(a: ExactMatrix, sp: ShiftPolynomial, side: str) -> ExactMatrix:
    """Exact conjugation by the shift polynomial.

    ``side`` selects the orientation: ``"C_inv_A_C"`` computes C^-1 A C and
    ``"C_A_C_inv"`` computes C A C^-1.
    """
    if side not in ("C_inv_A_C", "C_A_C_inv"):
        raise ValueError(f"unknown side {side!r}")
    if not a.is_square or a.n_rows != sp.n:
        raise ValueError(f"expected a {sp.n}x{sp.n} matrix")
    c = shift_poly_matrix(sp)
    c_inv = inverse(c)
    if side == "C_inv_A_C":
        return c_inv @ a @ c
    return c @ a @ c_inv


def clear_first_column(a: ExactMatrix, pivot_row: int) -> tuple[ShiftPolynomial, ExactMatrix]:
    """Conjugate so the first column keeps only its lowest nonzero entry.

    Requires (0-based) ``a[pivot_row][0] != 0``, ``pivot_row >= 1`` and zeros
    below it in column 0.  Returns the shift polynomial and B = C A C^-1 with
    B[i][0] = 0 for i != pivot_row and B[pivot_row][0] = a[pivot_row][0].

    The coefficients satisfy the triangular recurrence
    (C A C^-1)[i][0] = a[i][0] + sum_k c_k * a[i+k][0], solved upward from
    the row just above the pivot.
    """
    if not a.is_square:
        raise ValueError("expected a square matrix")
    n = a.n_rows
    field = a.field
    zero = field.zero
    if not 1 <= pivot_row <= n - 1:
        raise PreconditionUnmetError(f"pivot row must lie in [1, {n - 1}]")
    col = [a.rows[i][0] for i in range(n)]
    if col[pivot_row] == zero:
        raise PreconditionUnmetError("pivot entry of the first column is zero")
    if any(col[i] != zero for i in range(pivot_row + 1, n)):
        raise PreconditionUnmetError("entries below the pivot row must be zero")
    norm = field.normalize
    coeffs = [zero] * (n - 1)
    inv_pivot = norm(Fraction(1, col[pivot_row]))
    for s in range(1, pivot_row + 1):
        i = pivot_row - s
        val = col[i] + sum(coeffs[k - 1] * col[i + k] for k in range(1, s))
        coeffs[s - 1] = norm(-val * inv_pivot)
    sp = ShiftPolynomial(field, n, tuple(coeffs))
    return sp, conjugate_by_shift(a, sp, "C_A_C_inv")


# ---------------------------------------------------------------------------
# trace conditions

@dataclass(frozen=True, slots=True)
class TraceWitness:
    """A span point, basis element and power with a nonzero trace."""

    coefficients: tuple[RawScalar, ...]
    basis_index: int
    basis_matrix: ExactMatrix
    power: int
    value: RawScalar


def _nonzero_entries(rows):
    """(b, a, B[b][a]) for each nonzero entry of B: tr(P @ B) is the sum of
    P[a][b] * B[b][a] over them."""
    n = len(rows)
    return [(b, a, rows[b][a]) for b in range(n) for a in range(n) if rows[b][a]]


def _trace_product(power_rows, nz_entries, p):
    acc = sum(power_rows[a][b] * v for b, a, v in nz_entries)
    return acc % p if p else acc


def _validate_span_basis(span_basis, field):
    if not span_basis:
        raise ValueError("span basis must be nonempty")
    n = span_basis[0].n_rows
    for m in span_basis:
        if not m.is_square or m.n_rows != n:
            raise ValueError("span basis matrices must be square of equal size")
        if field is not None and m.field != field:
            raise ValueError("span basis matrices must share the given field")
        if m.field != span_basis[0].field:
            raise ValueError("span basis matrices must share one field")
    return span_basis[0].field, n


def _trace_batch(basis_rows, m_max: int) -> _BatchTest:
    """The batch form of ``trace_condition_verify``'s predicate, some
    tr(A^m B) != 0 for a basis element B of ``basis_rows`` (integer or
    residue rows).  For entries of A at most e, the entries of A^m are at
    most n^(m - 1) e^m, so |tr(A^m B)| <= n^(m + 1) e^m max|B|."""
    n = len(basis_rows[0])
    entries = [_nonzero_entries(rows) for rows in basis_rows]
    b_max = max(abs(v) for nonzero in entries for _, _, v in nonzero) if any(entries) else 0

    def statistic(members, q):
        scalar = members.dtype.type
        bad = np.zeros(members.shape[-1], dtype=bool)
        power = members
        for m in range(1, m_max + 1):
            if m > 1:
                power = _matmul_batch(power, members, q)
            for nonzero in entries:
                trace = np.zeros_like(bad, dtype=members.dtype)
                for b, a, v in nonzero:
                    trace += power[a, b] * scalar(v % q)
                bad |= _reduce(trace, q) != 0
        return bad

    return _BatchTest(statistic, lambda nonzero: nonzero, n * n,
                      lambda e: n ** (m_max + 1) * e**m_max * b_max)


def trace_condition_verify(
    span_basis: Sequence[ExactMatrix],
    m_max: int,
    field: Optional[FieldSpec] = None,
    *,
    budget: int = DEFAULT_BUDGET,
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> VerificationOutcome:
    """Verify tr(A^m B) = 0 for every A in the span, every basis element B,
    and every 1 <= m <= m_max.

    For fixed m the trace is a polynomial of degree <= m in each span
    coefficient, so evaluating on the grid {0..m_max}^d proves the identity;
    the field must therefore have more than m_max elements.  A refutation
    reports the span point, basis element, power and trace value.
    """
    field, n = _validate_span_basis(list(span_basis), field)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if isinstance(field, PrimeField) and m_max >= field.p:
        raise FieldTooSmallError(
            f"trace conditions need |K| > m_max: |K| = {field.p}, m_max = {m_max}"
        )
    d = len(span_basis)
    basis_rows = [m.rows for m in span_basis]
    p = _modulus(field)

    nz = [_nonzero_entries(rows) for rows in basis_rows]
    zero_rows = tuple((field.zero,) * n for _ in range(n))
    # over Q the scans test L M in place of each member M; scaling each B
    # by the same L keeps every trace an int and each verdict unchanged
    _, scan_basis, _ = _scan_rows(field, zero_rows, basis_rows)
    nz_scan = [_nonzero_entries(rows) for rows in scan_basis]
    total = (m_max + 1) ** d

    def first_nonzero_trace(rows, entries_of):
        """(m, index of B, tr(rows^m B)) for the first nonzero trace, or None."""
        power = rows
        for m in range(1, m_max + 1):
            if m > 1:
                power = _matmul(power, rows, p)
            for b_idx, entries in enumerate(entries_of):
                val = _trace_product(power, entries, p)
                if val:
                    return m, b_idx, val
        return None

    def check_point(t, rows):
        """The TraceWitness of the first failing (m, B), re-checked on the
        exact member."""
        found = first_nonzero_trace(rows, nz)
        if found is None:
            raise AssertionError("refutation witness has no nonzero trace")
        m, b_idx, val = found
        return TraceWitness(tuple(t), b_idx, span_basis[b_idx], m, val)

    def fails(rows):
        return first_nonzero_trace(rows, nz_scan) is not None

    batch = _trace_batch(scan_basis, m_max)
    if total > budget:
        if sample_count <= 0:
            raise BudgetExceededError(f"{total} grid points exceed budget {budget}")
        return _run_sampling(
            field, zero_rows, basis_rows, fails, check_point, sample_count, seed,
            (f"grid of {total} points exceeded budget {budget}",), batch,
        )

    return _scan_grid(
        field, zero_rows, basis_rows, range(m_max + 1), "grid", fails,
        check_point, batch,
    )


def linear_trace_constraints(p_mat: ExactMatrix, m_max: int) -> tuple[ExactMatrix, ...]:
    """Linear functionals every direction of an all-nilpotent affine space
    through ``p_mat`` must annihilate (a necessary condition only).

    Each functional X -> tr(p_mat^m X), m = 0..m_max, is returned as its
    coefficient matrix C with value sum_{i,j} C[i][j] * X[i][j]; the two
    trace orders coincide by cyclicity, and zero or repeated functionals
    are dropped.

    For a direction X, tr((P + sX)^(m+1)) is a polynomial of degree <= m + 1
    in s that vanishes at every s, and its s-coefficient is (m + 1) tr(P^m
    X).  So row m is necessary when |K| > m + 1, i.e. m_max <= |K| - 2.  At
    m = |K| - 1 it is not: over F_3, every member of J_3 + s X with X =
    [[0,0,1],[0,1,0],[2,0,2]] is nilpotent, yet tr(J_3^2 X) = 2.
    """
    if not p_mat.is_square:
        raise ValueError("expected a square matrix")
    if not is_nilpotent(p_mat):
        raise NotNilpotentError("base point must be nilpotent")
    field = p_mat.field
    if isinstance(field, PrimeField) and m_max > field.p - 2:
        raise FieldTooSmallError(
            f"trace constraints need |K| >= m_max + 2: |K| = {field.p}, m_max = {m_max}"
        )
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    constraints: list[ExactMatrix] = []
    seen = set()
    power = identity_matrix(p_mat.n_rows, field)
    for m in range(m_max + 1):
        if m > 0:
            power = power @ p_mat
        coeff = power.transpose()
        if coeff.is_zero():
            break  # higher powers stay zero
        if coeff.rows not in seen:
            seen.add(coeff.rows)
            constraints.append(coeff)
    return tuple(constraints)
