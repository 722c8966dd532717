"""Affine matrix spaces and the verification oracles.

An affine space is a base matrix plus a linearly independent list of
direction matrices.  Verification decides "every member is nilpotent" and
"every member has rank exactly r" with exact certificates:

* over a finite field, exhaustive member enumeration decides everything;
* polynomial-identity claims (nilpotency, rank upper bounds) are also
  provable on a product grid: each entry of a member's n-th power, and each
  (r+1)-minor, has degree at most n in every coefficient, so vanishing on a
  grid with n+1 distinct values per coordinate forces identical vanishing;
* over the rationals the rank lower bound is not a polynomial identity and
  is only ever sampled.

Outcomes record the method used so a PROVED status never rests on sampling.

Members are tested with the exact kernels of :mod:`nilspace.matrices`,
``_rank`` (capped at r + 1) and ``_is_nilpotent``, which serve F_p and Q
alike.  There is one path from points to an outcome for each way of
choosing them, shared with ``reduction.trace_condition_verify``:
``_scan_grid`` scans a grid or the whole field and returns PROVED or
REFUTED, and ``_run_sampling`` is the one seeded sampling loop.  Both hand
a failing point and member to a caller's witness builder.

Rational scans run on integer members: ``_scan_rows`` scales the rows
once, by the lcm of all their denominators, and rebuilds a failing point
and member as Fractions.  Its docstring states the scale-invariance
contract every predicate obeys.

Over F_p, grid and exhaustive scans of at least ``_NUMPY_MIN_POINTS`` points
run batched in numpy (``_scan_numpy``): nilpotency by repeated squaring,
rank by fraction-free elimination, and the trace predicate of
``reduction.trace_condition_verify``.  They return the same first failing
point and check count as the pure scan ``_scan``, which every smaller scan
and every rational scan uses.  A batch of members is one (n, n, B) array,
batch axis last, so each elementwise step runs over B contiguous values.
Its dtype is the narrowest of int16, int32 and int64 that holds every sum
a batched scan computes, ``terms`` products of residues plus one residue:
``_int_dtype(p, terms)``, the one place the bound
``terms * (p - 1)**2 + (p - 1) <= max(dtype)`` is stated; ``_scan_numpy``
asserts it, and a scan that no dtype holds runs pure.  At p = 7 every
scan runs in int16.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, DependentDirectionsError, PreconditionUnmetError
from .fields import FieldSpec, PrimeField, RawScalar
from .matrices import ExactMatrix, _is_nilpotent, _modulus, _rank, inverse, shift_matrix

#: Default cap on member evaluations per verification call.
DEFAULT_BUDGET = 10_000_000
#: Default number of random points when falling back to sampling.
DEFAULT_SAMPLES = 1000

PROVED = "PROVED"
REFUTED = "REFUTED"
SAMPLED_PASS = "SAMPLED_PASS"

_METHOD_STRENGTH = {"random": 0, "grid": 1, "exhaustive": 2}

# numpy batching pays off only for large point sets and word-size moduli;
# chunks start small and double up to the cap, so an early violation costs
# one small chunk
_NUMPY_MIN_POINTS = 4096
_NUMPY_FIRST_CHUNK = _NUMPY_MIN_POINTS // 4
_NUMPY_CHUNK = 1 << 17


@dataclass(frozen=True, slots=True)
class Witness:
    """Coefficient vector and the member matrix it selects."""

    coefficients: tuple[RawScalar, ...]
    matrix: ExactMatrix


@dataclass(frozen=True, slots=True)
class VerificationOutcome:
    status: str
    method: str
    checks_performed: int
    witness: Optional[object] = None
    sample_count: Optional[int] = None
    seed: Optional[int] = None
    notes: tuple[str, ...] = ()

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


@dataclass(frozen=True, slots=True)
class AffineMatrixSpace:
    """Base point plus an independent tuple of direction matrices."""

    field: FieldSpec
    n: int
    base: ExactMatrix
    directions: tuple[ExactMatrix, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("n must be >= 1")
        mats = (self.base,) + tuple(self.directions)
        for m in mats:
            if m.field != self.field:
                raise ValueError("all matrices must share the space's field")
            if m.n_rows != n or m.n_cols != n:
                raise ValueError(f"expected {n}x{n} matrices")
        if self.directions:
            flat = [tuple(x for row in m.rows for x in row) for m in self.directions]
            if _rank(flat, _modulus(self.field)) != len(self.directions):
                raise DependentDirectionsError(
                    "direction matrices are linearly dependent"
                )

    @property
    def d(self) -> int:
        return len(self.directions)

    def member(self, t: Sequence) -> ExactMatrix:
        """The member selected by coefficient vector ``t`` (length d)."""
        if len(t) != self.d:
            raise ValueError(f"expected {self.d} coefficients, got {len(t)}")
        coeffs = [self.field.normalize(x) for x in t]
        rows = _combine_rows(self.base.rows, [m.rows for m in self.directions],
                             coeffs, self.field)
        return ExactMatrix(self.field, rows)

    def direction_span_space(self) -> "AffineMatrixSpace":
        """The same directions attached to a zero base point."""
        zero = ExactMatrix.zeros(self.n, self.n, self.field)
        return AffineMatrixSpace(self.field, self.n, zero, self.directions)


# ---------------------------------------------------------------------------
# point generation

def _combine_rows(base_rows, dir_rows_list, coeffs, field):
    """The rows of base + sum c_i dir_i; over Q on ints and Fractions alike."""
    rows = base_rows
    p = _modulus(field)
    for c, drows in zip(coeffs, dir_rows_list):
        if not c:
            continue
        # list comprehensions: a member is built per point scanned
        if p:
            rows = tuple([
                tuple([(x + c * y) % p for x, y in zip(r1, r2)])
                for r1, r2 in zip(rows, drows)
            ])
        else:
            rows = tuple([
                tuple([x + c * y for x, y in zip(r1, r2)])
                for r1, r2 in zip(rows, drows)
            ])
    return rows


def _scan_rows(field, base_rows, dir_rows_list):
    """The rows a scan or sampling loop tests, and ``rebuild(t, rows)``,
    which turns a failing scanned point and member into the exact ones.

    Over F_p the rows are the space's own and ``rebuild`` is the identity.
    Over Q the rows are scaled by the lcm L of the denominators of all of
    them, the points are integers, and each member M is tested as the
    integer matrix L M = L base + sum t_i (L dir_i); no Fraction arithmetic
    runs per member.  ``rebuild`` returns the point as Fractions and the
    member built from the original rows.  This is the one place rational
    scans are scaled, and it is sound under one contract: a predicate
    handed to ``_scan_grid`` or ``_run_sampling`` gives the same verdict at
    c M as at M for every nonzero rational c.  Nilpotency and rank are
    unchanged by scaling, and tr((c M)^m B) = c^m tr(M^m B).
    """
    if isinstance(field, PrimeField):
        return base_rows, dir_rows_list, lambda t, rows: (t, rows)
    unit = lcm(*[x.denominator for rows in (base_rows, *dir_rows_list)
                 for row in rows for x in row])

    def scaled(rows):
        return tuple(tuple(x.numerator * (unit // x.denominator) for x in row) for row in rows)

    def rebuild(t, _rows):
        t = tuple(map(Fraction, t))
        return t, _combine_rows(base_rows, dir_rows_list, t, field)

    return scaled(base_rows), [scaled(rows) for rows in dir_rows_list], rebuild


def _iter_members(base_rows, dir_rows_list, values, field) -> Iterator[tuple[tuple, tuple]]:
    """Yield (t, member_rows) over the grid ``values^d`` in product order,
    accumulating partial sums so each step costs one scaled addition."""
    d = len(dir_rows_list)
    if d == 0:
        yield (), base_rows
        return
    prefix: list = []

    def rec(level, partial):
        if level == d:
            yield tuple(prefix), partial
            return
        drows = [dir_rows_list[level]]
        for v in values:
            prefix.append(v)
            yield from rec(level + 1, _combine_rows(partial, drows, (v,), field))
            prefix.pop()

    yield from rec(0, base_rows)


def _scan(base_rows, dir_rows_list, values, field, fails) -> tuple[Optional[tuple], Optional[tuple], int]:
    """Return (t, member_rows, checks) for the first violating point, or
    (None, None, total_checked) when the whole grid passes."""
    checked = 0
    for t, rows in _iter_members(base_rows, dir_rows_list, values, field):
        checked += 1
        if fails(rows):
            return t, rows, checked
    return None, None, checked


def _int_dtype(p: int, terms: int):
    """The narrowest of int16, int32 and int64 that holds a sum of ``terms``
    products of residues mod ``p`` plus one residue, or None."""
    bound = terms * (p - 1) ** 2 + (p - 1)
    for dtype in map(np.dtype, ("int16", "int32", "int64")):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return None


def _scan_grid(field, base_rows, dir_rows_list, values, method, fails, witness,
               fails_batch, terms) -> VerificationOutcome:
    """Scan the members ``base + sum t_i dir_i`` over the grid ``values^d``:
    REFUTED at the first member ``fails`` flags, with ``witness(t, rows)``
    as its witness, else PROVED; both labelled ``method``.  This is the one
    path from a grid or exhaustive scan to an outcome.

    Over F_p the scan is batched by ``_scan_numpy`` when the grid has at
    least ``_NUMPY_MIN_POINTS`` points and ``_int_dtype`` finds a dtype;
    ``fails_batch`` is the batch form of ``fails`` and ``terms`` the longest
    dot product it computes.  Over Q it runs on the integer members of
    ``_scan_rows``.
    """
    d = len(dir_rows_list)
    scan_base, scan_dirs, rebuild = _scan_rows(field, base_rows, dir_rows_list)
    if (
        isinstance(field, PrimeField)
        and len(values) ** d >= _NUMPY_MIN_POINTS
        and _int_dtype(field.p, terms) is not None
    ):
        t, rows, checked = _scan_numpy(scan_base, scan_dirs, values, field.p,
                                       len(base_rows), fails_batch, terms)
    else:
        t, rows, checked = _scan(scan_base, scan_dirs, values, field, fails)
    if t is None:
        return VerificationOutcome(status=PROVED, method=method, checks_performed=checked)
    return VerificationOutcome(
        status=REFUTED, method=method, checks_performed=checked,
        witness=witness(*rebuild(t, rows)),
    )


def _scan_numpy(base_rows, dir_rows_list, values, p, n, fails_batch, terms):
    """Batched ``_scan`` over F_p: the same (t, member_rows, checks) triple.

    ``fails_batch`` maps an (n, n, B) array of members, batch axis last, in
    the dtype ``_int_dtype(p, terms)`` to a boolean array of length B.
    Chunks run in product order, from ``_NUMPY_FIRST_CHUNK`` points doubling
    up to ``_NUMPY_CHUNK``.  Each lies in one block of k**j consecutive
    points that share their first d - j coordinates, so its members are the
    member at that prefix plus a slice of the cached suffix grid over the
    last j coordinates, mod p; j is the smallest with a block as large as
    the chunk, as long as d and the chunk cap allow.
    """
    dtype = _int_dtype(p, terms)
    if dtype is None:
        raise AssertionError(f"int64 overflow: {terms} terms mod {p}")
    d, k = len(dir_rows_list), len(values)
    total = k**d
    vals = np.array(values, dtype=dtype)
    base = np.array(base_rows, dtype=dtype)
    dirs = np.array(dir_rows_list, dtype=dtype).reshape(d, n, n)
    grids = {0: np.zeros((n, n, 1), dtype=dtype)}

    def suffix(j, lo, hi):
        """Columns lo:hi of the (n, n, k**j) grid of sum t_i dir_i over the
        last j coordinates, in product order."""
        if j == 1:  # k alone may exceed the chunk cap, so it is not cached
            return _reduce(dirs[-1][:, :, None] * vals[lo:hi], p)
        if j not in grids:
            lead = dirs[d - j][:, :, None, None] * vals[:, None]
            grid = lead + suffix(j - 1, 0, k ** (j - 1))[:, :, None, :]
            grids[j] = _reduce(grid, p).reshape(n, n, k**j)
        return grids[j][:, :, lo:hi]

    start, size = 0, _NUMPY_FIRST_CHUNK
    while start < total:
        j = min(d, 1)
        while j < d and k**j < size and k ** (j + 1) <= _NUMPY_CHUNK:
            j += 1
        prefix, offset = divmod(start, k**j)
        stop = min(start + size, start - offset + k**j)
        member = base
        for i, digit in enumerate(np.unravel_index(prefix, (k,) * (d - j))):
            member = _reduce(member + vals[digit] * dirs[i], p)
        members = _reduce(member[:, :, None] + suffix(j, offset, offset + stop - start), p)
        bad = np.flatnonzero(fails_batch(members))
        if bad.size:
            first = int(bad[0])
            t = tuple(values[i] for i in np.unravel_index(start + first, (k,) * d))
            rows = tuple(tuple(int(x) for x in row) for row in members[:, :, first])
            return t, rows, start + first + 1
        start = stop
        size = min(2 * size, _NUMPY_CHUNK)
    return None, None, total


def _reduce(a, p: int):
    """``a`` mod p, in place.  a - p * (a // p) is the remainder; numpy
    vectorises integer floor division by a scalar but not the remainder,
    which takes 3 to 12 times as long."""
    mod = a.dtype.type(p)
    quotient = a // mod
    quotient *= mod
    a -= quotient
    return a


def _matmul_batch(a, b, p: int):
    """The products mod p of two (n, n, B) batches, batch axis last: each
    output row is n multiply-adds of (n, B) planes."""
    n = a.shape[0]
    out = np.empty_like(a)
    term = np.empty_like(b[0])
    for i in range(n):
        row = out[i]
        np.multiply(b[0], a[i, 0], out=row)
        for m in range(1, n):
            np.multiply(b[m], a[i, m], out=term)
            row += term
    return _reduce(out, p)


def _rank_mod_p_batch(a, p: int):
    """Ranks of an (m, k, B) batch of residues mod p, batch axis last, in a
    signed dtype that holds two products of residues plus one residue.

    Fraction-free elimination on a copy, one column at a time.  The pivot
    row is the lowest row with a nonzero entry in the column, and every row
    becomes ``row * pivot - entry * pivot_row`` mod p, so no inverse is
    needed and no row is swapped: the pivot row becomes 0 and takes no
    further part.  Only the columns right of the pivot column are updated,
    since later steps read no column left of them.
    """
    a = a.copy()
    m, k, n_batch = a.shape
    one = a.dtype.type(1)
    rank = np.zeros(n_batch, dtype=np.int64)
    for col in range(k):
        column = a[:, col, :]
        nonzero = column != 0
        has = nonzero.any(axis=0)
        if not has.any():
            continue
        piv = np.zeros(n_batch, dtype=np.intp)
        for i in range(m - 1, -1, -1):
            piv[nonzero[i]] = i
        prow = np.take_along_axis(a[:, col:, :], piv[None, None, :], axis=0)[0]
        np.copyto(prow[0], one, where=~has)  # a zero column: every row stays
        rest = a[:, col + 1:, :]
        rest *= prow[0]
        rest -= column[:, None, :] * prow[None, 1:, :]
        _reduce(rest, p)
        rank += has
        if (rank == m).all():
            break
    return rank


def _fails_nilpotency_batch(p: int, n: int) -> Callable:
    def fails(members):
        power = members
        span = 1
        while span < n:
            power = _matmul_batch(power, power, p)
            span *= 2
        return power.reshape(n * n, -1).any(axis=0)

    return fails


# ---------------------------------------------------------------------------
# outcome plumbing

def _fails_nilpotency(field: FieldSpec) -> Callable:
    p = _modulus(field)
    return lambda rows: not _is_nilpotent(rows, p)


def _witness(space: AffineMatrixSpace, t, rows, fails) -> Witness:
    witness = Witness(tuple(t), ExactMatrix(space.field, rows))
    if not fails(witness.matrix.rows):  # a witness must re-fail when rechecked
        raise AssertionError("refutation witness does not re-fail the predicate")
    return witness


def _sample_points(field: FieldSpec, d: int, sample_count: int, seed: int):
    """``sample_count`` seeded random coefficient vectors of length ``d``;
    over Q integers in [-10^6, 10^6]."""
    rng = random.Random(seed)
    if isinstance(field, PrimeField):
        p = field.p
        for _ in range(sample_count):
            yield tuple(rng.randrange(p) for _ in range(d))
    else:
        for _ in range(sample_count):
            yield tuple(rng.randint(-10**6, 10**6) for _ in range(d))


def _run_sampling(field, base_rows, dir_rows_list, fails, witness, sample_count,
                  seed, notes) -> VerificationOutcome:
    """Seeded random sampling of the members ``base + sum t_i dir_i``:
    REFUTED at the first member ``fails`` flags, with ``witness(t, rows)``
    as its witness, else SAMPLED_PASS.  This is the one sampling loop; over
    Q it tests the integer members of ``_scan_rows`` at integer samples.
    """
    scan_base, scan_dirs, rebuild = _scan_rows(field, base_rows, dir_rows_list)
    checked = 0
    for t in _sample_points(field, len(dir_rows_list), sample_count, seed):
        rows = _combine_rows(scan_base, scan_dirs, t, field)
        checked += 1
        if fails(rows):
            return VerificationOutcome(
                status=REFUTED, method="random", checks_performed=checked,
                witness=witness(*rebuild(t, rows)), sample_count=sample_count,
                seed=seed, notes=tuple(notes),
            )
    return VerificationOutcome(
        status=SAMPLED_PASS, method="random", checks_performed=checked,
        sample_count=sample_count, seed=seed, notes=tuple(notes),
    )


def _scan_space(space, values, method, fails, fails_batch, terms) -> VerificationOutcome:
    return _scan_grid(
        space.field, space.base.rows, [m.rows for m in space.directions], values,
        method, fails, lambda t, rows: _witness(space, t, rows, fails),
        fails_batch, terms,
    )


def _sample_space(space, fails, sample_count, seed, notes) -> VerificationOutcome:
    if sample_count <= 0:
        raise BudgetExceededError(
            "verification budget exceeded and sampling is disabled"
        )
    return _run_sampling(
        space.field, space.base.rows, [m.rows for m in space.directions], fails,
        lambda t, rows: _witness(space, t, rows, fails), sample_count, seed, notes,
    )


def combine_outcomes(*outcomes: VerificationOutcome) -> VerificationOutcome:
    """Merge sub-verifications: any REFUTED wins, else the weakest method
    and status win.  Check counts add; notes concatenate."""
    if not outcomes:
        raise ValueError("nothing to combine")
    checks = sum(o.checks_performed for o in outcomes)
    notes = tuple(note for o in outcomes for note in o.notes)
    for o in outcomes:
        if o.refuted:
            return replace(o, checks_performed=checks, notes=notes)
    weakest = min(outcomes, key=lambda o: _METHOD_STRENGTH[o.method])
    status = PROVED if all(o.proved for o in outcomes) else SAMPLED_PASS
    return VerificationOutcome(
        status=status, method=weakest.method, checks_performed=checks,
        sample_count=weakest.sample_count, seed=weakest.seed, notes=notes,
    )


# ---------------------------------------------------------------------------
# verification oracles

def _field_values(p: int, d: int) -> list[int]:
    """The coordinate values of an exhaustive scan of F_p^d.  A space with
    d = 0 has its base as its one member, so no list of p values is built
    for it."""
    return list(range(p)) if d else [0]


def _choose_points(space: AffineMatrixSpace, degree: int, method: str):
    """Pick evaluation values and the method label they justify.

    ``degree`` bounds the per-variable degree of the polynomial identity
    being tested; a grid needs ``degree + 1`` distinct values per coordinate.
    """
    field = space.field
    if isinstance(field, PrimeField):
        p = field.p
        if method == "exhaustive" or (method == "auto" and p <= degree + 1):
            return _field_values(p, space.d), "exhaustive"
        if p < degree + 1:
            raise ValueError(
                f"a grid certificate needs {degree + 1} distinct values; |K| = {p}"
            )
    elif method == "exhaustive":
        raise ValueError("cannot enumerate the rationals exhaustively")
    return list(range(degree + 1)), "grid"


def verify_all_nilpotent(
    space: AffineMatrixSpace,
    budget: int = DEFAULT_BUDGET,
    *,
    method: str = "auto",
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> VerificationOutcome:
    """Decide whether every member of the space is nilpotent.

    Each entry of a member's n-th power has degree <= n in every coefficient,
    so vanishing on a grid with n+1 values per coordinate proves vanishing
    everywhere; over F_p with p <= n+1 the full field is enumerated instead,
    which is exact regardless of the grid argument.  When the required point
    count exceeds ``budget`` the check falls back to seeded random sampling
    (status at best SAMPLED_PASS), unless ``sample_count`` is 0, in which
    case BudgetExceededError is raised.
    """
    if method not in ("auto", "exhaustive", "grid", "random"):
        raise ValueError(f"unknown method {method!r}")
    n = space.n
    fails = _fails_nilpotency(space.field)
    if method == "random":
        return _sample_space(space, fails, sample_count, seed, ())
    values, used = _choose_points(space, n, method)
    total = len(values) ** space.d
    if total > budget:
        if method != "auto":
            raise BudgetExceededError(
                f"{total} points exceed the budget of {budget}"
            )
        return _sample_space(
            space, fails, sample_count, seed,
            (f"grid of {total} points exceeded budget {budget}; sampled instead",),
        )
    fails_batch = (
        _fails_nilpotency_batch(space.field.p, n)
        if isinstance(space.field, PrimeField) else None
    )
    return _scan_space(space, values, used, fails, fails_batch, n)


def verify_constant_rank(
    space: AffineMatrixSpace,
    r: int,
    budget: int = DEFAULT_BUDGET,
    *,
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> VerificationOutcome:
    """Decide whether every member has rank exactly ``r``.

    The upper bound (rank <= r everywhere) is a polynomial identity — all
    (r+1)-minors vanish — and admits a grid certificate.  The lower bound is
    not; over a finite field it is settled by exhaustive enumeration, while
    over the rationals it is only sampled and the outcome is capped at
    SAMPLED_PASS.
    """
    n = space.n
    if not 0 <= r <= n:
        raise ValueError(f"rank must lie in [0, {n}]")
    field = space.field
    p = _modulus(field)

    # the rank capped at r + 1 decides both predicates
    def fails_exact(rows):
        return _rank(rows, p, r) != r

    if isinstance(field, PrimeField) and field.p ** space.d <= budget:
        return _scan_space(
            space, _field_values(field.p, space.d), "exhaustive", fails_exact,
            lambda members: _rank_mod_p_batch(members, field.p) != r, 2,
        )

    # budget rules out exhaustion (always the case over the rationals); the
    # grid proves the upper bound when the field has n + 1 values for it
    parts = []
    if r >= n:
        parts.append(VerificationOutcome(
            status=PROVED, method="exhaustive", checks_performed=0,
            notes=(f"rank <= {n} holds for every {n}x{n} matrix",),
        ))
    elif (
        not (isinstance(field, PrimeField) and field.p < n + 1)
        and (n + 1) ** space.d <= budget
    ):
        def fails_upper(rows):
            return _rank(rows, p, r) > r

        upper = _scan_space(
            space, list(range(n + 1)), "grid", fails_upper,
            lambda members: _rank_mod_p_batch(members, field.p) > r, 2,
        )
        if upper.refuted:
            return upper
        parts.append(replace(upper, notes=(
            f"rank <= {r} proved by vanishing of all {r + 1}-minors on a grid",
        )))

    if r == 0:
        parts.append(VerificationOutcome(
            status=PROVED, method="exhaustive", checks_performed=0,
            notes=("rank >= 0 is vacuous",),
        ))
    if len(parts) == 2 and all(part.proved for part in parts):
        return combine_outcomes(*parts)

    note = (
        "rank lower bound is not a polynomial identity; sampled only"
        if not isinstance(field, PrimeField)
        else f"member count exceeds budget {budget}; sampled"
    )
    sampled = _sample_space(space, fails_exact, sample_count, seed, (note,))
    parts.append(sampled)
    return combine_outcomes(*parts)


def direction_nilpotency(
    space: AffineMatrixSpace,
    budget: int = DEFAULT_BUDGET,
    *,
    method: str = "auto",
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> VerificationOutcome:
    """Verify that every member of the direction span alone is nilpotent.

    For an all-nilpotent affine space over a field with at least n+1
    elements this is implied; over smaller fields it can genuinely fail, so
    a warning note is attached when the hypothesis does not hold.
    """
    notes = ()
    field = space.field
    if isinstance(field, PrimeField) and field.p < space.n + 1:
        msg = (
            f"|K| = {field.p} < n + 1 = {space.n + 1}: direction nilpotency is "
            "not implied by member nilpotency at this field size"
        )
        warnings.warn(msg, UserWarning, stacklevel=2)
        notes = (msg,)
    outcome = verify_all_nilpotent(
        space.direction_span_space(), budget,
        method=method, sample_count=sample_count, seed=seed,
    )
    return replace(outcome, notes=notes + outcome.notes)


def corner_entry_check(space: AffineMatrixSpace) -> VerificationOutcome:
    """For a space based at the shift matrix, check that every direction
    basis matrix has a zero lower-left entry (sufficient by linearity).

    Intended for spaces already proved all-nilpotent over a field with at
    least n+1 elements, where the entry must vanish; used as a consistency
    cross-check rather than an assumption.
    """
    n = space.n
    field = space.field
    if space.base != shift_matrix(n, field):
        raise PreconditionUnmetError("base point must be the shift matrix")
    notes = ()
    if isinstance(field, PrimeField) and field.p < n + 1:
        msg = f"|K| = {field.p} < n + 1 = {n + 1}: corner vanishing is not implied"
        warnings.warn(msg, UserWarning, stacklevel=2)
        notes = (msg,)
    zero = field.zero
    for idx, mat in enumerate(space.directions):
        if mat.rows[n - 1][0] != zero:
            unit = tuple(
                field.one if k == idx else field.zero for k in range(space.d)
            )
            return VerificationOutcome(
                status=REFUTED, method="exhaustive", checks_performed=idx + 1,
                witness=Witness(unit, mat), notes=notes,
            )
    return VerificationOutcome(
        status=PROVED, method="exhaustive", checks_performed=space.d, notes=notes,
    )


def change_basis(space: AffineMatrixSpace, q: ExactMatrix) -> AffineMatrixSpace:
    """Conjugate the whole space by an invertible matrix."""
    if q.field != space.field:
        raise ValueError("basis change matrix over a different field")
    if q.n_rows != space.n or q.n_cols != space.n:
        raise ValueError(f"expected a {space.n}x{space.n} matrix")
    q_inv = inverse(q)  # raises SingularMatrixError when not invertible
    return AffineMatrixSpace(
        space.field,
        space.n,
        q @ space.base @ q_inv,
        tuple(q @ a @ q_inv for a in space.directions),
    )
