"""Dense exact matrices over F_p or the rationals.

The public surface is :class:`ExactMatrix` plus constructors and the rank /
power / nilpotency / Jordan-structure operations.  The module-private
kernels operate on raw row tuples of canonical representatives and are
shared with the verifiers and the search engine, where object overhead
matters.  Each takes the field as ``p``: the prime for F_p, None for Q.
One forward elimination, ``_echelon``, gives the rank (``_rank``, with an
early exit past a cap), the kernel (``_nullspace``, by back-substitution)
and the inverse (through the kernel of [m | I]); the row reduction is the
only step where F_p and Q differ.  Over Q it is fraction-free (Bareiss):
it takes int or Fraction rows, clears each row's denominators and
eliminates on ints, so only the back-substitution divides, into
Fractions.  ``_matmul`` and ``_is_nilpotent`` (repeated squaring) serve
both fields the same way; ``_is_nilpotent_of_rank`` decides nilpotency
over F_p from traces of powers when the rank r < p is known.

Indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from .errors import NotNilpotentError, SingularMatrixError
from .fields import FieldSpec, PrimeField, RawScalar
from .partitions import Partition

Rows = tuple[tuple[RawScalar, ...], ...]


# ---------------------------------------------------------------------------
# raw-row kernels (prime fields: plain ints mod p; rationals: ints or
# Fractions, eliminated fraction-free)

@lru_cache(maxsize=8)
def _inverse_table(p: int) -> tuple[int, ...]:
    """Multiplicative inverses 0..p-1 (index 0 unused) for small primes."""
    table = [0] * p
    table[1] = 1
    for i in range(2, p):
        table[i] = -(p // i) * table[p % i] % p
    return tuple(table)


def _modulus(field: FieldSpec) -> int | None:
    """The ``p`` argument of the raw-row kernels: p for F_p, None for Q."""
    return field.p if isinstance(field, PrimeField) else None


def _matmul(a: Rows, b: Rows, p: int | None) -> Rows:
    # map(mul) and a list inside tuple() spare a generator per entry and per
    # row, which halves the time of a 5 x 5 product on CPython 3.11
    cols = tuple(zip(*b))
    if p:
        return tuple(tuple([sum(map(mul, row, col)) % p for col in cols]) for row in a)
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def _rows_is_zero(rows: Rows) -> bool:
    return not any(any(row) for row in rows)


def _echelon(rows: Sequence[Sequence[RawScalar]], p: int | None, cap: int | None = None):
    """Forward elimination over F_p, or over Q when ``p`` is None.

    Returns ``(m, rank)``: ``m`` is a row-echelon form of ``rows``, whose
    rows below ``rank`` are zero and whose row k < rank has its pivot at its
    first nonzero entry, right of the pivot of row k - 1.  The pivot is the
    lowest row index with a nonzero entry in the current column
    (deterministic).  With ``cap`` set, elimination stops at pivot
    ``cap + 1`` and returns ``cap + 1`` as the rank (early exit for
    exact-rank tests), ``m`` then only partly reduced.

    Over Q, rows may hold ints, Fractions or both.  Each row is first scaled
    by the lcm of its entries' denominators, and the elimination is
    fraction-free (Bareiss): every row below the pivot becomes
    ``(x * pivot - f * y) // prev``, ``prev`` the previous pivot, an exact
    division, so ``m`` holds ints only.
    """
    if p:
        m = list(map(list, rows))
        inv_of = _inverse_table(p) if p < 65536 else None
    else:
        m = []
        for row in rows:
            scale = lcm(*[x.denominator for x in row])
            m.append([x.numerator * (scale // x.denominator) for x in row])
        prev = 1
    n_rows = len(m)
    rank = 0
    for col in range(len(m[0])):
        for piv in range(rank, n_rows):
            if m[piv][col]:
                break
        else:
            continue
        if cap is not None and rank >= cap:
            return m, cap + 1
        prow = m[piv]
        m[piv] = m[rank]
        m[rank] = prow
        pivot = prow[col]
        # rows from ``rank`` on are zero left of ``col``: whole-row updates
        # need no slicing.  Over F_p a row whose entry is 0 stays as it is;
        # over Q every row below is rescaled, as Bareiss's exact division
        # by the next pivot needs.
        if p:
            inv = inv_of[pivot] if inv_of is not None else pow(pivot, -1, p)
            for i in range(rank + 1, n_rows):
                ri = m[i]
                f = ri[col]
                if f:
                    f = f * inv % p
                    m[i] = [(x - f * y) % p for x, y in zip(ri, prow)]
        else:
            for i in range(rank + 1, n_rows):
                ri = m[i]
                f = ri[col]
                m[i] = [(x * pivot - f * y) // prev for x, y in zip(ri, prow)]
            prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return m, rank


def _rank(rows: Sequence[Sequence[RawScalar]], p: int | None, cap: int | None = None) -> int:
    """Rank over F_p (Q when ``p`` is None); ``cap + 1`` once it exceeds ``cap``."""
    return _echelon(rows, p, cap)[1]


def _back_substitute(m, rank: int, n_cols: int, p: int | None) -> list[tuple]:
    """Kernel basis of the system whose forward echelon form is ``m``.

    One vector per free (non-pivot) column, in increasing column order: 1
    at its own free column, 0 at every other one, and the pivot coordinates
    solved from the last pivot row up.  These conditions make the basis
    unique, so it equals the reduced-row-echelon basis.
    """
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivots = [next(j for j, x in enumerate(m[k]) if x) for k in range(rank)]
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = [zero] * n_cols
        v[fc] = one
        for k in range(rank - 1, -1, -1):
            pc = pivots[k]
            row = m[k]
            s = sum(row[j] * v[j] for j in range(pc + 1, n_cols))
            # over Q the row holds ints: an empty sum is the int 0
            v[pc] = -s * pow(row[pc], -1, p) % p if p else Fraction(-s, row[pc])
        basis.append(tuple(v))
    return basis


def _nullspace(rows: Sequence[Sequence[RawScalar]], p: int | None) -> list[tuple]:
    """Deterministic kernel basis of the row system ``rows . x = 0`` over
    F_p (Q when ``p`` is None); see ``_back_substitute``."""
    if not rows:
        return []
    return _back_substitute(*_echelon(rows, p), len(rows[0]), p)


def _is_nilpotent(rows: Rows, p: int | None) -> bool:
    """Nilpotency via repeated squaring: an n x n matrix is nilpotent iff
    its 2^k-th power vanishes once 2^k >= n."""
    n = len(rows)
    power = rows
    span = 1
    while True:
        if _rows_is_zero(power):
            return True
        if span >= n:
            return False
        power = _matmul(power, power, p)
        span *= 2


def _is_nilpotent_of_rank(rows: Rows, p: int, r: int, known: int = 0) -> bool:
    """Nilpotency of a matrix of rank r over F_p with p > r, by the traces
    tr(M^k) = 0, k = 1..r.  Its principal minors above size r vanish, so the
    characteristic polynomial is x^n iff e_1..e_r vanish, and by Newton's
    identities k e_k is a combination of the traces up to k, with k < p
    invertible.  The caller vouches that tr(M^k) = 0 for k <= ``known``;
    those traces are not checked."""
    if r <= known:
        return True
    if not known and sum(row[i] for i, row in enumerate(rows)) % p:
        return False
    cols = tuple(zip(*rows))
    power = rows
    for k in range(2, r + 1):
        if k > 2:
            power = _matmul(power, rows, p)
        # tr(M^k): row i of M^(k-1) against column i of M
        if k > known and sum(
            x * y for row, col in zip(power, cols) for x, y in zip(row, col)
        ) % p:
            return False
    return True


# ---------------------------------------------------------------------------
# the matrix type

@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """Immutable dense matrix of canonical field representatives."""

    field: FieldSpec
    rows: Rows

    def __post_init__(self):
        rows = self.rows
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        ok = self.field.is_canonical
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not ok(x):
                    raise ValueError(
                        f"entry {x!r} is not canonical for {self.field!r};"
                        " use ExactMatrix.from_rows"
                    )

    # construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, data) -> "ExactMatrix":
        """Build from any nested sequence of ints, Fractions or strings,
        each mapped by ``field.normalize``; 'a/b' strings are read only over
        Q (over F_p, ``int()`` rejects them)."""
        norm = field.normalize
        return cls(field, tuple(tuple(norm(x) for x in row) for row in data))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, field: FieldSpec) -> "ExactMatrix":
        z = field.zero
        return cls(field, tuple((z,) * n_cols for _ in range(n_rows)))

    # shape ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, ij: tuple[int, int]) -> RawScalar:
        i, j = ij
        return self.rows[i][j]

    # arithmetic -------------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix.from_rows(self.field, [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix.from_rows(self.field, [
            [x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.normalize(c)
        return ExactMatrix.from_rows(self.field, [[c * x for x in r] for r in self.rows])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimension mismatch")
        return ExactMatrix(
            self.field, _matmul(self.rows, other.rows, _modulus(self.field))
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field, tuple(zip(*self.rows)))

    def trace(self) -> RawScalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return self.field.normalize(sum(row[i] for i, row in enumerate(self.rows)))

    def is_zero(self) -> bool:
        return _rows_is_zero(self.rows)

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.rows!r})"


# ---------------------------------------------------------------------------
# constructors from the standard cast of characters

def identity_matrix(n: int, field: FieldSpec) -> ExactMatrix:
    one, zero = field.one, field.zero
    return ExactMatrix(
        field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    )


def shift_matrix(n: int, field: FieldSpec) -> ExactMatrix:
    """The n x n matrix with ones on the superdiagonal and zeros elsewhere."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one, zero = field.one, field.zero
    return ExactMatrix(
        field,
        tuple(tuple(one if j == i + 1 else zero for j in range(n)) for i in range(n)),
    )


def unit_matrix(i: int, j: int, n: int, field: FieldSpec) -> ExactMatrix:
    """Single 1 at position (i, j), 0-based, zero elsewhere."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"index ({i}, {j}) out of range for n = {n}")
    one, zero = field.one, field.zero
    return ExactMatrix(
        field,
        tuple(
            tuple(one if (a, b) == (i, j) else zero for b in range(n)) for a in range(n)
        ),
    )


# ---------------------------------------------------------------------------
# rank, powers, nilpotency, Jordan structure

def rank(m: ExactMatrix) -> int:
    return _rank(m.rows, _modulus(m.field))


def mat_pow(m: ExactMatrix, e: int) -> ExactMatrix:
    """Exact e-th power by binary exponentiation; e = 0 gives the identity."""
    if not m.is_square:
        raise ValueError("powers of a non-square matrix")
    if e < 0:
        raise ValueError("exponent must be >= 0")
    result = identity_matrix(m.n_rows, m.field)
    base = m
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def is_nilpotent(m: ExactMatrix) -> bool:
    if not m.is_square:
        raise ValueError("nilpotency of a non-square matrix")
    return _is_nilpotent(m.rows, _modulus(m.field))


def nilindex(m: ExactMatrix) -> int | None:
    """Smallest k >= 1 with m^k = 0, or None if m is not nilpotent."""
    if not m.is_square:
        raise ValueError("nilindex of a non-square matrix")
    n = m.n_rows
    power = m
    for k in range(1, n + 1):
        if power.is_zero():
            return k
        if k < n:
            power = power @ m
    return None


def jordan_partition(m: ExactMatrix) -> Partition:
    """Block-size partition of a nilpotent matrix from its rank sequence.

    The number of blocks of size >= j equals rank(m^(j-1)) - rank(m^j); the
    partition of block sizes is the conjugate of that count sequence.
    """
    if not m.is_square:
        raise ValueError("Jordan structure of a non-square matrix")
    n = m.n_rows
    ranks = [n]
    power = m
    for _ in range(n):
        r = rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = power @ m
    if ranks[-1] != 0:
        raise NotNilpotentError("matrix is not nilpotent")
    counts = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    counts += [0] * (n - len(counts))
    return Partition(tuple(counts)).conjugate()


def submatrix(m: ExactMatrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> ExactMatrix:
    """The minor block selected by strictly increasing 0-based index lists."""
    for name, idx, bound in (("row", row_idx, m.n_rows), ("column", col_idx, m.n_cols)):
        if not idx:
            raise ValueError(f"empty {name} index list")
        if any(not 0 <= i < bound for i in idx):
            raise ValueError(f"{name} index out of range: {idx!r}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{name} indices must be strictly increasing: {idx!r}")
    return ExactMatrix(
        m.field, tuple(tuple(m.rows[i][j] for j in col_idx) for i in row_idx)
    )


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises SingularMatrixError.

    The kernel of [m | I] is spanned by the columns of [-m^-1; I], one per
    free column of I, exactly when the pivots of [m | I] are m's columns:
    [m | I] has rank n, so when row n - 1 has its pivot in column n - 1.
    """
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = m.n_rows
    field = m.field
    p = _modulus(field)
    one, zero = field.one, field.zero
    work, _ = _echelon(
        [row + tuple(one if i == j else zero for j in range(n))
         for i, row in enumerate(m.rows)],
        p,
    )
    if not work[n - 1][n - 1]:
        raise SingularMatrixError("matrix is singular")
    kernel = _back_substitute(work, n, 2 * n, p)
    return ExactMatrix.from_rows(field, [[-v[i] for v in kernel] for i in range(n)])
