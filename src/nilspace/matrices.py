"""Dense exact matrices over F_p or the rationals.

The public surface is :class:`ExactMatrix` plus constructors and the rank /
power / nilpotency / Jordan-structure operations.  The module-private
``_*_mod_p`` helpers operate on raw row tuples of canonical integers and are
shared with the search engine, where object overhead matters.

Indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import NotNilpotentError, SingularMatrixError
from .fields import FieldSpec, PrimeField, RawScalar, Scalar
from .partitions import Partition

Rows = tuple[tuple[RawScalar, ...], ...]


# ---------------------------------------------------------------------------
# raw-row kernels (prime fields: plain ints mod p; rationals: Fractions)

@lru_cache(maxsize=8)
def _inverse_table(p: int) -> tuple[int, ...]:
    """Multiplicative inverses 0..p-1 (index 0 unused) for small primes."""
    table = [0] * p
    table[1] = 1
    for i in range(2, p):
        table[i] = -(p // i) * table[p % i] % p
    return tuple(table)


def _matmul_mod_p(a: Rows, b: Rows, p: int) -> Rows:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
        for row in a
    )


def _matmul_frac(a: Rows, b: Rows) -> Rows:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
        for row in a
    )


def _rows_is_zero(rows: Rows) -> bool:
    return not any(any(row) for row in rows)


def _rank_mod_p(rows: Sequence[Sequence[int]], p: int, cap: int | None = None) -> int:
    """Rank by exact elimination; pivot = lowest row index with a nonzero
    entry in the current column (deterministic).

    With ``cap`` set, returns ``cap + 1`` as soon as the rank exceeds it
    (early exit for exact-rank tests).
    """
    m = list(map(list, rows))
    n_rows = len(m)
    n_cols = len(m[0])
    inv_of = _inverse_table(p) if p < 65536 else None
    rank = 0
    for col in range(n_cols):
        for piv in range(rank, n_rows):
            if m[piv][col]:
                break
        else:
            continue
        if cap is not None and rank >= cap:
            return cap + 1
        prow = m[piv]
        m[piv] = m[rank]
        m[rank] = prow
        inv = inv_of[prow[col]] if inv_of is not None else pow(prow[col], -1, p)
        # rows from ``rank`` on are zero left of ``col``: whole-row updates
        # need no slicing
        for i in range(rank + 1, n_rows):
            ri = m[i]
            f = ri[col]
            if f:
                f = f * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(ri, prow)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _rank_frac(rows) -> int:
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0])
    rank = 0
    for col in range(n_cols):
        piv = None
        for i in range(rank, n_rows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for i in range(rank + 1, n_rows):
            if m[i][col]:
                f = m[i][col] / prow[col]
                ri = m[i]
                for j in range(col, n_cols):
                    ri[j] = ri[j] - f * prow[j]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _is_nilpotent_mod_p(rows: Rows, p: int) -> bool:
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
        power = _matmul_mod_p(power, power, p)
        span *= 2


def _nullspace_mod_p(rows: Sequence[Sequence[int]], p: int) -> list[tuple[int, ...]]:
    """Deterministic kernel basis of the row system ``rows . x = 0`` over F_p.

    Returns one vector per free column of the reduced row-echelon form, with
    the free coordinate set to 1.
    """
    m = [list(r) for r in rows]
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    rank = 0
    for col in range(n_cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        prow = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        pivots.append(col)
        rank += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][fc] % p
        basis.append(tuple(v))
    return basis


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
        """Build from any nested sequence; entries may be ints, Fractions,
        'a/b' strings, or Scalars of the same field."""
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

    def scalar(self, i: int, j: int) -> Scalar:
        return Scalar(self.rows[i][j], self.field)

    # arithmetic -------------------------------------------------------

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        add = self.field.add
        return ExactMatrix(
            self.field,
            tuple(
                tuple(add(x, y) for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        sub = self.field.sub
        return ExactMatrix(
            self.field,
            tuple(
                tuple(sub(x, y) for x, y in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self) -> "ExactMatrix":
        neg = self.field.neg
        return ExactMatrix(self.field, tuple(tuple(neg(x) for x in r) for r in self.rows))

    def scale(self, c) -> "ExactMatrix":
        c = self.field.normalize(c)
        mul = self.field.mul
        return ExactMatrix(self.field, tuple(tuple(mul(c, x) for x in r) for r in self.rows))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.n_cols != other.n_rows:
            raise ValueError("inner dimension mismatch")
        if isinstance(self.field, PrimeField):
            rows = _matmul_mod_p(self.rows, other.rows, self.field.p)
        else:
            rows = _matmul_frac(self.rows, other.rows)
        return ExactMatrix(self.field, rows)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field, tuple(zip(*self.rows)))

    def trace(self) -> RawScalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero
        for i in range(self.n_rows):
            acc = self.field.add(acc, self.rows[i][i])
        return acc

    def is_zero(self) -> bool:
        return _rows_is_zero(self.rows)

    def to_lists(self) -> list[list[RawScalar]]:
        return [list(r) for r in self.rows]

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
    if isinstance(m.field, PrimeField):
        return _rank_mod_p(m.rows, m.field.p)
    return _rank_frac(m.rows)


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
    if isinstance(m.field, PrimeField):
        return _is_nilpotent_mod_p(m.rows, m.field.p)
    n = m.n_rows
    power = m
    span = 1
    while True:
        if power.is_zero():
            return True
        if span >= n:
            return False
        power = power @ power
        span *= 2


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
    """Exact inverse by Gauss-Jordan elimination; raises SingularMatrixError."""
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = m.n_rows
    field = m.field
    work = [list(row) + [field.one if i == j else field.zero for j in range(n)]
            for i, row in enumerate(m.rows)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv_p = field.inv(work[col][col])
        work[col] = [field.mul(inv_p, x) for x in work[col]]
        prow = work[col]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], prow)]
    return ExactMatrix(field, tuple(tuple(row[n:]) for row in work))
