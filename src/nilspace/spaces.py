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
REFUTED, and ``_run_sampling`` scans seeded random points.  Both run the
one pure member loop, ``_scan``, on an iterable of points, and hand a
failing point and member to a caller's witness builder, which re-checks
it with the pure predicate.

Rational scans run on integer members: ``_scan_rows`` scales the rows
once, by the lcm of all their denominators, and rebuilds a failing point
and member as Fractions.  Its docstring states the scale-invariance
contract every predicate obeys.

Both paths run batched in numpy when ``_batch_moduli`` allows: over F_p for at
least ``_NUMPY_MIN_POINTS`` points, over Q whenever the multi-modular rule
below covers the scan.  ``_batch_moduli`` decides before any array exists,
and numpy is imported by the batched kernels themselves, at the first
batched scan; a process whose scans all run pure never loads it.  The one
batched loop, ``_scan_numpy``, serves grids and samples alike: its points
are prefixes times a suffix grid, the prefixes an iterable of the first
d - j coordinates and the suffix the grid over the last j.  A grid fixes
j once, the largest whose suffix grid fits a chunk; samples have j = 0.
It runs in chunks of whole blocks of at most ``_chunk_points`` members,
the most whose working set fits ``_CHUNK_BYTES``, 2 MiB:
``_CHUNK_ARRAYS`` (n, n, B) arrays per modulus hold the members, the
statistic's temporaries and the suffix grid.  So a scan's arrays stay
within about 2 MiB however many points it covers.  A predicate's batch
form, a ``_BatchTest``, computes an integer statistic of each member mod a
prime q, nilpotency by repeated squaring, rank by fraction-free
elimination, and the trace predicate of
``reduction.trace_condition_verify``; the scan takes the largest value
over its moduli and hands it to the predicate.  F_p scans run on the one
modulus p.  Q scans run on the integer members mod the fewest primes of
``_Q_MODULI`` whose product exceeds twice the largest |integer| the
statistic compares with zero (``_BatchTest.bound``, from the largest
|entry| of any member, e.g. the Hadamard bound k^(k/2) E^k on k x k
minors).  Then the integer is 0 iff it is 0 mod every prime, so the rank
over Q is the largest rank mod a prime and a member is nilpotent over Q
iff it is nilpotent mod every prime.  ``_exact`` states that rule,
``_scan_numpy`` asserts it, and a scan whose bound outruns the list runs
pure.  The batched scan gives the same first failing point and check
count as the pure one, ``_scan``.

A batch of members is one (n, n, B) array, batch axis last, so each
elementwise step runs over B contiguous values.  Its dtype holds every sum
of ``terms`` products of residues plus one residue: ``_terms_held(dtype,
q)`` is the one place the bound ``terms * (q - 1)**2 + (q - 1) <=
max(dtype)`` is stated.  It is the narrowest of int16, int32 and int64
that holds the longest dot product a predicate computes mod the largest
modulus, ``_int_dtype(q, terms)``, and a scan that no dtype holds runs
pure.  At p = 7 every scan runs in int16; the primes of ``_Q_MODULI``
lie below 2^27, so int64 holds every predicate's dot product on members
up to 22 x 22.
"""

from __future__ import annotations

import operator
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, product
from math import isqrt, lcm, prod
from typing import Callable, NamedTuple, Optional, Sequence

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
# chunks start small and double up to the cap of _chunk_points, so an early
# violation costs one small chunk
_NUMPY_MIN_POINTS = 4096
_NUMPY_FIRST_CHUNK = _NUMPY_MIN_POINTS // 4
# the cap's byte budget, and the (n, n, B) arrays a chunk holds per modulus:
# 2 MiB, one core's L2 cache, was the fastest budget of a sweep from 256 KiB
# to 4 MiB on a 2-core Xeon, and the trace scan, the largest, traced 5.6
# arrays per point of its chunks
_CHUNK_BYTES = 1 << 21
_CHUNK_ARRAYS = 6

# rational samples draw each coordinate from [-_Q_SAMPLE_TOP, _Q_SAMPLE_TOP]
_Q_SAMPLE_TOP = 10**6

# the moduli of batched rational scans: the largest primes below 2^27, for
# which int64 holds 512 products of residues plus one residue (216 bits)
_Q_MODULI = (
    134217689, 134217649, 134217617, 134217613,
    134217593, 134217541, 134217529, 134217509,
)


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
                             coeffs, _modulus(self.field))
        return ExactMatrix(self.field, rows)

    def direction_span_space(self) -> "AffineMatrixSpace":
        """The same directions attached to a zero base point."""
        zero = ExactMatrix.zeros(self.n, self.n, self.field)
        return AffineMatrixSpace(self.field, self.n, zero, self.directions)


# ---------------------------------------------------------------------------
# point generation

def _combine_rows(base_rows, dir_rows_list, coeffs, p):
    """The rows of base + sum c_i dir_i mod the prime p, or over Q when p
    is None, on ints and Fractions alike."""
    rows = base_rows
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
    """The rows a grid or sample scan tests, and ``rebuild(t, rows)``,
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
        return t, _combine_rows(base_rows, dir_rows_list, t, None)

    return scaled(base_rows), [scaled(rows) for rows in dir_rows_list], rebuild


def _scan(base_rows, dir_rows_list, points, field, fails) -> tuple[Optional[tuple], Optional[tuple], int]:
    """(t, member_rows, checks) for the first point t of the iterable
    ``points`` whose member base + sum t_i dir_i ``fails`` flags, else
    (None, None, checks): the one pure member loop.  Each member is the
    previous one plus sum (t - prev)_i dir_i, and ``_combine_rows`` skips
    zero steps, so most steps of a product-order grid cost one addition."""
    p = _modulus(field)
    rows, prev = base_rows, (0,) * len(dir_rows_list)
    checked = 0
    for t in points:
        # map, not a list: the pure scans build a member per point
        rows = _combine_rows(rows, dir_rows_list, map(operator.sub, t, prev), p)
        prev = t
        checked += 1
        if fails(rows):
            return t, rows, checked
    return None, None, checked


# the scan dtypes by name, narrowest first, and their largest values
_INT_MAX = {"int16": 2**15 - 1, "int32": 2**31 - 1, "int64": 2**63 - 1}


def _terms_held(dtype, q: int) -> int:
    """How many products of residues mod ``q``, plus one residue, a sum in
    ``dtype``, a name or a numpy dtype, holds: the largest ``terms`` with
    ``terms * (q - 1)**2 + (q - 1) <= max(dtype)``."""
    return (_INT_MAX[str(dtype)] - (q - 1)) // (q - 1) ** 2


def _int_dtype(p: int, terms: int):
    """The name of the narrowest of int16, int32 and int64 that holds a sum
    of ``terms`` products of residues mod ``p`` plus one residue, or None."""
    for dtype in _INT_MAX:
        if _terms_held(dtype, p) >= terms:
            return dtype
    return None


class _BatchTest(NamedTuple):
    """The batch form of a scan predicate.

    ``statistic(members, q)`` maps an (n, n, B) batch of members mod the
    prime q, batch axis last, to B integers; ``fails`` maps their largest
    value over a scan's moduli to B verdicts.  ``terms`` is the longest dot
    product of residues the statistic computes, which the scan's dtype
    holds whole.  ``bound(e)`` bounds |x| for every integer x the statistic
    compares with zero when the members are integer matrices with entries
    in [-e, e]."""

    statistic: Callable
    fails: Callable
    terms: int
    bound: Callable


def _exact(moduli, bound: int) -> bool:
    """Whether integers in [-bound, bound] are determined by their residues
    mod the primes ``moduli``: their product exceeds 2 * bound.  Then such
    an integer is 0 iff it is 0 mod every prime, so over Q a statistic's
    largest value over the moduli is its value over the integers."""
    return prod(moduli) > 2 * bound


def _q_moduli(bound: int):
    """The fewest leading primes of ``_Q_MODULI`` that are ``_exact`` for
    ``bound``, or None when all of them are not."""
    for j in range(1, len(_Q_MODULI) + 1):
        if _exact(_Q_MODULI[:j], bound):
            return _Q_MODULI[:j]
    return None


def _entry_bound(base_rows, dir_rows_list, top: int) -> int:
    """The largest |entry| of base + sum t_i dir_i over integer rows, for
    every point with all |t_i| <= top."""
    flat = [[x for row in rows for x in row] for rows in (base_rows, *dir_rows_list)]
    return max(
        abs(x) + top * sum(map(abs, ys)) for x, *ys in zip(*flat)
    )


def _batch_moduli(field, batch, base_rows, dir_rows_list, top: int, points: int):
    """(moduli, bound) for a batched scan of ``points`` members base + sum
    t_i dir_i of the rows ``_scan_rows`` gives, or None when the scan runs
    pure: when no dtype holds ``batch.terms`` products mod the moduli, and
    over F_p below ``_NUMPY_MIN_POINTS`` points.  Over F_p the moduli are
    (p,) and the bound is None: the residues are the field's own elements.
    Over Q the bound is ``batch.bound`` at the largest |entry| of any
    member with every |t_i| <= top."""
    if isinstance(field, PrimeField):
        plan = ((field.p,), None) if points >= _NUMPY_MIN_POINTS else None
    else:
        bound = batch.bound(_entry_bound(base_rows, dir_rows_list, top))
        moduli = _q_moduli(bound)
        plan = None if moduli is None else (moduli, bound)
    if plan is None or _int_dtype(max(plan[0]), batch.terms) is None:
        return None
    return plan


def _batch_dtype(moduli, batch, bound):
    """The dtype of a batched scan, after checking what it relies on: that
    it holds ``batch.terms`` products mod every modulus, and over Q that
    ``moduli`` are ``_exact`` for ``bound``."""
    if bound is not None and not _exact(moduli, bound):
        raise AssertionError(f"{len(moduli)} moduli do not determine integers up to {bound}")
    dtype = _int_dtype(max(moduli), batch.terms)
    if dtype is None:
        raise AssertionError(f"int64 overflow: {batch.terms} terms mod {max(moduli)}")
    return dtype


def _chunk_points(n: int, dtype, moduli) -> int:
    """The cap on a batched chunk's points: the most whose working set fits
    ``_CHUNK_BYTES``, at least one."""
    import numpy as np

    point = len(moduli) * _CHUNK_ARRAYS * n * n * np.dtype(dtype).itemsize
    return max(1, _CHUNK_BYTES // point)


def _residues(rows, q: int, dtype):
    import numpy as np

    return np.array([[x % q for x in row] for row in rows], dtype=dtype)


def _combined_verdicts(batch, members_mod):
    """``batch.fails`` of the largest statistic over the moduli, where
    ``members_mod`` yields (members, q) per modulus."""
    import numpy as np

    stat = None
    for members, q in members_mod:
        value = batch.statistic(members, q)
        stat = value if stat is None else np.maximum(stat, value)
    return batch.fails(stat)


def _scan_grid(field, base_rows, dir_rows_list, values, method, fails, witness,
               batch) -> VerificationOutcome:
    """Scan the members ``base + sum t_i dir_i`` over the grid ``values^d``,
    ``values`` a range from 0: REFUTED at the first member ``fails`` flags,
    with ``witness(t, rows)`` as its witness, else PROVED; both labelled
    ``method``.  This is the one path from a grid or exhaustive scan to an
    outcome.

    It runs on the members of ``_scan_rows``, batched by ``_scan_numpy``
    with ``batch``, the batch form of ``fails``, as prefixes times a suffix
    grid when ``_batch_moduli`` allows, else by ``_scan`` in product order.
    """
    d = len(dir_rows_list)
    scan_base, scan_dirs, rebuild = _scan_rows(field, base_rows, dir_rows_list)
    # values[-1], not max(values): O(1) on a range of p values
    plan = _batch_moduli(field, batch, scan_base, scan_dirs, values[-1], len(values) ** d)
    if plan is not None:
        moduli, bound = plan
        t, rows, checked = _scan_numpy(scan_base, scan_dirs, values, moduli,
                                       len(base_rows), batch, bound)
    else:
        t, rows, checked = _scan(scan_base, scan_dirs, product(values, repeat=d), field, fails)
    if t is None:
        return VerificationOutcome(status=PROVED, method=method, checks_performed=checked)
    return VerificationOutcome(
        status=REFUTED, method=method, checks_performed=checked,
        witness=witness(*rebuild(t, rows)),
    )


def _scan_numpy(base_rows, dir_rows_list, values, moduli, n, batch, bound=None, samples=None):
    """Batched ``_scan`` over the grid ``values^d`` in product order, or
    over the iterable ``samples`` when it is given: the same (t,
    member_rows, checks) triple.  This is the one batched scan loop.

    The scan runs on ``moduli`` with ``batch`` as its predicate, ``bound``
    None over F_p and over Q the bound of ``_batch_moduli``.  Its points are
    prefixes times a suffix grid: the prefixes are an iterable of the first
    d - j coordinates, ``product(values, repeat=d - j)`` for a grid or the
    samples themselves, and the suffix is the grid ``values^j`` over the
    last j coordinates, built once per modulus.  A grid takes the largest
    j whose k**j points fit the cap of ``_chunk_points``; samples take
    j = 0.  A chunk is whole blocks of k**j points, from
    ``_NUMPY_FIRST_CHUNK`` points doubling up to the cap.  Its members are
    the member at each prefix, d - j scaled additions reduced after each,
    plus the suffix grid, mod q; at j = 0 the members are built in place in
    the one buffer every chunk is written to.
    """
    import numpy as np

    dtype = _batch_dtype(moduli, batch, bound)
    cap = _chunk_points(n, dtype, moduli)
    d, k = len(dir_rows_list), len(values)
    if samples is None:
        j = d
        while k**j > cap:
            j -= 1
        prefixes = product(values, repeat=d - j)
    else:
        j, prefixes = 0, samples
    block = k**j
    states = []
    for q in moduli:
        dirs = [_residues(rows, q, dtype) for rows in dir_rows_list]
        grid = np.zeros((n, n, 1), dtype=dtype)
        # the last coordinate varies fastest; values is read only at j > 0,
        # where its k <= cap points are few
        for direction in reversed(dirs[d - j:]):
            vals = np.array([v % q for v in values], dtype=dtype)
            grid = _reduce(direction[:, :, None, None] * vals[:, None] + grid[:, :, None, :], q)
            grid = grid.reshape(n, n, -1)
        states.append((q, _residues(base_rows, q, dtype), dirs, grid))
    buffers = np.empty((2, n * n * cap), dtype=dtype)

    def members(chunk):
        """The chunk's members mod each modulus, each valid until the next."""
        out, scratch = buffers[:, :n * n * len(chunk) * block].reshape(2, n, n, len(chunk), block)
        # the prefix members go to whichever buffer is free until the suffix
        # is added: the output itself at j = 0, where there is no suffix
        prefix, work = (out[..., 0], scratch[..., 0]) if j == 0 else (scratch[..., 0], out[..., 0])
        # coordinates fit int64: |t| <= _Q_SAMPLE_TOP over Q, t < p over F_p,
        # whose p passed _int_dtype
        coords = np.array(chunk, dtype=np.int64).reshape(len(chunk), d - j).T
        for q, base, dirs, grid in states:
            prefix[...] = base[:, :, None]
            for direction, c in zip(dirs, (coords % q).astype(dtype)):
                np.multiply(direction[:, :, None], c, out=work)
                prefix += work
                _reduce(prefix, q, work)
            if j:
                np.add(prefix[..., None], grid[:, :, None, :], out=out)
                _reduce(out, q, scratch)
            yield out.reshape(n, n, -1), q

    prefixes = iter(prefixes)
    start, size = 0, min(_NUMPY_FIRST_CHUNK, cap)
    while chunk := list(islice(prefixes, max(1, size // block))):
        bad = np.flatnonzero(_combined_verdicts(batch, members(chunk)))
        if bad.size:
            first = int(bad[0])
            at, suffix = divmod(first, block)
            t = (*chunk[at], *(values[i] for i in np.unravel_index(suffix, (k,) * j)))
            # the integer member over Q, the residues over F_p
            rows = _combine_rows(base_rows, dir_rows_list, t, moduli[0] if bound is None else None)
            return t, rows, start + first + 1
        start += len(chunk) * block
        size = min(2 * size, cap)
    return None, None, start


def _reduce(a, p: int, scratch=None):
    """``a`` mod p, in place; ``scratch``, when given, an array of a's shape
    and dtype that takes the quotient.  a - p * (a // p) is the remainder;
    numpy vectorises integer floor division by a scalar but not the
    remainder, which takes 3 to 12 times as long."""
    import numpy as np

    mod = a.dtype.type(p)
    quotient = np.floor_divide(a, mod, out=scratch)
    quotient *= mod
    a -= quotient
    return a


def _matmul_batch(a, b, p: int, out=None):
    """The products mod p of two (n, n, B) batches, batch axis last, by one
    contraction over the middle index; into ``out`` when given, which must
    not share memory with ``a`` or ``b``."""
    import numpy as np

    return _reduce(np.einsum("imx,mjx->ijx", a, b, out=out), p)


def _rank_mod_p_batch(a, p: int):
    """Ranks of an (m, k, B) batch of residues mod p, batch axis last, in a
    signed dtype that holds two products of residues plus one residue.

    Fraction-free elimination on a copy, one column at a time.  The pivot
    row is the lowest row with a nonzero entry in the column, and every row
    becomes ``row * pivot - entry * pivot_row`` mod p, so no inverse is
    needed and no row is swapped: the pivot row becomes 0 and takes no
    further part.  Only the columns right of the pivot column are updated,
    since later steps read no column left of them.  One scratch array of
    a's size takes every step's products and quotients.
    """
    import numpy as np

    a = a.copy()
    work = np.empty_like(a)
    m, k, n_batch = a.shape
    one = a.dtype.type(1)
    rank = np.zeros(n_batch, dtype=np.int64)
    for col in range(k):
        column = a[:, col, :]
        nonzero = column != 0
        has = nonzero.any(axis=0)
        if not has.any():
            continue
        prow = a[m - 1, col:].copy()
        for i in range(m - 2, -1, -1):
            np.copyto(prow, a[i, col:], where=nonzero[i])
        np.copyto(prow[0], one, where=~has)  # a zero column: every row stays
        rest, product = a[:, col + 1:, :], work[:, col + 1:, :]
        rest *= prow[0]
        np.multiply(column[:, None, :], prow[None, 1:, :], out=product)
        rest -= product
        _reduce(rest, p, product)
        rank += has
        if (rank == m).all():
            break
    return rank


def _rank_batch(n: int, fails: Callable) -> _BatchTest:
    """The batch form of a predicate ``fails`` on the rank; a k x k minor
    is at most k^(k/2) e^k <= n^(n/2) e^n in absolute value (Hadamard)."""
    return _BatchTest(_rank_mod_p_batch, fails, 2, lambda e: (isqrt(n**n) + 1) * e**n)


def _nilpotency_batch(n: int) -> _BatchTest:
    """Not nilpotent: M^(2^s) != 0 for the least 2^s >= n, by s squarings;
    its entries are at most n^(2^s - 1) e^(2^s) in absolute value."""
    squarings = (n - 1).bit_length()

    def statistic(members, q):
        import numpy as np

        power, spare = members, np.empty((2, *members.shape), dtype=members.dtype)
        for s in range(squarings):
            power = _matmul_batch(power, power, q, out=spare[s % 2])
        return power.reshape(n * n, -1).any(axis=0)

    power = 1 << squarings
    return _BatchTest(statistic, lambda nonzero: nonzero, n,
                      lambda e: n ** (power - 1) * e**power)


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
    over Q integers in [-_Q_SAMPLE_TOP, _Q_SAMPLE_TOP]."""
    bits = random.Random(seed).getrandbits
    lo, hi = (0, field.p) if isinstance(field, PrimeField) else (-_Q_SAMPLE_TOP, _Q_SAMPLE_TOP + 1)
    # randrange(lo, hi)'s own draw, without its per-call checks: lo plus the
    # first getrandbits(k) below hi - lo, k the bit length of hi - lo
    width = hi - lo
    k = width.bit_length()
    for _ in range(sample_count):
        t = []
        for _ in range(d):
            r = bits(k)
            while r >= width:
                r = bits(k)
            t.append(lo + r)
        yield tuple(t)


def _run_sampling(field, base_rows, dir_rows_list, fails, witness, sample_count,
                  seed, notes, batch) -> VerificationOutcome:
    """Seeded random sampling of the members ``base + sum t_i dir_i``:
    REFUTED at the first member ``fails`` flags, with ``witness(t, rows)``
    as its witness, else SAMPLED_PASS.  This is the one path from samples
    to an outcome; over Q it tests the integer members of ``_scan_rows`` at
    integer samples.  It runs batched by ``_scan_numpy`` with ``batch``,
    the batch form of ``fails``, the samples as its prefixes and no suffix
    grid, when ``_batch_moduli`` allows, else by ``_scan``.
    """
    scan_base, scan_dirs, rebuild = _scan_rows(field, base_rows, dir_rows_list)
    points = _sample_points(field, len(dir_rows_list), sample_count, seed)
    plan = _batch_moduli(field, batch, scan_base, scan_dirs, _Q_SAMPLE_TOP, sample_count)
    if plan is not None:
        moduli, bound = plan
        t, rows, checked = _scan_numpy(scan_base, scan_dirs, (), moduli, len(base_rows), batch,
                                       bound, samples=points)
    else:
        t, rows, checked = _scan(scan_base, scan_dirs, points, field, fails)
    if t is not None:
        return VerificationOutcome(
            status=REFUTED, method="random", checks_performed=checked,
            witness=witness(*rebuild(t, rows)), sample_count=sample_count,
            seed=seed, notes=tuple(notes),
        )
    return VerificationOutcome(
        status=SAMPLED_PASS, method="random", checks_performed=checked,
        sample_count=sample_count, seed=seed, notes=tuple(notes),
    )


def _scan_space(space, values, method, fails, batch) -> VerificationOutcome:
    return _scan_grid(
        space.field, space.base.rows, [m.rows for m in space.directions], values,
        method, fails, lambda t, rows: _witness(space, t, rows, fails), batch,
    )


def _sample_space(space, fails, sample_count, seed, notes, batch) -> VerificationOutcome:
    if sample_count <= 0:
        raise BudgetExceededError(
            "verification budget exceeded and sampling is disabled"
        )
    return _run_sampling(
        space.field, space.base.rows, [m.rows for m in space.directions], fails,
        lambda t, rows: _witness(space, t, rows, fails), sample_count, seed, notes,
        batch,
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

def _choose_points(space: AffineMatrixSpace, degree: int, method: str):
    """Pick evaluation values and the method label they justify.

    ``degree`` bounds the per-variable degree of the polynomial identity
    being tested; a grid needs ``degree + 1`` distinct values per coordinate.
    """
    field = space.field
    if isinstance(field, PrimeField):
        p = field.p
        if method == "exhaustive" or (method == "auto" and p <= degree + 1):
            return range(p), "exhaustive"
        if p < degree + 1:
            raise ValueError(
                f"a grid certificate needs {degree + 1} distinct values; |K| = {p}"
            )
    elif method == "exhaustive":
        raise ValueError("cannot enumerate the rationals exhaustively")
    return range(degree + 1), "grid"


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
    case BudgetExceededError is raised.  ``method="random"`` samples
    whatever the budget, so it needs ``sample_count >= 1``.
    """
    if method not in ("auto", "exhaustive", "grid", "random"):
        raise ValueError(f"unknown method {method!r}")
    if method == "random" and sample_count < 1:
        raise ValueError(f"method 'random' needs sample_count >= 1, got {sample_count}")
    n = space.n
    fails = _fails_nilpotency(space.field)
    batch = _nilpotency_batch(n)
    if method == "random":
        return _sample_space(space, fails, sample_count, seed, (), batch)
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
            batch,
        )
    return _scan_space(space, values, used, fails, batch)


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

    exact_batch = _rank_batch(n, lambda ranks: ranks != r)
    if isinstance(field, PrimeField) and field.p ** space.d <= budget:
        return _scan_space(
            space, range(field.p), "exhaustive", fails_exact, exact_batch,
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
            space, range(n + 1), "grid", fails_upper,
            _rank_batch(n, lambda ranks: ranks > r),
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
    sampled = _sample_space(space, fails_exact, sample_count, seed, (note,), exact_batch)
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
