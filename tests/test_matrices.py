import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilspace import (
    ExactMatrix,
    NotNilpotentError,
    PrimeField,
    RATIONALS,
    SingularMatrixError,
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

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_shift_matrix_pattern():
    j = shift_matrix(3, F5)
    assert j.rows == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert shift_matrix(1, F5).rows == ((0,),)


def test_shift_matrix_rational_power_and_rank():
    j = shift_matrix(4, RATIONALS)
    assert mat_pow(j, 4).is_zero()
    assert rank(j) == 3


def test_unit_matrix_examples():
    e = unit_matrix(0, 1, 2, F5)
    assert e.rows == ((0, 1), (0, 0))
    assert unit_matrix(2, 2, 3, F5).trace() == 1
    e12 = unit_matrix(0, 1, 3, F5)
    e23 = unit_matrix(1, 2, 3, F5)
    assert (e12 @ e23) == unit_matrix(0, 2, 3, F5)
    with pytest.raises(ValueError):
        unit_matrix(3, 0, 3, F5)


def test_rank_examples():
    for n in range(1, 6):
        assert rank(shift_matrix(n, F5)) == n - 1
    assert rank(ExactMatrix.zeros(3, 3, F5)) == 0
    # hand elimination mod 2: the two rows coincide
    m = ExactMatrix.from_rows(PrimeField(2), [[1, 1], [1, 1]])
    assert rank(m) == 1


def test_rank_is_deterministic_and_capped():
    from nilspace.matrices import _rank as _rank_mod_p

    rng = random.Random(5)
    for _ in range(50):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(4)]
        full = _rank_mod_p(rows, 7)
        for cap in range(0, 5):
            got = _rank_mod_p(rows, 7, cap)
            assert got == (full if full <= cap else cap + 1)


def test_mat_pow_examples():
    j3 = shift_matrix(3, F5)
    assert mat_pow(j3, 2) == unit_matrix(0, 2, 3, F5)
    assert mat_pow(j3, 3).is_zero()
    assert mat_pow(j3, 0) == identity_matrix(3, F5)
    two_i = identity_matrix(2, RATIONALS).scale(2)
    assert mat_pow(two_i, 3) == identity_matrix(2, RATIONALS).scale(8)
    with pytest.raises(ValueError):
        mat_pow(ExactMatrix.zeros(2, 3, F5), 2)


def test_nilindex_examples():
    for n in (1, 2, 4):
        assert nilindex(shift_matrix(n, F5)) == max(n, 1)
    assert nilindex(identity_matrix(3, F5)) is None
    assert nilindex(unit_matrix(0, 1, 4, F5)) == 2
    assert nilindex(ExactMatrix.zeros(2, 2, F5)) == 1


def test_jordan_partition_examples():
    for n in range(1, 6):
        assert jordan_partition(shift_matrix(n, F5)).parts == (n,) + (0,) * (n - 1)
    assert jordan_partition(ExactMatrix.zeros(4, 4, F5)).parts == (1, 1, 1, 1)
    # one 2-block plus one 1-block: rank sequence 3, 1, 0 -> counts (2, 1, 0)
    m = ExactMatrix.from_rows(F5, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert jordan_partition(m).parts == (2, 1, 0)
    with pytest.raises(NotNilpotentError):
        jordan_partition(identity_matrix(2, F5))


def test_jordan_partition_round_trip_with_rank_sequence():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 6)
        # random strictly upper triangular matrices are nilpotent
        m = ExactMatrix.from_rows(
            F7,
            [[rng.randrange(7) if j > i else 0 for j in range(n)] for i in range(n)],
        )
        part = jordan_partition(m)
        conj = part.conjugate()
        for j in range(1, n + 1):
            expected = rank(mat_pow(m, j - 1)) - rank(mat_pow(m, j))
            assert conj.parts[j - 1] == expected


def test_submatrix_examples():
    j3 = shift_matrix(3, F5)
    assert submatrix(j3, (0, 1, 2), (0, 1, 2)) == j3
    j2 = shift_matrix(2, F5)
    assert submatrix(j2, (0,), (0,)).rows == ((0,),)
    assert submatrix(j3, (0, 1), (1, 2)).rows == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        submatrix(j3, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        submatrix(j3, (0, 3), (0, 1))


def test_matrix_construction_and_equality():
    m = ExactMatrix.from_rows(RATIONALS, [[1, "1/2"], [0, 3]])
    assert m[0, 1] == Fraction(1, 2)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(F5, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix(F5, ((7,),))  # not canonical without from_rows


def test_inverse_round_trip_and_singular():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = ExactMatrix.from_rows(
            F7, [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        )
        if rank(m) < n:
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert m @ inverse(m) == identity_matrix(n, F7)
    q = ExactMatrix.from_rows(RATIONALS, [[2, 1], [1, 1]])
    assert inverse(q) @ q == identity_matrix(2, RATIONALS)


@st.composite
def _matrix_pairs(draw):
    # two n x n matrices over F_5, F_7 or Q, given as the raw entries that
    # from_rows normalizes, and a scale factor of the same kind
    field = draw(st.sampled_from([F5, F7, RATIONALS]))
    n = draw(st.integers(1, 4))
    if field is RATIONALS:
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        entry = st.integers(-20, 20)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return field, draw(square), draw(square), draw(entry)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrix_pairs())
def test_matrix_arithmetic_is_normalized_number_arithmetic(case):
    field, a, b, c = case
    norm = field.normalize
    ma, mb = ExactMatrix.from_rows(field, a), ExactMatrix.from_rows(field, b)
    pairs = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
    assert (ma + mb).rows == tuple(tuple(norm(x + y) for x, y in row) for row in pairs)
    assert (ma - mb).rows == tuple(tuple(norm(x - y) for x, y in row) for row in pairs)
    assert (-ma).rows == tuple(tuple(norm(-x) for x in row) for row in a)
    assert ma.scale(c).rows == tuple(tuple(norm(c * x) for x in row) for row in a)
    assert ma.trace() == norm(sum(row[i] for i, row in enumerate(a)))
    assert field.is_canonical(ma.trace())
    if rank(ma) == ma.n_rows:
        assert ma @ inverse(ma) == identity_matrix(ma.n_rows, field)


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 6), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )
    return ExactMatrix.from_rows(F7, rows)


@settings(max_examples=60, deadline=None)
@given(_square_matrices())
def test_rank_sequence_is_doubly_monotone(m):
    # rank(M^k) decreases, and its decrements decrease too; this is what
    # makes the block-size extraction well defined
    n = m.n_rows
    ranks = [rank(mat_pow(m, k)) for k in range(n + 2)]
    diffs = [a - b for a, b in zip(ranks, ranks[1:])]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))


@settings(max_examples=40, deadline=None)
@given(_square_matrices())
def test_nilpotency_equivalent_to_vanishing_nth_power(m):
    assert is_nilpotent(m) == mat_pow(m, m.n_rows).is_zero()
    assert is_nilpotent(m) == (nilindex(m) is not None)


# ---------------------------------------------------------------------------
# the shared elimination against an independent oracle: rank is the size of
# the largest nonzero minor, determinants by permutation expansion

_ORACLE_FIELDS = (2, 3, 7, 65537, 2**31 - 1, None)  # None is Q
# Q rows: ints, Fractions with denominators up to 7, or both; numerators up
# to the sampler's range times 3, so fraction-free elimination grows them
_Q_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-3 * 10**6, 3 * 10**6))
_Q_ENTRIES = {
    "int": st.one_of(st.sampled_from([0, 0, 1, -1]), _Q_NUMERATORS),
    "fraction": st.builds(Fraction, _Q_NUMERATORS, st.integers(1, 7)),
}
_Q_ENTRIES["mixed"] = st.one_of(_Q_ENTRIES["int"], _Q_ENTRIES["fraction"])


def _det(rows, p):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p if p else total


def _oracle_rank(rows, p):
    h, w = len(rows), len(rows[0])
    for k in range(min(h, w), 0, -1):
        for ri in itertools.combinations(range(h), k):
            for ci in itertools.combinations(range(w), k):
                if _det([[rows[i][j] for j in ci] for i in ri], p):
                    return k
    return 0


@st.composite
def _raw_matrices(draw, square=False):
    # Q in 3 draws of 8, one per kind of row on average
    p = draw(st.sampled_from(_ORACLE_FIELDS + (None, None)))
    h = draw(st.integers(1, 4))
    w = h if square else draw(st.integers(1, 5))
    if p:
        entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    else:
        kind = draw(st.sampled_from(sorted(_Q_ENTRIES)))
        small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        entry = st.one_of(small, _Q_ENTRIES[kind]) if kind != "int" else _Q_ENTRIES[kind]
    rows = draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h))
    if h >= 3 and draw(st.booleans()):
        # a dependent row, so rank deficiency is common at every modulus
        if p:
            c = draw(st.integers(1, p - 1))
        elif kind == "int":
            c = draw(st.integers(-3, 3))
        else:
            c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 7)))
        rows[-1] = [(x + c * y) % p if p else x + c * y for x, y in zip(rows[0], rows[1])]
    return p, rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_raw_matrices())
def test_rank_and_capped_rank_match_the_minor_oracle(case):
    from nilspace.matrices import _rank

    p, rows = case
    expected = _oracle_rank(rows, p)
    assert _rank(rows, p) == expected
    for cap in range(0, len(rows) + 1):
        assert _rank(rows, p, cap) == min(expected, cap + 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_raw_matrices())
def test_nullspace_basis_is_the_unique_free_column_basis(case):
    from nilspace.matrices import _nullspace

    p, rows = case
    w = len(rows[0])
    # column j is free when it adds nothing to the rank of the columns before it
    free = [
        j for j in range(w)
        if _oracle_rank([row[:j + 1] for row in rows], p)
        == (_oracle_rank([row[:j] for row in rows], p) if j else 0)
    ]
    basis = _nullspace(rows, p)
    assert len(basis) == len(free) == w - _oracle_rank(rows, p)
    for v, fc in zip(basis, free):
        assert len(v) == w
        for row in rows:
            dot = sum(x * y for x, y in zip(row, v))
            assert (dot % p if p else dot) == 0
        assert [v[j] for j in free] == [int(j == fc) for j in free]
        if p:
            assert all(type(x) is int and 0 <= x < p for x in v)
        else:
            assert all(type(x) is Fraction for x in v)


@settings(max_examples=270, deadline=None, derandomize=True)
@given(_raw_matrices(square=True))
def test_inverse_is_two_sided_and_raises_exactly_on_zero_determinant(case):
    p, rows = case
    field = PrimeField(p) if p else RATIONALS
    m = ExactMatrix.from_rows(field, rows)
    n = m.n_rows
    if _det(rows, p) == 0:
        with pytest.raises(SingularMatrixError):
            inverse(m)
    else:
        inv = inverse(m)
        assert m @ inv == identity_matrix(n, field)
        assert inv @ m == identity_matrix(n, field)
        if not p:
            assert all(type(x) is Fraction for row in inv.rows for x in row)
            # Bareiss: the last pivot is the determinant of the rows cleared
            # of their denominators, up to the sign of the row swaps
            from math import lcm

            from nilspace.matrices import _echelon

            scaled = [[x * lcm(*[y.denominator for y in row]) for x in row] for row in rows]
            assert abs(_echelon(rows, None)[0][n - 1][n - 1]) == abs(_det(scaled, None))


@pytest.mark.parametrize("rows", [
    [[0, 1]], [[0, Fraction(1, 2)]], [[0, 0, 5], [0, 0, 3]], [[1, 2, 0], [0, 0, Fraction(2, 3)]],
])
def test_rational_kernel_with_a_pivot_in_the_last_column_is_fractions(rows):
    from nilspace.matrices import _nullspace

    # the back-substitution sum of the last pivot is empty: over int rows
    # it must still give the Fraction 0, not 0 / pivot = 0.0
    w = len(rows[0])
    basis = _nullspace(rows, None)
    for v in basis:
        assert all(type(x) is Fraction for x in v)
        assert v[-1] == 0
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    assert len(basis) == w - _oracle_rank(rows, None)


# ---------------------------------------------------------------------------
# the trace-power nilpotency test of a matrix of known rank r < p


@st.composite
def _conjugated_triangular(draw):
    """(p, S T S^-1) over F_p for upper-triangular T: nilpotent exactly when
    T's diagonal is zero.  A nonzero diagonal is drawn with sum zero half of
    the time, so tr(M) = 0 without nilpotency is common."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    n = draw(st.integers(2, 5))
    field = PrimeField(p)
    entry = st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))
    t = [[draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(("nilpotent", "traceless", "any")))
    if kind != "nilpotent":
        diag = [draw(entry) for _ in range(n)]
        if kind == "traceless":
            diag[-1] = -sum(diag[:-1]) % p
        for i, x in enumerate(diag):
            t[i][i] = x
    # S = L U with unit-triangular factors is invertible
    lower = [[1 if i == j else draw(entry) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(entry) if i < j else 0 for j in range(n)] for i in range(n)]
    s = ExactMatrix.from_rows(field, lower) @ ExactMatrix.from_rows(field, upper)
    return p, (s @ ExactMatrix.from_rows(field, t) @ inverse(s)).rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_conjugated_triangular())
def test_trace_powers_decide_nilpotency_below_the_characteristic(case):
    from hypothesis import assume

    from nilspace.matrices import _is_nilpotent, _is_nilpotent_of_rank, _rank

    p, rows = case
    r = _rank(rows, p)
    assume(p > r)
    assert _is_nilpotent_of_rank(rows, p, r) == _is_nilpotent(rows, p)


def test_trace_powers_need_every_power_up_to_the_rank_and_p_above_it():
    from nilspace.matrices import _is_nilpotent, _is_nilpotent_of_rank

    # diag(1, 2, 4) over F_7: tr(M) = tr(M^2) = 0, tr(M^3) = 73 = 3
    m = ((1, 0, 0), (0, 2, 0), (0, 0, 4))
    assert not _is_nilpotent(m, 7)
    assert not _is_nilpotent_of_rank(m, 7, 3)
    assert _is_nilpotent_of_rank(m, 7, 2)  # rank passed too low: misses tr(M^3)
    # tr(M) = tr(M^2) = 0 here, so vouching for them still finds tr(M^3);
    # vouching for a nonzero trace hides it
    assert not _is_nilpotent_of_rank(m, 7, 3, known=2)
    assert _is_nilpotent_of_rank(((1, 0), (0, 0)), 7, 1, known=1)
    assert not _is_nilpotent_of_rank(((1, 0), (0, 0)), 7, 1)
    # the identity over F_2 has rank 2 = p and all its traces vanish
    assert not _is_nilpotent(((1, 0), (0, 1)), 2)
    assert _is_nilpotent_of_rank(((1, 0), (0, 1)), 2, 2)
    assert _is_nilpotent_of_rank(((0, 1, 0), (0, 0, 1), (0, 0, 0)), 5, 2)
