import random
from fractions import Fraction

import pytest

from nilspace import (
    ExactMatrix,
    FieldTooSmallError,
    NotNilpotentError,
    PreconditionUnmetError,
    PrimeField,
    RATIONALS,
    ShiftPolynomial,
    TraceWitness,
    clear_first_column,
    conjugate_by_shift,
    identity_matrix,
    is_nilpotent,
    jordan_partition,
    linear_trace_constraints,
    mat_pow,
    nilindex,
    rank,
    shift_matrix,
    shift_poly_inverse,
    shift_poly_matrix,
    trace_condition_verify,
    unit_matrix,
    witness_rank_full,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_shift_poly_matrix_examples():
    sp0 = ShiftPolynomial.of(F5, 3, [0, 0])
    assert shift_poly_matrix(sp0) == identity_matrix(3, F5)
    sp1 = ShiftPolynomial.of(F5, 3, [1, 0])
    assert shift_poly_matrix(sp1) == identity_matrix(3, F5) + shift_matrix(3, F5)
    sp2 = ShiftPolynomial.of(F5, 3, [1, 1])
    assert shift_poly_matrix(sp2).rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_shift_poly_inverse_examples():
    sp0 = ShiftPolynomial.of(F7, 4, [0, 0, 0])
    assert shift_poly_inverse(sp0).coefficients == (0, 0, 0)
    sp = ShiftPolynomial.of(F5, 3, [1, 0])
    inv = shift_poly_inverse(sp)
    assert inv.coefficients == (4, 1)  # (-1, 1): (I+N)(I-N+N^2) = I
    assert shift_poly_matrix(sp) @ shift_poly_matrix(inv) == identity_matrix(3, F5)


def test_shift_poly_inverse_round_trips():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(2, 7)
        sp = ShiftPolynomial.of(F7, n, [rng.randrange(7) for _ in range(n - 1)])
        inv = shift_poly_inverse(sp)
        assert shift_poly_inverse(inv) == sp
        prod = shift_poly_matrix(inv) @ shift_poly_matrix(sp)
        assert prod == identity_matrix(n, F7)


def test_shift_poly_inverse_rational():
    sp = ShiftPolynomial.of(RATIONALS, 4, [1, "1/2", "1/3"])
    inv = shift_poly_inverse(sp)
    assert shift_poly_matrix(sp) @ shift_poly_matrix(inv) == identity_matrix(4, RATIONALS)


def test_conjugate_by_shift_fixes_shift_matrix():
    j = shift_matrix(4, F7)
    rng = random.Random(2)
    for _ in range(10):
        sp = ShiftPolynomial.of(F7, 4, [rng.randrange(7) for _ in range(3)])
        assert conjugate_by_shift(j, sp, "C_inv_A_C") == j
        assert conjugate_by_shift(j, sp, "C_A_C_inv") == j
    sp0 = ShiftPolynomial.of(F7, 4, [0, 0, 0])
    a = unit_matrix(2, 1, 4, F7)
    assert conjugate_by_shift(a, sp0, "C_inv_A_C") == a
    with pytest.raises(ValueError):
        conjugate_by_shift(a, sp0, "sideways")


def test_conjugation_preserves_similarity_invariants():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 6)
        a = ExactMatrix.from_rows(
            F7, [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        )
        sp = ShiftPolynomial.of(F7, n, [rng.randrange(7) for _ in range(n - 1)])
        b = conjugate_by_shift(a, sp, "C_inv_A_C")
        assert rank(b) == rank(a)
        assert nilindex(b) == nilindex(a)
        if nilindex(a) is not None:
            assert jordan_partition(b) == jordan_partition(a)


def test_hook_vanishing_entries_are_preserved():
    # if a vanishes on {i..n} x {1..j} except (i, j), conjugation by any
    # shift polynomial fixes the (i, j) entry
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(2, 6)
        i = rng.randrange(n)
        j = rng.randrange(n)
        rows = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        for a in range(i, n):
            for b in range(j + 1):
                rows[a][b] = 0
        rows[i][j] = rng.randrange(1, 7)
        a_mat = ExactMatrix.from_rows(F7, rows)
        sp = ShiftPolynomial.of(F7, n, [rng.randrange(7) for _ in range(n - 1)])
        conj = conjugate_by_shift(a_mat, sp, "C_inv_A_C")
        assert conj[i, j] == a_mat[i, j]


def test_clear_first_column_worked_example():
    # column (1, 1, 1): first coefficient -1 clears the middle row, then the
    # updated top row is already zero
    a = ExactMatrix.from_rows(F5, [[1, 0, 0], [1, 0, 0], [1, 0, 0]])
    sp, b = clear_first_column(a, 2)
    assert sp.coefficients == (4, 0)
    assert [row[0] for row in b.rows] == [0, 0, 1]


def test_clear_first_column_identity_when_already_clear():
    a = ExactMatrix.from_rows(F5, [[0, 2, 3], [0, 1, 4], [2, 0, 1]])
    sp, b = clear_first_column(a, 2)
    assert sp.coefficients == (0, 0)
    assert b == a


def test_clear_first_column_postconditions_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(3, 7)
        pivot = rng.randrange(1, n)
        rows = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        for i in range(pivot + 1, n):
            rows[i][0] = 0
        rows[pivot][0] = rng.randrange(1, 7)
        a = ExactMatrix.from_rows(F7, rows)
        sp, b = clear_first_column(a, pivot)
        for i in range(n):
            expected = a[pivot, 0] if i == pivot else 0
            assert b[i, 0] == expected
        assert rank(b) == rank(a)
        assert nilindex(b) == nilindex(a)
        # conjugating back recovers the original
        back = conjugate_by_shift(b, sp, "C_inv_A_C")
        assert back == a


def test_clear_first_column_preconditions():
    a = ExactMatrix.from_rows(F5, [[0, 1], [0, 1]])
    with pytest.raises(PreconditionUnmetError):
        clear_first_column(a, 1)  # pivot entry zero
    b = ExactMatrix.from_rows(F5, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    with pytest.raises(PreconditionUnmetError):
        clear_first_column(b, 1)  # nonzero entry below the pivot
    with pytest.raises(PreconditionUnmetError):
        clear_first_column(b, 0)  # pivot must be below the first row


def test_trace_conditions_proved_on_strictly_upper_span():
    w = witness_rank_full(4, F7)
    out = trace_condition_verify([w.base, *w.directions], 4)
    assert out.status == "PROVED"
    assert out.method == "grid"
    assert out.checks_performed == 5**4


def test_trace_conditions_refuted_with_exact_witness():
    for n in (3, 4, 5):
        j = shift_matrix(n, F7)
        e = unit_matrix(n - 1, 0, n, F7)
        out = trace_condition_verify([j, e], n - 1)
        assert out.status == "REFUTED"
        assert out.witness.power == n - 1
        assert out.witness.value == 1
        assert out.witness.basis_matrix == e
        assert out.witness.coefficients == (1, 0)


def test_trace_conditions_on_single_shift_basis():
    out = trace_condition_verify([shift_matrix(5, F7)], 4)
    assert out.status == "PROVED"


def test_trace_conditions_field_too_small():
    with pytest.raises(FieldTooSmallError):
        trace_condition_verify([shift_matrix(3, PrimeField(3))], 3)


def test_trace_conditions_rational_grid():
    w = witness_rank_full(3, RATIONALS)
    out = trace_condition_verify([w.base, *w.directions], 2)
    assert out.status == "PROVED"


def test_trace_condition_sampling_fallback():
    w = witness_rank_full(5, F7)
    basis = [w.base, *w.directions]
    out = trace_condition_verify(basis, 4, budget=100, sample_count=25, seed=9)
    assert out.status == "SAMPLED_PASS"
    assert out.sample_count == 25
    # a seeded refutation: a point with identity coefficient c != 0 has
    # tr(A I) = 4c != 0, and the first sample at seed 0 has c = 0
    from nilspace.spaces import _sample_points

    w = witness_rank_full(4, F7)
    basis = [w.base, *w.directions, identity_matrix(4, F7)]
    out = trace_condition_verify(basis, 3, budget=100, sample_count=50, seed=0)
    points = list(_sample_points(F7, 5, 50, 0))
    assert points[0][4] == 0 and points[1] == (2, 4, 3, 3, 6)
    assert (out.status, out.method, out.checks_performed) == ("REFUTED", "random", 2)
    assert out.witness == TraceWitness((2, 4, 3, 3, 6), 4, identity_matrix(4, F7), 1, 4 * 6 % 7)
    assert (out.sample_count, out.seed) == (50, 0)
    assert out.notes == ("grid of 1024 points exceeded budget 100",)


def test_trace_scan_beyond_the_int64_bound_matches_the_pure_scan(monkeypatch):
    # p is the largest prime with 3 (p-1)^2 < 2^62; a trace tr(A B) of 3x3
    # matrices sums 9 such products, which wrap around in int64
    from nilspace import spaces
    from nilspace.reduction import _trace_batch

    batched = []
    scan_numpy = spaces._scan_numpy
    monkeypatch.setattr(
        spaces, "_scan_numpy",
        lambda *args, **kwargs: batched.append(args) or scan_numpy(*args, **kwargs),
    )
    outcomes = {}
    for p in (1000003, 1239850223):
        field = PrimeField(p)
        m = ExactMatrix.from_rows(field, [[p - 1] * 3] * 3)
        outcomes[p] = trace_condition_verify([m, m], 63, field)  # 64^2 = 4096 points
        assert outcomes[p].witness.coefficients == (0, 1)
        assert outcomes[p].witness.value == 9  # tr(M M) = 9 (p-1)^2 = 9 mod p
    assert [args[3] for args in batched] == [(1000003,)]  # the larger p runs pure
    monkeypatch.setattr(spaces, "_NUMPY_MIN_POINTS", 10**18)
    assert outcomes[p] == trace_condition_verify([m, m], 63, field)
    with pytest.raises(AssertionError, match="int64"):
        spaces._scan_numpy(
            ((0,) * 3,) * 3, [m.rows, m.rows], list(range(64)), (p,),
            _trace_batch([m.rows, m.rows], 63),
        )


def test_linear_trace_constraints_shift_base():
    # constraints for the shift base are exactly the subdiagonal sums
    for n in (3, 4, 5):
        cons = linear_trace_constraints(shift_matrix(n, F7), n - 1)
        assert len(cons) == n
        for m, c in enumerate(cons):
            expected = mat_pow(shift_matrix(n, F7), m).transpose()
            assert c == expected
    # m = 0 term is the plain trace functional
    assert linear_trace_constraints(shift_matrix(3, F5), 2)[0] == identity_matrix(3, F5)


def test_linear_trace_constraints_validation():
    with pytest.raises(NotNilpotentError):
        linear_trace_constraints(identity_matrix(2, F5), 1)
    with pytest.raises(FieldTooSmallError):
        linear_trace_constraints(shift_matrix(3, PrimeField(2)), 2)


def test_linear_trace_constraints_stop_at_p_minus_2():
    # tr((B + sX)^(m+1)) vanishing at all p values of s forces its
    # s-coefficient (m + 1) tr(B^m X) to vanish only when p > m + 1.  Over
    # F_3 the X with every member of J_3 + sX nilpotent and tr(J_3^2 X) != 0
    # are found by brute force; the gate admits m_max <= 1 and refuses 2
    import itertools

    f3 = PrimeField(3)
    base = shift_matrix(3, f3)
    square = base @ base
    broken = []
    for entries in itertools.product(range(3), repeat=9):
        x = ExactMatrix(f3, (entries[0:3], entries[3:6], entries[6:9]))
        if (square @ x).trace() == 0:
            continue
        if all(is_nilpotent(base + x.scale(s)) for s in range(3)):
            broken.append(x)
    assert len(broken) == 54
    x = ExactMatrix(f3, ((0, 0, 1), (0, 1, 0), (2, 0, 2)))
    assert x in broken
    assert (square @ x).trace() == 2
    with pytest.raises(FieldTooSmallError, match=r"m_max \+ 2"):
        linear_trace_constraints(base, 2)
    rows = linear_trace_constraints(base, 1)
    assert rows == (identity_matrix(3, f3), base.transpose())
    for y in broken:
        assert all(sum(c[i, j] * y[i, j] for i in range(3) for j in range(3)) % 3 == 0
                   for c in rows)


def test_witness_directions_satisfy_all_constraints():
    w = witness_rank_full(5, F7)
    cons = linear_trace_constraints(w.base, 4)
    for direction in w.directions:
        for c in cons:
            val = sum(
                c[i, j] * direction[i, j] for i in range(5) for j in range(5)
            ) % 7
            assert val == 0


def test_trace_proved_on_nilpotency_proved_spaces():
    # empirical re-derivation: span of an all-nilpotent affine space passes
    # the trace conditions whenever the field is large enough
    from nilspace import verify_all_nilpotent, witness_rank_one

    for space in (witness_rank_full(4, F7), witness_rank_one(4, F7)):
        assert verify_all_nilpotent(space).status == "PROVED"
        out = trace_condition_verify(
            [space.base, *space.directions], space.n - 1
        )
        assert out.status == "PROVED"


@pytest.mark.parametrize("kwargs, method, checks, t, value, notes", [
    ({}, "grid", 5, (0, 1, 1), Fraction(1, 6), ()),
    ({"budget": 20, "seed": 5}, "random", 1, (306319, -464293, 555640),
     Fraction(-128989881260, 3), ("grid of 27 points exceeded budget 20",)),
], ids=["grid", "sampling fallback"])
def test_rational_trace_refutations_report_fraction_points_and_values(
    kwargs, method, checks, t, value, notes
):
    # A = t_0 B_0 + t_1 B_1 + t_2 B_2 has every tr(A B_j) = 0, and
    # tr(A^2 B_0) = t_1 t_2 / 6; the scans run on integer multiples of A and
    # of the B_j, and the witness reports the unscaled trace (values taken
    # from the Fraction-arithmetic scans)
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    basis = [
        ExactMatrix.from_rows(RATIONALS, rows) for rows in (
            [[0, half, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, two_thirds], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [half, 0, 0]],
        )
    ]
    out = trace_condition_verify(basis, 2, **kwargs)
    assert (out.status, out.method, out.checks_performed, out.notes) == (
        "REFUTED", method, checks, notes)
    w = out.witness
    assert w == TraceWitness(t, 0, basis[0], 2, value)
    assert all(type(c) is Fraction for c in w.coefficients) and type(w.value) is Fraction
