"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with its wall time and asserting its stated time cap."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from nilspace import (
    ExactMatrix,
    Partition,
    PrimeField,
    bound_gerstenhaber,
    bound_mms,
    bound_rank_full,
    bound_rank_one,
    clear_first_column,
    conjecture_bound,
    conjugate_by_shift,
    corner_entry_check,
    counterexample_f2,
    direction_nilpotency,
    dominance_join,
    dominance_leq,
    jordan_partition,
    max_affine_dimension,
    nilindex,
    partition_bound,
    partitions_of,
    rank,
    shift_matrix,
    shift_poly_inverse,
    shift_poly_matrix,
    trace_condition_verify,
    unit_matrix,
    verify_all_nilpotent,
    verify_constant_rank,
    witness_conjecture,
    witness_rank_full,
    witness_rank_one,
)
from nilspace.matrices import identity_matrix
from nilspace.search import check_conjecture as run_conjecture_test

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} [{description}]: FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} [{description}]: PASS in {elapsed:.2f}s")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
    )


def test_criterion_1_rank_full_witness():
    with criterion(1, "rank n-1 witness, n=4 over F_5", 1.0):
        w = witness_rank_full(4, F5)
        assert w.d == 3 == (4 - 1) * (4 - 2) // 2
        nilp = verify_all_nilpotent(w)
        ranks = verify_constant_rank(w, 3)
        assert nilp.status == "PROVED" and nilp.checks_performed == 125
        assert ranks.status == "PROVED" and ranks.checks_performed == 125


def test_criterion_2_rank_one_witness():
    with criterion(2, "rank 1 witness, n=5 over F_3", 1.0):
        w = witness_rank_one(5, F3)
        assert w.d == 3 == 5 - 2
        nilp = verify_all_nilpotent(w)
        ranks = verify_constant_rank(w, 1)
        assert nilp.status == "PROVED" and nilp.checks_performed == 27
        assert ranks.status == "PROVED" and ranks.checks_performed == 27


def test_criterion_3_exhaustive_maximality_rank_full():
    with criterion(3, "exhaustive max, n=3 r=2 p=5", 600.0):
        report = max_affine_dimension(3, 2, F5)
        assert report.max_dim_found == 1 == bound_rank_full(3)
        assert report.status == "EXHAUSTIVE"


def test_criterion_4_exhaustive_maximality_rank_one():
    with criterion(4, "exhaustive max, n=3 r=1 p=5", 600.0):
        report = max_affine_dimension(3, 1, F5)
        assert report.max_dim_found == 1 == bound_rank_one(3)
        assert report.status == "EXHAUSTIVE"


def test_criterion_5_two_element_field_exception():
    with criterion(5, "two-element field exception, n=2 r=1", 1.0):
        report = max_affine_dimension(2, 1, F2)
        assert report.max_dim_found == 1 > bound_rank_one(2) == 0
        assert report.status == "EXHAUSTIVE"
        space = counterexample_f2()
        for t in (0, 1):
            member = space.member([t])
            assert nilindex(member) == 2
            assert rank(member) == 1
        assert nilindex(space.directions[0]) is None
        with pytest.warns(UserWarning):
            assert direction_nilpotency(space).status == "REFUTED"


def test_criterion_6_conjecture_lower_bound_and_attempt():
    with criterion(6, "conjecture n=4 r=2 over F_5: witness + attempt", 1800.0):
        w = witness_conjecture(4, 2, F5)
        assert w is not None
        assert w.d == 3 == conjecture_bound(4, 2)
        nilp = verify_all_nilpotent(w)
        ranks = verify_constant_rank(w, 2)
        assert nilp.status == "PROVED" and nilp.checks_performed == 125
        assert ranks.status == "PROVED" and ranks.checks_performed == 125
        result = run_conjecture_test(4, 2, F5, pruning="trace")
        assert result.status in ("CONSISTENT", "UNRESOLVED")
        assert result.lower_bound_dimension == 3
        if result.status == "UNRESOLVED":
            assert result.search_report.status == "LOWER_BOUND_ONLY"
            assert any("within budget" in note for note in result.notes)
        print(f"  conjecture attempt outcome: {result.status} "
              f"(search {result.search_report.max_dim_found}, "
              f"{result.search_report.evaluations} evaluations)")


def test_criterion_7_formula_cross_checks():
    with criterion(7, "closed-form cross-checks", 1.0):
        for n in range(2, 21):
            for r in range(1, n):
                assert bound_mms(n, r, 2) == r * (n - r)
        for n in range(2, 51):
            assert conjecture_bound(n, n - 1) == bound_rank_full(n)
            assert conjecture_bound(n, 1) == bound_rank_one(n)
        for n in range(1, 51):
            assert partition_bound(Partition.of([n])) == bound_gerstenhaber(n)


def test_criterion_8_trace_condition_suite():
    with criterion(8, "trace conditions over F_7", 10.0):
        for n in range(2, 6):
            w = witness_rank_full(n, F7)
            out = trace_condition_verify([w.base, *w.directions], n - 1)
            assert out.status == "PROVED"
        for n in range(2, 6):
            j = shift_matrix(n, F7)
            e = unit_matrix(n - 1, 0, n, F7)
            out = trace_condition_verify([j, e], n - 1)
            assert out.status == "REFUTED"
            assert out.witness.power == n - 1
            assert out.witness.value == 1


def test_criterion_9_normalizer_suite():
    with criterion(9, "first-column normalizer, 500 instances over F_7", 10.0):
        rng = random.Random(20260809)
        for case in range(500):
            n = rng.randrange(3, 7)
            pivot = rng.randrange(1, n)
            if case % 2 == 0:
                rows = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
            else:
                # strictly lower triangular instances are nilpotent, so the
                # block-structure invariants get exercised too
                rows = [
                    [rng.randrange(7) if j < i else 0 for j in range(n)]
                    for i in range(n)
                ]
            for i in range(pivot + 1, n):
                rows[i][0] = 0
            rows[pivot][0] = rng.randrange(1, 7)
            a = ExactMatrix.from_rows(F7, rows)
            sp, b = clear_first_column(a, pivot)
            for i in range(n):
                assert b[i, 0] == (a[pivot, 0] if i == pivot else 0)
            assert rank(b) == rank(a)
            assert nilindex(b) == nilindex(a)
            if nilindex(a) is not None:
                assert jordan_partition(b) == jordan_partition(a)
            inv = shift_poly_inverse(sp)
            prod = shift_poly_matrix(inv) @ shift_poly_matrix(sp)
            assert prod == identity_matrix(n, F7)
            assert conjugate_by_shift(b, sp, "C_inv_A_C") == a


def test_criterion_10_direction_nilpotency_rederivation():
    with criterion(10, "direction nilpotency + corner entries", 60.0):
        fields = {2: F3, 3: F5, 4: F5, 5: F7}
        spaces = []
        for n in range(2, 6):
            field = fields[n]
            spaces.append((witness_rank_full(n, field), True))
            spaces.append((witness_rank_one(n, field), False))
            for r in range(1, n):
                w = witness_conjecture(n, r, field)
                assert w is not None
                spaces.append((w, r == n - 1))
        rng = random.Random(99)
        big = witness_rank_full(5, F7)
        for _ in range(100):
            dim = rng.randrange(1, 4)
            while True:
                combos = [
                    [rng.randrange(7) for _ in range(big.d)] for _ in range(dim)
                ]
                dirs = []
                for coeffs in combos:
                    acc = ExactMatrix.zeros(5, 5, F7)
                    for c, basis_mat in zip(coeffs, big.directions):
                        acc = acc + basis_mat.scale(c)
                    dirs.append(acc)
                flat = [tuple(x for row in d.rows for x in row) for d in dirs]
                from nilspace.matrices import _rank_mod_p

                if _rank_mod_p(flat, 7) == dim:
                    break
            from nilspace import AffineMatrixSpace

            spaces.append((AffineMatrixSpace(F7, 5, big.base, tuple(dirs)), True))
        for space, base_is_shift in spaces:
            assert verify_all_nilpotent(space).status == "PROVED"
            assert direction_nilpotency(space).status == "PROVED"
            if base_is_shift:
                assert corner_entry_check(space).status == "PROVED"


def test_criterion_11_partition_join_oracle():
    with criterion(11, "dominance join equals brute force, n <= 8", 60.0):
        for n in range(1, 9):
            parts = list(partitions_of(n))
            for a, b in itertools.product(parts, parts):
                join = dominance_join(a, b)
                dominators = [
                    c for c in parts
                    if dominance_leq(a, c) and dominance_leq(b, c)
                ]
                assert join in dominators
                assert all(dominance_leq(join, c) for c in dominators)
