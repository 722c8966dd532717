import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilspace import (
    AffineMatrixSpace,
    BudgetExceededError,
    DependentDirectionsError,
    ExactMatrix,
    PreconditionUnmetError,
    PrimeField,
    RATIONALS,
    SingularMatrixError,
    change_basis,
    combine_outcomes,
    corner_entry_check,
    counterexample_f2,
    direction_nilpotency,
    identity_matrix,
    jordan_partition,
    nilindex,
    rank,
    shift_matrix,
    trace_condition_verify,
    unit_matrix,
    verify_all_nilpotent,
    verify_constant_rank,
    witness_rank_full,
    witness_rank_one,
)
from nilspace.matrices import _rank as _rank_mod_p

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _space(field, n, base, dirs):
    return AffineMatrixSpace(field, n, base, tuple(dirs))


def test_space_validation():
    j = shift_matrix(3, F5)
    e = unit_matrix(0, 2, 3, F5)
    with pytest.raises(DependentDirectionsError):
        _space(F5, 3, j, [e, e.scale(2)])
    with pytest.raises(ValueError):
        _space(F5, 3, shift_matrix(2, F5), [])
    with pytest.raises(ValueError):
        _space(F5, 3, j, [unit_matrix(0, 1, 3, F7)])


def test_member_examples():
    w = witness_rank_one(3, F5)
    assert w.member([0]) == w.base
    assert w.member([1]) == w.base + w.directions[0]
    expected = ExactMatrix.from_rows(F5, [[0, 1, 2], [0, 0, 0], [0, 0, 0]])
    assert w.member([2]) == expected
    with pytest.raises(ValueError):
        w.member([1, 2])


def test_member_is_affine():
    w = witness_rank_full(4, F5)
    rng = random.Random(0)
    for _ in range(20):
        t1 = [rng.randrange(5) for _ in range(w.d)]
        t2 = [rng.randrange(5) for _ in range(w.d)]
        lhs = w.member(t1) + w.member(t2) - w.member([0] * w.d)
        rhs = w.member([(a + b) % 5 for a, b in zip(t1, t2)])
        assert lhs == rhs


def test_verify_all_nilpotent_proved_exhaustive():
    out = verify_all_nilpotent(witness_rank_full(4, F5))
    assert out.status == "PROVED"
    assert out.method == "exhaustive"
    assert out.checks_performed == 125


def test_verify_all_nilpotent_refuted_at_identity_base():
    space = _space(F5, 2, identity_matrix(2, F5), [unit_matrix(0, 1, 2, F5)])
    out = verify_all_nilpotent(space)
    assert out.status == "REFUTED"
    assert out.witness.coefficients == (0,)
    assert out.witness.matrix == identity_matrix(2, F5)


def test_verify_all_nilpotent_refuted_lower_corner_direction():
    # det(shift + t*unit(n-1, 0)) = +/- t, so every t != 0 is a witness
    space = _space(F5, 4, shift_matrix(4, F5), [unit_matrix(3, 0, 4, F5)])
    out = verify_all_nilpotent(space)
    assert out.status == "REFUTED"
    assert out.witness.coefficients == (1,)


def test_grid_and_exhaustive_agree_over_larger_field():
    space = witness_rank_full(3, F7)
    grid = verify_all_nilpotent(space, method="grid")
    full = verify_all_nilpotent(space, method="exhaustive")
    assert grid.status == full.status == "PROVED"
    assert grid.method == "grid" and full.method == "exhaustive"
    assert grid.checks_performed == 4 and full.checks_performed == 7


def test_grid_refutation_matches_exhaustive():
    space = _space(F7, 2, identity_matrix(2, F7), [unit_matrix(0, 1, 2, F7)])
    grid = verify_all_nilpotent(space, method="grid")
    full = verify_all_nilpotent(space, method="exhaustive")
    assert grid.status == full.status == "REFUTED"
    assert grid.witness.coefficients == full.witness.coefficients


def test_rational_grid_certificate():
    space = witness_rank_full(4, RATIONALS)
    out = verify_all_nilpotent(space)
    assert out.status == "PROVED"
    assert out.method == "grid"
    assert out.checks_performed == 5**3


def test_verify_constant_rank_examples():
    assert verify_constant_rank(witness_rank_full(4, F5), 3).status == "PROVED"
    assert verify_constant_rank(witness_rank_one(5, F3), 1).status == "PROVED"
    e12 = unit_matrix(0, 1, 2, F5)
    space = _space(F5, 2, e12, [e12])
    out = verify_constant_rank(space, 1)
    assert out.status == "REFUTED"
    assert out.witness.coefficients == (4,)  # t = -1 kills the single entry
    assert rank(out.witness.matrix) == 0


def test_verify_constant_rank_rational_is_sampled():
    space = witness_rank_one(4, RATIONALS)
    out = verify_constant_rank(space, 1)
    assert out.status == "SAMPLED_PASS"
    assert out.method == "random"
    assert any("not a polynomial identity" in note for note in out.notes)


def test_verify_constant_rank_rational_grid_refutes_upper_bound():
    space = witness_rank_one(3, RATIONALS)
    out = verify_constant_rank(space, 0)
    assert out.status == "REFUTED"  # members have rank 1 on the grid


def test_budget_exhaustion_falls_back_to_sampling():
    space = witness_rank_full(4, F5)
    out = verify_all_nilpotent(space, budget=10, sample_count=50, seed=3)
    assert out.status == "SAMPLED_PASS"
    assert out.method == "random"
    assert out.sample_count == 50 and out.seed == 3
    with pytest.raises(BudgetExceededError):
        verify_all_nilpotent(space, budget=10, sample_count=0)


@pytest.mark.parametrize("sample_count", [0, -1])
def test_random_method_needs_a_sample(sample_count):
    # method="random" samples whatever the budget, so it has no budget to
    # exceed: a sample count below 1 is a usage error, not a budget cut
    space = witness_rank_full(4, F5)
    for verify in (verify_all_nilpotent, direction_nilpotency):
        with pytest.raises(ValueError, match="sample_count >= 1"):
            verify(space, method="random", sample_count=sample_count)
    # sample_count=0 still means "no sampling fallback" for method="auto"
    assert verify_all_nilpotent(space, sample_count=0).status == "PROVED"


def test_sampling_never_proves():
    space = witness_rank_full(4, F5)
    out = verify_all_nilpotent(space, method="random", sample_count=20)
    assert out.status == "SAMPLED_PASS"


def test_sampled_points_are_pinned_per_seed():
    # the same seed must draw the same points, so a sampled outcome is
    # reproducible across releases
    from nilspace.spaces import _sample_points

    assert list(_sample_points(F7, 3, 3, 0)) == [(6, 3, 6), (3, 0, 2), (4, 3, 3)]
    assert list(_sample_points(RATIONALS, 2, 2, 0)) == [(770880, -192083), (589545, 866976)]


@pytest.mark.parametrize("call, expected", [
    # r = 0 on the zero space: the grid proves the upper bound and the
    # lower bound needs no samples
    (lambda: verify_constant_rank(
        _space(RATIONALS, 2, ExactMatrix.zeros(2, 2, RATIONALS), ()), 0),
     ("PROVED", "grid", 1, ("rank <= 0 proved by vanishing of all 1-minors on a grid",
                            "rank >= 0 is vacuous"))),
    # an explicitly requested grid over budget raises instead of sampling
    (lambda: verify_all_nilpotent(witness_rank_full(5, F7), 10, method="grid"),
     BudgetExceededError("46656 points exceed the budget of 10")),
], ids=["rank 0 on the zero space", "explicit grid over budget"])
def test_rarely_taken_verifier_branches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            call()
        assert str(info.value) == str(expected)
        return
    out = call()
    assert (out.status, out.method, out.checks_performed, out.notes) == expected
    assert out.witness is None and out.sample_count is None


def _identity_base(field):
    """No member is nilpotent."""
    return _space(field, 2, identity_matrix(2, field), [unit_matrix(0, 1, 2, field)])


def _identity_direction(field):
    """Nilpotent base, but the direction span holds the identity."""
    return _space(field, 2, shift_matrix(2, field), [identity_matrix(2, field)])


def _trace_basis(space):
    return [space.base, *space.directions]


_SAMPLING = {"sample_count": 30, "seed": 2}
_OUTCOME_CASES = {
    # name: (call on a field, (status, method) over F_7, and over Q); every
    # call passes _SAMPLING, which only a sampled outcome may keep
    "nilpotent grid": (
        lambda K: verify_all_nilpotent(witness_rank_full(4, K), **_SAMPLING),
        ("PROVED", "grid"), ("PROVED", "grid")),
    "nilpotent over budget": (
        lambda K: verify_all_nilpotent(witness_rank_full(4, K), 10, **_SAMPLING),
        ("SAMPLED_PASS", "random"), ("SAMPLED_PASS", "random")),
    "nilpotent random": (
        lambda K: verify_all_nilpotent(witness_rank_full(4, K), method="random", **_SAMPLING),
        ("SAMPLED_PASS", "random"), ("SAMPLED_PASS", "random")),
    "nilpotent refuted": (
        lambda K: verify_all_nilpotent(_identity_base(K), **_SAMPLING),
        ("REFUTED", "grid"), ("REFUTED", "grid")),
    "nilpotent refuted by a sample": (
        lambda K: verify_all_nilpotent(_identity_base(K), 1, **_SAMPLING),
        ("REFUTED", "random"), ("REFUTED", "random")),
    "rank": (
        lambda K: verify_constant_rank(witness_rank_full(4, K), 3, **_SAMPLING),
        ("PROVED", "exhaustive"), ("SAMPLED_PASS", "random")),
    "rank upper bound on a grid": (
        lambda K: verify_constant_rank(witness_rank_full(4, K), 3, 200, **_SAMPLING),
        ("SAMPLED_PASS", "random"), ("SAMPLED_PASS", "random")),
    "rank refuted": (
        lambda K: verify_constant_rank(witness_rank_full(4, K), 2, **_SAMPLING),
        ("REFUTED", "exhaustive"), ("REFUTED", "grid")),
    "rank refuted on the upper bound grid": (
        lambda K: verify_constant_rank(witness_rank_full(4, K), 2, 200, **_SAMPLING),
        ("REFUTED", "grid"), ("REFUTED", "grid")),
    "rank refuted by a sample": (
        lambda K: verify_constant_rank(witness_rank_full(4, K), 4, 200, **_SAMPLING),
        ("REFUTED", "random"), ("REFUTED", "random")),
    "rank 0 on the zero space": (
        lambda K: verify_constant_rank(_space(K, 2, ExactMatrix.zeros(2, 2, K), ()), 0,
                                       **_SAMPLING),
        ("PROVED", "exhaustive"), ("PROVED", "grid")),
    "directions": (
        lambda K: direction_nilpotency(witness_rank_full(4, K), **_SAMPLING),
        ("PROVED", "grid"), ("PROVED", "grid")),
    "directions over budget": (
        lambda K: direction_nilpotency(witness_rank_full(4, K), 10, **_SAMPLING),
        ("SAMPLED_PASS", "random"), ("SAMPLED_PASS", "random")),
    "directions refuted": (
        lambda K: direction_nilpotency(_identity_direction(K), **_SAMPLING),
        ("REFUTED", "grid"), ("REFUTED", "grid")),
    "directions refuted by a sample": (
        lambda K: direction_nilpotency(_identity_direction(K), 1, **_SAMPLING),
        ("REFUTED", "random"), ("REFUTED", "random")),
    "trace": (
        lambda K: trace_condition_verify(_trace_basis(witness_rank_full(4, K)), 3, **_SAMPLING),
        ("PROVED", "grid"), ("PROVED", "grid")),
    "trace over budget": (
        lambda K: trace_condition_verify(_trace_basis(witness_rank_full(4, K)), 3, budget=20,
                                         **_SAMPLING),
        ("SAMPLED_PASS", "random"), ("SAMPLED_PASS", "random")),
    "trace refuted": (
        lambda K: trace_condition_verify([identity_matrix(2, K)], 1, **_SAMPLING),
        ("REFUTED", "grid"), ("REFUTED", "grid")),
    "trace refuted by a sample": (
        lambda K: trace_condition_verify([identity_matrix(2, K)], 1, budget=1, **_SAMPLING),
        ("REFUTED", "random"), ("REFUTED", "random")),
}


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["F_7", "Q"])
@pytest.mark.parametrize("case", list(_OUTCOME_CASES))
def test_outcome_fields_follow_the_method_on_every_oracle(case, field):
    # one constructor builds every scanned outcome: a grid or exhaustive
    # scan is PROVED or REFUTED and carries no sample count or seed, a
    # random one is SAMPLED_PASS or REFUTED and carries both
    call, *expected = _OUTCOME_CASES[case]
    out = call(field)
    assert (out.status, out.method) == expected[field is RATIONALS]
    if out.method == "random":
        assert out.status in ("SAMPLED_PASS", "REFUTED")
        assert (out.sample_count, out.seed) == (30, 2)
    else:
        assert out.status in ("PROVED", "REFUTED")
        assert (out.sample_count, out.seed) == (None, None)
    assert (out.witness is not None) == out.refuted


def test_direction_nilpotency_examples():
    out = direction_nilpotency(witness_rank_full(4, F5))
    assert out.status == "PROVED"
    space = _space(F5, 2, shift_matrix(2, F5), [identity_matrix(2, F5)])
    assert direction_nilpotency(space).status == "REFUTED"
    with pytest.warns(UserWarning):
        out = direction_nilpotency(counterexample_f2())
    assert out.status == "REFUTED"
    assert out.witness.coefficients == (1,)


def test_corner_entry_check():
    assert corner_entry_check(witness_rank_full(5, F7)).status == "PROVED"
    bad = _space(F5, 3, shift_matrix(3, F5), [unit_matrix(2, 0, 3, F5)])
    out = corner_entry_check(bad)
    assert out.status == "REFUTED"
    assert out.witness.matrix == unit_matrix(2, 0, 3, F5)
    with pytest.raises(PreconditionUnmetError):
        corner_entry_check(witness_rank_one(3, F5))


def test_nilpotency_implies_direction_nilpotency_at_large_fields():
    # re-derivation: for |K| >= n+1, member nilpotency forces direction
    # nilpotency; a failure here would be a bug
    for space in (witness_rank_full(4, F5), witness_rank_one(4, F5),
                  witness_rank_full(3, F7)):
        assert verify_all_nilpotent(space).status == "PROVED"
        assert direction_nilpotency(space).status == "PROVED"
        if space.base == shift_matrix(space.n, space.field):
            assert corner_entry_check(space).status == "PROVED"


def test_proved_space_members_all_nilpotent_by_independent_enumeration():
    space = witness_rank_full(4, F7)
    assert verify_all_nilpotent(space, method="grid").status == "PROVED"
    count = 0
    for t in itertools.product(range(7), repeat=space.d):
        k = nilindex(space.member(t))
        assert k is not None and k <= 4
        count += 1
    assert count == 7**3


def test_change_basis_examples():
    space = witness_rank_full(3, F5)
    assert change_basis(space, identity_matrix(3, F5)) == space
    rng = random.Random(7)
    for _ in range(5):
        while True:
            q = ExactMatrix.from_rows(
                F5, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            )
            if rank(q) == 3:
                break
        moved = change_basis(space, q)
        assert verify_all_nilpotent(moved).status == "PROVED"
        assert verify_constant_rank(moved, 2).status == "PROVED"
        for _ in range(10):
            t = [rng.randrange(5) for _ in range(space.d)]
            assert jordan_partition(space.member(t)) == jordan_partition(moved.member(t))
    with pytest.raises(SingularMatrixError):
        change_basis(space, ExactMatrix.zeros(3, 3, F5))


def test_change_basis_preserves_refutation_status():
    space = _space(F5, 2, identity_matrix(2, F5), [unit_matrix(0, 1, 2, F5)])
    q = ExactMatrix.from_rows(F5, [[1, 2], [0, 1]])
    assert verify_all_nilpotent(change_basis(space, q)).status == "REFUTED"


def test_combine_outcomes_rules():
    from nilspace.spaces import VerificationOutcome

    proved = VerificationOutcome("PROVED", "exhaustive", 10)
    grid = VerificationOutcome("PROVED", "grid", 5)
    sampled = VerificationOutcome("SAMPLED_PASS", "random", 3, sample_count=3, seed=1)
    refuted = VerificationOutcome("REFUTED", "exhaustive", 2, witness="w")
    assert combine_outcomes(proved, grid).status == "PROVED"
    assert combine_outcomes(proved, grid).method == "grid"
    assert combine_outcomes(proved, sampled).status == "SAMPLED_PASS"
    out = combine_outcomes(proved, refuted, sampled)
    assert out.status == "REFUTED" and out.witness == "w"
    assert combine_outcomes(proved, sampled).checks_performed == 13


def test_member_accepts_scalars_and_fractions():
    w = witness_rank_one(3, F5)
    assert w.member([2]) == w.member([7])
    q = witness_rank_one(3, RATIONALS)
    from fractions import Fraction

    assert q.member(["1/2"]) == q.member([Fraction(1, 2)])


def test_batched_and_pure_nilpotency_scans_agree():
    from nilspace.spaces import _fails_nilpotency, _nilpotency_batch, _scan, _scan_numpy

    w = witness_rank_full(4, F7)
    dir_rows = [m.rows for m in w.directions]
    values = list(range(5))
    batch = _nilpotency_batch(4)
    pure = _scan(w.base.rows, dir_rows, itertools.product(values, repeat=len(dir_rows)),
                 F7, _fails_nilpotency(F7))
    batched = _scan_numpy(w.base.rows, dir_rows, values, (7,), batch)
    assert pure == batched  # both PROVED with identical point counts

    bad = _space(
        F7, 4, shift_matrix(4, F7),
        [unit_matrix(0, 2, 4, F7), unit_matrix(3, 0, 4, F7)],
    )
    dir_rows = [m.rows for m in bad.directions]
    pure = _scan(bad.base.rows, dir_rows, itertools.product(values, repeat=len(dir_rows)),
                 F7, _fails_nilpotency(F7))
    batched = _scan_numpy(bad.base.rows, dir_rows, values, (7,), batch)
    assert pure == batched  # same first witness, same check count
    assert pure[0] is not None


_MEMBER_POINTS = {
    # product order over values that are not consecutive: each carry steps
    # a coordinate back by -5
    "grid": list(itertools.product((1, 4, 6), repeat=3)),
    "repeated and negative": [(0, 0, 0), (2, -1, 3), (2, -1, 3), (-3, 5, 0), (0, 0, 0),
                              (6, -7, -2), (-3, 5, 0)],
    "d = 0": [(), (), ()],
}


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["F_7", "Q"])
@pytest.mark.parametrize("case", list(_MEMBER_POINTS))
def test_pure_scan_members_equal_the_members_built_from_scratch(field, case):
    # _scan builds each member from the previous one; every member it tests
    # must be base + sum t_i dir_i, and the first failing point and the
    # check count those of the points in order.  Over Q the scan runs on
    # integer rows (_scan_rows), here with negative entries.
    from nilspace.spaces import _scan

    rng = random.Random(20)
    p = field.p if isinstance(field, PrimeField) else None
    points = _MEMBER_POINTS[case]
    d = len(points[0])

    def random_rows():
        return tuple(tuple(rng.randrange(p) if p else rng.randrange(-9, 10) for _ in range(3))
                     for _ in range(3))

    base, dirs = random_rows(), [random_rows() for _ in range(d)]

    def from_scratch(t):
        rows = tuple(tuple(x + sum(c * m[i][j] for c, m in zip(t, dirs)) for j, x in enumerate(row))
                     for i, row in enumerate(base))
        return tuple(tuple(x % p for x in row) for row in rows) if p else rows

    for target in [None, *range(len(points))]:
        # fail at the member of points[target], first met at its first copy
        want = None if target is None else from_scratch(points[target])
        seen = []
        got = _scan(base, dirs, iter(points), field,
                    lambda rows: seen.append(rows) or rows == want)
        assert seen == [from_scratch(t) for t in points[:len(seen)]]
        first = next((i for i, t in enumerate(points) if from_scratch(t) == want), None)
        if first is None:
            assert got == (None, None, len(points))
        else:
            assert got == (points[first], want, first + 1)


def _largest_prime_for(dtype, terms):
    """The largest prime p with terms * (p - 1)**2 + (p - 1) <= max(dtype)."""
    from math import isqrt

    import numpy as np

    from nilspace.fields import is_prime

    top = int(np.iinfo(dtype).max)
    p = isqrt(top // terms) + 1
    while not (terms * (p - 1) ** 2 + (p - 1) <= top and is_prime(p)):
        p -= 1
    return p


_RANK_SHAPES = [(1, 1), (3, 3), (4, 4), (5, 5), (4, 16), (6, 3), (2, 7)]
_RANK_PRIMES = [2, 3, 5, 7, 11, 65537, _largest_prime_for("int64", 2)]


@st.composite
def _rank_batches(draw):
    """A batch of m x k matrices L @ R mod p.  The inner dimension runs up to
    min(m, k) + 1, so every rank occurs; entries favour 0, 1 and p - 1."""
    m, k = draw(st.sampled_from(_RANK_SHAPES))
    p = draw(st.sampled_from(_RANK_PRIMES))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        return rng.choice([0, 1, p - 1, rng.randrange(p)])

    mats = []
    for _ in range(draw(st.integers(1, 32))):
        inner = rng.randint(0, min(m, k) + 1)
        left = [[entry() for _ in range(inner)] for _ in range(m)]
        right = [[entry() for _ in range(k)] for _ in range(inner)]
        mats.append([
            [sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
            if inner else [0] * k
            for row in left
        ])
    return p, mats


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rank_batches())
def test_batched_rank_matches_pure_rank(batch):
    import numpy as np

    from nilspace.spaces import _int_dtype, _rank_mod_p_batch

    p, mats = batch
    # (B, m, k) to the batch-last (m, k, B) layout
    stacked = np.array(mats, dtype=_int_dtype(p, 2)).transpose(1, 2, 0).copy()
    ranks = _rank_mod_p_batch(stacked, p)
    assert [int(x) for x in ranks] == [_rank_mod_p(m, p) for m in mats]


def _cap_chunks(monkeypatch, points, n, moduli=(7,), dtype="int16"):
    """Set the byte budget of batched chunks to ``points`` members of the
    scan of n x n ``dtype`` residues mod ``moduli``, or leave the default
    when ``points`` is None."""
    import numpy as np

    from nilspace import spaces

    if points is not None:
        point = len(moduli) * spaces._CHUNK_ARRAYS * n * n * np.dtype(dtype).itemsize
        monkeypatch.setattr(spaces, "_CHUNK_BYTES", points * point)
        assert spaces._chunk_points(n, dtype, moduli) == points


def _pure_trace_fails(basis_rows, m_max, p):
    from nilspace.matrices import _matmul as _matmul_mod_p

    def fails(rows):
        power = rows
        for m in range(1, m_max + 1):
            if m > 1:
                power = _matmul_mod_p(power, rows, p)
            for b in basis_rows:
                n = len(b)
                if sum(power[i][j] * b[j][i] for i in range(n) for j in range(n)) % p:
                    return True
        return False

    return fails


# F_7, n = 4, grid values 0..4, directions the six strictly upper units.  On
# the shift base the 15625 points pass every predicate; on shift + E30 the
# first point fails; with E30 as second direction the first failure is
# point 3126, the first of block 1 of 5**5 points.  It starts the second
# chunk at the default budget, whose chunks are whole blocks of 5**5 points
# (1..3125, ..6250), and the fourth at a cap of 1536 points, whose blocks
# have 5**4 (1..625, ..1875, ..3125, ..4375).
_UPPER = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_SCAN_CASES = {  # base, directions, checks, refuted
    "proved": ("shift", _UPPER, 15625, False),
    "first point": ("shift+E30", _UPPER, 1, True),
    "third chunk": ("shift", _UPPER[:1] + [(3, 0)] + _UPPER[1:], 3126, True),
}


@pytest.mark.parametrize("predicate", ["nilpotency", "rank != 3", "rank > 3", "trace"])
@pytest.mark.parametrize("case", list(_SCAN_CASES))
def test_batched_and_pure_scans_agree(predicate, case, monkeypatch):
    from nilspace import spaces
    from nilspace.reduction import _trace_batch
    from nilspace.spaces import _fails_nilpotency, _nilpotency_batch, _rank_batch, _scan, _scan_numpy

    base_name, dirs, checks, refuted = _SCAN_CASES[case]
    base = shift_matrix(4, F7)
    if base_name == "shift+E30":
        base = base + unit_matrix(3, 0, 4, F7)
    dir_rows = [unit_matrix(i, j, 4, F7).rows for i, j in dirs]
    trace_basis = [unit_matrix(i, j, 4, F7).rows for i, j in _UPPER]
    pure_fails, batch = {
        "nilpotency": (_fails_nilpotency(F7), _nilpotency_batch(4)),
        "rank != 3": (lambda rows: _rank_mod_p(rows, 7) != 3,
                      _rank_batch(4, lambda ranks: ranks != 3)),
        "rank > 3": (lambda rows: _rank_mod_p(rows, 7) > 3,
                     _rank_batch(4, lambda ranks: ranks > 3)),
        "trace": (_pure_trace_fails(trace_basis, 2, 7), _trace_batch(trace_basis, 2)),
    }[predicate]
    assert batch.terms == {"nilpotency": 4, "trace": 16}.get(predicate, 2)
    values = list(range(5))
    pure = _scan(base.rows, dir_rows, itertools.product(values, repeat=len(dir_rows)),
                 F7, pure_fails)
    # the default budget, then a cap of 1536 points: chunks of one and then
    # two whole blocks of 5**4 points
    for chunk_cap in (None, 1536):
        _cap_chunks(monkeypatch, chunk_cap, 4)
        batched = _scan_numpy(base.rows, dir_rows, values, (7,), batch)
        assert batched == pure
    assert pure[2] == checks
    assert (pure[0] is not None) == refuted
    if refuted:
        assert pure_fails(pure[1])


# F_7, n = 5, the values 0..6 on six directions: the shape of the exhaustive
# rank scan of witness_rank_full(5, F_7).  Every member is J plus a strictly
# upper matrix until E40 enters, and J + E40 fails every predicate.  As
# direction 1, E40 first enters at point 2402, one past the block of 7**4
# points that is the first chunk; as direction 0 at point 16808, one past a
# block of 7**5.
_FIVE_UPPER = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)]


@pytest.mark.parametrize("predicate, slot, checks", [
    ("nilpotency", 1, 2402), ("rank != 4", 1, 2402), ("trace", 1, 2402),
    ("rank != 4", 0, 16808),
])
def test_batched_scan_keeps_product_order_across_block_and_chunk_edges(
    predicate, slot, checks, monkeypatch
):
    from nilspace import spaces
    from nilspace.reduction import _trace_batch
    from nilspace.spaces import _fails_nilpotency, _nilpotency_batch, _rank_batch, _scan, _scan_numpy

    dirs = _FIVE_UPPER[:slot] + [(4, 0)] + _FIVE_UPPER[slot:]
    dir_rows = [unit_matrix(i, j, 5, F7).rows for i, j in dirs]
    base = shift_matrix(5, F7)
    trace_basis = [unit_matrix(i, j, 5, F7).rows for i in range(5) for j in range(i + 1, 5)]
    pure_fails, batch = {
        "nilpotency": (_fails_nilpotency(F7), _nilpotency_batch(5)),
        "rank != 4": (lambda rows: _rank_mod_p(rows, 7) != 4,
                      _rank_batch(5, lambda ranks: ranks != 4)),
        "trace": (_pure_trace_fails(trace_basis, 2, 7), _trace_batch(trace_basis, 2)),
    }[predicate]
    assert batch.terms == {"nilpotency": 5, "trace": 25}.get(predicate, 2)
    values = list(range(7))
    pure = _scan(base.rows, dir_rows, itertools.product(values, repeat=len(dir_rows)),
                 F7, pure_fails)
    assert pure[0] == tuple(int(i == slot) for i in range(6)) and pure[2] == checks
    # 1536 is no power of 7, so chunks are 2 and then 4 whole blocks of
    # 7**3 points; at 5 a block is one point, and reaching point 16808
    # would take 3000-odd chunks, and seconds
    for chunk_cap in (None, 1536) + ((5,) if slot else ()):
        _cap_chunks(monkeypatch, chunk_cap, 5)
        assert _scan_numpy(base.rows, dir_rows, values, (7,), batch) == pure


# J_4 plus t_0 E02 + t_1 E13 + t_2 E30: tr(M^4) = 4 t_2 from the 4-cycle,
# so a member is nilpotent exactly where t_2 = 0.  The samples keep t_2 = 0
# up to point 231, which at a cap of 100 points is in the third chunk.
def _third_chunk_samples(field):
    rng = random.Random(24)
    top = 6 if isinstance(field, PrimeField) else 10**6
    low = 0 if isinstance(field, PrimeField) else -top
    points = [(rng.randint(low, top), rng.randint(low, top), 0) for _ in range(230)]
    points.append((3, 1, 5) if isinstance(field, PrimeField) else (3, -4, -2))
    points += [tuple(rng.randint(low, top) for _ in range(3)) for _ in range(69)]
    space = _space(field, 4, shift_matrix(4, field),
                   [unit_matrix(0, 2, 4, field), unit_matrix(1, 3, 4, field),
                    unit_matrix(3, 0, 4, field)])
    return space, points


@pytest.mark.parametrize("field", [F7, RATIONALS], ids=["F_7", "Q"])
def test_batched_sampled_scan_keeps_the_sample_order_across_chunk_edges(field, monkeypatch):
    from nilspace import spaces
    from nilspace.spaces import _fails_nilpotency, _nilpotency_batch, _scan, _scan_numpy, _scan_rows

    space, points = _third_chunk_samples(field)
    base, dirs, _ = _scan_rows(field, space.base.rows, [m.rows for m in space.directions])
    batch = _nilpotency_batch(4)
    monkeypatch.setattr(spaces, "_NUMPY_MIN_POINTS", 1)
    moduli, bound = spaces._batch_moduli(field, batch, base, dirs, spaces._Q_SAMPLE_TOP, len(points))
    _cap_chunks(monkeypatch, 100, 4, moduli, spaces._batch_dtype(moduli, batch, bound))
    pure = _scan(base, dirs, points, field, _fails_nilpotency(field))
    assert pure[0] == points[230] and pure[2] == 231
    chunks = []
    batched = _scan_numpy(base, dirs, (), moduli, batch._replace(
        statistic=lambda members, q: chunks.append(members.shape[-1]) or batch.statistic(members, q)
    ), bound, samples=iter(points))
    assert batched == pure
    assert chunks == [100] * 3 * len(moduli)
    # the verifier takes the same path: batched, then pure, the same outcome
    monkeypatch.setattr(spaces, "_sample_points", lambda *args: iter(points))
    seen = _batched_calls(monkeypatch)
    out = verify_all_nilpotent(space, method="random", sample_count=len(points))
    assert seen == [("samples", moduli)]
    assert (out.status, out.checks_performed, out.witness.coefficients) == (
        "REFUTED", 231, points[230])
    monkeypatch.setattr(spaces, "_NUMPY_MIN_POINTS", 10**18)
    monkeypatch.setattr(spaces, "_Q_MODULI", ())
    assert verify_all_nilpotent(space, method="random", sample_count=len(points)) == out
    assert len(seen) == 1


def _next_prime(p):
    from nilspace.fields import is_prime

    p += 1
    while not is_prime(p):
        p += 1
    return p


@pytest.mark.parametrize("terms", [1, 2, 5, 16, 25])
def test_scans_run_in_the_narrowest_dtype_that_holds_the_bound(terms):
    import numpy as np

    from nilspace.spaces import _int_dtype

    for narrow, wide in (("int16", "int32"), ("int32", "int64"), ("int64", None)):
        p = _largest_prime_for(narrow, terms)
        assert _int_dtype(p, terms) == np.dtype(narrow)
        assert _int_dtype(_next_prime(p), terms) == (wide and np.dtype(wide))
    # a 4 x 4 trace: 16 * 42**2 + 42 = 28266 fits int16, 16 * 46**2 + 46 does not
    if terms == 16:
        assert (_largest_prime_for("int16", 16), _next_prime(43)) == (43, 47)


def test_hand_written_dtype_limits_are_numpy_limits():
    import numpy as np

    from nilspace.spaces import _INT_MAX, _Q_MODULI, _terms_held

    assert list(_INT_MAX) == ["int16", "int32", "int64"]
    for name in _INT_MAX:
        assert _INT_MAX[name] == np.iinfo(name).max
        for q in (*_Q_MODULI, 7, 43):
            assert _terms_held(name, q) == _terms_held(np.dtype(name), q)


@pytest.mark.parametrize("p, dtype", [(43, "int16"), (47, "int32")])
@pytest.mark.parametrize("refuted", [False, True])
def test_trace_scan_at_the_int16_boundary_matches_the_pure_scan(p, dtype, refuted):
    # members with zero row sums have A^m 1 = 0, so tr(A^m 1 w^T) = w^T A^m 1
    # vanishes for every basis element whose rows all equal one w; E00 as
    # direction 0 breaks that first at point 4**5 + 1.  Entries and values
    # near p - 1 push each trace sum to about 16 (p - 1)**2.
    import numpy as np

    from nilspace.reduction import _trace_batch
    from nilspace.spaces import _scan, _scan_numpy

    field = PrimeField(p)
    n = 4

    def zero_row_sum(i, j, k):
        return (unit_matrix(i, j, n, field) - unit_matrix(i, k, n, field)).scale(p - 1).rows

    dir_rows = [zero_row_sum(0, 1, 2), zero_row_sum(1, 3, 0), zero_row_sum(2, 0, 3),
                zero_row_sum(3, 2, 1), zero_row_sum(0, 3, 1), zero_row_sum(2, 1, 2)]
    if refuted:
        dir_rows[0] = unit_matrix(0, 0, n, field).scale(p - 1).rows
    basis = [((p - 1,) * n,) * n, ((p - 1, 1, p - 2, 2),) * n]
    values = [0, 1, p - 2, p - 1]
    zero = ((0,) * n,) * n
    seen = []
    batch = _trace_batch(basis, 2)
    assert batch.terms == n * n
    pure = _scan(zero, dir_rows, itertools.product(values, repeat=len(dir_rows)),
                 field, _pure_trace_fails(basis, 2, p))
    batched = _scan_numpy(zero, dir_rows, values, (p,), batch._replace(
        statistic=lambda members, q: seen.append(members.dtype) or batch.statistic(members, q)))
    assert batched == pure
    assert (pure[0] is not None) == refuted and pure[2] == (4**5 + 1 if refuted else 4**6)
    assert set(seen) == {np.dtype(dtype)}


def _traced_peak(call):
    """The outcome of ``call()`` and the peak of the memory it traced."""
    import tracemalloc

    import numpy  # noqa: F401  (its import is no part of a scan)

    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_constant_rank_scan_memory_stays_below_the_int64_layout():
    # the exhaustive rank scan of witness_rank_full(5, F_7) over 117 649
    # members traced a 37.6-39.4 MB peak in the (B, n, n) int64 layout and
    # 17.4 MB in int16 chunks of up to 2**17 points; chunks sized to the
    # byte budget keep it near 1.6 MB
    out, peak = _traced_peak(lambda: verify_constant_rank(witness_rank_full(5, F7), 4))
    assert (out.status, out.method, out.checks_performed) == ("PROVED", "exhaustive", 7**6)
    assert peak < 2.5e6


@pytest.mark.parametrize("scan, outcome", [
    ("trace", ("PROVED", "grid", 5**7)),
    ("nilpotency", ("PROVED", "grid", 6**6)),
    ("rational nilpotency", ("PROVED", "grid", 8**5)),
])
def test_batched_scan_memory_stays_within_the_chunk_budget(scan, outcome):
    # chunks of up to 2**17 points traced peaks of 11.9, 6.2 and 56.0 MB;
    # chunks sized to the 2 MiB budget trace 2.0, 1.8 and 0.9 MB
    from nilspace import trace_condition_verify

    full = witness_rank_full(5, F7)
    j7 = shift_matrix(7, RATIONALS)
    upper = [unit_matrix(0, j, 7, RATIONALS) for j in range(2, 7)]
    call = {
        "trace": lambda: trace_condition_verify([full.base, *full.directions], 4, F7),
        "nilpotency": lambda: verify_all_nilpotent(full),
        "rational nilpotency": lambda: verify_all_nilpotent(_space(RATIONALS, 7, j7, upper)),
    }[scan]
    out, peak = _traced_peak(call)
    assert (out.status, out.method, out.checks_performed) == outcome
    assert peak < 3e6


def test_batched_sampled_scan_memory_stays_within_the_chunk_budget(monkeypatch):
    # 20 000 samples of the (4, 2) rational staircase's rank, in chunks of
    # 682 points mod four primes: the members are built in place in the
    # chunk buffer, with no separate array of prefix members
    staircase = _space(RATIONALS, 4, shift_matrix(4, RATIONALS) - unit_matrix(2, 3, 4, RATIONALS), [
        unit_matrix(i, j, 4, RATIONALS) for i in range(2) for j in range(i + 2, 4)
    ])
    seen = _batched_calls(monkeypatch)
    out, peak = _traced_peak(lambda: verify_constant_rank(staircase, 2, sample_count=20_000, seed=1))
    assert (out.status, out.method, out.checks_performed) == ("SAMPLED_PASS", "random", 5**3 + 20_000)
    assert [kind for kind, _ in seen] == ["grid", "samples"]
    assert peak < 3e6


def test_zero_dimensional_space_scans_its_one_member_over_a_large_field():
    # a 0-dimensional space has one member, its base: the exhaustive scans
    # test it once, without a list of p values (1.8 s and a 38 MB traced
    # peak at this p when the list was built)
    import tracemalloc

    field = PrimeField(1_000_003)
    space = _space(field, 3, shift_matrix(3, field), [])
    tracemalloc.start()
    try:
        outs = [
            verify_constant_rank(space, 2, sample_count=0),
            verify_all_nilpotent(space, method="exhaustive", sample_count=0),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for out in outs:
        assert (out.status, out.method, out.checks_performed) == ("PROVED", "exhaustive", 1)
    assert peak < 5e6


def test_verifiers_give_identical_outcomes_batched_and_pure(monkeypatch):
    from nilspace import spaces, trace_condition_verify

    j = shift_matrix(4, F7)
    e30 = unit_matrix(3, 0, 4, F7)
    upper = [unit_matrix(i, k, 4, F7) for i, k in _UPPER]
    full = witness_rank_full(4, F7)
    calls = [
        (verify_all_nilpotent, (full,), {}),
        (verify_all_nilpotent, (full,), {"method": "exhaustive"}),
        (verify_all_nilpotent, (_space(F7, 4, j, upper[:1] + [e30] + upper[1:4]),), {}),
        (direction_nilpotency, (_space(F7, 4, j, [e30] + upper[:3]),), {}),
        (verify_constant_rank, (full, 3), {}),
        (verify_constant_rank, (full, 3), {"budget": 300}),
        (verify_constant_rank, (_space(F7, 4, j, upper[:4]), 3), {}),
        (verify_constant_rank, (_space(F7, 4, j, upper[:4]), 2), {"budget": 1000}),
        # the grid proves rank <= 3 though t = 1 gives rank 2; sampling refutes
        (verify_constant_rank, (_space(F7, 4, j, [upper[0].scale(6)] + upper[1:4]), 3),
         {"budget": 1000}),
        (verify_constant_rank, (witness_rank_one(4, F7), 1), {}),
        (trace_condition_verify, (upper[:5], 3, F7), {}),
        (trace_condition_verify, (upper[:2] + [e30] + upper[2:4], 3, F7), {}),
        # on the span of a 4-cycle the first nonzero trace is at power 3
        (trace_condition_verify, ([unit_matrix(i, (i + 1) % 4, 4, F7) for i in range(4)], 3, F7), {}),
    ]
    outcomes = {}
    for threshold in (1, 10**18):
        monkeypatch.setattr(spaces, "_NUMPY_MIN_POINTS", threshold)
        outcomes[threshold] = [fn(*args, **kwargs) for fn, args, kwargs in calls]
    assert outcomes[1] == outcomes[10**18]
    statuses = {o.status for o in outcomes[1]}
    assert statuses == {"PROVED", "REFUTED", "SAMPLED_PASS"}


def test_witness_recheck_guarantee():
    space = _space(F5, 4, shift_matrix(4, F5), [unit_matrix(3, 0, 4, F5)])
    out = verify_all_nilpotent(space)
    member = space.member(out.witness.coefficients)
    assert member == out.witness.matrix
    assert nilindex(member) is None


# ---------------------------------------------------------------------------
# rational refutations: the scans run on integer multiples of the members
# and hand back the point as Fractions and the member rebuilt from the
# space's rows; the values were taken from the Fraction-arithmetic scans

_HALF, _TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)


def _q(rows):
    return ExactMatrix.from_rows(RATIONALS, rows)


def _q_corner_space():
    # nilpotent exactly where the corner coefficient t_0 is 0
    return _space(RATIONALS, 3, _q([[0, _HALF, 0], [0, 0, _TWO_THIRDS], [0, 0, 0]]), [
        _q([[0, 0, 0], [0, 0, 0], [_HALF, 0, 0]]),
        _q([[0, 0, _TWO_THIRDS], [0, 0, 0], [0, 0, 0]]),
    ])


def _q_rank_space():
    # rank 1 where t_0 = 0, rank 2 elsewhere
    return _space(RATIONALS, 3, _q([[0, _HALF, 0], [0, 0, 0], [0, 0, 0]]), [
        _q([[0, 0, 0], [0, 0, _HALF], [0, 0, 0]]),
        _q([[0, 0, _TWO_THIRDS], [0, 0, 0], [0, 0, 0]]),
    ])


@pytest.mark.parametrize("verify, space, method, checks, t, member, notes", [
    (verify_all_nilpotent, _q_corner_space, "grid", 5, (1, 0),
     [[0, _HALF, 0], [0, 0, _TWO_THIRDS], [_HALF, 0, 0]], ()),
    (lambda space: verify_constant_rank(space, 1), _q_rank_space, "grid", 5, (1, 0),
     [[0, _HALF, 0], [0, 0, _HALF], [0, 0, 0]], ()),
    (lambda space: verify_constant_rank(space, 3, seed=5), _q_rank_space, "random", 1,
     (306319, -464293),
     [[0, _HALF, Fraction(-928586, 3)], [0, 0, Fraction(306319, 2)], [0, 0, 0]],
     ("rank <= 3 holds for every 3x3 matrix",
      "rank lower bound is not a polynomial identity; sampled only")),
], ids=["nilpotency grid", "rank upper bound grid", "sampled rank lower bound"])
def test_rational_refutations_hand_back_fraction_points_and_members(
    verify, space, method, checks, t, member, notes
):
    space = space()
    out = verify(space)
    assert (out.status, out.method, out.checks_performed, out.notes) == (
        "REFUTED", method, checks, notes)
    w = out.witness
    assert w.coefficients == t and all(type(c) is Fraction for c in w.coefficients)
    assert w.matrix == _q(member) == space.member(w.coefficients)
    assert all(type(x) is Fraction for row in w.matrix.rows for x in row)


def test_rational_scans_do_no_fraction_arithmetic_per_member(monkeypatch):
    from nilspace import trace_condition_verify

    space = _space(RATIONALS, 4, _q([[0, _HALF, 0, 0], [0, 0, _TWO_THIRDS, 0], [0] * 4, [0] * 4]), [
        _q([[0, 0, Fraction(1, 5), 0], [0] * 4, [0] * 4, [0] * 4]),
        _q([[0, 0, 0, Fraction(3, 7)], [0] * 4, [0] * 4, [0] * 4]),
        _q([[0, 0, 0, 0], [0, 0, 0, _HALF], [0] * 4, [0] * 4]),
    ])
    basis = [space.base, *space.directions]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__pow__", "__neg__"):
        def counted(*args, _op=getattr(Fraction, name)):
            calls.append(_op)
            return _op(*args)
        monkeypatch.setattr(Fraction, name, counted)
    outcomes = [
        verify_all_nilpotent(space),
        verify_all_nilpotent(space, method="random", sample_count=50),
        verify_constant_rank(space, 2, sample_count=50),
        trace_condition_verify(basis, 3),
        trace_condition_verify(basis, 3, budget=10, sample_count=50),
    ]
    monkeypatch.undo()
    assert [o.status for o in outcomes] == ["PROVED", "SAMPLED_PASS", "SAMPLED_PASS",
                                            "PROVED", "SAMPLED_PASS"]
    assert sum(o.checks_performed for o in outcomes) == 125 + 50 + 175 + 256 + 50
    assert calls == []


# ---------------------------------------------------------------------------
# the multi-modular rule: rational scans run batched on the integer members
# mod the fewest primes of _Q_MODULI that determine every integer the
# predicate compares with zero

def _batched_calls(monkeypatch):
    """Record the kind, "grid" or "samples", and the moduli of every
    batched scan."""
    from nilspace import spaces

    seen = []

    def recorded(*args, _run=spaces._scan_numpy, **kwargs):
        seen.append(("grid" if kwargs.get("samples") is None else "samples", args[3]))
        return _run(*args, **kwargs)

    monkeypatch.setattr(spaces, "_scan_numpy", recorded)
    return seen


def _q_trace_basis():
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    return [_q([[0, half, 0], [0, 0, 0], [0, 0, 0]]),
            _q([[0, 0, 0], [0, 0, two_thirds], [0, 0, 0]]),
            _q([[0, 0, 0], [0, 0, 0], [half, 0, 0]])]


def test_rational_verifiers_give_identical_outcomes_batched_and_pure(monkeypatch):
    from nilspace import spaces, trace_condition_verify

    staircase = _space(RATIONALS, 4, shift_matrix(4, RATIONALS) - unit_matrix(2, 3, 4, RATIONALS), [
        unit_matrix(i, j, 4, RATIONALS) for i in range(2) for j in range(i + 2, 4)
    ])
    full = witness_rank_full(4, RATIONALS)
    calls = [
        (verify_all_nilpotent, (_q_corner_space(),), {}),
        (verify_all_nilpotent, (_q_corner_space(),), {"method": "random", "seed": 3}),
        (verify_all_nilpotent, (staircase,), {}),
        (verify_all_nilpotent, (full,), {"method": "random", "sample_count": 200}),
        (direction_nilpotency, (full,), {}),
        (verify_constant_rank, (_q_rank_space(), 1), {}),
        (verify_constant_rank, (_q_rank_space(), 3), {"seed": 5}),
        (verify_constant_rank, (_q_rank_space(), 2), {"seed": 5}),
        (verify_constant_rank, (staircase, 2), {"seed": 1}),
        (verify_constant_rank, (full, 3), {"sample_count": 300}),
        (trace_condition_verify, (_q_trace_basis(), 2), {}),
        (trace_condition_verify, (_q_trace_basis(), 2), {"budget": 20, "seed": 5}),
        (trace_condition_verify, ([full.base, *full.directions], 3), {}),
        (trace_condition_verify, ([full.base, *full.directions], 3),
         {"budget": 20, "sample_count": 100}),
    ]
    seen = _batched_calls(monkeypatch)
    batched = [fn(*args, **kwargs) for fn, args, kwargs in calls]
    # the Q grids and the Q samples both run batched, through one loop
    assert {kind for kind, _ in seen} == {"grid", "samples"}
    assert all(moduli == spaces._Q_MODULI[:len(moduli)] for _, moduli in seen)
    assert {len(moduli) for _, moduli in seen} >= {1, 3}  # samples reach 10^6
    seen.clear()
    monkeypatch.setattr(spaces, "_Q_MODULI", ())  # every bound outruns the list
    pure = [fn(*args, **kwargs) for fn, args, kwargs in calls]
    assert seen == []
    assert batched == pure
    assert {o.status for o in pure} == {"PROVED", "REFUTED", "SAMPLED_PASS"}
    for out in pure:
        if out.refuted:
            assert all(type(c) is Fraction for c in out.witness.coefficients)


def test_rational_rank_is_the_largest_rank_mod_enough_primes(monkeypatch):
    # diag(1 + t, q1 q2) has rank 2 over Q at t = 0, but rank 1 mod q1 and
    # mod q2; the bound 3 (q1 q2)^2 takes five primes, and the third sees it
    import numpy as np

    from nilspace import spaces
    from nilspace.spaces import _Q_MODULI, _rank_batch, _rank_mod_p_batch, _scan_numpy

    q1, q2 = _Q_MODULI[:2]
    member = ((1, 0), (0, q1 * q2))
    ranks = [int(_rank_mod_p_batch(np.array(member, dtype=np.int64)[:, :, None] % q, q)[0])
             for q in _Q_MODULI[:3]]
    assert ranks == [1, 1, 2]
    space = _space(RATIONALS, 2, _q(member), [_q([[1, 0], [0, 0]])])
    seen = _batched_calls(monkeypatch)
    out = verify_constant_rank(space, 1)
    assert (out.status, out.method, out.checks_performed) == ("REFUTED", "grid", 1)
    assert out.witness.coefficients == (0,) and rank(out.witness.matrix) == 2
    assert seen == [("grid", _Q_MODULI[:5])]
    out = verify_constant_rank(_space(RATIONALS, 2, _q(member), []), 2, sample_count=10)
    assert (out.status, out.checks_performed) == ("SAMPLED_PASS", 10)
    assert seen[1:] == [("samples", _Q_MODULI[:5])]
    # the scans refuse moduli that do not determine the minors
    batch = _rank_batch(2, lambda r: r != 2)
    bound = batch.bound(q1 * q2 + 2)
    assert bound == 3 * (q1 * q2 + 2) ** 2
    with pytest.raises(AssertionError, match="moduli"):
        _scan_numpy(member, [((1, 0), (0, 0))], [0, 1, 2], _Q_MODULI[:4], batch, bound)
    with pytest.raises(AssertionError, match="moduli"):
        _scan_numpy(member, [], (), _Q_MODULI[:4], batch, bound, samples=[()])


def test_rational_ranks_match_bareiss_on_planted_dependencies():
    # 300 integer matrices L @ R of every rank, entries up to about 10^8:
    # the largest rank over the moduli the rule takes is the rank over Q
    import numpy as np

    from nilspace.spaces import _entry_bound, _q_moduli, _rank_batch

    rng = random.Random(15)
    ranks = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        inner = rng.randint(0, n)
        left = [[rng.randint(-100, 100) for _ in range(inner)] for _ in range(n)]
        right = [[rng.randint(-2 * 10**5, 2 * 10**5) for _ in range(n)] for _ in range(inner)]
        rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*right))
                     if inner else (0,) * n for row in left)
        batch = _rank_batch(n, None)
        moduli = _q_moduli(batch.bound(_entry_bound(rows, [], 0)))
        largest = max(
            int(batch.statistic(np.array(rows, dtype=np.int64)[:, :, None] % q, q)[0])
            for q in moduli
        )
        assert largest == _rank_mod_p(rows, None) <= inner
        ranks.add(largest)
    assert ranks == set(range(6))


def test_the_rule_takes_exactly_one_more_prime_past_a_bound_edge():
    from math import prod

    from nilspace.spaces import _Q_MODULI, _exact, _q_moduli

    for j in range(1, len(_Q_MODULI)):
        edge = (prod(_Q_MODULI[:j]) - 1) // 2  # the largest bound j primes determine
        assert _exact(_Q_MODULI[:j], edge) and not _exact(_Q_MODULI[:j], edge + 1)
        assert _q_moduli(edge) == _Q_MODULI[:j]
        assert _q_moduli(edge + 1) == _Q_MODULI[:j + 1]
    assert _q_moduli(0) == _Q_MODULI[:1]
    assert _q_moduli((prod(_Q_MODULI) - 1) // 2) == _Q_MODULI
    assert _q_moduli((prod(_Q_MODULI) - 1) // 2 + 1) is None


def test_a_rational_bound_beyond_the_prime_list_runs_the_pure_scan(monkeypatch):
    # entries of 10^40: M^2 of a 2 x 2 member reaches 2 * 10^80 > 2^216
    big = 10**40
    space = _space(RATIONALS, 2, _q([[0, big], [0, 0]]), [_q([[0, 3], [0, 0]]), _q([[1, 1], [0, 0]])])
    seen = _batched_calls(monkeypatch)
    nilpotent = verify_all_nilpotent(space)
    sampled = verify_all_nilpotent(space, method="random", sample_count=20)
    rank_one = verify_constant_rank(space, 1, sample_count=20)
    assert seen == []
    # members are nilpotent exactly where t_1 = 0, and of rank 1 everywhere
    assert (nilpotent.status, nilpotent.checks_performed, nilpotent.witness.coefficients) == (
        "REFUTED", 2, (0, 1))
    assert sampled.refuted and sampled.witness.coefficients[1] != 0
    assert (rank_one.status, rank_one.checks_performed) == ("SAMPLED_PASS", 3**2 + 20)
    # a small multiple of the same space runs batched to the same outcomes
    small = _space(RATIONALS, 2, _q([[0, 1], [0, 0]]), [_q([[0, 3], [0, 0]]), _q([[1, 1], [0, 0]])])
    assert verify_all_nilpotent(small).witness.coefficients == (0, 1)
    assert [kind for kind, _ in seen] == ["grid"]


def test_rational_moduli_are_primes_whose_dot_products_int64_holds():
    import numpy as np

    from nilspace.fields import is_prime
    from nilspace.spaces import _Q_MODULI, _int_dtype, _matmul_batch, _terms_held

    assert list(_Q_MODULI) == sorted(set(_Q_MODULI), reverse=True)
    for q in _Q_MODULI:
        assert is_prime(q) and q < 2**27
        assert _int_dtype(q, 2) == _int_dtype(q, 22 * 22) == np.dtype("int64")
        assert _terms_held(np.dtype("int64"), q) == 512
    # each entry of a 22 x 22 product of residues near q sums 22 products
    # before it is reduced
    q = _Q_MODULI[-1]
    rng = random.Random(q)
    a, b = ([[rng.choice([q - 1, q - 2, rng.randrange(q)]) for _ in range(22)] for _ in range(22)]
            for _ in range(2))
    product = _matmul_batch(np.array(a, dtype=np.int64)[:, :, None],
                            np.array(b, dtype=np.int64)[:, :, None], q)
    assert product[:, :, 0].tolist() == [
        [sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a
    ]
