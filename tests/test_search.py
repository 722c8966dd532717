import itertools

import pytest

from nilspace import (
    AffineMatrixSpace,
    ExactMatrix,
    FieldTooSmallError,
    PrimeField,
    bound_rank_bounded,
    bound_rank_full,
    bound_rank_one,
    build_candidate_pool,
    canonical_bases,
    conjecture_bound,
    is_nilpotent,
    jordan_partition,
    max_affine_dimension,
    rank,
    shift_matrix,
    verify_all_nilpotent,
    verify_constant_rank,
)
from nilspace.matrices import _is_nilpotent_mod_p, _nullspace_mod_p, _rank_mod_p
from nilspace.search import (
    CandidatePool,
    _canonical_line,
    _dfs_search,
    _extend_points,
    _extension_lines,
    _iter_canonical_kernel,
)
from nilspace.search import check_conjecture as run_conjecture_test

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_canonical_bases_examples():
    assert canonical_bases(3, 2, F5) == [shift_matrix(3, F5)]
    bases = canonical_bases(4, 2, F5)
    assert len(bases) == 2
    parts = {jordan_partition(b).parts for b in bases}
    assert parts == {(3, 1, 0, 0), (2, 2, 0, 0)}
    zero = canonical_bases(3, 0, F5)
    assert len(zero) == 1 and zero[0].is_zero()
    for b in canonical_bases(5, 3, F5):
        assert rank(b) == 3 and is_nilpotent(b)


def test_canonical_bases_cover_all_similarity_classes_small():
    # enumerate every nilpotent matrix over F_3 for n <= 3 and check each
    # block-size profile of rank r appears among the canonical bases
    for n in (1, 2, 3):
        found: dict[int, set] = {}
        for flat in itertools.product(range(3), repeat=n * n):
            rows = tuple(flat[i * n:(i + 1) * n] for i in range(n))
            if not _is_nilpotent_mod_p(rows, 3):
                continue
            m = ExactMatrix(F3, rows)
            found.setdefault(rank(m), set()).add(jordan_partition(m).parts)
        for r in range(0, n):
            expected = {jordan_partition(b).parts for b in canonical_bases(n, r, F3)}
            assert found.get(r, set()) == expected


def _brute_force_pool(base, r, p, n):
    """Oracle: enumerate every nonzero matrix, keep canonical representatives
    of lines whose members all stay nilpotent of rank exactly r."""
    base_flat = tuple(x for row in base.rows for x in row)
    seen = set()
    for flat in itertools.product(range(p), repeat=n * n):
        if not any(flat):
            continue
        first = next(x for x in flat if x)
        if first != 1:
            continue  # canonical line representatives only
        ok = True
        for t in range(1, p):
            member = tuple((b + t * a) % p for b, a in zip(base_flat, flat))
            rows = tuple(member[i * n:(i + 1) * n] for i in range(n))
            if _rank_mod_p(rows, p) != r or not _is_nilpotent_mod_p(rows, p):
                ok = False
                break
        if ok:
            seen.add(flat)
    return seen


def test_pool_matches_brute_force_oracle_n2():
    for p, expected_nonempty in ((2, True), (3, False)):
        field = PrimeField(p)
        base = shift_matrix(2, field)
        pool = build_candidate_pool(base, 1, field, pruning="none")
        got = {tuple(x for row in c.rows for x in row) for c in pool.candidates}
        oracle = _brute_force_pool(base, 1, p, 2)
        assert got == oracle
        assert bool(got) == expected_nonempty
        # single-entry directions never survive: the superdiagonal line dies
        # where 1 + t = 0 and the lower-left unit is never nilpotent with base
        assert (0, 1, 0, 0) not in got
        assert (0, 0, 1, 0) not in got


def test_pool_over_f2_contains_the_counterexample_direction():
    pool = build_candidate_pool(shift_matrix(2, F2), 1, F2, pruning="none")
    flats = {tuple(x for row in c.rows for x in row) for c in pool.candidates}
    assert (0, 1, 1, 0) in flats  # the non-nilpotent direction of the exception


def test_pool_excludes_nonzero_lower_corner():
    pool = build_candidate_pool(shift_matrix(3, F5), 2, F5, pruning="trace")
    assert pool.complete
    for c in pool.candidates:
        assert c[2, 0] == 0


def test_trace_pruning_keeps_the_full_pool():
    base = shift_matrix(3, F5)
    unpruned = build_candidate_pool(base, 2, F5, pruning="none")
    pruned = build_candidate_pool(base, 2, F5, pruning="trace")
    assert unpruned.complete and pruned.complete
    set_none = {c.rows for c in unpruned.candidates}
    set_trace = {c.rows for c in pruned.candidates}
    assert set_none == set_trace
    assert pruned.lines_tested < unpruned.lines_tested
    assert pruned.pruned_by_trace > 0 and unpruned.pruned_by_trace == 0


def test_pool_budget_cut_is_flagged():
    pool = build_candidate_pool(shift_matrix(3, F5), 2, F5, pruning="none", budget=50)
    assert not pool.complete
    assert pool.evaluations <= 50


def test_trace_pruning_rejected_on_small_fields():
    with pytest.raises(FieldTooSmallError):
        build_candidate_pool(shift_matrix(2, F2), 1, F2, pruning="trace")
    with pytest.raises(FieldTooSmallError):
        max_affine_dimension(2, 1, F2, pruning="trace")


def test_candidates_lie_in_the_trace_constraint_kernel():
    # every direction whose line through the shift base stays nilpotent (no
    # rank requirement even) satisfies the linear trace constraints
    from nilspace import linear_trace_constraints

    base = shift_matrix(3, F5)
    base_flat = tuple(x for row in base.rows for x in row)
    cons = linear_trace_constraints(base, 2)
    cons_flat = [tuple(x for row in c.rows for x in row) for c in cons]
    checked = 0
    identity = [tuple(int(i == j) for j in range(9)) for i in range(9)]
    for flat in _iter_canonical_kernel(identity, 5):
        all_nilpotent = True
        for t in range(1, 5):
            member = tuple((b + t * a) % 5 for b, a in zip(base_flat, flat))
            rows = tuple(member[i * 3:(i + 1) * 3] for i in range(3))
            if not _is_nilpotent_mod_p(rows, 5):
                all_nilpotent = False
                break
        if all_nilpotent:
            checked += 1
            for c in cons_flat:
                assert sum(x * y for x, y in zip(c, flat)) % 5 == 0
    assert checked > 0


def _reference_pool(base, r, field, pruning, budget):
    """Oracle for the pool builder: walks the lines in order, canonicalises
    each one, and charges one evaluation before it builds and tests each
    member B + t*X, t = 1..p-1, on its own: trace, full rank, nilpotency."""
    from nilspace import linear_trace_constraints

    p, n = field.p, base.n_rows
    n_entries = n * n
    if pruning == "trace":
        constraints = [
            tuple(x for row in c.rows for x in row)
            for c in linear_trace_constraints(base, n - 1)
        ]
        kernel = _nullspace_mod_p(constraints, p)
        pruned_by_trace = (p**n_entries - p ** len(kernel)) // (p - 1)
    else:
        kernel = [tuple(int(i == j) for j in range(n_entries)) for i in range(n_entries)]
        pruned_by_trace = 0
    base_flat = tuple(x for row in base.rows for x in row)
    kept, tested, rejected, used = [], 0, 0, 0

    def lines():
        # lead coefficient 1, later ones in lexicographic order
        d = len(kernel)
        for lead in range(d):
            for tail in itertools.product(range(p), repeat=d - 1 - lead):
                coeffs = (0,) * lead + (1,) + tail
                yield tuple(
                    sum(c * v[j] for c, v in zip(coeffs, kernel)) % p
                    for j in range(n_entries)
                )

    for raw in lines():
        x = _canonical_line(raw, p)
        passes = True
        for t in range(1, p):
            if used == budget:
                return CandidatePool(
                    base, tuple(ExactMatrix(field, _rows(flat, n)) for flat in sorted(kept)),
                    False, pruning, tested, rejected, pruned_by_trace, used,
                )
            used += 1
            member = [(b + t * a) % p for b, a in zip(base_flat, x)]
            rows = _rows(member, n)
            if (
                sum(member[:: n + 1]) % p
                or _rank_mod_p(rows, p) != r
                or not _is_nilpotent_mod_p(rows, p)
            ):
                passes = False
                break
        tested += 1
        if passes:
            kept.append(x)
        else:
            rejected += 1
    return CandidatePool(
        base, tuple(ExactMatrix(field, _rows(flat, n)) for flat in sorted(kept)),
        True, pruning, tested, rejected, pruned_by_trace, used,
    )


def _rows(flat, n):
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


@pytest.mark.parametrize("n, r, p, pruning", [
    (2, 1, 2, "none"), (2, 1, 3, "none"), (2, 1, 5, "none"),
    (3, 1, 3, "none"), (3, 2, 3, "none"), (3, 1, 5, "trace"), (3, 2, 5, "trace"),
    (4, 2, 5, "trace"),
])
def test_pool_builder_matches_the_member_by_member_reference(n, r, p, pruning):
    # same pool, counters and budget charges at every budget, including
    # cuts inside a line and the exact cost of a complete pool
    field = PrimeField(p)
    for base in canonical_bases(n, r, field):
        budgets = {1, 2, 3, p - 1, 50, 997}
        # the complete pools here cost at most 19604 evaluations
        full = build_candidate_pool(base, r, field, pruning=pruning, budget=20_000)
        if full.complete:
            budgets |= {full.evaluations, full.evaluations - 1}
        for budget in sorted(b for b in budgets if b >= 1):
            got = build_candidate_pool(base, r, field, pruning=pruning, budget=budget)
            want = _reference_pool(base, r, field, pruning, budget)
            assert got == want, (jordan_partition(base).parts, budget)


def test_bases_share_the_budget():
    # base i of k gets ceil(left / (k - i)) of the evaluations still left
    first, second = canonical_bases(4, 2, F5)
    for budget in (7, 2001):
        rep = max_affine_dimension(4, 2, F5, budget=budget)
        pool1 = build_candidate_pool(first, 2, F5, pruning="trace", budget=(budget + 1) // 2)
        pool2 = build_candidate_pool(
            second, 2, F5, pruning="trace", budget=budget - pool1.evaluations
        )
        assert rep.evaluations == pool1.evaluations + pool2.evaluations == budget
        assert rep.pruned_by_rank == pool1.pruned_by_rank + pool2.pruned_by_rank


def test_untried_base_adds_no_counters_and_no_search():
    # at budget 7 the (3,1) base gets 4 evaluations and tests one line; the
    # (2,2) base gets the 3 left, fewer than its first line needs
    first, second = canonical_bases(4, 2, F5)
    assert build_candidate_pool(second, 2, F5, pruning="trace", budget=3).lines_tested == 0
    pool = build_candidate_pool(first, 2, F5, pruning="trace", budget=4)
    assert pool.lines_tested == 1
    rep = max_affine_dimension(4, 2, F5, budget=7)
    assert [part.parts for part in rep.base_points_tried] == [(3, 1, 0, 0)]
    assert rep.pruned_by_trace == pool.pruned_by_trace
    cands = [tuple(x for row in c.rows for x in row) for c in pool.candidates]
    dfs = _dfs_search(cands, set(cands), (0,) * 16, 5, 0)
    assert rep.nodes_explored == dfs["nodes"] == 1
    assert rep.status == "LOWER_BOUND_ONLY"


@pytest.mark.parametrize("p, pruning, counts", [
    (3, "none", (37, 666, 54)),  # maximal dimension 2: some pairs extend
    (5, "trace", (26, 325, 0)),  # maximal dimension 1: none do
])
def test_pool_lookups_decide_extensions_like_the_verifiers(p, pruning, counts):
    # B + span(c1, c2) is valid exactly when every line of the span is a
    # pool line; the verifiers decide the same spaces member by member
    field = PrimeField(p)
    base = shift_matrix(3, field)
    pool = build_candidate_pool(base, 2, field, pruning=pruning)
    assert pool.complete
    cands = [tuple(x for row in c.rows for x in row) for c in pool.candidates]
    lines = set(cands)
    zero = (0,) * 9
    pairs = valid = 0
    for i, c1 in enumerate(cands):
        w_points = _extend_points([zero], c1, p)
        for j in range(i + 1, len(cands)):
            lookup = _extension_lines(w_points, {c1}, cands[j], lines, p) is not None
            space = AffineMatrixSpace(field, 3, base, (pool.candidates[i], pool.candidates[j]))
            verified = (
                verify_all_nilpotent(space, sample_count=0).status == "PROVED"
                and verify_constant_rank(space, 2, sample_count=0).status == "PROVED"
            )
            assert lookup == verified, (c1, cands[j])
            pairs += 1
            valid += verified
    assert (len(cands), pairs, valid) == counts


def test_max_dimension_small_instances():
    rep = max_affine_dimension(3, 2, F5)
    assert rep.max_dim_found == 1 == bound_rank_full(3)
    assert rep.status == "EXHAUSTIVE"
    assert rep.base_points_tried == (jordan_partition(shift_matrix(3, F5)),)
    # only the pool build evaluates members; the search over it does lookups
    pool = build_candidate_pool(shift_matrix(3, F5), 2, F5, pruning="trace")
    assert rep.evaluations == pool.evaluations == 4138

    rep = max_affine_dimension(3, 1, F5)
    assert rep.max_dim_found == 1 == bound_rank_one(3)
    assert rep.status == "EXHAUSTIVE"

    rep = max_affine_dimension(2, 1, F3)
    assert rep.max_dim_found == 0 == bound_rank_one(2)
    assert rep.status == "EXHAUSTIVE"


def test_remark_field_size_exception_is_found():
    rep = max_affine_dimension(2, 1, F2)
    assert rep.max_dim_found == 1 > bound_rank_one(2)
    assert rep.status == "EXHAUSTIVE"
    assert rep.pruning == "none"  # auto-resolved: trace unsound at |K| < n+1
    assert verify_all_nilpotent(rep.witness).status == "PROVED"
    assert verify_constant_rank(rep.witness, 1).status == "PROVED"


def test_search_witness_reverifies():
    rep = max_affine_dimension(3, 2, F5)
    w = rep.witness
    assert w.d == rep.max_dim_found
    assert verify_all_nilpotent(w).status == "PROVED"
    assert verify_constant_rank(w, 2).status == "PROVED"


def test_pruning_disabled_gives_identical_results():
    fast = max_affine_dimension(3, 2, F5, pruning="trace")
    slow = max_affine_dimension(3, 2, F5, pruning="none")
    assert fast.max_dim_found == slow.max_dim_found
    assert fast.status == slow.status == "EXHAUSTIVE"
    assert fast.witness == slow.witness


def test_budget_monotonicity_and_downgrade():
    dims = []
    for budget in (20, 2000, 1_000_000):
        rep = max_affine_dimension(3, 2, F5, budget=budget, pruning="trace")
        dims.append(rep.max_dim_found)
        assert rep.max_dim_found <= bound_rank_bounded(3, 2)
    assert dims == sorted(dims)
    cut = max_affine_dimension(3, 2, F5, budget=20, pruning="trace")
    assert cut.status == "LOWER_BOUND_ONLY"


def test_greedy_mode_reaches_known_lower_bound():
    rep = max_affine_dimension(3, 2, F5, mode="greedy", seed=11)
    assert rep.status == "LOWER_BOUND_ONLY"
    assert rep.max_dim_found == 1
    again = max_affine_dimension(3, 2, F5, mode="greedy", seed=11)
    assert again.witness == rep.witness  # same seed, same result


def test_search_input_validation():
    with pytest.raises(ValueError):
        max_affine_dimension(3, 3, F5)
    with pytest.raises(ValueError):
        max_affine_dimension(3, 2, F5, mode="sideways")
    from nilspace import RATIONALS

    with pytest.raises(ValueError):
        max_affine_dimension(3, 2, RATIONALS)


def test_conjecture_consistent_small():
    res = run_conjecture_test(3, 2, F5)
    assert res.status == "CONSISTENT"
    assert res.conjectured_dimension == 1
    assert res.lower_bound_dimension == 1
    res = run_conjecture_test(3, 1, F5)
    assert res.status == "CONSISTENT"


def test_conjecture_exceeded_below_field_hypothesis():
    res = run_conjecture_test(2, 1, F2)
    assert res.status == "WITNESS_EXCEEDS"
    assert res.conjectured_dimension == 0
    assert res.search_report.max_dim_found == 1
    assert res.exceeding_space is not None
    assert verify_all_nilpotent(res.exceeding_space).status == "PROVED"
    assert any("sufficiently" in note for note in res.notes)


def test_conjecture_unresolved_under_budget():
    res = run_conjecture_test(4, 2, F5, budget=50_000)
    assert res.status == "UNRESOLVED"
    assert res.lower_bound_dimension == conjecture_bound(4, 2) == 3
    assert res.lower_bound_witness is not None
    rep = res.search_report
    assert rep.status == "LOWER_BOUND_ONLY"
    # the bases share the budget, so the second one gets its half
    assert [part.parts for part in rep.base_points_tried] == [(3, 1, 0, 0), (2, 2, 0, 0)]
    assert rep.evaluations <= 50_000
    # the partial pool still yields a sound lower bound
    assert rep.max_dim_found >= 1
    assert verify_all_nilpotent(rep.witness, sample_count=0).status == "PROVED"
    assert verify_constant_rank(rep.witness, 2, sample_count=0).status == "PROVED"
