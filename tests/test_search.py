import functools
import itertools
import logging
import random
import time

import pytest

from nilspace import (
    AffineMatrixSpace,
    ExactMatrix,
    PrimeField,
    bound_rank_bounded,
    bound_rank_full,
    bound_rank_one,
    build_candidate_pool,
    canonical_bases,
    conjecture_bound,
    inverse,
    is_nilpotent,
    jordan_partition,
    max_affine_dimension,
    rank,
    shift_matrix,
    verify_all_nilpotent,
    verify_constant_rank,
    witness_conjecture,
)
from nilspace.matrices import (
    _is_nilpotent as _is_nilpotent_mod_p,
    _nullspace as _nullspace_mod_p,
    _rank as _rank_mod_p,
)
from nilspace import search
from nilspace.search import (
    _BASE_RECORD,
    _REVERIFY_RECORD,
    _base_types,
    _canonical_dfs,
    _canonical_line,
    _greedy_search,
    _kernel_lines,
    _line_conditions,
    _adjoin,
    _bits,
    _line_graph,
)
from nilspace.search import check_conjecture as run_conjecture_test

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def _trace_ids(cases, at=3):
    """Ids of parametrized pool cases with "trace", the pool every case
    builds, after the first ``at`` values, so each case keeps its id."""
    return ["-".join(map(str, (*case[:at], "trace", *case[at:]))) for case in cases]


def test_canonical_bases_examples():
    assert canonical_bases(3, 2, F5) == [shift_matrix(3, F5)]
    bases = canonical_bases(4, 2, F5)
    assert len(bases) == 2
    parts = {jordan_partition(b).parts for b in bases}
    assert parts == {(3, 1, 0, 0), (2, 2, 0, 0)}
    zero = canonical_bases(3, 0, F5)
    assert len(zero) == 1 and zero[0].is_zero()
    # the search pairs each base with its type from this list
    for n in range(1, 8):
        for r in range(n):
            assert [jordan_partition(b) for b in canonical_bases(n, r, F3)] == _base_types(n, r)
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
        pool = build_candidate_pool(base, 1, field)
        got = {tuple(x for row in c.rows for x in row) for c in pool.candidates}
        oracle = _brute_force_pool(base, 1, p, 2)
        assert got == oracle
        assert bool(got) == expected_nonempty
        # single-entry directions never survive: the superdiagonal line dies
        # where 1 + t = 0 and the lower-left unit is never nilpotent with base
        assert (0, 1, 0, 0) not in got
        assert (0, 0, 1, 0) not in got


def test_pool_over_f2_contains_the_counterexample_direction():
    pool = build_candidate_pool(shift_matrix(2, F2), 1, F2)
    flats = {tuple(x for row in c.rows for x in row) for c in pool.candidates}
    assert (0, 1, 1, 0) in flats  # the non-nilpotent direction of the exception


def test_pool_excludes_nonzero_lower_corner():
    pool = build_candidate_pool(shift_matrix(3, F5), 2, F5)
    assert pool.complete
    for c in pool.candidates:
        assert c[2, 0] == 0


def test_trace_pruning_keeps_the_full_pool():
    # the trace pool of the shift base holds every line of the full unpruned
    # pool, enumerated in numpy, while testing fewer lines than F_5^9 has
    base = shift_matrix(3, F5)
    pool = build_candidate_pool(base, 2, F5, pruning="trace")
    assert pool.complete
    assert sorted(_pool_lines(pool)) == _numpy_pool(base, 2, 5)
    assert pool.lines_tested < (5**9 - 1) // 4
    assert pool.pruned_by_trace > 0


def test_pool_budget_cut_is_flagged():
    pool = build_candidate_pool(shift_matrix(3, F5), 2, F5, budget=50)
    assert not pool.complete
    assert pool.evaluations <= 50


def test_candidates_lie_in_the_trace_constraint_kernel():
    # every direction whose line through the shift base stays nilpotent (no
    # rank requirement even) satisfies the linear trace constraints; the
    # lines are enumerated in numpy, independently of the library's scans
    import numpy as np

    from nilspace import linear_trace_constraints

    p, n = 5, 3
    base = shift_matrix(n, F5)
    cons = np.array([[x for row in c.rows for x in row]
                     for c in linear_trace_constraints(base, n - 1)], dtype=np.int64)
    # canonical lines X of F_5^9: lead entry 1 at position i, free entries after it
    lines = []
    for i in range(n * n):
        free = n * n - 1 - i
        idx = np.arange(p**free, dtype=np.int64)
        block = np.zeros((p**free, n * n), dtype=np.int64)
        block[:, i] = 1
        block[:, i + 1:] = idx[:, None] // p ** np.arange(free - 1, -1, -1) % p
        lines.append(block)
    lines = np.concatenate(lines)
    assert len(lines) == (p ** (n * n) - 1) // (p - 1)
    base_flat = np.array([x for row in base.rows for x in row], dtype=np.int64)
    nilpotent = np.ones(len(lines), dtype=bool)
    for t in range(1, p):
        members = ((base_flat + t * lines) % p).reshape(-1, n, n)
        cube = members @ members % p @ members % p
        nilpotent &= ~cube.reshape(len(lines), -1).any(axis=1)
    kept = lines[nilpotent]
    assert len(kept) == 56
    assert not (kept @ cons.T % p).any()
    for flat in kept.tolist():
        for t in range(1, p):
            member = [(b + t * a) % p for b, a in zip(base_flat.tolist(), flat)]
            assert _is_nilpotent_mod_p([member[k * n:(k + 1) * n] for k in range(n)], p)


def _reference_domain_rows(base, r, p):
    """Oracle for the trace-pruned pool domain: the trace rows tr(B^m X),
    m <= min(n - 1, p - 2), then for k = 1..n-1 the rows u^T D_k(X) v = 0,
    u in coker B^k, v in ker B^k, got by applying D_k(X) = sum_{i<k} B^i X
    B^(k-1-i) to each unit matrix X.  Rows with k >= 2 need the types of
    rank r to form a chain; each k needs p > k (rank(B^k) + 1)."""
    from nilspace import dominance_leq, linear_trace_constraints, mat_pow, unit_matrix

    field, n = base.field, base.n_rows
    rows = [
        tuple(x for row in c.rows for x in row)
        for c in linear_trace_constraints(base, min(n - 1, p - 2))
    ]
    types = [jordan_partition(b) for b in canonical_bases(n, r, field)]
    chain = all(
        dominance_leq(a, b) or dominance_leq(b, a) for a, b in itertools.combinations(types, 2)
    )
    powers = [mat_pow(base, i) for i in range(n)]
    for k in range(1, n if chain else 2):
        power = powers[k]
        if p <= k * (rank(power) + 1):
            continue
        images = []
        for a, b in itertools.product(range(n), repeat=2):
            x = unit_matrix(a, b, n, field)
            image = x @ powers[k - 1]
            for i in range(1, k):
                image = image + powers[i] @ x @ powers[k - 1 - i]
            images.append(image)
        for u in _nullspace_mod_p(power.transpose().rows, p):
            for v in _nullspace_mod_p(power.rows, p):
                terms = [(i, j, x * y) for i, x in enumerate(u) if x for j, y in enumerate(v) if y]
                rows.append(tuple(
                    sum(image[i, j] * c for i, j, c in terms) % p for image in images
                ))
    return rows


def _matmul_rows(a, b, p):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0])))
        for i in range(len(a))
    )


def _reference_screen(base, r, p):
    """Oracle for the quadric screen: X -> whether some screen form is
    nonzero, from the matrices: u^T X B^T X v for u, v kernel vectors of
    B^T and B, when p > r + 1 and B B^T B = B; tr(BX^2) when r >= 3 and
    p >= 5."""
    b = base.rows
    bt = tuple(zip(*b))
    pairs = []
    if p > r + 1 and _matmul_rows(_matmul_rows(b, bt, p), b, p) == b:
        pairs = [(u, v) for u in _nullspace_mod_p(bt, p) for v in _nullspace_mod_p(b, p)]
    power = r >= 3 and p >= 5

    def screened(x):
        if pairs:
            xbx = _matmul_rows(_matmul_rows(x, bt, p), x, p)
            if any(
                sum(u[i] * xbx[i][j] * v[j] for i in range(len(u)) for j in range(len(v))) % p
                for u, v in pairs
            ):
                return True
        if power:
            bxx = _matmul_rows(b, _matmul_rows(x, x, p), p)
            return sum(bxx[i][i] for i in range(len(b))) % p != 0
        return False

    return screened


def _reference_pool(base, r, field, budget, lead_starts=None):
    """Oracle for the pool builder: walks the lines of the reference domain
    in order and canonicalises each one.  A line that fails the quadric
    screen is charged one evaluation; every other line is charged one
    evaluation before each member B + t*X, t = 1..p-1, is built and tested
    on its own: trace, full rank, nilpotency.  ``lead_starts``, if given,
    gets the evaluations spent before the first line of each lead
    coefficient.  It does not tell the rejections apart, so it gives the
    pool's ``_public_counts``."""
    p, n = field.p, base.n_rows
    screened = _reference_screen(base, r, p)
    n_entries = n * n
    kernel = _nullspace_mod_p(_reference_domain_rows(base, r, p), p)
    pruned_by_trace = (p**n_entries - p ** len(kernel)) // (p - 1)
    base_flat = tuple(x for row in base.rows for x in row)
    kept, tested, rejected, used = [], 0, 0, 0

    def lines():
        # lead coefficient 1, later ones in lexicographic order
        d = len(kernel)
        for lead in range(d):
            for tail in itertools.product(range(p), repeat=d - 1 - lead):
                coeffs = (0,) * lead + (1,) + tail
                if lead_starts is not None and not any(tail):
                    lead_starts.append(used)
                yield tuple(
                    sum(c * v[j] for c, v in zip(coeffs, kernel)) % p
                    for j in range(n_entries)
                )

    def pool(complete):
        return (
            tuple(ExactMatrix(field, _rows(flat, n)) for flat in sorted(kept)),
            complete, tested, rejected, pruned_by_trace, used,
        )

    for raw in lines():
        x = _canonical_line(raw, p)
        passes = True
        if screened(_rows(x, n)):
            if used == budget:
                return pool(False)
            used += 1
            tested += 1
            rejected += 1
            continue
        for t in range(1, p):
            if used == budget:
                return pool(False)
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
    return pool(True)


def _public_counts(pool):
    return (
        pool.candidates, pool.complete, pool.lines_tested, pool.pruned_by_rank,
        pool.pruned_by_trace, pool.evaluations,
    )


def _rows(flat, n):
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def _trace_kernel(base, r, p):
    """The kernel a trace-pruned pool of ``base`` enumerates."""
    return _line_conditions(base, r, p).kernel


def _reference_extension_lines(zs, lines, cand, pool, p):
    """The canonical lines that adjoining ``cand`` adds to a direction space
    W, given all points ``zs`` of W and the set ``lines`` of its lines.

    Every new point is a nonzero multiple of z + cand for one z in W, so
    these are the lines of z + cand.  Returns None when ``cand`` lies in W or
    one of the new lines is not in ``pool``: then some new member of the
    affine space fails.
    """
    if cand in lines:
        return None
    new_lines = []
    for z in zs:
        line = _canonical_line(tuple((a + b) % p for a, b in zip(z, cand)), p)
        if line not in pool:
            return None
        new_lines.append(line)
    return new_lines


def _reference_extend_points(zs, cand, p):
    """All points of W + span(cand), given all points ``zs`` of W."""
    return zs + [
        tuple((a + t * b) % p for a, b in zip(z, cand)) for z in zs for t in range(1, p)
    ]


def _reference_dfs(cands, pool, zero, p, initial_best: int):
    """Oracle for the search: the ordered-extension DFS over point lists,
    which reaches each subspace once per increasing basis of pool lines."""
    state = {"best_dim": initial_best, "best_dirs": (), "nodes": 0}
    chosen: list[tuple[int, ...]] = []

    def rec(start_idx: int, zs: list[tuple[int, ...]], lines: set):
        state["nodes"] += 1
        depth = len(chosen)
        if depth > state["best_dim"]:
            state["best_dim"] = depth
            state["best_dirs"] = tuple(chosen)
        for idx in range(start_idx, len(cands)):
            if depth + (len(cands) - idx) <= state["best_dim"]:
                break  # not enough candidates left to improve
            cand = cands[idx]
            new_lines = _reference_extension_lines(zs, lines, cand, pool, p)
            if new_lines is None:
                continue
            chosen.append(cand)
            rec(idx + 1, _reference_extend_points(zs, cand, p), lines.union(new_lines))
            chosen.pop()

    rec(0, [zero], set())
    return state


_MEMBER_CASES = [
    (2, 1, 5), (3, 1, 5), (3, 2, 5), (3, 1, 7), (4, 1, 5), (4, 2, 5),
    # p = r: traces of powers do not decide nilpotency, e.g. diag(1, 1, 0)
    (3, 2, 2),
    # p < n + 1: the trace rows m <= p - 2 only; at p = 2 just tr(X) = 0
    (2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (3, 2, 3), (4, 1, 3),
]


@pytest.mark.parametrize("n, r, p", _MEMBER_CASES, ids=_trace_ids(_MEMBER_CASES))
def test_pool_builder_matches_the_member_by_member_reference(n, r, p):
    # same pool, counters and budget charges at every budget, including
    # cuts inside a line, inside and at both edges of the first runs of
    # the last coefficient, around the first line of each lead
    # coefficient, and the exact cost of a complete pool
    field = PrimeField(p)
    for base in canonical_bases(n, r, field):
        budgets = {50, 997, *range(1, 3 * p + 2)}
        # the complete pools here cost at most 19604 evaluations
        full = build_candidate_pool(base, r, field, budget=20_000)
        if full.complete:
            budgets |= {full.evaluations, full.evaluations - 1}
        lead_starts = []
        _reference_pool(base, r, field, 20_000, lead_starts)
        budgets |= {b + k for b in lead_starts[1:] for k in (0, 1)}
        for budget in sorted(b for b in budgets if b >= 1):
            got = build_candidate_pool(base, r, field, budget=budget)
            want = _reference_pool(base, r, field, budget)
            assert _public_counts(got) == want, (jordan_partition(base).parts, budget)


def _iter_canonical_kernel(kernel, p):
    """Oracle for the order of the pool lines: one member per line of the
    span of ``kernel``, lead coefficient 1, later coefficients free, the
    last one fastest.  An odometer over the outer free coefficients keeps a
    stack of partial sums, the last coefficient runs in a loop of its own,
    and each step adds one basis vector through its nonzero entries only."""
    for lead in range(len(kernel)):
        rest = [[(j, y) for j, y in enumerate(v) if y] for v in kernel[lead + 1:]]
        if not rest:
            yield kernel[lead]
            continue
        *outer, last = rest
        m = len(outer)
        counters = [0] * m
        stack = [kernel[lead]] * (m + 1)
        while True:
            vec = stack[m]
            yield vec
            for _ in range(p - 1):
                vec = list(vec)
                for j, y in last:
                    vec[j] = (vec[j] + y) % p
                vec = tuple(vec)
                yield vec
            lvl = m - 1
            while lvl >= 0:
                counters[lvl] += 1
                if counters[lvl] < p:
                    bumped = list(stack[lvl + 1])
                    for j, y in outer[lvl]:
                        bumped[j] = (bumped[j] + y) % p
                    bumped = tuple(bumped)
                    for j in range(lvl + 1, m + 1):
                        stack[j] = bumped
                    for j in range(lvl + 1, m):
                        counters[j] = 0
                    break
                counters[lvl] = 0
                lvl -= 1
            if lvl < 0:
                break


def _form_at(gram, c, p):
    """The quadratic form with Gram matrix ``gram`` at the coordinates ``c``."""
    return sum(g * x * y for row, x in zip(gram, c) for g, y in zip(row, c)) % p


def _traces(b, m, p):
    """tr(M), tr(BM) and tr(M^2) from the rows of B and M."""
    n = len(m)
    return (
        sum(m[i][i] for i in range(n)) % p,
        sum(b[i][k] * m[k][i] for i in range(n) for k in range(n)) % p,
        sum(m[i][k] * m[k][i] for i in range(n) for k in range(n)) % p,
    )


def _enumeration_cases():
    # the unit basis of F_p^(n*n) (n = 3 only for p <= 3: it has (p^9 -
    # 1)/(p - 1) lines) and the pool kernels of n <= 3, then seeded random
    # spanning sets with a random (not necessarily nilpotent) B
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for n in (2, 3):
            for r in range(1, n):
                for base in canonical_bases(n, r, field):
                    base_flat = tuple(x for row in base.rows for x in row)
                    if n == 2 or p <= 3:
                        yield p, n, base_flat, [
                            tuple(int(i == j) for j in range(n * n)) for i in range(n * n)
                        ]
                    yield p, n, base_flat, _trace_kernel(base, r, p)
    rng = random.Random(8)
    for p in (2, 3, 5, 7, 11):
        for _ in range(6):
            n = rng.choice((2, 3))
            d = rng.randint(1, 4 if p < 7 else 3)
            kernel = [tuple(rng.randrange(p) for _ in range(n * n)) for _ in range(d)]
            yield p, n, tuple(rng.randrange(p) for _ in range(n * n)), kernel


def test_kernel_lines_match_the_odometer_reference_and_carry_the_traces():
    # the yielded vectors are the odometer reference's lines on which every
    # form vanishes, in its order, since the order decides where a budget
    # cuts.  The forms are Gram matrices on the kernel coordinates: tr(X^2)
    # first, as in the pool builder, then tr(X) tr(BX), tr(X)^2, tr(BX)^2
    # and a seeded random form, carried, and two seeded random forms, exact.
    # Each line that fails one is charged 1 evaluation before
    # the next yield, on the screen when it passes tr(X^2); a budget that
    # cannot pay for the next failing line cuts there.  The caller charges
    # each yielded line 1 or p - 1 evaluations, as many as are left, and
    # stops when it could not pay in full, as the pool builder cuts a line
    # whose p - 1 members the budget cannot pay for; the charge is at least
    # 1, since a line's root masks reach only budget + 1 lines into a run.
    # Budgets: none, the whole cost, one more, and cuts at the first and
    # last failing line of each kind of run (one with a passing line, one
    # without, the last lead's one line) and at a seeded random failing line
    rng = random.Random(11)
    cut_kinds = set()
    for p, n, base_flat, kernel in _enumeration_cases():
        d = len(kernel)

        def product(left, right):
            # the Gram matrix of the product of two linear forms, given by
            # their values on the kernel basis
            return [[x * y % p for y in right] for x in left]

        def random_form():
            # a product of two linear forms (which vanishes on about 2/p of
            # the lines, so that some lines pass every form), plus at times
            # a random quadratic form
            left, right = ([rng.randrange(p) for _ in range(d)] for _ in range(2))
            noise = rng.choice((False, True))
            return [
                [(g + (rng.randrange(p) if noise else 0)) % p for g in row]
                for row in product(left, right)
            ]

        # tr(X^2) = <X, X^T>, and the products of tr(X) and tr(BX) = sum
        # B[i, j] X[j, i], on the kernel basis
        square = [
            [sum(u[i * n + k] * v[k * n + i] for i in range(n) for k in range(n)) % p
             for v in kernel]
            for u in kernel
        ]
        tr_x = [sum(u[i * (n + 1)] for i in range(n)) for u in kernel]
        tr_bx = [
            sum(base_flat[i * n + j] * u[j * n + i] for i in range(n) for j in range(n))
            for u in kernel
        ]
        forms = [
            square, product(tr_x, tr_bx), product(tr_x, tr_x), product(tr_bx, tr_bx),
            random_form(),
        ]
        exact = [random_form(), random_form()]
        # the reference in the odometer's order: per line its vector, whether
        # it passes every form and tr(X^2), and the kind of its run
        lines = []
        want_lines = iter(_iter_canonical_kernel(kernel, p))
        for lead in range(d):
            for middle in itertools.product(range(p), repeat=max(d - 2 - lead, 0)):
                run = []
                for a in range(p if lead < d - 1 else 1):
                    c = (0,) * lead + (1,) + (middle + (a,) if lead < d - 1 else ())
                    x = tuple(sum(ci * u[k] for ci, u in zip(c, kernel)) % p for k in range(n * n))
                    assert x == next(want_lines)
                    values = [_form_at(g, c, p) for g in forms + exact]
                    t, tb, q = _traces(_rows(base_flat, n), _rows(x, n), p)
                    assert values[:4] == [q, t * tb % p, t * t % p, tb * tb % p]
                    run.append((x, not any(values), not values[0]))
                kind = (
                    "last lead" if lead == d - 1
                    else "passing run" if any(ok for _, ok, _ in run) else "failing run"
                )
                lines += [(x, ok, square, kind) for x, ok, square in run]
        assert next(want_lines, None) is None
        assert len(lines) == (p**d - 1) // (p - 1)
        failing = [i for i, (_, ok, _, _) in enumerate(lines) if not ok]
        at_cut = {rng.choice(failing)} if failing else set()
        for kind in ("passing run", "failing run", "last lead"):
            of_kind = [i for i in failing if lines[i][3] == kind]
            at_cut |= {of_kind[0], of_kind[-1]} if of_kind else set()

        for charge in (1, p - 1):
            # what the lines before line i cost: their failing lines and the
            # caller's charge on each passing one
            cost = list(itertools.accumulate(
                (charge if ok else 1 for _, ok, _, _ in lines), initial=0,
            ))
            for budget in sorted({0, cost[-1], cost[-1] + 1, *(cost[i] for i in at_cut)}):
                charges = search._Charges(budget)
                want = search._Charges(budget)
                got = _kernel_lines(kernel, forms, exact, p, charges)
                for x, ok, square, kind in lines:
                    if ok:
                        assert next(got) == x
                        assert charges == want
                        paid = min(charge, budget - want.used)
                        charges.used += paid
                        want.used += paid
                        if paid < charge:
                            break  # the caller stops
                    elif want.used == budget:
                        want.cut = True
                        cut_kinds.add(kind)
                        assert next(got, None) is None
                        assert charges == want
                        break
                    else:
                        want.used += 1
                        if square:
                            want.at_screen += 1
                        else:
                            want.at_invariants += 1
                else:
                    assert next(got, None) is None
                    assert charges == want
    assert cut_kinds == {"passing run", "failing run", "last lead"}


_INVARIANT_CASES = [(2, 1, 5), (3, 1, 5), (3, 2, 7), (3, 2, 3)]


@pytest.mark.parametrize("n, r, p", _INVARIANT_CASES, ids=_trace_ids(_INVARIANT_CASES))
def test_complete_pools_reject_on_the_invariants_exactly_the_failing_lines(n, r, p):
    # the lines with tr(X) != 0, or tr(BX) = 0 != tr(X^2), and no others
    field = PrimeField(p)
    for base in canonical_bases(n, r, field):
        kernel = _trace_kernel(base, r, p)
        want = 0
        for x in _iter_canonical_kernel(kernel, p):
            tr_x, tr_bx, q = _traces(base.rows, _rows(x, n), p)
            want += bool(tr_x or (q and not tr_bx))
        pool = build_candidate_pool(base, r, field, budget=10**6)
        # each basis vector is 1 at its own free column and 0 at the others,
        # so a kernel vector's entries there are its kernel coordinates
        assert [tuple(u[f] for f in pool.free) for u in kernel] == [
            tuple(int(i == j) for j in range(len(kernel))) for i in range(len(kernel))
        ]
        assert pool.complete
        assert pool.at_invariants == want


def _numpy_pool(base, r, p):
    """Oracle for a complete unpruned pool, n <= 3: every canonical line of
    F_p^(n*n) whose members B + tX, t = 1..p-1, are nilpotent (M^n = 0) of
    rank r, in numpy chunks.  A nilpotent matrix of size n <= 3 has rank
    [M != 0] + [some 2 x 2 minor != 0], as its determinant vanishes."""
    import numpy as np

    n = base.n_rows
    size = n * n
    base_flat = np.array([x for row in base.rows for x in row], dtype=np.int64)
    pairs = list(itertools.combinations(range(n), 2))
    kept = []
    for lead in range(size):
        free = size - 1 - lead
        weights = p ** np.arange(free - 1, -1, -1, dtype=np.int64)
        for start in range(0, p**free, 1 << 17):
            idx = np.arange(start, min(p**free, start + (1 << 17)), dtype=np.int64)
            lines = np.zeros((len(idx), size), dtype=np.int64)
            lines[:, lead] = 1
            lines[:, lead + 1:] = idx[:, None] // weights % p
            # a nilpotent member has trace 0, and tr(B + tX) = t tr(X)
            lines = lines[lines[:, ::n + 1].sum(axis=1) % p == 0]
            for t in range(1, p):
                m = ((base_flat + t * lines) % p).reshape(-1, n, n)
                power = m
                for _ in range(n - 1):
                    power = power @ m % p
                nilpotent = ~power.reshape(len(m), size).any(axis=1)
                lines, m = lines[nilpotent], m[nilpotent]
                minor = np.zeros(len(m), dtype=bool)
                for (i, j), (a, b) in itertools.product(pairs, pairs):
                    minor |= (m[:, i, a] * m[:, j, b] - m[:, i, b] * m[:, j, a]) % p != 0
                lines = lines[m.reshape(len(m), size).any(axis=1).astype(np.int64) + minor == r]
            kept.extend(map(tuple, lines.tolist()))
    return sorted(kept)


@pytest.mark.parametrize("n, r, p", [
    (n, r, p) for p in (2, 3, 5, 7) for n, r in ((2, 1), (3, 1), (3, 2))
])
def test_trace_pools_equal_the_complete_unpruned_pools(n, r, p):
    # the trace, rank-tangent and dominance rows drop no line, each on its
    # own field-size gate: each n <= 3 instance has one base, whose pool is
    # every valid line of F_p^(n*n)
    field = PrimeField(p)
    (base,) = canonical_bases(n, r, field)
    pool = build_candidate_pool(base, r, field)
    assert pool.complete
    assert _pool_lines(pool) == _numpy_pool(base, r, p)
    # every line outside the constraint kernel counts as pruned by trace,
    # and the tr(X) row alone leaves some out
    assert pool.pruned_by_trace + pool.lines_tested == (p ** (n * n) - 1) // (p - 1)
    assert pool.pruned_by_trace > 0


def test_dominance_restricted_pool_keeps_the_square_zero_lines():
    # at n=4 r=2 p=5 the (2,2) base B = U0 V0^T is the lower type, so its pool
    # drops every line with a member of type (3,1).  The lines X = U0 W^T
    # with W^T U0 = 0 and X = W V0^T with V0^T W = 0 keep B + tX square-zero,
    # of type (2,2) wherever it has rank 2: all of them must stay.  Here
    # V0^T U0 = 0 and both families are the lines U0 C V0^T
    field, p = F5, 5
    base = canonical_bases(4, 2, field)[1]
    assert jordan_partition(base).parts == (2, 2, 0, 0)
    u0 = ExactMatrix(field, ((1, 0), (0, 0), (0, 1), (0, 0)))
    v0 = ExactMatrix(field, ((0, 0), (1, 0), (0, 0), (0, 1)))
    assert u0 @ v0.transpose() == base
    families = []
    for orthogonal, product in (
        (u0, lambda w: u0 @ w.transpose()),
        (v0, lambda w: w @ v0.transpose()),
    ):
        # the columns of W lie in the kernel of orthogonal^T
        k1, k2 = _nullspace_mod_p(orthogonal.transpose().rows, p)
        lines = set()
        for c in itertools.product(range(p), repeat=4):
            if not any(c):
                continue
            w = ExactMatrix(field, tuple(
                tuple((c[2 * a] * k1[i] + c[2 * a + 1] * k2[i]) % p for a in range(2))
                for i in range(4)
            ))
            line = _canonical_line(tuple(x for row in product(w).rows for x in row), p)
            members = [base + ExactMatrix(field, _rows(line, 4)).scale(t) for t in range(1, p)]
            assert all((m @ m).is_zero() for m in members)
            if all(rank(m) == 2 for m in members):
                lines.add(line)
        families.append(lines)
    assert families[0] == families[1] and len(families[0]) == 56
    pool = build_candidate_pool(base, 2, field, budget=200_000)
    assert pool.complete
    assert (pool.lines_tested, len(pool.candidates)) == (97_656, 806)
    assert families[0] <= set(_pool_lines(pool))


def test_dominance_rows_need_a_chain_of_types():
    # the types with three parts form a chain for n = 8, not for n = 9:
    # (5,2,2) and (4,4,1) are incomparable.  There only the trace rows and
    # the (n - r)^2 rank-tangent rows u^T X v = 0 are emitted
    p = 101  # p > k (rank(B^k) + 1) for every k here
    field = PrimeField(p)
    for n, chain in ((8, True), (9, False)):
        r = n - 3
        for base in canonical_bases(n, r, field):
            from nilspace import linear_trace_constraints

            trace = [tuple(x for row in c.rows for x in row)
                     for c in linear_trace_constraints(base, n - 1)]
            rows = _line_conditions(base, r, p).rows
            assert rows[:len(trace)] == trace
            tangent = [
                tuple(u[a] * v[b] % p for a in range(n) for b in range(n))
                for u in _nullspace_mod_p(base.transpose().rows, p)
                for v in _nullspace_mod_p(base.rows, p)
            ]
            assert rows[len(trace):len(trace) + 9] == tangent
            assert (len(rows) > len(trace) + 9) == chain
    # at p = 11 the field-size gate drops some k >= 2 at n = 8, e.g. k = 3 on
    # the (6,1,1) base, 3 (rank(B^3) + 1) = 12.  The rows it drops are
    # implied by the others on every base tried (n <= 8), so the rows, not
    # their kernel, show the gate
    for base in canonical_bases(8, 5, PrimeField(11)):
        assert _line_conditions(base, 5, 11).rows == _reference_domain_rows(base, 5, 11)


def test_rank_one_maximum_one_size_past_n3():
    # the paper's rank-one value n - 2, decided exhaustively at n = 4
    for p in (5, 7):
        rep = max_affine_dimension(4, 1, PrimeField(p))
        assert rep.status == "EXHAUSTIVE"
        assert rep.max_dim_found == bound_rank_one(4) == 2


def test_rank_one_maximum_at_n5():
    # the paper's rank-one value n - 2, decided exhaustively at n = 5: 960 800
    # kernel lines, 798 kept; every line the screen rejects fails member 1
    rep = max_affine_dimension(5, 1, PrimeField(7))
    assert rep.status == "EXHAUSTIVE"
    assert rep.max_dim_found == bound_rank_one(5) == 3
    assert (rep.evaluations, rep.nodes_explored) == (964_795, 402)


def test_rank_one_maximum_at_n6():
    # the paper's rank-one value n - 2 at n = 6: 1560 pool lines on a kernel
    # of dimension 10, a graph of 604 500 edges; spans are not stored
    rep = max_affine_dimension(6, 1, PrimeField(5))
    assert rep.status == "EXHAUSTIVE"
    assert rep.max_dim_found == bound_rank_one(6) == 4
    assert (rep.evaluations, rep.nodes_explored) == (2_446_089, 784)


def test_rank_one_maximum_below_the_field_hypothesis():
    # the paper's rank-one value n - 2 also holds at F_3, p < n + 1, where
    # the trace rows stop at m = p - 2 = 1
    for n, evaluations, nodes in ((4, 389, 14), (5, 3359, 42)):
        rep = max_affine_dimension(n, 1, F3)
        assert rep.status == "EXHAUSTIVE" and rep.pruning == "trace"
        assert rep.max_dim_found == bound_rank_one(n) == n - 2
        assert (rep.evaluations, rep.nodes_explored) == (evaluations, nodes)


def _unscreened(monkeypatch):
    """Pools built from here on carry the trace invariants only."""
    line_conditions = search._line_conditions
    monkeypatch.setattr(
        search, "_line_conditions",
        lambda *args: line_conditions(*args)._replace(screen=[], exact=[]),
    )


@pytest.mark.parametrize("n, r, p", [
    (2, 1, 3), (2, 1, 5), (2, 1, 7), (3, 1, 5), (3, 2, 5), (3, 1, 7), (3, 2, 7),
    (4, 1, 5), (4, 1, 7), (5, 1, 7), (4, 2, 5),
])
def test_screened_pools_equal_the_pools_without_the_screen(n, r, p, monkeypatch):
    # the screen drops no pool line: the same lines are tested, kept and
    # rejected, and a screened line costs no more than its failing member
    field = PrimeField(p)
    bases = canonical_bases(n, r, field)
    screened = [build_candidate_pool(base, r, field, budget=10**8) for base in bases]
    _unscreened(monkeypatch)
    for base, pool in zip(bases, screened):
        plain = build_candidate_pool(base, r, field, budget=10**8)
        assert pool.complete and plain.complete and plain.at_screen == 0
        assert pool.lines == plain.lines
        assert pool.at_screen + pool.at_member_test == plain.at_member_test
        assert pool.at_invariants == plain.at_invariants
        assert pool.evaluations <= plain.evaluations
        assert pool.at_screen > 0 or n == 2


def test_screened_j4_pool_prefixes_equal_the_pools_without_the_screen(monkeypatch):
    # n=4 r=3 p=5 has 61 035 156 kernel lines, so every budget here cuts the
    # pool: the screened build keeps exactly the lines that the unscreened
    # build keeps among the lines the screened one tested
    (base,) = canonical_bases(4, 3, F5)
    kernel = _trace_kernel(base, 3, 5)
    screened = [
        build_candidate_pool(base, 3, F5, budget=budget)
        for budget in (2000, 20_000, 200_000)
    ]
    _unscreened(monkeypatch)
    kept = 0
    for pool in screened:
        assert not pool.complete
        budget = pool.evaluations
        while True:
            budget *= 2
            plain = build_candidate_pool(base, 3, F5, budget=budget)
            if plain.lines_tested >= pool.lines_tested:
                break
        first = {
            _canonical_line(x, 5)
            for x in itertools.islice(_iter_canonical_kernel(kernel, 5), pool.lines_tested)
        }
        assert _pool_lines(pool) == sorted(first & set(_pool_lines(plain)))
        kept += len(pool.candidates)
    assert kept


def _trace_rows(m, p):
    return sum(m[i][i] for i in range(len(m))) % p


_GRAM_CASES = [(4, 3, 5), (5, 3, 7), (5, 4, 7), (4, 2, 5), (5, 2, 7)]


@pytest.mark.parametrize("n, r, p", _GRAM_CASES)
def test_gram_forms_are_the_forms_on_the_matrices(n, r, p):
    # at seeded kernel coordinates c, c^T G c for each Gram matrix G of
    # _line_conditions is its form on X = sum c_j K_j, computed on the
    # matrices: tr(X^2); the screen, the one Q_uv = u^T X B^T X v or the two
    # combinations sum (i + 1)^j Q_i, then tr(BX^2) when r >= 3; and each
    # Q_uv, in exact, when they combine.  The first three cases carry
    # tr(BX^2), the last two (and (5,3,7)) combine several Q_uv
    rng = random.Random(n * 100 + r * 10 + p)
    for base in canonical_bases(n, r, PrimeField(p)):
        conditions = _line_conditions(base, r, p)
        kernel = conditions.kernel
        grams = [conditions.square, *conditions.screen, *conditions.exact]
        b = base.rows
        bt = tuple(zip(*b))
        pairs = [(u, v) for u in _nullspace_mod_p(bt, p) for v in _nullspace_mod_p(b, p)]
        assert len(conditions.screen) == min(len(pairs), 2) + (r >= 3)
        assert len(conditions.exact) == (len(pairs) if len(pairs) > 1 else 0)
        nonzero = [False] * len(grams)
        for _ in range(40):
            c = [rng.randrange(p) for _ in kernel]
            x = _rows(tuple(
                sum(cj * u[k] for cj, u in zip(c, kernel)) % p for k in range(n * n)
            ), n)
            xx = _matmul_rows(x, x, p)
            xbx = _matmul_rows(_matmul_rows(x, bt, p), x, p)
            q = [
                sum(u[i] * xbx[i][j] * v[j] for i in range(n) for j in range(n)) % p
                for u, v in pairs
            ]
            screen = list(q) if len(q) == 1 else [
                sum((i + 1) ** j * qi for i, qi in enumerate(q)) % p for j in (0, 1)
            ]
            if r >= 3:
                screen.append(_trace_rows(_matmul_rows(b, xx, p), p))
            want = [_trace_rows(xx, p), *screen, *(q if len(q) > 1 else [])]
            got = [_form_at(g, c, p) for g in grams]
            assert got == want
            nonzero = [was or bool(value) for was, value in zip(nonzero, got)]
        assert all(nonzero)


def _s2_coefficient(b, x, p):
    """The s^2 coefficient of det(B + sX), square B and X given by rows, by
    the Leibniz expansion."""
    k = len(b)
    total = 0
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
        for i, j in itertools.combinations(range(k), 2):
            term = sign * x[i][perm[i]] * x[j][perm[j]]
            for l in range(k):
                if l != i and l != j:
                    term *= b[l][perm[l]]
            total += term
    return total % p


def test_q_forms_vanish_exactly_when_the_minors_lose_their_s2_term():
    # on points X of the pool kernel, every Q_uv(X) = u^T X B^T X v is 0
    # exactly when every (r + 1)-minor of B + sX has no s^2 term; the Q_uv
    # the pool builder uses are these, from the matrices
    p = 7
    field = PrimeField(p)
    rng = random.Random(5)
    samples = vanishing = 0
    for n, r in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)):
        for base in canonical_bases(n, r, field):
            forms = _line_conditions(base, r, p)
            q_forms = forms.exact or forms.screen[:1]  # one Q_uv when r = n - 1
            b = base.rows
            bt = tuple(zip(*b))
            pairs = [(u, v) for u in _nullspace_mod_p(bt, p) for v in _nullspace_mod_p(b, p)]
            assert len(q_forms) == len(pairs) == (n - r) ** 2
            kernel = forms.kernel
            subsets = list(itertools.combinations(range(n), r + 1))
            for _ in range(300):
                # sparse coordinates, so that some points have every Q_uv = 0
                coeffs = [rng.randrange(1, p) if rng.random() < 0.25 else 0 for _ in kernel]
                x = tuple(sum(c * u[k] for c, u in zip(coeffs, kernel)) % p for k in range(n * n))
                rows = _rows(x, n)
                xbx = _matmul_rows(_matmul_rows(rows, bt, p), rows, p)
                q = [_form_at(g, coeffs, p) for g in q_forms]
                assert q == [
                    sum(u[i] * xbx[i][j] * v[j] for i in range(n) for j in range(n)) % p
                    for u, v in pairs
                ]
                no_s2 = all(
                    not _s2_coefficient(
                        [[b[i][j] for j in cols] for i in sub],
                        [[rows[i][j] for j in cols] for i in sub], p,
                    )
                    for sub in subsets for cols in subsets
                )
                assert (not any(q)) == no_s2, (n, r, x)
                samples += 1
                vanishing += no_s2
    assert samples == 2700 and 300 < vanishing < 2400


def test_q_screen_gates():
    # at p = r + 1 a minor can vanish at every s without vanishing
    # identically, so there are neither rank-tangent rows nor a Q form; just
    # above, there are both.  tr(BX^2) needs only r >= 3, p >= 5
    from nilspace import linear_trace_constraints

    for n, r, ps in ((2, 1, (2, 3)), (3, 2, (3, 5)), (5, 4, (5, 7))):
        for p in ps:
            (base,) = canonical_bases(n, r, PrimeField(p))
            rows, _, _, screen, exact = _line_conditions(base, r, p)
            trace = [tuple(x for row in c.rows for x in row)
                     for c in linear_trace_constraints(base, min(n - 1, p - 2))]
            (u,) = _nullspace_mod_p(base.transpose().rows, p)
            (v,) = _nullspace_mod_p(base.rows, p)
            tangent = tuple(u[a] * v[b] % p for a in range(n) for b in range(n))
            assert rows[:len(trace)] == trace and exact == []
            if p == r + 1:
                assert rows == trace and len(screen) == (r >= 3)
            else:
                assert rows[len(trace)] == tangent and len(screen) == 1 + (r >= 3)
    # a conjugate of the shift has no Q screen (C C^T C != C), the square
    # form tr(X^2) on its own kernel, tr(K_i K_j), and the conjugate pool
    base = shift_matrix(3, F5)
    g = ExactMatrix(F5, ((1, 2, 0), (0, 1, 3), (1, 0, 1)))
    conj = g @ base @ inverse(g)
    assert conj @ conj.transpose() @ conj != conj
    conditions = _line_conditions(conj, 2, 5)
    assert conditions.screen == conditions.exact == []
    mats = [_rows(u, 3) for u in conditions.kernel]
    assert conditions.square == [
        [_trace_rows(_matmul_rows(x, y, 5), 5) for y in mats] for x in mats
    ]
    pool = build_candidate_pool(conj, 2, F5, budget=10**6)
    assert pool.complete and pool.at_screen == 0
    image = sorted(
        _canonical_line(tuple(x for row in (g @ c @ inverse(g)).rows for x in row), 5)
        for c in build_candidate_pool(base, 2, F5).candidates
    )
    assert list(pool.lines) == image


def _reference_greedy(cands, pool, zero, p, rng, restarts: int):
    """Oracle for the greedy search: each pick re-tests every extendable
    candidate on the point lists of each trial space."""
    state = {"best_dim": 0, "best_dirs": (), "nodes": 0}
    for _ in range(restarts):
        order = list(range(len(cands)))
        rng.shuffle(order)
        chosen: list[tuple[int, ...]] = []
        zs = [zero]
        lines: set = set()
        while True:
            state["nodes"] += 1
            extendable = []
            for idx in order:
                new_lines = _reference_extension_lines(zs, lines, cands[idx], pool, p)
                if new_lines is not None:
                    extendable.append((idx, new_lines))
            if not extendable:
                break
            # pick the extension that keeps the most candidates extendable
            picks = []
            for idx, new_lines in extendable:
                trial_zs = _reference_extend_points(zs, cands[idx], p)
                trial_lines = lines.union(new_lines)
                score = sum(
                    _reference_extension_lines(trial_zs, trial_lines, cands[jdx], pool, p)
                    is not None
                    for jdx, _ in extendable
                )
                picks.append((score, (idx, new_lines)))
            best_score = max(score for score, _ in picks)
            ties = [pick for score, pick in picks if score == best_score]
            idx, new_lines = ties[0] if len(ties) == 1 else rng.choice(ties)
            chosen.append(cands[idx])
            zs = _reference_extend_points(zs, cands[idx], p)
            lines.update(new_lines)
        if len(chosen) > state["best_dim"]:
            state["best_dim"] = len(chosen)
            state["best_dirs"] = tuple(chosen)
    return state


def test_greedy_search_matches_the_reference():
    # same scores, same picks and the same random draws, restart by restart
    for p, (cands, coords) in (
        (3, _differential_pools(3, 2, 3, 10**7)[0]),
        # a line set is its own coordinates
        (3, (_line_set(3, 4, 0.75, 0),) * 2),
        (5, (_line_set(5, 3, 1.0, 0),) * 2),
    ):
        graph = _line_graph(coords, p)
        for seed in range(10):
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            want = _reference_greedy(cands, set(cands), (0,) * len(cands[0]), p, want_rng, 3)
            got = _greedy_search(graph, got_rng, 3)
            assert got["best_dim"] == want["best_dim"] >= 2
            assert tuple(cands[c] for c in got["best_dirs"]) == want["best_dirs"]
            assert got["nodes"] == want["nodes"]
            assert got_rng.getstate() == want_rng.getstate()


def test_bases_share_the_budget():
    # base i of k gets ceil(left / (k - i)) of the evaluations still left
    first, second = canonical_bases(4, 2, F5)
    for budget in (7, 2001):
        rep = max_affine_dimension(4, 2, F5, budget=budget)
        pool1 = build_candidate_pool(first, 2, F5, budget=(budget + 1) // 2)
        pool2 = build_candidate_pool(
            second, 2, F5, budget=budget - pool1.evaluations
        )
        assert rep.evaluations == pool1.evaluations + pool2.evaluations == budget
        assert rep.pruned_by_rank == pool1.pruned_by_rank + pool2.pruned_by_rank


def test_untried_base_adds_no_counters_and_no_search():
    # at budget 7 the (3,1) base gets 4 evaluations and tests one line; the
    # (2,2) base gets the 3 left, fewer than its first line needs
    first, second = canonical_bases(4, 2, F5)
    assert build_candidate_pool(second, 2, F5, budget=3).lines_tested == 0
    pool = build_candidate_pool(first, 2, F5, budget=4)
    assert pool.lines_tested == 1
    rep = max_affine_dimension(4, 2, F5, budget=7)
    assert [part.parts for part in rep.base_points_tried] == [(3, 1, 0, 0)]
    assert rep.pruned_by_trace == pool.pruned_by_trace
    dfs = _canonical_dfs(_line_graph(_pool_lines(pool), 5), 5, 0)
    assert rep.nodes_explored == dfs["nodes"] == 1
    assert rep.status == "LOWER_BOUND_ONLY"


# per base: lines tested; rejected on the invariants, on the screen, by the
# member test; kept; evaluations
_PINNED_RECORDS = {
    # cut searches: at budget 7 the (3,1) base rejects one line in its 4
    # evaluations and the (2,2) base finishes no line in its 3
    (4, 2, 5, "exhaustive", 7): [(1, 0, 0, 1, 0, 4), (0, 0, 0, 0, 0, 3)],
    (4, 2, 5, "exhaustive", 2001): [
        (917, 732, 157, 6, 22, 1001),
        (650, 520, 4, 25, 101, 1000),
    ],
    # the benchmark's conjecture-n4 search: both pools are cut mid-enumeration
    (4, 2, 5, "exhaustive", 100_000): [
        (49_295, 39_685, 9_320, 122, 168, 50_000),
        (48_578, 37_362, 9_172, 1_601, 443, 50_000),
    ],
}


@pytest.mark.parametrize("n, r, p, mode, budget", [
    (4, 2, 5, "exhaustive", 7),  # the (2,2) base is never tried
    (4, 2, 5, "exhaustive", 2001),
    (4, 2, 5, "exhaustive", 100_000),
    (3, 2, 5, "exhaustive", 10**6),
    (3, 2, 3, "greedy", 10**6),
])
def test_search_logs_one_record_per_base_that_adds_up_to_the_report(
    n, r, p, mode, budget, caplog
):
    caplog.set_level(logging.DEBUG, logger="nilspace.search")
    field = PrimeField(p)
    rep = max_affine_dimension(n, r, field, mode=mode, budget=budget)
    records = [rec.args for rec in caplog.records
               if rec.name == "nilspace.search" and rec.msg is _BASE_RECORD]
    bases = canonical_bases(n, r, field)
    assert [rec["partition"] for rec in records] == [
        jordan_partition(b).nonzero_parts() for b in bases
    ]
    pinned = _PINNED_RECORDS.get((n, r, p, mode, budget))
    if pinned:
        assert [
            tuple(rec[k] for k in (
                "lines_tested", "at_invariants", "at_screen", "at_member_test", "kept",
                "evaluations",
            ))
            for rec in records
        ] == pinned
    best_before = 0
    for rec, base in zip(records, bases):
        assert rec["lines_tested"] == (
            rec["at_invariants"] + rec["at_screen"] + rec["at_member_test"] + rec["kept"]
        )
        assert rec["mode"] == mode
        searched = rec["complete"] or rec["lines_tested"]
        # the edge test examines every pair of kept lines once
        assert rec["pairs"] == (rec["kept"] * (rec["kept"] - 1) // 2 if searched else 0)
        assert rec["edges"] <= rec["pairs"]
        if rec["complete"]:  # the whole pool, so its graph can be rebuilt
            pool = build_candidate_pool(base, r, field)
            graph = _line_graph(_pool_lines(pool), p)
            assert rec["edges"] == sum(
                graph.neighbours[i] >> j & 1
                for i, j in itertools.combinations(range(len(pool.candidates)), 2)
            )
            if mode == "exhaustive":  # the DFS is deterministic given the best so far
                dfs = _canonical_dfs(graph, p, best_before)
                assert (rec["nodes"], rec["depth"]) == (dfs["nodes"], dfs["depth"])
        elif not rec["lines_tested"]:  # no graph, no search
            assert rec["edges"] == rec["nodes"] == rec["depth"] == 0
        # a node at a new depth raises the best dimension to it
        assert 0 <= rec["depth"] <= rec["best_dim"]
        best_before = rec["best_dim"]
    assert sum(rec["evaluations"] for rec in records) == rep.evaluations
    assert sum(
        rec["at_invariants"] + rec["at_screen"] + rec["at_member_test"] for rec in records
    ) == rep.pruned_by_rank
    assert sum(rec["nodes"] for rec in records) == rep.nodes_explored
    best = [rec["best_dim"] for rec in records]
    assert best == sorted(best) and best[-1] == rep.max_dim_found
    assert max(rec["depth"] for rec in records) == rep.max_dim_found
    if mode == "exhaustive":
        assert all(rec["complete"] for rec in records) == (rep.status == "EXHAUSTIVE")


@pytest.mark.parametrize("p, methods", [(3, ("exhaustive", "exhaustive")), (5, ("grid", "exhaustive"))])
def test_search_logs_the_witness_reverification_last(p, methods, caplog):
    caplog.set_level(logging.DEBUG, logger="nilspace.search")
    rep = max_affine_dimension(3, 2, PrimeField(p))
    records = [rec for rec in caplog.records if rec.name == "nilspace.search"]
    assert [rec.msg for rec in records] == [_BASE_RECORD] * (len(records) - 1) + [_REVERIFY_RECORD]
    args = records[-1].args
    assert (args["nilpotent_status"], args["rank_status"]) == ("PROVED", "PROVED")
    assert (args["nilpotent_method"], args["rank_method"]) == methods
    assert 0 <= args["reverify_s"] <= rep.wall_time
    assert records[-1].getMessage().startswith("re-verification ")

@pytest.mark.parametrize("p, counts", [
    (3, (37, 666, 54)),  # maximal dimension 2: some pairs extend
    (5, (26, 325, 0)),  # maximal dimension 1: none do
], ids=["3-trace-counts0", "5-trace-counts1"])
def test_pool_lookups_decide_extensions_like_the_verifiers(p, counts):
    # lines c1 and c2 are adjacent exactly when B + span(c1, c2) is valid,
    # which the verifiers decide member by member; the edge holds the p + 1
    # lines of the span
    field = PrimeField(p)
    base = shift_matrix(3, field)
    pool = build_candidate_pool(base, 2, field)
    assert pool.complete
    cands = _pool_lines(pool)
    graph = _line_graph(cands, p)
    spans = _spans(graph)
    assert (graph.neighbours, spans) == _reference_line_graph(cands, p)
    pairs = valid = 0
    for i, j in itertools.combinations(range(len(cands)), 2):
        adjacent = graph.neighbours[i] >> j & 1
        assert adjacent == graph.neighbours[j] >> i & 1
        space = AffineMatrixSpace(field, 3, base, (pool.candidates[i], pool.candidates[j]))
        verified = (
            verify_all_nilpotent(space, sample_count=0).status == "PROVED"
            and verify_constant_rank(space, 2, sample_count=0).status == "PROVED"
        )
        assert adjacent == verified, (cands[i], cands[j])
        if adjacent:
            span = {
                _canonical_line(tuple((s * a + t * b) % p for a, b in zip(cands[i], cands[j])), p)
                for s in range(p) for t in range(p) if s or t
            }
            assert spans[i][j] == spans[j][i] == sum(
                1 << cands.index(line) for line in span
            )
            assert len(span) == p + 1
        pairs += 1
        valid += verified
    assert (len(cands), pairs, valid) == counts


def _pool_lines(pool):
    return [tuple(x for row in c.rows for x in row) for c in pool.candidates]


@functools.cache
def _differential_pools(n, r, p, budget):
    """Per base, the pool lines and their kernel coordinates."""
    field = PrimeField(p)
    out = []
    for base in canonical_bases(n, r, field):
        pool = build_candidate_pool(base, r, field, budget=budget)
        out.append((pool.lines, pool.coords))
    return out


def _spans(graph):
    """spans[i][j], j in N(i): the lines of span(i, j) as a bitset, from
    the lines ``_adjoin`` finds that j adds to the line i."""
    return [
        {j: _adjoin(graph, 1 << i, 0, j)[0] | 1 << i for j in _bits(adjacent)}
        for i, adjacent in enumerate(graph.neighbours)
    ]


def _reference_line_graph(cands, p):
    """Oracle for the line graph, its neighbour bitsets and the spans of
    its edges: adds y to x + t*y entry by entry and looks each sum up by its
    canonical line."""
    index = {line: i for i, line in enumerate(cands)}
    spans = [{} for _ in cands]
    for i, x in enumerate(cands):
        for j in range(i + 1, len(cands)):
            span, point = 1 << i | 1 << j, x
            for _ in range(p - 1):
                point = tuple([(a + b) % p for a, b in zip(point, cands[j])])
                k = index.get(_canonical_line(point, p))
                if k is None:
                    break
                span |= 1 << k
            else:
                spans[i][j] = spans[j][i] = span
    return [sum(1 << j for j in s) for s in spans], spans


_GRAPH_CASES = [
    (2, 1, 2, None), (2, 1, 3, None), (2, 1, 5, None),
    (3, 1, 3, None), (3, 2, 3, None), (3, 1, 5, None), (3, 2, 5, None),
    (3, 1, 7, None), (3, 2, 7, None),
    *((4, r, p, budget) for r in (1, 2, 3) for p in (3, 5) for budget in (3000, 30_000)),
]


@pytest.mark.parametrize("n, r, p, budget", _GRAPH_CASES, ids=_trace_ids(_GRAPH_CASES))
def test_packed_line_graph_matches_the_tuple_reference_on_pools(n, r, p, budget):
    for cands, coords in _differential_pools(n, r, p, budget or 10**7):
        graph = _line_graph(coords, p)
        assert (graph.neighbours, _spans(graph)) == _reference_line_graph(cands, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 17, 257])
def test_packed_fields_hold_and_reduce_every_sum_of_two_residues(p):
    # every pair of residues (a, b) in adjacent fields of w + 1 bits, w =
    # _field_bits(p): one addition and one packed reduction leave (a + b) %
    # p in each field, with no carry into the next.  At w - 1 the sums 2p -
    # 2 overflow their field and K = 2^w - p turns negative
    w = search._field_bits(p)
    width = w + 1
    mask = (1 << width) - 1
    ones = sum(1 << (k * width) for k in range(p))
    for a in range(p):
        x = ones * a
        y = sum(b << (k * width) for k, b in enumerate(range(p)))
        s = x + y
        s -= ((s + ones * ((1 << w) - p)) >> w & ones) * p
        assert [s >> (k * width) & mask for k in range(p)] == [(a + b) % p for b in range(p)]


@pytest.mark.parametrize("p, k, keep", [
    (2, 5, 0.9), (3, 4, 0.8), (5, 3, 0.9), (7, 3, 0.95), (11, 2, 1.0), (127, 2, 0.9),
    (257, 2, 0.9),
])
def test_packed_line_graph_matches_the_tuple_reference_on_random_line_sets(p, k, keep):
    # the line sets are their own coordinates.  For p = 3, 5 and 257, all
    # 2^k + 1, the largest sum 2p - 2 = 2^(k+1) sets the top bit of an
    # entry's w bits; at keep = 0.9 a pair runs through about ten sums
    # before a missing line
    edges = 0
    for seed in range(2):
        cands = _line_set(p, k, keep, seed)
        graph = _line_graph(cands, p)
        assert (graph.neighbours, _spans(graph)) == _reference_line_graph(cands, p)
        edges += sum(x.bit_count() for x in graph.neighbours)
    assert edges or p > 100


@pytest.mark.parametrize("p, k", [(2, 5), (3, 4), (5, 3)])
def test_packed_line_graph_reads_lanes_of_several_words(p, k):
    # a line set behind zero entries, or repeated side by side, is a linear
    # image of itself with the same lines and spans, and its vectors take
    # lanes of two 8-byte words.  Behind the zeros every lane's first word
    # is 0, so only the whole-lane lookups decide; repeated, the first word
    # already tells the lines apart
    cands = _line_set(p, k, 0.9, 0)
    width = search._field_bits(p) + 1
    pad = -(-64 // width)
    for wide in ([(0,) * pad + x for x in cands], [x * (pad // k + 1) for x in cands]):
        assert 64 < len(wide[0]) * width <= 128
        graph = _line_graph(wide, p)
        assert (graph.neighbours, _spans(graph)) == _reference_line_graph(cands, p)


def test_line_graph_on_kernel_coordinates_matches_the_reference_on_full_vectors():
    # n=5 r=1 p=7: the pool's 25-entry vectors have 8 kernel coordinates.
    # The pool lines in the hyperplane of kernel coordinate 0 keep their
    # spans in it, so their graph is the pool graph's induced subgraph,
    # small enough for the reference
    field = PrimeField(7)
    (base,) = canonical_bases(5, 1, field)
    pool = build_candidate_pool(base, 1, field, budget=10**7)
    assert pool.complete and len(pool.free) == 8
    cands = pool.lines
    coords = pool.coords
    graph = _line_graph(coords, 7)
    inside = [k for k, x in enumerate(coords) if not x[0]]
    sub = _line_graph([coords[k] for k in inside], 7)
    assert (sub.neighbours, _spans(sub)) == _reference_line_graph([cands[k] for k in inside], 7)
    assert sub.neighbours == [
        sum(1 << b for b, k in enumerate(inside) if graph.neighbours[a] >> k & 1) for a in inside
    ]
    assert (len(cands), len(inside), sum(x.bit_count() for x in sub.neighbours) // 2) == (
        798, 114, 3192
    )


def test_line_graph_memory_stays_below_the_stored_spans():
    # the 364 lines of F_3^6, every pair an edge: the worst case for a span
    # stored per edge, which traced a 12.1 MB peak on this set; neighbour
    # bitsets and one row of pairs at a time keep it near 0.3 MB
    import tracemalloc

    lines = [v for v in itertools.product(range(3), repeat=6) if any(v) and _canonical_line(v, 3) == v]
    tracemalloc.start()
    try:
        graph = _line_graph(lines, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lines) == 364
    assert graph.neighbours == [((1 << 364) - 1) ^ (1 << i) for i in range(364)]
    assert peak < 1e6


_DFS_CASES = [
    # the six search-n3 instances and the canonical DFS's node count from
    # an empty start
    (3, 1, 3, None, 4), (3, 2, 3, None, 27),
    (3, 1, 5, None, 6), (3, 2, 5, None, 22),
    (3, 1, 7, None, 8), (3, 2, 7, None, 44),
    # n=4 pools, most of them partial
    *((4, r, p, budget, None) for r in (1, 2, 3) for p in (3, 5) for budget in (3000, 30_000)),
]


@pytest.mark.parametrize("n, r, p, budget, nodes", _DFS_CASES, ids=_trace_ids(_DFS_CASES))
def test_canonical_dfs_matches_the_ordered_extension_reference(n, r, p, budget, nodes):
    # same maximum and witness as the DFS over every increasing basis of
    # point lists, in no more nodes, whatever best the search starts from
    for cands, coords in _differential_pools(n, r, p, budget or 10**7):
        graph = _line_graph(coords, p)
        for initial_best in (0, 1):
            want = _reference_dfs(cands, set(cands), (0,) * (n * n), p, initial_best)
            got = _canonical_dfs(graph, p, initial_best)
            assert got["best_dim"] == want["best_dim"]
            assert tuple(cands[c] for c in got["best_dirs"]) == want["best_dirs"]
            assert got["nodes"] <= want["nodes"]
            if nodes is not None and initial_best == 0:
                assert got["nodes"] == nodes  # each subspace is visited once
            assert got["nodes"] <= want["nodes"]


def _line_set(p, k, keep, seed):
    """A seeded subset of the lines of F_p^k, each kept with probability
    ``keep``: a stand-in pool with many overlapping subspaces."""
    rng = random.Random(seed)
    lines = {_canonical_line(v, p) for v in itertools.product(range(p), repeat=k) if any(v)}
    return [line for line in sorted(lines) if rng.random() < keep]


@pytest.mark.parametrize("p, k, nodes", [(2, 5, 150), (3, 4, 91), (5, 3, 41)])
def test_canonical_dfs_matches_the_reference_on_random_line_sets(p, k, nodes):
    # the pools above stop at dimension 2; these sets reach dimension 4.
    # The node totals pin one visit per subspace: without the lowest-line
    # rule the F_2 and F_3 sets take 247 and 106 nodes
    total = 0
    for keep in (0.9, 0.75, 0.5):
        for seed in range(3):
            cands = _line_set(p, k, keep, seed)
            want = _reference_dfs(cands, set(cands), (0,) * k, p, 0)
            got = _canonical_dfs(_line_graph(cands, p), p, 0)
            assert got["best_dim"] == want["best_dim"]
            assert tuple(cands[c] for c in got["best_dirs"]) == want["best_dirs"]
            assert got["nodes"] <= want["nodes"]
            total += got["nodes"]
    assert total == nodes


def test_canonical_dfs_reaches_the_staircase_at_depth_three():
    # the pool made of the 31 lines of the staircase's direction space on
    # its (3,1) base: the search finds the whole space, through the
    # staircase's directions in sorted order, where the reference takes
    # 3935 nodes
    staircase = witness_conjecture(4, 2, F5)
    assert jordan_partition(staircase.base).parts == (3, 1, 0, 0)
    dirs = [tuple(x for row in d.rows for x in row) for d in staircase.directions]
    cands = sorted({
        _canonical_line(tuple(sum(c * d[k] for c, d in zip(coeffs, dirs)) % 5 for k in range(16)), 5)
        for coeffs in itertools.product(range(5), repeat=3) if any(coeffs)
    })
    assert len(cands) == 31
    got = _canonical_dfs(_line_graph(cands, 5), 5, 0)
    assert got["best_dim"] == 3
    assert tuple(cands[c] for c in got["best_dirs"]) == tuple(sorted(dirs))
    assert got["nodes"] == 4  # the root and one subspace of each dimension
    want = _reference_dfs(cands, set(cands), (0,) * 16, 5, 0)
    assert (want["best_dim"], want["best_dirs"], want["nodes"]) == (3, tuple(sorted(dirs)), 3935)


def test_max_dimension_small_instances():
    rep = max_affine_dimension(3, 2, F5)
    assert rep.max_dim_found == 1 == bound_rank_full(3)
    assert rep.status == "EXHAUSTIVE"
    assert rep.base_points_tried == (jordan_partition(shift_matrix(3, F5)),)
    # only the pool build evaluates members; the search over it does lookups
    pool = build_candidate_pool(shift_matrix(3, F5), 2, F5)
    assert rep.evaluations == pool.evaluations == 4038

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
    # the search always trace-prunes; at p = 2 the only trace row is tr(X)
    assert rep.pruning == "trace"
    assert verify_all_nilpotent(rep.witness).status == "PROVED"
    assert verify_constant_rank(rep.witness, 1).status == "PROVED"


def test_search_witness_reverifies():
    rep = max_affine_dimension(3, 2, F5)
    w = rep.witness
    assert w.d == rep.max_dim_found
    assert verify_all_nilpotent(w).status == "PROVED"
    assert verify_constant_rank(w, 2).status == "PROVED"


def test_budget_monotonicity_and_downgrade():
    dims = []
    for budget in (20, 2000, 1_000_000):
        rep = max_affine_dimension(3, 2, F5, budget=budget)
        dims.append(rep.max_dim_found)
        assert rep.max_dim_found <= bound_rank_bounded(3, 2)
    assert dims == sorted(dims)
    cut = max_affine_dimension(3, 2, F5, budget=20)
    assert cut.status == "LOWER_BOUND_ONLY"


def test_large_prime_search_is_bounded_by_its_budget():
    # a run polynomial that is identically zero passes every line of its run;
    # its root mask has reach = min(p, budget + 1) bits: summing p shifted
    # ints took 20-30 s at p = 1 000 003 on a 2-core machine, and a p-bit
    # mask at p = 2^61 - 1 raised MemoryError
    for p in (1_000_003, 2**61 - 1):
        start = time.perf_counter()
        rep = max_affine_dimension(3, 2, PrimeField(p), budget=10)
        assert time.perf_counter() - start < 1.0
        assert rep.pruning == "trace" and rep.evaluations == 10
        assert rep.status == "LOWER_BOUND_ONLY"


def test_run_polynomials_are_classified_without_evaluating_them_at_every_value():
    # evaluating each nonzero run polynomial at all p values of a took 3.3 s
    # here, nearly all of it on one run's polynomials (2-core machine)
    start = time.perf_counter()
    rep = max_affine_dimension(3, 2, PrimeField(16_777_259), budget=10)
    assert time.perf_counter() - start < 0.5
    assert (rep.max_dim_found, rep.evaluations, rep.status) == (0, 10, "LOWER_BOUND_ONLY")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_masks_equal_evaluation_at_every_value(p):
    from nilspace.search import _roots

    for c0, c1, c2 in itertools.product(range(p), repeat=3):
        if c0 or c1 or c2:
            assert set(_roots(c0, c1, c2, p)) == {
                a for a in range(p) if not (c0 + a * (c1 + a * c2)) % p
            }


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
    with pytest.raises(ValueError, match="budget"):
        max_affine_dimension(3, 2, F5, budget=0)
    with pytest.raises(ValueError, match="unknown pruning 'none'"):
        build_candidate_pool(shift_matrix(3, F5), 2, F5, pruning="none")
    from nilspace import RATIONALS

    with pytest.raises(ValueError):
        max_affine_dimension(3, 2, RATIONALS)


def test_pool_api_takes_the_report_pruning_as_a_keyword():
    # as the benchmark's pool probe calls it: the report's pruning, by keyword
    rep = max_affine_dimension(3, 2, F5)
    (base,) = canonical_bases(3, 2, F5)
    pool = build_candidate_pool(base, 2, F5, pruning=rep.pruning, budget=rep.evaluations)
    assert pool == build_candidate_pool(base, 2, F5, budget=rep.evaluations)
    assert pool.complete and pool.evaluations == rep.evaluations
    assert pool.lines_tested == len(pool.candidates) + pool.pruned_by_rank


def test_pool_budget_zero_tests_no_line():
    # the search passes a base whose share ran out a budget of 0: the pool
    # is cut before its first line, and a negative budget is refused
    for n, r, p in ((3, 2, 5), (4, 2, 5), (2, 1, 2)):
        for base in canonical_bases(n, r, PrimeField(p)):
            pool = build_candidate_pool(base, r, PrimeField(p), budget=0)
            assert (pool.lines, pool.complete, pool.evaluations, pool.lines_tested) == (
                (), False, 0, 0,
            )
            assert pool.free == build_candidate_pool(base, r, PrimeField(p), budget=1).free
    with pytest.raises(ValueError, match="budget must be >= 0"):
        build_candidate_pool(shift_matrix(3, F5), 2, F5, budget=-1)


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
