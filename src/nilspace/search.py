"""Search for the maximal dimension of affine nilpotent constant-rank spaces.

The search fixes one nilpotent base point in block-shift form per similarity
class (conjugation preserves nilpotency, the rank profile and dimension),
builds a pool of direction candidates whose one-parameter lines through the
base stay nilpotent of the target rank, and extends direction subspaces
depth-first in a fixed candidate order.  Every subspace is reachable through
an increasing sequence of pool candidates, so an uncut run is exhaustive.

B + W is valid exactly when every nonzero point of W lies on a pool line, so
the search over a built pool decides each extension by set lookups of
canonical lines and never evaluates a member.  Only the pool build evaluates
members; it charges them against the budget, and running out of budget
leaves a partial pool and downgrades the result to a lower bound, it never
aborts.  The bases share the budget: each one in turn gets an equal share
of what is left, so a base's unused share flows on to the later ones and
the first base cannot starve the rest.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .catalog import conjecture_bound, witness_conjecture
from .errors import FieldTooSmallError
from .fields import FieldSpec, PrimeField
from .matrices import (
    ExactMatrix,
    _is_nilpotent_mod_p,
    _nullspace_mod_p,
    _rank_mod_p,
    is_nilpotent,
    jordan_partition,
    rank,
)
from .partitions import Partition, partitions_of
from .spaces import (
    DEFAULT_BUDGET,
    AffineMatrixSpace,
    verify_all_nilpotent,
    verify_constant_rank,
)

EXHAUSTIVE = "EXHAUSTIVE"
LOWER_BOUND_ONLY = "LOWER_BOUND_ONLY"

CONSISTENT = "CONSISTENT"
WITNESS_EXCEEDS = "WITNESS_EXCEEDS"
UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True, slots=True)
class CandidatePool:
    """Direction candidates whose whole line through the base passes the
    nilpotent constant-rank test, one canonical representative per line."""

    base: ExactMatrix
    candidates: tuple[ExactMatrix, ...]
    complete: bool
    pruning: str
    lines_tested: int
    pruned_by_rank: int
    pruned_by_trace: int
    evaluations: int


@dataclass(frozen=True, slots=True)
class SearchReport:
    n: int
    r: int
    p: int
    max_dim_found: int
    witness: AffineMatrixSpace
    status: str
    base_points_tried: tuple[Partition, ...]
    nodes_explored: int
    pruned_by_trace: int
    pruned_by_rank: int
    evaluations: int
    budget: int
    pruning: str
    mode: str
    seed: int
    wall_time: float


@dataclass(frozen=True, slots=True)
class ConjectureTest:
    status: str
    n: int
    r: int
    p: int
    conjectured_dimension: int
    lower_bound_dimension: int
    lower_bound_witness: Optional[AffineMatrixSpace]
    search_report: SearchReport
    exceeding_space: Optional[AffineMatrixSpace]
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# canonical base points

def canonical_bases(n: int, r: int, field: FieldSpec) -> list[ExactMatrix]:
    """One block-shift matrix per partition of n with n - r nonzero parts
    (the rank of a nilpotent block matrix is n minus its block count)."""
    if not 0 <= r <= n - 1:
        raise ValueError("need 0 <= r <= n-1")
    blocks_wanted = n - r
    out = []
    one, zero = field.one, field.zero
    for part in partitions_of(n):
        sizes = part.nonzero_parts()
        if len(sizes) != blocks_wanted:
            continue
        rows = [[zero] * n for _ in range(n)]
        offset = 0
        for size in sizes:
            for i in range(size - 1):
                rows[offset + i][offset + i + 1] = one
            offset += size
        out.append(ExactMatrix(field, tuple(tuple(row) for row in rows)))
    return out


# ---------------------------------------------------------------------------
# candidate pool

def _flat_to_rows(flat: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _line_count(p: int, dim: int) -> int:
    return (p**dim - 1) // (p - 1)


def _iter_canonical_kernel(kernel: Sequence[tuple[int, ...]], p: int) -> Iterator[tuple[int, ...]]:
    """One member per line of the span of ``kernel``: lead coefficient 1,
    later coefficients free, the last one fastest.  An odometer over the
    outer free coefficients keeps a stack of partial sums, the last
    coefficient runs in a loop of its own, and each step adds one basis
    vector through its nonzero entries only."""
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


def _canonical_line(flat: tuple[int, ...], p: int) -> tuple[int, ...]:
    for v in flat:
        if v:
            if v == 1:
                return flat
            inv = pow(v, -1, p)
            return tuple(x * inv % p for x in flat)
    raise ValueError("zero vector has no line")


def build_candidate_pool(
    base: ExactMatrix,
    r: int,
    field: FieldSpec,
    pruning: str = "none",
    budget: int = DEFAULT_BUDGET,
) -> CandidatePool:
    """Enumerate one canonical representative per direction line whose whole
    line through ``base`` is nilpotent of rank exactly r.

    With ``pruning="trace"`` only the common kernel of the linear trace
    constraints of the base is enumerated (sound for |K| >= n+1).  A budget
    cut returns the partial pool flagged ``complete=False`` rather than
    raising, so searches can degrade to lower bounds.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return _build_pool(base, r, field, pruning, budget)


def _build_pool(base, r, field, pruning, limit: int) -> CandidatePool:
    """The pool of ``base`` within ``limit`` member evaluations.

    Member t of a line is B + t*X for its canonical representative X, and
    a line costs one evaluation per member tested: the first failing t, or
    p - 1 when it passes.  A line the remaining budget cannot finish is cut
    and not counted; the cut spends the budget to ``limit``.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("candidate pools are only enumerable over finite fields")
    if pruning not in ("none", "trace"):
        raise ValueError(f"unknown pruning {pruning!r}")
    p = field.p
    n = base.n_rows
    if base.field != field or not base.is_square:
        raise ValueError("base must be square over the given field")
    if rank(base) != r or not is_nilpotent(base):
        raise ValueError("base point must be nilpotent of rank exactly r")
    n_entries = n * n

    pruned_by_trace = 0
    if pruning == "trace":
        if p < n + 1:
            raise FieldTooSmallError(
                "trace pruning is only sound for |K| >= n+1"
            )
        from .reduction import linear_trace_constraints

        constraint_rows = [
            tuple(x for row in c.rows for x in row)
            for c in linear_trace_constraints(base, n - 1)
        ]
        kernel = _nullspace_mod_p(constraint_rows, p)
        pruned_by_trace = _line_count(p, n_entries) - _line_count(p, len(kernel))
    else:
        kernel = [
            tuple(int(i == j) for j in range(n_entries)) for i in range(n_entries)
        ]

    # The enumerated vector X is a multiple a*X0 of the canonical X0 (lead
    # entry a), so member t, B + t*X0, is B + (t/a)*X: lines are tested as
    # enumerated and only kept ones are canonicalised.  B is nilpotent, so
    # tr(B + t*X0) = t*tr(X0): a nonzero trace fails member 1 of the line.
    base_flat = tuple(x for row in base.rows for x in row)
    row_slices = [slice(i, i + n) for i in range(0, n_entries, n)]
    kept: list[tuple[int, ...]] = []
    lines_tested = 0
    rejected = 0
    used = 0
    complete = True
    for flat in _iter_canonical_kernel(kernel, p):
        room = limit - used
        if room == 0:
            complete = False
            break
        if sum(flat[::n + 1]) % p:
            failed_at = 1
        else:
            inv = pow(next(x for x in flat if x), -1, p)
            failed_at = 0
            for t in range(1, min(p, room + 1)):
                scale = t * inv % p
                member = [(b + scale * x) % p for b, x in zip(base_flat, flat)]
                rows = [member[sl] for sl in row_slices]
                if _rank_mod_p(rows, p, r) != r or not _is_nilpotent_mod_p(rows, p):
                    failed_at = t
                    break
        if failed_at:
            used += failed_at
            rejected += 1
        elif room < p - 1:
            used = limit
            complete = False
            break
        else:
            used += p - 1
            kept.append(_canonical_line(flat, p))
        lines_tested += 1
    kept.sort()
    return CandidatePool(
        base=base,
        candidates=tuple(
            ExactMatrix(field, _flat_to_rows(flat, n)) for flat in kept
        ),
        complete=complete,
        pruning=pruning,
        lines_tested=lines_tested,
        pruned_by_rank=rejected,
        pruned_by_trace=pruned_by_trace,
        evaluations=used,
    )


# ---------------------------------------------------------------------------
# the search proper

def _resolve_pruning(pruning: str, p: int, n: int) -> str:
    if pruning == "auto":
        return "trace" if p >= n + 1 else "none"
    if pruning == "trace" and p < n + 1:
        raise FieldTooSmallError("trace pruning is only sound for |K| >= n+1")
    if pruning not in ("none", "trace"):
        raise ValueError(f"unknown pruning {pruning!r}")
    return pruning


def _extension_lines(zs, lines, cand, pool, p):
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


def _extend_points(zs, cand, p):
    """All points of W + span(cand), given all points ``zs`` of W."""
    return zs + [
        tuple((a + t * b) % p for a, b in zip(z, cand)) for z in zs for t in range(1, p)
    ]


def max_affine_dimension(
    n: int,
    r: int,
    field: FieldSpec,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    pruning: str = "auto",
    seed: int = 0,
    restarts: int = 5,
) -> SearchReport:
    """Maximal dimension of an affine space of nilpotent n x n matrices of
    constant rank r over F_p, with a re-verified witness.

    ``mode="exhaustive"`` explores ordered extensions of every candidate
    pool; the result is EXHAUSTIVE when every pool build completed.
    ``mode="greedy"`` runs seeded randomized restarts that repeatedly add
    the candidate keeping the most candidates extendable, for cheap lower
    bounds.  ``pruning="auto"`` enables trace pruning exactly when it is
    sound (|K| >= n+1).

    ``budget`` caps the member evaluations of the pool builds; ``evaluations``
    reports what they used.  The k bases share it in order: base i (from 0)
    may use ceil(left / (k - i)) of the evaluations still left, so a base's
    unused share flows on to the later ones and the first cannot starve the
    rest.  A base whose share ran out before it tested a line is left out
    of ``base_points_tried`` and of the counters.  Both modes decide
    extensions by set lookups in a built pool, which the budget does not
    charge, so a partial pool still yields a sound lower bound.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("the search enumerates members; the field must be finite")
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    p = field.p
    resolved_pruning = _resolve_pruning(pruning, p, n)
    start = time.perf_counter()
    used = 0
    bases = canonical_bases(n, r, field)
    base_partitions = []

    best_dim = 0
    best_base = bases[0]
    best_dirs: tuple[tuple[int, ...], ...] = ()
    nodes = 0
    pruned_by_trace = 0
    pruned_by_rank = 0
    fully_exhausted = mode == "exhaustive"
    rng = random.Random(seed)
    zero = (0,) * (n * n)

    for i, base in enumerate(bases):
        # an equal share of what is left; what a base leaves flows on
        share = -(-(budget - used) // (len(bases) - i))
        pool = _build_pool(base, r, field, resolved_pruning, share)
        used += pool.evaluations
        if not pool.complete:
            fully_exhausted = False
            if not pool.lines_tested:
                continue  # never tried: it adds no counts and no search
        base_partitions.append(jordan_partition(base))
        pruned_by_trace += pool.pruned_by_trace
        pruned_by_rank += pool.pruned_by_rank
        cands = [tuple(x for row in c.rows for x in row) for c in pool.candidates]
        pool_lines = set(cands)
        if mode == "exhaustive":
            got = _dfs_search(cands, pool_lines, zero, p, best_dim)
        else:
            got = _greedy_search(cands, pool_lines, zero, p, rng, restarts)
        nodes += got["nodes"]
        if got["best_dim"] > best_dim:
            best_dim = got["best_dim"]
            best_base = base
            best_dirs = got["best_dirs"]

    status = EXHAUSTIVE if (mode == "exhaustive" and fully_exhausted) else LOWER_BOUND_ONLY
    witness = AffineMatrixSpace(
        field, n, best_base,
        tuple(ExactMatrix(field, _flat_to_rows(flat, n)) for flat in best_dirs),
    )
    _reverify_witness(witness, r, best_dim)
    wall = time.perf_counter() - start
    return SearchReport(
        n=n, r=r, p=p, max_dim_found=best_dim, witness=witness, status=status,
        base_points_tried=tuple(base_partitions), nodes_explored=nodes,
        pruned_by_trace=pruned_by_trace, pruned_by_rank=pruned_by_rank,
        evaluations=used, budget=budget, pruning=resolved_pruning,
        mode=mode, seed=seed, wall_time=wall,
    )


def _dfs_search(cands, pool, zero, p, initial_best: int):
    """Ordered-extension DFS; ``best_dim`` improves only strictly, so the
    caller keeps the first (lexicographically smallest) witness at a tie."""
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
            new_lines = _extension_lines(zs, lines, cand, pool, p)
            if new_lines is None:
                continue
            chosen.append(cand)
            rec(idx + 1, _extend_points(zs, cand, p), lines.union(new_lines))
            chosen.pop()

    rec(0, [zero], set())
    return state


def _greedy_search(cands, pool, zero, p, rng, restarts: int):
    state = {"best_dim": 0, "best_dirs": (), "nodes": 0}
    for _ in range(max(1, restarts)):
        order = list(range(len(cands)))
        rng.shuffle(order)
        chosen: list[tuple[int, ...]] = []
        zs = [zero]
        lines: set = set()
        while True:
            state["nodes"] += 1
            extendable = []
            for idx in order:
                new_lines = _extension_lines(zs, lines, cands[idx], pool, p)
                if new_lines is not None:
                    extendable.append((idx, new_lines))
            if not extendable:
                break
            # pick the extension that keeps the most candidates extendable
            picks = []
            for idx, new_lines in extendable:
                trial_zs = _extend_points(zs, cands[idx], p)
                trial_lines = lines.union(new_lines)
                score = sum(
                    _extension_lines(trial_zs, trial_lines, cands[jdx], pool, p) is not None
                    for jdx, _ in extendable
                )
                picks.append((score, (idx, new_lines)))
            best_score = max(score for score, _ in picks)
            ties = [pick for score, pick in picks if score == best_score]
            idx, new_lines = ties[0] if len(ties) == 1 else rng.choice(ties)
            chosen.append(cands[idx])
            zs = _extend_points(zs, cands[idx], p)
            lines.update(new_lines)
        if len(chosen) > state["best_dim"]:
            state["best_dim"] = len(chosen)
            state["best_dirs"] = tuple(chosen)
    return state


def _reverify_witness(witness: AffineMatrixSpace, r: int, claimed_dim: int):
    """Soundness gate: a reported witness must re-verify independently."""
    if witness.d != claimed_dim:
        raise AssertionError("witness dimension does not match the report")
    nilp = verify_all_nilpotent(witness, sample_count=0)
    ranks = verify_constant_rank(witness, r, sample_count=0)
    if nilp.status != "PROVED" or ranks.status != "PROVED":
        raise AssertionError("search produced a witness that fails re-verification")


# ---------------------------------------------------------------------------
# conjecture testing

def check_conjecture(
    n: int,
    r: int,
    field: FieldSpec,
    budget: int = DEFAULT_BUDGET,
    pruning: str = "auto",
    seed: int = 0,
) -> ConjectureTest:
    """Compare the conjectured maximal dimension against a verified witness
    (lower bound) and the search (upper side) over one finite field.

    CONSISTENT: exhaustive search matched the conjectured value.
    WITNESS_EXCEEDS: a verified space of larger dimension exists over this
    field (possible below the field-size hypothesis).
    UNRESOLVED: the budget ran out before the search was exhaustive.
    """
    if not isinstance(field, PrimeField):
        raise ValueError("conjecture testing enumerates members over F_p")
    bound = conjecture_bound(n, r)
    lower_witness = witness_conjecture(n, r, field, budget)
    report = max_affine_dimension(
        n, r, field, mode="exhaustive", budget=budget, pruning=pruning, seed=seed
    )
    lower = max(report.max_dim_found, lower_witness.d if lower_witness else 0)
    notes: list[str] = []
    exceeding = None
    if report.max_dim_found > bound:
        status = WITNESS_EXCEEDS
        exceeding = report.witness
        notes.append(
            f"verified dimension {report.max_dim_found} exceeds the conjectured "
            f"{bound} over F_{field.p}; the conjecture assumes a sufficiently "
            "large field"
        )
    elif report.status == EXHAUSTIVE and report.max_dim_found == bound:
        status = CONSISTENT
    elif report.status == EXHAUSTIVE:
        if lower_witness is not None:
            raise AssertionError(
                "exhaustive search found less than a verified witness dimension"
            )
        status = UNRESOLVED
        notes.append(
            f"exhaustive search over F_{field.p} found {report.max_dim_found} < "
            f"{bound}; the field may be below the conjecture's size hypothesis"
        )
    else:
        status = UNRESOLVED
        if lower == bound:
            notes.append(
                f"lower bound {bound} achieved by a verified witness; "
                "exhaustion did not finish within budget"
            )
        else:
            notes.append("search was cut by budget before reaching the lower bound")
    return ConjectureTest(
        status=status, n=n, r=r, p=field.p, conjectured_dimension=bound,
        lower_bound_dimension=lower, lower_bound_witness=lower_witness,
        search_report=report, exceeding_space=exceeding, notes=tuple(notes),
    )


# the old name, kept for callers; a test module that imports it bare gets it
# collected as a test, so import ``check_conjecture`` instead
test_conjecture = check_conjecture
