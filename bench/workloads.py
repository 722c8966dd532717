"""The three workloads: seeded inputs, one timed pass, and output checks.

Each workload is a closed loop with one caller: a pass makes its program
calls one after another, and only the calls themselves are timed.  The
checks run after each call, outside the timed section, and a call that
raises or fails a check counts as one failed operation.  No check pins
``evaluations`` or ``nodes_explored``: pool-lookup search and pool-domain
pruning may legitimately change those counts.
"""

from __future__ import annotations

import io
import json
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

from nilspace import (
    RATIONALS,
    AffineMatrixSpace,
    ExactMatrix,
    PrimeField,
    build_candidate_pool,
    canonical_bases,
    direction_nilpotency,
    is_nilpotent,
    mat_pow,
    rank,
    trace_condition_verify,
    unit_matrix,
    verify_all_nilpotent,
    verify_constant_rank,
    witness_conjecture,
    witness_rank_full,
    witness_rank_one,
)
from nilspace import cli, serialize

from tracing import DESCRIBE

# search-n3: exhaustive instances (n, r, p) and their known maximal dimension
SEARCH_EXHAUSTIVE = {
    (3, 1, 3): 1, (3, 2, 3): 2,
    (3, 1, 5): 1, (3, 2, 5): 1,
    (3, 1, 7): 1, (3, 2, 7): 1,
}
SEARCH_GREEDY = ((3, 2, 3), (3, 2, 5))

# conjecture-n4: the headline instance at a budget far below what it needs,
# so the search is cut inside the first base's pool build
CONJECTURE = (4, 2, 5)
CONJECTURE_BUDGET = 100_000
CONJECTURE_LOWER_BOUND = 3

# verify-witness: the staircase space over Q has the conjecture's shape
Q_STAIRCASE = (4, 2)
MATRICES_BATCH = 2000

PROVED, REFUTED, SAMPLED_PASS = "PROVED", "REFUTED", "SAMPLED_PASS"


@dataclass
class Pass:
    """One pass of a workload: timed program calls, their outputs, and the
    operations that raised or failed a check.

    With ``reference`` set, it is timed right before and right after each
    call, untimed itself, and ``ref_s[label]`` keeps those seconds: the
    machine's speed at the moment of the call."""

    tracer: object = None
    after_call: object = None
    reference: object = None
    wall_s: float = 0.0
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    stdout: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)
    op_s: dict = field(default_factory=dict)
    ref_s: dict = field(default_factory=dict)

    def call(self, label, span, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            fn = self.tracer.wrap(span, fn, DESCRIBE.get(span))
        if self.reference is not None:
            self.ref_s.setdefault(label, []).append(self.reference())
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self.fail(label, f"raised {exc!r}")
            return None
        finally:
            elapsed = perf_counter() - start
            self.wall_s += elapsed
            self.op_s[label] = self.op_s.get(label, 0.0) + elapsed
            if self.reference is not None:
                self.ref_s[label].append(self.reference())
            if self.after_call is not None:
                self.after_call()

    def fail(self, label, reason):
        self.failures.setdefault(label, reason)

    def expect(self, label, ok, reason):
        if not ok:
            self.fail(label, reason)


def _cli(ps: Pass, label: str, argv: list[str]):
    """Run ``nilspace <argv>`` in-process; return (exit code, parsed JSON)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ps.call(label, "cli.main", cli.main, argv)
    text = out.getvalue()
    ps.stdout[label] = text
    if code is None:
        return None, None
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        ps.fail(label, f"exit {code}, stdout is not JSON; stderr: {err.getvalue()[-200:]}")
        return None, None


def _check_witness(ps: Pass, label: str, obj: dict, r: int, dim: int):
    """The reported witness re-verifies PROVED from a certificate method."""
    space = serialize.space_from_obj(obj)
    ps.expect(label, space.d == dim, f"witness dimension {space.d} != {dim}")
    for out in (verify_all_nilpotent(space, sample_count=0),
                verify_constant_rank(space, r, sample_count=0)):
        ps.expect(label, out.status == PROVED and out.method in ("grid", "exhaustive"),
                  f"witness re-verification gave {out.status} ({out.method})")


# ---------------------------------------------------------------------------
# search-n3

def _search_inputs(seed: int) -> dict:
    instances = [(n, r, p, "exhaustive") for (n, r, p) in SEARCH_EXHAUSTIVE]
    instances += [(n, r, p, "greedy") for (n, r, p) in SEARCH_GREEDY]
    return {
        "seed": seed,
        "bases": {key: canonical_bases(key[0], key[1], PrimeField(key[2]))
                  for key in SEARCH_EXHAUSTIVE},
        "argv": [
            (n, r, p, mode,
             ["search", "--n", str(n), "--r", str(r), "--field", str(p)]
             + (["--mode", "greedy", "--seed", str(seed)] if mode == "greedy" else []))
            for (n, r, p, mode) in instances
        ],
    }


def _search_pass(inp: dict, ps: Pass):
    for n, r, p, mode, argv in inp["argv"]:
        label = f"search {mode} n={n} r={r} p={p}"
        code, rep = _cli(ps, label, argv)
        if rep is None:
            continue
        exhaustive_dim = SEARCH_EXHAUSTIVE[(n, r, p)]
        ps.expect(label, (rep["n"], rep["r"], rep["p"], rep["mode"]) == (n, r, p, mode),
                  "report does not echo its instance")
        if mode == "exhaustive":
            ps.expect(label, code == 0 and rep["status"] == "EXHAUSTIVE",
                      f"exit {code}, status {rep['status']}, expected EXHAUSTIVE")
            ps.expect(label, rep["max_dim_found"] == exhaustive_dim,
                      f"dimension {rep['max_dim_found']}, expected {exhaustive_dim}")
        else:
            ps.expect(label, code == 3 and rep["status"] == "LOWER_BOUND_ONLY",
                      f"exit {code}, status {rep['status']}, expected LOWER_BOUND_ONLY")
            ps.expect(label, rep["seed"] == inp["seed"], "greedy seed not echoed")
            ps.expect(label, rep["max_dim_found"] <= exhaustive_dim,
                      f"greedy dimension {rep['max_dim_found']} > exhaustive {exhaustive_dim}")
        _check_witness(ps, label, rep["witness"], r, rep["max_dim_found"])
        ps.reports.append(rep)


# ---------------------------------------------------------------------------
# conjecture-n4

def _conjecture_inputs(seed: int) -> dict:
    n, r, p = CONJECTURE
    field_ = PrimeField(p)
    lower = witness_conjecture(n, r, field_)
    return {
        "seed": seed,
        "bases": {CONJECTURE: canonical_bases(n, r, field_)},
        "lower_witness": serialize.space_to_obj(lower) if lower else None,
        "argv": ["conjecture", "--n", str(n), "--r", str(r), "--field", str(p),
                 "--budget", str(CONJECTURE_BUDGET), "--seed", str(seed)],
    }


def _conjecture_pass(inp: dict, ps: Pass):
    n, r, p = CONJECTURE
    label = f"conjecture n={n} r={r} p={p} budget={CONJECTURE_BUDGET}"
    code, res = _cli(ps, label, inp["argv"])
    if res is None:
        return
    rep = res["search_report"]
    ps.expect(label, res["lower_bound_dimension"] == CONJECTURE_LOWER_BOUND,
              f"lower bound {res['lower_bound_dimension']}, expected {CONJECTURE_LOWER_BOUND}")
    ps.expect(label, res["conjectured_dimension"] == CONJECTURE_LOWER_BOUND,
              f"conjectured dimension {res['conjectured_dimension']}")
    expected_code = {"UNRESOLVED": 3, "CONSISTENT": 0}.get(res["status"])
    ps.expect(label, expected_code is not None and code == expected_code,
              f"status {res['status']} with exit {code}")
    ps.expect(label, res["lower_bound_witness"] == inp["lower_witness"],
              "lower-bound witness differs from the catalog staircase")
    ps.expect(label, rep["budget"] == CONJECTURE_BUDGET and rep["evaluations"] <= CONJECTURE_BUDGET,
              f"evaluations {rep['evaluations']} against budget {rep['budget']}")
    _check_witness(ps, label, rep["witness"], r, rep["max_dim_found"])
    ps.reports.append(rep)


# ---------------------------------------------------------------------------
# verify-witness

def _staircase_q(n: int, r: int) -> AffineMatrixSpace:
    """Superdiagonal ones in rows 0..r-1 plus free entries right of them."""
    base = unit_matrix(0, 1, n, RATIONALS)
    for i in range(1, r):
        base = base + unit_matrix(i, i + 1, n, RATIONALS)
    dirs = tuple(unit_matrix(i, j, n, RATIONALS) for i in range(r) for j in range(i + 2, n))
    return AffineMatrixSpace(RATIONALS, n, base, dirs)


def _verify_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    f5, f7 = PrimeField(5), PrimeField(7)
    full = witness_rank_full(5, f7)
    one = witness_rank_one(5, f5)
    q_space = _staircase_q(*Q_STAIRCASE)
    # one extra direction on or below the diagonal closes a cycle in the
    # shift's graph, so the member base + E_ij is not nilpotent
    i, j = rng.choice([(i, j) for i in range(5) for j in range(i + 1)])
    refuted = AffineMatrixSpace(f7, 5, full.base, full.directions + (unit_matrix(i, j, 5, f7),))
    calls = [
        # (label, span, function, args, kwargs, expected status, expected method)
        ("rank-full(5,F7) nilpotent", "spaces.verify_all_nilpotent",
         verify_all_nilpotent, (full,), {}, PROVED, "grid"),
        ("rank-full(5,F7) constant rank 4", "spaces.verify_constant_rank",
         verify_constant_rank, (full, 4), {}, PROVED, "exhaustive"),
        ("rank-full(5,F7) trace conditions", "reduction.trace_condition_verify",
         trace_condition_verify, ([full.base, *full.directions], 4, f7), {}, PROVED, "grid"),
        ("rank-full(5,F7) direction nilpotency", "spaces.direction_nilpotency",
         direction_nilpotency, (full,), {}, PROVED, "grid"),
        ("rank-one(5,F5) nilpotent", "spaces.verify_all_nilpotent",
         verify_all_nilpotent, (one,), {}, PROVED, "exhaustive"),
        ("rank-one(5,F5) constant rank 1", "spaces.verify_constant_rank",
         verify_constant_rank, (one, 1), {}, PROVED, "exhaustive"),
        ("staircase(4,2,Q) nilpotent", "spaces.verify_all_nilpotent",
         verify_all_nilpotent, (q_space,), {}, PROVED, "grid"),
        ("staircase(4,2,Q) constant rank 2", "spaces.verify_constant_rank",
         verify_constant_rank, (q_space, Q_STAIRCASE[1]), {"seed": seed}, SAMPLED_PASS, "random"),
        (f"rank-full(5,F7)+E{i}{j} nilpotent", "spaces.verify_all_nilpotent",
         verify_all_nilpotent, (refuted,), {}, REFUTED, "grid"),
    ]
    return {"seed": seed, "calls": calls}


def _verify_pass(inp: dict, ps: Pass):
    for label, span, fn, args, kwargs, status, method in inp["calls"]:
        out = ps.call(label, span, fn, *args, **kwargs)
        if out is None:
            continue
        ps.expect(label, (out.status, out.method) == (status, method),
                  f"{out.status} ({out.method}), expected {status} ({method})")
        ps.expect(label, out.status != PROVED or out.method in ("grid", "exhaustive"),
                  f"PROVED from method {out.method}")
        if out.status == REFUTED:
            space, w = args[0], out.witness
            ps.expect(label, not is_nilpotent(w.matrix) and space.member(w.coefficients) == w.matrix,
                      "refutation witness does not re-fail nilpotency")


# ---------------------------------------------------------------------------
# probes for the traced run

def pool_probe(key, evaluations: int, bases: dict, ps: Pass) -> dict:
    """Build the pools of one search through public ``build_candidate_pool``.

    ``key`` is the search's (n, r, p, pruning, budget) and ``evaluations``
    the count its report gives; ``bases`` maps (n, r, p) to the canonical
    bases built in set-up.  In the search, each base's pool build and then
    its DFS or greedy run charge one shared budget.  The DFS charges are not
    public, so the probe's bases share the smaller of the budget and the
    search's evaluations, and a base whose turn comes after that is spent
    gets no pool.  The probe thus never charges more than the search did,
    and it is exact unless the search ran out of budget after some DFS or
    greedy run: then a later base may get a larger pool here than it got
    in the search.  Returns seconds and counts summed over the bases.
    """
    n, r, p, pruning, budget = key
    stats = {"s": 0.0, "lines": 0, "evals": 0, "kept": 0, "trace": 0, "pools": 0, "complete": 0}
    remaining = min(budget, evaluations)
    for idx, base in enumerate(bases[(n, r, p)]):
        stats["pools"] += 1
        if remaining < 1:
            continue
        label = f"build_candidate_pool n={n} r={r} p={p} base #{idx}"
        start = perf_counter()
        pool = ps.call(label, "search.build_candidate_pool", build_candidate_pool,
                       base, r, PrimeField(p), pruning=pruning, budget=remaining)
        if pool is None:
            continue
        stats["s"] += perf_counter() - start
        ps.expect(label, pool.lines_tested == len(pool.candidates) + pool.pruned_by_rank,
                  "lines tested != kept + rejected")
        remaining -= pool.evaluations
        stats["lines"] += pool.lines_tested
        stats["evals"] += pool.evaluations
        stats["kept"] += len(pool.candidates)
        stats["trace"] += pool.pruned_by_trace
        stats["complete"] += pool.complete
    return stats


def matrices_probe(seed: int) -> dict:
    """Per-call time of public ``rank`` and ``is_nilpotent`` on seeded batches
    of 4x4 members base + t*X over F_5: the median over five batches, each
    new, so that no result can come from a cache."""
    rng = random.Random(seed)
    f5 = PrimeField(5)
    bases = canonical_bases(4, 2, f5)
    ps = Pass()
    times = {"rank": [], "is_nilpotent": []}
    for sweep in range(5):
        batch = [
            rng.choice(bases) + ExactMatrix.from_rows(
                f5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            ).scale(rng.randrange(1, 5))
            for _ in range(MATRICES_BATCH)
        ]
        label = f"matrices batch {sweep}"
        start = perf_counter()
        ranks = ps.call(label, "matrices.rank", lambda: [rank(m) for m in batch])
        times["rank"].append(perf_counter() - start)
        start = perf_counter()
        nilpotent = ps.call(label, "matrices.is_nilpotent", lambda: [is_nilpotent(m) for m in batch])
        times["is_nilpotent"].append(perf_counter() - start)
        if ranks is not None:
            ps.expect(label, all(k == rank(m.transpose()) for k, m in zip(ranks, batch)),
                      "rank differs from the rank of the transpose")
        if nilpotent is not None:
            ps.expect(label, all(z == mat_pow(m, 4).is_zero() for z, m in zip(nilpotent, batch)),
                      "is_nilpotent disagrees with M^4 == 0")
    return {
        "metrics": {f"matrices.{name}_us": statistics.median(ts) / MATRICES_BATCH * 1e6
                    for name, ts in times.items()},
        "attempted": ps.attempted,
        "failures": ps.failures,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    build: object          # seed -> inputs, built during set-up
    run_pass: object       # (inputs, Pass) -> None


WORKLOADS = {
    w.name: w for w in (
        Workload("search-n3", _search_inputs, _search_pass),
        Workload("conjecture-n4", _conjecture_inputs, _conjecture_pass),
        Workload("verify-witness", _verify_inputs, _verify_pass),
    )
}
