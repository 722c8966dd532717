"""In-memory spans recorded from outside the program.

A span is opened around each public call the benchmark makes, and around
public functions wrapped at the module attribute through which the program
itself calls them (for example ``nilspace.search.verify_all_nilpotent``,
which the search uses to re-verify its witness).  No private ``_name`` is
wrapped, so refactors that delete internals leave the trace intact.

A span's name is ``<layer>.<function>``; its layer is the nilspace module
that owns the function.  Spans stay in memory and are written once, when
the run ends.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans as dicts: id, name, parent id, start, end, attrs, error."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "attrs": {},
            "error": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` inside a span; ``describe(args, kwargs, result)`` returns
        attributes recorded on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec["attrs"].update(describe(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each ``(module, attribute, span name)`` by a traced
        wrapper for the duration of the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, DESCRIBE.get(name)))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def span_cost_s(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds one span adds to a call: a traced no-op minus a bare one,
    per call, the median over ``rounds``.  A traced pass opens only tens
    of spans, whose cost is far below the run-to-run noise of pass times,
    so the tracing overhead is this cost times the span count."""

    def noop():
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer().wrap("bench.noop", noop)
        start = perf_counter()
        for _ in range(calls):
            traced()
        with_span = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            noop()
        costs.append((with_span - (perf_counter() - start)) / calls)
    return statistics.median(costs)


def program_targets(nilspace) -> list[tuple]:
    """Public functions wrapped where the program calls them."""
    search, catalog = nilspace.search, nilspace.catalog
    reduction, serialize = nilspace.reduction, nilspace.serialize
    return [
        (search, "test_conjecture", "search.test_conjecture"),
        (search, "max_affine_dimension", "search.max_affine_dimension"),
        (search, "witness_conjecture", "catalog.witness_conjecture"),
        (search, "verify_all_nilpotent", "spaces.verify_all_nilpotent"),
        (search, "verify_constant_rank", "spaces.verify_constant_rank"),
        (catalog, "verify_all_nilpotent", "spaces.verify_all_nilpotent"),
        (catalog, "verify_constant_rank", "spaces.verify_constant_rank"),
        # the pool builder imports this from the module at call time
        (reduction, "linear_trace_constraints", "reduction.linear_trace_constraints"),
        (serialize, "search_report_to_obj", "serialize.search_report_to_obj"),
        (serialize, "conjecture_test_to_obj", "serialize.conjecture_test_to_obj"),
    ]


def _describe_outcome(args, kwargs, out):
    space = args[0]
    return {
        "field": "Fp" if hasattr(space.field, "p") else "Q",
        "status": out.status,
        "method": out.method,
        "checks": out.checks_performed,
        "samples": out.sample_count or 0,
    }


def _describe_report(args, kwargs, rep):
    return {
        "key": [rep.n, rep.r, rep.p, rep.pruning, rep.budget],
        "mode": rep.mode,
        "nodes": rep.nodes_explored,
        "evaluations": rep.evaluations,
        "budget": rep.budget,
        "dim": rep.max_dim_found,
        "status": rep.status,
    }


DESCRIBE = {
    "search.max_affine_dimension": _describe_report,
    "spaces.verify_all_nilpotent": _describe_outcome,
    "spaces.direction_nilpotency": _describe_outcome,
    "spaces.verify_constant_rank": _describe_outcome,
    "reduction.trace_condition_verify": lambda a, k, out: {"checks": out.checks_performed},
}

LAYERS = ("cli", "search", "catalog", "spaces", "reduction", "serialize")


def _dur(span) -> float:
    return span["end"] - span["start"]


def rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def span_metrics(spans: list[dict], pools: dict) -> dict:
    """Per-layer numbers of the spans of one traced pass.

    ``pools`` maps the id of each search span to the pool probe of that
    search (``workloads.pool_probe``), made right after it.  The DFS and
    greedy times are derived: the search span minus the probe's pool time
    and the re-verify spans.  Their evaluation counts are derived the same
    way from the deterministic counters, so they do not carry the timing
    noise of the difference.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    m = {f"{layer}.{what}": 0.0 for layer in LAYERS for what in ("self_s", "failed")}
    for s in spans:
        layer = s["name"].split(".")[0]
        m[f"{layer}.self_s"] += _dur(s) - sum(_dur(c) for c in children.get(s["id"], ()))
        if s["error"] is not None:
            m[f"{layer}.failed"] += 1

    total = {"s": 0.0, "nodes": 0, "evaluations": 0, "budget": 0}
    pool = {"s": 0.0, "lines": 0, "evals": 0, "kept": 0, "trace": 0, "pools": 0, "complete": 0}
    mode_s = {"exhaustive": 0.0, "greedy": 0.0}
    mode_nodes = {"exhaustive": 0, "greedy": 0}
    mode_evals = {"exhaustive": 0, "greedy": 0}
    reverify_s = 0.0
    for s in spans:
        if s["name"] != "search.max_affine_dimension" or s["error"]:
            continue
        a = s["attrs"]
        rv = sum(_dur(c) for c in children.get(s["id"], ()) if c["name"].startswith("spaces."))
        probe = pools.get(s["id"], {})
        for k in pool:
            pool[k] += probe.get(k, 0)
        total["s"] += _dur(s)
        total["nodes"] += a["nodes"]
        total["evaluations"] += a["evaluations"]
        total["budget"] += a["budget"]
        reverify_s += rv
        mode_s[a["mode"]] += _dur(s) - probe.get("s", 0.0) - rv
        mode_nodes[a["mode"]] += a["nodes"]
        mode_evals[a["mode"]] += a["evaluations"] - probe.get("evals", 0)
    m.update({
        "search.total.s": total["s"],
        "search.nodes": total["nodes"],
        "search.evaluations": total["evaluations"],
        "search.budget_used_frac": rate(total["evaluations"], total["budget"]),
        "search.pool.s": pool["s"],
        "search.pool.lines_tested": pool["lines"],
        "search.pool.lines_per_s": rate(pool["lines"], pool["s"]),
        "search.pool.evals_per_s": rate(pool["evals"], pool["s"]),
        "search.pool.accept_ratio": rate(pool["kept"], pool["lines"]),
        "search.pool.pruned_by_trace": pool["trace"],
        "search.pool.complete": rate(pool["complete"], pool["pools"]),
        "search.pool.share": rate(pool["s"], total["s"]),
        "search.dfs.s": mode_s["exhaustive"],
        "search.dfs.nodes_per_s": rate(mode_nodes["exhaustive"], mode_s["exhaustive"]),
        "search.dfs.evaluations": mode_evals["exhaustive"],
        "search.greedy.s": mode_s["greedy"],
        "search.greedy.nodes": mode_nodes["greedy"],
        "search.greedy.evaluations": mode_evals["greedy"],
        "search.reverify.s": reverify_s,
    })

    # verifier spans, wherever they sit: called by the benchmark, by the
    # search's re-verification or by the catalog
    buckets = {"fp_grid": [0.0, 0], "fp_exhaustive": [0.0, 0], "q_grid": [0.0, 0],
               "rank": [0.0, 0], "refute": [0.0, 0], "trace": [0.0, 0]}
    sampled = 0
    for s in spans:
        a, name = s["attrs"], s["name"]
        if s["error"] or not a:
            continue
        if name == "reduction.trace_condition_verify":
            key = "trace"
        elif a.get("status") == "REFUTED":
            key = "refute"
        elif name == "spaces.verify_constant_rank":
            key = "rank"
        elif name in ("spaces.verify_all_nilpotent", "spaces.direction_nilpotency"):
            key = ("fp_" if a["field"] == "Fp" else "q_") + a["method"]
        else:
            continue
        if a.get("method") == "random":
            sampled += a["samples"]
        bucket = buckets.setdefault(key, [0.0, 0])
        bucket[0] += _dur(s)
        bucket[1] += a["checks"]
    for kind in ("fp_grid", "fp_exhaustive", "q_grid"):
        secs, points = buckets[kind]
        m[f"spaces.nilpotent.{kind}.s"] = secs
        m[f"spaces.nilpotent.{kind}.points_per_s"] = rate(points, secs)
    m["spaces.constant_rank.s"] = buckets["rank"][0]
    m["spaces.constant_rank.points_per_s"] = rate(buckets["rank"][1], buckets["rank"][0])
    m["spaces.sampled_checks"] = sampled
    m["spaces.refute.s"] = buckets["refute"][0]
    m["reduction.trace_verify.s"] = buckets["trace"][0]
    m["reduction.trace_verify.points_per_s"] = rate(buckets["trace"][1], buckets["trace"][0])
    m["reduction.trace_constraints.s"] = sum(
        _dur(s) for s in spans if s["name"] == "reduction.linear_trace_constraints")
    m["catalog.witness_conjecture.s"] = sum(
        _dur(s) for s in spans if s["name"] == "catalog.witness_conjecture")

    library = ("search.max_affine_dimension", "search.test_conjecture")
    m["cli.overhead.s"] = sum(
        _dur(s) - sum(_dur(c) for c in children.get(s["id"], ()) if c["name"] in library)
        for s in spans if s["name"] == "cli.main")
    return m
