#!/usr/bin/env python3
"""nilspace benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload search-n3 --seed 1 --seconds 36 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The run builds the workload's inputs once, then repeats its
fixed pass until ``--seconds`` have passed.  Each pass runs in a process
forked from the set-up process, one at a time, so no pass inherits caches
a previous pass filled: a user of the command line pays for them on every
call.  The first pass is run twice in its process, and both copies must
print byte-identical stdout, as must every later pass (search-n3 and
conjecture-n4 print the command line's JSON; verify-witness prints nothing).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median over 12 fresh
  interpreters, three before each of the first passes, of importing
  nilspace and building the inputs), ``wall_per_ref`` and ``peak_rss_mb``
  (largest resident set of any pass process).  ``wall_per_ref`` is the
  time of each program call divided by that of a fixed pure-Python
  reference loop timed right before and right after it, per call the mean
  of the faster half of these ratios across the passes, summed over one
  pass's calls.  A shared VM's speed swings by up to 2x within tens of
  seconds; the ratio to a reference taken at the same moment cancels
  that, which no estimate of ``wall_s`` alone can;
* ``--trace 1``: the per-layer metrics, from spans recorded around public
  calls (see ``tracing.py``), the pool and kernel probes, and the tracing
  overhead: the spans of a pass times the measured cost of one span.

The line before it is a summary with every named end-to-end metric,
including ``wall_s`` in seconds, the median pass time and the result-quality numbers
``dim_found``, ``exhaustive_frac`` and ``failed_frac``, which are reported
but not gated.  Exit status 2 means the benchmark could not run at all
(for example, no ``src/nilspace``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 12
SETUP_PER_PASS = 3
MIN_PASSES = 3
REF_STEPS = 2000
REF_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up and print the seconds (used by the run itself)")
    return parser.parse_args(argv)


def import_nilspace():
    """Import nilspace from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nilspace

    if Path(nilspace.__file__).resolve().parent != SRC / "nilspace":
        raise ImportError(f"nilspace imported from {nilspace.__file__}, not {SRC}")
    return nilspace


def setup_probe(args) -> int:
    start = perf_counter()
    import_nilspace()
    import workloads

    workloads.WORKLOADS[args.workload].build(args.seed)
    print(perf_counter() - start)
    return 0


def setup_sample(args) -> float | None:
    """One set-up time, in a fresh interpreter so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    try:
        return float(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"set-up probe failed (exit {proc.returncode}): {proc.stderr[-500:]}",
              file=sys.stderr)
        return None


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of small-tuple modular arithmetic,
    the kind of work the program's kernels do.  It calls no nilspace code,
    so no change to the program moves it: it tracks the machine's speed."""
    rows = ((1, 2, 3, 4), (5, 6, 0, 1), (2, 3, 4, 5), (6, 0, 1, 2))
    start = perf_counter()
    for k in range(REF_STEPS):
        rows = tuple(tuple((a * 3 + b + k) % 7 for a, b in zip(r, r[::-1])) for r in rows)
    return perf_counter() - start


def reference() -> float:
    """The machine's speed now: the fastest of a few reference loops."""
    return min(reference_loop() for _ in range(REF_REPEATS))


def forked(fn):
    """Run ``fn()`` in a forked child and return its JSON result, or None
    when the child died without one.  The child never returns here."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        except Exception:  # report, then leave: the child must not go on as the parent
            traceback.print_exc()
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else None


def one_pass(workload, inputs, targets, repeat: bool) -> dict:
    """Run one pass in this process and return what the parent needs.

    With ``targets`` the pass is traced, and right after each call the
    pools of the searches it ran are rebuilt through ``build_candidate_pool``,
    untimed, so that the DFS time derived from the two is measured under
    the same machine load.  The spans the rebuild opens (the pool builder
    calls the wrapped ``linear_trace_constraints``) are dropped: they are
    the benchmark's work, not the program's.  With ``repeat`` the pass runs
    a second, untimed time, whose stdout must match the first.
    """
    from tracing import Tracer, span_metrics
    from workloads import Pass, pool_probe

    ps = Pass(tracer=Tracer() if targets else None, reference=reference)
    layer, spans, probe, pools = None, None, Pass(), {}
    if targets:
        def probe_new_searches():
            new = [s for s in ps.tracer.spans
                   if s["name"] == "search.max_affine_dimension" and s["attrs"]
                   and s["id"] not in pools]
            for s in new:
                kept = len(ps.tracer.spans)
                pools[s["id"]] = pool_probe(tuple(s["attrs"]["key"]), s["attrs"]["evaluations"],
                                            inputs.get("bases", {}), probe)
                del ps.tracer.spans[kept:]

        ps.after_call = probe_new_searches
        with ps.tracer.patched(targets):
            workload.run_pass(inputs, ps)
        spans = ps.tracer.spans
        layer = span_metrics(spans, pools)
    else:
        workload.run_pass(inputs, ps)
    if repeat:
        again = Pass()
        workload.run_pass(inputs, again)
        for label, text in again.stdout.items():
            if text != ps.stdout.get(label):
                ps.fail(label, "stdout differs when the pass repeats in the same process")
    return {"wall_s": ps.wall_s, "op_s": ps.op_s, "ref_s": ps.ref_s, "stdout": ps.stdout,
            "reports": ps.reports, "attempted": ps.attempted + probe.attempted,
            "failures": {**ps.failures, **probe.failures},
            "probe_failed": len(probe.failures), "layer": layer, "spans": spans,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_passes(workload, inputs, seconds, before_pass, targets=None) -> list[dict]:
    """Repeat the pass until ``seconds`` have passed, at least MIN_PASSES
    times, calling ``before_pass(i)`` before pass i.  In a traced run
    (``targets`` given) every second pass is traced."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        i = len(passes)
        before_pass(i)
        traced = targets if targets and i % 2 else None
        result = forked(lambda: one_pass(workload, inputs, traced, repeat=i == 0))
        if result is None:
            result = {"wall_s": 0.0, "op_s": {}, "ref_s": {}, "stdout": {}, "reports": [],
                      "attempted": 1, "failures": {f"pass {i}": "the pass process died"},
                      "probe_failed": 0, "layer": None, "spans": None, "rss_mb": 0.0}
        result["traced"] = traced is not None
        passes.append(result)
    return passes


def check_determinism(passes):
    """Every pass must print byte-identical stdout to the first."""
    first = passes[0]["stdout"]
    for ps in passes[1:]:
        for label, text in ps["stdout"].items():
            if text != first.get(label):
                ps["failures"].setdefault(label, "stdout differs from the first pass")


def best_pass_s(passes) -> float:
    """The fastest time of each call across the passes, summed over the
    calls of one pass: the least contended estimate of one pass."""
    labels = passes[0]["op_s"]
    return sum(min(ps["op_s"].get(label, float("inf")) for ps in passes) for label in labels)


def wall_per_ref(passes) -> float:
    """The time of each call over the mean of the reference times taken
    around it; per call the mean of the faster half of these ratios across
    the passes, summed over the calls of one pass.  The faster half, not
    the fastest: a single ratio can be low by chance when the machine sped
    up just after its first reference, and the minimum would pick that."""
    total = 0.0
    for label in passes[0]["op_s"]:
        ratios = sorted(ps["op_s"][label] / statistics.fmean(ps["ref_s"][label])
                        for ps in passes if label in ps["op_s"])
        total += statistics.fmean(ratios[:max(1, len(ratios) // 2)])
    return total


def quality(passes) -> dict:
    """dim_found and exhaustive_frac of the first pass's search instances."""
    reports = passes[0]["reports"]
    exhaustive = [r for r in reports if r["mode"] == "exhaustive"]
    return {
        "dim_found": sum(r["max_dim_found"] for r in reports) if reports else None,
        "exhaustive_frac": (sum(r["status"] == "EXHAUSTIVE" for r in exhaustive) / len(exhaustive)
                            if exhaustive else None),
    }


def layer_metrics(passes, kernels, span_cost) -> dict:
    """Per-layer metrics: span and pool-probe metrics averaged over the
    traced passes, the kernel probe, the best traced and untraced pass
    times (as ``best_pass_s`` gives them), and the tracing overhead: the
    spans of a pass times ``span_cost``, the seconds one span adds.  The
    difference of the two pass times is not reported as the overhead: on
    a shared 2-core VM it swings by tenths of a second either way, far more than
    tens of spans cost."""
    traced = [ps for ps in passes if ps["traced"] and ps["layer"]]
    untraced = [ps for ps in passes if not ps["traced"]]
    if not traced:
        return {}
    metrics = {name: statistics.fmean(ps["layer"][name] for ps in traced)
               for name in traced[0]["layer"]}
    metrics["search.failed"] += sum(ps["probe_failed"] for ps in traced)
    metrics.update(kernels["metrics"])
    metrics["matrices.failed"] = len(kernels["failures"])
    q = quality(traced)
    metrics["search.dim_found"] = q["dim_found"] or 0
    metrics["search.exhaustive_frac"] = q["exhaustive_frac"] or 0.0
    metrics["serialize.json_bytes"] = sum(len(t.encode()) for t in traced[0]["stdout"].values())
    metrics["trace.wall_s"] = best_pass_s(traced)
    metrics["trace.untraced_wall_s"] = best_pass_s(untraced)
    metrics["trace.spans"] = statistics.fmean(len(ps["spans"]) for ps in traced)
    metrics["trace.span_cost_us"] = span_cost * 1e6
    metrics["trace.overhead_s"] = metrics["trace.spans"] * span_cost
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nilspace" / "__init__.py").is_file():
        print(f"error: no nilspace sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    nilspace = import_nilspace()
    import numpy

    import workloads
    from tracing import program_targets, span_cost_s

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)

    # set-up samples are spread over the run, so that they see the same
    # machine speed as the passes
    setup_samples = []

    def before_pass(i):
        if not args.trace:
            for _ in range(min(SETUP_PER_PASS, SETUP_SAMPLES - len(setup_samples))):
                setup_samples.append(setup_sample(args))

    targets = program_targets(nilspace) if args.trace else None
    passes = run_passes(workload, inputs, args.seconds, before_pass, targets)
    check_determinism(passes)
    extra = []  # operations outside the passes: set-up samples, kernel probe

    if args.trace:
        kernels = forked(lambda: workloads.matrices_probe(args.seed))
        if kernels is None:
            kernels = {"metrics": {}, "attempted": 1, "failures": {"matrices probe": "died"}}
        extra.append(kernels)
        metrics = layer_metrics(passes, kernels, span_cost_s())
        OUT.mkdir(exist_ok=True)
        for i, ps in enumerate(p for p in passes if p["traced"]):
            path = OUT / f"spans-{args.workload}-seed{args.seed}-pass{i}.json"
            path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "spans": ps["spans"]}, indent=1) + "\n")
    else:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(args))
        extra.append({"attempted": len(setup_samples),
                      "failures": {f"set-up sample {i}": "failed"
                                   for i, t in enumerate(setup_samples) if t is None}})
        setup_samples = [t for t in setup_samples if t is not None]
        metrics = {
            "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
            "wall_per_ref": wall_per_ref(passes),
            "peak_rss_mb": max(ps["rss_mb"] for ps in passes),
        }

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"error: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 1

    attempted = sum(ps["attempted"] for ps in passes + extra)
    failed = sum(len(ps["failures"]) for ps in passes + extra)
    for ps in passes + extra:
        for label, reason in ps["failures"].items():
            print(f"FAILED {label}: {reason}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "passes": len(passes), "pass_wall_s": [ps["wall_s"] for ps in passes],
        "wall_median_s": statistics.median(ps["wall_s"] for ps in passes if not ps["traced"]),
        **quality(passes), "failed_frac": failed / attempted,
    }
    if not args.trace:
        summary.update(metrics)
        summary["wall_s"] = best_pass_s(passes)
        summary["setup_samples_s"] = setup_samples
        summary["op_s"] = [ps["op_s"] for ps in passes]
        summary["ref_s"] = [ps["ref_s"] for ps in passes]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
