"""Command-line front end with machine-readable output.

Subcommands: verify, bounds, witness, normalize, search, conjecture.
JSON is the canonical output; text and csv renderings are derived from it.
Exit codes: 0 proved/consistent/success, 1 refuted or conjecture exceeded
(witness emitted), 2 usage error, 3 budget exhausted without resolution.
All randomness flows from --seed, and reports omit wall time, so identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import catalog, reduction, search, serialize, spaces
from .errors import BudgetExceededError, NilspaceError
from .fields import FieldSpec, PrimeField, RATIONALS
from .spaces import DEFAULT_BUDGET, DEFAULT_SAMPLES, PROVED, REFUTED

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNRESOLVED = 3


def _field_arg(text: str):
    if text == "rational":
        return RATIONALS
    try:
        return PrimeField(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--format", choices=("json", "text", "csv"), default="json")
    sub.add_argument("--output", type=Path, default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilspace",
        description="Exact verification, bounds, witnesses and search for "
        "affine spaces of nilpotent fixed-rank matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="verify properties of a space JSON file")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--field", type=_field_arg, default=None,
                   help="override the field recorded in the input file")
    p.add_argument("--nilpotent", action="store_true", help="check all members nilpotent")
    p.add_argument("--rank", type=int, default=None, help="check all members have this exact rank")
    p.add_argument("--directions", action="store_true", help="check the direction span is nilpotent")
    p.add_argument("--corner", action="store_true",
                   help="check direction lower-left entries vanish (shift-matrix base)")
    p.add_argument("--trace", type=int, default=None, metavar="M_MAX",
                   help="check trace conditions on the span of base and directions")
    p.add_argument("--method", choices=("auto", "exhaustive", "grid", "random"), default="auto",
                   help="how --nilpotent and --directions choose their points; "
                   "--rank, --trace and --corner choose their own")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--samples", type=_nonnegative_int, default=DEFAULT_SAMPLES,
                   help="seeded random points a sampled check tests; 0 disables sampling")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("bounds", help="emit all applicable dimension bounds")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--field", type=_field_arg, default=None,
                   help="warn when a bound's field-size hypothesis is violated")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("witness", help="emit a verified witness space")
    p.add_argument("--type", required=True,
                   choices=("rank-full", "rank-one", "conjecture", "counterexample-f2"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--field", type=_field_arg, default=None)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("normalize", help="clear the first column by a shift-polynomial conjugation")
    p.add_argument("--input", type=Path, required=True, help="matrix JSON file")
    p.add_argument("--row", type=int, required=True,
                   help="0-based row of the lowest nonzero entry in column 0")
    _add_common(p)
    p.set_defaults(func=_cmd_normalize)

    p = subs.add_parser("search", help="search the maximal affine dimension")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--field", type=_field_arg, required=True)
    p.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("conjecture", help="test the fixed-rank dimension conjecture at one instance")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--field", type=_field_arg, required=True)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)

    return parser


# ---------------------------------------------------------------------------
# output plumbing

def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, list):
        rows.append((prefix, json.dumps(obj, sort_keys=True)))
    else:
        rows.append((prefix, obj))


def _to_csv(obj) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(obj, list) and obj and all(isinstance(x, dict) for x in obj):
        keys = sorted({k for x in obj for k in x})
        writer.writerow(keys)
        for x in obj:
            writer.writerow([json.dumps(x.get(k), sort_keys=True) for k in keys])
    else:
        rows: list = []
        _flatten("", obj, rows)
        writer.writerow(("key", "value"))
        for key, value in rows:
            writer.writerow((key, value))
    return buf.getvalue()


def _emit(args, obj, text: str | None = None) -> None:
    if args.format == "json":
        payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        payload = _to_csv(obj)
    else:
        payload = (text if text is not None else json.dumps(obj, sort_keys=True, indent=2)) + "\n"
    if args.output is not None:
        args.output.write_text(payload)
    else:
        sys.stdout.write(payload)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise NilspaceError(f"malformed JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify(args) -> int:
    doc = _load_json(args.input)
    if isinstance(doc, dict) and "space" in doc and "base" not in doc:
        doc = doc["space"]  # accept files produced by the witness subcommand
    space = serialize.space_from_obj(doc, field=args.field)
    kw = dict(sample_count=args.samples, seed=args.seed)
    requested = (
        ("nilpotent", args.nilpotent, lambda: spaces.verify_all_nilpotent(
            space, args.budget, method=args.method, **kw)),
        ("constant_rank", args.rank is not None, lambda: spaces.verify_constant_rank(
            space, args.rank, args.budget, **kw)),
        ("directions_nilpotent", args.directions, lambda: spaces.direction_nilpotency(
            space, args.budget, method=args.method, **kw)),
        ("corner_entries", args.corner, lambda: spaces.corner_entry_check(space)),
        ("trace_conditions", args.trace is not None, lambda: reduction.trace_condition_verify(
            [space.base, *space.directions], args.trace, space.field,
            budget=args.budget, **kw)),
    )
    if not any(wanted for _, wanted, _ in requested):
        raise NilspaceError("nothing to verify: pass --nilpotent, --rank, "
                            "--directions, --corner and/or --trace")
    if args.method != "auto" and not (args.nilpotent or args.directions):
        raise NilspaceError(f"--method {args.method} applies only to --nilpotent "
                            "and --directions")
    # a check that refuses its budget is named on stderr, and the others
    # still run and are reported
    checks: dict[str, spaces.VerificationOutcome] = {}
    refused = False
    for name, wanted, check in requested:
        if wanted:
            try:
                checks[name] = check()
            except BudgetExceededError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                refused = True
    obj = {name: serialize.outcome_to_obj(out) for name, out in checks.items()}
    lines = [f"{name}: {out.status} ({out.method}, {out.checks_performed} checks)"
             for name, out in checks.items()]
    _emit(args, obj, "\n".join(lines) or None)
    statuses = [out.status for out in checks.values()]
    if REFUTED in statuses:
        return EXIT_REFUTED
    if refused or any(s != PROVED for s in statuses):
        return EXIT_UNRESOLVED
    return EXIT_OK


def _cmd_bounds(args) -> int:
    reports = catalog.bound_reports(args.n, args.r, args.k)
    if args.field is not None:
        for rep in reports:
            if catalog.hypothesis_violated(rep.hypothesis, args.field, args.n, args.r):
                _warn(
                    f"bound '{rep.name}' assumes {rep.hypothesis}, violated by "
                    f"the configured field of size {args.field.cardinality}"
                )
    obj = [serialize.bound_report_to_obj(r) for r in reports]
    text = "\n".join(
        f"{r.name}{dict(r.inputs)}: {r.value}   [{r.hypothesis}]" for r in reports
    )
    _emit(args, obj, text)
    return EXIT_OK


def _cmd_witness(args) -> int:
    kind = args.type
    if kind == "counterexample-f2":
        space = catalog.counterexample_f2()
        target_rank = 1
    else:
        if args.field is None or args.n is None:
            raise NilspaceError(f"--type {kind} requires --n and --field")
        if kind == "conjecture" and args.r is None:
            raise NilspaceError("--type conjecture requires --r")
        target_rank = {"rank-full": args.n - 1, "rank-one": 1}.get(kind, args.r)
        _hypothesis_warnings(args.n, target_rank, args.field)
        if kind == "rank-full":
            space = catalog.witness_rank_full(args.n, args.field)
        elif kind == "rank-one":
            space = catalog.witness_rank_one(args.n, args.field)
        else:
            maybe = catalog.witness_conjecture(args.n, args.r, args.field, args.budget)
            if maybe is None:
                _warn("no verified witness producible for these parameters within budget")
                return EXIT_UNRESOLVED
            space = maybe
    nilp = spaces.verify_all_nilpotent(space, args.budget)
    ranks = spaces.verify_constant_rank(space, target_rank, args.budget)
    obj = {
        "space": serialize.space_to_obj(space),
        "verification": {
            "nilpotent": serialize.outcome_to_obj(nilp),
            "constant_rank": serialize.outcome_to_obj(ranks),
        },
        "dimension": space.d,
        "rank": target_rank,
    }
    text = (f"witness {kind}, n={space.n}, dimension={space.d}: "
            f"nilpotent {nilp.status}, constant rank {ranks.status}")
    _emit(args, obj, text)
    if REFUTED in (nilp.status, ranks.status):
        return EXIT_REFUTED
    if nilp.status == ranks.status == PROVED:
        return EXIT_OK
    return EXIT_UNRESOLVED


def _cmd_normalize(args) -> int:
    doc = _load_json(args.input)
    matrix = serialize.matrix_from_obj(doc)
    sp, result = reduction.clear_first_column(matrix, args.row)
    obj = {
        "shift_polynomial": serialize.shift_poly_to_obj(sp),
        "result": serialize.matrix_to_obj(result),
    }
    text = (f"coefficients: {[str(c) for c in sp.coefficients]}\n"
            f"first column now: {[str(row[0]) for row in result.rows]}")
    _emit(args, obj, text)
    return EXIT_OK


def _hypothesis_warnings(n: int, r: int, field: FieldSpec) -> None:
    """Warn when the field is below the hypothesis of the border-case value
    at rank r: rank one, or rank n - 1."""
    if r == 1 and catalog.hypothesis_violated(catalog.HYP_RANK_ONE, field, n):
        _warn("the rank-1 maximal dimension assumes |K| >= 3; this field is smaller")
    if r == n - 1 and catalog.hypothesis_violated(catalog.HYP_RANK_FULL, field, n):
        _warn("the rank-(n-1) maximal dimension assumes |K| >= n+1; this field is smaller")


def _cmd_search(args) -> int:
    _hypothesis_warnings(args.n, args.r, args.field)
    report = search.max_affine_dimension(
        args.n, args.r, args.field, mode=args.mode, budget=args.budget, seed=args.seed,
    )
    obj = serialize.search_report_to_obj(report)
    print(f"searched {report.evaluations} member evaluations in "
          f"{report.wall_time:.2f}s", file=sys.stderr)
    text = (f"max dimension {report.max_dim_found} ({report.status}) for "
            f"n={report.n}, r={report.r} over F_{report.p}")
    _emit(args, obj, text)
    return EXIT_OK if report.status == search.EXHAUSTIVE else EXIT_UNRESOLVED


def _cmd_conjecture(args) -> int:
    _hypothesis_warnings(args.n, args.r, args.field)
    result = search.check_conjecture(
        args.n, args.r, args.field, budget=args.budget, seed=args.seed,
    )
    obj = serialize.conjecture_test_to_obj(result)
    text = (f"{result.status}: conjectured {result.conjectured_dimension}, "
            f"lower bound {result.lower_bound_dimension}, search "
            f"{result.search_report.max_dim_found} ({result.search_report.status})")
    _emit(args, obj, text)
    if result.status == search.WITNESS_EXCEEDS:
        return EXIT_REFUTED
    if result.status == search.CONSISTENT:
        return EXIT_OK
    return EXIT_UNRESOLVED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except (NilspaceError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
