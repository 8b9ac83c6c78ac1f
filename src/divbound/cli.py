"""Command-line surface: measure, bounds, sweep, verify.

Exit codes: 0 success, 1 property violation, 2 usage or parse error,
3 validation error (a vector or problem file that is not valid input),
4 internal error (any other exception; its traceback follows the
one-line report on stderr).  The environment variable
DIVBOUND_SEED overrides the default --seed; when verify reads it (no --seed
given), a value that is not an integer >= 0 is a usage error (exit 2), as
is a negative --seed.
DIVBOUND_VERIFY_CORRUPT=1 is a test hook that injects a chain violation so
the detector path can be exercised end to end.

verify runs its suites in worker processes forked with os.fork when more
than one CPU is available; its output is byte-identical for a given
(--trials, --seed, --n-max) either way, and an error raised in a worker is
reported with its type and exit code as it would be in this process, its
worker traceback attached.  A worker that ends without its suite's result
is an internal error (exit 4).  verify reads no input file, so it never
exits 3: a drawn row that is not a distribution is an internal error too.
The argument parser is built once per process and serves every main call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from typing import List, Optional

from . import bounds as _bounds
from . import verify as _verify
from .distributions import PERMISSIVE, STRICT, ValidationFailure, validate
from .formats import (
    S_GRID_MAX_POINTS,
    ParseFailure,
    fmt_real,
    load_problem,
    load_vector,
    parse_s_grid,
    render_rows,
)
from .kernel import ArgumentError, DomainError
from .measures import MeasureId, measure_value

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _default_seed() -> int:
    env = os.environ.get("DIVBOUND_SEED")
    if env is None:
        return 42
    try:
        seed = int(env)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise ArgumentError(f"DIVBOUND_SEED must be an integer >= 0, got {env!r}")


@functools.cache  # parse_args changes nothing in the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbound",
        description="Symmetric divergence measures and certified Bayes-error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate one divergence measure between two vectors")
    p.add_argument("--p", required=True, metavar="FILE", help="first probability vector file")
    p.add_argument("--q", required=True, metavar="FILE", help="second probability vector file")
    p.add_argument(
        "--measure",
        required=True,
        help="measure spec: Delta|I|h|d|J|T|Psi, D_dDelta|D_dh|D_dI|D_hI|D_hDelta|D_IDelta, or zeta:S / xi:S",
    )
    p.add_argument("--mode", choices=(STRICT, PERMISSIVE), default=STRICT)
    p.add_argument("--format", choices=("table", "machine"), default="table")

    p = sub.add_parser("bounds", help="exact Bayes error and the full bound report")
    p.add_argument("--problem", required=True, metavar="FILE")
    p.add_argument(
        "--s-grid",
        help=(
            f"family orders: list a,b,... or range a:b:n with n at most {S_GRID_MAX_POINTS}"
            " (write --s-grid=-1,... for negative values)"
        ),
    )
    p.add_argument("--format", choices=("table", "machine"), default="table")

    p = sub.add_parser("sweep", help="sweep a family order and tabulate both bounds")
    p.add_argument("--problem", required=True, metavar="FILE")
    p.add_argument("--family", required=True, choices=("zeta", "xi"))
    p.add_argument(
        "--s-grid",
        required=True,
        help=(
            f"range spec a:b:n, n from 2 to {S_GRID_MAX_POINTS}"
            " (write --s-grid=-1:1:9 for negative endpoints)"
        ),
    )
    p.add_argument("--format", choices=("table", "machine"), default="table")

    p = sub.add_parser("verify", help="run the randomized invariant suites")
    trials_help = f"trials of the chain suites, 1 to {_verify.TRIALS_LIMIT}"
    p.add_argument("--trials", type=int, default=1000, help=trials_help)
    p.add_argument("--seed", type=int, default=None, help="default: $DIVBOUND_SEED or 42")
    n_max_help = f"largest alphabet size drawn, 2 to {_verify.N_MAX_LIMIT}"
    p.add_argument("--n-max", type=int, default=64, help=n_max_help)
    p.add_argument("--format", choices=("table", "machine"), default="table")

    return parser


def _cmd_measure(args) -> int:
    mid = MeasureId.parse(args.measure)
    P = validate(load_vector(args.p), args.mode)
    Q = validate(load_vector(args.q), args.mode)
    value = measure_value(mid, P, Q)
    s_cell = fmt_real(mid.s) if mid.s is not None else "-"
    out = render_rows(
        ("measure", "s", "value"), [(mid.tag, s_cell, fmt_real(value))], args.format
    )
    sys.stdout.write(out)
    return EXIT_OK


def _problem_from_file(path: str) -> _bounds.TwoClassProblem:
    fields = load_problem(path)
    return _bounds.TwoClassProblem.from_arrays(
        fields["priors"], fields["cond1"], fields["cond2"], fields.get("label")
    )


def _cmd_bounds(args) -> int:
    problem = _problem_from_file(args.problem)
    s_grid = _bounds.DEFAULT_S_GRID if args.s_grid is None else parse_s_grid(args.s_grid)
    report = _bounds.bound_report(problem, s_grid)
    rows = [("bayes_error", "exact", fmt_real(report.exact_pe), "true", "")]
    rows.extend(
        (e.name, e.kind, fmt_real(e.value), "true" if e.applicable else "false", e.note)
        for e in report.entries
    )
    sys.stdout.write(render_rows(("name", "kind", "value", "applicable", "note"), rows, args.format))
    violations = report.sandwich_violations()
    if violations:
        for name, slack in violations:
            sys.stderr.write(f"sandwich violation: {name} slack={fmt_real(slack)}\n")
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = _problem_from_file(args.problem)
    if ":" not in args.s_grid:
        raise ArgumentError("sweep requires a range spec a:b:n for --s-grid")
    grid = parse_s_grid(args.s_grid)
    rows = [
        (fmt_real(s), fmt_real(avg), fmt_real(lower), "n/a" if upper is None else fmt_real(upper[0]))
        for s, (avg, (lower, _), upper) in zip(grid, _bounds.family_grid_bounds(problem, args.family, grid))
    ]
    sys.stdout.write(render_rows(("s", "averaged", "lower", "upper"), rows, args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    corrupt = os.environ.get("DIVBOUND_VERIFY_CORRUPT") == "1"
    results = _verify.run_verify(args.trials, seed, args.n_max, corrupt=corrupt)
    rows = [
        (r.suite, str(r.checks), str(r.failures), fmt_real(r.worst)) for r in results
    ]
    sys.stdout.write(render_rows(("suite", "checks", "failures", "worst"), rows, args.format))
    bad = [r for r in results if not r.ok]
    if bad:
        sys.stderr.write(f"seed {seed}: {len(bad)} suite(s) failed\n")
        for r in bad:
            sys.stderr.write(f"{r.suite}: {r.first_failure}\n")
        return EXIT_VIOLATION
    return EXIT_OK


_HANDLERS = {
    "measure": _cmd_measure,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except ParseFailure as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except (ArgumentError, DomainError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ValidationFailure as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
