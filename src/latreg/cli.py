"""Command-line front end.

Subcommands: ``measures`` (vertices and the determinant family),
``means`` (the three mean families), ``fit`` (one model), ``rotate``
(every rotation of a column set), ``simulate`` (seeded weighted-mean
convergence check).  Exit codes are a stable contract: 0 success,
2 usage or model-expression error (including an input file that cannot
be opened, a closed stdin or stdout and a request too large to hold),
3 data error, 4 singular system.

:func:`main` is the in-process API: tests and the benchmark call it many
times in one process, so it never calls ``gc.freeze()``.  A frozen
object is never collected again, so each call would freeze the garbage
of the requests before it.  The freeze belongs to the process entry,
:func:`latreg.__main__.run`, which runs ``main`` once.
"""

from __future__ import annotations

import argparse
import re
import sys

from .dataio import read_lattice, render, write_report
from .errors import FormulaError, LatregError, SingularSystemError
from .estimators import RotationResult, fit_all_rotations, solve
from .formula import parse_model
from .lattice import Direction, Lattice, UNITY, measure_catalog
from .means import (self_weighting_mean, simulate_convergence, standard_mean,
                    weighted_mean)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SINGULAR = 4

MODEL_GRAMMAR = """\
model expression grammar:
  <response> = <term> [+ <term>]...
  response:  a column name, or 1 for an implicit (non-response) model
  term:      a column name, 1 (explicit intercept), or a product a*b
examples:
  "y = 1 + x"          simple line with intercept
  "1 = x + y"          implicit model, no intercept unless written
  "1 = x + y + x*y"    interaction term as a regressor
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latreg",
        description="Lattice-design regression: determinant measures, "
                    "weighted means, and Cramer's-rule fits.",
        epilog=MODEL_GRAMMAR + "\nexit codes: 0 ok, 2 usage/parse error, "
               "3 data error, 4 singular system",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, columns_help=None):
        p.add_argument("--input", required=True, metavar="PATH",
                       help="CSV file with a header row, or - for stdin")
        if columns_help:
            p.add_argument("--columns", required=True, metavar="a,b[,c]",
                           help=columns_help)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("measures",
                       help="vertices and the determinant family")
    add_io(p, "2 or 3 column names")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("means",
                       help="standard, self-weighting, and randomly "
                            "weighted means")
    add_io(p, "1 to 3 column names")
    p.set_defaults(func=_cmd_means)

    p = sub.add_parser("fit", help="fit one model expression",
                       epilog=MODEL_GRAMMAR,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    add_io(p)
    p.add_argument("--model", required=True, metavar="EXPR",
                   help='model expression, e.g. "1 = x + y"')
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("rotate",
                       help="fit every rotation of a column set")
    add_io(p, "2 or 3 column names")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("simulate",
                       help="seeded weighted-mean convergence check")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_simulate)
    # Read -1e3 and -inf as values, not options (argparse knows -5, -.5).
    p._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    return parser


def _split_columns(raw: str, minimum: int, maximum: int) -> list[str]:
    columns = [c.strip() for c in raw.split(",")]
    if any(not c for c in columns):
        raise ValueError("empty column name in --columns")
    if not minimum <= len(columns) <= maximum:
        raise ValueError(
            f"--columns needs {minimum} to {maximum} names, got {len(columns)}")
    return columns


def _load(args, columns: list[str], directions: list[Direction]) -> Lattice:
    if args.input == "-" and sys.stdin is None:
        raise OSError("stdin is closed")
    # stdin is read as bytes, which read_lattice decodes as it decodes a path.
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    return read_lattice(stdin if args.input == "-" else args.input, columns,
                        directions)


def _emit(payload_bytes: bytes) -> None:
    # A report is UTF-8 whatever the stream's encoding, so its bytes go to
    # the binary buffer; a text-only stream (io.StringIO) takes the text.
    if sys.stdout is None:
        raise OSError("stdout is closed")
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(payload_bytes.decode("utf-8"))
        return
    sys.stdout.flush()
    buffer.write(payload_bytes)


def _cmd_measures(args) -> int:
    columns = _split_columns(args.columns, 2, 3)
    lat = _load(args, columns, [UNITY, *map(Direction, columns)])
    _emit(render({"measures": measure_catalog(lat, columns)}, args.format))
    return EXIT_OK


def _cmd_means(args) -> int:
    columns = _split_columns(args.columns, 1, 3)
    lat = _load(args, columns, [UNITY, *map(Direction, columns)])
    _emit(render({"means": {
        "standard": {c: standard_mean(lat, c) for c in columns},
        "self_weighting": {c: self_weighting_mean(lat, c) for c in columns},
        "randomly_weighted": {
            target: {w: weighted_mean(lat, target, w)
                     for w in columns if w != target}
            for target in columns if len(columns) > 1},
    }}, args.format))
    return EXIT_OK


def _cmd_fit(args) -> int:
    spec = parse_model(args.model)
    directions = [UNITY, spec.response, *spec.regressors]
    columns = list(dict.fromkeys(f for d in directions for f in d.factors))
    plain = [c for c in columns if Direction(c) in directions]
    lat = _load(args, columns, directions)
    result = solve(lat, spec)
    measures = measure_catalog(lat, plain) if len(plain) in (2, 3) else {}
    rotation = RotationResult(response=spec.response, fit=result)
    _emit(write_report([rotation], measures, format=args.format))
    return EXIT_OK


def _cmd_rotate(args) -> int:
    columns = _split_columns(args.columns, 2, 3)
    directions = [UNITY, *map(Direction, columns)]
    lat = _load(args, columns, directions)
    rotations = fit_all_rotations(lat, directions)
    measures = measure_catalog(lat, columns)
    _emit(write_report(rotations, measures, format=args.format))
    return EXIT_OK if any(r.ok for r in rotations) else EXIT_SINGULAR


def _cmd_simulate(args) -> int:
    stats = simulate_convergence(args.seed, args.n, args.mu, args.sigma,
                                 args.trials)
    _emit(render({"simulation": stats}, args.format))
    return EXIT_OK


def _print_formula_error(err: FormulaError, expression: str) -> None:
    sys.stderr.write(f"error: {err}\n")
    sys.stderr.write(f"  {expression}\n")
    sys.stderr.write("  " + " " * err.position + "^\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormulaError as err:
        _print_formula_error(err, getattr(args, "model", ""))
        return EXIT_USAGE
    except SingularSystemError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_SINGULAR
    except LatregError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_DATA
    except (ValueError, OSError, MemoryError) as err:
        # An --input that cannot be read, a closed stream, too large a request.
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
