"""Command-line front end.

Subcommands: ``hdlss-sweep``, ``growing-n-sweep``, ``pca``, ``scatter``,
``r-dist``.  The sweep commands log their progress lines (one per finished
grid point, with an ETA) to stderr.  Exit codes: 0 success,
1 configuration/usage error, 2 runtime failure, 3 when a sweep's embedded
distributional check rejects.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from typing import Optional

from .limit_dist import RLaw, r_cdf, r_quantile
from .pca_engine import dual_pca, load_matrix_csv
from .runner import (
    _FILE_KEYS,
    _MODE_TABLE,
    _run_sweep,
    export_scores_scatter,
    load_config,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_REJECTED = 3

_QUANTILE_GRID = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
_R_GRID = (0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0)


# Name of the stderr handler the sweep commands put on the package logger.
_PROGRESS_HANDLER_NAME = "spikescore.cli.progress"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spikescore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, mode in _MODE_TABLE.items():
        p = sub.add_parser(name, help=mode.__doc__.splitlines()[0])
        p.set_defaults(handler=_run_sweep_command)
        p.add_argument("--config", required=True, help="path to a key-value config file")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--workers", help="override worker count (integer or 'auto')")
        p.add_argument("--out", help="override output directory")

    p = sub.add_parser("pca", help="dual PCA of a CSV matrix (rows=dimensions, columns=samples)")
    p.set_defaults(handler=_run_pca_command)
    p.add_argument("--input", required=True)
    p.add_argument("--rank", type=int, help="components to retain (clamped to min(n, d))")
    p.add_argument("--divisor", choices=("n", "n-1"), default="n")
    p.add_argument("--center", action="store_true")
    p.add_argument("--header", action="store_true", help="skip a header row")

    p = sub.add_parser("scatter", help="export two sample-score columns as CSV")
    p.set_defaults(handler=_run_scatter_command)
    p.add_argument("--input", required=True)
    p.add_argument("--components", default="1,2", help="1-based pair, e.g. 1,2")
    p.add_argument("--out", required=True)
    p.add_argument("--divisor", choices=("n", "n-1"), default="n")
    p.add_argument("--center", action="store_true")
    p.add_argument("--header", action="store_true")

    p = sub.add_parser("r-dist", help="CDF / quantile tables of the sqrt(n/chi2_n) law")
    p.set_defaults(handler=_run_r_dist_command)
    p.add_argument("--n", type=int, required=True, help="degrees of freedom")
    p.add_argument("--r", type=float, help="print the CDF at this point")
    p.add_argument("--p", type=float, help="print the quantile at this level")

    return parser


def _log_progress_to_stderr() -> None:
    """Send the package's INFO lines (sweep progress) to stderr, through one
    handler however often cli_main runs in a process."""
    logger = logging.getLogger("spikescore")
    logger.setLevel(logging.INFO)
    if not any(h.get_name() == _PROGRESS_HANDLER_NAME for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.set_name(_PROGRESS_HANDLER_NAME)
        logger.addHandler(handler)


def _run_sweep_command(args) -> int:
    """Run the sweep of the subcommand's mode, which refuses a config of
    another mode."""
    _log_progress_to_stderr()
    config = load_config(args.config)
    flags = {"master_seed": args.seed, "workers": args.workers, "output_dir": args.out}
    overrides = {field: value for field, value in flags.items() if value is not None}
    if "workers" in overrides:
        try:
            overrides["workers"] = _FILE_KEYS["workers"].parse(args.workers)
        except ValueError as exc:
            raise ValueError(f"--workers: {exc}") from None
    if overrides:
        config = dataclasses.replace(config, **overrides)  # re-validated
    report = _run_sweep(config, args.command)
    print(f"records: {report.records_path}")
    print(f"report:  {report.report_path}")
    print(f"checks:  {'passed' if report.checks['passed'] else 'REJECTED'} "
          f"({report.checks['detail']})")
    return EXIT_OK if report.checks["passed"] else EXIT_CHECK_REJECTED


def _run_pca_command(args) -> int:
    x = load_matrix_csv(args.input, header=args.header)
    max_rank = min(x.shape)
    rank = max_rank if args.rank is None else min(args.rank, max_rank)
    result = dual_pca(x, center=args.center, divisor=args.divisor, rank=rank)
    print("component eigenvalue")
    for j, w in enumerate(result.sample_eigenvalues, start=1):
        print(f"{j} {float(w)!r}")
    return EXIT_OK


def _run_scatter_command(args) -> int:
    parts = args.components.split(",")
    if len(parts) != 2:
        raise ValueError(f"--components expects A,B, got {args.components!r}")
    components = (int(parts[0]), int(parts[1]))
    x = load_matrix_csv(args.input, header=args.header)
    path = export_scores_scatter(
        x, components, args.out, center=args.center, divisor=args.divisor
    )
    print(f"scatter: {path}")
    return EXIT_OK


def _run_r_dist_command(args) -> int:
    law = RLaw(args.n)
    if args.r is not None:
        print(f"r_cdf({args.r:g}; n={args.n}) = {r_cdf(args.r, law)!r}")
    if args.p is not None:
        print(f"r_quantile({args.p:g}; n={args.n}) = {r_quantile(args.p, law)!r}")
    if args.r is None and args.p is None:
        print("p quantile")
        for p in _QUANTILE_GRID:
            print(f"{p:g} {r_quantile(p, law)!r}")
        print()
        print("r cdf")
        for r in _R_GRID:
            print(f"{r:g} {r_cdf(r, law)!r}")
    return EXIT_OK


def cli_main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except (ValueError, FileNotFoundError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
