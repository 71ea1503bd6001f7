"""Command-line front-end.

Subcommands: run, table, figure, optimize, sweep.  Configs are JSON documents
(omega0 units throughout); tables and figure curves are emitted as CSV, run
and optimization reports as JSON.  Exit codes: 0 success, 2 configuration
or file error.  Every decay is a closed form, so no command can fail on a
numeric-accuracy error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .experiments import (
    FIGURE_PANELS,
    TABLES,
    ConfigError,
    ExperimentConfig,
    figure_curve,
    optimize_report,
    parse_config,
    run_report,
    sweep_table,
    table,
    to_csv,
    to_json,
)
from .metrics import CONVENTIONS
from .protocol import Strategy

EXIT_OK = 0
EXIT_CONFIG = 2


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    doc = {}
    if args.config is not None:
        path = args.config
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except ValueError as exc:  # e.g. an integer literal past Python's digit limit
            raise ConfigError(f"{path}: {exc}") from exc
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.strategy is not None:
        doc["strategy"] = args.strategy
    if args.convention is not None:
        doc["convention"] = args.convention
    return parse_config(doc)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        # plain open, not pathlib: Python 3.11's pathlib interns every path part,
        # so a new file name per call grows and resizes the interpreter's intern table
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsteleport",
        description="Teleportation-fidelity toolkit for qubits under two-wing dephasing noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", help="path to a JSON experiment config")
            p.add_argument("--seed", type=int, help="override the config seed")
            p.add_argument("--strategy", choices=[s.value for s in Strategy],
                           help="override the Bell-outcome retention strategy")
            p.add_argument("--convention", choices=CONVENTIONS,
                           help="override the fidelity bookkeeping convention")
        p.add_argument("--out", help="output path (default: stdout)")

    p_run = sub.add_parser("run", help="single protocol run, JSON report")
    add_common(p_run)

    p_table = sub.add_parser("table", help="regenerate a published reference table as CSV")
    p_table.add_argument("which", type=int, choices=list(TABLES))
    add_common(p_table, needs_config=False)

    p_fig = sub.add_parser("figure", help="regenerate a published figure curve as CSV")
    p_fig.add_argument("which", type=int, choices=sorted({which for which, _ in FIGURE_PANELS}))
    p_fig.add_argument("--panel", choices=sorted({panel for _, panel in FIGURE_PANELS}), default="a")
    add_common(p_fig, needs_config=False)

    p_opt = sub.add_parser("optimize", help="maximize average fidelity over the timing window")
    add_common(p_opt)
    p_opt.add_argument("--tol-tau", type=_positive_float, default=1e-6,
                       help="tolerance on each optimal tau (finite, > 0)")

    p_sweep = sub.add_parser("sweep", help="average fidelity curve over the timing window, CSV")
    add_common(p_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config(args)
            _emit(to_json(run_report(config)), args.out)
        elif args.command == "table":
            _emit(to_csv(table(args.which)), args.out)
        elif args.command == "figure":
            _emit(to_csv(figure_curve(args.which, args.panel)), args.out)
        elif args.command == "optimize":
            config = _load_config(args)
            _emit(to_json(optimize_report(config, args.tol_tau)), args.out)
        elif args.command == "sweep":
            config = _load_config(args)
            _emit(to_csv(sweep_table(config)), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
