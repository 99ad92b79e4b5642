"""Command-line entry points: figure tables and the acceptance selftest."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import acceptance, experiments
from .exceptions import NumericalSanityError

_RUNNERS = {
    "fig1": experiments.run_fig1,
    "fig2": experiments.run_fig2,
    "direct": experiments.run_direct_contrast,
}


def _add_figure_parser(subparsers, name, help_text):
    p = subparsers.add_parser(name, help=help_text)
    p.add_argument("--config", type=Path, default=None,
                   help="flat key = value config file layered over the defaults")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--out", type=Path, default=None,
                   help="output CSV path (default from config)")
    p.add_argument("--trials", type=int, default=None,
                   help="override the number of independent trials")
    p.add_argument("--print-default-config", action="store_true",
                   help="print the default config for this figure and exit")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losscomp",
        description=("Desk-scale study of loss compensation in quantum-state "
                     "measurement: reproduces the figure tables and checks "
                     "its own acceptance criteria."))
    sub = parser.add_subparsers(dest="command", required=True)
    _add_figure_parser(sub, "fig1",
                       "compensated matrix element vs truncation index")
    _add_figure_parser(sub, "fig2",
                       "propagated error vs efficiency, several truncations")
    _add_figure_parser(sub, "direct",
                       "direct-detection compensation below eta = 1/2")
    sub.add_parser("selftest", help="run all acceptance criteria and report")
    return parser


def _figure_command(args) -> int:
    config = experiments.default_config(args.command)
    if args.print_default_config:
        sys.stdout.write(experiments.serialize_config(config))
        return 0
    if args.config is not None:
        config = experiments.parse_config(
            args.config.read_text(encoding="utf-8"), base=config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    table, trials = _RUNNERS[args.command](config, out=args.out)
    print(f"wrote {table} and {trials}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "selftest":
            return _figure_command(args)
        results = acceptance.run_all()
    except (ValueError, NumericalSanityError, OSError) as exc:
        print(f"losscomp: error: {exc}", file=sys.stderr)
        return 2
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
