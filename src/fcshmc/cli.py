"""Command-line front end: one subcommand per experiment.

Usage:  fcshmc EXPERIMENT [--config FILE] [--out DIR] [--seed N] [flag overrides]

Configuration is resolved in three layers: per-experiment defaults, then a
flat ``key = value`` config file (--config), then individual CLI flags.
Flag names equal config keys; the flag table is ``harness.CONFIG_KEYS``,
derived from the config dataclass fields.  Exit codes: 0 success, 1 usage
error, 2 I/O error, 3 invalid numerical setup.
"""

from __future__ import annotations

import argparse
import sys

from .harness import CONFIG_KEYS, EXPERIMENTS, apply_overrides, default_config, read_config_file

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SETUP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default would sys.exit(2)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fcshmc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for name, fn in EXPERIMENTS.items():
        p = sub.add_parser(name, help=fn.__doc__.split("\n")[0].rstrip("."))
        p.add_argument("--config", default=None, help="flat key = value config file")
        for key, (_, _, parse) in CONFIG_KEYS.items():
            p.add_argument(f"--{key}", type=parse, default=None, dest=key)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as err:
        print(f"fcshmc: error: {err}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    if ns.experiment is None:
        parser.print_help()
        return EXIT_USAGE

    config = default_config(ns.experiment)
    file_mapping = {}
    if ns.config is not None:
        try:
            file_mapping = read_config_file(ns.config)
        except OSError as err:
            print(f"fcshmc: cannot read config: {err}", file=sys.stderr)
            return EXIT_IO
        except ValueError as err:
            print(f"fcshmc: bad config file: {err}", file=sys.stderr)
            return EXIT_USAGE
    flag_mapping = {key: getattr(ns, key) for key in CONFIG_KEYS}
    try:
        for mapping in (file_mapping, flag_mapping):
            config = apply_overrides(config, mapping)
    except ValueError as err:
        if "unknown config key" in str(err):
            print(f"fcshmc: {err}", file=sys.stderr)
            return EXIT_USAGE
        print(f"fcshmc: invalid setup: {err}", file=sys.stderr)
        return EXIT_SETUP

    try:
        result = EXPERIMENTS[ns.experiment](config)
    except OSError as err:
        print(f"fcshmc: I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"fcshmc: invalid setup: {err}", file=sys.stderr)
        return EXIT_SETUP

    report = getattr(result, "report", None)
    if report:
        print(report)
    for path in result.paths:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
