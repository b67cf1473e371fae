"""Command-line front end: one subcommand per experiment.

Usage:  fcshmc EXPERIMENT [--config FILE] [--out DIR] [--seed N] [flag overrides]

Configuration is resolved in three layers: per-experiment defaults, then a
flat ``key = value`` config file (--config), then individual CLI flags.
Flag names equal config keys; the flag table is ``harness.CONFIG_KEYS``,
derived from the config dataclass fields.  Flags stay text until
``harness.apply_overrides`` parses them, as it parses config-file values,
so a bad flag and a bad file line fail alike.  Exit codes: 0 success,
1 usage error (the command line or a config file cannot be read: an unknown
flag or key, a malformed line, or a value that does not parse), 2 I/O
error, 3 invalid numerical setup (the values parse, but the run cannot use
them).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (CONFIG_KEYS, EXPERIMENTS, ConfigError, apply_overrides, default_config,
                      read_config_file)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_SETUP = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcshmc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="experiment", metavar="experiment", required=True)
    for name, fn in EXPERIMENTS.items():
        p = sub.add_parser(name, help=fn.__doc__.split("\n")[0].rstrip("."))
        p.add_argument("--config", help="flat key = value config file")
        for key in CONFIG_KEYS:
            p.add_argument(f"--{key}")
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed the help or the usage error
        return EXIT_OK if stop.code == 0 else EXIT_USAGE
    try:
        config = default_config(ns.experiment)
        for mapping in (read_config_file(ns.config) if ns.config is not None else {},
                        {key: getattr(ns, key) for key in CONFIG_KEYS}):
            config = apply_overrides(config, mapping)
        result = EXPERIMENTS[ns.experiment](config)
    except ConfigError as err:
        print(f"fcshmc: {err}", file=sys.stderr)
        return EXIT_USAGE
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
