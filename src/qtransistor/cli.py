"""Command-line runner.

Three subcommands:

    run        execute a registered scenario or an explicit [sweep] config,
               writing CSV tables plus a manifest into the output directory
    scenarios  list the registry (name and what the table shows)
    validate   parse and validate a config file without computing anything

Exit status: 0 when every grid point computed, 1 when some points failed
(partial tables are kept and the failures sit in the ``error`` column),
2 when the configuration was rejected.  The output directory comes from
``--out``, the config file, or the QTRANSISTOR_OUT environment variable,
in that order.  The ``run`` flags --scenario, --out, --workers and
--boundary are handed to ``parse_config`` as the [run] keys of the same
name, so they are checked by the rules a config file's values meet.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import __version__
from .config import (ConfigError, RunConfig, manifest_parameters,
                     parse_config, run_tables)
from .output import write_manifest, write_table
from .scenarios import SCENARIOS

ENV_OUT = "QTRANSISTOR_OUT"

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

# run flags read as the [run] keys of the same name
RUN_FLAGS = ("scenario", "out", "workers", "boundary")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtransistor",
        description="collisional thermal-transistor simulator")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute a scenario or an explicit sweep")
    run.add_argument("--scenario", metavar="NAME",
                     help="registered scenario name (see `scenarios`)")
    run.add_argument("--config", metavar="FILE",
                     help="INI run configuration")
    run.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a model/time/blp parameter (repeatable)")
    run.add_argument("--out", metavar="DIR", help="output directory")
    run.add_argument("--workers", metavar="N",
                     help="recorded in the manifest; grid points run in "
                          "series (default 1)")
    run.add_argument("--boundary", metavar="SIDE",
                     help="window-edge current convention, left or right "
                          "(default left)")

    sub.add_parser("scenarios", help="list registered scenario names")

    val = sub.add_parser(
        "validate", help="validate a config file without running it")
    val.add_argument("--config", metavar="FILE", required=True)
    return parser


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(
            [f"cannot read config file {path!r}: {exc}"]) from None


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    if (args.scenario is None) == (args.config is None):
        raise ConfigError(
            ["run requires exactly one of --scenario and --config"])
    text = "" if args.config is None else _read_config(args.config)
    flags = {k: getattr(args, k) for k in RUN_FLAGS
             if getattr(args, k) is not None}
    return parse_config(text, args.sets, flags=flags)


def _resolve_out_dir(rc: RunConfig) -> Path:
    out = rc.out_dir or os.environ.get(ENV_OUT)
    if not out:
        raise ConfigError(
            ["no output directory: pass --out, set out in [run], or export "
             + ENV_OUT])
    return Path(out)


def _cmd_run(args: argparse.Namespace) -> int:
    rc = _load_run_config(args)
    out_dir = _resolve_out_dir(rc)
    t0 = time.perf_counter()
    tables = run_tables(rc)
    paths = [write_table(tb, out_dir) for tb in tables]
    failed = sum(tb.failed_rows for tb in tables)
    manifest = write_manifest(
        out_dir,
        parameters=manifest_parameters(rc),
        files=paths,
        duration_seconds=time.perf_counter() - t0,
        failed_points=failed,
    )
    for tb, path in zip(tables, paths):
        print(f"wrote {path} ({len(tb.rows)} rows)")
    print(f"wrote {manifest}")
    if failed:
        print(f"{failed} grid point(s) failed; see the error column",
              file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_scenarios() -> int:
    width = max(len(n) for n in SCENARIOS)
    for name, scenario in SCENARIOS.items():
        print(f"{name:<{width}}  {scenario.description}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    rc = parse_config(_read_config(args.config))
    what = (f"scenario {rc.scenario}" if rc.scenario
            else f"sweep over {rc.sweep.axis} "
                 f"[{rc.sweep.start}, {rc.sweep.stop}] step {rc.sweep.step}")
    print(f"OK: {what}, boundary={rc.boundary}, workers={rc.workers}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scenarios":
            return _cmd_scenarios()
        return _cmd_validate(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # setup-stage rejection outside the parser (bad grid, forced key)
        print(f"invalid run: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
