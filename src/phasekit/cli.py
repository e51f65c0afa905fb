"""Command line entry point.

Exit codes: 0 success, 1 configuration/usage problems, 2 numerical failures
(including verification checks that do not pass).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import ConfigError, NumericalError
from .presets import PRESET_NAMES, run_figure
from .scenario import parse_config
from .scenario import run as run_config
from .verify import run_verification


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration problems: exit 1, not argparse's 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phasekit",
                     description="Two-site phase-operator dynamics datasets")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    run_p = sub.add_parser("run", help="run one scenario config, write its CSV")
    run_p.add_argument("--config", required=True, help="path to key=value config")
    run_p.add_argument("--integrator", choices=("eigen", "rk4"), default=None,
                       help="override the config's integrator")

    fig_p = sub.add_parser("figure", help="emit a named preset dataset bundle")
    fig_p.add_argument("preset", help=f"one of {', '.join(PRESET_NAMES)}")
    fig_p.add_argument("--out", required=True, help="output directory")

    sub.add_parser("verify", help="run the self-check battery")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        print(f"phasekit: cannot read config: {exc}", file=sys.stderr)
        return 1
    cfg = parse_config(text)
    if args.integrator is not None:
        cfg = dataclasses.replace(cfg, integrator=args.integrator)
    target = run_config(cfg)
    print(f"wrote {target}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    written = run_figure(args.preset, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_verify() -> int:
    report = run_verification()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 2


# built by the first main call and reused: parsing leaves a parser unchanged
# and returns a fresh namespace each time
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "figure":
            return _cmd_figure(args)
        return _cmd_verify()
    except ConfigError as exc:
        print(f"phasekit: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"phasekit: numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
