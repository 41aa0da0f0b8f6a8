"""Command-line entry point.

Subcommands: validate (check a config and echo resolved defaults), run
(execute a mode over a dataset), replay (recompute a run's report from its
persisted outcomes), report (print a run's report).

Exit codes: 0 success, 1 user/config/file-system error, 2 runtime failure,
130 interrupted (Ctrl-C, or SIGTERM during run: the questions in flight are
finished and written, the rest do not run, and a re-run resumes).
Secrets never appear in arguments or output; live mode reads the API key from
the environment variable named in the config.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from . import jsonl
from .config import ConfigError, load_settings
from .dataset import load_dataset
from .gateway import ProviderError, ScriptFormatError
from .harness import (
    BACKENDS,
    CSV_TABLES,
    MODES,
    IncompleteTrace,
    REPORT_FILE,
    make_gateway,
    replay,
    run,
    write_report,
)
from .types import DatasetError, RerailError

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_RUNTIME_ERROR = 2
EXIT_INTERRUPTED = 130


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1 for user errors.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rerail", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check a config file and echo resolved settings")
    validate.add_argument("--config", required=True, help="path to the JSON config file")

    runner = commands.add_parser("run", help="run a mode over a dataset")
    runner.add_argument("--config", required=True, help="path to the JSON config file")
    runner.add_argument("--dataset", required=True, help="path to the JSONL dataset")
    runner.add_argument("--mode", required=True, choices=MODES, help="evaluation mode")
    runner.add_argument("--out", required=True, help="output directory for the run artifacts")
    runner.add_argument("--backend", required=True, choices=BACKENDS, help="completion backend")
    runner.add_argument("--script", help="JSONL script file (required with --backend scripted)")
    runner.add_argument("--parallelism", type=int, help="worker pool width (overrides config)")
    runner.add_argument("--seed", type=int, help="base seed (overrides config)")

    replayer = commands.add_parser("replay", help="recompute a run's report from its outcomes")
    replayer.add_argument("--trace", required=True, help="run directory holding outcomes.jsonl")

    reporter = commands.add_parser("report", help="print a run's report")
    reporter.add_argument("--out", required=True, help="run directory holding report.json")
    reporter.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _cmd_validate(args) -> int:
    settings = load_settings(args.config)
    print("config OK; resolved settings:")
    for key, value in sorted(settings.to_json().items()):
        if key == "price_table":
            value = json.dumps(value, sort_keys=True)
        print(f"  {key} = {value}")
    return EXIT_OK


def _cmd_run(args) -> int:
    settings = load_settings(args.config).with_overrides(
        parallelism=args.parallelism, seed=args.seed
    )
    if args.backend == "scripted" and not args.script:
        raise UsageError("--backend scripted requires --script")
    questions = load_dataset(args.dataset)
    gateway = make_gateway(settings, args.backend, script_path=args.script, out_dir=args.out)
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as Ctrl-C does
    try:
        report = run(questions, settings, args.mode, args.out, gateway)
    finally:
        signal.signal(signal.SIGTERM, previous)

    counts = report["counts"]
    overall = report["accuracy"]["overall"]
    print(f"mode={report['mode']} questions={counts['total']} failed={counts['failed']}")
    if counts.get("consistent") is not None:
        print(f"consistent={counts['consistent']} derailed={counts['derailed']}")
    if overall["total"]:
        print(f"accuracy={overall['accuracy']:.4f} ({overall['correct']}/{overall['total']})")
    cost = report.get("cost")
    if cost:
        print(
            f"cost=${cost['cost_usd']:.4f} projected_per_1000=${cost['cost_per_1000_usd']}"
        )
    print(f"report written to {Path(args.out) / REPORT_FILE}")
    return EXIT_OK


def _cmd_replay(args) -> int:
    report_path = Path(args.trace) / REPORT_FILE
    if write_report(args.trace, replay(args.trace)):
        print(f"report recomputed and written to {report_path}")
    else:
        print(f"replay matches the existing report at {report_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    names = (REPORT_FILE,) if args.format == "json" else CSV_TABLES
    texts = [_read_artifact(Path(args.out), name) for name in names]  # all read before any is printed
    for name, text in zip(names, texts):
        if args.format == "csv":
            print(f"# {name}")
        sys.stdout.write(text)
    return EXIT_OK


def _read_artifact(out_dir: Path, name: str) -> str:
    """The text of a run artifact; IncompleteTrace if it is missing or not
    UTF-8."""
    path = out_dir / name
    if not path.exists():
        raise IncompleteTrace(f"no {name} in {out_dir}")
    try:
        text = jsonl.decode(path.read_bytes())
    except ValueError as exc:
        raise IncompleteTrace(f"{path}: {exc}") from None
    # newlines as text mode reads them: the csv module ends its rows in \r\n
    return text.replace("\r\n", "\n").replace("\r", "\n")


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "replay": _cmd_replay,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError, DatasetError, IncompleteTrace, ScriptFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except ProviderError as exc:
        # A missing API key is a config problem; a mid-run provider failure
        # is a runtime one.
        code = EXIT_USER_ERROR if not exc.retriable else EXIT_RUNTIME_ERROR
        print(f"error: {exc}", file=sys.stderr)
        return code
    except RerailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except KeyboardInterrupt as exc:
        print("interrupted" + (f": {exc}" if exc.args else ""), file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
