"""Command-line driver: run sessions, run the corpus, print the matrix."""

from __future__ import annotations

import argparse
import sys

from .corpus import (
    corpus_exit_code,
    corpus_instances,
    get_instance,
    implication_matrix,
    render_matrix,
    run_corpus,
)
from .dsl import DslError, parse_session, run_session
from .report import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    PreconditionError,
    Report,
    render_json,
    render_text,
)


def _emit(report: Report, fmt: str) -> int:
    if fmt == "json":
        sys.stdout.buffer.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return report.exit_code()


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--samples", type=_positive_int, default=500)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="qord",
        description="exact checks for quasi-ordered and valued commutative rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a session file", parents=[common])
    p_run.add_argument("file")

    p_corpus = sub.add_parser("corpus", help="built-in instances")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="list instance names")
    p_crun = corpus_sub.add_parser(
        "run", help="run instances against goldens", parents=[common]
    )
    p_crun.add_argument("name", help="instance name or 'all'")

    sub.add_parser(
        "table", help="print the five-condition implication matrix", parents=[common]
    )

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0

    if args.command == "run":
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            print(f"cannot read {args.file}: {e}", file=sys.stderr)
            return EXIT_USAGE
        try:
            ast = parse_session(text)
            report = run_session(ast, seed=args.seed, samples=args.samples)
        except DslError as e:
            print(f"session error: {e}", file=sys.stderr)
            return EXIT_USAGE
        return _emit(report, args.format)

    if args.command == "corpus":
        if args.corpus_command == "list":
            for inst in corpus_instances():
                print(f"{inst.name:<24} {inst.description}")
            return EXIT_OK
        name = args.name
        try:
            selection = None if name == "all" else [get_instance(name).name]
        except KeyError as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
        report = run_corpus(selection, seed=args.seed, samples=args.samples)
        _emit(report, args.format)
        return corpus_exit_code(report)

    if args.command == "table":
        try:
            checks, witnesses, reports = implication_matrix(
                seed=args.seed, samples=args.samples
            )
        except PreconditionError as e:
            print(f"table error: {e}", file=sys.stderr)
            return EXIT_PRECONDITION
        combined = Report(seed=args.seed, checks=list(checks))
        if args.format == "json":
            return _emit(combined, "json")
        sys.stdout.write(render_matrix(checks, witnesses, reports))
        return combined.exit_code()

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
