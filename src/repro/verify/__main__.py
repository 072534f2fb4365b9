"""Static-verification CLI.

Usage::

    python -m repro.verify lint src/repro [--json]
    python -m repro.verify check --cores 2 [--protocol moesi] [--json]
    python -m repro.verify check --cores 3 --abstract-only

``lint`` runs silolint (see :mod:`repro.verify.lint`); ``check`` runs
the exhaustive protocol model checker (and, unless ``--abstract-only``,
the concrete-simulator companion check) and prints the reachable-state
count or the minimal counterexample.  All exit non-zero on failure,
which is what the ``verify-static`` CI job keys off.
"""

import argparse
import json
import sys

from repro.verify import lint as lint_mod
from repro.verify import model_check


def _run_check(args):
    """The ``check`` subcommand; returns the process exit code."""
    result = model_check.check_protocol(num_cores=args.cores,
                                        protocol=args.protocol)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.summary())
        if not result.ok:
            print()
            print(result.counterexample())
    if result.ok and not args.abstract_only:
        driven = model_check.check_concrete_system(
            num_cores=args.cores)
        if not args.json:
            print("concrete companion check: %d accesses driven, "
                  "directory view consistent throughout" % driven)
    return 0 if result.ok else 1


def main(argv=None):
    """Entry point for ``python -m repro.verify``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Static verification of the SILO simulator: "
                    "silolint + exhaustive MOESI model checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    lint_p = sub.add_parser(
        "lint", help="run the silolint rules over files/directories")
    lint_p.add_argument("paths", nargs="*", default=["src/repro"])
    lint_p.add_argument("--json", action="store_true")
    lint_p.add_argument("--select", default=None, metavar="CODES")
    lint_p.add_argument("--list-rules", action="store_true")

    check_p = sub.add_parser(
        "check", help="exhaustively enumerate the coherence protocol")
    check_p.add_argument("--cores", type=int, default=2,
                         help="system size to enumerate (default 2)")
    check_p.add_argument("--protocol", choices=("moesi", "mesi"),
                         default="moesi")
    check_p.add_argument("--json", action="store_true")
    check_p.add_argument("--abstract-only", action="store_true",
                         help="skip the concrete-simulator companion "
                              "check")

    args = parser.parse_args(argv)
    if args.command == "lint":
        lint_argv = list(args.paths)
        if args.json:
            lint_argv.append("--json")
        if args.select:
            lint_argv.extend(["--select", args.select])
        if args.list_rules:
            lint_argv.append("--list-rules")
        return lint_mod.main(lint_argv)
    return _run_check(args)


if __name__ == "__main__":
    sys.exit(main())
