"""Static-verification CLI.

Usage::

    python -m repro.verify lint src/repro [--json]
    python -m repro.verify check --cores 2 [--protocol moesi] [--json]

``lint`` runs silolint (see :mod:`repro.verify.lint`); ``check`` runs
the exhaustive protocol model checker, prints the reachable-state count
or the minimal counterexample, and then replays every transition it
enumerated on a live ``VaultSystem`` of the same protocol
(:func:`repro.verify.model_check.check_concrete_system`), printing each
mismatch with its path.  Both exit non-zero on failure, which is what
the ``verify-static`` CI job keys off; ``--cores`` below 2 is a usage
error (exit 2).
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
    mismatches = []
    doc = result.as_dict()
    if result.ok:
        replayed, mismatches = model_check.check_concrete_system(
            args.cores, args.protocol)
        doc["replay"] = {"transitions": replayed,
                         "mismatches": mismatches}
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0 if result.ok and not mismatches else 1
    print(result.summary())
    if not result.ok:
        print()
        print(result.counterexample())
        return 1
    print("replay on a live VaultSystem: %d transitions, %d mismatch(es)"
          % (replayed, len(mismatches)))
    for line in mismatches:
        print("  " + line)
    return 1 if mismatches else 0


def main(argv=None):
    """Entry point for ``python -m repro.verify``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Static verification of the SILO simulator: "
                    "silolint + exhaustive MOESI model checking, "
                    "replayed on the simulator.")
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
    if args.cores < 2:
        check_p.error("--cores: need at least 2 cores to exercise "
                      "coherence, got %d" % args.cores)
    return _run_check(args)


if __name__ == "__main__":
    sys.exit(main())
