"""Command-line entry point.

    qhodge verify [--suite NAME]... [--kmax N] [--tol X] [--seed S] [--theta a,b,c,d]
                  [--fields N] [--config PATH] [--out PATH]
    qhodge transgress --order {1|2|4} [--structure {I|J|K}] --input PATH --out PATH [--tol X]
    qhodge torsion [--theta a,b,c,d] [--out PATH]
    qhodge lapl-constant [--modes N] [--out PATH]

Exit codes: 0 success, 1 failed verification, 2 usage error (an unwritable
--out or an unreadable --input or --config file included, found before any
computation), 3 violated precondition, 4 numerical failure.

A JSON config file (--config) may provide any of the RunConfig fields;
explicit flags win over the file, and any other key is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from . import transgression, zeta
from .fields import FormField, dump_json, grid
from .suites import RunConfig, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

PROBE_KMAX = 3
PROBE_MODES = (2 * PROBE_KMAX + 1) ** 4 - 1  # nonzero modes lapl-constant can probe


class NonFiniteOutput(Exception):
    """A report holds a NaN or infinite value, which strict JSON cannot carry."""


class UsageError(Exception):
    """A bad flag, --out path, config file or form file: exit 2."""


def _check_out(out: str | None) -> None:
    """UsageError unless --out can be created; run before any work, it creates nothing."""
    if not out:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise UsageError(f"cannot write {out}: it is a directory")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise UsageError(f"cannot write {out}: {parent} is not a writable directory")


def _emit(doc: dict, out: str | None) -> None:
    """Write doc's JSON to out, or to stdout; NonFiniteOutput, before anything is written."""
    try:
        chunks = dump_json(doc)
    except ValueError as exc:
        raise NonFiniteOutput(f"nothing written: {exc}") from exc
    if not out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _read_json(path: str, what: str, parse=lambda doc: doc):
    """parse(the JSON document in path); UsageError if it cannot be opened, decoded or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _parse_theta(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("theta needs four comma-separated components")
    if not all(math.isfinite(v) for v in parts):
        raise argparse.ArgumentTypeError("theta components must be finite")
    return tuple(parts)


def _probe_count(text: str) -> int:
    count = int(text)
    if not 1 <= count <= PROBE_MODES:
        raise argparse.ArgumentTypeError(f"--modes must lie in 1-{PROBE_MODES}")
    return count


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "--theta -1e-9,0,0,0": a "-" then a digit starts a value, not an option (no
        # qhodge option looks like that); argparse's own rule takes plain numbers only
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qhodge", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    # each verify setting's dest is its RunConfig field; None means "not given"
    v = sub.add_parser("verify", help="run verification suites")
    v.set_defaults(run=cmd_verify)
    v.add_argument("--suite", dest="suites", metavar="SUITE", action="append", default=None,
                   help="suite name (repeatable); default: all")
    v.add_argument("--kmax", type=int, default=None)
    v.add_argument("--tol", dest="tolerance", metavar="TOL", type=float, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--theta", type=_parse_theta, default=None)
    v.add_argument("--fields", dest="field_count", metavar="FIELDS", type=int, default=None,
                   help="random fields per property")
    v.add_argument("--config", default=None, help="JSON file with RunConfig defaults")
    v.add_argument("--out", default=None)

    t = sub.add_parser("transgress", help="solve a transgression problem from a form file")
    t.set_defaults(run=cmd_transgress)
    t.add_argument("--order", type=int, choices=(1, 2, 4), required=True)
    t.add_argument("--structure", choices=("I", "J", "K"), default=None)
    t.add_argument("--input", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--tol", type=float, default=None)

    z = sub.add_parser("torsion", help="zeta-regularized torsion invariants")
    z.set_defaults(run=cmd_torsion)
    z.add_argument("--theta", type=_parse_theta, default=(0.0, 0.0, 0.0, 0.0))
    z.add_argument("--out", default=None)

    l = sub.add_parser("lapl-constant", help="measure the quartic-differential constant")
    l.set_defaults(run=cmd_lapl_constant)
    l.add_argument("--modes", type=_probe_count, default=20,
                   help=f"number of probe modes, 1-{PROBE_MODES}")
    l.add_argument("--out", default=None)
    return p


def _load_config(path: str | None, args) -> RunConfig:
    """RunConfig from its own defaults, then the --config file, then the flags."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    merged = _read_json(path, "config file") if path else {}
    if not isinstance(merged, dict):
        raise UsageError("a config file must hold a JSON object")
    unknown = sorted(set(merged) - set(names))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    merged.update({n: getattr(args, n) for n in names if getattr(args, n) is not None})
    try:
        return RunConfig(**merged)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from exc


def cmd_verify(args) -> int:
    cfg = _load_config(args.config, args)
    _check_out(cfg.out)
    report = run_suites(cfg)
    try:
        _emit(report, cfg.out)
    except NonFiniteOutput as exc:
        if report["all_pass"]:
            raise
        # a non-finite residual is a failed check: exit 1 and name it below
        print(f"report not written: {exc}", file=sys.stderr)
    if not report["all_pass"]:
        print(f"FAILED: {report['first_failure']} exceeds tolerance {cfg.tolerance}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_transgress(args) -> int:
    if args.order == 2 and args.structure is None:
        raise UsageError("--order 2 requires --structure {I|J|K}")
    if args.order != 2 and args.structure is not None:
        raise UsageError(f"--structure applies only to --order 2, not {args.order}")
    tol = args.tol if args.tol is not None else transgression.DEFAULT_TOL[args.order]
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError("--tol must be positive and finite")
    _check_out(args.out)
    target = _read_json(args.input, "form file", FormField.from_dict)
    if args.order == 1:
        result = transgression.transgress1(target, tol=tol)
    elif args.order == 2:
        result = transgression.transgress2(target, args.structure, tol=tol)
    else:
        result = transgression.transgress4(target, tol=tol)
    _emit(result.to_dict(), args.out)
    if not result.residual <= tol:  # a NaN residual fails too
        print(f"numerical failure: residual {result.residual:.3e} > {tol}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_torsion(args) -> int:
    _check_out(args.out)
    _emit(zeta.torsion_report(args.theta), args.out)
    return EXIT_OK


def _probe_modes(count: int):
    """The first `count` nonzero modes of the kmax-3 box by increasing |k|^2.

    Ties keep the grid's lexicographic order; k = 0 sorts first and is dropped.
    """
    modes, ksq = grid(PROBE_KMAX)
    order = np.argsort(ksq, kind="stable")[1:count + 1]
    return [tuple(int(v) for v in k) for k in modes[order]]


def cmd_lapl_constant(args) -> int:
    _check_out(args.out)
    _, report = transgression.measure_lapl_constant(_probe_modes(args.modes))
    _emit(report, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    """Run one subcommand; the one place that maps an exception to exit 2, 3 or 4."""
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # from argparse: --help exits 0, a bad command line 2
        return exc.code if exc.code is not None else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except transgression.TransgressionError as exc:
        print(f"precondition violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NonFiniteOutput, zeta.QuadratureFailure, zeta.MethodDisagreement,
            transgression.InconsistentConstant) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
