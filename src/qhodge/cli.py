"""Command-line entry point.

    qhodge verify [--suite NAME]... [--kmax N] [--tol X] [--seed S] [--out PATH]
    qhodge transgress --order {1|2|4} [--structure {I|J|K}] --input PATH --out PATH
    qhodge torsion [--theta a,b,c,d] [--out PATH]
    qhodge lapl-constant [--modes N]

Exit codes: 0 success, 1 failed verification, 2 usage error (an unwritable
--out included, found before any computation), 3 violated precondition,
4 numerical failure.

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


class UnwritableOutput(Exception):
    """--out names a path that cannot be opened for writing (a usage error)."""


def _check_out(out: str | None) -> None:
    """UnwritableOutput unless --out can be created; run before any work, it creates nothing."""
    if not out:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise UnwritableOutput(f"cannot write {out}: it is a directory")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise UnwritableOutput(f"cannot write {out}: {parent} is not a writable directory")


def _emit(doc: dict, out: str | None) -> None:
    try:
        text = dump_json(doc)
    except ValueError as exc:
        raise NonFiniteOutput(f"nothing written: {exc}") from exc
    if not out:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {out}: {exc.strerror or exc}") from exc


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

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", action="append", default=None, help="suite name (repeatable); default: all")
    v.add_argument("--kmax", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--theta", type=_parse_theta, default=None)
    v.add_argument("--fields", type=int, default=None, help="random fields per property")
    v.add_argument("--config", default=None, help="JSON file with RunConfig defaults")
    v.add_argument("--out", default=None)

    t = sub.add_parser("transgress", help="solve a transgression problem from a form file")
    t.add_argument("--order", type=int, choices=(1, 2, 4), required=True)
    t.add_argument("--structure", choices=("I", "J", "K"), default=None)
    t.add_argument("--input", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--tol", type=float, default=None)

    z = sub.add_parser("torsion", help="zeta-regularized torsion invariants")
    z.add_argument("--theta", type=_parse_theta, default=(0.0, 0.0, 0.0, 0.0))
    z.add_argument("--out", default=None)

    l = sub.add_parser("lapl-constant", help="measure the quartic-differential constant")
    l.add_argument("--modes", type=_probe_count, default=20,
                   help=f"number of probe modes, 1-{PROBE_MODES}")
    l.add_argument("--out", default=None)
    return p


def _load_config(path: str | None, args) -> RunConfig:
    """RunConfig from its own defaults, then the --config file, then the flags."""
    merged = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise ValueError("a config file must hold a JSON object")
        unknown = sorted(set(merged) - {f.name for f in dataclasses.fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    flags = {"kmax": args.kmax, "tolerance": args.tol, "seed": args.seed, "theta": args.theta,
             "suites": args.suite, "field_count": args.fields, "out": args.out}
    merged.update({k: v for k, v in flags.items() if v is not None})
    return RunConfig(**merged)


def cmd_verify(args) -> int:
    try:
        cfg = _load_config(args.config, args)
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        print(f"FAILED: {report['first_failure']} exceeds tolerance {cfg.tolerance}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_transgress(args) -> int:
    if args.order == 2 and args.structure is None:
        print("error: --order 2 requires --structure {I|J|K}", file=sys.stderr)
        return EXIT_USAGE
    if args.order != 2 and args.structure is not None:
        print(f"error: --structure applies only to --order 2, not {args.order}", file=sys.stderr)
        return EXIT_USAGE
    tol = args.tol if args.tol is not None else transgression.DEFAULT_TOL[args.order]
    if not (math.isfinite(tol) and tol > 0):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    _check_out(args.out)
    try:
        target = FormField.load(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read form file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.order == 1:
            result = transgression.transgress1(target, tol=tol)
        elif args.order == 2:
            result = transgression.transgress2(target, args.structure, tol=tol)
        else:
            result = transgression.transgress4(target, tol=tol)
    except transgression.TransgressionError as exc:
        print(f"precondition violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(result.to_dict(), args.out)
    if result.residual > tol:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handlers = {
        "verify": cmd_verify,
        "transgress": cmd_transgress,
        "torsion": cmd_torsion,
        "lapl-constant": cmd_lapl_constant,
    }
    try:
        return handlers[args.command](args)
    except UnwritableOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteOutput, zeta.QuadratureFailure, zeta.MethodDisagreement,
            transgression.InconsistentConstant) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
