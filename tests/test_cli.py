"""Command-line surface: exit codes, report schemas, determinism."""

import argparse
import contextlib
import dataclasses
import errno
import gc
import importlib
import inspect
import itertools
import json
import math
import multiprocessing
import os
import pickle
import pkgutil
import platform
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import qhodge
from qhodge import cli, spin, suites, transgression, zeta
from qhodge.cli import main
from qhodge.fields import random_field, single_mode
from qhodge.exterior import VOL
from qhodge.operators import exterior_d
from qhodge.suites import RunConfig, run_suites
from qhodge.transgression import TransgressionResult, quartic_differential
from reference_runs import THETA, run_python

SRC = Path(qhodge.__file__).resolve().parents[1]


def run(argv):
    return main(argv)


class TestVerify:
    def test_single_suite_passes(self, tmp_path, capsys):
        for suite in ("exterior", "clifford"):
            out = tmp_path / f"{suite}.json"
            code = run(["verify", "--suite", suite, "--seed", "1", "--out", str(out)])
            assert code == 0
            rep = json.loads(out.read_text())  # strict JSON: complex values would not load
            assert rep["all_pass"] is True
            assert rep["config"]["suites"] == [suite]
            assert rep["suites"][suite]["max_residual"] <= 1e-10
            assert rep["schema_version"] == 1
            for check in rep["suites"][suite]["checks"].values():
                assert check["pass"] is True
                assert isinstance(check["residual"], float)
                assert check["residual"] <= 1e-10

    def test_near_lattice_theta_runs_untwisted(self, tmp_path):
        out = tmp_path / "zeta.json"
        assert run(["verify", "--suite", "zeta", "--theta", "-1e-9,0,0,0", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is True
        assert rep["config"]["theta"] == [0.0, 0.0, 0.0, 0.0]

    def test_unknown_suite_usage_error(self, capsys):
        code = run(["verify", "--suite", "nonsense"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, message", [
        ({"suites": ["exterior", "nonsense"]}, [], "unknown suite(s): nonsense"),
        # a bare string is not a list: it must not run as the suites z, e, t, a
        ({"suites": "zeta"}, [], "list of names"),
        # a repeated suite would run, and be echoed, twice
        ({}, ["--suite", "zeta", "--suite", "zeta"], "repeat"),
    ], ids=["unknown", "bare-string", "repeated"])
    def test_bad_suite_selection_usage_error(self, tmp_path, capsys, config, flags, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["verify", "--config", str(cfg_path), *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_unattainable_tolerance_fails_with_named_check(self, tmp_path, capsys):
        # quaternionic's sampled rotors and least-squares span leave rounding residuals;
        # the exterior checks are exact zeros, which no positive tolerance fails
        out = tmp_path / "report.json"
        code = run([
            "verify", "--suite", "quaternionic", "--tol", "1e-20", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "quaternionic:" in err
        rep = json.loads(out.read_text())
        assert rep["all_pass"] is False
        assert rep["first_failure"].startswith("quaternionic:")

    def test_open_sl2_closure_is_a_failed_check(self, tmp_path, monkeypatch, capsys):
        # an open closure is a failed residual in the report, not an exception
        triple = spin.sl2_triple

        def perturbed():
            h, e, f = triple()
            return h, e + 0.1 * np.eye(4), f

        monkeypatch.setattr(spin, "sl2_triple", perturbed)
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "clifford", "--out", str(out)]) == 1
        check = json.loads(out.read_text())["suites"]["clifford"]["checks"]["sl2_closure"]
        assert check["pass"] is False and check["residual"] > 1e-3

    def test_determinism_byte_identical(self, tmp_path):
        cfg = dict(kmax=2, field_count=2, seed=7, suites=("operators", "kodaira"))
        a = json.dumps(run_suites(RunConfig(**cfg)), sort_keys=True)
        b = json.dumps(run_suites(RunConfig(**cfg)), sort_keys=True)
        assert a == b

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kmax": 2, "seed": 3, "suites": ["exterior"]}))
        out = tmp_path / "rep.json"
        code = run(["verify", "--config", str(cfg_path), "--seed", "4", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["kmax"] == 2  # from file
        assert rep["config"]["seed"] == 4  # flag wins

    def test_nan_tolerance_usage_error(self, capsys):
        assert run(["verify", "--suite", "exterior", "--tol", "nan"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_nan_theta_in_config_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"theta": [0.0, float("nan"), 0.0, 0.0]}))
        assert run(["verify", "--suite", "exterior", "--config", str(cfg_path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"tolerance": "1e-10"},
        {"tolerance": True},
        {"kmax": 2.5},
        {"kmax": True},
        {"seed": -1},
        {"seed": "3"},
        {"field_count": 0},
        {"theta": None},
        {"theta": [0.0, 0.0, 0.0]},
        {"theta": [0, 0, 0, "4"]},
        {"theta": [True, 0, 0, 0]},
        {"suites": [1]},
        {"out": 123},
    ], ids=lambda c: json.dumps(c))
    def test_bad_config_value_usage_error(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["exterior"], **config}))
        assert run(["verify", "--config", str(cfg_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"tolerance": 10**400}, {"theta": [10**400, 0, 0, 0]}],
                             ids=["tolerance", "theta"])
    def test_config_integer_beyond_float_range_usage_error(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["exterior"], **config}))
        assert run(["verify", "--config", str(cfg_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_usage_error(self, tmp_path, capsys):
        # a misspelled key used to be ignored and the run went on at the default
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["exterior"], "tolerence": 1e-3}))
        assert run(["verify", "--config", str(cfg_path)]) == 2
        assert "tolerence" in capsys.readouterr().err

    def test_config_defaults_are_runconfig_defaults(self):
        args = cli.build_parser().parse_args(["verify"])
        assert cli._load_config(None, args) == RunConfig()

    def test_every_runconfig_field_is_a_verify_flag(self):
        args = vars(cli.build_parser().parse_args(["verify"]))
        assert {f.name for f in dataclasses.fields(RunConfig)} <= set(args)

    @pytest.mark.parametrize("text, message", [
        (b"{", "error: cannot read config file: Expecting property name"),
        (b"[" * 100000 + b"]" * 100000, "error: cannot read config file: maximum recursion depth"),
        (b"\xff", "error: cannot read config file: 'utf-8' codec can't decode"),
        (None, "error: cannot read config file: [Errno 2]"),
        (b"[]", "error: a config file must hold a JSON object"),
    ], ids=["truncated", "deeply-nested", "not-utf-8", "missing", "not-an-object"])
    def test_unreadable_config_usage_error(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_bytes(text)
        assert run(["verify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kmax", ["13", "200"])
    def test_kmax_over_memory_budget_usage_error(self, capsys, kmax):
        assert run(["verify", "--suite", "exterior", "--kmax", kmax]) == 2
        assert "budget" in capsys.readouterr().err

    def test_config_kmax_over_memory_budget_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["exterior"], "kmax": 13}))
        assert run(["verify", "--config", str(cfg_path)]) == 2
        assert "budget" in capsys.readouterr().err

    def test_kmax_memory_budget_boundary(self):
        assert RunConfig(kmax=12).kmax == 12
        with pytest.raises(ValueError, match="budget"):
            RunConfig(kmax=13)

    def test_zero_fields_usage_error(self, capsys):
        assert run(["verify", "--suite", "operators", "--suite", "kodaira", "--fields", "0"]) == 2
        assert "field_count" in capsys.readouterr().err

    def test_report_carries_structure_matrices(self, tmp_path):
        out = tmp_path / "rep.json"
        run(["verify", "--suite", "exterior", "--out", str(out)])
        rep = json.loads(out.read_text())
        mats = rep["structure_matrices"]
        assert set(mats) == {"I", "J", "K"}
        assert np.array(mats["I"]).shape == (4, 4)


def nan_on_call(fn, call: int):
    """fn, except that its call-th call returns NaN in place of its result."""
    count = itertools.count(1)

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if next(count) != call:
            return out
        if isinstance(out, TransgressionResult):
            return dataclasses.replace(out, residual=float("nan"))
        return out * float("nan")

    return wrapped


class TestNonFiniteResidual:
    """A NaN in any one sample fails its check, whatever sample it lands in.

    Each suite runs at kmax 2 with two fields per property: every patched
    call below still lands inside the sample loops at that size.
    """

    @pytest.mark.parametrize("suite, module, name, call, check", [
        # the exterior suite samples nothing: its NaN comes out of one exact check
        ("exterior", suites, "derivation_defect", 1, "interior_derivation"),
        ("quaternionic", suites, "rotor_matrix", 3, "rotor_preserves_vol"),
        ("transgression", suites, "transgress1", 2, "transgress1_roundtrip"),
        ("clifford", spin, "conjugation_defect_sample", 2, "spin_conjugation_law"),
        # green's first call is the sample's hodge_decomposition, its second the real field
        ("operators", suites, "green", 2, "realness_preserved"),
    ], ids=["exterior", "quaternionic", "transgression", "clifford", "operators"])
    def test_nan_sample_fails_check(self, suite, module, name, call, check, tmp_path,
                                    monkeypatch, capsys):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, nan_on_call(original, call))
        rep = run_suites(RunConfig(kmax=2, field_count=2, suites=(suite,)))
        assert math.isnan(rep["suites"][suite]["checks"][check]["residual"])
        assert rep["suites"][suite]["checks"][check]["pass"] is False
        assert math.isnan(rep["suites"][suite]["max_residual"])
        assert math.isnan(rep["max_residual"])
        assert rep["all_pass"] is False

        # the report cannot be strict JSON; verify still exits 1 naming the check
        monkeypatch.setattr(module, name, nan_on_call(original, call))
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", suite, "--kmax", "2", "--fields", "2", "--out", str(out)]
        assert run(argv) == 1
        assert f"FAILED: {suite}:{check}" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_and_overall_max_keep_nan(self, monkeypatch):
        monkeypatch.setitem(suites.SUITES, "zeta", lambda cfg: {"a": 0.0, "b": float("nan")})
        rep = run_suites(RunConfig(suites=("zeta",)))
        assert math.isnan(rep["suites"]["zeta"]["max_residual"])
        assert math.isnan(rep["max_residual"])
        assert rep["first_failure"] == "zeta:b"


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


class TestNumericalFailure:
    """Every numerical exception a subcommand can raise exits 4 with nothing written."""

    @pytest.mark.parametrize("argv, module, name, exc", [
        (["verify"], cli, "run_suites", zeta.QuadratureFailure("quad")),
        (["verify"], cli, "run_suites", zeta.MethodDisagreement("gap")),
        (["verify"], cli, "run_suites", transgression.InconsistentConstant("spread")),
        (["torsion"], zeta, "torsion_report", zeta.QuadratureFailure("quad")),
        (["torsion"], zeta, "torsion_report", zeta.MethodDisagreement("gap")),
        (["lapl-constant"], transgression, "measure_lapl_constant",
         transgression.InconsistentConstant("spread")),
    ], ids=["verify-quadrature", "verify-disagreement", "verify-constant",
            "torsion-quadrature", "torsion-disagreement", "lapl-constant-constant"])
    def test_exit_4(self, tmp_path, monkeypatch, capsys, argv, module, name, exc):
        monkeypatch.setattr(module, name, _raise(exc))
        out = tmp_path / "out.json"
        assert run([*argv, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"numerical failure: {exc}\n"
        assert captured.out == ""
        assert not out.exists()


class TestRefusalInsideVerify:
    """A solver refusal or an inconsistent constant inside verify is a failed check."""

    @pytest.mark.parametrize("name, exc, check", [
        ("transgress1", transgression.NotClosed("target is not closed"), "transgress1_roundtrip"),
        ("transgress2", transgression.NotDCClosed("I", 1.0), "transgress2_roundtrip"),
        ("measure_lapl_constant", transgression.InconsistentConstant("spread"),
         "lapl_constant_spread"),
    ], ids=["NotClosed", "NotDCClosed", "InconsistentConstant"])
    def test_exit_1_with_the_other_suites_run(self, tmp_path, monkeypatch, capsys, name, exc,
                                              check):
        monkeypatch.setattr(suites, name, _raise(exc))
        ran = []
        monkeypatch.setitem(suites.SUITES, "exterior",
                            lambda cfg: ran.append("exterior") or {"stub": 0.0})
        cfg = RunConfig(kmax=1, field_count=1, suites=("transgression", "exterior"))
        report = run_suites(cfg)
        assert ran == ["exterior"]
        assert report["suites"]["transgression"]["checks"][check]["residual"] == math.inf
        assert report["first_failure"] == f"transgression:{check}"
        assert report["suites"]["exterior"]["pass"]
        out = tmp_path / "out.json"
        argv = ["verify", "--kmax", "1", "--fields", "1", "--suite", "transgression"]
        assert run([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(
            f"FAILED: transgression:{check} exceeds tolerance 1e-10\n")
        assert not out.exists()


class TestExitMap:
    """main alone maps what a command raises to its exit code."""

    @pytest.mark.parametrize("exc, code, line", [
        (transgression.NotClosed("target is not closed (residual 1.000e-03)"), 3,
         "precondition violated: NotClosed: target is not closed (residual 1.000e-03)"),
        (transgression.NotExact("target has a harmonic part (residual 1.000e-03)"), 3,
         "precondition violated: NotExact: target has a harmonic part (residual 1.000e-03)"),
        (transgression.NotDCClosed("J", 1e-3), 3,
         "precondition violated: NotDCClosed: target is not d_J-closed (residual 1.000e-03)"),
        (transgression.DegreeTooLow("target has degree 3"), 3,
         "precondition violated: DegreeTooLow: target has degree 3"),
        (transgression.InconsistentConstant("spread"), 4, "numerical failure: spread"),
    ], ids=["NotClosed", "NotExact", "NotDCClosed", "DegreeTooLow", "InconsistentConstant"])
    def test_transgress(self, tmp_path, monkeypatch, capsys, exc, code, line):
        monkeypatch.setattr(transgression, "transgress1", _raise(exc))
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": 1, "entries": []}))
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""
        assert not out.exists()

    def test_nan_potential_exits_4_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def nan_potential(target, tol):
            potential = random_field(1, np.random.default_rng(3))
            potential.coeffs[7, 3] = complex(0.0, float("nan"))
            return TransgressionResult(potential, 0.0, 1, 1.0, {"d_closed": 0.0})

        monkeypatch.setattr(transgression, "transgress1", nan_potential)
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": 1, "entries": []}))
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: nothing written: ")
        assert captured.out == ""
        assert not out.exists()

    def test_only_main_returns_usage_precondition_and_numerical_exits(self):
        # a command raises; its own returns are success, a failed verification
        # and the one exit 4 decided after the potential is written
        source = inspect.getsource(cli)
        main_source = inspect.getsource(cli.main)
        returns = re.findall(r"return (EXIT_\w+)", source.replace(main_source, ""))
        assert sorted(set(returns)) == ["EXIT_FAIL", "EXIT_NUMERICAL", "EXIT_OK"]
        assert returns.count("EXIT_NUMERICAL") == 1


def package_exceptions():
    """Every exception class defined in a qhodge module."""
    found = []
    for info in pkgutil.iter_modules(qhodge.__path__):
        module = importlib.import_module(f"qhodge.{info.name}")
        found += [obj for obj in vars(module).values() if isinstance(obj, type)
                  and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    return found


class TestExceptionPickling:
    """Each exception survives pickle, as it must to cross a process boundary."""

    # constructor arguments of the classes with their own __init__
    ARGS = {transgression.NotDCClosed: ("I", 1e-3)}

    def test_discovery_sees_every_module(self):
        names = {cls.__name__ for cls in package_exceptions()}
        assert {"UsageError", "NonFiniteOutput", "QuadratureFailure", "MethodDisagreement",
                "TransgressionError", "NotDCClosed", "InconsistentConstant"} <= names

    @pytest.mark.parametrize("cls", package_exceptions(), ids=lambda cls: cls.__name__)
    def test_round_trip(self, cls):
        exc = cls(*self.ARGS[cls]) if "__init__" in vars(cls) else cls("a message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)

    @pytest.mark.parametrize("exc, argv, module, name, code", [
        (transgression.NotDCClosed("J", 1e-3), ["transgress", "--order", "1"], transgression,
         "transgress1", 3),
        (zeta.QuadratureFailure("quad"), ["torsion"], zeta, "torsion_report", 4),
        (transgression.InconsistentConstant("spread"), ["verify"], cli, "run_suites", 4),
    ], ids=["NotDCClosed", "QuadratureFailure", "InconsistentConstant"])
    def test_exit_survives_round_trip(self, tmp_path, monkeypatch, capsys, exc, argv, module,
                                      name, code):
        # what a worker process raises reaches main as its unpickled copy
        if argv[0] == "transgress":
            inp = tmp_path / "t.json"
            inp.write_text(json.dumps({"truncation": 1, "entries": []}))
            argv = [*argv, "--input", str(inp)]

        def exit_of(raised):
            monkeypatch.setattr(module, name, _raise(raised))
            return run([*argv, "--out", str(tmp_path / "out.json")]), capsys.readouterr()

        direct = exit_of(exc)
        assert direct[0] == code
        assert exit_of(pickle.loads(pickle.dumps(exc))) == direct
        assert not (tmp_path / "out.json").exists()


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the main thread if the block runs past `seconds`; a forked
    child does not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cores(monkeypatch, count):
    """Make the process see `count` usable cores; 2 sends operators to a worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestSuiteWorker:
    """With operators and another suite selected on two usable cores, operators runs in a
    forked worker: the same report, the same exit codes, and no process left behind."""

    def _forks(self, monkeypatch):
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
        return forks

    def test_report_is_the_in_process_report(self, monkeypatch):
        cfg = RunConfig(kmax=2, field_count=2, seed=5, theta=(0.13, 0.71, 0.29, 0.9))
        _cores(monkeypatch, 1)
        serial = json.dumps(run_suites(cfg))
        _cores(monkeypatch, 2)
        forks = self._forks(monkeypatch)
        assert json.dumps(run_suites(cfg)) == serial
        assert forks == [1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores, selection", [
        (1, ()),
        (2, ("operators",)),
        (2, ("kodaira", "transgression")),
    ], ids=["one-core", "operators-alone", "no-operators"])
    def test_runs_in_process(self, monkeypatch, cores, selection):
        _cores(monkeypatch, cores)
        monkeypatch.setattr(os, "fork", _raise(AssertionError("a process was started")))
        assert run_suites(RunConfig(kmax=1, field_count=1, suites=selection))["all_pass"]

    @pytest.mark.parametrize("refused", ["fork", "pipe"])
    def test_no_worker_to_be_had_runs_every_suite_here(self, tmp_path, monkeypatch, capsys, refused):
        # at a process or descriptor limit the run is the serial run, with the pipe ends
        # it opened closed
        cfg = RunConfig(kmax=1, field_count=1, suites=("operators", "zeta"))
        _cores(monkeypatch, 1)
        serial = json.dumps(run_suites(cfg))
        _cores(monkeypatch, 2)
        ctx, pipes = multiprocessing.get_context("fork"), []
        if refused == "fork":
            monkeypatch.setattr(os, "fork", _raise(BlockingIOError(errno.EAGAIN, "no process")))
            real_pipe = ctx.Pipe

            def recording_pipe(duplex):
                ends = real_pipe(duplex)
                pipes.extend(ends)
                return ends

            monkeypatch.setattr(ctx, "Pipe", recording_pipe)
        else:
            monkeypatch.setattr(ctx, "Pipe", _raise(OSError(errno.EMFILE, "no descriptor")))
        assert json.dumps(run_suites(cfg)) == serial
        argv = ["verify", "--kmax", "1", "--fields", "1", "--suite", "operators", "--suite", "zeta"]
        assert run([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert capsys.readouterr().err == ""
        assert all(end.closed for end in pipes) and len(pipes) == (4 if refused == "fork" else 0)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises(self, monkeypatch):
        _cores(monkeypatch, 2)
        monkeypatch.setitem(suites.SUITES, "operators", lambda cfg: os._exit(1))
        with _deadline(30), pytest.raises(RuntimeError, match=r"worker process died \(exit code 1\)"):
            run_suites(RunConfig(kmax=1, field_count=1, suites=("operators", "zeta")))
        assert multiprocessing.active_children() == []

    def test_parent_exception_kills_the_worker(self, tmp_path, monkeypatch, capsys):
        # zeta comes first, so its exception wins without waiting for the worker
        _cores(monkeypatch, 2)
        forks = self._forks(monkeypatch)
        monkeypatch.setitem(suites.SUITES, "operators", lambda cfg: time.sleep(60))
        monkeypatch.setitem(suites.SUITES, "zeta", _raise(zeta.QuadratureFailure("quad")))
        argv = ["verify", "--kmax", "1", "--fields", "1", "--suite", "zeta", "--suite", "operators"]
        with _deadline(30):
            assert run([*argv, "--out", str(tmp_path / "out.json")]) == 4
        assert capsys.readouterr().err == "numerical failure: quad\n"
        assert forks == [1]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("order, raising, winner", [
        (("operators", "zeta"), ("operators",), "operators"),
        (("operators", "zeta"), ("zeta",), "zeta"),
        (("operators", "zeta"), ("operators", "zeta"), "operators"),
        (("zeta", "operators"), ("operators", "zeta"), "zeta"),
    ], ids=["worker", "parent", "worker-first", "parent-first"])
    def test_errors_are_the_serial_errors(self, tmp_path, monkeypatch, capsys, cores, order,
                                          raising, winner):
        # an exception keeps its exit code and stderr line, and of two raising suites the
        # one first in the selection wins, as in a serial run
        _cores(monkeypatch, cores)
        forks = self._forks(monkeypatch)
        for name in raising:
            monkeypatch.setitem(suites.SUITES, name, _raise(zeta.MethodDisagreement(name)))
        out = tmp_path / "out.json"
        argv = ["verify", "--kmax", "1", "--fields", "1", "--out", str(out)]
        assert run([*argv, *itertools.chain(*(("--suite", n) for n in order))]) == 4
        assert capsys.readouterr().err == f"numerical failure: {winner}\n"
        assert len(forks) == cores - 1
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_worker_exception_carries_its_traceback(self, monkeypatch):
        def broken_operators_suite(cfg):
            raise ValueError("broken")

        _cores(monkeypatch, 2)
        monkeypatch.setitem(suites.SUITES, "operators", broken_operators_suite)
        with pytest.raises(ValueError, match="broken") as info:
            run_suites(RunConfig(kmax=1, field_count=1, suites=("operators", "zeta")))
        assert "in broken_operators_suite" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []


class TestUnwritableOut:
    """An --out that cannot be opened is a usage error: one line on stderr, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "exterior"],
        ["torsion", "--theta", "0.5,0,0,0"],
        ["lapl-constant", "--modes", "3"],
        ["transgress", "--order", "1"],
    ], ids=["verify", "torsion", "lapl-constant", "transgress"])
    def test_exit_2(self, tmp_path, capsys, argv):
        if argv[0] == "transgress":
            inp = tmp_path / "t.json"
            exterior_d(random_field(1, np.random.default_rng(5))).save(inp)
            argv = [*argv, "--input", str(inp)]
        out = tmp_path / "missing_dir" / "out.json"
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    # each subcommand line, and the function that does its work
    WORK = pytest.mark.parametrize("argv, module, name", [
        (["verify"], cli, "run_suites"),
        (["torsion"], zeta, "torsion_report"),
        (["lapl-constant"], transgression, "measure_lapl_constant"),
        (["transgress", "--order", "1"], transgression, "transgress1"),
        (["transgress", "--order", "2", "--structure", "I"], transgression, "transgress2"),
        (["transgress", "--order", "4"], transgression, "transgress4"),
    ], ids=["verify", "torsion", "lapl-constant", "transgress-1", "transgress-2", "transgress-4"])

    @staticmethod
    def no_work(tmp_path, monkeypatch, argv, module, name):
        """argv with a form file for transgress; the work function raises if it runs."""
        monkeypatch.setattr(module, name, _raise(AssertionError(f"{name} ran before --out")))
        if argv[0] != "transgress":
            return argv
        inp = tmp_path / "t.json"
        exterior_d(random_field(1, np.random.default_rng(5))).save(inp)
        return [*argv, "--input", str(inp)]

    @WORK
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_checked_before_any_work(self, tmp_path, monkeypatch, capsys, argv, module, name,
                                     target):
        argv = self.no_work(tmp_path, monkeypatch, argv, module, name)
        out = tmp_path / "missing_dir" / "out.json" if target == "missing-dir" else tmp_path
        before = sorted(tmp_path.rglob("*"))
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before  # nothing created

    @WORK
    def test_empty_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, module, name):
        # an empty --out is given, not absent: it must not fall back to stdout
        argv = self.no_work(tmp_path, monkeypatch, argv, module, name)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run([*argv, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot write '': an empty path names no file\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_empty_config_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suites", _raise(AssertionError("run_suites ran before out")))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": ""}))
        assert run(["verify", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot write '': an empty path names no file\n"
        assert captured.out == ""

    def test_config_out_checked_before_suites(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suites", _raise(AssertionError("run_suites ran before out")))
        out = tmp_path / "missing_dir" / "out.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(out)}))
        assert run(["verify", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_relative_out_in_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["lapl-constant", "--modes", "1", "--out", "c.json"]) == 0
        assert json.loads((tmp_path / "c.json").read_text())["constant"] == pytest.approx(1.0)


class TestOneParser:
    """main parses every call with the one parser build_parser makes per process."""

    def test_second_call_leaves_no_argparse_garbage(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        argv = ["torsion", "--theta", "0.5,0,0,0", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)  # keep what the collector frees, to look at
        try:
            assert main(argv) == 0
            gc.collect()
            left = sorted({type(o).__qualname__ for o in gc.garbage
                           if type(o).__module__ == "argparse" or isinstance(o, argparse.ArgumentParser)})
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert left == []
        # the shared parser still answers --help and rejects a bad flag, and parses as before
        assert main(["--help"]) == 0
        assert main(["torsion", "--no-such-flag"]) == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        assert main(argv) == 0
        assert out.read_bytes() == first


def dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an x86_64 OpenBLAS that picks its kernel at run time."""
    if platform.machine() != "x86_64":
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def openblas_coretypes() -> list[str]:
    """The OpenBLAS kernels compared with the default one: Sandybridge, Nehalem and, on a
    CPU with AVX2, Haswell."""
    coretypes = ["Sandybridge", "Nehalem"]
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists() and re.search(r"\bavx2\b", cpuinfo.read_text(encoding="utf-8")):
        coretypes.append("Haswell")
    return coretypes


def numpy_simd_levels() -> list[str]:
    """numpy's run-time dispatch targets that this CPU has, in numpy's order (lowest first)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return [level for level in getattr(umath, "__cpu_dispatch__", []) if features.get(level)]


# the files KERNEL_RUNS writes, each the same under every OpenBLAS kernel: the pinned
# twisted torsion; a verify of the suites that take no BLAS product whose bits follow the
# kernel, which operators (rotors, the helpers' products), quaternionic (rotors) and clifford
# (spin's 4x4 products) do; and the hash of d_x and d_x* of seeded fields at kmax 2 and 4,
# for a few seeded x each
KERNEL_OUTPUTS = ("torsion.json", "verify.json", "d_x.sha256")
KERNEL_RUNS = f"""
import hashlib
import sys
import numpy as np
from qhodge.cli import main
from qhodge.fields import random_field
from qhodge.operators import quaternionic_d, quaternionic_d_star
digest = hashlib.sha256()
for kmax in (2, 4):
    rng = np.random.default_rng(kmax)
    f = random_field(kmax, rng)
    for _ in range(3):
        x = rng.standard_normal(4)
        for op in (quaternionic_d, quaternionic_d_star):
            digest.update(np.ascontiguousarray(op(f, x).coeffs).tobytes())
with open("d_x.sha256", "w") as fh:
    fh.write(digest.hexdigest())
suites = [a for s in ("exterior", "kodaira", "transgression", "zeta") for a in ("--suite", s)]
sys.exit(main(["torsion", "--theta", "{THETA}", "--out", "torsion.json"])
         or main(["verify", "--kmax", "2", "--fields", "1", "--seed", "7", "--theta", "{THETA}",
                  *suites, "--out", "verify.json"]))
"""


class TestModuleEntryPoint:
    """python -m qhodge.cli exits with the code main returns."""

    @pytest.mark.parametrize("argv, code", [
        (["lapl-constant", "--modes", "3"], 0),
        (["transgress", "--order", "3", "--input", "x", "--out", "y"], 2),
    ], ids=["lapl-constant", "bad-order"])
    def test_exit_code(self, tmp_path, argv, code):
        proc = self.run_module(tmp_path, argv)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["constant"] == pytest.approx(1.0, abs=1e-12)

    def test_deeply_nested_input_is_one_line_without_traceback(self, tmp_path):
        (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
        proc = self.run_module(tmp_path, ["transgress", "--order", "1", "--input", "deep.json",
                                          "--out", "r.json"])
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: cannot read form file: maximum recursion depth")
        assert proc.stderr.count(b"\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        reports = []
        for threads in ("1", "2"):
            out = f"report-{threads}.json"
            proc = self.run_module(tmp_path, ["verify", "--kmax", "3", "--fields", "2", "--seed", "7",
                                              "--theta", THETA, "--out", out],
                                   OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            reports.append((tmp_path / out).read_bytes())
        assert reports[0] == reports[1]

    @pytest.fixture(scope="class")
    def kernel_outputs(self, tmp_path_factory):
        """KERNEL_OUTPUTS by name, per OpenBLAS kernel, from one child run each."""
        tmp_path = tmp_path_factory.mktemp("kernels")
        outputs = {}
        for coretype in ["default", *openblas_coretypes()]:
            cwd = tmp_path / coretype
            cwd.mkdir()
            env = {} if coretype == "default" else {"OPENBLAS_CORETYPE": coretype}
            proc = run_python(SRC, ["-c", KERNEL_RUNS], cwd, **env)
            assert proc.returncode == 0, proc.stderr
            outputs[coretype] = {name: (cwd / name).read_bytes() for name in KERNEL_OUTPUTS}
        return outputs

    @pytest.mark.skipif(not dynamic_arch_openblas(),
                        reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on x86_64")
    def test_outputs_do_not_depend_on_openblas_kernel(self, kernel_outputs):
        for coretype, files in kernel_outputs.items():
            for name in ("torsion.json", "verify.json"):
                assert files[name] == kernel_outputs["default"][name], (coretype, name)

    @pytest.mark.skipif(not dynamic_arch_openblas(),
                        reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on x86_64")
    def test_quaternionic_d_does_not_depend_on_openblas_kernel(self, kernel_outputs):
        for coretype, files in kernel_outputs.items():
            assert files["d_x.sha256"] == kernel_outputs["default"]["d_x.sha256"], coretype

    @pytest.mark.skipif(not numpy_simd_levels(), reason="numpy dispatches to no SIMD level here")
    def test_operators_report_does_not_depend_on_numpy_simd_level(self, tmp_path):
        # each run disables one more of the levels this CPU has, from the top, so that each
        # level and the baseline in turn serve numpy's ufuncs
        levels = numpy_simd_levels()
        argv = ["verify", "--suite", "operators", "--kmax", "2", "--fields", "1", "--seed", "7",
                "--theta", THETA, "--out", "verify.json"]
        reports = {}
        for top in range(len(levels), -1, -1):
            disabled = " ".join(levels[top:])
            cwd = tmp_path / f"level-{top}"
            cwd.mkdir()
            proc = run_python(SRC, ["-m", "qhodge.cli", *argv], cwd,
                              **({"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {}))
            assert proc.returncode == 0, proc.stderr
            reports[disabled or "none"] = (cwd / "verify.json").read_bytes()
        for disabled, report in reports.items():
            assert report == reports["none"], disabled

    @staticmethod
    def run_module(cwd, argv, **env):
        return run_python(SRC, ["-m", "qhodge.cli", *argv], cwd, **env)


class TestTransgress:
    def test_roundtrip_fixture(self, tmp_path):
        rng = np.random.default_rng(123)
        sigma = random_field(2, rng, degree=0)
        target = quartic_differential(sigma)
        inp = tmp_path / "target.json"
        target.save(inp)
        out = tmp_path / "result.json"
        code = run(["transgress", "--order", "4", "--input", str(inp), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["order"] == 4
        assert doc["residual"] <= 1e-8
        assert doc["sign"] == 1.0
        assert set(doc["precondition_residuals"]) >= {"d_closed", "harmonic_part"}

    def test_order1(self, tmp_path):
        rng = np.random.default_rng(5)
        target = exterior_d(random_field(1, rng))
        inp = tmp_path / "t.json"
        target.save(inp)
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == 0

    def test_order2_requires_structure(self, tmp_path, capsys):
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": 1, "entries": []}))
        code = run(["transgress", "--order", "2", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--structure" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["1", "4"])
    def test_structure_outside_order2_usage_error(self, tmp_path, capsys, order):
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": 1, "entries": []}))
        out = tmp_path / "r.json"
        argv = ["transgress", "--order", order, "--structure", "I", "--input", str(inp)]
        assert run([*argv, "--out", str(out)]) == 2
        assert "--structure" in capsys.readouterr().err
        assert not out.exists()

    def test_harmonic_input_precondition_exit(self, tmp_path, capsys):
        f = single_mode(1, (0, 0, 0, 0), VOL)
        inp = tmp_path / "t.json"
        f.save(inp)
        code = run(["transgress", "--order", "4", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "NotExact" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_residual_is_a_precondition_exit(self, tmp_path, capsys):
        # finite coefficients whose norm lies beyond the float range: the
        # closedness residual is NaN
        target = random_field(1, np.random.default_rng(5), degree=1) * 1e307
        inp = tmp_path / "t.json"
        target.save(inp)
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("precondition violated: NotClosed: ")
        assert not out.exists()

    def test_not_dc_closed_exit_names_structure(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        target = exterior_d(random_field(1, rng, degree=1))
        inp = tmp_path / "t.json"
        target.save(inp)
        code = run(["transgress", "--order", "4", "--input", str(inp), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "NotDCClosed" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"re": float("nan")}, "finite"),
        ({"im": float("inf")}, "finite"),
        ({"blade_mask": 16}, "blade_mask"),
        ({"blade_mask": -1}, "blade_mask"),
        ({"k": [0.5, 0, 0, 0]}, "every k"),
        ({"k": [0, 0, 0]}, "entries: k"),
        ({"k": [2, 0, 0, 0]}, "truncation"),
        ({"re": "1.0"}, "number"),
        ({"k": [True, False, 0, 0]}, "every k"),
        ({"blade_mask": True}, "blade_mask"),
        ({"re": True}, "number"),
        ({"k": [2**70, 0, 0, 0]}, "entries: k"),
        ({"k": [1.0, 0, 0, 0]}, "every k"),
        ({"k": 5}, "entries: k"),
        ({"im": 10**400}, "entries: im"),
    ], ids=["nan-re", "inf-im", "mask-16", "mask-minus-1", "fractional-k", "short-k",
            "k-outside", "string-re", "boolean-k", "boolean-mask", "boolean-re",
            "k-beyond-int64", "integer-valued-float-k", "scalar-k", "im-beyond-float"])
    def test_malformed_form_file_usage_error(self, tmp_path, capsys, entry, message):
        good = {"k": [1, 0, 0, 0], "blade_mask": 1, "re": 1.0, "im": 0.0}
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": 1, "entries": [good, dict(good, **entry)]}))
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tolerance_usage_error(self, tmp_path, capsys, tol):
        # a NaN tolerance used to let a form that is not closed pass every check
        rng = np.random.default_rng(6)
        inp = tmp_path / "t.json"
        random_field(1, rng, degree=1).save(inp)
        out = tmp_path / "r.json"
        code = run(["transgress", "--order", "1", f"--tol={tol}", "--input", str(inp), "--out", str(out)])
        assert code == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"truncation": 1.5, "entries": []},
        {"truncation": -1, "entries": []},
        {"truncation": True, "entries": []},
        {"truncation": "1", "entries": []},
        {"truncation": 1, "entries": 0},
        {"truncation": 1},
        [],
    ], ids=lambda d: json.dumps(d))
    def test_malformed_form_document_usage_error(self, tmp_path, capsys, doc):
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps(doc))
        assert run(["transgress", "--order", "1", "--input", str(inp),
                    "--out", str(tmp_path / "r.json")]) == 2
        assert "cannot read form file" in capsys.readouterr().err

    @pytest.mark.parametrize("truncation", [13, 1000])
    def test_truncation_over_memory_budget_usage_error(self, tmp_path, capsys, truncation):
        inp = tmp_path / "t.json"
        inp.write_text(json.dumps({"truncation": truncation, "entries": []}))
        assert run(["transgress", "--order", "1", "--input", str(inp),
                    "--out", str(tmp_path / "r.json")]) == 2
        assert "budget" in capsys.readouterr().err

    def test_bad_order_usage(self, tmp_path, capsys):
        code = run(["transgress", "--order", "3", "--input", "x", "--out", "y"])
        assert code == 2

    @pytest.mark.parametrize("text", [b"[" * 100000 + b"]" * 100000, b"\xff", b"{"],
                             ids=["deeply-nested", "not-utf-8", "truncated"])
    def test_unreadable_form_file_usage_error(self, tmp_path, capsys, text):
        inp = tmp_path / "t.json"
        inp.write_bytes(text)
        out = tmp_path / "r.json"
        assert run(["transgress", "--order", "1", "--input", str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read form file: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_input_usage(self, tmp_path, capsys):
        code = run(["transgress", "--order", "1", "--input", str(tmp_path / "no.json"),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2


class TestDecoderGC:
    """Form and config files are read with the cyclic GC paused; every outcome restores it."""

    @pytest.mark.parametrize("what", ["form", "config"])
    @pytest.mark.parametrize("text, code", [
        ("valid", 0),
        (None, 2),
        (b"\xff", 2),
        (b"{", 2),
        (b"[" * 100000 + b"]" * 100000, 2),
        (b'{"truncation": -1, "entries": [], "seed": -1}', 2),
    ], ids=["valid", "missing", "not-utf-8", "bad-json", "deeply-nested", "rejected-document"])
    def test_state_is_restored(self, tmp_path, capsys, gc_state, what, text, code):
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        if text == "valid" and what == "form":
            exterior_d(random_field(1, np.random.default_rng(5))).save(path)
        elif text == "valid":
            path.write_text(json.dumps({"suites": ["exterior"], "kmax": 1, "field_count": 1}))
        elif text is not None:
            path.write_bytes(text)
        argv = (["transgress", "--order", "1", "--input", str(path)] if what == "form"
                else ["verify", "--config", str(path)])
        assert run([*argv, "--out", str(out)]) == code
        assert gc.isenabled() is gc_state
        if code:
            assert capsys.readouterr().err.startswith("error: ")


class TestTorsion:
    def test_report(self, tmp_path):
        out = tmp_path / "torsion.json"
        code = run(["torsion", "--theta", "0,0,0,0", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["identity_residuals"]["abs(T - 1)"] <= 1e-8
        assert rep["identity_residuals"]["rel(T_h - det0^2)"] <= 1e-8
        assert rep["identity_residuals"]["abs(beta0 - 3 log T_h)"] <= 1e-6
        assert set(rep["per_q"]) == {"0", "1", "2"}

    @pytest.mark.parametrize("theta", ["-1e-9,0,0,0", "0.999999999,0,0,0"])
    def test_near_lattice_theta_is_the_untwisted_report(self, tmp_path, theta):
        # within 1e-8 of Z^4 theta is untwisted and echoed as zeros; a value that
        # starts with "-" and a digit is the flag's argument, not an option
        reports = []
        for i, arg in enumerate((theta, "0,0,0,0")):
            out = tmp_path / f"torsion{i}.json"
            assert run(["torsion", "--theta", arg, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_theta_parse_error(self, capsys):
        assert run(["torsion", "--theta", "1,2"]) == 2

    def test_nan_theta_usage_error(self, capsys):
        assert run(["torsion", "--theta", "nan,0,0,0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_infinite_theta_usage_error(self, capsys):
        assert run(["torsion", "--theta", "inf,0,0,0"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_output_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.zeta, "torsion_report", lambda theta: {"T": float("nan")})
        out = tmp_path / "torsion.json"
        assert run(["torsion", "--out", str(out)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


class TestLaplConstant:
    def test_measured_constant(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["lapl-constant", "--modes", "6", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["constant"] == pytest.approx(1.0, abs=1e-12)
        assert rep["spread"] <= 1e-10
        assert len(rep["modes"]) == 6
        assert "16" in rep["note"]

    @pytest.mark.parametrize("modes", ["0", "-3", "2401", "100000"])
    def test_modes_out_of_range_usage_error(self, capsys, modes):
        assert run(["lapl-constant", "--modes", modes]) == 2
        assert "1-2400" in capsys.readouterr().err

    def test_probe_modes_cover_the_box(self):
        modes = cli._probe_modes(cli.PROBE_MODES)
        assert cli.PROBE_MODES == 2400
        assert len(set(modes)) == 2400 and (0, 0, 0, 0) not in modes
        assert modes[:5] == [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1),
                             (0, 0, 0, 1)]

    def test_stdout_emission(self, capsys):
        code = run(["lapl-constant", "--modes", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["constant"] == pytest.approx(1.0, abs=1e-12)
