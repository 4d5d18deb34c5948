"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q perfbench

The smoke tests run every workload at tiny size through perfbench/run.py,
untraced and traced (about a minute on two cores).
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify", "torsion", "transgress")


def _span(name, start, end, parent=-1, excluded=0.0, outermost=True):
    return [name, start, end, parent, "op", excluded, outermost]


def test_self_time_on_synthetic_span_tree():
    tree = [
        _span("suites.suite_zeta", 0.0, 10.0, excluded=0.5),
        _span("zeta.regularized_integral", 1.0, 4.0, parent=0),
        _span("zeta.heat_trace_dual", 2.0, 3.0, parent=1),
        _span("zeta.regularized_integral", 5.0, 9.0, parent=0),
        _span("zeta.heat_trace_direct", 5.5, 6.0, parent=3),
        _span("zeta.heat_trace_direct", 6.0, 7.5, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 2, 0.5, 1.5])
    m = spans.layer_metrics(tree, {}, wall_s=11.0)
    assert m["layer.suites.self_s"] == pytest.approx(2.5)
    assert m["layer.zeta.self_s"] == pytest.approx(2 + 1 + 2 + 0.5 + 1.5)
    assert m["layer.harness.self_s"] == pytest.approx(1.0)
    assert m["suites.zeta.s"] == pytest.approx(10.0)
    assert m["zeta.regularized_integral.calls"] == 2
    assert m["zeta.regularized_integral.s"] == pytest.approx(7.0)
    assert m["zeta.heat_trace.evals"] == 3
    assert m["zeta.heat_trace.dual_share"] == pytest.approx(1 / 3)
    assert m["zeta.regularized_integral.evals_per_call"] == pytest.approx(1.5)


def test_inclusive_time_counts_nested_spans_once():
    tree = [
        _span("zeta.scalar_heat_trace", 0.0, 2.0),
        _span("zeta.heat_trace_dual", 0.5, 1.5, parent=0, outermost=False),
    ]
    assert spans.layer_metrics(tree, {}, wall_s=2.0)["zeta.heat_trace.s"] == pytest.approx(2.0)


def test_tracer_patches_every_binding():
    src = os.path.join(ROOT, "src")
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import qhodge.operators as o, qhodge.suites as s, qhodge.transgression as t, spans\n"
        "tr = spans.Tracer(); tr.install()\n"
        "assert s.exterior_d is o.exterior_d is t.exterior_d\n"
        "assert hasattr(o.exterior_d, '__wrapped__')\n"
        "assert hasattr(s.SUITES['zeta'], '__wrapped__')\n"
        "import numpy as np\n"
        "f = o.FormField.from_dict({'truncation': 1, 'entries': []})\n"
        "t.quartic_differential(o.green(f))\n"
        "names = [sp[0] for sp in tr.spans]\n"
        "assert names.count('operators.exterior_d') == 1, names\n"
        "assert 'fields.FormField.from_dict' in names\n"
    ) % (src, HERE)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, timeout=120)


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke():
    """Last-line results of tiny runs, keyed by (workload, trace)."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_tiny_smoke_has_no_failures(smoke):
    for key, result in smoke.items():
        assert result["attempted"] >= 1, key
        assert result["failed"] == 0 and result["correct"] is True, key


def test_metric_names_match_benchmark_json(smoke):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for (name, trace), result in smoke.items():
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared[trace], (name, trace)
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_outside_a_checkout_fails(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "torsion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_transgress(tmp_path_factory):
    """The tiny transgress workload, run in-process once, with its outputs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qhodge.cli

    work = str(tmp_path_factory.mktemp("transgress"))
    wl = workloads.transgress(np.random.default_rng(7), work, True, workloads.load_oracles(ROOT))
    for op in wl.ops:
        assert qhodge.cli.main(op.argv) == 0
        assert workloads.check_op(op, 0) is None
    return wl


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("order_index", [0, 1, 2])
def test_tampered_potential_is_a_failure(tiny_transgress, tmp_path, order_index):
    op = copy.copy(tiny_transgress.ops[order_index])
    op.out = str(tmp_path / "tampered.json")
    with open(tiny_transgress.ops[order_index].out, encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = max(doc["potential"]["entries"], key=lambda e: abs(complex(e["re"], e["im"])))
    entry["re"] += 1e-3 * abs(complex(entry["re"], entry["im"]))
    with open(op.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert "recomputed residual" in workloads.check_op(op, 0)


def test_non_strict_json_and_exit_codes_are_failures(tiny_transgress, tmp_path):
    op = copy.copy(tiny_transgress.ops[0])
    op.out = str(tmp_path / "nan.json")
    with open(tiny_transgress.ops[0].out, encoding="utf-8") as fh:
        text = fh.read()
    with open(op.out, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"residual": ', '"residual": NaN, "was": ', 1))
    assert "NaN" in workloads.check_op(op, 0)
    assert workloads.check_op(tiny_transgress.ops[0], 4) == "exit code 4"
    op.out = str(tmp_path / "missing.json")
    assert "cannot read output" in workloads.check_op(op, 0)


def test_torsion_and_verify_checks_reject_wrong_values(tmp_path):
    oracles = workloads.load_oracles(ROOT)
    wl = workloads.torsion(np.random.default_rng(1), str(tmp_path), True, oracles)
    op = wl.ops[0]
    good = {"theta": [0.0] * 4, "per_q": {"0": {"log_det_prime": oracles.jacobi_logdet_oracle()}},
            "identity_residuals": {"abs(T - 1)": 1e-15}}
    with open(op.out, "w", encoding="utf-8") as fh:
        json.dump(good, fh)
    assert workloads.check_op(op, 0) is None
    _rewrite(op.out, lambda d: d["per_q"]["0"].update(log_det_prime=d["per_q"]["0"]["log_det_prime"] + 1e-6))
    assert "oracle" in workloads.check_op(op, 0)
    _rewrite(op.out, lambda d: d.update(per_q=good["per_q"], identity_residuals={"abs(T - 1)": 1e-6}))
    assert "identity residual" in workloads.check_op(op, 0)

    v = workloads.verify(np.random.default_rng(1), str(tmp_path), True, oracles).ops[0]
    seed = int(v.argv[v.argv.index("--seed") + 1])
    theta = [float(x) for x in v.argv[v.argv.index("--theta") + 1].split(",")]
    report = {"all_pass": True, "config": {"seed": seed, "kmax": 2, "theta": theta}}
    with open(v.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    assert workloads.check_op(v, 0) is None
    _rewrite(v.out, lambda d: d.update(all_pass=False))
    assert "all_pass" in workloads.check_op(v, 0)
