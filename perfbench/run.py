"""qhodge benchmark: seeded closed-loop workloads over the qhodge CLI.

    python3 perfbench/run.py --workload {verify,torsion,transgress} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a qhodge checkout; it uses src/ directly (no install)
and tests/oracles.py for the log det' oracle.  One caller runs one pass at a
time, each pass in a fresh child interpreter (perfbench/child.py) that runs
the workload's fixed list of CLI operations in-process.  A new pass starts
only if the last one would still fit in S seconds, so a run measures about S
seconds; the first pass always runs.

--trace 0 reports the end-to-end metrics: setup_s (spawn to `import qhodge`
plus the first-use grid builds; median over every pass and extra set-up-only
children, at least five), and the medians over passes of wall_s, cpu_s (all
threads, BLAS included) and peak_rss_mb of the pass.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (perfbench/spans.py) plus the tracing overhead.  Every operation's output
is checked; attempted/failed count operations, so fail_ratio = failed /
attempted.  The last stdout line is the JSON result; a fuller record with
provenance goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are cut before that
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith("share") or name.endswith("per_call"):
        return "ratio"
    return "count"


def summarize(values: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    ordered = sorted(values)
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]
            break
    return out


def provenance(root: str, seed: int) -> dict:
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "qhodge", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python_parent": sys.version.split()[0]}


class Runner:
    """Spawns one child interpreter at a time and collects its result."""

    def __init__(self, root: str, work: str, log):
        self.root, self.work, self.log = root, work, log
        self.count = 0
        self.t_start = time.perf_counter()
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def child(self, ops, grids, trace: bool) -> dict | None:
        self.count += 1
        spec_path = os.path.join(self.work, f"spec-{self.count}.json")
        spec = {"ops": [{"id": op.id, "argv": op.argv} for op in ops], "grids": grids,
                "trace": trace, "result": os.path.join(self.work, f"result-{self.count}.json"),
                "spans_out": os.path.join(self.work, "spans.json")}
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.t_start))
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=self.log, stderr=self.log)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"child {self.count} cut after {timeout:.0f} s", file=self.log, flush=True)
            return None
        if code != 0 or not os.path.exists(spec["result"]):
            print(f"child {self.count} exited {code} without a result", file=self.log, flush=True)
            return None
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["setup_end"] - t_spawn
        result["child_s"] = time.perf_counter() - t_spawn
        return result


def field_bytes(kmax: int) -> int:
    return (2 * kmax + 1) ** 4 * 16 * 16  # 16 complex128 blades per mode


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, root: str) -> dict:
    out_dir = os.path.join(HERE, "out")
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    work = os.path.join(out_dir, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    load_start = os.getloadavg()
    oracles = workloads.load_oracles(root)
    wl = workloads.WORKLOADS[workload](np.random.default_rng(seed), work, tiny, oracles)

    with open(os.path.join(work, "children.log"), "w", encoding="utf-8") as log:
        runner = Runner(root, work, log)
        runner.child([], wl.grids, False)  # compiles qhodge's bytecode; not measured
        passes, traced, setups, failures = [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            is_traced = trace and len(passes) > len(traced)
            for op in wl.ops:
                if os.path.exists(op.out):
                    os.remove(op.out)
            t_pass = time.perf_counter()
            res = runner.child(wl.ops, wl.grids, is_traced)
            codes = res["codes"] if res else ["no result"] * len(wl.ops)
            for op, code in zip(wl.ops, codes):
                attempted += 1
                why = workloads.check_op(op, code)
                if why:
                    failed += 1
                    failures.append({"pass": len(passes) + len(traced), "op": op.id, "why": why})
            if res:
                (traced if is_traced else passes).append(res)
                if not is_traced:
                    setups.append(res["setup_s"])
            now = time.perf_counter()
            enough = len(traced) >= 1 and len(passes) >= 1 if trace else len(passes) >= 1
            if res is None and not (passes or traced):
                break
            if enough and now - start + (now - t_pass) > seconds:
                break
        while not trace and passes and len(setups) < MIN_SETUPS:
            res = runner.child([], wl.grids, False)
            if res is None:
                break
            setups.append(res["setup_s"])

    samples = {"setup_s": setups}
    for name in END_TO_END[1:]:
        samples[name] = [p[name] for p in passes]
    summary = {name: summarize(v) for name, v in samples.items()}
    if not trace:
        metrics = {name: summary[name]["median"] for name in END_TO_END if samples[name]}
    else:
        metrics = {}
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(p["layers"][name] for p in traced)
            metrics["fields.grid.builds"] = statistics.median(p["grid_builds"] for p in traced)
            metrics["fields.field_bytes"] = max((field_bytes(k) for k in wl.grids), default=0)
            metrics["fields.json_bytes_in"] = sum(os.path.getsize(p) for op in wl.ops
                                                  for p in op.inputs)
            metrics["fields.json_bytes_out"] = sum(os.path.getsize(op.out) for op in wl.ops
                                                   if op.inputs and os.path.exists(op.out))
            metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
            if passes:
                metrics["trace.untraced_wall_s"] = summary["wall_s"]["median"]
                metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]

    record = {
        "workload": workload, "seconds": seconds, "trace": trace, "tiny": tiny,
        "provenance": provenance(root, seed),
        "runtime": (passes or traced or [{}])[0].get("runtime"),
        "loadavg": {"start": load_start, "end": os.getloadavg()},
        "operations": [{"id": op.id, "argv": op.argv} for op in wl.ops],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else None,
        "failures": failures, "summary": summary, "metrics": metrics,
        "passes": [{k: p.get(k) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                          "codes", "op_seconds", "child_s")}
                   for p in passes + traced],
    }
    with open(os.path.join(out_dir, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name in os.listdir(work):  # keep the log and the last traced pass's spans
        if name not in ("children.log", "spans.json"):
            os.remove(os.path.join(work, name))
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every operation for the benchmark's self-tests")
    args = p.parse_args(argv)
    root = os.getcwd()
    needed = [os.path.join(root, "src", "qhodge", "cli.py"), os.path.join(root, "tests", "oracles.py")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"error: not a qhodge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size == "tiny", root)
    line = {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in record["metrics"].items()}}
    print(json.dumps(line))
    return 0 if record["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
