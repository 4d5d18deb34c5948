"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the operations (qhodge CLI argument lists), the mode grids every
CLI call builds on first use, whether to trace, and where to write the
result.  The child imports qhodge and builds the grids (its set-up, timed by
the parent from the spawn), then runs the operations in-process through
qhodge.cli.main, one at a time, and writes a JSON result: the perf_counter
value at which set-up ended, the pass's wall and CPU time, its peak RSS,
each operation's exit code, and, when traced, the per-layer metrics.  With
no operations it only sets up.  It prints nothing; qhodge's own stderr
passes through to the log the parent keeps.
"""

import json
import os
import resource
import sys
import time
import traceback


def _runtime_info() -> dict:
    """Versions and the BLAS library with its thread count, as found."""
    import numpy
    import scipy

    info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    info["blas_threads"] = _blas_threads()
    info["thread_env"] = {k: os.environ[k] for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                          if k in os.environ}
    return info


def _blas_threads():
    """Ask the loaded OpenBLAS for its thread count; None when it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import qhodge.cli
    from qhodge import fields

    grid = fields.grid  # the lru cache itself, before any tracing wrapper
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()
    for kmax in spec["grids"]:
        fields.grid(kmax)
    result = {"setup_end": time.perf_counter()}

    if spec["ops"]:
        codes = []
        seconds = []
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for op in spec["ops"]:
            if tracer is not None:
                tracer.op = op["id"]
            t = time.perf_counter()
            try:
                code = qhodge.cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is the operation's failure, not the pass's
                traceback.print_exc()
                code = "exception"
            seconds.append(time.perf_counter() - t)
            codes.append(code)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            "wall_s": t1 - t0,
            "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "codes": codes,
            "op_seconds": seconds,
            "grid_builds": grid.cache_info().misses,
        })
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts, t1 - t0)
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        result["runtime"] = _runtime_info()

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
