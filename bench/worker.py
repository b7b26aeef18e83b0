"""One pass of one workload, in a fresh process.

Run by `run.py`, never imported by it:

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
                            [--trace 0|1] [--spans PATH] [--setup-only]

Set-up is everything from process start to `ready_at`: importing numpy
and pbklab and one BLAS/LAPACK warm-up.  The pass then times the
workload's operations with wall and process CPU clocks; lazy work that
users pay in every process, such as growing the ln-Gamma table, stays
inside the pass.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import pbklab
import workloads


def _warm_up_blas() -> None:
    a = np.random.default_rng(0).standard_normal((96, 96))
    h = a + a.T
    _ = a @ a
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)
    np.linalg.qr(a)
    np.linalg.lstsq(a, a[:, 0], rcond=None)


def blas_record() -> dict:
    """The BLAS library numpy loaded and the threads it runs."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _digest(output: bytes | str | None) -> str:
    if isinstance(output, str):
        with open(output, "rb") as fh:
            output = fh.read()
    return hashlib.sha256(output or b"").hexdigest()


def run_pass(workload: str, seed: int, workdir: str, trace: bool,
             spans_path: str | None = None) -> dict:
    """Time one pass; with trace on, also collect the per-layer metrics."""
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(workload, seed, workdir)
    tracer = restore = None
    if trace:
        import layers
        import spans
        tracer = spans.Tracer()
        restore = layers.install(tracer)
    outcomes = []
    try:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            try:
                outcomes.append(op.run())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcomes.append(None)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        if restore is not None:
            restore()
    results = []
    deviations = {"quadrature_vs_eig": 0.0, "hilbert_vs_level_sum": 0.0}
    for op, outcome in zip(ops, outcomes):
        ok = outcome is not None and outcome.ok
        digest = None
        if outcome is not None:
            try:
                digest = _digest(outcome.output)
            except OSError:
                ok = False
            if outcome.deviation is not None:
                key = ("quadrature_vs_eig" if op.name == "selftest-hilbert"
                       else "hilbert_vs_level_sum")
                deviations[key] = max(deviations[key], outcome.deviation)
        results.append({"name": op.name, "ok": ok, "digest": digest})
    out = {"wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "ops": results}
    if tracer is not None:
        out["layers"] = layers.metrics(tracer, deviations)
        if spans_path:
            tracer.write_jsonl(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once ready, to sample set-up time")
    args = parser.parse_args(argv)
    _warm_up_blas()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0
    result = run_pass(args.workload, args.seed, args.workdir,
                      bool(args.trace), args.spans)
    result["ready_at"] = ready_at
    result["record"] = {"python": sys.version.split()[0],
                        "numpy": np.__version__,
                        "pbklab": pbklab.__version__,
                        "blas": blas_record()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
