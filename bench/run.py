#!/usr/bin/env python3
"""Benchmark of pbklab: time a workload in fresh processes, check its outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--result FILE.jsonl] [--spans FILE.jsonl]

Workloads and metrics are declared in BENCHMARK.json.  Each pass runs in
its own process (bench/worker.py), one after another, until the next pass
would end past --seconds; every metric is the median over the passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus trace.overhead_s, the traced minus the untraced wall time.

Operations fail if they raise, if an experiment misses its acceptance
verdict, if a deviation exceeds its criterion's bound, or if a pass's
output differs byte for byte from the first pass of the run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --result appends the run, with its run
record and every pass, to a JSON-lines file that compare.py reads.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PASS_TIMEOUT_S = 150
SETUP_SAMPLES = 5


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state(root: str) -> dict:
    """Commit and dirty flag, when the root itself is a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(root):
            raise ValueError("not the top of a work tree")
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), BENCH_DIR]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(root: str, env: dict, workload: str, seed: int, trace: bool,
               workdir: str, spans_path: str | None = None,
               setup_only: bool = False) -> tuple[dict, float]:
    """One pass in a fresh process; returns its report and its set-up time."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--workdir", workdir, "--trace", str(int(trace))]
    if spans_path:
        cmd += ["--spans", spans_path]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready_at"] - spawned_at


def run(root: str, spec: dict, workload: str, seed: int, seconds: float,
        trace: bool, spans_path: str | None) -> dict:
    env = worker_env(root)
    workdir = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    plain, traced = [], []
    first_digests = None
    attempted = failed = 0
    start = time.monotonic()
    # set-up samples beyond those the passes give, so that its median is
    # taken over several processes even when only two passes fit
    setups = [run_worker(root, env, workload, seed, False, workdir,
                         setup_only=True)[1]
              for _ in range(0 if trace else SETUP_SAMPLES)]
    longest = 0.0
    try:
        while True:
            traced_pass = trace and len(plain) > len(traced)
            began = time.monotonic()
            report, setup = run_worker(
                root, env, workload, seed, traced_pass,
                os.path.join(workdir, f"pass-{len(plain) + len(traced)}"),
                spans_path if traced_pass else None)
            report["setup_s"] = setup
            setups.append(setup)
            report["traced"] = traced_pass
            digests = [op["digest"] for op in report["ops"]]
            if first_digests is None:
                first_digests = digests
            for op, first in zip(report["ops"], first_digests):
                attempted += 1
                if not op["ok"] or op["digest"] != first:
                    failed += 1
            (traced if traced_pass else plain).append(report)
            longest = max(longest, time.monotonic() - began)
            done = len(plain) >= 1 and (not trace or len(traced) >= 1)
            if done and time.monotonic() - start + longest > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass    # another run still uses it

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in names if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: statistics.median(p[name] for p in plain)
                  for name in names if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
    record = dict(plain[0]["record"])
    record.update(git_state(root))
    record.update({"nproc": nproc(), "cpu_model": cpu_model(),
                   "platform": platform.platform(), "workload": workload,
                   "seed": seed, "seconds": seconds, "trace": int(trace),
                   "ops_per_pass": len(first_digests),
                   "passes": len(plain) + len(traced)})
    return {
        "record": record,
        "csv_digest": hashlib.sha256(
            json.dumps(first_digests).encode()).hexdigest(),
        "failed_frac": failed / attempted,
        "setup_samples": setups,
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "cpu_s",
                                      "peak_rss_mb")}
                   for p in plain + traced],
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {name: {"value": values[name],
                                      "unit": units[name]}
                               for name in names}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time one pbklab workload and check its outputs.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="append the run to this JSON-lines file")
    parser.add_argument("--spans", help="write the spans of the last traced "
                                        "pass to this JSON-lines file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pbklab", "__init__.py")):
        print("bench/run.py: run from the root of a pbklab checkout "
              "(src/pbklab not found)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"bench/run.py: unknown workload '{args.workload}'; choose "
              f"one of {', '.join(names)}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no pass pays for compiling
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)

    try:
        out = run(root, spec, args.workload, args.seed, args.seconds,
                  bool(args.trace), args.spans)
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    if args.result:
        with open(args.result, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({k: out[k] for k in
                                 ("record", "csv_digest", "failed_frac",
                                  "setup_samples", "passes")}
                                | {"metrics": out["result"]["metrics"],
                                   "attempted": out["result"]["attempted"],
                                   "failed": out["result"]["failed"]}) + "\n")
    print("record " + json.dumps(out["record"], sort_keys=True))
    print(f"csv_digest {args.workload} {out['csv_digest']}")
    print(f"failed_frac {out['failed_frac']:.6g} "
          f"({out['result']['failed']}/{out['result']['attempted']})")
    for name, metric in out["result"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
