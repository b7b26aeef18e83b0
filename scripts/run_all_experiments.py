#!/usr/bin/env python3
"""Run every experiment with its default configuration.

Writes one CSV per experiment into the output directory (default:
results/), prints each experiment's verdict and wall time and the total,
and exits nonzero if any experiment misses its threshold.

Usage: python scripts/run_all_experiments.py [outdir]
"""
import math
import pathlib
import sys
import time

from pbklab.harness import ExperimentConfig, run_experiment


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    outdir.mkdir(parents=True, exist_ok=True)
    angle = 2.2  # disjoint caps: radius sum 2*pi/3 < 2.2
    jobs = [
        ExperimentConfig(experiment="selftest-hilbert", dim=16, trials=100,
                         seed=42, out=str(outdir / "selftest_hilbert.csv")),
        ExperimentConfig(experiment="heatmap", kind="partial", k=80, e=0.5,
                         grid_n=81, out=str(outdir / "heatmap.csv"), seed=1),
        ExperimentConfig(experiment="error-scaling", k_min=10, k_max=1000,
                         k_ratio=1.25, e=0.5, t0=math.pi / 2,
                         out=str(outdir / "error_scaling.csv"), seed=1),
        ExperimentConfig(experiment="diagonal-microsupport", k=800,
                         k_min=50, k_max=800, k_ratio=1.5,
                         out=str(outdir / "diagonal_microsupport.csv"),
                         seed=1),
        ExperimentConfig(experiment="two-proj",
                         u2=[math.sin(angle), 0.0, math.cos(angle)],
                         e1=0.75, e2=0.75,
                         k_list=[20, 28, 40, 57, 80, 113, 160, 226, 320],
                         seed=1, out=str(outdir / "two_proj_disjoint.csv")),
        ExperimentConfig(experiment="two-proj",
                         u2=[math.sin(0.8), 0.0, math.cos(0.8)],
                         e1=0.75, e2=0.75, k_list=[20, 40, 80, 160],
                         seed=1, out=str(outdir / "two_proj_overlap.csv")),
    ]
    worst = 0
    total = 0.0
    for cfg in jobs:
        start = time.perf_counter()
        rpt = run_experiment(cfg)
        wall = time.perf_counter() - start
        total += wall
        print(f"[exit {rpt.exit_code}] {cfg.experiment} ({wall:.2f} s): "
              f"{rpt.message}")
        worst = max(worst, rpt.exit_code)
    print(f"total wall time {total:.2f} s over {len(jobs)} experiments")
    return worst


if __name__ == "__main__":
    sys.exit(main())
