"""The four benchmark workloads, built from a seed.

Every workload enters the package where `scripts/run_all_experiments.py`
does, at `harness.run_experiment`, except for the Hilbert-identity band
pairs, which call the two kernel routes directly as criterion 02 does.
The seed draws the inputs that may vary between runs: the time offset
t0 in [1.1, 2.0], the phase of the base point on the unit circle, the
selftest trials and the Hilbert band pairs.  The power-iteration starts
of the two-projection sweeps are pinned (seed 1, as in
`scripts/run_all_experiments.py`): where the caps overlap, the iteration
count depends on the start, and one k = 80 norm took 0.8 to 2.6 s over
ten start seeds, so seed-drawn starts would time different work.

An operation is one experiment or one identity check.  It fails if it
raises, if an experiment exits nonzero, or if a deviation exceeds the
bound its acceptance criterion pins.  The worker also digests what each
operation outputs, so that a run can fail a pass whose output differs
from its first pass.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pbklab import circle_spectral, cp1_geometry, exact_kernels, harness

WORKLOADS = ("orbit-grid", "weight-sweep", "hilbert-identity",
             "cap-orthogonality")

# criterion 01 (quadrature vs eigen oracle) and criterion 02 (Hilbert
# assembly vs level sum) both pin their deviations at 1e-9
DEVIATION_BOUND = 1e-9


@dataclass
class Outcome:
    """What one operation produced: its verdict and the output to digest."""

    ok: bool
    output: bytes | str        # bytes, or the path of a CSV it wrote
    deviation: float | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]


def _experiment(name: str, config: harness.ExperimentConfig) -> Op:
    def run() -> Outcome:
        report = harness.run_experiment(config)
        deviation = report.summary.get("max_deviation")
        return Outcome(report.exit_code == harness.EXIT_OK, config.out,
                       deviation)
    return Op(name, run)


def _band_pair(k: int, pair: tuple) -> Op:
    """Hilbert assembly vs level sum for one pair in the 1/sqrt(k) band."""
    h1, th1, h2, th2 = pair

    def run() -> Outcome:
        cfg = circle_spectral.SpectralConfig(k, 0.5)
        z = cp1_geometry.level_point(h1, th1)
        w = cp1_geometry.level_point(h2, th2)
        level = exact_kernels.partial_coeff(cfg, z, w)
        hilbert = exact_kernels.partial_via_hilbert(cfg, z, w)
        rel = exact_kernels.logc_rel_difference(level, hilbert)
        text = (f"{k},{level.logmag!r},{level.phase!r},"
                f"{hilbert.logmag!r},{hilbert.phase!r}\n")
        return Outcome(rel <= DEVIATION_BOUND, text.encode(), rel)
    return Op(f"hilbert-pair-k{k}", run)


def _band_pairs(rng: np.random.Generator, k: int, count: int) -> list[Op]:
    ops = []
    for _ in range(count):
        # the band around the cut level where the identity is representable
        # in floats, drawn as in criterion 02
        h1 = min(max(0.5 + rng.uniform(-1, 1) / math.sqrt(k), 0.04), 0.96)
        h2 = min(max(0.5 + rng.uniform(-1, 1) / math.sqrt(k), 0.04), 0.96)
        pair = (h1, rng.uniform(0, 2 * math.pi), h2, rng.uniform(0, 2 * math.pi))
        ops.append(_band_pair(k, pair))
    return ops


def build(workload: str, seed: int, outdir: str) -> list[Op]:
    """The operations of one pass of `workload`, writing CSVs under outdir."""
    draw = random.Random(seed)
    t0 = draw.uniform(1.1, 2.0)
    phase = draw.uniform(0.0, 2.0 * math.pi)
    z0 = [math.cos(phase), math.sin(phase)]   # on the level set H = 1/2
    sub_seed = draw.randrange(1, 2 ** 31)

    def config(name: str, **fields) -> harness.ExperimentConfig:
        fields.setdefault("seed", sub_seed)
        return harness.ExperimentConfig(
            out=os.path.join(outdir, name + ".csv"), no_timestamp=True,
            **fields)

    if workload == "orbit-grid":
        return [
            _experiment("heatmap-partial-k80", config(
                "heatmap_partial_k80", experiment="heatmap", kind="partial",
                k=80, e=0.5, grid_n=121, z0=z0)),
            _experiment("heatmap-equivariant-k80", config(
                "heatmap_equivariant_k80", experiment="heatmap",
                kind="equivariant", k=80, e=0.5, grid_n=121, z0=z0)),
            _experiment("heatmap-partial-k400", config(
                "heatmap_partial_k400", experiment="heatmap", kind="partial",
                k=400, e=0.5, grid_n=81, z0=z0)),
        ]
    if workload == "weight-sweep":
        return [
            _experiment("error-scaling-partial", config(
                "error_scaling_partial", experiment="error-scaling",
                kind="partial", k_min=10, k_max=10 ** 6, k_ratio=1.25,
                e=0.5, t0=t0, z0=z0)),
            _experiment("error-scaling-equivariant", config(
                "error_scaling_equivariant", experiment="error-scaling",
                kind="equivariant", k_min=10, k_max=10 ** 5, k_ratio=1.25,
                e=0.5, t0=t0, z0=z0)),
            _experiment("diagonal-microsupport", config(
                "diagonal_microsupport", experiment="diagonal-microsupport",
                k=800, k_min=50, k_max=10 ** 5, k_ratio=1.25, z0=z0)),
        ]
    if workload == "hilbert-identity":
        rng = np.random.Generator(np.random.Philox(sub_seed))
        # largest pairs first: glibc's adaptive mmap threshold makes the
        # peak resident memory of the k = 1000 assembly depend on what was
        # allocated before it (127 to 143 MB over seeds); run first, it
        # peaks at the same 141 MB for every seed
        return (_band_pairs(rng, 1000, 4) + _band_pairs(rng, 200, 20)
                + _band_pairs(rng, 80, 20)
                + [_experiment("selftest-hilbert", config(
                    "selftest_hilbert", experiment="selftest-hilbert",
                    dim=64, trials=100))])
    if workload == "cap-orthogonality":
        return [
            _experiment("two-proj-disjoint", config(
                "two_proj_disjoint", experiment="two-proj", seed=1,
                u2=[math.sin(2.2), 0.0, math.cos(2.2)], e1=0.75, e2=0.75,
                k_list=[20, 28, 40, 57, 80, 113, 160, 226, 320, 453, 640])),
            _experiment("two-proj-overlap", config(
                "two_proj_overlap", experiment="two-proj", seed=1,
                u2=[math.sin(0.8), 0.0, math.cos(0.8)], e1=0.75, e2=0.75,
                k_list=[20, 40, 80, 160])),
        ]
    raise ValueError(f"unknown workload '{workload}'; choose one of "
                     f"{', '.join(WORKLOADS)}")
