"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""
import math
import time

import numpy as np

from pbklab.asymptotics import (ScalingProbe, linear_fit, loglog_fit,
                                error_metric, predict_equivariant,
                                stirling_deviation)
from pbklab.circle_spectral import (SpectralConfig,
                                    random_integer_spectrum_operator,
                                    spectral_projector_eig,
                                    spectral_projector_quadrature)
from pbklab.cp1_geometry import ProjectivePoint, level_point
from pbklab.exact_kernels import (equivariant_coeff, logc_rel_difference,
                                  partial_coeff, partial_via_hilbert,
                                  toeplitz_diag)
from pbklab.harness import ExperimentConfig, make_rng
from pbklab.rotated_observables import (RotationAxis, caps_disjoint,
                                        projection_product_norm)

ONE_ONE = ProjectivePoint(1, 1)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_hilbert_route_exactness():
    start = time.perf_counter()
    rng = make_rng(42)

    def deviation(dim):
        op = random_integer_spectrum_operator(dim, rng)
        energy = float(rng.uniform(-5.0, 5.0))
        quad = spectral_projector_quadrature(op, energy)
        oracle = spectral_projector_eig(op, energy)
        return float(np.max(np.abs(quad - oracle)))

    deviations = [deviation(int(rng.integers(1, 65))) for _ in range(100)]
    # then a few larger matrices, drawn after the 100 trials above
    deviations += [deviation(dim) for dim in (128,) * 5 + (256,) * 4]
    worst = max(deviations)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(1, "quadrature projector vs eigen oracle", ok,
           f"max deviation {worst:.3e} (<= 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_02_kernel_identity():
    start = time.perf_counter()
    rng = make_rng(7)
    energy = 0.5
    worst = 0.0
    for k in (4, 20, 80, 200, 1000):
        cfg = SpectralConfig(k, energy)
        for _ in range(20):
            # random chart pairs drawn in the 1/sqrt(k) band around the
            # cut level, where the identity is representable in floats
            h1 = min(max(energy + rng.uniform(-1, 1) / math.sqrt(k), 0.04), 0.96)
            h2 = min(max(energy + rng.uniform(-1, 1) / math.sqrt(k), 0.04), 0.96)
            z = level_point(h1, rng.uniform(0, 2 * math.pi))
            w = level_point(h2, rng.uniform(0, 2 * math.pi))
            rel = logc_rel_difference(partial_coeff(cfg, z, w),
                                      partial_via_hilbert(cfg, z, w))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(2, "partial kernel via Hilbert assembly", ok,
           f"max relative deviation {worst:.3e} (<= 1e-9), "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_03_error_decay_slope():
    start = time.perf_counter()
    ks = ExperimentConfig(k_min=10, k_max=1000, k_ratio=1.25).k_grid()
    probe = ScalingProbe(ONE_ONE, 0.0, 0.0, math.pi / 2)
    points = [(float(k), error_metric(SpectralConfig(k, 0.5), probe))
              for k in ks]
    fit = loglog_fit(points)
    elapsed = time.perf_counter() - start
    ok = (-0.65 <= fit.slope <= -0.35 and fit.r_squared >= 0.95
          and elapsed < 60.0)
    report(3, "leading-term error decay", ok,
           f"slope {fit.slope:.4f} (in [-0.65, -0.35]), "
           f"r^2 {fit.r_squared:.4f} (>= 0.95), {elapsed:.1f}s (< 60s)")


def test_criterion_04_equivariant_remainder_order():
    energy = 0.5
    worst_stat = 0.0
    for t0 in (0.7, math.pi / 2, 2.0):
        witnesses = []
        for k in (50, 100, 200, 400, 800, 1600):
            cfg = SpectralConfig(k, energy)
            probe = ScalingProbe(ONE_ONE, 0.0, 0.0, t0)
            exact = equivariant_coeff(k, cfg.cut_index,
                                      *probe.points(k)).to_complex()
            lead = predict_equivariant(cfg, 1, probe).leading
            witnesses.append(abs(2 * math.pi / k * exact - lead) * k ** 1.5)
        stat = max(witnesses) / float(np.median(witnesses))
        worst_stat = max(worst_stat, stat)
    ok = worst_stat <= 5.0
    report(4, "equivariant remainder of order k^-3/2", ok,
           f"max/median witness {worst_stat:.3f} (<= 5)")


def test_criterion_05_stirling_estimate_order():
    worst_stat = 0.0
    for theta in (0.0, 1.0, 2.0):
        witnesses = [stirling_deviation(k, 0.5, theta) * k ** 0.75
                     for k in (64, 128, 256, 512, 1024, 2048, 4096)]
        stat = max(witnesses) / float(np.median(witnesses))
        worst_stat = max(worst_stat, stat)
    ok = worst_stat <= 5.0
    report(5, "section coefficient Stirling remainder", ok,
           f"max/median witness {worst_stat:.3f} (<= 5)")


def test_criterion_06_diagonal_trichotomy():
    z = ONE_ONE  # height 1/2

    # H > E at the witness weight
    ratio_hi = (partial_coeff(SpectralConfig(800, 0.3), z, z).abs()
                * 2 * math.pi / 801)
    dev_hi = abs(ratio_hi - 1.0)

    # H = E: even weights so the middle atom stays inside the cut
    pts = []
    for k in (100, 144, 200, 288, 400, 566, 800):
        ratio = (partial_coeff(SpectralConfig(k, 0.5), z, z).abs()
                 * 2 * math.pi / (k + 1))
        pts.append((float(k), ratio - 0.5))
    fit_at = loglog_fit(pts)

    # H < E: superpolynomial decay of the diagonal value
    ks = ExperimentConfig(k_min=50, k_max=800, k_ratio=1.5).k_grid()
    logs = [partial_coeff(SpectralConfig(k, 0.7), z, z).logmag for k in ks]
    fit_lo = linear_fit(np.array(ks, dtype=float), np.array(logs))

    ok = (dev_hi <= 1e-6
          and -0.65 <= fit_at.slope <= -0.35
          and fit_lo.slope < 0 and fit_lo.r_squared >= 0.9)
    report(6, "diagonal ratio trichotomy", ok,
           f"H>E dev {dev_hi:.2e} (<= 1e-6); H=E slope {fit_at.slope:.3f} "
           f"(-0.5 +- 0.15); H<E slope {fit_lo.slope:.4f} per unit k, "
           f"r^2 {fit_lo.r_squared:.4f} (>= 0.9)")


def test_criterion_07_off_orbit_negligibility():
    z = ONE_ONE
    w = ProjectivePoint(2, 1)
    ks = ExperimentConfig(k_min=50, k_max=800, k_ratio=1.5).k_grid()
    logs = [partial_coeff(SpectralConfig(k, 0.5), z, w).logmag for k in ks]
    fit = linear_fit(np.array(ks, dtype=float), np.array(logs))
    ok = fit.slope < 0 and fit.r_squared >= 0.9
    report(7, "off-orbit kernel decay", ok,
           f"log|K| slope {fit.slope:.4f} per unit k (< 0), "
           f"r^2 {fit.r_squared:.4f} (>= 0.9)")


def test_criterion_08_gaussian_scaling():
    k, energy = 1600, 0.5
    cfg = SpectralConfig(k, energy)
    base = equivariant_coeff(
        k, cfg.cut_index,
        *ScalingProbe(ONE_ONE, 0.0, 0.0, 1.3).points(k)).abs()
    worst = 0.0
    for a in (0.0, 0.5, 1.0):
        for b in (0.0, 0.5, 1.0):
            probe = ScalingProbe(ONE_ONE, a, b, 1.3)
            measured = equivariant_coeff(k, cfg.cut_index,
                                         *probe.points(k)).abs() / base
            predicted = math.exp(-(a * a + b * b) * energy * (1 - energy))
            worst = max(worst, abs(measured / predicted - 1.0))
    ok = worst <= 0.05
    report(8, "Gaussian scaling factor", ok,
           f"max relative deviation {worst:.4f} (<= 0.05) at k = {k}")


def test_criterion_09_two_projection_orthogonality():
    start = time.perf_counter()
    north = RotationAxis((0.0, 0.0, 1.0))
    # disjoint pair: radius-pi/3 caps with axes 2.2 rad apart (gap 0.11 rad);
    # exactly antipodal axes give commuting operators and an identically
    # zero product, which admits no decay fit
    tilted = RotationAxis.polar(2.2)
    assert caps_disjoint(north, 0.75, tilted, 0.75)
    ks = [20, 28, 40, 57, 80, 113, 160, 226, 320]
    norms = [projection_product_norm(k, north, 0.75, tilted, 0.75)
             for k in ks]
    fit = linear_fit(np.array(ks, dtype=float), np.log(np.array(norms)))

    overlap = RotationAxis.polar(0.8)
    assert not caps_disjoint(north, 0.75, overlap, 0.75)
    floor = min(projection_product_norm(k, north, 0.75, overlap, 0.75)
                for k in (20, 80, 320))
    elapsed = time.perf_counter() - start
    ok = (fit.slope < 0 and fit.r_squared >= 0.9 and floor >= 0.5
          and elapsed < 300.0)
    report(9, "two-projection orthogonality", ok,
           f"disjoint log-norm slope {fit.slope:.4f} per unit k, "
           f"r^2 {fit.r_squared:.4f} (>= 0.9); overlap floor {floor:.3f} "
           f"(>= 0.5); {elapsed:.1f}s (< 300s)")


def test_criterion_10_corrected_quantization_identity():
    worst = 0.0
    for k in range(1, 51):
        for l in range(0, k + 1):
            corrected = (k + 2) / k * toeplitz_diag(k, l) - 1.0 / k
            worst = max(worst, abs(corrected - l / k))
    ok = worst <= 1e-12
    report(10, "corrected quantization eigenvalue identity", ok,
           f"max |((k+2)/k)<H> - 1/k - l/k| = {worst:.2e} (<= 1e-12)")
