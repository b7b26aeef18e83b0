import cmath
import math
import re

import numpy as np
import pytest

from pbklab.asymptotics import (FitResult, ScalingProbe, error_metric,
                                linear_fit, loglog_fit, predict_equivariant,
                                predict_partial, stirling_deviation,
                                stirling_estimate)
from pbklab.circle_spectral import SpectralConfig
from pbklab.cp1_geometry import (ProjectivePoint, gradient_flow, height,
                                 level_point, projective_equal, rotate,
                                 xh_norm)
from pbklab.exact_kernels import equivariant_coeff

ONE_ONE = ProjectivePoint(1, 1)


# --- probes -----------------------------------------------------------------

def test_probe_points_follow_both_flows():
    probe = ScalingProbe(ONE_ONE, a=1.0, b=-0.5, t0=1.2)
    z, w = probe.points(400)
    assert projective_equal(z, gradient_flow(1.0 / 20.0, ONE_ONE))
    assert projective_equal(w, gradient_flow(-0.5 / 20.0,
                                             rotate(1.2, ONE_ONE)))


def test_probe_rejects_out_of_range_t0():
    with pytest.raises(ValueError):
        ScalingProbe(ONE_ONE, t0=7.0)


@pytest.mark.parametrize("base, a, b, name", [
    (ONE_ONE, 3000.0, 0.0, "a"), (ONE_ONE, 0.0, -3000.0, "b"),
    (ProjectivePoint(1e10, 1e10), 2200.0, 0.0, "a"),
], ids=["factor-overflows", "factor-underflows", "coordinate-overflows"])
def test_probe_points_refuse_a_flow_beyond_float_range(base, a, b, name):
    # e^(3000/sqrt 10) overflows math.exp, and e^-(3000/sqrt 10) is 0, the
    # pole; e^(2200/sqrt 10) is finite, but not once it scales z0 = 1e10.
    # Each is named with the offset and the weight
    probe = ScalingProbe(base, a=a, b=b, t0=1.0)
    offset = a or b
    with pytest.raises(ValueError, match=re.escape(
            f"probe offset {name} = {offset!r} at weight k = 10 asks the "
            f"gradient flow for e^{offset / math.sqrt(10):.6g}")):
        probe.points(10)
    # at k = 1e6 the same offset flows by e^+-3
    z, w = probe.points(10 ** 6)
    assert 0 < height(z) < 1 and 0 < height(w) < 1


@pytest.mark.parametrize("pole", [ProjectivePoint(0, 1),
                                  ProjectivePoint(1, 0)])
def test_probe_rejects_a_pole(pole):
    # the orbit speed ||X_H|| in every leading term's denominator is 0 there
    with pytest.raises(ValueError, match="pole"):
        ScalingProbe(pole, t0=1.0)


# --- partial-kernel predictor -----------------------------------------------

def test_predict_partial_unscaled_anchor():
    # k=80, E=1/2, t0=pi/2: phase e^{-i 40 pi/2} = 1 and cot(pi/4) = 1,
    # so the raw coefficient is (k/2pi) / (2 xh sqrt(pi k)) * (1 - i)
    probe = ScalingProbe(ONE_ONE, 0.0, 0.0, math.pi / 2)
    pred = predict_partial(SpectralConfig(80, 0.5), 1, probe)
    expected_mag = (80 / (2 * math.pi)) / (2 * math.sqrt(0.5)
                                           * math.sqrt(math.pi * 80))
    value = pred.unscaled
    assert abs(value.real - expected_mag) <= 1e-13
    assert abs(value.imag + expected_mag) <= 1e-13
    assert abs(value.real - 0.56790) <= 2e-5


def test_predict_partial_specialization_consistency():
    # generic-parameter predictor vs the direct one-line closed form
    for k in (12, 80, 333):
        for e in (0.3, 0.5, 0.81):
            for t0 in (0.7, 2.5):
                probe = ScalingProbe(level_point(e), 0.0, 0.0, t0)
                xh = math.sqrt(2 * e * (1 - e))
                pred = predict_partial(SpectralConfig(k, e), 1, probe)
                cut = math.ceil(k * e - 1e-9)
                direct = (k / (4 * math.pi) * cmath.exp(-1j * cut * t0)
                          * (1 - 1j / math.tan(t0 / 2))
                          / (xh * math.sqrt(math.pi * k)))
                assert abs(pred.unscaled - direct) <= 1e-14 * abs(direct)


def test_predict_partial_gaussian_factor_trivial_at_origin():
    # at [1:1], ||X_H||^2 = 1/2, so (a, b) = (1, 2) scales the modulus by
    # exp(-(1 + 4) (1/2) / 2)
    cfg = SpectralConfig(50, 0.5)
    p0 = predict_partial(cfg, 1, ScalingProbe(ONE_ONE, 0.0, 0.0, 1.0))
    p1 = predict_partial(cfg, 1, ScalingProbe(ONE_ONE, 1.0, 2.0, 1.0))
    assert abs(abs(p1.leading / p0.leading) - math.exp(-1.25)) <= 1e-12
    assert p0.remainder_order == 1.5
    assert p1.remainder_order == 1.0


def test_predict_partial_cot_vanishes_at_half_turn():
    probe = ScalingProbe(ONE_ONE, 0.0, 0.0, math.pi)
    pred = predict_partial(SpectralConfig(64, 0.5), 1, probe)
    ratio = pred.leading * cmath.exp(1j * 32 * math.pi)
    assert abs(ratio.imag) <= 1e-15
    assert ratio.real > 0


def test_predict_partial_stabilizer_exclusion():
    with pytest.raises(ValueError, match="exclusion"):
        predict_partial(SpectralConfig(100, 0.5), 1,
                        ScalingProbe(ONE_ONE, 0.0, 0.0, 1e-5))


# --- equivariant predictor ----------------------------------------------------

def test_predict_equivariant_anchor():
    cfg = SpectralConfig(80, 0.5)
    probe = ScalingProbe(ONE_ONE, 0.0, 0.0, 1.7)
    pred = predict_equivariant(cfg, 1, probe)
    assert abs(abs(pred.unscaled) - 1.13581) <= 2e-5
    # modulus independent of t0
    other = predict_equivariant(cfg, 1, ScalingProbe(ONE_ONE, 0.0, 0.0, 0.3))
    assert abs(abs(pred.unscaled) - abs(other.unscaled)) <= 1e-15


def test_predict_equivariant_valid_at_zero_time():
    probe = ScalingProbe(ONE_ONE, 0.0, 0.0, 0.0)
    pred = predict_equivariant(SpectralConfig(80, 0.5), 1, probe)
    assert pred.leading.imag == 0.0
    assert pred.leading.real > 0


def test_predict_equivariant_phase_from_integer_cut():
    # at k = 3309, E = 1/2 the float 3309 * (1655 / 3309) reads
    # 1654.9999999999998, not the cut 1655; the phase must come from the
    # integer level
    cfg = SpectralConfig(3309, 0.5)
    assert cfg.cut_index == 1655
    t0 = 1.7
    pred = predict_equivariant(cfg, 1, ScalingProbe(ONE_ONE, 0.0, 0.0, t0))
    xh = xh_norm(ONE_ONE)
    expected = (cmath.exp(-1j * 1655 * t0)
                / (xh * math.sqrt(math.pi * 3309)))
    assert pred.leading == expected


def test_equivariant_remainder_witness_bounded():
    # |(2pi/k) exact - leading| * k^{3/2} stays bounded along the sweep
    e = 0.5
    z0 = ONE_ONE
    for t0 in (0.7, 2.0):
        witnesses = []
        for k in (50, 200, 800):
            cfg = SpectralConfig(k, e)
            probe = ScalingProbe(z0, 0.0, 0.0, t0)
            z, w = probe.points(k)
            exact = equivariant_coeff(k, cfg.cut_index, z, w).to_complex()
            lead = predict_equivariant(cfg, 1, probe).leading
            witnesses.append(abs(2 * math.pi / k * exact - lead) * k ** 1.5)
        assert max(witnesses) <= 5.0 * float(np.median(witnesses))


def test_gaussian_scaling_of_equivariant_modulus():
    k, e = 1600, 0.5
    cfg = SpectralConfig(k, e)
    z0 = ONE_ONE
    base_probe = ScalingProbe(z0, 0.0, 0.0, 1.3)
    base = equivariant_coeff(k, cfg.cut_index, *base_probe.points(k)).abs()
    for a in (0.5, 1.0):
        for b in (0.0, 1.0):
            probe = ScalingProbe(z0, a, b, 1.3)
            vals = equivariant_coeff(k, cfg.cut_index, *probe.points(k)).abs()
            predicted = math.exp(-(a * a + b * b) * e * (1 - e))
            assert abs(vals / base / predicted - 1.0) <= 0.05


# --- Stirling leading term ----------------------------------------------------

def test_stirling_estimate_modulus_and_phase():
    k, e = 256, 0.5
    value = stirling_estimate(k, k // 2, e, 0.0)
    expected = k ** 0.25 * math.sqrt(2) / (2 * math.pi) ** 0.75
    assert abs(value - expected) <= 1e-13
    rotated = stirling_estimate(k, k // 2, e, 1.1)
    assert abs(rotated - expected * cmath.exp(1j * (k // 2) * 1.1)) <= 1e-12


def test_stirling_estimate_rejects_distant_level():
    with pytest.raises(ValueError, match="too far"):
        stirling_estimate(100, 60, 0.5, 0.0)
    with pytest.raises(ValueError):
        stirling_estimate(100, 50, 1.5, 0.0)


def test_stirling_agreement_witness_bounded():
    deviations = []
    for k in (64, 256, 1024, 4096):
        deviations.append(stirling_deviation(k, 0.5, 0.0) * k ** 0.75)
    assert max(deviations) <= 5.0 * float(np.median(deviations))


# --- error metric and fits ----------------------------------------------------

def _orbit_probe(t0):
    return ScalingProbe(ONE_ONE, 0.0, 0.0, t0)


@pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
def test_error_metric_rejects_non_finite_energy_first(energy):
    with pytest.raises(ValueError, match="energy level .* must be finite"):
        error_metric(SpectralConfig(50, energy), _orbit_probe(math.pi / 2))


def test_error_metric_nonnegative_and_small():
    er = error_metric(SpectralConfig(200, 0.5), _orbit_probe(math.pi / 2))
    assert er >= 0.0
    assert er <= 0.1


def test_error_metric_requires_level_point():
    with pytest.raises(ValueError, match="level set"):
        error_metric(SpectralConfig(100, 0.3), _orbit_probe(1.0))


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, -0.5)])
def test_error_metric_rejects_probe_offsets(a, b):
    with pytest.raises(ValueError, match="offsets a and b must be 0"):
        error_metric(SpectralConfig(100, 0.5),
                     ScalingProbe(ONE_ONE, a, b, 1.0))


def test_error_metric_tracks_reference_line():
    # the harness reports log Er against the guide -1.5 - 0.5 log k; the
    # guide intercept is indicative, the slope is the binding check
    ks = [50, 100, 200, 400, 800]
    ers = [error_metric(SpectralConfig(k, 0.5), _orbit_probe(math.pi / 2))
           for k in ks]
    fit = loglog_fit(list(zip(map(float, ks), ers)))
    assert -0.65 <= fit.slope <= -0.35


def test_loglog_fit_exact_powers():
    xs = [1.0, 2.0, 4.0, 8.0]
    fit = loglog_fit([(x, x ** 2) for x in xs])
    assert abs(fit.slope - 2.0) <= 1e-12 and abs(fit.r_squared - 1.0) <= 1e-12
    fit = loglog_fit([(x, 3.7 * x ** -0.5) for x in xs])
    assert abs(fit.slope + 0.5) <= 1e-12
    fit = loglog_fit([(x, 2.5) for x in xs])
    assert abs(fit.slope) <= 1e-12
    assert fit.r_squared == 1.0


def test_loglog_fit_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 3"):
        loglog_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError, match="positive"):
        loglog_fit([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


@pytest.mark.parametrize("fit", [linear_fit, loglog_fit])
def test_fits_refuse_equal_abscissae(fit):
    # one x admits a line of any slope: x = 20, 20, 20 once gave slope
    # -0.1496 with r^2 1.0
    with pytest.raises(ValueError, match="2 distinct x"):
        fit([(20.0, 3.0), (20.0, 2.0), (20.0, 1.5)])
    with pytest.raises(ValueError, match="at least 3"):
        fit([(20.0, 3.0), (40.0, 2.0)])
    assert fit([(20.0, 3.0), (20.0, 2.0), (40.0, 1.5)]).slope < 0


@pytest.mark.parametrize("fit", [linear_fit, loglog_fit])
@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
def test_fits_refuse_non_finite_data(fit, bad):
    # a -inf log magnitude, the log of an exact zero, once gave nan
    # with a RuntimeWarning
    for points in ([(1.0, 2.0), (2.0, bad), (3.0, 1.0)],
                   [(1.0, 2.0), (bad, 1.5), (3.0, 1.0)]):
        with pytest.raises(ValueError, match="finite"):
            fit(points)


def test_linear_fit_recovers_line():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    fit = linear_fit(list(zip(xs, -2.0 * xs + 0.5)))
    assert isinstance(fit, FitResult)
    assert abs(fit.slope + 2.0) <= 1e-12
    assert abs(fit.intercept - 0.5) <= 1e-12
    assert fit.r_squared == 1.0
