"""Leading-order predictors for the kernel coefficients and decay fits.

The scaled partial-kernel coefficient at probe points a/sqrt(k),
b/sqrt(k) off a level-E circle orbit has leading term

    exp(-(a^2+b^2)||X_H||^2/2) e^{-i ceil(kE) t} (1 - i cot(t/2))
        / (2 ||X_H|| sqrt(pi k)),

valid away from the stabilizer set {sin(t/2) = 0}, the paper's formula
at stabilizer order N = 1: the rotation of the projective line acts
freely off the poles.  The single-eigenspace analogue replaces the
cotangent factor by 1/(||X_H|| sqrt(pi k)) and is regular on the whole
circle.  "Scaled" means the (2pi/k)^n normalization;
multiplying back by (k/2pi)^n gives the raw coefficient that the exact
engines produce.  Both conventions are carried explicitly because mixing
them up silently is the one foreseeable way to get every experiment wrong
by a power of k.

The predictors read k and the cut ceil(kE) from a SpectralConfig
and the probe geometry (z0, a, b, t0) from a ScalingProbe.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circle_spectral import SpectralConfig
from .cp1_geometry import (ProjectivePoint, gradient_flow, height,
                           level_point, rotate, xh_norm)
from .exact_kernels import partial_coeff, section_coeff

STABILIZER_EXCLUSION = 1e-3
LEVEL_SET_TOL = 1e-9  # |H(z0) - E| up to which z0 counts as on {H = E}
# the largest |log| of the flow factor e^(offset/sqrt k) and of the flowed
# coordinate: e^700 and e^-700 are 1e304 and 1e-304, normal doubles
MAX_FLOW = 700.0


@dataclass(frozen=True)
class ScalingProbe:
    """Probe geometry (z0, a, b, t0) for the sqrt(k)-scaled neighborhoods.

    At weight k the probe points are gradient_flow(a/sqrt(k), z0) and
    gradient_flow(b/sqrt(k), rotate(t0, z0)).  z0 must not be a pole,
    where the orbit speed ||X_H|| vanishes.
    """

    basepoint: ProjectivePoint
    a: float = 0.0
    b: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t0 < 2.0 * math.pi:
            raise ValueError("t0 must lie in [0, 2*pi)")
        if xh_norm(self.basepoint) == 0.0:
            raise ValueError("base point is a pole, where ||X_H|| = 0")

    def points(self, k: int) -> tuple[ProjectivePoint, ProjectivePoint]:
        s = math.sqrt(k)
        # the flow factor e^flow and the flowed coordinate e^flow z0 must
        # both stay inside e^+-MAX_FLOW; rotate keeps |z0|
        log_z0 = math.log(abs(self.basepoint.z0))
        for name, offset in (("a", self.a), ("b", self.b)):
            flow = offset / s
            if not max(abs(flow), abs(flow + log_z0)) <= MAX_FLOW:
                raise ValueError(
                    f"probe offset {name} = {offset!r} at weight k = {k} asks "
                    f"the gradient flow for e^{flow:.6g}, which takes |z0| "
                    f"from e^{log_z0:.6g} to e^{flow + log_z0:.6g}, outside "
                    f"the float range e^+-{MAX_FLOW:g}")
        z = gradient_flow(self.a / s, self.basepoint)
        w = gradient_flow(self.b / s, rotate(self.t0, self.basepoint))
        return z, w


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A leading term plus its bookkeeping.

    leading carries the (2pi/k)^n-scaled value; unscaled multiplies the
    prefactor back.  remainder_order records the power of k governing the
    first dropped term (k^-3/2 on the orbit itself where a = b = 0, k^-1
    otherwise).
    """

    leading: complex
    remainder_order: str
    k: int
    dimension: int

    @property
    def unscaled(self) -> complex:
        return self.leading * (self.k / (2.0 * math.pi)) ** self.dimension


def _leading(cfg: SpectralConfig, dimension: int, probe: ScalingProbe,
             shape: complex) -> AsymptoticPrediction:
    """exp(-(a^2+b^2)||X_H||^2/2) e^{-i cut t0} shape / (||X_H|| sqrt(pi k)),
    with ||X_H|| the orbit speed at z0."""
    xh = xh_norm(probe.basepoint)
    a, b = probe.a, probe.b
    lead = (math.exp(-0.5 * (a * a + b * b) * xh * xh)
            * cmath.exp(-1j * cfg.cut_index * probe.t0) * shape
            / (xh * math.sqrt(math.pi * cfg.k)))
    order = "k^-3/2" if a == 0.0 and b == 0.0 else "k^-1"
    return AsymptoticPrediction(lead, order, cfg.k, dimension)


def predict_partial(cfg: SpectralConfig, dimension: int,
                    probe: ScalingProbe) -> AsymptoticPrediction:
    """Leading term of the scaled partial-kernel coefficient at the probe."""
    half_angle = 0.5 * probe.t0
    if abs(math.sin(half_angle)) < STABILIZER_EXCLUSION:
        raise ValueError(
            "t0 lies in the stabilizer exclusion zone |sin(t0/2)| < 1e-3")
    return _leading(cfg, dimension, probe,
                    0.5 * (1.0 - 1j * (1.0 / math.tan(half_angle))))


def predict_equivariant(cfg: SpectralConfig, dimension: int,
                        probe: ScalingProbe) -> AsymptoticPrediction:
    """Leading term of the scaled cut-level eigenspace coefficient."""
    return _leading(cfg, dimension, probe, 1.0)


def stirling_estimate(k: int, l_k: int, energy: float, theta: float) -> complex:
    """Leading term of the section coefficient on its own level circle.

    kappa_{k,l_k} ~ k^{1/4}/(2pi)^{3/4} e^{i l_k theta} (E(1-E))^{-1/4}
    at the point [sqrt(E/(1-E)) e^{i theta} : 1], for l_k within O(1) of kE.
    """
    if not 0.0 < energy < 1.0:
        raise ValueError("energy must lie strictly inside (0, 1)")
    if abs(l_k - k * energy) > 2.0:
        raise ValueError("level l_k is too far from k*E for the estimate")
    mag = k ** 0.25 / (2.0 * math.pi) ** 0.75 / (energy * (1.0 - energy)) ** 0.25
    return mag * cmath.exp(1j * l_k * theta)


def error_metric(cfg: SpectralConfig, probe: ScalingProbe) -> float:
    """|exact partial coefficient - leading prediction| on the orbit pair.

    Compares the raw (unscaled) coefficient at (z0, rotate(t0, z0)) against
    the unscaled leading term; the probe offsets must be 0 and z0 must sit
    on the level set {H = E}.
    """
    z0 = probe.basepoint
    if probe.a != 0.0 or probe.b != 0.0:
        raise ValueError(f"the error metric is taken on the orbit: offsets "
                         f"a and b must be 0, got a={probe.a}, b={probe.b}")
    if abs(height(z0) - cfg.energy) > LEVEL_SET_TOL:
        raise ValueError("base point must lie on the level set of the energy")
    approx = predict_partial(cfg, 1, probe).unscaled
    exact = partial_coeff(cfg, z0, rotate(probe.t0, z0)).to_complex()
    return abs(exact - approx)


def stirling_deviation(k: int, energy: float, theta: float) -> float:
    """|exact section coefficient - Stirling leading term| at level round(kE)."""
    l_k = round(k * energy)
    point = level_point(energy, theta)
    exact = section_coeff(k, l_k, point).to_complex()
    return abs(exact - stirling_estimate(k, l_k, energy, theta))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def _fit_data(points: Sequence[tuple[float, float]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """The x and y arrays of the (x, y) pairs a line is fitted through.

    A line needs at least 3 pairs, 2 distinct x and finite values, else
    ValueError: equal x admit any slope, and an infinite value none.
    """
    data = np.array(points, dtype=float).reshape(-1, 2)
    if len(data) < 3:
        raise ValueError(f"a fit needs at least 3 (x, y) pairs, got "
                         f"{len(data)}")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ValueError(f"a fit needs finite data, got the pair "
                         f"{tuple(data[bad][0].tolist())}")
    # contiguous columns, as numpy picks its log and sum loops by layout
    xs, ys = data.T.copy()
    if (xs == xs[0]).all():
        raise ValueError(f"a fit needs at least 2 distinct x, got only "
                         f"x = {xs[0]!r}")
    return xs, ys


def loglog_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares line through (log x, log y) of the (x, y) pairs."""
    xs, ys = _fit_data(points)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires strictly positive data")
    return linear_fit(list(zip(np.log(xs), np.log(ys))))


def linear_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """Plain least-squares line y = slope*x + intercept through the (x, y)
    pairs, with r^2."""
    xs, ys = _fit_data(points)
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(float(slope), float(intercept), r2)
