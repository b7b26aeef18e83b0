"""Geometry of the rotation action on the projective line.

Points are homogeneous pairs [z0 : z1].  The height function
H([z]) = |z0|^2 / (|z0|^2 + |z1|^2) generates the circle action
[z0 : z1] -> [e^{it} z0 : z1]; its gradient flow (in the Fubini-Study
metric normalized to total area 2*pi) is the radial flow
[z0 : z1] -> [e^a z0 : z1].
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# the largest coordinate difference of two gauge-fixed unit representatives
# that projective_equal still counts as the same point
PROJECTIVE_TOL = 1e-10


class ChartError(ValueError):
    """Raised when an operation needs the affine chart z1 != 0."""


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of the projective line in homogeneous coordinates."""

    z0: complex
    z1: complex

    def __post_init__(self):
        z0, z1 = complex(self.z0), complex(self.z1)
        if not (cmath.isfinite(z0) and cmath.isfinite(z1)):
            raise ValueError(f"homogeneous coordinates [{z0} : {z1}] must "
                             f"be finite")
        if z0 == 0 and z1 == 0:
            raise ValueError("homogeneous coordinates must not both vanish")
        # every reader of the point takes abs() of its coordinates
        try:
            abs(z0), abs(z1)
        except OverflowError:
            raise ValueError(f"homogeneous coordinates [{z0} : {z1}] have a "
                             f"modulus that overflows") from None
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "z1", z1)

    @property
    def in_chart(self) -> bool:
        return self.z1 != 0

    def affine(self) -> complex:
        """The chart coordinate zeta = z0/z1."""
        if self.z1 == 0:
            raise ChartError("point [1:0] lies outside the chart z1 != 0")
        return self.z0 / self.z1

    def log_affine(self) -> tuple[float, float]:
        """(log|zeta|, arg zeta), robust for extreme magnitude ratios."""
        if self.z1 == 0:
            raise ChartError("point [1:0] lies outside the chart z1 != 0")
        if self.z0 == 0:
            return (-math.inf, 0.0)
        logabs = math.log(abs(self.z0)) - math.log(abs(self.z1))
        phase = (math.atan2(self.z0.imag, self.z0.real)
                 - math.atan2(self.z1.imag, self.z1.real))
        return (logabs, phase)


def height(p: ProjectivePoint) -> float:
    """H([z]) = |z0|^2/(|z0|^2+|z1|^2), scaling invariant, in [0, 1]."""
    a0, a1 = abs(p.z0), abs(p.z1)
    s = max(a0, a1)
    x = (a0 / s) ** 2
    y = (a1 / s) ** 2
    return x / (x + y)


def rotate(t: float, p: ProjectivePoint) -> ProjectivePoint:
    """Circle action [z0 : z1] -> [e^{it} z0 : z1]; preserves height."""
    return ProjectivePoint(cmath.exp(1j * t) * p.z0, p.z1)


def gradient_flow(a: float, p: ProjectivePoint) -> ProjectivePoint:
    """Height gradient flow [z0 : z1] -> [e^a z0 : z1]; commutes with rotate."""
    return ProjectivePoint(math.exp(a) * p.z0, p.z1)


def xh_norm(p: ProjectivePoint) -> float:
    """Speed of the circle orbit: ||X_H|| = sqrt(2 H (1-H)); zero at the poles."""
    h = height(p)
    return math.sqrt(2.0 * h * (1.0 - h))


def level_point(e: float, theta: float = 0.0) -> ProjectivePoint:
    """A point on the level set {H = e}: [sqrt(e/(1-e)) e^{i theta} : 1]."""
    if not 0.0 <= e < 1.0:
        raise ValueError("level must lie in [0, 1)")
    r = math.sqrt(e / (1.0 - e))
    return ProjectivePoint(r * cmath.exp(1j * theta), 1.0)


def projective_equal(p: ProjectivePoint, q: ProjectivePoint) -> bool:
    """Equality of projective points, gauge-fixed, to PROJECTIVE_TOL.

    Each representative is normalized to unit norm and its
    largest-magnitude coordinate rotated onto the positive real axis,
    which removes both the scale and the phase freedom.
    """
    def normalized(pt):
        n = math.hypot(abs(pt.z0), abs(pt.z1))
        return (pt.z0 / n, pt.z1 / n)

    a = normalized(p)
    b = normalized(q)
    # shared pivot index, so near-ties in coordinate magnitude cannot make
    # the two representatives gauge by different coordinates
    idx = 0 if abs(a[0]) >= abs(a[1]) else 1
    if b[idx] == 0:
        return False
    ua = a[idx].conjugate() / abs(a[idx])
    ub = b[idx].conjugate() / abs(b[idx])
    a = (a[0] * ua, a[1] * ua)
    b = (b[0] * ub, b[1] * ub)
    return max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= PROJECTIVE_TOL
