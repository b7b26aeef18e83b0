"""Rotated height observables and the two-projection orthogonality experiment.

On the unit sphere the height reads H(x) = (x3 + 1)/2, so a rotated copy
H_u(x) = (x.u + 1)/2 has superlevel set {H_u >= E} equal to the spherical
cap of angular radius arccos(2E - 1) around the axis u.  Quantizing H_u at
weight k is exact here: conjugate the diagonal spectrum diag(0, 1/k, .., 1)
by the degree-k representation matrix of the SU(2) element rotating the
north pole to u.  Disjoint caps then make the two spectral projections
asymptotically orthogonal, and the product norm is measurable ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_spectral import IntegerSpectrumOperator, snapped_ceil
from .exact_kernels import log_binomial

UNITARY_TOL = 1e-12

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class RotationAxis:
    """A unit vector in R^3; (0, 0, 1) is the axis of the standard height."""

    u: tuple[float, float, float]

    def __post_init__(self):
        u = tuple(float(c) for c in self.u)
        if len(u) != 3:
            raise ValueError("axis must be a 3-vector")
        if abs(math.sqrt(sum(c * c for c in u)) - 1.0) > UNITARY_TOL:
            raise ValueError("axis must be a unit vector to 1e-12")
        object.__setattr__(self, "u", u)

    @classmethod
    def from_vector(cls, v) -> "RotationAxis":
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(tuple(v / n))

    @classmethod
    def polar(cls, beta: float, azimuth: float = 0.0) -> "RotationAxis":
        return cls((math.sin(beta) * math.cos(azimuth),
                    math.sin(beta) * math.sin(azimuth),
                    math.cos(beta)))


def axis_to_su2(axis: RotationAxis) -> np.ndarray:
    """SU(2) lift of the geodesic rotation carrying (0,0,1) to the axis.

    The rotation is about n = e3 x u by the angle between them; either lift
    (U or -U) induces the same conjugation on every observable.
    """
    ux, uy, uz = axis.u
    beta = math.acos(max(-1.0, min(1.0, uz)))
    s = math.hypot(ux, uy)
    if s < 1e-15:
        n = np.array([1.0, 0.0, 0.0]) if uz < 0 else np.array([0.0, 0.0, 1.0])
    else:
        n = np.array([-uy, ux, 0.0]) / s
    n_sigma = n[0] * _SIGMA_X + n[1] * _SIGMA_Y + n[2] * _SIGMA_Z
    return (math.cos(0.5 * beta) * np.eye(2, dtype=complex)
            - 1j * math.sin(0.5 * beta) * n_sigma)


def _validate_su2(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 10 * UNITARY_TOL:
        raise ValueError("matrix is not unitary to 1e-12")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    if abs(det - 1.0) > 10 * UNITARY_TOL:
        raise ValueError("matrix must have determinant 1")
    return u


def _su2_log(u: np.ndarray) -> np.ndarray:
    """A 2x2 skew-Hermitian X with exp(X) = u (any branch works)."""
    c = float(np.real(u[0, 0] + u[1, 1])) / 2.0
    c = max(-1.0, min(1.0, c))
    if c <= -1.0 + 1e-12:
        return np.diag([1j * math.pi, -1j * math.pi])
    beta = 2.0 * math.acos(c)
    s = math.sin(0.5 * beta)
    if s < 1e-12:
        return np.zeros((2, 2), dtype=complex)
    return (u - c * np.eye(2)) * (0.5 * beta / s)


def _rep_binomial(k: int, u: np.ndarray) -> np.ndarray:
    """Representation matrix by expanding the pulled-back monomials.

    Column l collects the coefficients of (a z0 + b z1)^l (c z0 + d z1)^{k-l}
    with [a b; c d] = u^{-1}, rescaled by the orthonormal-basis weights.
    Alternating sums make this route ill-conditioned past k ~ 40, so it is
    kept only as the small-k test oracle for the generator route.
    """
    inv = u.conj().T
    a, b = inv[0, 0], inv[0, 1]
    c, d = inv[1, 0], inv[1, 1]
    mat = np.zeros((k + 1, k + 1), dtype=complex)
    for l in range(k + 1):
        first = np.array([math.comb(l, i) * a ** i * b ** (l - i)
                          for i in range(l + 1)], dtype=complex)
        second = np.array([math.comb(k - l, j) * c ** j * d ** (k - l - j)
                           for j in range(k - l + 1)], dtype=complex)
        conv = np.convolve(first, second) if k > 0 else first * second
        for m in range(k + 1):
            weight = math.exp(0.5 * (log_binomial(k, l) - log_binomial(k, m)))
            mat[m, l] = conv[m] * weight
    return mat


def _rep_generator(k: int, u: np.ndarray) -> np.ndarray:
    """Representation matrix as exp of the induced derivation.

    For u = exp(X) the action p -> p(u^{-1} z) is the flow of the linear
    field -(Xz).grad, whose matrix in the orthonormal basis is tridiagonal
    with ladder entries -x01*sqrt(l(k-l+1)) above and -x10*sqrt((l+1)(k-l))
    below the diagonal.  The generator is skew-Hermitian, so exp(gen) =
    V diag(e^{-iw}) V* from the Hermitian eigendecomposition i*gen = V w V*;
    this is unitary to rounding at every weight.
    """
    x = _su2_log(u)
    levels = np.arange(k + 1)
    # sqrt((l+1)(k-l)), l = 0..k-1, sits at (l, l+1) and at (l+1, l)
    ladder = np.sqrt((levels[:-1] + 1.0) * (k - levels[:-1]))
    gen = np.diag(-(levels * x[0, 0] + (k - levels) * x[1, 1]))
    gen[levels[:-1], levels[1:]] = -x[0, 1] * ladder
    gen[levels[1:], levels[:-1]] = -x[1, 0] * ladder
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def su2_rep_matrix(k: int, u: np.ndarray) -> np.ndarray:
    """Matrix of p(z) -> p(u^{-1} z) on the weight-k orthonormal basis."""
    if k < 0 or int(k) != k:
        raise ValueError("k must be a nonnegative integer")
    return _rep_generator(int(k), _validate_su2(u))


def rotated_height_operator(k: int, axis: RotationAxis) -> IntegerSpectrumOperator:
    """k times the quantized rotated height: R diag(0, 1, .., k) R*.

    The returned operator has exact spectrum {0, .., k}; dividing by k gives
    the height observable itself, with eigenvalues {l/k}.  The axis (0,0,1)
    returns the diagonal operator unchanged.
    """
    r = su2_rep_matrix(k, axis_to_su2(axis))
    d = np.arange(k + 1, dtype=float)
    m = (r * d) @ r.conj().T
    return IntegerSpectrumOperator(0.5 * (m + m.conj().T))


def _check_levels(*levels: float) -> None:
    for e in levels:
        if not 0.0 < e < 1.0:
            raise ValueError("cap levels must lie strictly inside (0, 1)")


def _cap_angles(u1: RotationAxis, e1: float, u2: RotationAxis,
                e2: float) -> tuple[float, float]:
    """The angle between the axes and the sum of the two cap radii.

    Cap i has angular radius arccos(2 e_i - 1).
    """
    _check_levels(e1, e2)
    dot = sum(a * b for a, b in zip(u1.u, u2.u))
    angle = math.acos(max(-1.0, min(1.0, dot)))
    return angle, math.acos(2.0 * e1 - 1.0) + math.acos(2.0 * e2 - 1.0)


def caps_disjoint(u1: RotationAxis, e1: float,
                  u2: RotationAxis, e2: float) -> bool:
    """Whether the closed caps {H_u1 >= e1} and {H_u2 >= e2} are disjoint.

    Disjointness of the closed caps requires the axis angle to strictly
    exceed the radius sum, so a boundary tangency counts as intersecting.
    """
    angle, radii = _cap_angles(u1, e1, u2, e2)
    return angle > radii


def caps_tangent(u1: RotationAxis, e1: float, u2: RotationAxis, e2: float,
                 tol: float = 1e-9) -> bool:
    """Whether the cap boundaries touch (within tol) without overlapping."""
    angle, radii = _cap_angles(u1, e1, u2, e2)
    return abs(angle - radii) <= tol


def _stable_norm(v: np.ndarray) -> float:
    peak = np.max(np.abs(v))
    if peak == 0.0 or not np.isfinite(peak):
        return float(peak)
    return float(peak * np.linalg.norm(v / peak))


def operator_norm_power_iteration(m: np.ndarray, rng: np.random.Generator,
                                  restarts: int = 5, max_iter: int = 10_000,
                                  rel_tol: float = 1e-10) -> float:
    """Largest singular value of m by power iteration on m* m.

    Iterates are renormalized every step so singular values far below 1 do
    not underflow; several random restarts guard against starting vectors
    orthogonal to the top singular space.  No package route calls it: the
    benchmark's per-layer trace (bench/layers.py) still wraps it by name.
    """
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m)) < 1e-300:
        return 0.0
    best = 0.0
    dim = m.shape[1]
    for _ in range(restarts):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= _stable_norm(v)
        sigma = 0.0
        for _ in range(max_iter):
            mv = m @ v
            sigma_new = _stable_norm(mv)
            if sigma_new == 0.0:
                sigma = 0.0
                break
            w = m.conj().T @ (mv / sigma_new)
            wn = _stable_norm(w)
            if wn == 0.0:
                sigma = sigma_new
                break
            v = w / wn
            if abs(sigma_new - sigma) <= rel_tol * max(sigma_new, 1e-300):
                sigma = sigma_new
                break
            sigma = sigma_new
        best = max(best, sigma)
    return best


def projection_product_norm(k: int, u1: RotationAxis, e1: float,
                            u2: RotationAxis, e2: float) -> float:
    """Operator norm of the product of the two cap spectral projections.

    Projection i is R_i Q_i R_i*, where Q_i keeps the levels l >= k e_i
    and R_i is the representation matrix of the SU(2) lift of axis i.
    Unitary invariance gives |P_1 P_2| = |Q_1 R_1* R_2 Q_2|, and since the
    representation is a unitary homomorphism, R_1* R_2 is the
    representation matrix of U_1* U_2.  The norm is therefore the largest
    singular value of that matrix's block with rows >= ceil(k e_1) and
    columns >= ceil(k e_2): the cosine of the smallest principal angle
    between the two ranges.
    """
    _check_levels(e1, e2)
    u = axis_to_su2(u1).conj().T @ axis_to_su2(u2)
    rep = su2_rep_matrix(k, u)
    block = rep[snapped_ceil(k * e1):, snapped_ceil(k * e2):]
    return float(np.linalg.svd(block, compute_uv=False)[0])
