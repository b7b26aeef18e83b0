"""Rotated height observables and the two-projection orthogonality experiment.

On the unit sphere the height reads H(x) = (x3 + 1)/2, so a rotated copy
H_u(x) = (x.u + 1)/2 has superlevel set {H_u >= E} equal to the spherical
cap of angular radius arccos(2E - 1) around the axis u.  Quantizing H_u at
weight k is exact here and needs no group element: k H_u = u.J + k/2, with
J the spin-k/2 ladder on the weight-k orthonormal basis, a tridiagonal
matrix in closed form.  Disjoint caps make the two spectral projections
asymptotically orthogonal, and the product norm is measurable ground truth.
It is the largest singular value of one block of Wigner d-functions,
built row by row from its closed-form edge entries by the three-term
eigenvector recurrence run in its stable directions, with no eigensolver:
O(k (k - ceil(k e_2))) for the rows, and no rounding floor in the norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle_spectral import IntegerSpectrumOperator, snapped_ceil
from .exact_kernels import log_binomial

UNITARY_TOL = 1e-12

# random starts, step cap and relative stopping tolerance of
# operator_norm_power_iteration
POWER_RESTARTS = 5
POWER_MAX_ITER = 10_000
POWER_REL_TOL = 1e-10

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
        if not all(math.isfinite(c) for c in u):
            raise ValueError(f"axis {list(u)} has a non-finite component")
        if abs(math.sqrt(sum(c * c for c in u)) - 1.0) > UNITARY_TOL:
            raise ValueError("axis must be a unit vector to 1e-12")
        object.__setattr__(self, "u", u)

    @classmethod
    def from_vector(cls, v) -> "RotationAxis":
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"axis {v.tolist()} has a non-finite component")
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


def _spin(k: int, r) -> np.ndarray:
    """r.J, the spin-k/2 ladder, on the weight-k orthonormal basis.

    For a real 3-vector r the matrix is tridiagonal: r_z (l - k/2) on the
    diagonal, (r_x - i r_y)/2 sqrt((l+1)(k-l)) at (l, l+1) and its
    conjugate at (l+1, l).  Its spectrum is |r| {-k/2, .., k/2}.
    """
    rx, ry, rz = r
    l = np.arange(k + 1)
    ladder = 0.5 * (rx - 1j * ry) * np.sqrt((l[:-1] + 1.0) * (k - l[:-1]))
    return (np.diag(rz * (l - 0.5 * k)) + np.diag(ladder, 1)
            + np.diag(ladder.conj(), -1))


def su2_rep_matrix(k: int, u: np.ndarray) -> np.ndarray:
    """Matrix of p(z) -> p(u^{-1} z) on the weight-k orthonormal basis.

    For u = cos(theta/2) - i sin(theta/2) n.sigma this is exp(i theta n.J),
    taken as V diag(e^{iw}) V* from _spin(k, theta n) = V diag(w) V*, so it
    is unitary to rounding at every weight; u = -I is theta n = (0, 0, 2pi).
    """
    if k < 0 or int(k) != k:
        raise ValueError("k must be a nonnegative integer")
    u = _validate_su2(u)
    c = max(-1.0, min(1.0, float(np.real(u[0, 0] + u[1, 1])) / 2.0))
    if c <= -1.0 + 1e-12:
        theta_n = (0.0, 0.0, 2.0 * math.pi)
    else:
        theta = 2.0 * math.acos(c)
        s = math.sin(0.5 * theta)
        if s < 1e-12:
            return np.eye(int(k) + 1, dtype=complex)
        # u[0, 0] = c - i s n_z and u[0, 1] = -s (n_y + i n_x)
        a, b = u[0, 0], u[0, 1]
        theta_n = (theta / s) * np.array([-b.imag, -b.real, -a.imag])
    w, v = np.linalg.eigh(_spin(int(k), theta_n))
    return (v * np.exp(1j * w)) @ v.conj().T


def rotated_height_operator(k: int, axis: RotationAxis) -> IntegerSpectrumOperator:
    """k times the quantized rotated height: u.J + k/2, in closed form.

    The matrix is tridiagonal and Hermitian by construction, with exact
    spectrum {0, .., k}; dividing by k gives the height observable itself,
    with eigenvalues {l/k}.  The axis (0,0,1) gives diag(0, 1, .., k).
    """
    return IntegerSpectrumOperator(_spin(k, axis.u)
                                   + 0.5 * k * np.eye(k + 1))


def _cap_angles(u1: RotationAxis, e1: float, u2: RotationAxis,
                e2: float) -> tuple[float, float]:
    """The angle between the axes and the sum of the two cap radii.

    Cap i has angular radius arccos(2 e_i - 1).  The angle is
    atan2(|u1 x u2|, u1.u2), which keeps its relative accuracy at small
    angles, where arccos of a dot product near 1 loses half the digits.
    """
    if not (0.0 < e1 < 1.0 and 0.0 < e2 < 1.0):
        raise ValueError("cap levels must lie strictly inside (0, 1)")
    (ax, ay, az), (bx, by, bz) = u1.u, u2.u
    cross = math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    angle = math.atan2(cross, ax * bx + ay * by + az * bz)
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


def operator_norm_power_iteration(m: np.ndarray,
                                  rng: np.random.Generator) -> float:
    """Largest singular value of m by power iteration on m* m.

    Iterates are renormalized every step so singular values far below 1 do
    not underflow; POWER_RESTARTS random starts guard against starting
    vectors orthogonal to the top singular space.  Each start stops once
    the estimate moves by at most POWER_REL_TOL relative, or after
    POWER_MAX_ITER steps.  No package route calls it: the benchmark's
    per-layer trace (bench/layers.py) still wraps it by name.
    """
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m)) < 1e-300:
        return 0.0
    best = 0.0
    dim = m.shape[1]
    for _ in range(POWER_RESTARTS):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= _stable_norm(v)
        sigma = 0.0
        for _ in range(POWER_MAX_ITER):
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
            if abs(sigma_new - sigma) <= POWER_REL_TOL * max(sigma_new,
                                                             1e-300):
                sigma = sigma_new
                break
            sigma = sigma_new
        best = max(best, sigma)
    return best


def _edge_entries(k: int, m: np.ndarray, c: float,
                  s: float) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(C(k, m)) c^m s^(k-m) for consecutive m, as mantissa, exponent.

    Each binomial is an exact integer rounded once, and the powers keep the
    integer part of their base-2 logarithm exact, so an entry is good to
    about k eps relative and never underflows; ln Gamma would add the
    rounding of ln k!, about 1e-12 relative at k = 1000.
    """
    fc, ec = math.frexp(c)
    fs, es = math.frexp(s)
    bits, lead = [], []
    binom = math.comb(k, int(m[0]))
    for j in m.tolist():
        n = binom.bit_length()
        shift = max(n - 60, 0)
        bits.append(n)
        lead.append(math.ldexp(binom >> shift, shift - n))
        binom = binom * (k - j) // (j + 1)
    bits = np.array(bits)
    frac = (0.5 * (np.log2(lead) + bits % 2) + m * math.log2(fc)
            + (k - m) * math.log2(fs))
    whole = np.ceil(frac)
    return (np.exp2(frac - whole),
            bits // 2 + m * ec + (k - m) * es + whole.astype(np.int64))


def _descend(diag: np.ndarray, off: np.ndarray, lam: np.ndarray,
             mant: np.ndarray, expo: np.ndarray,
             stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows stop..n of eigenvectors of a symmetric tridiagonal matrix.

    diag holds the n+1 diagonal entries and off the n off-diagonal ones;
    column j has eigenvalue lam[j] and row n equal to mant[j] 2^expo[j].
    Each step solves off[l-1] v[l-1] + (diag[l] - lam) v[l] + off[l] v[l+1]
    = 0 for v[l-1], then rescales the column's last two entries by the
    power of two that brings the larger into [1/2, 1), which is exact; the
    exponent accumulates per column.  Row stop + i of the eigenvectors is
    returned as mant[i] 2^expo[i].
    """
    n = diag.size - 1
    out_mant = np.empty((n - stop + 1, lam.size))
    out_expo = np.empty((n - stop + 1, lam.size), dtype=np.int64)
    out_mant[-1], out_expo[-1] = mant, expo
    off = np.append(off, 0.0)
    cur, prev = mant, np.zeros(lam.size)
    for l in range(n, stop, -1):
        new = ((lam - diag[l]) * cur - off[l] * prev) / off[l - 1]
        _, shift = np.frexp(np.maximum(np.abs(new), np.abs(cur)))
        prev, cur = np.ldexp(cur, -shift), np.ldexp(new, -shift)
        expo = expo + shift
        out_mant[l - 1 - stop], out_expo[l - 1 - stop] = cur, expo
    return out_mant, out_expo


def projection_product_norm(k: int, u1: RotationAxis, e1: float,
                            u2: RotationAxis, e2: float) -> float:
    """Operator norm of the product of the two cap spectral projections.

    P_i = R_i Q_i R_i*, with Q_i keeping the levels l >= k e_i and R_i
    representing an SU(2) lift U_i of axis i, so |P_1 P_2| = |Q_1 R Q_2 R*|
    for R representing U_1* U_2.  R Q_2 R* is the cap projector about
    U_1* u_2, whose polar angle is beta, the angle between the axes; its
    azimuth enters only by a diagonal unitary, which commutes with Q_1 and
    drops out.  So the norm is the largest singular value of the block
    V[r0:, c0:], r0 = ceil(k e_1) and c0 = ceil(k e_2), of the eigenvectors
    of T = sin beta J_x + cos beta J_z, column m for eigenvalue m - k/2:
    the cosine of the smallest principal angle between the two ranges.

    Only that block is built, with no eigensolver.  T is tridiagonal with
    known eigenvalues, so column m (the Wigner d-function
    d^(k/2)_(l-k/2, m-k/2)(beta)) follows from its closed-form edge entries
    |v_k| = sqrt(C(k, m)) cos^m(beta/2) sin^(k-m)(beta/2) and |v_0| =
    sqrt(C(k, m)) sin^m(beta/2) cos^(k-m)(beta/2), with v_0/v_k of sign
    (-1)^(k-m), by the three-term eigenvector recurrence.  The recurrence
    is stable where the column grows in the direction it runs: downward
    from row k through the upper forbidden zone and the oscillatory band
    centred at the junction t_m = round(k/2 + (m - k/2) cos beta), upward
    from row 0 through the lower one.  The downward pass gives rows t_m..k
    and an upward pass the rows below t_m, run only where t_m > r0 (never
    for disjoint caps).  Columns are scaled by exact powers of two at every
    step, and the block's SVD is taken after dividing by its largest
    power-of-two scale, so norms far below the double range's floor
    resolve.  Cost O(k (k - c0)) for the rows plus the block's SVD.
    beta = 0 gives identical caps and exactly 1.0.
    """
    beta, _ = _cap_angles(u1, e1, u2, e2)
    sin_b, cos_b = math.sin(beta), math.cos(beta)
    if sin_b == 0.0:
        return 1.0
    r0, c0 = snapped_ceil(k * e1), snapped_ceil(k * e2)
    l = np.arange(k + 1)
    diag = cos_b * (l - 0.5 * k)
    off = 0.5 * sin_b * np.sqrt((l[:-1] + 1.0) * (k - l[:-1]))
    m = l[c0:]
    lam = m - 0.5 * k
    half_c, half_s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    mant, expo = _descend(diag, off, lam,
                          *_edge_entries(k, m, half_c, half_s), r0)
    junction = np.rint(0.5 * k + lam * cos_b).astype(np.int64)
    up = np.flatnonzero(junction > r0)
    if up.size:
        # the upward pass is the downward one on the row-reversed matrix
        top = int(junction[up].max())
        seed, seed_expo = _edge_entries(k, m[up], half_s, half_c)
        seed[(k - m[up]) % 2 == 1] *= -1.0
        low_mant, low_expo = _descend(diag[::-1], off[::-1], lam[up], seed,
                                      seed_expo, k - top + 1)
        below = np.arange(r0, top)[:, None] < junction[up]
        rows = slice(0, top - r0)
        mant[rows, up] = np.where(below, low_mant[::-1][r0:],
                                  mant[rows, up])
        expo[rows, up] = np.where(below, low_expo[::-1][r0:],
                                  expo[rows, up])
    scale = int(expo.max())
    block = np.ldexp(mant, expo - scale)
    # entries below 2^-500 of the scale move the norm by under n 2^-500
    # relative; left in, they reach the SVD as slow subnormal arithmetic,
    # which tripled its time at k = 2000
    block[np.abs(block) < 2.0 ** -500] = 0.0
    return math.ldexp(float(np.linalg.svd(block, compute_uv=False)[0]),
                      scale)
