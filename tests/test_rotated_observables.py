import math

import numpy as np
import pytest

from pbklab.circle_spectral import spectral_projector_eig
from pbklab.rotated_observables import (RotationAxis, axis_to_su2,
                                        caps_disjoint, caps_tangent,
                                        operator_norm_power_iteration,
                                        projection_product_norm,
                                        rotated_height_operator,
                                        su2_rep_matrix, _rep_binomial,
                                        _rep_generator)

Z_AXIS = RotationAxis((0.0, 0.0, 1.0))


def random_su2(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    theta = rng.uniform(0, 2 * math.pi)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ns = axis[0] * sx + axis[1] * sy + axis[2] * sz
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * ns


# --- axes -------------------------------------------------------------------

def test_axis_validation():
    with pytest.raises(ValueError):
        RotationAxis((1.0, 1.0, 0.0))
    axis = RotationAxis.from_vector([3.0, 0.0, 4.0])
    assert abs(sum(c * c for c in axis.u) - 1.0) <= 1e-12


def test_axis_to_su2_special_cases():
    assert np.allclose(axis_to_su2(Z_AXIS), np.eye(2))
    flip = axis_to_su2(RotationAxis((0.0, 0.0, -1.0)))
    assert np.allclose(flip @ flip.conj().T, np.eye(2), atol=1e-14)


# --- representation matrices --------------------------------------------------

def test_rep_identity():
    assert np.allclose(su2_rep_matrix(6, np.eye(2, dtype=complex)), np.eye(7))


def test_rep_diagonal_phases_match_rotation_action():
    # U = diag(e^{it/2}, e^{-it/2}) acts on the level-l section by the
    # phase e^{-ilt} up to the global factor e^{ikt/2}; the inverse phases
    # appear because the action pulls functions back
    k, t = 9, 0.83
    u = np.diag([np.exp(1j * t / 2), np.exp(-1j * t / 2)])
    mat = su2_rep_matrix(k, u)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) <= 1e-12
    ratios = np.diag(mat) / mat[0, 0]
    expected = np.exp(-1j * np.arange(k + 1) * t)
    assert np.max(np.abs(ratios - expected)) <= 1e-10


def test_rep_composition_property():
    rng = np.random.default_rng(8)
    for k in (3, 17):
        u, v = random_su2(rng), random_su2(rng)
        left = su2_rep_matrix(k, u @ v)
        right = su2_rep_matrix(k, u) @ su2_rep_matrix(k, v)
        assert np.max(np.abs(left - right)) <= 1e-10


@pytest.mark.parametrize("k", [8, 32, 64, 160])
def test_rep_unitarity(k):
    rng = np.random.default_rng(k)
    u = random_su2(rng)
    mat = su2_rep_matrix(k, u)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(k + 1))) <= 1e-10


@pytest.mark.parametrize("k", [4, 12, 24, 32])
def test_rep_binomial_and_generator_routes_agree(k):
    # the monomial-expansion route is the definition but goes unstable at
    # large k; the generator-exponential route must coincide where both
    # are trustworthy
    rng = np.random.default_rng(100 + k)
    u = random_su2(rng)
    a = _rep_binomial(k, u)
    b = _rep_generator(k, u)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_rep_rejects_bad_input():
    with pytest.raises(ValueError, match="unitary"):
        su2_rep_matrix(4, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="determinant"):
        su2_rep_matrix(4, np.diag([1j, 1j]))


# --- rotated height operators --------------------------------------------------

def test_rotated_operator_along_x3_is_diagonal():
    k = 12
    op = rotated_height_operator(k, Z_AXIS)
    assert np.allclose(op.matrix, np.diag(np.arange(k + 1.0)), atol=1e-12)


def test_rotated_operator_spectrum_and_trace():
    k = 40
    rng = np.random.default_rng(9)
    for _ in range(3):
        axis = RotationAxis.from_vector(rng.standard_normal(3))
        op = rotated_height_operator(k, axis)
        eigs = np.sort(np.linalg.eigvalsh(op.matrix)) / k
        assert np.max(np.abs(eigs - np.arange(k + 1) / k)) <= 1e-10
        assert abs(np.trace(op.matrix).real / k - (k + 1) / 2) <= 1e-9


def test_rotated_operator_classical_symbol_direction():
    # the top section concentrates at the north pole, so the expectation of
    # the rotated height there must be (u . e3 + 1)/2, not its mirror
    k = 60
    beta = 0.9
    axis = RotationAxis.polar(beta)
    op = rotated_height_operator(k, axis)
    top = np.zeros(k + 1)
    top[k] = 1.0
    expectation = float(np.real(top @ op.matrix @ top)) / k
    classical = 0.5 * (math.cos(beta) + 1.0)
    assert abs(expectation - classical) <= 2.0 / k


def test_lift_sign_leaves_operator_invariant():
    k = 15
    axis = RotationAxis.polar(1.1, 0.4)
    u = axis_to_su2(axis)
    d = np.arange(k + 1.0)
    r_plus = su2_rep_matrix(k, u)
    r_minus = su2_rep_matrix(k, -u)
    m_plus = (r_plus * d) @ r_plus.conj().T
    m_minus = (r_minus * d) @ r_minus.conj().T
    assert np.max(np.abs(m_plus - m_minus)) <= 1e-10


def test_projector_conjugation_invariant():
    k = 30
    axis = RotationAxis.polar(0.7, 1.9)
    r = su2_rep_matrix(k, axis_to_su2(axis))
    d = np.diag(np.arange(k + 1.0))
    rotated = rotated_height_operator(k, axis)
    direct = spectral_projector_eig(rotated, k * 0.6)
    conjugated = r @ spectral_projector_eig(d, k * 0.6) @ r.conj().T
    assert np.max(np.abs(direct - conjugated)) <= 1e-10


# --- cap geometry ---------------------------------------------------------------

def _caps_overlap_grid_oracle(u1, e1, u2, e2, samples=200_000, refine=True):
    # dense Fibonacci-lattice sampling of the sphere, then local refinement
    # around the best candidate on the axis bisector
    i = np.arange(samples) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / samples
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    v1 = np.array(u1.u)
    v2 = np.array(u2.u)
    margin = np.minimum(pts @ v1 - (2 * e1 - 1), pts @ v2 - (2 * e2 - 1))
    best = float(margin.max())
    if refine:
        # the true maximizer lies on the great circle through both axes;
        # the margin is tent-shaped there, so shrink the window iteratively
        span = v2 - v1 * float(v1 @ v2)
        if np.linalg.norm(span) > 1e-12:
            span /= np.linalg.norm(span)
            lo, hi = 0.0, math.pi
            for _ in range(8):
                ts = np.linspace(lo, hi, 2001)
                arc = np.outer(np.cos(ts), v1) + np.outer(np.sin(ts), span)
                margin = np.minimum(arc @ v1 - (2 * e1 - 1),
                                    arc @ v2 - (2 * e2 - 1))
                peak = int(margin.argmax())
                best = max(best, float(margin[peak]))
                width = (hi - lo) / 2000
                lo = max(0.0, ts[peak] - 2 * width)
                hi = min(math.pi, ts[peak] + 2 * width)
    return best >= -1e-9


def test_caps_disjoint_antipodal_example():
    north = Z_AXIS
    south = RotationAxis((0.0, 0.0, -1.0))
    assert caps_disjoint(north, 0.75, south, 0.75)
    assert not _caps_overlap_grid_oracle(north, 0.75, south, 0.75)


def test_caps_nested_never_disjoint():
    assert not caps_disjoint(Z_AXIS, 0.3, Z_AXIS, 0.9)
    assert _caps_overlap_grid_oracle(Z_AXIS, 0.3, Z_AXIS, 0.9)


def test_caps_boundary_tangency_counts_as_touching():
    # radius pi/3 caps, axes exactly 2pi/3 apart: closed caps touch
    angle = 2 * math.acos(0.5)
    tilted = RotationAxis.polar(angle)
    assert not caps_disjoint(Z_AXIS, 0.75, tilted, 0.75)
    assert caps_tangent(Z_AXIS, 0.75, tilted, 0.75)
    assert _caps_overlap_grid_oracle(Z_AXIS, 0.75, tilted, 0.75)
    # push slightly apart: now strictly disjoint both ways
    apart = RotationAxis.polar(angle + 1e-3)
    assert caps_disjoint(Z_AXIS, 0.75, apart, 0.75)
    assert not _caps_overlap_grid_oracle(Z_AXIS, 0.75, apart, 0.75)


def test_caps_disjoint_matches_grid_oracle_randomly():
    rng = np.random.default_rng(10)
    for _ in range(12):
        u1 = RotationAxis.from_vector(rng.standard_normal(3))
        u2 = RotationAxis.from_vector(rng.standard_normal(3))
        e1, e2 = rng.uniform(0.55, 0.95, size=2)
        if caps_tangent(u1, e1, u2, e2, tol=1e-3):
            continue  # grid oracle cannot resolve near-tangency
        assert caps_disjoint(u1, e1, u2, e2) == \
            (not _caps_overlap_grid_oracle(u1, e1, u2, e2))


def test_caps_reject_degenerate_levels():
    for e1, e2 in ((0.0, 0.5), (0.5, 1.0), (1.5, 0.5), (0.5, -0.2)):
        for check in (caps_disjoint, caps_tangent):
            with pytest.raises(ValueError, match="strictly inside"):
                check(Z_AXIS, e1, Z_AXIS, e2)
        with pytest.raises(ValueError, match="strictly inside"):
            projection_product_norm(10, Z_AXIS, e1, Z_AXIS, e2)


# --- projection product norms ---------------------------------------------------

def test_power_iteration_matches_svd():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    reference = np.linalg.svd(m, compute_uv=False)[0]
    estimate = operator_norm_power_iteration(m, np.random.default_rng(0))
    assert abs(estimate - reference) <= 1e-9 * reference


def test_power_iteration_zero_matrix():
    assert operator_norm_power_iteration(np.zeros((4, 4)),
                                         np.random.default_rng(0)) == 0.0


def test_identical_projections_have_unit_norm():
    for k in (10, 25):
        norm = projection_product_norm(k, Z_AXIS, 0.75, Z_AXIS, 0.75)
        assert abs(norm - 1.0) <= 1e-10


def test_disjoint_caps_norm_strictly_decreases():
    tilted = RotationAxis.polar(2.2)
    n100 = projection_product_norm(100, Z_AXIS, 0.75, tilted, 0.75)
    n200 = projection_product_norm(200, Z_AXIS, 0.75, tilted, 0.75)
    assert n200 < n100 < 0.05


def test_exactly_antipodal_caps_are_exactly_orthogonal():
    # antipodal axes give commuting operators with disjoint level cuts, so
    # the product is zero to rounding; there is no decay law to fit there
    south = RotationAxis((0.0, 0.0, -1.0))
    for k in (40, 100):
        assert projection_product_norm(k, Z_AXIS, 0.75, south, 0.75) <= 1e-10


def test_overlapping_caps_norm_floor():
    tilted = RotationAxis.polar(0.8)
    for k in (20, 80):
        norm = projection_product_norm(k, Z_AXIS, 0.75, tilted, 0.75)
        assert norm >= 0.5


@pytest.mark.parametrize("beta, k", [(0.8, 20), (0.8, 40), (0.8, 80),
                                     (2.2, 113), (2.2, 320)])
def test_product_norm_matches_eigen_projector_svd(beta, k):
    # oracle: both projections built densely by the eigen route, then the
    # largest singular value of their product
    tilted = RotationAxis.polar(beta)
    p1 = spectral_projector_eig(rotated_height_operator(k, Z_AXIS), k * 0.75)
    p2 = spectral_projector_eig(rotated_height_operator(k, tilted), k * 0.75)
    reference = np.linalg.svd(p1 @ p2, compute_uv=False)[0]
    norm = projection_product_norm(k, Z_AXIS, 0.75, tilted, 0.75)
    assert abs(norm - reference) <= 1e-9 * reference


def test_product_norm_deterministic():
    tilted = RotationAxis.polar(2.2)
    a = projection_product_norm(60, Z_AXIS, 0.75, tilted, 0.75)
    b = projection_product_norm(60, Z_AXIS, 0.75, tilted, 0.75)
    assert a == b
