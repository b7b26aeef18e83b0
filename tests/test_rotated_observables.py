import math

import numpy as np
import pytest

from pbklab.circle_spectral import snapped_ceil, spectral_projector_eig
from pbklab.cli import main
from pbklab.rotated_observables import (CORNER_EXCESS, RotationAxis,
                                        axis_to_su2, caps_disjoint,
                                        caps_tangent, corner_width,
                                        operator_norm_power_iteration,
                                        projection_product_log_norm,
                                        projection_product_norm,
                                        rotated_height_operator,
                                        su2_rep_matrix, _cap_angles,
                                        _descend, _edge_entries,
                                        _rep_binomial)

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_axis_rejects_non_finite_components(bad, capsys):
    # nan slips past the unit-norm check (abs(nan - 1) > tol is False) and
    # from_vector would divide inf by inf; the two-proj run must exit 2,
    # refused by the config check before any axis is built
    with pytest.raises(ValueError, match="non-finite"):
        RotationAxis((bad, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        RotationAxis.from_vector([bad, 0.0, 1.0])
    assert main(["two-proj", f"--u1={bad},0,1", "--k-max", "20"]) == 2
    assert (f"config key 'u1' takes list[finite float], got "
            f"[{bad}, 0.0, 1.0]") in capsys.readouterr().err


def test_axis_to_su2_special_cases():
    assert np.allclose(axis_to_su2(Z_AXIS), np.eye(2))
    flip = axis_to_su2(RotationAxis((0.0, 0.0, -1.0)))
    assert np.allclose(flip @ flip.conj().T, np.eye(2), atol=1e-14)


# --- representation matrices --------------------------------------------------

def test_rep_identity():
    assert np.allclose(su2_rep_matrix(6, np.eye(2, dtype=complex)), np.eye(7))


@pytest.mark.parametrize("k", [3, 4])
def test_rep_minus_identity_is_parity(k):
    # p(-z) = (-1)^k p(z) on degree-k polynomials; u = -I has no axis n
    mat = su2_rep_matrix(k, -np.eye(2, dtype=complex))
    assert np.max(np.abs(mat - (-1) ** k * np.eye(k + 1))) <= 1e-12


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
    b = su2_rep_matrix(k, u)
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


@pytest.mark.parametrize("k", [3, 12, 24])
def test_rotated_operator_matches_binomial_conjugation(k):
    # oracle sharing no code with the closed form: R diag(0..k) R* with R
    # the monomial-expansion representation matrix of the axis lift
    for axis in (RotationAxis.polar(0.7, 1.9), RotationAxis.polar(2.4, -0.6),
                 RotationAxis.from_vector([-0.3, 0.8, -0.5])):
        r = _rep_binomial(k, axis_to_su2(axis))
        oracle = (r * np.arange(k + 1.0)) @ r.conj().T
        op = rotated_height_operator(k, axis)
        assert np.max(np.abs(op.matrix - oracle)) <= 1e-9


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
        angle, radii = _cap_angles(u1, e1, u2, e2)
        if abs(angle - radii) <= 1e-3:
            continue  # grid oracle cannot resolve near-tangency
        assert caps_disjoint(u1, e1, u2, e2) == \
            (not _caps_overlap_grid_oracle(u1, e1, u2, e2))


def test_axis_angle_keeps_relative_accuracy_at_small_angles():
    # arccos of the dot product would read 0 at 1e-9 and keep only about
    # half the digits of 1e-5
    for beta in (1e-9, 1e-5, 0.3, 2.2):
        angle, _ = _cap_angles(Z_AXIS, 0.75, RotationAxis.polar(beta), 0.75)
        assert abs(angle - beta) <= 1e-15 * beta


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


def _eigen_projector_norm(k, tilted):
    # oracle: both projections built densely by the eigen route, then the
    # largest singular value of their product
    p1 = spectral_projector_eig(rotated_height_operator(k, Z_AXIS), k * 0.75)
    p2 = spectral_projector_eig(rotated_height_operator(k, tilted), k * 0.75)
    return np.linalg.svd(p1 @ p2, compute_uv=False)[0]


@pytest.mark.parametrize("beta, k", [(0.8, 20), (0.8, 40), (0.8, 80),
                                     (0.3, 160), (2.2, 113), (2.2, 320)])
def test_product_norm_matches_eigen_projector_svd(beta, k):
    # for the overlaps the top columns' junction
    # round(k/2 + (m - k/2) cos beta) lies above ceil(0.75 k), so their rows
    # below it come from the upward pass (at beta = 0.3, k = 160: 38 columns)
    tilted = RotationAxis.polar(beta)
    reference = _eigen_projector_norm(k, tilted)
    norm = projection_product_norm(k, Z_AXIS, 0.75, tilted, 0.75)
    assert abs(norm - reference) <= 1e-9 * reference


@pytest.mark.parametrize("k", [40, 100])
def test_product_norm_at_degenerate_angles(k):
    # beta = 0 is the identity: exactly 1; beta = 1e-9 runs the recurrence
    # with off-diagonals ~1e-9 and must still give two equal projections
    assert projection_product_norm(k, Z_AXIS, 0.75, Z_AXIS, 0.75) == 1.0
    assert projection_product_norm(k, Z_AXIS, 0.75, RotationAxis.polar(0.0),
                                   0.75) == 1.0
    tiny = RotationAxis.polar(1e-9)
    assert abs(projection_product_norm(k, Z_AXIS, 0.75, tiny, 0.75)
               - _eigen_projector_norm(k, tiny)) <= 1e-10


def test_product_norm_needs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for beta in (0.3, 0.8, 2.2):
        projection_product_norm(160, Z_AXIS, 0.75, RotationAxis.polar(beta),
                                0.75)


def test_product_norm_deterministic():
    tilted = RotationAxis.polar(2.2)
    a = projection_product_norm(60, Z_AXIS, 0.75, tilted, 0.75)
    b = projection_product_norm(60, Z_AXIS, 0.75, tilted, 0.75)
    assert a == b


@pytest.mark.parametrize("k", [8, 17, 24])
@pytest.mark.parametrize("u1, e1, u2, e2", [
    # disjoint, overlapping, near-antipodal; every azimuth nonzero
    (RotationAxis.polar(0.3, 0.5), 0.75, RotationAxis.polar(2.6, 2.1), 0.7),
    (RotationAxis.polar(1.0, -0.8), 0.6, RotationAxis.polar(1.6, 2.9), 0.65),
    (RotationAxis.polar(0.2, 1.3), 0.55, RotationAxis.polar(2.9, -1.8), 0.6),
])
def test_product_norm_matches_binomial_block(k, u1, e1, u2, e2):
    # oracle: the block of the monomial-expansion representation matrix of
    # U1* U2, which keeps both azimuths, so only-the-angle-matters is checked
    u = axis_to_su2(u1).conj().T @ axis_to_su2(u2)
    block = _rep_binomial(k, u)[snapped_ceil(k * e1):, snapped_ceil(k * e2):]
    reference = np.linalg.svd(block, compute_uv=False)[0]
    norm = projection_product_norm(k, u1, e1, u2, e2)
    assert abs(norm - reference) <= 1e-9 * reference


@pytest.mark.parametrize("k, reference, bound", [
    (320, 6.2695287681765923e-04, 1e-13),
    (640, 2.8805237726234997e-06, 1e-13),
    (1000, 7.8742269250446494e-09, 1e-13),
])
def test_small_disjoint_norms_match_high_precision_reference(k, reference,
                                                             bound):
    # criterion 09's disjoint pair (beta = 2.2, levels 0.75); the reference
    # is sigma_max of the Wigner-d block, its entries summed explicitly in
    # 0.7k + 60 digits (equal to 17 digits at 40 digits more)
    tilted = RotationAxis.polar(2.2)
    norm = projection_product_norm(k, Z_AXIS, 0.75, tilted, 0.75)
    assert abs(norm - reference) <= bound * reference


def test_log_norm_is_math_log_of_a_normal_norm():
    tilted = RotationAxis.polar(2.2)
    for k in (40, 640, 4000):
        norm = projection_product_norm(k, Z_AXIS, 0.75, tilted, 0.75)
        assert projection_product_log_norm(k, Z_AXIS, 0.75, tilted, 0.75) \
            == math.log(norm)


def test_log_norm_stays_finite_past_the_norm_underflow():
    # beta = 2.2, levels 0.75: the norm is 3.8e-277 at k = 40,000 and
    # underflows to 0.0 by k = 60,000, while its log keeps decaying at
    # the same rate
    tilted = RotationAxis.polar(2.2)
    assert projection_product_norm(60_000, Z_AXIS, 0.75, tilted, 0.75) == 0.0
    logs = {k: projection_product_log_norm(k, Z_AXIS, 0.75, tilted, 0.75)
            for k in (40_000, 60_000)}
    assert math.isfinite(logs[60_000])
    assert logs[60_000] < math.log(5e-324) < logs[40_000]
    rate = (logs[60_000] - logs[40_000]) / 20_000
    assert abs(rate - logs[40_000] / 40_000) <= 0.01 * abs(rate)


def test_disjoint_norms_decay_past_the_double_rounding_floor():
    # a dense eigensolver stalls near 1e-15; the recurrence keeps the decay:
    # the log-norms at k = 1500 and 2000 continue the slope through
    # k = 640 and 1000 to 1%
    tilted = RotationAxis.polar(2.2)
    logs = {k: math.log(projection_product_norm(k, Z_AXIS, 0.75, tilted,
                                                0.75))
            for k in (640, 1000, 1500, 2000)}
    slope = (logs[1000] - logs[640]) / 360
    assert logs[2000] < logs[1500] < logs[1000]
    for k in (1500, 2000):
        predicted = logs[1000] + slope * (k - 1000)
        assert abs(logs[k] - predicted) <= 0.01 * abs(logs[k])


# --- the certified corner -------------------------------------------------------

def _tridiagonal(k, beta):
    # T = sin beta J_x + cos beta J_z: its diagonal and off-diagonal
    l = np.arange(k + 1)
    return (math.cos(beta) * (l - 0.5 * k),
            0.5 * math.sin(beta) * np.sqrt((l[:-1] + 1.0) * (k - l[:-1])))


def _full_block(k, beta, e1, e2):
    # every column c0..k of the block, as (mant, expo): the downward pass,
    # then an upward pass for each column whose junction lies above r0
    r0, c0 = snapped_ceil(k * e1), snapped_ceil(k * e2)
    diag, off = _tridiagonal(k, beta)
    m = np.arange(c0, k + 1)
    lam = m - 0.5 * k
    half_c, half_s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    mant, expo = _descend(diag, off, lam,
                          *_edge_entries(k, m, half_c, half_s), r0)
    junction = np.rint(0.5 * k + lam * math.cos(beta)).astype(int)
    for j in np.flatnonzero(junction > r0):
        seed, seed_expo = _edge_entries(k, m[j:j + 1], half_s, half_c)
        seed *= (-1.0) ** (k - m[j])
        low_mant, low_expo = _descend(diag[::-1], off[::-1], lam[j:j + 1],
                                      seed, seed_expo, k - junction[j] + 1)
        rows = slice(r0, junction[j])
        mant[:junction[j] - r0, j] = low_mant[::-1][rows, 0]
        expo[:junction[j] - r0, j] = low_expo[::-1][rows, 0]
    return mant, expo


def _block_norm(mant, expo):
    scale = int(expo.max())
    block = np.ldexp(mant, expo - scale)
    block[np.abs(block) < 2.0 ** -500] = 0.0
    return math.ldexp(float(np.linalg.svd(block, compute_uv=False)[0]),
                      scale)


def _ulps(a, b):
    return abs(a - b) / math.ulp(b) if b else abs(a)


@pytest.mark.parametrize("beta", [1.9, 2.2, 2.4, math.pi - 1e-6])
@pytest.mark.parametrize("e1, e2", [(0.85, 0.8), (0.7, 0.85), (0.75, 0.75)])
@pytest.mark.parametrize("k", [40, 320, 1000])
def test_corner_norm_matches_full_block(beta, e1, e2, k):
    # the columns the certificate leaves out move the norm by at most
    # 2^-107 relative, so only the SVD's own rounding separates the two
    tilted = RotationAxis.polar(beta)
    norm = projection_product_norm(k, Z_AXIS, e1, tilted, e2)
    reference = _block_norm(*_full_block(k, beta, e1, e2))
    assert _ulps(norm, reference) <= 4


@pytest.mark.parametrize("beta, k", [
    (2.0 * math.acos(0.5) + 1e-3, 100),  # disjoint, 0.001 rad from tangency
    (0.8, 160),  # overlapping
    (0.8, 1000),
])
def test_corner_falls_back_to_the_full_block(beta, k):
    tilted = RotationAxis.polar(beta)
    width, full = corner_width(k, Z_AXIS, 0.75, tilted, 0.75)
    assert width == full == k - snapped_ceil(0.75 * k) + 1
    assert (projection_product_norm(k, Z_AXIS, 0.75, tilted, 0.75)
            == _block_norm(*_full_block(k, beta, 0.75, 0.75)))


@pytest.mark.parametrize("beta, e1, e2", [(2.2, 0.75, 0.75),
                                          (1.9, 0.85, 0.8),
                                          (2.4, 0.7, 0.85)])
@pytest.mark.parametrize("k", [160, 640])
def test_corner_certificate_premise_on_the_full_block(beta, e1, e2, k):
    # past column c0 no row's |V[l, m]| grows with m, and the columns left
    # out carry at most CORNER_EXCESS of the corner's squared norm
    mant, expo = _full_block(k, beta, e1, e2)
    width, full = corner_width(k, Z_AXIS, e1, RotationAxis.polar(beta), e2)
    assert 0 < width < full == mant.shape[1]
    log2_abs = np.log2(np.abs(mant)) + expo
    assert np.all(np.diff(log2_abs, axis=1) <= 1e-9)
    scale = int(expo.max())
    block = np.ldexp(mant, expo - scale)
    corner = np.linalg.svd(block[:, :width], compute_uv=False)[0]
    assert np.sum(np.square(block[:, width:])) <= CORNER_EXCESS * corner ** 2


def test_corner_width_stays_bounded_in_k():
    # away from tangency the corner does not grow with k: 51, 66 and 71
    # columns of 161, 1001 and 4001 at beta = 2.2
    tilted = RotationAxis.polar(2.2)
    widths = [corner_width(k, Z_AXIS, 0.75, tilted, 0.75)
              for k in (640, 4000, 16000)]
    assert widths == [(51, 161), (66, 1001), (71, 4001)]
    assert corner_width(40, Z_AXIS, 0.75, Z_AXIS, 0.75) == (0, 11)


def _descend_every_step(diag, off, lam, mant, expo, stop):
    # the recurrence with the column pair rescaled into [1/2, 1) at every
    # step: row stop + i as mant[i] 2^expo[i]
    n = diag.size - 1
    off = np.append(off, 0.0)
    rows = [(mant, expo)]
    cur, prev = mant, np.zeros(lam.size)
    for l in range(n, stop, -1):
        new = ((lam - diag[l]) * cur - off[l] * prev) / off[l - 1]
        _, shift = np.frexp(np.maximum(np.abs(new), np.abs(cur)))
        prev, cur = np.ldexp(cur, -shift), np.ldexp(new, -shift)
        expo = expo + shift
        rows.append((cur, expo))
    return (np.array([r[0] for r in rows[::-1]]),
            np.array([r[1] for r in rows[::-1]]))


def _canonical(mant, expo):
    # the same values with mantissas in [1/2, 1), and exponent 0 at zeros
    frac, shift = np.frexp(mant)
    return frac, np.where(frac == 0.0, 0, expo + shift)


@pytest.mark.parametrize("k", [17, 160, 640])
@pytest.mark.parametrize("beta", [1e-9, 0.8, 2.2])
def test_lazy_renormalisation_keeps_every_value(k, beta):
    # every column, from row k to row 0, through both stable and unstable
    # stretches: beta = 1e-9 grows by up to ~2^40 a step, so it rescales
    # every few dozen rows; the values must be the per-step ones, bit for
    # bit
    diag, off = _tridiagonal(k, beta)
    m = np.arange(k + 1)
    args = (diag, off, m - 0.5 * k,
            *_edge_entries(k, m, math.cos(0.5 * beta),
                           math.sin(0.5 * beta)), 0)
    lazy = _descend(*args)
    every = _canonical(*_descend_every_step(*args))
    # the rows come back with every mantissa in [1/2, 1) in magnitude
    np.testing.assert_array_equal(lazy[0], _canonical(*lazy)[0])
    np.testing.assert_array_equal(lazy[0], every[0])
    np.testing.assert_array_equal(_canonical(*lazy)[1], every[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lazy_renormalisation_on_uneven_off_diagonals(seed):
    # two adjacent off-diagonals of 2^-600 make two steps in a row grow by
    # about 2^600 each, so the growth bound must rescale between them; lam
    # need not be eigenvalues for the identity to hold
    rng = np.random.default_rng(seed)
    n = 400
    diag = rng.standard_normal(n + 1)
    off = np.ones(n)
    off[[300, 299, 150, 149]] = 2.0 ** -600
    lam = rng.standard_normal(8)
    mant = rng.uniform(0.5, 1.0, 8) * rng.choice([-1.0, 1.0], 8)
    expo = rng.integers(-50, 50, 8)
    args = (diag, off, lam, mant, expo, 0)
    lazy = _descend(*args)
    every = _canonical(*_descend_every_step(*args))
    np.testing.assert_array_equal(lazy[0], every[0])
    np.testing.assert_array_equal(_canonical(*lazy)[1], every[1])
