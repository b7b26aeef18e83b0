import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbklab.cp1_geometry import (ChartError, ProjectivePoint, gradient_flow,
                                 height, level_point, projective_equal,
                                 rotate, xh_norm)

finite_complex = st.complex_numbers(min_magnitude=1e-2, max_magnitude=50,
                                    allow_nan=False, allow_infinity=False)
scales = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                            allow_nan=False, allow_infinity=False)


def chart_points():
    return st.builds(ProjectivePoint, finite_complex, finite_complex)


def test_height_poles_and_equator():
    assert height(ProjectivePoint(0, 1)) == 0.0
    assert height(ProjectivePoint(1, 1)) == 0.5
    assert height(ProjectivePoint(1, 0)) == 1.0


@given(chart_points(), scales)
def test_operations_scale_invariant(p, lam):
    q = ProjectivePoint(lam * p.z0, lam * p.z1)
    assert abs(height(p) - height(q)) <= 1e-12
    assert abs(xh_norm(p) - xh_norm(q)) <= 1e-12
    assert projective_equal(rotate(0.7, p), rotate(0.7, q))
    assert projective_equal(gradient_flow(0.3, p), gradient_flow(0.3, q))


@pytest.mark.parametrize("z0, z1", [(complex(math.nan, 0.0), 1.0),
                                     (1.0, complex(0.0, math.inf)),
                                     (-math.inf, 0.0)])
def test_point_refuses_non_finite_coordinates(z0, z1):
    # a NaN coordinate would reach the kernels' window arithmetic and fail
    # there, naming neither the point nor the kernel
    with pytest.raises(ValueError, match="must be finite") as info:
        ProjectivePoint(z0, z1)
    assert f"[{complex(z0)} : {complex(z1)}]" in str(info.value)


@pytest.mark.parametrize("z0, z1", [(complex(1.7e308, 1.7e308), 1.0),
                                     (1.0, complex(-1.5e308, 1.5e308))])
def test_point_refuses_a_modulus_that_overflows(z0, z1):
    # the coordinates are finite, but abs() of one overflows, which every
    # reader of the point (height, log_affine) would meet
    with pytest.raises(ValueError, match="have a modulus that overflows") \
            as info:
        ProjectivePoint(z0, z1)
    assert f"[{complex(z0)} : {complex(z1)}]" in str(info.value)


def test_rotate_examples():
    p = ProjectivePoint(1, 1)
    assert projective_equal(rotate(0.0, p), p)
    assert projective_equal(rotate(2 * math.pi, p), p)
    half_turn = rotate(math.pi, p)
    assert projective_equal(half_turn, ProjectivePoint(-1, 1))
    assert abs(height(half_turn) - 0.5) <= 1e-15


@given(chart_points(), st.floats(-6, 6), st.floats(-6, 6))
def test_rotation_group_law(p, s, t):
    assert projective_equal(rotate(s, rotate(t, p)), rotate(s + t, p))


@given(chart_points(), st.floats(-2, 2), st.floats(-2, 2))
def test_gradient_flow_group_law(p, a, b):
    assert projective_equal(gradient_flow(a, gradient_flow(b, p)),
                            gradient_flow(a + b, p))


@given(chart_points(), st.floats(-2, 2), st.floats(-6, 6))
def test_flows_commute(p, a, t):
    assert projective_equal(gradient_flow(a, rotate(t, p)),
                            rotate(t, gradient_flow(a, p)))


def test_gradient_flow_identity():
    p = ProjectivePoint(0.3 + 0.4j, 1)
    assert projective_equal(gradient_flow(0.0, p), p)


@given(chart_points(), st.floats(-2, 2))
def test_height_along_gradient_flow_closed_form(p, a):
    h = height(p)
    moved = height(gradient_flow(a, p))
    expected = math.exp(2 * a) * h / (math.exp(2 * a) * h + (1.0 - h))
    assert abs(moved - expected) <= 1e-10


def test_gradient_flow_velocity_matches_metric_differential():
    # The chart velocity of the flow must be the metric gradient of the
    # height: g(zeta_dot, v) = dH(v) for the area-2*pi round metric
    # g = 2|dzeta|^2/(1+|zeta|^2)^2.  Both sides via central differences.
    rng_points = [0.3 + 0.7j, -1.2 + 0.4j, 0.05 - 0.9j, 2.0 + 1.0j]
    rng_vectors = [1.0, 1j, 0.6 - 0.8j]
    eps = 1e-5

    def h_affine(zeta):
        return height(ProjectivePoint(zeta, 1))

    for zeta in rng_points:
        p = ProjectivePoint(zeta, 1)
        za = gradient_flow(eps, p).affine()
        zb = gradient_flow(-eps, p).affine()
        velocity = (za - zb) / (2 * eps)
        for v in rng_vectors:
            lhs = 2.0 * (velocity * v.conjugate()).real / (1 + abs(zeta) ** 2) ** 2
            rhs = (h_affine(zeta + eps * v) - h_affine(zeta - eps * v)) / (2 * eps)
            assert abs(lhs - rhs) <= 1e-8


def test_xh_norm_values():
    assert abs(xh_norm(ProjectivePoint(1, 1)) - math.sqrt(0.5)) <= 1e-15
    assert xh_norm(ProjectivePoint(0, 1)) == 0.0
    assert xh_norm(ProjectivePoint(1, 0)) == 0.0
    p = level_point(0.2)
    assert abs(xh_norm(p) - math.sqrt(0.32)) <= 1e-12


def test_level_point_heights():
    for e in (0.1, 0.5, 0.9):
        assert abs(height(level_point(e, 1.3)) - e) <= 1e-12


def test_chart_errors():
    north = ProjectivePoint(1, 0)
    with pytest.raises(ChartError):
        north.affine()
    with pytest.raises(ValueError):
        ProjectivePoint(0, 0)


def test_projective_equal_gauge():
    p = ProjectivePoint(1 + 1j, 2 - 0.5j)
    lam = cmath.exp(1j * 2.1) * 3.7
    q = ProjectivePoint(lam * p.z0, lam * p.z1)
    assert projective_equal(p, q)
    assert not projective_equal(p, ProjectivePoint(1, 1))
