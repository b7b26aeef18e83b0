import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbklab.circle_spectral as circle_spectral
from pbklab.circle_spectral import (IntegerSpectrumOperator, NodeCountError,
                                    SpectralConfig, default_node_count,
                                    expm_series,
                                    random_integer_spectrum_operator,
                                    snapped_ceil, spectral_projector_eig,
                                    spectral_projector_quadrature)


# --- operator construction ------------------------------------------------

def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        IntegerSpectrumOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_integer_spectrum():
    with pytest.raises(ValueError, match="integral"):
        IntegerSpectrumOperator(np.diag([0.5, 1.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="finite"):
        IntegerSpectrumOperator(np.diag([value, 1.0]))


def test_spectrum_is_cached():
    op = IntegerSpectrumOperator(np.diag([3.0, -2.0, 0.0]))
    assert op.spectrum == (-2, 0, 3)


def test_snapped_ceil():
    assert snapped_ceil(2.0) == 2
    assert snapped_ceil(2.0 + 1e-12) == 2
    assert snapped_ceil(2.0 - 1e-12) == 2
    assert snapped_ceil(2.1) == 3
    assert snapped_ceil(-0.5) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_snapped_ceil_rejects_non_finite(value):
    with pytest.raises(ValueError, match="must be finite"):
        snapped_ceil(value)


# --- matrix exponential ---------------------------------------------------

def _hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("dim", [1, 6])
@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.5, 0.5 * (1 + 2.0 ** -52),
                                  40.0],
                         ids=["zero", "1e-3", "half", "above-half", "40"])
def test_expm_series_matches_eigh_exponential(dim, norm):
    # ||i theta H||_1 = norm: exactly 1/2 is the largest norm summed without
    # squaring, the next double above it takes one squaring
    h = _hermitian(dim, 3)
    theta = norm / np.linalg.norm(1j * h, 1)
    m = 1j * theta * h
    if norm in (0.5, 0.5 * (1 + 2.0 ** -52)):
        assert np.linalg.norm(m, 1) == norm
    w, v = np.linalg.eigh(h)
    exact = (v * np.exp(1j * theta * w)) @ v.conj().T
    # rounding of the reference and of the squarings, well below the
    # first omitted Taylor term at one degree less
    assert np.max(np.abs(expm_series(m) - exact)) <= 4e-15 + 1e-15 * norm


def test_expm_series_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        expm_series(np.array([[math.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        expm_series(np.array([[math.inf]]))


# --- spectral projectors --------------------------------------------------

def test_quadrature_projector_simple_cut():
    op = IntegerSpectrumOperator(np.diag([-1.0, 0.0, 2.0]))
    p = spectral_projector_quadrature(op, 0.0)
    assert np.allclose(p, np.diag([0.0, 1.0, 1.0]), atol=1e-10)


def test_quadrature_projector_shifted_cut():
    op = IntegerSpectrumOperator(np.diag([-1.0, 0.0, 2.0]))
    p = spectral_projector_quadrature(op, 0.5)
    assert np.allclose(p, np.diag([0.0, 0.0, 1.0]), atol=1e-10)


def test_quadrature_matches_eig_oracle():
    rng = np.random.default_rng(42)
    op = random_integer_spectrum_operator(8, rng)
    quad = spectral_projector_quadrature(op, 0.3)
    oracle = spectral_projector_eig(op, 0.3)
    assert np.max(np.abs(quad - oracle)) <= 1e-9


def _node_count_cases():
    # random operators, plus one-eigenvalue operators: max_q = 0 gives the
    # smallest node count (needed = 4, one stored power beyond T^0)
    for dim in (1, 2, 17, 64):
        rng = np.random.default_rng(dim)
        op = random_integer_spectrum_operator(dim, rng)
        yield f"dim{dim}", op, float(rng.uniform(-5, 5))
    yield "diag0-at-0", IntegerSpectrumOperator(np.diag([0.0])), 0.0
    yield "diag3-at-2.5", IntegerSpectrumOperator(np.diag([3.0])), 2.5


@pytest.mark.parametrize("case", list(_node_count_cases()),
                         ids=lambda case: case[0])
@pytest.mark.parametrize("scale", ["needed", "needed+1", "default",
                                   "5needed+3", 63, 64, 127, 128])
def test_quadrature_matches_eig_oracle_at_node_counts(case, scale):
    # odd counts and counts that are no multiple of isqrt(nodes) leave a
    # short last block in the Horner evaluation of the Hilbert sum; powers
    # of two take only doubling steps in the mean sum, all-ones bit patterns
    # take the set-bit step after every doubling, odd counts after the last
    _, op, energy = case
    needed = default_node_count(op, energy) // 2
    nodes = scale if isinstance(scale, int) else {
        "needed": needed, "needed+1": needed + 1, "default": 2 * needed,
        "5needed+3": 5 * needed + 3}[scale]
    assert nodes >= needed
    quad = spectral_projector_quadrature(op, energy, nodes)
    oracle = spectral_projector_eig(op, energy)
    assert np.max(np.abs(quad - oracle)) <= 1e-9


def test_quadrature_needs_no_eigendecomposition(monkeypatch):
    op = random_integer_spectrum_operator(12, np.random.default_rng(8))
    oracle = spectral_projector_eig(op, 0.4)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition on the quadrature route")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    calls = []
    series = circle_spectral.expm_series

    def counted(m):
        calls.append(m.shape)
        return series(m)

    monkeypatch.setattr(circle_spectral, "expm_series", counted)
    quad = spectral_projector_quadrature(op, 0.4)
    assert len(calls) == 1
    assert np.max(np.abs(quad - oracle)) <= 1e-9


@pytest.mark.parametrize("dim", [1, 2, 8, 33, 64])
def test_projector_idempotent_hermitian(dim):
    rng = np.random.default_rng(dim)
    op = random_integer_spectrum_operator(dim, rng)
    energy = float(rng.uniform(-4, 4))
    for proj in (spectral_projector_quadrature(op, energy),
                 spectral_projector_eig(op, energy)):
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
        assert np.max(np.abs(proj - proj.conj().T)) <= 1e-8


def test_insufficient_nodes_error_names_minimum():
    op = IntegerSpectrumOperator(np.diag([-3.0, 5.0]))
    needed = default_node_count(op, 0.0) // 2
    with pytest.raises(NodeCountError, match=str(needed)):
        spectral_projector_quadrature(op, 0.0, nodes=needed - 1)


def test_eig_projector_trivial_cases():
    assert np.allclose(spectral_projector_eig(np.zeros((3, 3)), 0.0),
                       np.eye(3))
    assert np.allclose(spectral_projector_eig(np.diag([1.0, 2.0]), 3.0),
                       np.zeros((2, 2)))


def test_eig_projector_scaled_ladder():
    k = 10
    matrix = np.diag(np.arange(k + 1) / k)
    p = spectral_projector_eig(matrix, 0.5)
    assert np.allclose(p, np.diag([0.0] * 5 + [1.0] * 6))
    assert round(np.trace(p).real) == 6


def _period_reduction_gap(dim, n, energy):
    """max-norm gap between the eigen projectors of A at E and of A/n at
    E/n, for a random A with spectrum in n{-3, .., 3}."""
    rng = np.random.default_rng(dim * 100 + n)
    ints = n * rng.integers(-3, 4, size=dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    matrix = (q * ints) @ q.conj().T
    matrix = 0.5 * (matrix + matrix.conj().T)
    big = spectral_projector_eig(matrix, energy)
    reduced = spectral_projector_eig(matrix / n, energy / n)
    return np.max(np.abs(big - reduced))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=2, max_value=4),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_period_reduction(dim, n, energy):
    assert _period_reduction_gap(dim, n, energy) <= 1e-12


@pytest.mark.parametrize("dim, n, energy", [
    (2, 4, 1e-9), (3, 4, 3e-9), (4, 4, 1.5e-9), (6, 3, 2.5e-9),
    (7, 3, 1e-9), (8, 2, 2e-9)])
def test_period_reduction_at_ties(dim, n, energy):
    # each operator has the eigenvalue 0, computed to within rounding of
    # it; an absolute tie tolerance keeps it at E and drops it at E/n, or
    # the other way round
    assert _period_reduction_gap(dim, n, energy) <= 1e-12


# --- spectral config ------------------------------------------------------

def test_spectral_config_cut():
    cfg = SpectralConfig(10, 0.5)
    assert cfg.cut_index == 5
    assert cfg.e_k == 0.5
    cfg = SpectralConfig(10, 0.51)
    assert cfg.cut_index == 6
    assert cfg.e_k == 0.6


def test_spectral_config_lattice():
    cfg = SpectralConfig(10, 0.55, stabilizer_order=2)
    # k*E/N = 2.75 -> ceil 3 -> cut on the lattice 2Z is 6
    assert cfg.cut_index == 6


@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.01, max_value=0.99))
def test_spectral_config_invariants(k, energy):
    cfg = SpectralConfig(k, energy)
    assert cfg.e_k >= energy - 1e-9
    assert abs(cfg.k * cfg.e_k - round(cfg.k * cfg.e_k)) < 1e-12
    assert cfg.e_k - energy < 1.0 / k + 1e-12
