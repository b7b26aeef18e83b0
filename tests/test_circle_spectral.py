import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbklab.circle_spectral as circle_spectral
from pbklab.circle_spectral import (MAX_WEIGHT, IntegerSpectrumOperator,
                                    SpectralConfig,
                                    default_node_count, expm_series,
                                    random_integer_spectrum_operator,
                                    snapped_ceil, spectral_projector_eig,
                                    spectral_projector_quadrature)
from pbklab.harness import ExperimentConfig, run_experiment


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


def test_constructor_takes_one_eigendecomposition(monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        routine = getattr(np.linalg, name)

        def counted(*args, _routine=routine, _name=name, **kwargs):
            calls.append(_name)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    random_integer_spectrum_operator(8, np.random.default_rng(2))
    assert calls == ["eigh"]


def test_eig_projector_reads_the_stored_eigenpairs():
    rng = np.random.default_rng(3)
    for dim in (1, 8, 33, 64):
        op = random_integer_spectrum_operator(dim, rng)
        for energy in rng.uniform(-5, 5, size=3):
            assert np.array_equal(spectral_projector_eig(op, energy),
                                  spectral_projector_eig(op.matrix, energy))


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
                                  2.0, 2.0 * (1 + 2.0 ** -52), 40.0],
                         ids=["zero", "1e-3", "half", "above-half", "two",
                              "above-two", "40"])
def test_expm_series_matches_eigh_exponential(dim, norm):
    # ||i theta H||_1 = norm: exactly EXPM_SERIES_NORM = 2 is the largest
    # norm the series takes; the next double above it, and 40, are refused
    h = _hermitian(dim, 3)
    theta = norm / np.linalg.norm(1j * h, 1)
    m = 1j * theta * h
    if norm in (0.5, 0.5 * (1 + 2.0 ** -52), 2.0, 2.0 * (1 + 2.0 ** -52)):
        assert np.linalg.norm(m, 1) == norm
    if norm > circle_spectral.EXPM_SERIES_NORM:
        with pytest.raises(ValueError, match="exceeds the series bound 2"):
            expm_series(m)
        return
    w, v = np.linalg.eigh(h)
    exact = (v * np.exp(1j * theta * w)) @ v.conj().T
    # rounding of the reference and of the series, well below the first
    # omitted Taylor term at one degree less
    assert np.max(np.abs(expm_series(m) - exact)) <= 4e-15 + 1e-15 * norm


@pytest.mark.parametrize("dim", [1, 8, 33, 64])
def test_expm_series_at_the_quadrature_argument(dim):
    # i theta (A - cut) with theta = pi/2N and the 2-norm bound the
    # quadrature passes, (pi/2N)(span + INTEGER_SPECTRUM_TOL) < pi/2
    rng = np.random.default_rng(dim)
    op = random_integer_spectrum_operator(dim, rng)
    cut, nodes = circle_spectral._matrix_cut(op, float(rng.uniform(-5, 5)))
    theta = 0.5 * math.pi / nodes
    norm = theta * (max(abs(p - cut) for p in op.spectrum)
                    + circle_spectral.INTEGER_SPECTRUM_TOL)
    assert norm < circle_spectral.EXPM_SERIES_NORM
    shifted = op.matrix - cut * np.eye(dim)
    w, v = np.linalg.eigh(shifted)
    exact = (v * np.exp(1j * theta * w)) @ v.conj().T
    got = expm_series(1j * theta * shifted, norm=norm)
    assert np.max(np.abs(got - exact)) <= 4e-15 + 1e-15 * norm


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
    # random operators, plus one-eigenvalue operators: a span of 0 gives
    # the smallest node count (needed = 1, T^0 the only stored power).
    # dim1's level lies above its spectrum, so its cut is clamped
    for dim in (1, 2, 17, 64):
        rng = np.random.default_rng(dim)
        op = random_integer_spectrum_operator(dim, rng)
        yield f"dim{dim}", op, float(rng.uniform(-5, 5))
    yield "diag0-at-0", IntegerSpectrumOperator(np.diag([0.0])), 0.0
    yield "diag3-at-2.5", IntegerSpectrumOperator(np.diag([3.0])), 2.5


def _span(op, energy):
    cut = circle_spectral._matrix_cut(op, energy)[0]
    return max(abs(p - cut) for p in op.spectrum)


def _quadrature_at(op, energy, nodes, monkeypatch):
    monkeypatch.setattr(circle_spectral, "hilbert_node_count",
                        lambda spectrum, cut: nodes)
    return spectral_projector_quadrature(op, energy)


@pytest.mark.parametrize("case", list(_node_count_cases()),
                         ids=lambda case: case[0])
@pytest.mark.parametrize("scale", ["needed", "needed+1", "default",
                                   "5needed+3", 63, 64, 127, 128])
def test_quadrature_matches_eig_oracle_at_node_counts(case, scale,
                                                      monkeypatch):
    # the rule's count is the span + 1 nodes, called needed here, that
    # make both node sums exact: the projector must come out the same at
    # larger counts put in its place.  Odd counts and counts that are no
    # multiple of isqrt(nodes) leave a short last block in the Horner
    # evaluation of the Hilbert sum; powers of two take only doubling
    # steps in the mean sum, all-ones bit patterns take the set-bit step
    # after every doubling, odd counts after the last
    _, op, energy = case
    needed = _span(op, energy) + 1
    if scale == "default":
        assert default_node_count(op, energy) == needed
    nodes = scale if isinstance(scale, int) else {
        "needed": needed, "needed+1": needed + 1, "default": needed,
        "5needed+3": 5 * needed + 3}[scale]
    assert nodes >= needed
    quad = _quadrature_at(op, energy, nodes, monkeypatch)
    oracle = spectral_projector_eig(op, energy)
    assert np.max(np.abs(quad - oracle)) <= 1e-9


@pytest.mark.parametrize("case", [case for case in _node_count_cases()
                                  if _span(*case[1:]) > 0],
                         ids=lambda case: case[0])
def test_quadrature_misses_eig_oracle_one_node_short(case, monkeypatch):
    # the rule is tight: at N = span the eigenvalues at cut +- span alias
    # into the mean term's frequency 0, adding half their projector
    _, op, energy = case
    quad = _quadrature_at(op, energy, _span(op, energy), monkeypatch)
    oracle = spectral_projector_eig(op, energy)
    assert np.max(np.abs(quad - oracle)) > 1e-3


@pytest.mark.parametrize("energy", [-1e5, 1e5, 1e12])
def test_far_cut_is_clamped_to_the_spectrum(energy):
    # a level far outside the spectrum keeps every eigenvalue or none; the
    # cut moves to min - 1 or max + 1, so N stays at most the width + 2
    op = random_integer_spectrum_operator(8, np.random.default_rng(1))
    assert default_node_count(op, energy) <= (max(op.spectrum)
                                              - min(op.spectrum)) + 2
    expected = np.eye(8) if energy < 0 else np.zeros((8, 8))
    assert np.max(np.abs(spectral_projector_quadrature(op, energy)
                         - expected)) <= 1e-9
    assert np.max(np.abs(spectral_projector_eig(op, energy)
                         - expected)) <= 1e-9


def test_power_polynomial_matches_naive_sum():
    # for n = 1..130, a polynomial of length n alone, then in one table
    # with another of length n taken at every other power (the
    # quadrature's mean sum), and with one of length 2n - 1: length 1
    # takes no Horner step, and lengths that are no multiple of the table
    # size leave a short last block
    rng = np.random.default_rng(5)
    op = random_integer_spectrum_operator(3, rng)
    v = op.eigenvectors
    x = (v * np.exp(0.3j * op.eigenvalues)) @ v.conj().T
    powers = [np.eye(3, dtype=complex)]
    for _ in range(2 * 130):
        powers.append(powers[-1] @ x)
    for length in range(1, 131):
        coeffs = rng.standard_normal(length)
        alternate = np.zeros(length)
        alternate[length - 1::-2] = rng.standard_normal((length + 1) // 2)
        longer = rng.standard_normal(2 * length - 1)
        for polys in ([coeffs], [alternate, coeffs], [longer, coeffs]):
            got = circle_spectral._power_polynomials(polys, x)
            assert len(got) == len(polys)
            for p, value in zip(polys, got):
                naive = sum(c * powers[m] for m, c in enumerate(p))
                assert np.max(np.abs(value - naive)) \
                    <= 1e-12 * np.abs(p).sum(), (length, len(p))


def test_quadrature_needs_no_eigendecomposition(monkeypatch):
    op = random_integer_spectrum_operator(12, np.random.default_rng(8))
    oracle = spectral_projector_eig(op, 0.4)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition on the quadrature route")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    calls = []
    series = circle_spectral.expm_series

    def counted(m, **kwargs):
        calls.append(m.shape)
        return series(m, **kwargs)

    monkeypatch.setattr(circle_spectral, "expm_series", counted)
    quad = spectral_projector_quadrature(op, 0.4)
    assert len(calls) == 1
    assert np.max(np.abs(quad - oracle)) <= 1e-9


def test_quadrature_never_reads_the_stored_eigenpairs():
    op = random_integer_spectrum_operator(12, np.random.default_rng(9))
    before = spectral_projector_quadrature(op, 0.4)
    object.__setattr__(op, "eigenvalues", np.full_like(op.eigenvalues,
                                                       math.nan))
    object.__setattr__(op, "eigenvectors", np.full_like(op.eigenvectors,
                                                        math.nan))
    assert np.array_equal(spectral_projector_quadrature(op, 0.4), before)


@pytest.mark.parametrize("seed", range(1, 9))
def test_selftest_deviation_stays_at_rounding(seed):
    # the default selftest's dimension and trial count: 1.8e-15 at most
    # over these seeds (6.1e-15 with the 1-norm-scaled exponential)
    report = run_experiment(ExperimentConfig(
        experiment="selftest-hilbert", dim=64, trials=100, seed=seed))
    assert report.summary["max_deviation"] < 1e-14


@pytest.mark.parametrize("dim", [1, 2, 8, 33, 64])
def test_projector_idempotent_hermitian(dim):
    rng = np.random.default_rng(dim)
    op = random_integer_spectrum_operator(dim, rng)
    energy = float(rng.uniform(-4, 4))
    for proj in (spectral_projector_quadrature(op, energy),
                 spectral_projector_eig(op, energy)):
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-8
        assert np.max(np.abs(proj - proj.conj().T)) <= 1e-8


@pytest.mark.parametrize("spectrum, energy", [
    ((0.0, 8.0), 2e-9), ((0.0, 8.0), 5e-9), ((0.0,), 1e-10)],
    ids=["diag(0,8)-2e-9", "diag(0,8)-5e-9", "diag(0)-1e-10"])
def test_matrix_routes_share_the_tie_rule(spectrum, energy):
    # E lies within EIGENVALUE_TIE_TOL * max|lambda| above the eigenvalue 0
    # but not within EIGENVALUE_TIE_TOL of it (diag(0, 8)), or at a scale
    # of 0 (diag(0)): both routes must keep 0, or both drop it
    op = IntegerSpectrumOperator(np.diag(spectrum))
    quad = spectral_projector_quadrature(op, energy)
    oracle = spectral_projector_eig(op, energy)
    assert np.max(np.abs(quad - oracle)) <= 1e-12


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_matrix_routes_name_a_non_finite_energy(energy):
    op = IntegerSpectrumOperator(np.diag([0.0, 2.0]))
    for route in (spectral_projector_quadrature, default_node_count):
        with pytest.raises(ValueError, match=f"level {energy} must be "
                                             "finite"):
            route(op, energy)


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
    assert SpectralConfig(10, 0.5).cut_index == 5
    assert SpectralConfig(10, 0.51).cut_index == 6
    # a level at kE up to rounding stays inside the cut
    assert SpectralConfig(10, 0.5 + 1e-12).cut_index == 5


def test_spectral_config_bounds_the_weight():
    assert SpectralConfig(MAX_WEIGHT, 0.5).k == 10 ** 11
    with pytest.raises(ValueError, match=f"weight k = {10 ** 11 + 1} "
                                         f"exceeds {10 ** 11}"):
        SpectralConfig(MAX_WEIGHT + 1, 0.5)


@pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
def test_spectral_config_rejects_non_finite_energy(energy):
    with pytest.raises(ValueError, match=f"energy level {energy} must be "
                                         "finite"):
        SpectralConfig(10, energy)


@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.01, max_value=0.99))
def test_spectral_config_invariants(k, energy):
    cut = SpectralConfig(k, energy).cut_index
    assert isinstance(cut, int)
    assert k * energy - 1e-9 <= cut < k * energy + 1.0
