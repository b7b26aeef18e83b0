import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbklab import exact_kernels
from pbklab.circle_spectral import NodeCountError, SpectralConfig
from pbklab.cp1_geometry import (ChartError, ProjectivePoint, level_point,
                                 rotate)
from pbklab.exact_kernels import (CHUNK_TERMS, LogComplex, bergman_coeff,
                                  bergman_coeff_closed, equivariant_coeff,
                                  hilbert_route_terms, log_binomial,
                                  logc_rel_difference,
                                  partial_coeff, partial_via_hilbert,
                                  propagator_coeff, section_coeff,
                                  toeplitz_diag)
from pbklab.harness import ExperimentConfig, run_experiment

ONE_ONE = ProjectivePoint(1, 1)
ORIGIN = ProjectivePoint(0, 1)


def rand_chart_point(rng, lo=0.15, hi=0.85):
    h = rng.uniform(lo, hi)
    return level_point(h, rng.uniform(0, 2 * math.pi))


def phase_distance(a, b):
    return abs(cmath.exp(1j * a) - cmath.exp(1j * b))


# --- level sums -------------------------------------------------------------

def test_level_sums_huge_dynamic_range():
    # terms e^5000 and e^-5000: the sum is the top term to the last bit
    logmag, phase = exact_kernels._level_sums(np.array([[5000.0, -5000.0]]),
                                              np.zeros((1, 2)))
    assert abs(logmag[0] - 5000.0) < 1e-12 and phase[0] == 0.0


def test_level_sums_empty_and_dead_rows():
    # a row without terms, or with dead terms only, is the exact zero; a
    # dead term adds nothing to a live one
    level_sums = exact_kernels._level_sums
    zero = bits([LogComplex.zero()])
    assert batch_bits(level_sums(np.empty((1, 0)), np.empty((1, 0)))) == zero
    assert batch_bits(level_sums(np.array([[-math.inf, -math.inf]]),
                                 np.array([[0.0, 1.0]]))) == zero
    x = LogComplex.from_complex(3 + 4j)
    (logmag,), (phase,) = level_sums(np.array([[-math.inf, x.logmag]]),
                                     np.array([[2.0, x.phase]]))
    assert LogComplex(logmag, phase).to_complex() == x.to_complex()


# --- correctly rounded row sums ---------------------------------------------

def row_sum_hex(rows):
    """_row_sums of a block of equal-length rows, and math.fsum of each
    row, as hex strings: equal bits, sign of zero included."""
    block = np.array(rows, dtype=float).reshape(len(rows), -1)
    return ([v.hex() for v in exact_kernels._row_sums(block).tolist()],
            [math.fsum(row).hex() for row in rows])


# finite terms small enough that no partial sum of a row overflows
summand = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def row_blocks(draw):
    """Blocks of rows of one length; a row may repeat its terms negated,
    possibly nudged by an ulp, for deep cancellation."""
    n, count = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    rows = []
    for _ in range(count):
        row = draw(st.lists(summand, min_size=n, max_size=n))
        if draw(st.booleans()):
            half = row[:(n + 1) // 2]
            nudge = draw(st.sampled_from([0.0, 1.0, -1.0]))
            row = half + [-math.nextafter(v, nudge * math.inf)
                          if nudge else -v for v in half][:n // 2]
        rows.append(row)
    return rows


@given(row_blocks())
def test_row_sums_equal_fsum_bitwise(rows):
    got, want = row_sum_hex(rows)
    assert got == want


@pytest.mark.parametrize("row, expected", [
    # exact ties, both rounded to the even neighbour
    ([1.0, 2.0 ** -53], 1.0),
    ([1.0, -2.0 ** -54], 1.0),
    # cancellation far below the largest term
    ([1.0, 1e-16, -1.0], 1e-16),
    ([1.0, -1.0, 2.0 ** -60], 2.0 ** -60),
    # the residual after both extractions rounds in numpy's sum: a + b is
    # a tie, so only the error bound of that sum rejects r = a
    ([1.0, -1.0, 2.0 ** -52, -2.0 ** -52, 2.0 ** -103, 2.0 ** -156,
      2.0 ** -170], 2.0 ** -103 + 2.0 ** -155),
    # four terms of one sign, at odd multiples of the extraction grid: one
    # binade less of sigma and their partial sums round
    ([-(2 - 2.0 ** -51), -(2 - 3 * 2.0 ** -51), -(2 - 2.0 ** -51),
      -(2 - 5 * 2.0 ** -51)], -(8 - 10 * 2.0 ** -51)),
    ([5e-324, 1e-323, -1.5e-323], 0.0),
    ([2.5e-323, -5e-324, 1e-322], 24 * 5e-324),
    ([-0.0], 0.0),
    ([-0.0, -0.0, -0.0], 0.0),
    ([0.0, -0.0], 0.0),
    ([-3.5], -3.5),
    ([], 0.0),
], ids=["tie-up", "tie-down", "cancel-1e-16", "cancel-2^-60",
        "residual-tie", "sigma-binade", "subnormal-zero", "subnormal",
        "negative-zero", "negative-zeros", "signed-zeros", "single",
        "empty"])
def test_row_sums_pinned_cases(row, expected):
    got, want = row_sum_hex([row])
    assert got == want == [expected.hex()]


def test_row_sums_long_row_and_mixed_block():
    rng = np.random.default_rng(3)
    long = (rng.standard_normal(39000) * np.exp(-np.linspace(-9, 9, 39000)
                                                 ** 2)).tolist()
    got, want = row_sum_hex([long])
    assert got == want
    # rows of one block: plain, all zero, subnormal, NaN, cancelling
    block = [rng.standard_normal(6).tolist(), [0.0] * 6,
             [5e-324, -1e-323, 0.0, 5e-324, 2e-323, -0.0],
             [1.0, math.nan, 0.0, 0.0, 0.0, 0.0],
             [0.1, 0.2, 0.3, -0.3, -0.2, -0.1]]
    got, want = row_sum_hex(block)
    assert got == want


def test_lift_matches_logcomplex_from_complex():
    # a block of sums goes to log-polar form as LogComplex.from_complex
    # takes one value, bit for bit; numpy's arctan2 and complex abs differ
    # from those math calls in the last bit on a share of these inputs
    rng = np.random.default_rng(5)
    re, im = rng.standard_normal((2, 2000))
    re[-100:] *= 1e300
    im[-200:-100] *= 1e-300
    # signed zeros, which are the exact zero, and values next to them
    re[:6] = [0.0, -0.0, 0.0, -0.0, 1e-300, -0.0]
    im[:6] = [0.0, 0.0, -0.0, -0.0, 0.0, 5e-324]
    top = rng.uniform(-50, 50, 2000)
    want = [LogComplex.from_complex(complex(r, i))
            for r, i in zip(re.tolist(), im.tolist())]
    assert batch_bits(exact_kernels._lift(top, re, im)) == bits(
        [LogComplex(t + w.logmag, w.phase)
         for t, w in zip(top.tolist(), want)])


def test_heatmap_grid_sums_rarely_reach_fsum(monkeypatch, tmp_path):
    # a k = 80 heatmap: its level sums go to math.fsum only where the
    # rounding certificate rejects a row, on fewer than 1% of its cells
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum",
                        lambda terms: calls.append(1) or fsum(terms))
    cfg = ExperimentConfig(experiment="heatmap", kind="partial", k=80,
                           e=0.5, grid_n=81, out=str(tmp_path / "h.csv"))
    assert run_experiment(cfg).exit_code == 0
    assert len(calls) < 0.01 * 81 * 81


# --- section coefficients ---------------------------------------------------

def test_section_example_k1():
    lc = section_coeff(1, 0, ONE_ONE)
    assert abs(lc.logmag - (-0.5 * math.log(2 * math.pi))) <= 1e-14
    assert phase_distance(lc.phase, 0.0) <= 1e-14


@pytest.mark.parametrize("k,l,e", [(6, 2, 0.3), (40, 25, 0.6), (9, 0, 0.5)])
def test_section_modulus_on_level_set(k, l, e):
    # |kappa|^2 on {H = e} equals (k+1)/(2pi) C(k,l) e^l (1-e)^{k-l}
    p = level_point(e, 0.77)
    lc = section_coeff(k, l, p)
    expected = ((k + 1) / (2 * math.pi) * math.comb(k, l)
                * e ** l * (1 - e) ** (k - l))
    assert abs(lc.abs() ** 2 - expected) <= 1e-12 * expected


@pytest.mark.parametrize("theta", [0.3, 2.0, 5.5])
def test_section_phase_rotates_with_level_index(theta):
    k, l, e = 12, 7, 0.4
    lc = section_coeff(k, l, level_point(e, theta))
    assert phase_distance(lc.phase, l * theta) <= 1e-12


def test_section_chart_error_and_range():
    with pytest.raises(ChartError):
        section_coeff(3, 1, ProjectivePoint(1, 0))
    with pytest.raises(ValueError):
        section_coeff(3, 4, ONE_ONE)


def test_section_at_south_pole():
    south = ProjectivePoint(0, 1)
    assert section_coeff(5, 2, south).is_zero
    lc = section_coeff(5, 0, south)
    assert abs(lc.abs() - math.sqrt(6 / (2 * math.pi))) <= 1e-14


def test_log_binomial_against_exact():
    for k, l in [(10, 3), (500, 250), (2000, 13), (100000, 50000)]:
        exact = math.log(math.comb(k, l))
        assert abs(log_binomial(k, l) - exact) <= 1e-9 * max(1.0, exact)


def test_lgamma_blocks_hold_exact_values(monkeypatch):
    monkeypatch.setattr(exact_kernels, "_LGAMMA_BLOCKS", {})
    for k in (10, 300, 700, 5000, 40000):
        log_binomial(k, np.arange(k + 1))
    blocks = exact_kernels._LGAMMA_BLOCKS
    assert blocks
    size = exact_kernels.LGAMMA_BLOCK
    for b, block in blocks.items():
        assert block.size == size
        values = [math.lgamma(i) if i else math.inf
                  for i in range(b * size, (b + 1) * size)]
        assert block.tolist() == values


def test_log_binomial_bitwise_against_lgamma():
    size = exact_kernels.LGAMMA_BLOCK
    for k in (7, 3 * size - 1, 3 * size, 5000, 100000):
        # ends of the range, and l + 1 or k - l + 1 on either side of a
        # block edge
        picks = {0, 1, k - 1, k, size - 2, size - 1, size,
                 k - size, k - size + 1, k - size + 2}
        ls = sorted(l for l in picks if 0 <= l <= k)
        whole = log_binomial(k, np.arange(k + 1))
        for l in ls:
            exact = (math.lgamma(k + 1) - math.lgamma(l + 1)
                     - math.lgamma(k - l + 1))
            assert log_binomial(k, l) == exact
            assert whole[l] == exact
        assert log_binomial(k, np.array(ls)).tolist() == [
            whole[l] for l in ls]


def test_log_binomial_checks_every_level():
    for levels in ([1, -1, 3], [1, 12, 3]):
        with pytest.raises(ValueError):
            log_binomial(10, np.array(levels))


def test_cold_level_sum_fills_sqrt_k_of_lgamma(monkeypatch):
    monkeypatch.setattr(exact_kernels, "_LGAMMA_BLOCKS", {})
    k = 10 ** 7
    z = level_point(0.5, 0.3)
    w = level_point(0.5 + 0.3 / math.sqrt(k), 1.1)
    assert not partial_coeff(SpectralConfig(k, 0.5), z, w).is_zero
    # a dense table would hold k + 3 entries
    assert sum(b.size for b in exact_kernels._LGAMMA_BLOCKS.values()) < 300000


def test_kernel_results_hold_python_floats():
    cfg = SpectralConfig(12, 0.5)
    z, w = level_point(0.4, 0.3), level_point(0.6, 1.1)
    results = [section_coeff(12, 5, z), equivariant_coeff(12, 6, z, w),
               bergman_coeff(12, z, w), bergman_coeff_closed(12, z, w),
               partial_coeff(cfg, z, w), propagator_coeff(cfg, 0.7, z, w),
               partial_via_hilbert(cfg, z, w),
               partial_coeff(SpectralConfig(12, 2.0), z, w)]
    results += vars(hilbert_route_terms(cfg, z, w)).values()
    for value in results:
        assert type(value.logmag) is float and type(value.phase) is float
    # a batch is two float64 arrays, one entry per point
    for batch in (section_coeff(12, 5, [z, w]), bergman_coeff(12, z, [z, w]),
                  bergman_coeff_closed(12, z, [z, w]),
                  partial_coeff(cfg, z, [z, w]),
                  propagator_coeff(cfg, 0.7, z, [z, w]),
                  equivariant_coeff(12, 6, z, [z, w])):
        assert type(batch) is tuple and len(batch) == 2
        for array in batch:
            assert type(array) is np.ndarray and array.dtype == np.float64
            assert array.shape == (2,)


# --- full kernel ------------------------------------------------------------

def test_bergman_diagonal_value():
    rng = np.random.default_rng(0)
    for k in (1, 7, 80, 800):
        p = rand_chart_point(rng)
        lc = bergman_coeff(k, p, p)
        expected = (k + 1) / (2 * math.pi)
        assert abs(lc.abs() - expected) <= 1e-10 * expected
        assert phase_distance(lc.phase, 0.0) <= 1e-10


def test_bergman_hand_value_k1():
    lc = bergman_coeff(1, ONE_ONE, ProjectivePoint(0, 1))
    assert abs(lc.to_complex() - 1 / (math.pi * math.sqrt(2))) <= 1e-14


def test_bergman_sum_matches_closed_form():
    # at large k the level sum is only representable where the kernel is
    # not exponentially small, i.e. for pairs with nearby arguments; the
    # closed form itself has no such restriction
    rng = np.random.default_rng(1)
    for k in (2, 20, 150):
        theta = rng.uniform(0, 2 * math.pi)
        z = level_point(rng.uniform(0.15, 0.85), theta)
        w = level_point(rng.uniform(0.15, 0.85),
                        theta + rng.uniform(-1, 1) / math.sqrt(k))
        assert logc_rel_difference(bergman_coeff(k, z, w),
                                   bergman_coeff_closed(k, z, w)) <= 1e-10


ANTIPODAL_PAIRS = [(ProjectivePoint(1, 1), ProjectivePoint(-1, 1)),
                   (ProjectivePoint(1j, 1), ProjectivePoint(-1j, 1)),
                   (ProjectivePoint(2, 1), ProjectivePoint(-0.5, 1))]


@pytest.mark.parametrize("z, w", ANTIPODAL_PAIRS,
                         ids=["1|-1", "i|-i", "2|-0.5"])
def test_closed_form_exact_zero_at_antipodal_points(z, w):
    # 1 + zeta conj(omega) = 0 exactly, while its log-polar form rounds to
    # about 1e-16: one point, a sequence and chart coordinates give (-inf, 0)
    zero = bits([LogComplex.zero()])
    assert bits([bergman_coeff_closed(12, z, w)]) == zero
    near = level_point(0.5, 0.2)
    for ws in ([w, near], np.array([w.affine(), near.affine()])):
        batch = bergman_coeff_closed(12, z, ws)
        assert batch_bits(batch)[0] == zero[0]
        assert batch[0][1] > -math.inf


def test_closed_form_near_antipode_stays_nonzero():
    # 3 * float(-1/3) rounds to -1, but 1 + 3 * float(-1/3) = 5.6e-17 exactly
    z, w = ProjectivePoint(3, 1), ProjectivePoint(-1 / 3, 1)
    assert 1 + 3 * (-1 / 3) == 0.0
    assert bergman_coeff_closed(12, z, w).logmag > -math.inf
    for ws in ([w], np.array([w.affine()])):
        assert bergman_coeff_closed(12, z, ws)[0][0] > -math.inf


def test_bergman_cauchy_schwarz():
    rng = np.random.default_rng(2)
    for k in (3, 25):
        z, w = rand_chart_point(rng), rand_chart_point(rng)
        lhs = bergman_coeff(k, z, w).abs()
        rhs = math.sqrt(bergman_coeff(k, z, z).abs()
                        * bergman_coeff(k, w, w).abs())
        assert lhs <= rhs * (1 + 1e-12)


def log_polar(batch):
    """A batch (logmag, phase) as one complex array of logmag + i*phase."""
    logmag, phase = batch
    return logmag + 1j * phase


def test_reproducing_property_small_k():
    # quadrature of kernel(z, .) against a section over the sphere in
    # (theta, H) coordinates returns the section value at z
    z = ProjectivePoint(0.7 + 0.3j, 1)
    n_theta, n_h = 64, 2049
    thetas = np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False)
    hs = np.linspace(0.0, 1.0, n_h)
    dh = hs[1] - hs[0]
    # trapezoid weights in H; the row at the north pole H = 1 is left out,
    # where the integrand -> 0 for l < k
    weights = np.full(n_h - 1, dh)
    weights[0] *= 0.5
    ws = [level_point(h, th) for h in hs[:-1] for th in thetas]
    for k in (4, 12):
        closed = log_polar(bergman_coeff_closed(k, z, ws))
        for l in (0, 1, k // 2):
            integrand = np.exp(closed + log_polar(section_coeff(k, l, ws)))
            rows = integrand.reshape(n_h - 1, n_theta).sum(axis=1)
            acc = (weights @ rows) * (2 * math.pi / n_theta)
            target = section_coeff(k, l, z).to_complex()
            assert abs(acc - target) <= 1e-4 * abs(target)


def bits(values):
    """(logmag, phase) of each LogComplex in values, as exact hex strings."""
    return [(float(v.logmag).hex(), float(v.phase).hex()) for v in values]


def batch_bits(batch):
    """bits of a batch, after checking that it is two 1-D float64 arrays of
    one length."""
    logmag, phase = batch
    assert logmag.dtype == phase.dtype == np.float64
    assert logmag.ndim == phase.ndim == 1 and logmag.size == phase.size
    return [(m.hex(), p.hex()) for m, p in zip(logmag.tolist(),
                                                phase.tolist())]


@pytest.mark.parametrize("k, energy, count", [
    (9, 0.4, 12), (9, 1.5, 12), (10 ** 4, 0.4, 200),
], ids=["k9", "empty-cut", "k1e4-two-chunks"])
def test_batched_calls_equal_per_point_calls(k, energy, count):
    # a batch row holds zeta = 0 (only level 0 lives) and |zeta| = 1e8; at
    # k = 10^4, 200 points span more than one chunk of level terms, which
    # also splits the chart-coordinate array form of the batch
    rng = np.random.default_rng(12)
    z = rand_chart_point(rng)
    ws = ([ORIGIN, ProjectivePoint(1e8, 1), ProjectivePoint(-1e8j, 1),
           ProjectivePoint(-1e8, 1)]
          + [rand_chart_point(rng) for _ in range(count - 4)])
    cfg = SpectralConfig(k, energy)
    l = min(max(cfg.cut_index, 0), k)
    assert k < 10 or count * (k + 1 - cfg.cut_index) > CHUNK_TERMS
    kernels = {
        "section": lambda w: section_coeff(k, l, w),
        "equivariant": lambda w: equivariant_coeff(k, l, z, w),
        "bergman": lambda w: bergman_coeff(k, z, w),
        "closed": lambda w: bergman_coeff_closed(k, z, w),
        "partial": lambda w: partial_coeff(cfg, z, w),
        "propagator": lambda w: propagator_coeff(cfg, 0.7, z, w),
    }
    # the same points as chart coordinates: every w here is [zeta:1]
    zetas = np.array([w.z0 for w in ws])
    assert all(w.z1 == 1 for w in ws)
    for name, kernel in kernels.items():
        assert batch_bits(kernel(ws)) == bits([kernel(w) for w in ws]), name
        assert batch_bits(kernel(zetas)) == batch_bits(kernel(ws)), name
        assert (batch_bits(kernel(tuple(ws[:2])))
                == batch_bits(kernel(ws[:2]))), name
        for empty in ([], np.array([], dtype=complex)):
            assert batch_bits(kernel(empty)) == [], name


@pytest.mark.parametrize("k", [10, 10 ** 3, 10 ** 5])
def test_level_sum_window_drops_only_exact_zeros(k):
    # each kernel's windowed level sum against the sum over every level of
    # its range, with cuts at, below and above each pair's mode, an empty
    # cut (E > 1) and nonpositive ones
    rng = np.random.default_rng(14)
    big, rand = ProjectivePoint(1e8, 1), rand_chart_point(rng, 0.02, 0.98)
    pairs = [(rand, ORIGIN), (ORIGIN, ORIGIN), (rand, big),
             (big, ProjectivePoint(-1e8j, 1)),
             (rand, rand_chart_point(rng, 0.02, 0.98)),
             (rand_chart_point(rng), rand_chart_point(rng))]
    dropped_levels = 0
    for z, w in pairs:
        z_aff, w_aff = (exact_kernels._log_affine([p]) for p in (z, w))
        s = z_aff[0] + w_aff[0]
        mode = float(k / (1.0 + np.exp(-s))[0])
        energies = [-0.3, 0.0, 1.2] + [(mode + d * math.sqrt(k)) / k
                                       for d in (-3.0, 0.0, 3.0)]
        for energy in energies:
            cfg = SpectralConfig(k, energy)
            for lo, kernel, t in [
                (cfg.cut_index, partial_coeff(cfg, z, w), None),
                (0, bergman_coeff(k, z, w), None),
                (0, propagator_coeff(cfg, 0.7, z, w), 0.7),
            ]:
                levels = np.arange(max(lo, 0), k + 1)
                logmag, phase = exact_kernels._pairs(k, levels, z_aff, w_aff)
                if t is not None:
                    phase = phase + (levels - cfg.cut_index) * t
                full = exact_kernels._level_sums(logmag, phase)
                assert bits([kernel]) == batch_bits(full), (z, w, energy, lo)
                kept = exact_kernels._window(k, max(lo, 0), s)
                dropped = logmag[0, ~np.isin(levels, kept)]
                dropped_levels += dropped.size
                top = logmag.max(initial=-math.inf)
                # a row without a live term is rescaled by 1, as in the sum
                scale = top if top > -math.inf else 0.0
                assert np.all(np.exp(dropped - scale) == 0.0)
    # the window reaches past both ends of every range at k = 10 only
    assert (dropped_levels > 0) == (k > 10)


# --- equivariant kernel -----------------------------------------------------

def test_equivariant_example_k1():
    lc = equivariant_coeff(1, 0, ONE_ONE, ONE_ONE)
    assert abs(lc.to_complex() - 1 / (2 * math.pi)) <= 1e-14


def test_equivariant_modulus_on_level_set():
    k, l, e = 30, 18, 0.6
    p = level_point(e, 1.1)
    lc = equivariant_coeff(k, l, p, p)
    expected = ((k + 1) / (2 * math.pi) * math.comb(k, l)
                * e ** l * (1 - e) ** (k - l))
    assert abs(lc.abs() - expected) <= 1e-11 * expected


def test_equivariant_rotation_covariance():
    k, l = 14, 9
    rng = np.random.default_rng(4)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    for t in (0.3, 2.9):
        rotated = equivariant_coeff(k, l, rotate(t, z), w)
        plain = equivariant_coeff(k, l, z, w)
        assert abs(rotated.logmag - plain.logmag) <= 1e-12
        assert phase_distance(rotated.phase, plain.phase + l * t) <= 1e-10


def test_batch_zeros_are_logcomplex_zero():
    # every exact zero of a batch is (-inf, 0.0), as LogComplex.zero(),
    # also where the phase arithmetic gives another angle, as for
    # kappa_{k,l}(0) = 0 times conj(kappa_{k,l}(w)) with w off the real axis
    ws = [level_point(0.3, 1.1), ProjectivePoint(-1, 1), ORIGIN]
    zero = bits([LogComplex.zero()])
    assert batch_bits(equivariant_coeff(12, 5, ORIGIN, ws)) == zero * 3
    assert batch_bits(section_coeff(12, 5, ws))[2:] == zero
    assert batch_bits(partial_coeff(SpectralConfig(12, 2.0), ONE_ONE,
                                    ws)) == zero * 3


# --- partial kernel ---------------------------------------------------------

def test_partial_zero_energy_equals_bergman():
    rng = np.random.default_rng(5)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    cfg = SpectralConfig(17, 0.0)
    a = partial_coeff(cfg, z, w)
    b = bergman_coeff(17, z, w)
    assert a.logmag == b.logmag and a.phase == b.phase


def test_partial_above_top_is_exact_zero():
    cfg = SpectralConfig(9, 1.25)
    assert partial_coeff(cfg, ONE_ONE, ONE_ONE).is_zero


def test_partial_hand_sum_k4():
    cfg = SpectralConfig(4, 0.5)
    lc = partial_coeff(cfg, ONE_ONE, ONE_ONE)
    assert abs(lc.to_complex() - 55 / (32 * math.pi)) <= 1e-14


def test_partial_rotation_equivariance_modulus():
    rng = np.random.default_rng(6)
    cfg = SpectralConfig(60, 0.45)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    base = partial_coeff(cfg, z, w)
    for t in (0.9, 4.2):
        moved = partial_coeff(cfg, rotate(t, z), rotate(t, w))
        assert abs(moved.logmag - base.logmag) <= 1e-10


def test_kernels_hermitian_symmetry():
    rng = np.random.default_rng(7)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    cfg = SpectralConfig(33, 0.4)
    for fwd, bwd in [
        (bergman_coeff(33, z, w), bergman_coeff(33, w, z)),
        (partial_coeff(cfg, z, w), partial_coeff(cfg, w, z)),
        (equivariant_coeff(33, 20, z, w), equivariant_coeff(33, 20, w, z)),
    ]:
        assert abs(fwd.logmag - bwd.logmag) <= 1e-12
        assert phase_distance(fwd.phase, -bwd.phase) <= 1e-12


# --- propagator and the Hilbert route ---------------------------------------

def test_propagator_at_zero_and_period():
    cfg = SpectralConfig(11, 0.3)
    rng = np.random.default_rng(8)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    full = bergman_coeff(11, z, w)
    for t in (0.0, 2 * math.pi):
        assert logc_rel_difference(propagator_coeff(cfg, t, z, w),
                                   full) <= 1e-12


def test_propagator_hand_sum_k2():
    # k = 2, E = 0.5 (cut 1), z = w = [1:1], t = pi:
    # (3/2pi) * (1/4) * (e^{-i pi} + e^{0} * 2 + e^{i pi}) ... levels
    # l = 0,1,2 with weights C(2,l)/4 and phases e^{i pi (l-1)}
    cfg = SpectralConfig(2, 0.5)
    val = propagator_coeff(cfg, math.pi, ONE_ONE, ONE_ONE).to_complex()
    expected = 3 / (2 * math.pi) * 0.25 * (cmath.exp(-1j * math.pi)
                                           + 2 + cmath.exp(1j * math.pi))
    assert abs(val - expected) <= 1e-14


def test_propagator_diagonal_magnitude_only_at_full_rotation():
    cfg = SpectralConfig(8, 0.25)
    p = ONE_ONE
    full = (8 + 1) / (2 * math.pi)
    assert abs(propagator_coeff(cfg, 0.0, p, p).abs() - full) <= 1e-12
    assert propagator_coeff(cfg, 1.2, p, p).abs() < full


def test_hilbert_route_hand_sum_k4():
    cfg = SpectralConfig(4, 0.5)
    lc = partial_via_hilbert(cfg, ONE_ONE, ONE_ONE)
    assert abs(lc.to_complex() - 55 / (32 * math.pi)) <= 1e-12


def test_hilbert_route_zero_energy_reproduces_bergman():
    rng = np.random.default_rng(9)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    cfg = SpectralConfig(10, 0.0)
    for a in (z, ORIGIN):
        assert logc_rel_difference(partial_via_hilbert(cfg, a, w),
                                   bergman_coeff(10, a, w)) <= 1e-11


def test_hilbert_route_mean_term_is_equivariant():
    rng = np.random.default_rng(10)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    cfg = SpectralConfig(12, 0.35)
    terms = hilbert_route_terms(cfg, z, w)
    target = equivariant_coeff(12, cfg.cut_index, z, w)
    assert logc_rel_difference(terms.mean_term, target) <= 1e-11


@pytest.mark.parametrize("energy", [-0.25, 0.4, 1.0])
@pytest.mark.parametrize("nodes", [56, 61, 100])
def test_hilbert_route_matches_nodewise_propagator_assembly(nodes, energy):
    # the FFT-evaluated quadrature must agree with an explicit midpoint sum
    # of propagator_coeff calls: node counts at the minimum 8(k+1), odd and
    # larger, and cuts below the spectrum (-1), inside it (3) and at k (6)
    cfg = SpectralConfig(6, energy)
    rng = np.random.default_rng(11)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    h = 2 * math.pi / nodes
    mean = sum(propagator_coeff(cfg, -math.pi + (j + 0.5) * h, z, w)
               .to_complex() for j in range(nodes)) / nodes
    hh = math.pi / nodes
    hil = sum((propagator_coeff(cfg, -(j + 0.5) * hh, z, w).to_complex()
               - propagator_coeff(cfg, (j + 0.5) * hh, z, w).to_complex())
              / math.tan(0.5 * (j + 0.5) * hh)
              for j in range(nodes)) * hh / (2 * math.pi)
    full = bergman_coeff(6, z, w).to_complex()
    assembled = 0.5 * (1j * hil + full + mean)
    direct = partial_via_hilbert(cfg, z, w, nodes).to_complex()
    assert abs(assembled - direct) <= 1e-12 * abs(direct)


@pytest.mark.parametrize("k", [4, 20, 80])
def test_hilbert_route_identity_random_band_pairs(k):
    # pairs drawn in the 1/sqrt(k) height band around the cut keep the
    # quadrature's cancellation bounded, so the exact identity is testable
    # at full relative precision
    rng = np.random.default_rng(100 + k)
    cfg = SpectralConfig(k, 0.5)
    for _ in range(6):
        z = level_point(min(max(0.5 + rng.uniform(-1, 1) / math.sqrt(k), 0.05), 0.95),
                        rng.uniform(0, 2 * math.pi))
        w = level_point(min(max(0.5 + rng.uniform(-1, 1) / math.sqrt(k), 0.05), 0.95),
                        rng.uniform(0, 2 * math.pi))
        direct = partial_coeff(cfg, z, w)
        assembled = partial_via_hilbert(cfg, z, w)
        assert logc_rel_difference(direct, assembled) <= 1e-9


@pytest.mark.parametrize("energy, z, w", [
    (1.5, level_point(0.4, 0.2), level_point(0.6, 1.0)),
    (0.5, ORIGIN, level_point(0.5, 1.0)),
    (1.0, ORIGIN, ORIGIN),
], ids=["empty-cut", "origin-cut-5", "origin-pair-cut-9"])
def test_hilbert_route_exact_zero_where_level_sum_is_zero(energy, z, w):
    # a cut above the top level, or zeta = 0 (only level 0 live) under a
    # cut >= 1: the level sum is the exact zero, and the assembly and its
    # mean term must be too, not rounding noise
    cfg = SpectralConfig(9, energy)
    terms = hilbert_route_terms(cfg, z, w)
    assert partial_coeff(cfg, z, w).is_zero
    assert terms.value.is_zero and terms.mean_term.is_zero


def test_hilbert_route_node_starvation():
    cfg = SpectralConfig(5, 0.5)
    with pytest.raises(NodeCountError, match="48"):
        partial_via_hilbert(cfg, ONE_ONE, ONE_ONE, nodes=30)


# --- quantized height diagonal ----------------------------------------------

def test_toeplitz_diag_beta_integral_oracle():
    # <H s, s> for k = 1, l = 0 by direct quadrature over the sphere
    n_h = 4001
    hs = np.linspace(0.0, 1.0, n_h)
    vals = []
    for h in hs:
        if h == 1.0:
            vals.append(0.0)
            continue
        w = level_point(h, 0.0)
        vals.append(h * section_coeff(1, 0, w).abs() ** 2)
    integral = np.trapezoid(vals, hs) * 2 * math.pi
    assert abs(integral - 1.0 / 3.0) <= 1e-5
    assert abs(toeplitz_diag(1, 0) - 1.0 / 3.0) <= 1e-15


def test_toeplitz_corrected_identity_exact():
    for k in range(1, 51):
        for l in range(0, k + 1):
            corrected = (k + 2) / k * toeplitz_diag(k, l) - 1.0 / k
            assert abs(corrected - l / k) <= 1e-12


def test_toeplitz_top_level():
    for k in (1, 10, 50):
        assert abs(toeplitz_diag(k, k) - (k + 1) / (k + 2)) <= 1e-15
        assert toeplitz_diag(k, k) < 1.0
