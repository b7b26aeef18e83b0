import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbklab import exact_kernels
from pbklab.circle_spectral import SpectralConfig, hilbert_node_count
from pbklab.cp1_geometry import (ChartError, ProjectivePoint, level_point,
                                 rotate)
from pbklab.exact_kernels import (CHUNK_TERMS, LogComplex, bergman_coeff,
                                  bergman_coeff_closed, equivariant_coeff,
                                  hilbert_route_terms, log_binomial,
                                  logc_rel_difference,
                                  partial_coeff, partial_via_hilbert,
                                  section_coeff, toeplitz_diag)
from pbklab.harness import ExperimentConfig, run_experiment

ONE_ONE = ProjectivePoint(1, 1)
ORIGIN = ProjectivePoint(0, 1)


def rand_chart_point(rng, lo=0.15, hi=0.85):
    h = rng.uniform(lo, hi)
    return level_point(h, rng.uniform(0, 2 * math.pi))


def phase_distance(a, b):
    return abs(cmath.exp(1j * a) - cmath.exp(1j * b))


# --- level sums -------------------------------------------------------------

def level_sums(logmag, phase):
    """Each row of terms exp(logmag + i*phase) summed, as the arrays
    (logmag, phase) of the row sums, by the kernels' own two steps."""
    return exact_kernels._lift(*exact_kernels._rescaled_sums(logmag, phase))


def test_level_sums_huge_dynamic_range():
    # terms e^5000 and e^-5000: the sum is the top term to the last bit
    logmag, phase = level_sums(np.array([[5000.0, -5000.0]]),
                               np.zeros((1, 2)))
    assert abs(logmag[0] - 5000.0) < 1e-12 and phase[0] == 0.0


def test_level_sums_empty_and_dead_rows():
    # a row without terms, or with dead terms only, is the exact zero; a
    # dead term adds nothing to a live one
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


def test_level_sum_memory_per_term():
    # one k = 80 grid row, 121 points x 41 levels: at its peak the level
    # sum holds about five doubles a term, 43.7 bytes a term traced (the
    # pair logmags and phases, the stacked real and imaginary parts, and
    # the first stage's high parts for half the block at a time); with the
    # high parts of the whole block at once it took 52
    cfg = SpectralConfig(80, 0.5)
    axis = np.linspace(-1.6, 1.6, 121)
    zetas = axis.astype(complex)
    zetas.imag = axis[30]
    z = ProjectivePoint(1.0, 1.0)
    partial_coeff(cfg, z, zetas)
    tracemalloc.start()
    try:
        partial_coeff(cfg, z, zetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 47 * 121 * 41


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
    # a sigma of 2^1025 would overflow: the first stage is skipped
    ([1.7e308, -1.7e308, 1e292], 1e292),
], ids=["tie-up", "tie-down", "cancel-1e-16", "cancel-2^-60",
        "residual-tie", "sigma-binade", "subnormal-zero", "subnormal",
        "negative-zero", "negative-zeros", "signed-zeros", "single",
        "empty", "sigma-overflow"])
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


# chart coordinates and complex values at the edges of the map rewrites:
# zero with either sign in either part, points on the axes, subnormal and
# 1e+-300 parts
EDGE_VALUES = [complex(r, i) for r, i in [
    (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (2.5, 0.0), (-2.5, 0.0), (2.5, -0.0), (-2.5, -0.0),
    (0.0, 0.75), (-0.0, 0.75), (0.0, -0.75), (-0.0, -0.75),
    (5e-324, 0.0), (-0.0, 5e-324), (5e-324, -5e-324), (2.2e-308, 1e-310),
    (1e300, 0.0), (-1e300, 1e300), (0.0, -1e300), (1e-300, 0.0),
    (-1e-300, -1e-300), (1e300, 1e-300), (1e-300, 1e300), (1.0, 1.0),
    (1e154, 1e154), (1.7e308, 0.0), (0.0, -1.7e308)]]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_row_sums_skip_the_first_stage_on_a_non_finite_block(bad):
    # np.frexp of a NaN or infinite block maximum gives the exponent 0, so
    # a sigma taken from it would be too small for the block's other rows:
    # the four terms near -2 then split off exactly, but their partial sums
    # round (the sigma-binade case).  Such a block skips the first stage
    near_two = [-(2 - 2.0 ** -51), -(2 - 3 * 2.0 ** -51), -(2 - 2.0 ** -51),
                -(2 - 5 * 2.0 ** -51)]
    got, want = row_sum_hex([[bad, 0.0, 1.0, 0.0], near_two])
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
    # the edge values: axes, subnormal and 1e+-300 parts
    edges = len(EDGE_VALUES)
    re[6:6 + edges] = [v.real for v in EDGE_VALUES]
    im[6:6 + edges] = [v.imag for v in EDGE_VALUES]
    top = rng.uniform(-50, 50, 2000)
    want = [LogComplex.from_complex(complex(r, i))
            for r, i in zip(re.tolist(), im.tolist())]
    assert batch_bits(exact_kernels._lift(top, re, im)) == bits(
        [LogComplex(t + w.logmag, w.phase)
         for t, w in zip(top.tolist(), want)])


def test_log_affine_batch_matches_projective_point():
    # the array path maps math.log and math.atan2 over np.hypot; it gives
    # ProjectivePoint.log_affine's bits for [zeta:1], sign of zero included
    rng = np.random.default_rng(8)
    zetas = EDGE_VALUES + [complex(*v) for v in (
        rng.standard_normal((500, 2)) * np.exp(rng.uniform(-690, 690,
                                                           (500, 1))))]
    logabs, arg = exact_kernels._log_affine(np.array(zetas))
    want = [ProjectivePoint(v, 1).log_affine() for v in zetas]
    got = list(zip(logabs.tolist(), arg.tolist()))
    assert [(a.hex(), b.hex()) for a, b in got] == [
        (a.hex(), b.hex()) for a, b in want]
    # and the sequence path reads the same points the same way
    assert np.array_equal(exact_kernels._log_affine(
        [ProjectivePoint(v, 1) for v in zetas]), np.array([logabs, arg]))


@pytest.mark.parametrize("k", [1, 80, 2000, 10 ** 9])
def test_section_lead_matches_scalar_formula(k):
    # the (1+|zeta|^2)^{-k/2} lead, computed by mapping math.exp and
    # math.log1p over the points, against the scalar formula per point;
    # levels without level 0 take np.multiply.outer for l log|zeta|, with
    # the same bits as the masked product that keeps zeta^0 = 1 at zeta = 0
    rng = np.random.default_rng(9)
    zetas = EDGE_VALUES[:-2] + [complex(*v) for v in (
        rng.standard_normal((200, 2)) * np.exp(rng.uniform(-300, 300,
                                                           (200, 1))))]
    logabs, arg = exact_kernels._log_affine(np.array(zetas))

    def lead(a):
        if a == -math.inf:
            return -0.5 * k * 0.0
        if a > 0:
            return -0.5 * k * (2.0 * a + math.log1p(math.exp(-2.0 * a)))
        return -0.5 * k * math.log1p(math.exp(2.0 * a))
    levels = np.arange(0, min(k, 3) + 1)
    binom = log_binomial(k, levels)
    logmag, phase = exact_kernels._sections(k, levels, binom, logabs, arg)
    base = 0.5 * (math.log(k + 1.0) + binom[0] - exact_kernels.LOG_2PI)
    assert [v.hex() for v in logmag[:, 0].tolist()] == [
        ((lead(a) + base) + 0.0).hex() for a in logabs.tolist()]
    rest, rest_phase = exact_kernels._sections(k, levels[1:], binom[1:],
                                               logabs, arg)
    assert np.array_equal(rest, logmag[:, 1:])
    assert np.array_equal(rest_phase, phase[:, 1:])


def test_heatmap_grid_sums_rarely_reach_fsum(monkeypatch, tmp_path):
    # a k = 80 heatmap: the first stage of its row sums, one extraction at
    # one sigma for the whole block, certifies all but a few rows; only
    # those take a per-row extraction (_extract), and they go on to
    # math.fsum only where that certificate rejects them too, on fewer
    # than 1% of its cells
    seen = {"rows": 0, "open": 0, "fsum": 0}

    def count(key, call, size):
        def counted(x, *args):
            seen[key] += size(x)
            return call(x, *args)
        return counted
    monkeypatch.setattr(exact_kernels, "_row_sums",
                        count("rows", exact_kernels._row_sums, len))
    monkeypatch.setattr(exact_kernels, "_extract",
                        count("open", exact_kernels._extract, len))
    monkeypatch.setattr(math, "fsum", count("fsum", math.fsum, lambda _: 1))
    cfg = ExperimentConfig(experiment="heatmap", kind="partial", k=80,
                           e=0.5, grid_n=81, out=str(tmp_path / "h.csv"))
    assert run_experiment(cfg).exit_code == 0
    # the real and the imaginary part of every cell
    assert seen["rows"] == 2 * 81 * 81
    assert seen["open"] < 0.01 * seen["rows"]
    assert seen["fsum"] < 0.01 * 81 * 81


@st.composite
def mixed_blocks(draw):
    """A block of rows of n in {1, 2^m, 2^m + 1} terms, each row of its own
    kind and scale (so rows far below the block's largest term share its
    sigma), and a tail of None, one bound or one bound per row."""
    m = draw(st.integers(0, 7))
    n = draw(st.sampled_from([1, 2 ** m, 2 ** m + 1]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["scaled", "cancelling", "zeros",
                                     "subnormal"]))
        if kind == "zeros":
            row = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                                max_size=n))
        elif kind == "subnormal":
            row = [i * 5e-324 for i in draw(st.lists(
                st.integers(-2 ** 20, 2 ** 20), min_size=n, max_size=n))]
        else:
            scale = 2.0 ** draw(st.integers(-1060, 1000))
            row = [v * scale for v in draw(st.lists(
                st.floats(-1.0, 1.0), min_size=n, max_size=n))]
            if kind == "cancelling":
                # the row's first half, then its negation, nudged by an ulp
                half = row[:(n + 1) // 2]
                nudge = draw(st.sampled_from([0.0, 1.0, -1.0]))
                row = half + [-math.nextafter(v, nudge * math.inf)
                              if nudge else -v for v in half][:n // 2]
        rows.append(row)
    bounds = st.sampled_from([0.0, 5e-324, 1e-300, 2.0 ** -60, 1e-20, 1.0])
    tail = draw(st.one_of(st.none(), bounds,
                          st.lists(bounds, min_size=len(rows),
                                   max_size=len(rows))))
    return rows, tail


@given(mixed_blocks())
def test_row_sums_on_mixed_blocks_equal_fsum_bitwise(drawn):
    # whether the first stage certifies a row or leaves it to the per-row
    # extraction and math.fsum, the value is fsum's; a row with a tail t
    # comes back NaN or as the correctly rounded sum of the row with any
    # left-out terms up to t, so fsum's with t and with -t added as well
    rows, tail = drawn
    got = exact_kernels._row_sums(np.array(rows, dtype=float).reshape(
        len(rows), -1), None if tail is None else np.array(tail))
    tails = [0.0] * len(rows) if tail is None else (
        tail if isinstance(tail, list) else [tail] * len(rows))
    for row, t, r in zip(rows, tails, got.tolist()):
        if t and math.isnan(r):
            continue
        assert {r.hex(), math.fsum(row).hex(), math.fsum(row + [t]).hex(),
                math.fsum(row + [-t]).hex()} == {r.hex()}


def test_row_sums_first_stage_bound_covers_sequential_rounding():
    # numpy sums a row of a Fortran-ordered block one term after another.
    # The row holds 1, -1 and 2^7 M, which the first stage splits off
    # exactly (n = 63 terms, m = 6, 2^e = 2 and M = 2^(e+m-53) = 2^-46),
    # and then residuals p < M, each picked so that the running float sum
    # of the p rounds up by nearly half an ulp.  That float sum t2 then
    # exceeds the exact sum by more than half the gap of r = 2^7 M + t2,
    # which TwoSum finds exact: a bound of 2n eps M would certify r, and
    # only the a priori gamma_{n-1} n M sends the row on
    n, big = 63, 2.0 ** -46
    ulp = big * exact_kernels.EPS

    def rounding(a, b):
        # a + b - fl(a + b), exactly (TwoSum)
        t = a + b
        bb = t - a
        return (a - (t - bb)) + (b - bb)
    residuals, t2 = [], 0.0
    for i in range(n - 3):
        picks = [big - j * ulp for j in range(1, 200)]
        if i == n - 4:
            picks = [v for v in picks if rounding(128 * big, t2 + v) == 0.0]
        pick = min(picks, key=lambda v: rounding(t2, v))
        residuals.append(pick)
        t2 += pick
    assert math.fsum([t2] + [-v for v in residuals]) > 2 ** 7 * ulp
    row = [1.0, -1.0, 128 * big] + residuals
    got = exact_kernels._row_sums(np.asfortranarray([row]))
    assert got[0].hex() == math.fsum(row).hex()


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


def test_one_index_lgamma_reads_fill_no_block(monkeypatch):
    # ln Gamma(k + 1) and a one-level section coefficient's reads are single
    # indices: math.lgamma gives them, the value a block would hold, and
    # no block is filled for them
    monkeypatch.setattr(exact_kernels, "_LGAMMA_BLOCKS", {})
    k, size = 10 ** 6, exact_kernels.LGAMMA_BLOCK
    z = level_point(0.5, 0.3)
    assert not partial_coeff(SpectralConfig(k, 0.5), z, z).is_zero
    filled = set(exact_kernels._LGAMMA_BLOCKS)
    assert filled and (k + 1) // size not in filled
    levels = np.arange(k // 2 - 2000, k // 2 + 2000, 37)
    assert log_binomial(k, levels).tolist() == [
        math.lgamma(k + 1) - math.lgamma(l + 1) - math.lgamma(k - l + 1)
        for l in levels.tolist()]
    l = k // 3
    assert not section_coeff(k, l, z).is_zero
    assert log_binomial(k, l) == (math.lgamma(k + 1) - math.lgamma(l + 1)
                                  - math.lgamma(k - l + 1))
    assert set(exact_kernels._LGAMMA_BLOCKS) == filled


def test_kernel_results_hold_python_floats():
    cfg = SpectralConfig(12, 0.5)
    z, w = level_point(0.4, 0.3), level_point(0.6, 1.1)
    results = [section_coeff(12, 5, z), equivariant_coeff(12, 6, z, w),
               bergman_coeff(12, z, w), bergman_coeff_closed(12, z, w),
               partial_coeff(cfg, z, w), partial_via_hilbert(cfg, z, w),
               partial_coeff(SpectralConfig(12, 2.0), z, w)]
    results += vars(hilbert_route_terms(cfg, z, w)).values()
    for value in results:
        assert type(value.logmag) is float and type(value.phase) is float
    # a batch is two float64 arrays, one entry per point
    for batch in (section_coeff(12, 5, [z, w]), bergman_coeff(12, z, [z, w]),
                  bergman_coeff_closed(12, z, [z, w]),
                  partial_coeff(cfg, z, [z, w]),
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


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                 complex(0.5, math.inf)])
def test_batch_refuses_non_finite_chart_coordinates(bad):
    # a NaN zeta used to reach math.floor in _window and raise "cannot
    # convert float NaN to integer"; every kernel now names the coordinate
    z = level_point(0.5, 0.3)
    ws = np.array([0.5 + 0.1j, bad])
    calls = [lambda: partial_coeff(SpectralConfig(10, 0.5), z, ws),
             lambda: equivariant_coeff(10, 5, z, ws),
             lambda: bergman_coeff(10, z, ws),
             lambda: bergman_coeff_closed(10, z, ws),
             lambda: section_coeff(10, 3, ws)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=re.escape(f"chart coordinate {bad} is not "
                                           f"finite")):
            call()


def test_batch_refuses_a_chart_coordinate_whose_modulus_overflows():
    # |zeta| = 2.4e308 overflows: abs(zeta) raised OverflowError, and
    # np.hypot gives inf, which would have come back as a NaN sum.  A
    # ProjectivePoint with such a coordinate is refused when it is built
    z = level_point(0.5, 0.3)
    bad = complex(1.7e308, 1.7e308)
    calls = [lambda ws: partial_coeff(SpectralConfig(10, 0.5), z, ws),
             lambda ws: equivariant_coeff(10, 5, z, ws),
             lambda ws: bergman_coeff(10, z, ws),
             lambda ws: bergman_coeff_closed(10, z, ws),
             lambda ws: section_coeff(10, 3, ws)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(
                f"chart coordinate {bad} has a modulus that overflows")):
            call(np.array([0.5 + 0.1j, bad]))
    # a finite modulus near the top of the range is still read
    assert math.isfinite(section_coeff(10, 3, np.array([1.7e308]))[0][0])


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


@pytest.mark.parametrize("omega, logmag, phase", [
    (-1 / 3, -462.8799743637036010947332, 0.0),
    (complex(-1 / 3, 1e-17), -461.3425161951431923096311,
     -5.945611647904854478895536),
], ids=["real", "complex"])
def test_closed_form_near_antipode_keeps_its_digits(omega, logmag, phase):
    # 1 + 3 conj(omega) is 2^-54 (real case), far below the rounding of
    # its log-polar form; the references are mpmath's at 50 digits on the
    # same floats
    z, w = ProjectivePoint(3, 1), ProjectivePoint(omega, 1)
    point = bergman_coeff_closed(12, z, w)
    assert abs(point.logmag - logmag) <= 1e-14 * abs(logmag)
    assert abs(point.phase - phase) <= 1e-13
    for ws in ([w, ONE_ONE], np.array([omega, 1.0 + 0j])):
        batch = bergman_coeff_closed(12, z, ws)
        assert batch_bits(batch)[0] == bits([point])[0]


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
            for lo, kernel in [(cfg.cut_index, partial_coeff(cfg, z, w)),
                               (0, bergman_coeff(k, z, w))]:
                levels = np.arange(max(lo, 0), k + 1)
                logmag, phase = exact_kernels._pairs(k, levels, z_aff, w_aff)
                full = level_sums(logmag, phase)
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


# --- the certified narrow window -------------------------------------------

def fsum_reference(k, lo, z, ws):
    """bits of the level sums over every level lo..k, each part summed by
    math.fsum over the same float terms the kernels make."""
    levels = np.arange(max(lo, 0), k + 1)
    z_aff = exact_kernels._log_affine([z])
    out = []
    for w in ws:
        logmag, phase = (a[0] for a in exact_kernels._pairs(
            k, levels, z_aff, exact_kernels._log_affine([w])))
        top = logmag.max(initial=-math.inf)
        mags = np.exp(logmag - (top if top > -math.inf else 0.0))
        re = math.fsum((mags * np.cos(phase)).tolist())
        im = math.fsum((mags * np.sin(phase)).tolist())
        out += batch_bits(exact_kernels._lift(np.array([top]),
                                              np.array([re]),
                                              np.array([im])))
    return out


@pytest.fixture
def attempts(monkeypatch):
    """Per chunk summed over the narrow window: the rows it took and the
    rows its certificate left open, which then took the proven window."""
    seen = []
    rescaled_sums = exact_kernels._rescaled_sums

    def spy(logmag, phase, tail_re=None, tail_im=None):
        top, re, im = rescaled_sums(logmag, phase, tail_re, tail_im)
        if tail_re is not None:
            seen.append((re.size, int(np.sum(np.isnan(re) | np.isnan(im)))))
        return top, re, im
    monkeypatch.setattr(exact_kernels, "_rescaled_sums", spy)
    return seen


def band_point(rng, k, energy=0.5, theta=0.3):
    return level_point(energy + rng.uniform(-1, 1) / math.sqrt(k),
                       theta + rng.uniform(-2, 2) / math.sqrt(k))


@pytest.mark.parametrize("k", [10 ** 3, 10 ** 4, 10 ** 5])
def test_narrow_window_rows_that_pass(k, attempts):
    # band pairs hardly cancel: every row passes on the narrow window
    rng = np.random.default_rng(31)
    z = band_point(rng, k)
    ws = [band_point(rng, k) for _ in range(6)]
    cfg = SpectralConfig(k, 0.5)
    assert (batch_bits(partial_coeff(cfg, z, ws))
            == fsum_reference(k, cfg.cut_index, z, ws))
    assert batch_bits(bergman_coeff(k, z, ws)) == fsum_reference(k, 0, z, ws)
    assert attempts == [(6, 0), (6, 0)]


@pytest.mark.parametrize("k", [10 ** 4, 10 ** 5])
def test_narrow_window_rows_that_fail_take_the_proven_window(k, attempts):
    # an off-orbit pair's sum cancels far below its top term, beyond what
    # the tail bound allows, so its row is summed over the proven window
    z, w = level_point(0.5, 0.3), level_point(0.62, 1.4)
    cfg = SpectralConfig(k, 0.5)
    for lo, value in ((cfg.cut_index, partial_coeff(cfg, z, w)),
                      (0, bergman_coeff(k, z, w))):
        assert bits([value]) == fsum_reference(k, lo, z, [w])
    assert attempts == [(1, 1), (1, 1)]


@pytest.mark.parametrize("k", [10 ** 3, 10 ** 5])
def test_narrow_window_diagonal_rows_have_no_imaginary_tail(k, attempts):
    # at w = z every phase is exactly 0.0, so the imaginary sum is exactly
    # 0.0 over any window; a tail bound on it would leave every diagonal
    # row open, so its bound is 0
    z = level_point(0.3, 2.1)
    for energy in (0.2, 0.3, 0.45):
        cfg = SpectralConfig(k, energy)
        value = partial_coeff(cfg, z, z)
        assert value.phase == 0.0
        assert bits([value]) == fsum_reference(k, cfg.cut_index, z, [z])
    assert attempts == [(1, 0)] * 3
    tail = exact_kernels._tail_bound(k)
    assert math.isnan(exact_kernels._row_sums(np.zeros((1, 5)), tail)[0])


def test_narrow_window_exact_zero_rows(attempts):
    # zeta = 0 with the cut above level 0: every term is dead, and the
    # row, left open by the tail bound, is the exact zero either way
    k = 10 ** 4
    z = level_point(0.5, 0.3)
    cfg = SpectralConfig(k, 0.5)
    zero = bits([LogComplex.zero()])
    assert bits([partial_coeff(cfg, ORIGIN, z)]) == zero
    assert fsum_reference(k, cfg.cut_index, ORIGIN, [z]) == zero
    assert attempts == [(1, 1)]
    # an empty cut evaluates no level at all
    assert bits([partial_coeff(SpectralConfig(k, 1.2), z, z)]) == zero
    assert attempts == [(1, 1)]


def test_narrow_window_chunks_mix_passing_and_open_rows(attempts):
    # 240 points at k = 10^4 span two chunks; each chunk holds band points,
    # which pass, and off-orbit ones, which take the proven window
    k = 10 ** 4
    rng = np.random.default_rng(35)
    z = level_point(0.5, 0.3)
    ws = []
    for i in range(240):
        ws.append(z if i % 3 == 0 else band_point(rng, k) if i % 3 == 1
                  else level_point(0.5 + rng.uniform(0.05, 0.1),
                                   rng.uniform(0, 2 * math.pi)))
    cfg = SpectralConfig(k, 0.5)
    assert len(ws) * (k + 1 - cfg.cut_index) > CHUNK_TERMS
    assert (batch_bits(partial_coeff(cfg, z, ws))
            == fsum_reference(k, cfg.cut_index, z, ws))
    assert len(attempts) == 2
    assert all(0 < open_rows < rows for rows, open_rows in attempts)


@pytest.mark.parametrize("k", [10, 50, 10 ** 3, 10 ** 4, 10 ** 5])
def test_tail_bound_covers_the_mass_outside_the_narrow_window(k):
    # the summed rescaled magnitudes of every level outside a row's narrow
    # window, for modes inside, at and beyond the ends of lo..k
    tail = exact_kernels._tail_bound(k)
    worst = 0.0
    for s in (-6.0, -1.0, 0.0, 0.4, 3.0):
        z = ProjectivePoint(math.exp(s / 2), 1)
        z_aff = exact_kernels._log_affine([z])
        mode = k / (1.0 + math.exp(-s))
        for lo in {0, int(mode * 0.9), int(mode),
                   min(int(mode + 2 * math.sqrt(k)), k), k}:
            levels = np.arange(lo, k + 1)
            logmag = exact_kernels._pairs(k, levels, z_aff, z_aff)[0][0]
            mags = np.exp(logmag - logmag.max())
            narrow = exact_kernels._window(k, lo, np.array([s]),
                                           exact_kernels.NARROW_GAP)
            outside = math.fsum(mags[~np.isin(levels, narrow)].tolist())
            assert outside <= tail, (s, lo)
            worst = max(worst, outside)
    # the narrow window reaches past both ends of 0..k at k = 10 only
    assert (worst > 0) == (k > 10)


@pytest.mark.parametrize("k, band, narrow", [
    (80, False, False), (400, False, False), (1000, True, True),
    (10 ** 5, True, True),
], ids=["k80-grid", "k400-grid", "k1000-band", "k1e5-band"])
def test_narrow_window_only_where_its_hull_is_at_most_half(k, band, narrow,
                                                           attempts):
    # a row of heatmap cells around the orbit keeps the proven window, as
    # at the heatmaps' k = 80 and 400: the narrow hull holds more than half
    # its levels; band pairs take the narrow one
    rng = np.random.default_rng(37)
    z = level_point(0.5, 0.0)
    ws = ([band_point(rng, k, theta=0.0) for _ in range(4)] if band
          else [ProjectivePoint(complex(x, 0.4), 1)
                for x in np.linspace(-2.0, 2.0, 81).tolist()])
    cfg = SpectralConfig(k, 0.5)
    s = (exact_kernels._log_affine([z])[0]
         + exact_kernels._log_affine(ws)[0])
    proven = exact_kernels._window(k, cfg.cut_index, s)
    hull = exact_kernels._window(k, cfg.cut_index, s,
                                 exact_kernels.NARROW_GAP)
    assert (2 * hull.size <= proven.size) == narrow
    partial_coeff(cfg, z, ws)
    assert bool(attempts) == narrow


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


# --- the Hilbert route -------------------------------------------------------

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


@pytest.mark.parametrize("energy", [-0.25, 0.4, 1.0, -3.0])
@pytest.mark.parametrize("nodes", [None, 56, 61, 100])
def test_hilbert_route_matches_nodewise_propagator_assembly(nodes, energy,
                                                            monkeypatch):
    # the FFT-evaluated quadrature must agree with an explicit midpoint sum
    # of the shifted propagator sum_l e^{it(l - c)} kappa_l(z)
    # conj(kappa_l(w)), built here from section_coeff: at the route's own
    # node count (None), and
    # at counts put in place of it, odd and larger; cuts below the spectrum
    # (-1), inside it (3), at k (6), and far below it (-18).  The route
    # moves the far cut to -1, with the node count of -1; the nodewise sum
    # is taken at the moved cut too, here E = -1/6, since at -18 its
    # frequencies 18..24 would alias on the route's own count
    cfg = SpectralConfig(6, energy)
    rng = np.random.default_rng(11)
    z, w = rand_chart_point(rng), rand_chart_point(rng)
    counts = []

    def rule(spectrum, cut):
        counts.append(nodes or hilbert_node_count(spectrum, cut))
        return counts[-1]

    monkeypatch.setattr(exact_kernels, "hilbert_node_count", rule)
    direct = partial_via_hilbert(cfg, z, w).to_complex()
    nodes = counts[0]
    cfg = SpectralConfig(6, min(max(cfg.cut_index, -1), 7) / 6)
    products = [section_coeff(6, l, z).to_complex()
                * section_coeff(6, l, w).to_complex().conjugate()
                for l in range(7)]

    def propagator(t):
        return sum(cmath.exp(1j * t * (l - cfg.cut_index)) * product
                   for l, product in enumerate(products))

    h = 2 * math.pi / nodes
    mean = sum(propagator(-math.pi + (j + 0.5) * h)
               for j in range(nodes)) / nodes
    hh = math.pi / nodes
    hil = sum((propagator(-(j + 0.5) * hh) - propagator((j + 0.5) * hh))
              / math.tan(0.5 * (j + 0.5) * hh)
              for j in range(nodes)) * hh / (2 * math.pi)
    full = bergman_coeff(6, z, w).to_complex()
    assembled = 0.5 * (1j * hil + full + mean)
    assert abs(assembled - direct) <= 1e-12 * abs(direct)


@pytest.mark.parametrize("k, energy", [
    (10, -20.0), (10, -100.0), (100, -20.0), (100, -1e6), (10, 1.5)])
def test_hilbert_route_exact_at_far_cuts(k, energy):
    # a cut far below level 0 needs no more nodes than the cut -1: the
    # frequencies l - cut would alias in the route's FFT otherwise.  A cut
    # above k is the empty cut
    cfg = SpectralConfig(k, energy)
    z, w = level_point(0.5, 0.3), level_point(0.5, 1.1)
    assert logc_rel_difference(partial_via_hilbert(cfg, z, w),
                               partial_coeff(cfg, z, w)) <= 1e-9


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
