"""Exact frame-relative kernel coefficients on the projective line.

Everything here is expressed against the unit-norm rotation-invariant
frame built from the degree-one section proportional to z1, which is
nonvanishing on the chart z1 != 0.  Relative to that frame the weight-k
orthonormal sections have coefficient functions

    kappa_{k,l}([zeta:1]) = sqrt((k+1) C(k,l) / 2pi) zeta^l (1+|zeta|^2)^{-k/2},

and the full / equivariant / partial kernels are assembled from products
kappa_{k,l}(z) * conj(kappa_{k,l}(w)).  At large k these coefficients span
an enormous dynamic range, so all values are carried in log-polar form
(a LogComplex, or arrays of logmags and phases); a sum factors out its
largest term and sums the rescaled parts correctly rounded, the value
math.fsum gives in any order.

The kernel functions take their second point as one ProjectivePoint, a
sequence of them, or a 1-D complex array of chart coordinates zeta (the
points [zeta:1]).  A batch returns a pair (logmag, phase) of 1-D float64
arrays, one entry per point, (-inf, 0.0) for the exact zero; one point
returns a LogComplex of Python floats, the entry of a batch of one.  A
batch runs through one routine for kappa_{k,l} over a block of points x
levels and one that sums each row, a chunk of points of about CHUNK_TERMS
level terms at a time.  It stays in arrays from the row sums to the
caller, with no LogComplex per point: _lift turns a whole block of row
sums into log-polar form, with math.log of the complex abs and
math.atan2 per value, since numpy's arctan2 and complex abs miss those
by an ulp on a share of inputs.

A level sum evaluates only the O(sqrt(k)) window of levels whose terms
survive the rescaling exp(logmag - top); every level outside it rescales to
exactly 0.0, so the window changes no bit of the sum.  The pair
log-magnitude is f(l) = ln C(k,l) + l*s + const with s = ln|zeta| +
ln|omega|.  Its second difference ln(l(k-l) / ((l+1)(k-l+1))) is at most
-(1/(l+1) + 1/(k-l+1)) <= -4/(k+2), so f is strongly concave.  f(l+1) >=
f(l) exactly when l <= c - (1 - c/k) with the real mode
c = k/(1 + e^{-s}) (c = 0 at zeta = 0, where s = -inf), so the argmax M of
f over the levels lo..k of the sum lies within 1 of clamp(c, lo, k).  A
level j steps beyond M, on either side, sits below the top by at least
(4/(k+2)) j(j-1)/2 = 2j(j-1)/(k+2).  A level farther than
REACH = sqrt(DEAD_GAP (k+2)/2) + 2 from clamp(c, lo, k) has j - 1 >
sqrt(DEAD_GAP (k+2)/2), hence a gap above DEAD_GAP = 760 nats, while
np.exp returns exactly 0.0 below -1075 ln 2 = -745.13; the 15 nats between
them absorb the rounding of logmag.  At k = 10^6 the window holds about
39,000 levels instead of 10^6.  A batch chunk takes the hull of its rows'
windows, so it gives the same bits as one call per point.  The Hilbert
route keeps all k+1 levels, since its FFT needs every bin.

ln C(k,l) = ln Gamma(k+1) - ln Gamma(l+1) - ln Gamma(k-l+1) reads ln Gamma
from a cache of blocks of LGAMMA_BLOCK consecutive arguments, each filled
by math.lgamma the first time one of its entries is read.  The three
argument ranges are read apart, so a window fills O(sqrt(k)) entries, and
a cold level sum costs O(sqrt(k)) in time and memory, as a warm one does.

A block of level sums is summed row by row correctly rounded in numpy
(_row_sums): two error-free extraction passes split each row into parts
whose sums are exact and a residual far below the row's largest term, a
rounding certificate checks that the combined value is the correctly
rounded one, and only a row that fails it (a near-tie, or cancellation
below the residual's scale) goes to math.fsum.  The
result is math.fsum's bit for bit, by proof rather than by test, so the
sums stay deterministic and independent of numpy's summation order.  The
Hilbert-route assembly below keeps its own math.fsum calls: it is the
independent oracle for the level sum, and so also checks _row_sums.

The partial kernel (levels l >= ceil(kE)) also admits a Hilbert-transform
assembly from the shifted propagator kernel

    prop_t = sum_l e^{it(l - ceil(kE))} kappa_{k,l}(z) conj(kappa_{k,l}(w)),

namely partial = (i*H_term + full + mean_term)/2 with the mean and Hilbert
integrals discretized by the open midpoint rule.  For these finite integer
frequency contents the identity is exact, which makes it a sharp
consistency check of both engines.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circle_spectral import NodeCountError, SpectralConfig
from .cp1_geometry import ProjectivePoint

LOG_2PI = math.log(2.0 * math.pi)

# unit roundoff of double precision, round to nearest
EPS = 2.0 ** -53

# a batch of points is evaluated a chunk of rows at a time, each chunk
# holding at most about this many level terms: its rows times the levels
# of the full range, of which a level sum evaluates only a window
CHUNK_TERMS = 1 << 20

# a level whose pair term lies this many nats below its row's top rescales
# to exactly 0.0: np.exp(x) == 0.0 for x < -1075 ln 2 = -745.13, and the 15
# nats between absorb the rounding of logmag (see the module docstring)
DEAD_GAP = 760.0

# bergman_coeff_closed tests a pair for an exact zero of 1 + zeta*conj(omega)
# where its float log|1 + zeta*conj(omega)| lies below this: at an exact zero
# the float value is only the rounding of the log-polar coordinates, below
# 1e-12 even at log|zeta| ~ 700, far below e^-20 = 2e-9
ANTIPODE_SCREEN = -20.0

# one point, or a batch: a sequence of points or a 1-D complex array of
# chart coordinates zeta, standing for the points [zeta:1]
Points = ProjectivePoint | Sequence[ProjectivePoint] | np.ndarray

# the values at a batch of points: 1-D arrays (logmag, phase), an entry
# (-inf, 0.0) for the exact zero
Batch = tuple[np.ndarray, np.ndarray]

# ln(Gamma(i)) is cached in blocks of this many consecutive i, block b
# holding i = b*LGAMMA_BLOCK .. (b+1)*LGAMMA_BLOCK - 1
LGAMMA_BLOCK = 1024

# block index -> its ln(Gamma(i)) values, math.lgamma per entry (exact to
# ulp); entry i = 0, the pole, holds inf and is never read
_LGAMMA_BLOCKS: dict[int, np.ndarray] = {}


def _lgamma_block(b: int) -> np.ndarray:
    """Block b of ln(Gamma(i)), filled the first time it is read."""
    block = _LGAMMA_BLOCKS.get(b)
    if block is None:
        first = b * LGAMMA_BLOCK
        block = np.fromiter(map(math.lgamma, range(max(first, 1),
                                                   first + LGAMMA_BLOCK)),
                            float)
        if not first:
            block = np.insert(block, 0, math.inf)
        _LGAMMA_BLOCKS[b] = block
    return block


def _lgamma(i, first: int, last: int):
    """ln(Gamma(i)) for an index or index array i within first..last.

    Only the blocks covering first..last are read, so a call costs the
    span of its indices, not their largest value.
    """
    lo, hi = first // LGAMMA_BLOCK, last // LGAMMA_BLOCK
    cover = (_lgamma_block(lo) if lo == hi else
             np.concatenate([_lgamma_block(b) for b in range(lo, hi + 1)]))
    return cover[i - lo * LGAMMA_BLOCK]


def log_binomial(k: int, l):
    """ln C(k, l) via log-gamma, for one level l or an array of them.

    Avoids the float overflow of C near k ~ 1030.  ln Gamma comes from the
    block cache, and each of the three index ranges k+1, l+1 and k-l+1 is
    read on its own: at the window of a level sum, O(sqrt(k)) levels around
    the mode, that fills O(sqrt(k)) entries of ln Gamma, not k of them.
    """
    l = np.asarray(l)
    if not l.size:
        return np.zeros(l.shape)
    low, high = int(l.min()), int(l.max())
    if not 0 <= low <= high <= k:
        raise ValueError("level index l must satisfy 0 <= l <= k")
    return (_lgamma(k + 1, k + 1, k + 1)
            - _lgamma(l + 1, low + 1, high + 1)
            - _lgamma(k - l + 1, k - high + 1, k - low + 1))


# ---------------------------------------------------------------------------
# log-polar complex arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogComplex:
    """A complex number exp(logmag + i*phase); logmag = -inf encodes zero."""

    logmag: float
    phase: float

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(-math.inf, 0.0)

    @classmethod
    def from_complex(cls, value: complex) -> "LogComplex":
        value = complex(value)
        if value == 0:
            return cls.zero()
        return cls(math.log(abs(value)), math.atan2(value.imag, value.real))

    @property
    def is_zero(self) -> bool:
        return self.logmag == -math.inf

    def abs(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.logmag)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return cmath.exp(complex(self.logmag, self.phase))


def _lift(top, re: np.ndarray, im: np.ndarray) -> Batch:
    """(logmag, phase) of each exp(top) * (re + i*im), (-inf, 0.0) where
    re + i*im is zero.  Magnitude and angle come from math.log of the
    complex abs and math.atan2 per value, which numpy's versions miss by an
    ulp on a share of inputs."""
    re, im = re.tolist(), im.tolist()
    logabs = np.array([math.log(abs(complex(r, i))) if r or i else -math.inf
                       for r, i in zip(re, im)])
    phase = np.array([math.atan2(i, r) if r or i else 0.0
                      for r, i in zip(re, im)])
    return top + logabs, phase


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the error e with a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _up(v: np.ndarray) -> np.ndarray:
    """v pushed one ulp toward +inf: an upper bound of the exact value that
    rounded to v, also where it underflowed to zero."""
    return np.nextafter(v, math.inf)


def _extract(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of x split as x = q + p, returned as (row sums of q, p).

    With 2^e > max|x| over the row (from frexp) and sigma = 2^(e+m), the
    high part q = (sigma + x) - sigma is exact by Sterbenz's lemma, and the
    residual p = x - q is the rounding error of sigma + x, so exact as well,
    with |p| <= 2^(e+m-53).  Every q is a multiple of 2^(e+m-53) with
    |q| <= 2^e, as rounding is monotone; for 2^m >= n, m >= 1, every
    partial sum of a row's n values q is a multiple of 2^(e+m-53) of size
    at most sigma = 2^53 * 2^(e+m-53), so a float: numpy sums them exactly
    in whatever order it takes.
    """
    sigma = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=1))[1] + m)[:, None]
    q = sigma + x
    q -= sigma
    return q.sum(axis=1), x - q


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of the 2-D block x: the value
    math.fsum(row) gives, sign of zero included.

    Two extraction passes (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008) write a row of n terms as t1 + t2 + sum(p): t1 and t2 are exact,
    and |p| is below 2^(2m-104) times the row's largest term.  numpy sums
    p to t3 within gamma_{n-1} sum|p| <= 2n eps fl(sum|p|) (n eps <= 1/4).
    TwoSum writes t1 + t2 = a + e0 exactly, and two more write
    e0 + t3 = c + e1 and a + c = r + e2, so the exact sum lies within
    err = |e1| + |e2| + that bound of r; err is evaluated with each rounded
    step pushed one ulp up.  r is the correctly rounded sum when 2 err is
    below the smaller of the gaps from r to its neighbours, or when e1, e2
    and p are all zero, so that r is the sum itself.  No q is -0.0, since
    x - x is +0.0 when rounding to nearest, so neither are t1, a and an
    exact-zero r, which is +0.0 as fsum's is.  A row that fails the
    certificate (a near-tie, cancellation below the residual's scale, NaN
    or inf) is summed by math.fsum.
    """
    rows, n = x.shape
    if not n:
        return np.zeros(rows)
    m = max(1, (n - 1).bit_length())
    with np.errstate(invalid="ignore", over="ignore"):
        t1, p = _extract(x, m)
        t2, p = _extract(p, m)
        mass = np.abs(p).sum(axis=1)
        a, e0 = _two_sum(t1, t2)
        c, e1 = _two_sum(e0, p.sum(axis=1))
        r, e2 = _two_sum(a, c)
        err = _up(_up(np.abs(e1) + np.abs(e2)) + _up(2 * n * EPS * mass))
        gap = np.minimum(np.nextafter(r, math.inf) - r,
                         r - np.nextafter(r, -math.inf))
        exact = (e1 == 0) & (e2 == 0) & (mass == 0)
        rejected = ~((2.0 * err < gap) | exact)
    for i in np.flatnonzero(rejected).tolist():
        r[i] = math.fsum(x[i].tolist())
    return r


def _level_sums(logmag: np.ndarray, phase: np.ndarray) -> Batch:
    """Each row of terms exp(logmag + i*phase) summed, as the arrays
    (logmag, phase) of the row sums.

    The row's largest logmag is factored out and the real and imaginary
    parts of the rescaled terms are each summed correctly rounded by
    _row_sums, so the only error left is the rounding of each term.  Dead
    terms (logmag -inf) add exact zeros; a row without a live term is the
    exact zero.  _row_sums works on the whole block at once and hands only
    the rows its certificate rejects to math.fsum; both give the same bits.
    hilbert_route_terms sums with math.fsum alone, so that as the level
    sum's independent oracle it checks _row_sums too.
    """
    top = logmag.max(axis=1, initial=-math.inf)
    mags = np.exp(logmag - np.where(top > -math.inf, top, 0.0)[:, None])
    return _lift(top, _row_sums(mags * np.cos(phase)),
                 _row_sums(mags * np.sin(phase)))


def logc_rel_difference(a: LogComplex, b: LogComplex) -> float:
    """|a - b| / max(|a|, |b|); zero when both vanish."""
    if a.is_zero and b.is_zero:
        return 0.0
    top = max(a.logmag, b.logmag)
    va = cmath.exp(complex(a.logmag - top, a.phase)) if not a.is_zero else 0j
    vb = cmath.exp(complex(b.logmag - top, b.phase)) if not b.is_zero else 0j
    return abs(va - vb) / max(abs(va), abs(vb))


# ---------------------------------------------------------------------------
# section coefficients
# ---------------------------------------------------------------------------

def _log1p_exp_sq(logabs: float) -> float:
    """log(1 + |zeta|^2) from log|zeta|, stable for all magnitudes."""
    if logabs == -math.inf:
        return 0.0
    if logabs > 0:
        return 2.0 * logabs + math.log1p(math.exp(-2.0 * logabs))
    return math.log1p(math.exp(2.0 * logabs))


def _log_affine(points: Points) -> np.ndarray:
    """Rows log|zeta| and arg zeta, a column per point.

    points is a batch: a sequence of ProjectivePoints or an array of chart
    coordinates zeta.  A coordinate is read with the math calls of
    ProjectivePoint.log_affine, whose z1 = 1 terms subtract an exact 0.0,
    so [zeta:1] gives the same bits either way (zeta = 0 gives -inf, 0.0).
    """
    if isinstance(points, np.ndarray):
        zetas = points.tolist()
        return np.array([[math.log(abs(v)) if v else -math.inf
                          for v in zetas],
                         [math.atan2(v.imag, v.real) if v else 0.0
                          for v in zetas]])
    return np.array([p.log_affine() for p in points]).T


def _sections(k: int, levels: np.ndarray, binom: np.ndarray,
              logabs: np.ndarray, arg: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) of kappa_{k,l}(p): a row per point, a column per level.

    binom is log_binomial(k, levels); logabs and arg are the points'
    log|zeta| and arg zeta.  Those and the (1+|zeta|^2)^{-k/2} lead stay in
    math calls, which numpy's exp, log1p and atan2 miss by an ulp on a few %
    of inputs.
    """
    lead = np.array([-0.5 * k * _log1p_exp_sq(a) for a in logabs.tolist()])
    base = 0.5 * (math.log(k + 1.0) + binom - LOG_2PI)
    # l log|zeta|, with zeta^0 = 1 also at zeta = 0, where log|zeta| = -inf
    power = np.multiply(logabs[:, None], levels, where=levels > 0,
                        out=np.zeros((logabs.size, levels.size)))
    phase = np.multiply.outer(arg, levels)
    return base + lead[:, None] + power, phase


def _pairs(k: int, levels: np.ndarray, z: np.ndarray,
           ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) of kappa_{k,l}(z) conj(kappa_{k,l}(w)), a row per w;
    z and ws are the _log_affine arrays of the first point and the others."""
    binom = log_binomial(k, levels)
    lm_z, ph_z = _sections(k, levels, binom, *z)
    lm_w, ph_w = _sections(k, levels, binom, *ws)
    return lm_z + lm_w, ph_z - ph_w


def _window(k: int, lo: int, s: np.ndarray) -> np.ndarray:
    """Levels lo..k that can hold a nonzero term of the rescaled pair sums
    whose log|zeta| + log|omega| are s: the hull of the rows' windows.

    Each row's window is clamp(c, lo, k) +- REACH(k) with its real mode
    c = k/(1 + e^{-s}); the module docstring proves that every level
    outside it rescales to exactly 0.0.
    """
    reach = math.sqrt(DEAD_GAP * (k + 2) / 2.0) + 2.0
    with np.errstate(over="ignore"):
        centre = np.clip(k / (1.0 + np.exp(-s)), lo, k)
    first = max(lo, math.floor(centre.min() - reach))
    last = min(k, math.ceil(centre.max() + reach))
    return np.arange(first, last + 1)


def _per_point(w: Points, width: int, block: Callable[[Points], Batch]
               ) -> LogComplex | Batch:
    """block(points) over w in chunks of rows of `width` levels: one
    LogComplex for one point, the arrays (logmag, phase) for a batch."""
    if isinstance(w, ProjectivePoint):
        logmag, phase = block([w])
        return LogComplex(float(logmag[0]), float(phase[0]))
    ws = w if isinstance(w, np.ndarray) else list(w)
    step = max(1, CHUNK_TERMS // max(width, 1))
    parts = ([block(ws[i:i + step]) for i in range(0, len(ws), step)]
             or [(np.empty(0), np.empty(0))])
    return tuple(map(np.concatenate, zip(*parts)))


def _zero_rule(logmag: np.ndarray, phase: np.ndarray) -> Batch:
    """The batch with every entry that is not live (logmag -inf or NaN)
    made the exact zero (-inf, 0.0), as LogComplex.zero() encodes it."""
    live = logmag > -math.inf
    return (np.where(live, logmag, -math.inf).ravel(),
            np.where(live, phase, 0.0).ravel())


def _pair_sums(k: int, lo: int, z: ProjectivePoint, w: Points,
               shift: Callable[[np.ndarray], np.ndarray] | None = None
               ) -> LogComplex | Batch:
    """sum over levels l >= lo of kappa_{k,l}(z) conj(kappa_{k,l}(w)), each
    term turned by e^{i shift(l)} if shift is given: one value per w.

    Only the window of levels that can survive the rescaling by the row's
    top term is evaluated; the sum is bit for bit the one over all levels.
    """
    lo = max(lo, 0)
    z_aff = _log_affine([z])

    def block(ws: Points) -> Batch:
        w_aff = _log_affine(ws)
        levels = _window(k, lo, z_aff[0] + w_aff[0])
        logmag, phase = _pairs(k, levels, z_aff, w_aff)
        if shift is not None:
            phase = phase + shift(levels)
        return _level_sums(logmag, phase)

    return _per_point(w, k + 1 - lo, block)


def section_coeff(k: int, l: int, p: Points) -> LogComplex | Batch:
    """Frame coefficient of the (k, l) orthonormal section.

    kappa_{k,l} = sqrt((k+1) C(k,l) / 2pi) zeta^l (1+|zeta|^2)^{-k/2}
    with zeta the chart coordinate of p, one point or a batch, in log-space.
    """
    levels = np.arange(l, l + 1)
    binom = log_binomial(k, levels)
    return _per_point(p, 1, lambda ps: _zero_rule(
        *_sections(k, levels, binom, *_log_affine(ps))))


def bergman_coeff(k: int, z: ProjectivePoint,
                  w: Points) -> LogComplex | Batch:
    """Full-kernel coefficient: sum over all levels of the section products.

    The sum bounds the error relative to the largest term; for pairs whose
    arguments differ by O(1) the true value is exponentially smaller than
    that term scale and only the closed form remains meaningful.
    """
    return _pair_sums(k, 0, z, w)


def bergman_coeff_closed(k: int, z: ProjectivePoint,
                         w: Points) -> LogComplex | Batch:
    """Closed form (k+1)/(2pi) (1+zeta*conj(omega))^k ((1+|zeta|^2)(1+|omega|^2))^{-k/2}.

    Kept alongside the level sum as an independent route; the binomial
    theorem makes the two identical.  1 + zeta*conj(omega) is formed from
    log-polar coordinates, so at an antipodal pair it rounds to a tiny
    nonzero value.  Where its log magnitude is below ANTIPODE_SCREEN,
    whether z0 conj(w0) + z1 conj(w1) vanishes is decided exactly on the
    float coordinates, and an exact zero gives the exact zero.
    """
    lz, pz = z.log_affine()

    def block(ws: Points) -> Batch:
        lw, pw = _log_affine(ws)
        # log(1 + zeta*conj(omega)), expanded about the larger of 1 and
        # |zeta*omega| so that the exponential cannot overflow
        u = (lz + lw) + 1j * (pz - pw)
        big = u.real > 0
        with np.errstate(divide="ignore"):
            cross = (np.log(1.0 + np.exp(np.where(big, -u, u)))
                     + np.where(big, u, 0.0))
        logmag = (math.log(k + 1.0) - LOG_2PI + k * cross.real
                  - 0.5 * k * (np.logaddexp(0.0, 2.0 * lz)
                               + np.logaddexp(0.0, 2.0 * lw)))
        for i in np.flatnonzero(cross.real < ANTIPODE_SCREEN).tolist():
            if _orthogonal(z, ws[i]):
                logmag[i] = -math.inf
        return _zero_rule(logmag, k * cross.imag)

    return _per_point(w, 1, block)


def _scaled(x: float) -> int:
    """x * 2^1074 as an exact integer: every finite double is a multiple
    of 2^-1074, so its ratio's power-of-two denominator divides 2^1074."""
    n, d = x.as_integer_ratio()
    return n * ((1 << 1074) // d)


def _orthogonal(z: ProjectivePoint, w: ProjectivePoint | complex) -> bool:
    """Whether z0 conj(w0) + z1 conj(w1) is exactly 0 for the float
    coordinates, in integer arithmetic on them scaled by 2^1074; a chart
    coordinate w stands for the point [w:1]."""
    w0, w1 = (w.z0, w.z1) if isinstance(w, ProjectivePoint) else (w, 1.0)
    re = im = 0
    for a, b in ((z.z0, w0), (z.z1, w1)):
        ar, ai, br, bi = map(_scaled, (a.real, a.imag, b.real, b.imag))
        re += ar * br + ai * bi
        im += ai * br - ar * bi
    return re == 0 and im == 0


def equivariant_coeff(k: int, l: int, z: ProjectivePoint,
                      w: Points) -> LogComplex | Batch:
    """Single-eigenspace kernel coefficient kappa_{k,l}(z) conj(kappa_{k,l}(w)).

    The product is the exact zero where either factor is zero, else the
    sums of logmags and of phases.
    """
    kz = section_coeff(k, l, z)

    def block(ws: Points) -> Batch:
        # -inf + logmag is -inf, so a zero factor on either side gives zero
        logmag, phase = section_coeff(k, l, ws)
        return _zero_rule(kz.logmag + logmag, kz.phase - phase)

    return _per_point(w, 1, block)


def partial_coeff(cfg: SpectralConfig, z: ProjectivePoint,
                  w: Points) -> LogComplex | Batch:
    """Partial-kernel coefficient: levels l >= ceil(kE) only.

    Empty cut (E above the top of the spectrum) gives the exact zero;
    nonpositive cut reproduces the full kernel.
    """
    return _pair_sums(cfg.k, cfg.cut_index, z, w)


def propagator_coeff(cfg: SpectralConfig, t: float, z: ProjectivePoint,
                     w: Points) -> LogComplex | Batch:
    """Kernel coefficient of the shifted propagator at time t.

    sum_l e^{it(l - ceil(kE))} kappa_{k,l}(z) conj(kappa_{k,l}(w)); t = 0
    and t = 2pi both reproduce the full kernel (integer frequencies).
    """
    return _pair_sums(cfg.k, 0, z, w,
                      lambda levels: (levels - cfg.cut_index) * t)


@dataclass(frozen=True)
class HilbertRouteTerms:
    """The three pieces of the Hilbert-transform kernel assembly."""

    mean_term: LogComplex
    hilbert_term: LogComplex
    full_term: LogComplex
    value: LogComplex


def hilbert_route_terms(cfg: SpectralConfig, z: ProjectivePoint,
                        w: ProjectivePoint,
                        nodes: int | None = None) -> HilbertRouteTerms:
    """Assemble partial = (i*H + full + mean)/2 by midpoint quadrature.

    The mean term averages the shifted propagator over a full period; the
    Hilbert term integrates (prop(-t) - prop(t)) cot(t/2) over a half
    period.  Midpoint nodes never touch t = 0, where the bracket vanishes
    linearly against the cotangent.

    The k+1 frequencies are consecutive integers, fewer than the node
    count, so the full-period midpoint sum keeps only frequency 0: the mean
    term is the cut-level coefficient itself.  The Hilbert bracket at the
    nodes is a DFT of the level coefficients with one bin per frequency, so
    one inverse FFT gives every sample in O(k log k).  Where no live level
    lies at or above the cut, the value is the exact zero; where the cut
    level itself is not live, so is the mean term.
    """
    k = cfg.k
    minimum = 8 * (k + 1)
    if nodes is None:
        nodes = minimum
    if nodes < minimum:
        raise NodeCountError(
            f"{nodes} quadrature nodes are insufficient for k={k}; "
            f"need at least {minimum}")

    logmag, phase = (a[0] for a in _pairs(k, np.arange(k + 1),
                                          _log_affine([z]), _log_affine([w])))
    live = logmag > -math.inf
    if not np.any(live):
        zero = LogComplex.zero()
        return HilbertRouteTerms(zero, zero, zero, zero)
    top = logmag[live].max()
    coeffs = np.where(live, np.exp(logmag - top), 0.0) * np.exp(1j * phase)
    cut = cfg.cut_index
    freqs = np.arange(k + 1) - cut

    # a dead cut level has coefficient 0, hence an exact-zero mean term
    mean = complex(coeffs[cut]) if 0 <= cut <= k else 0j

    # Hilbert term over (0, pi), midpoint rule: t_j = t_0 + j*2pi/(2N),
    # the first N samples of a length-2N transform
    hh = math.pi / nodes
    t0 = 0.5 * hh
    bins = np.zeros(2 * nodes, dtype=complex)
    bins[-freqs % (2 * nodes)] += coeffs * np.exp(-1j * freqs * t0)
    bins[freqs % (2 * nodes)] -= coeffs * np.exp(1j * freqs * t0)
    bracket = np.fft.ifft(bins)[:nodes] * (2 * nodes)
    bracket /= np.tan(0.5 * (np.arange(nodes) + 0.5) * hh)
    hilbert = complex(math.fsum(bracket.real),
                      math.fsum(bracket.imag)) * hh / (2.0 * math.pi)

    full = complex(math.fsum(coeffs.real), math.fsum(coeffs.imag))
    # the exact zero where the level sum has no live term, not rounding noise
    value = (0.5 * (1j * hilbert + full + mean)
             if np.any(live[max(cut, 0):]) else 0j)
    values = np.array([mean, hilbert, full, value])
    logmag, phase = _lift(top, values.real, values.imag)
    return HilbertRouteTerms(*map(LogComplex, logmag.tolist(),
                                  phase.tolist()))


def partial_via_hilbert(cfg: SpectralConfig, z: ProjectivePoint,
                        w: ProjectivePoint,
                        nodes: int | None = None) -> LogComplex:
    """Partial-kernel coefficient through the Hilbert-transform assembly."""
    return hilbert_route_terms(cfg, z, w, nodes).value


def toeplitz_diag(k: int, l: int) -> float:
    """Diagonal matrix element of multiplication by the height.

    The beta integral int_0^inf u^{l+1} (1+u)^{-(k+3)} du collapses the
    expectation of the height in the (k, l) section to (l+1)/(k+2); the
    curvature-corrected combination ((k+2)/k) * (l+1)/(k+2) - 1/k then
    returns the exact eigenvalue l/k.
    """
    if not 0 <= l <= k:
        raise ValueError("level index l must satisfy 0 <= l <= k")
    return (l + 1.0) / (k + 2.0)
