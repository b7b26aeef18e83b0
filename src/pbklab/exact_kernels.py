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
level terms at a time: one _sections call makes the terms of the base
point and of the chunk's points together, and one _row_sums call sums the
real and the imaginary parts of every row, stacked in one block.  So the
fixed cost of a call, a few dozen numpy calls on short arrays, is paid
once per chunk, not per point or per part: a caller with many points
does best to pass them together.  It stays in arrays from the row sums
to the caller, with no LogComplex per point: _lift turns a whole block
of row sums into log-polar form.  Per-value libm calls are mapped over the
values (math.log, math.atan2, and math.exp and math.log1p for the
section lead), since numpy's log, arctan2, exp and log1p, and np.abs of
a complex array, miss those by an ulp on a share of inputs.  The modulus
comes from np.hypot, which is abs of the complex value bit for bit: both
are libm's hypot.

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

That proven window is the fallback.  A level sum first tries the narrow
window at the gap G = NARROW_GAP = 60 nats, of reach sqrt(G (k+2)/2) + 2,
28% of the proven reach.  The levels it leaves out are not exact zeros,
but they are few and small.  Put a = sqrt(G (k+2)/2).  A left-out level
on one side of M has u = j - 1 > a, so it sits below the top by at least
2u^2/(k+2) >= G + beta (u - a) with beta = 4a/(k+2), and the left-out
levels of that side sum to at most e^{-G} sum_{i>=0} e^{-beta i} <=
e^{-G} (1 + 1/beta), where 1/beta = sqrt((k+2)/(8G)).  Both sides give
twice that.  A further factor 2 covers the rounding of logmag, of exp and
of the products with cos and sin: the first is a few ulps of its largest
summand, about k (ln k + |ln|zeta|| + |ln|omega||) nats, so below 0.1
nats while that stays below 1e14, as for any k <= 10^11.  So, in units of
the row's top term, which the rescaling makes exactly 1.0, the real and
the imaginary parts of the left-out terms each sum in magnitude to at most

    tau(k) = 4 e^{-G} (1 + sqrt((k+2)/(8G))),   1.6e-24 at k = 10^6.

_row_sums adds tau to its rounding certificate.  A row that passes has
as its value the correctly rounded sum over all levels, which is the
proven window's value bit for bit: both sums are correctly rounded over
the same float terms, since the float argmax lies in the narrow window,
so the top and every rescaled term are the same.  A row fails where its
sum lies below about 2^53 tau of its top term, a cancellation by more than
about 2^26 at k = 10^6.  Such a row comes back NaN, and the rows that do
are summed again, in one call, over the hull of their own proven windows,
as a chunk of those rows alone would be.  Where arg omega equals arg
zeta bit for bit, every phase is exactly 0.0 at every level, so the
imaginary tail is exactly 0; a diagonal pair's imaginary sum, exactly
0.0, would fail any certificate with a tail.  Such a block's imaginary
sums are +0.0, the correctly rounded sum of +0.0 terms, and are not
evaluated (_rescaled_sums).  A chunk tries the narrow window only where
its hull holds at most half the levels of the proven hull.  The lazily
filled ln Gamma cache (below) then fills about half as many blocks on a
cold pass.

ln C(k,l) = ln Gamma(k+1) - ln Gamma(l+1) - ln Gamma(k-l+1) reads ln Gamma
from a cache of blocks of LGAMMA_BLOCK consecutive arguments, each filled
by math.lgamma the first time one of its entries is read.  The three
argument ranges are read apart, so a window fills O(sqrt(k)) entries, and
a cold level sum costs O(sqrt(k)) in time and memory, as a warm one does.

A block of level sums, its real rows stacked over its imaginary ones, is
summed row by row correctly rounded in numpy (_row_sums), in two stages
of error-free extraction (Rump, Ogita & Oishi).  The first splits the
whole block at one sigma = 2^(e+m), with 2^e above the block's largest
|x| and 2^m >= n for rows of n terms.  By Sterbenz's lemma each high part
q = (sigma + x) - sigma is exact and a multiple of 2^(e+m-53), and a
row's partial sums of q stay such multiples below sigma, so numpy sums
them exactly; the residual
p = x - q is exact too, with |p| <= 2^(e+m-53).  So sum|p| <=
n 2^(e+m-53) a priori, numpy's sum of p is within gamma_{n-1} of that,
in any order, and a rounding certificate on the TwoSum of the two row
sums accepts the correctly rounded value.  A rescaled row's top term is
1.0, so at the heatmaps' k nearly every row passes.  Only the rows it
leaves open (a near-tie, a row far below the block's largest term,
cancellation) go on from their residual to a second extraction at each
row's own scale, with a certificate on the summed |p| of what is left,
and only a row that fails that too goes to math.fsum.  The result is
math.fsum's bit for bit, by proof rather than by test, so the sums stay
deterministic and independent of numpy's summation order.  The
Hilbert-route assembly below keeps its own math.fsum calls: it is the
independent oracle for the level sum, and so also checks _row_sums.

The partial kernel (levels l >= ceil(kE)) also admits a Hilbert-transform
assembly from the propagator kernel, its frequencies centred at the cut,

    prop_t = sum_l e^{it(l - ceil(kE))} kappa_{k,l}(z) conj(kappa_{k,l}(w)),

namely partial = (i*H_term + full + mean_term)/2 with the mean and Hilbert
integrals discretized by the open midpoint rule.  For these finite integer
frequency contents the identity is exact, which makes it a sharp
consistency check of both engines.  prop_t is never evaluated pointwise:
the assembly reads its samples off one FFT of the level coefficients.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circle_spectral import SpectralConfig, clamp_cut, hilbert_node_count
from .cp1_geometry import ProjectivePoint

LOG_2PI = math.log(2.0 * math.pi)
LOG_2 = math.log(2.0)

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

# a level sum is first tried over the narrow window of the levels within
# this many nats of its row's top, certified against _tail_bound(k) on the
# levels it leaves out (see the module docstring)
NARROW_GAP = 60.0

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
    span of its indices, not their largest value.  A single index is read
    from math.lgamma itself, the value its block would hold, and fills no
    block.
    """
    if first == last:
        return np.full(np.shape(i), math.lgamma(first))
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


def _log_polar(re: np.ndarray, im: np.ndarray, mod: np.ndarray) -> Batch:
    """(log|v|, arg v) of each v = re + i*im with modulus mod, (-inf, 0.0)
    where v is zero: math.log and math.atan2 mapped over the values, which
    numpy's log and arctan2 miss by an ulp on a share of inputs."""
    zero = mod == 0
    logabs = np.fromiter(map(math.log, np.where(zero, 1.0, mod).tolist()),
                         float, mod.size)
    logabs[zero] = -math.inf
    phase = np.fromiter(map(math.atan2, im.tolist(), re.tolist()), float,
                        mod.size)
    phase[zero] = 0.0
    return logabs, phase


def _lift(top, re: np.ndarray, im: np.ndarray) -> Batch:
    """(logmag, phase) of each exp(top) * (re + i*im), (-inf, 0.0) where
    re + i*im is zero, as LogComplex.from_complex takes one value: the
    modulus is np.hypot, which is abs of the complex value bit for bit
    (both are libm's hypot; np.abs of a complex array is not), and the log
    and angle are _log_polar's."""
    logabs, phase = _log_polar(re, im, np.hypot(re, im))
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
    in whatever order it takes.  _row_sums takes the same split of a whole
    block at one sigma first, and this one per row only on the residuals
    of the rows that the first split leaves open.
    """
    sigma = np.ldexp(1.0, np.frexp(_abs_max(x, axis=1))[1] + m)
    q = _high(x, sigma[:, None])
    return q.sum(axis=1), np.subtract(x, q, out=q)


def _abs_max(x: np.ndarray, axis: int | None = None):
    """max|x| over the axis, NaN where x holds a NaN, made with no
    temporary the size of x."""
    return np.maximum(x.max(axis=axis, initial=0.0),
                      -x.min(axis=axis, initial=0.0))


def _high(x: np.ndarray, sigma, out: np.ndarray | None = None) -> np.ndarray:
    """The high parts q = (sigma + x) - sigma of x, into out if given."""
    q = np.add(x, sigma, out=out)
    q -= sigma
    return q


def _split_sums(x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The row sums of the high parts q = (sigma + x) - sigma of x and of
    the residuals x - q, made in two slabs of rows through one buffer, so
    that q and the residuals take half the memory of x, not all of it.
    The residuals are not kept: _row_sums makes those of the rows it
    leaves open again, bit for bit."""
    rows, n = x.shape
    t1, t2 = np.empty(rows), np.empty(rows)
    step = max(1, -(-rows // 2))
    buf = np.empty((step, n))
    for i in range(0, rows, step):
        slab = x[i:i + step]
        q = _high(slab, sigma, buf[:len(slab)])
        t1[i:i + step] = q.sum(axis=1)
        t2[i:i + step] = np.subtract(slab, q, out=q).sum(axis=1)
    return t1, t2


def _rounds_to(r: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Where every real number within err of r rounds to r: 2 err is below
    the smaller of the gaps from r to its neighbours (False for NaN)."""
    gap = np.minimum(np.nextafter(r, math.inf) - r,
                     r - np.nextafter(r, -math.inf))
    return 2.0 * err < gap


def _row_sums(x: np.ndarray, tail=None) -> np.ndarray:
    """The correctly rounded sum of each row of the 2-D block x: the value
    math.fsum(row) gives, sign of zero included.

    Extraction passes (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008)
    split the rows into exact parts and a small residual, in two stages.

    The first stage splits the whole block at one sigma = 2^(e+m), with
    2^e > max|x| over the block and 2^m >= n, m >= 1, for rows of n terms
    (_extract's split at a single sigma, taken by _split_sums in two slabs
    of rows): by Sterbenz's lemma every q = (sigma + x) - sigma is exact,
    a multiple of 2^(e+m-53), so every partial sum of a row's q stays such
    a multiple below sigma and numpy sums them exactly to t1; the residual
    p = x - q is exact, with
    |p| <= 2^(e+m-53).  That bounds sum|p| <= n 2^(e+m-53) a priori, so no
    pass sums |p|: numpy sums p to t2 within
    gamma_{n-1} sum|p| <= 2n eps n 2^(e+m-53) = B, in any order
    ((n-1) eps <= 1/2; 2n^2 is exact for n < 2^26).  TwoSum writes
    t1 + t2 = r + e1 exactly, so the row sum lies within |e1| + B of r, and
    r is its correctly rounded value when twice that, each rounded step
    pushed one ulp up, is below the smaller of the gaps from r to its
    neighbours.  For a block of rescaled rows, each with a top term of
    magnitude about 1, B is near 2^-84 at n = 81, so nearly every row
    passes.

    A row that fails (a near-tie, a row far below the block's largest
    term, cancellation, an exact 0) goes on from t1 and its residual, made
    again from the row by the same split: one
    extraction per row (_extract, at the residual's own scale) writes the
    residual as t2 + sum(p'), with |p'| below 2^(m-53) times the
    residual's largest term, and numpy sums p' to t3 within
    gamma_{n-1} sum|p'| <= 2n eps fl(sum|p'|) (n eps <= 1/4).  TwoSum
    writes t1 + t2 = a + e0 exactly, and two more write e0 + t3 = c + e1
    and a + c = r + e2, so the exact sum lies within
    err = |e1| + |e2| + that bound of r; r is kept where 2 err is below
    its gaps, or where e1, e2 and p' are all zero, so that r is the sum
    itself.  No q is -0.0, since x - x is +0.0 when rounding to nearest, so
    neither are t1, a and an exact-zero r, which is +0.0 as fsum's is.  A
    row that fails this certificate too (a near-tie, cancellation below
    the residual's scale, NaN or inf) is summed by math.fsum.  A block
    that holds NaN or inf, or whose sigma would overflow, skips the first
    stage.

    tail, if given, one bound for every row or one per row, bounds the
    summed magnitudes of terms that belong to the row but are left out of
    x.  It is added to both certificates, so a row that passes has r as
    the correctly rounded sum of the whole row, the terms left out
    included; a row with a nonzero tail is never taken as exact.  Such a
    row that fails comes back NaN, since x alone cannot give its sum.
    """
    rows, n = x.shape
    tail = np.zeros(rows) if tail is None else np.broadcast_to(tail, rows)
    if not n:
        return np.where(tail > 0, math.nan, 0.0)
    m = max(1, (n - 1).bit_length())
    with np.errstate(invalid="ignore", over="ignore"):
        big = float(_abs_max(x))
        e = math.frexp(big)[1]
        if math.isfinite(big) and e + m < 1024:
            sigma = math.ldexp(1.0, e + m)
            t1, t2 = _split_sums(x, sigma)
            r, e1 = _two_sum(t1, t2)
            bound = _up(math.ldexp(2.0 * n * n, e + m - 106))
            open_rows = np.flatnonzero(
                ~_rounds_to(r, _up(np.abs(e1) + _up(bound + tail))))
            if not open_rows.size:
                return r
            # the residuals of the open rows, split again as above
            p = x[open_rows]
            p -= _high(p, sigma)
        else:
            t1, p, r = np.zeros(rows), x, np.zeros(rows)
            open_rows = np.arange(rows)
        tail = tail[open_rows]
        t2, p = _extract(p, m)
        mass = np.abs(p).sum(axis=1)
        a, e0 = _two_sum(t1[open_rows], t2)
        c, e1 = _two_sum(e0, p.sum(axis=1))
        s, e2 = _two_sum(a, c)
        bound = _up(_up(2 * n * EPS * mass) + tail)
        exact = (e1 == 0) & (e2 == 0) & (mass == 0) & (tail == 0)
        failed = ~(_rounds_to(s, _up(_up(np.abs(e1) + np.abs(e2)) + bound))
                   | exact)
    s[failed & (tail > 0)] = math.nan
    for i in np.flatnonzero(failed & (tail == 0)).tolist():
        s[i] = math.fsum(x[open_rows[i]].tolist())
    r[open_rows] = s
    return r


def _rescaled_sums(logmag: np.ndarray, phase: np.ndarray, tail_re=None,
                   tail_im=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of terms exp(logmag + i*phase) summed, as the row's top
    logmag and the real and imaginary parts of its sum rescaled by e^-top.

    The real and imaginary parts of the rescaled terms are made in one
    block, the real rows over the imaginary ones, and summed correctly
    rounded by one _row_sums call, so the only error left is the rounding
    of each term.  The block is the only array this makes the size of the
    terms, besides one temporary of sines or cosines: the rescaled
    magnitudes are made in its last half and multiplied there in place,
    so that the level sum holds about five doubles a term at its peak,
    the inputs and _row_sums' buffer included.  Dead terms
    (logmag -inf) add exact zeros.  tail_re and tail_im, if given, bound
    in units of each row's top term the real and the imaginary parts of
    the terms of levels left out of the rows, as _row_sums takes them, a
    tail per row of the block; a part they leave uncertain comes back NaN.
    """
    top = logmag.max(axis=1, initial=-math.inf)
    rows, n = logmag.shape
    # every imaginary part is +0.0 where every phase is 0.0, as where arg
    # omega equals arg zeta, and then so is its correctly rounded sum: the
    # block holds the real parts alone
    both = bool(phase.any() or tail_im is not None and np.any(tail_im))
    parts = np.empty((1 + both, rows, n))
    # the rescaled magnitudes, made in the last part and multiplied there
    # by the sines, or by the cosines if the block holds no sines
    mags = parts[-1]
    np.subtract(logmag, np.where(top > -math.inf, top, 0.0)[:, None],
                out=mags)
    np.exp(mags, out=mags)
    if both:
        re = np.cos(phase, out=parts[0])
        re *= mags
        mags *= np.sin(phase)
    else:
        mags *= np.cos(phase)
    tail = np.concatenate([np.broadcast_to(0.0 if t is None else t, rows)
                           for t in (tail_re, tail_im)[:1 + both]])
    sums = _row_sums(parts.reshape((1 + both) * rows, n), tail)
    return top, sums[:rows], sums[rows:] if both else np.zeros(rows)


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

def _log_affine(points: Points) -> np.ndarray:
    """Rows log|zeta| and arg zeta, a column per point.

    points is a batch: a sequence of ProjectivePoints or an array of chart
    coordinates zeta.  A coordinate is read with the libm calls of
    ProjectivePoint.log_affine, whose z1 = 1 terms subtract an exact 0.0,
    so [zeta:1] gives the same bits either way (zeta = 0 gives -inf, 0.0):
    its modulus by np.hypot, which is abs(zeta) bit for bit, then
    _log_polar.  A coordinate that is not finite, or whose modulus
    overflows, raises ValueError, as ProjectivePoint does.
    """
    if isinstance(points, np.ndarray):
        re, im = points.real, points.imag
        with np.errstate(over="ignore", invalid="ignore"):
            mod = np.hypot(re, im)
        bad = points[~np.isfinite(mod)]
        if bad.size:
            raise ValueError(f"chart coordinate {bad[0]} is not finite"
                             if not np.isfinite(bad[0]) else
                             f"chart coordinate {bad[0]} has a modulus that "
                             f"overflows")
        return np.array(_log_polar(re, im, mod))
    return np.array([p.log_affine() for p in points]).T


def _sections(k: int, levels: np.ndarray, binom: np.ndarray,
              logabs: np.ndarray, arg: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) of kappa_{k,l}(p): a row per point, a column per level.

    binom is log_binomial(k, levels); logabs and arg are the points'
    log|zeta| and arg zeta.  The (1+|zeta|^2)^{-k/2} lead maps math.exp and
    math.log1p over the points, which numpy's exp and log1p miss by an ulp
    on a few % of inputs: log(1 + |zeta|^2) is
    2 max(a, 0) + log1p(exp(-2|a|)) with a = log|zeta|, stable for all
    magnitudes (0.0 at zeta = 0, where a = -inf).
    """
    log1p = np.fromiter(map(math.log1p, map(math.exp,
                                            (-2.0 * np.abs(logabs)).tolist())),
                        float, logabs.size)
    lead = -0.5 * k * (2.0 * np.maximum(logabs, 0.0) + log1p)
    logmag = np.add.outer(lead, 0.5 * (math.log(k + 1.0) + binom - LOG_2PI))
    # l log|zeta|, with zeta^0 = 1 also at zeta = 0, where log|zeta| = -inf
    logmag += (np.multiply.outer(logabs, levels) if levels.all() else
               np.multiply(logabs[:, None], levels, where=levels > 0,
                           out=np.zeros((logabs.size, levels.size))))
    return logmag, np.multiply.outer(arg, levels)


def _pairs(k: int, levels: np.ndarray, z: np.ndarray,
           ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) of kappa_{k,l}(z) conj(kappa_{k,l}(w)), a row per w;
    z and ws are the _log_affine arrays of the first point and the others.

    One _sections call makes the rows of z and of every w together; each
    row is the same whatever rows it is made with."""
    logmag, phase = _sections(k, levels, log_binomial(k, levels),
                              *np.concatenate([z, ws], axis=1))
    lm_w, ph_w = logmag[1:], phase[1:]
    lm_w += logmag[0]
    return lm_w, np.subtract(phase[0], ph_w, out=ph_w)


def _window(k: int, lo: int, s: np.ndarray,
            gap: float = DEAD_GAP) -> np.ndarray:
    """Levels lo..k within `gap` nats of the top of the rescaled pair sums
    whose log|zeta| + log|omega| are s: the hull of the rows' windows.

    Each row's window is clamp(c, lo, k) +- sqrt(gap (k+2)/2) + 2 with its
    real mode c = k/(1 + e^{-s}), and every level outside it lies more than
    gap nats below the row's top (module docstring).  At gap = DEAD_GAP
    those levels rescale to exactly 0.0; at NARROW_GAP their summed
    magnitudes are at most _tail_bound(k) of the top term.
    """
    reach = _reach(k, gap)
    with np.errstate(over="ignore"):
        mode = k / (1.0 + np.exp(-s))
    # clamping is monotone, so the clamped extremes are the hull's centres
    first = max(lo, math.floor(min(max(mode.min(), lo), k) - reach))
    last = min(k, math.ceil(min(max(mode.max(), lo), k) + reach))
    return np.arange(first, last + 1)


def _reach(k: int, gap: float) -> float:
    """The half-width of a row's window at `gap` about its clamped mode."""
    return math.sqrt(gap * (k + 2) / 2.0) + 2.0


def _tail_bound(k: int) -> float:
    """tau(k) = 4 e^{-G} (1 + sqrt((k+2)/(8G))), G = NARROW_GAP: a bound on
    the summed magnitudes of a row's rescaled terms at levels outside its
    narrow window, in units of its top term (module docstring)."""
    return 4.0 * math.exp(-NARROW_GAP) * (
        1.0 + math.sqrt((k + 2) / (8.0 * NARROW_GAP)))


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


def _pair_sums(k: int, lo: int, z: ProjectivePoint,
               w: Points) -> LogComplex | Batch:
    """sum over levels l >= lo of kappa_{k,l}(z) conj(kappa_{k,l}(w)): one
    value per w.

    Only the window of levels that can survive the rescaling by the row's
    top term is evaluated; the sum is bit for bit the one over all levels.
    A chunk is summed once: over its narrow hull (_window at NARROW_GAP),
    certified against _tail_bound(k), where that holds at most half the
    levels of the proven hull, else over the proven hull.  The rows the
    certificate leaves open, NaN, are summed again over their own proven
    windows.
    """
    lo = max(lo, 0)
    z_aff = _log_affine([z])
    tail = _tail_bound(k)
    reach = _reach(k, NARROW_GAP)

    def block(ws: Points) -> Batch:
        w_aff = _log_affine(ws)
        s = z_aff[0] + w_aff[0]
        levels = _window(k, lo, s)
        tail_re = tail_im = None
        # a narrow hull holds at least min(reach, k - lo) + 1 levels, none
        # for an empty cut, so where that is none or more than half the
        # proven hull it is not built
        if 0 < 2 * (min(reach, k - lo) + 1) <= levels.size:
            narrow = _window(k, lo, s, NARROW_GAP)
            if 2 * narrow.size <= levels.size:
                levels, tail_re = narrow, tail
                # where arg omega equals arg zeta bit for bit, every phase
                # is exactly 0.0, left-out levels included
                tail_im = np.where(w_aff[1] == z_aff[1], 0.0, tail)
        top, re, im = _rescaled_sums(*_pairs(k, levels, z_aff, w_aff),
                                     tail_re, tail_im)
        rows = np.flatnonzero(np.isnan(re) | np.isnan(im))
        if rows.size:
            top[rows], re[rows], im[rows] = _rescaled_sums(*_pairs(
                k, _window(k, lo, s[rows]), z_aff, w_aff[:, rows]))
        return _lift(top, re, im)

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
    log-polar coordinates, which near an antipodal pair leaves only the
    rounding of those coordinates.  Where its log magnitude is below
    ANTIPODE_SCREEN, it is taken instead from z0 conj(w0) + z1 conj(w1),
    formed exactly on the float coordinates, so an exact zero gives the
    exact zero and a value near it keeps its digits.
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
        for i in np.flatnonzero(cross.real < ANTIPODE_SCREEN).tolist():
            cross[i] = _log_cross(z, ws[i])
        logmag = (math.log(k + 1.0) - LOG_2PI + k * cross.real
                  - 0.5 * k * (np.logaddexp(0.0, 2.0 * lz)
                               + np.logaddexp(0.0, 2.0 * lw)))
        return _zero_rule(logmag, k * cross.imag)

    return _per_point(w, 1, block)


def _scaled(x: float) -> int:
    """x * 2^1074 as an exact integer: every finite double is a multiple
    of 2^-1074, so its ratio's power-of-two denominator divides 2^1074."""
    n, d = x.as_integer_ratio()
    return n * ((1 << 1074) // d)


def _scaled_products(z: ProjectivePoint, w: ProjectivePoint | complex
                     ) -> tuple[tuple[int, int], tuple[int, int]]:
    """z0 conj(w0) + z1 conj(w1) and z1 conj(w1) for the float coordinates,
    each as the exact integers (re, im) of its value times 2^2148; a chart
    coordinate w stands for the point [w:1]."""
    w0, w1 = (w.z0, w.z1) if isinstance(w, ProjectivePoint) else (w, 1.0)
    terms = []
    for a, b in ((z.z0, w0), (z.z1, w1)):
        ar, ai, br, bi = map(_scaled, (a.real, a.imag, b.real, b.imag))
        terms.append((ar * br + ai * bi, ai * br - ar * bi))
    (re0, im0), (re1, im1) = terms
    return (re0 + re1, im0 + im1), (re1, im1)


def _log_gaussian(re: int, im: int) -> tuple[int, complex]:
    """log(re + i im) of a nonzero Gaussian integer as (m, c), the value
    m ln 2 + c, with m its bit length, so that the float part c stays
    below 1 in magnitude whatever the size of the integers."""
    m = max(re.bit_length(), im.bit_length())
    # int / int rounds correctly, to |x|, |y| < 1 here
    x, y = re / (1 << m), im / (1 << m)
    return m, complex(math.log(math.hypot(x, y)), math.atan2(y, x))


def _log_cross(z: ProjectivePoint, w: ProjectivePoint | complex) -> complex:
    """log(1 + zeta conj(omega)) = log(z0 conj(w0) + z1 conj(w1))
    - log(z1 conj(w1)), both products exact in integers; (-inf, 0) where
    the first is exactly 0, as at an antipodal pair."""
    total, last = _scaled_products(z, w)
    if total == (0, 0):
        return complex(-math.inf, 0.0)
    m_total, c_total = _log_gaussian(*total)
    m_last, c_last = _log_gaussian(*last)
    return (m_total - m_last) * LOG_2 + (c_total - c_last)


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


@dataclass(frozen=True)
class HilbertRouteTerms:
    """The three pieces of the Hilbert-transform kernel assembly."""

    mean_term: LogComplex
    hilbert_term: LogComplex
    full_term: LogComplex
    value: LogComplex


def hilbert_route_terms(cfg: SpectralConfig, z: ProjectivePoint,
                        w: ProjectivePoint) -> HilbertRouteTerms:
    """Assemble partial = (i*H + full + mean)/2 by midpoint quadrature.

    The mean term averages the propagator prop_t over a full period; the
    Hilbert term integrates (prop(-t) - prop(t)) cot(t/2) over a half
    period.  Midpoint nodes never touch t = 0, where the bracket vanishes
    linearly against the cotangent.

    A cut outside -1..k+1 is first moved to the nearer end (clamp_cut):
    the same levels are kept and the cut level stays dead, but no
    frequency l - cut exceeds k + 1, nor does the node count N = span + 1
    exceed k + 2, span the largest |l - cut|.  Every frequency has
    |l - cut| < N, so the full-period midpoint sum keeps only frequency 0:
    the mean term is the cut-level coefficient itself.  The Hilbert
    bracket at the nodes is a DFT of the level coefficients over 2N bins,
    one per frequency -span..span, so one inverse FFT gives every sample
    in O(k log k).  Where no live level lies at or above the cut, the
    value is the exact zero; where the cut level itself is not live, so
    is the mean term.
    """
    k = cfg.k
    cut = clamp_cut((0, k), cfg.cut_index)
    nodes = hilbert_node_count((0, k), cut)

    logmag, phase = (a[0] for a in _pairs(k, np.arange(k + 1),
                                          _log_affine([z]), _log_affine([w])))
    live = logmag > -math.inf
    if not np.any(live):
        zero = LogComplex.zero()
        return HilbertRouteTerms(zero, zero, zero, zero)
    top = logmag[live].max()
    coeffs = np.where(live, np.exp(logmag - top), 0.0) * np.exp(1j * phase)
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
    # math.fsum reads a list of floats at about half the cost of numpy
    # scalars, with the same sum
    hilbert = complex(math.fsum(bracket.real.tolist()),
                      math.fsum(bracket.imag.tolist())) * hh / (2.0 * math.pi)

    full = complex(math.fsum(coeffs.real.tolist()),
                   math.fsum(coeffs.imag.tolist()))
    # the exact zero where the level sum has no live term, not rounding noise
    value = (0.5 * (1j * hilbert + full + mean)
             if np.any(live[max(cut, 0):]) else 0j)
    values = np.array([mean, hilbert, full, value])
    logmag, phase = _lift(top, values.real, values.imag)
    return HilbertRouteTerms(*map(LogComplex, logmag.tolist(),
                                  phase.tolist()))


def partial_via_hilbert(cfg: SpectralConfig, z: ProjectivePoint,
                        w: ProjectivePoint) -> LogComplex:
    """Partial-kernel coefficient through the Hilbert-transform assembly."""
    return hilbert_route_terms(cfg, z, w).value


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
