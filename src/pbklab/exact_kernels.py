"""Exact frame-relative kernel coefficients on the projective line.

Everything here is expressed against the unit-norm rotation-invariant
frame built from the degree-one section proportional to z1, which is
nonvanishing on the chart z1 != 0.  Relative to that frame the weight-k
orthonormal sections have coefficient functions

    kappa_{k,l}([zeta:1]) = sqrt((k+1) C(k,l) / 2pi) zeta^l (1+|zeta|^2)^{-k/2},

and the full / equivariant / partial kernels are assembled from products
kappa_{k,l}(z) * conj(kappa_{k,l}(w)).  At large k these coefficients span
an enormous dynamic range, so all values are carried in log-polar form
(LogComplex) and sums are accumulated largest-magnitude-first after
factoring out the leading scale.

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
from typing import Iterable

import numpy as np

from .circle_spectral import NodeCountError, SpectralConfig
from .cp1_geometry import ChartError, ProjectivePoint

LOG_2PI = math.log(2.0 * math.pi)

# cached ln(n!) table, grown on demand (math.lgamma per entry, exact to ulp)
_LGAMMA_CACHE = np.zeros(0)


def _lgamma_table(n: int) -> np.ndarray:
    """Table of ln(Gamma(i)) for i = 0..n (index 0 unused)."""
    global _LGAMMA_CACHE
    if _LGAMMA_CACHE.size < n + 1:
        size = max(n + 1, 2 * _LGAMMA_CACHE.size, 256)
        _LGAMMA_CACHE = np.array([0.0] + [math.lgamma(i) for i in range(1, size)])
    return _LGAMMA_CACHE


def log_binomial(k: int, l: int) -> float:
    """ln C(k, l) via log-gamma; avoids the float overflow of C near k ~ 1030."""
    if not 0 <= l <= k:
        raise ValueError("binomial index out of range")
    t = _lgamma_table(k + 2)
    return t[k + 1] - t[l + 1] - t[k - l + 1]


# ---------------------------------------------------------------------------
# log-polar complex arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogComplex:
    """A complex number exp(logmag + i*phase); logmag = -inf encodes zero.

    Products and quotients are exact in (logmag, phase); sums factor out
    the largest logmag before accumulating.
    """

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

    def conjugate(self) -> "LogComplex":
        return LogComplex(self.logmag, -self.phase)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.logmag + other.logmag, self.phase + other.phase)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by an exact LogComplex zero")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.logmag - other.logmag, self.phase - other.phase)

    def scaled(self, factor: complex) -> "LogComplex":
        return self * LogComplex.from_complex(factor)


def logc_sum(terms: Iterable[LogComplex]) -> LogComplex:
    """Sum of LogComplex terms, largest logmag first, exact accumulation.

    The maximum logmag is factored out, the rescaled addends are sorted by
    descending magnitude, and real/imaginary parts go through math.fsum, so
    the only error left is the representation rounding of each term.
    """
    live = [t for t in terms if not t.is_zero]
    if not live:
        return LogComplex.zero()
    live.sort(key=lambda t: t.logmag, reverse=True)
    top = live[0].logmag
    re = math.fsum(math.exp(t.logmag - top) * math.cos(t.phase) for t in live)
    im = math.fsum(math.exp(t.logmag - top) * math.sin(t.phase) for t in live)
    total = complex(re, im)
    if total == 0:
        return LogComplex.zero()
    return LogComplex(top + math.log(abs(total)), math.atan2(total.imag, total.real))


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


def _require_chart(p: ProjectivePoint) -> None:
    if not p.in_chart:
        raise ChartError("kernel coefficients live on the chart z1 != 0")


def section_coeff(k: int, l: int, p: ProjectivePoint) -> LogComplex:
    """Frame coefficient of the (k, l) orthonormal section.

    kappa_{k,l} = sqrt((k+1) C(k,l) / 2pi) zeta^l (1+|zeta|^2)^{-k/2}
    with zeta the chart coordinate of p, evaluated in log-space.
    """
    if not 0 <= l <= k:
        raise ValueError("level index l must satisfy 0 <= l <= k")
    _require_chart(p)
    logabs, phase = p.log_affine()
    base = 0.5 * (math.log(k + 1.0) + log_binomial(k, l) - LOG_2PI)
    lead = -0.5 * k * _log1p_exp_sq(logabs)
    if l == 0:
        return LogComplex(base + lead, 0.0)
    if logabs == -math.inf:
        return LogComplex.zero()
    return LogComplex(base + lead + l * logabs, l * phase)


def _section_arrays(k: int, p: ProjectivePoint) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) of kappa_{k,l}(p) for all l = 0..k at once."""
    _require_chart(p)
    logabs, phase = p.log_affine()
    levels = np.arange(k + 1)
    t = _lgamma_table(k + 2)
    logbinom = t[k + 1] - t[levels + 1] - t[k - levels + 1]
    base = 0.5 * (math.log(k + 1.0) + logbinom - LOG_2PI)
    lead = -0.5 * k * _log1p_exp_sq(logabs)
    if logabs == -math.inf:
        logmag = np.full(k + 1, -math.inf)
        logmag[0] = base[0] + lead
        return logmag, np.zeros(k + 1)
    return base + lead + levels * logabs, levels * phase


def _pair_arrays(k: int, z: ProjectivePoint, w: ProjectivePoint
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(logmag, phase) of kappa_{k,l}(z) * conj(kappa_{k,l}(w)) for all l."""
    lm_z, ph_z = _section_arrays(k, z)
    lm_w, ph_w = _section_arrays(k, w)
    return lm_z + lm_w, ph_z - ph_w


def _logc_sum_arrays(logmag: np.ndarray, phase: np.ndarray) -> LogComplex:
    live = logmag > -math.inf
    if not np.any(live):
        return LogComplex.zero()
    lm = logmag[live]
    ph = phase[live]
    order = np.argsort(lm)[::-1]
    lm = lm[order]
    ph = ph[order]
    top = lm[0]
    mags = np.exp(lm - top)
    re = math.fsum(mags * np.cos(ph))
    im = math.fsum(mags * np.sin(ph))
    total = complex(re, im)
    if total == 0:
        return LogComplex.zero()
    return LogComplex(top + math.log(abs(total)), math.atan2(total.imag, total.real))


def bergman_coeff(k: int, z: ProjectivePoint, w: ProjectivePoint) -> LogComplex:
    """Full-kernel coefficient: sum over all levels of the section products.

    The sum is accumulated largest-magnitude-first, which bounds the error
    relative to the largest term; for pairs whose arguments differ by O(1)
    the true value is exponentially smaller than that term scale and only
    the closed form remains meaningful.
    """
    logmag, phase = _pair_arrays(k, z, w)
    return _logc_sum_arrays(logmag, phase)


def bergman_coeff_closed(k: int, z: ProjectivePoint,
                         w: ProjectivePoint) -> LogComplex:
    """Closed form (k+1)/(2pi) (1+zeta*conj(omega))^k ((1+|zeta|^2)(1+|omega|^2))^{-k/2}.

    Kept alongside the level sum as an independent route; the binomial
    theorem makes the two identical.
    """
    _require_chart(z)
    _require_chart(w)
    lz, pz = z.log_affine()
    lw, pw = w.log_affine()
    # log(1 + zeta*conj(omega)) with the product carried in log-polar form
    r = lz + lw
    ph = pz - pw
    if r == -math.inf:
        cross = 0j
    elif r <= 0:
        inner = 1.0 + cmath.exp(complex(r, ph))
        if inner == 0:
            return LogComplex.zero()
        cross = cmath.log(inner)
    else:
        inner = 1.0 + cmath.exp(complex(-r, -ph))
        if inner == 0:
            return LogComplex.zero()
        cross = complex(r, ph) + cmath.log(inner)
    logmag = (math.log(k + 1.0) - LOG_2PI + k * cross.real
              - 0.5 * k * (_log1p_exp_sq(lz) + _log1p_exp_sq(lw)))
    return LogComplex(logmag, k * cross.imag)


def equivariant_coeff(k: int, l: int, z: ProjectivePoint,
                      w: ProjectivePoint) -> LogComplex:
    """Single-eigenspace kernel coefficient kappa_{k,l}(z) conj(kappa_{k,l}(w))."""
    return section_coeff(k, l, z) * section_coeff(k, l, w).conjugate()


def partial_coeff(cfg: SpectralConfig, z: ProjectivePoint,
                  w: ProjectivePoint) -> LogComplex:
    """Partial-kernel coefficient: levels l >= ceil(kE) only.

    Empty cut (E above the top of the spectrum) gives the exact zero;
    nonpositive cut reproduces the full kernel.
    """
    cut = max(cfg.cut_index, 0)
    if cut > cfg.k:
        return LogComplex.zero()
    logmag, phase = _pair_arrays(cfg.k, z, w)
    return _logc_sum_arrays(logmag[cut:], phase[cut:])


def propagator_coeff(cfg: SpectralConfig, t: float, z: ProjectivePoint,
                     w: ProjectivePoint) -> LogComplex:
    """Kernel coefficient of the shifted propagator at time t.

    sum_l e^{it(l - ceil(kE))} kappa_{k,l}(z) conj(kappa_{k,l}(w)); t = 0
    and t = 2pi both reproduce the full kernel (integer frequencies).
    """
    logmag, phase = _pair_arrays(cfg.k, z, w)
    freqs = np.arange(cfg.k + 1) - cfg.cut_index
    return _logc_sum_arrays(logmag, phase + freqs * t)


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

    The mean term integrates the shifted propagator over a full period
    (and therefore isolates the level-ceil(kE) equivariant coefficient);
    the Hilbert term integrates (prop(-t) - prop(t)) cot(t/2) over a half
    period.  Midpoint nodes never touch t = 0, where the bracket vanishes
    linearly against the cotangent.

    The propagator samples at the midpoint nodes are DFTs of the level
    coefficients: the k+1 frequencies are consecutive integers, fewer than
    the node count, so each lands in its own bin and one inverse FFT per
    term gives every sample in O(k log k).  Where no live level lies at or
    above the cut, the value is the exact zero; where the cut level itself
    is not live, so is the mean term.
    """
    k = cfg.k
    minimum = 8 * (k + 1)
    if nodes is None:
        nodes = minimum
    if nodes < minimum:
        raise NodeCountError(
            f"{nodes} quadrature nodes are insufficient for k={k}; "
            f"need at least {minimum}")

    logmag, phase = _pair_arrays(k, z, w)
    live = logmag > -math.inf
    if not np.any(live):
        zero = LogComplex.zero()
        return HilbertRouteTerms(zero, zero, zero, zero)
    top = logmag[live].max()
    coeffs = np.where(live, np.exp(logmag - top), 0.0) * np.exp(1j * phase)
    cut = cfg.cut_index
    freqs = np.arange(k + 1) - cut

    # mean term over [-pi, pi], midpoint rule: t_j = t_0 + j*2pi/N
    t0 = -math.pi + math.pi / nodes
    bins = np.zeros(nodes, dtype=complex)
    bins[freqs % nodes] = coeffs * np.exp(1j * freqs * t0)
    samples = np.fft.ifft(bins) * nodes
    mean = complex(math.fsum(samples.real), math.fsum(samples.imag)) / nodes

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
    # exact zeros where the level sum has no live term, not rounding noise
    if not 0 <= cut <= k or not live[cut]:
        mean = 0j
    value = (0.5 * (1j * hilbert + full + mean)
             if np.any(live[max(cut, 0):]) else 0j)

    def lift(v: complex) -> LogComplex:
        if v == 0:
            return LogComplex.zero()
        return LogComplex(top + math.log(abs(v)), math.atan2(v.imag, v.real))

    return HilbertRouteTerms(lift(mean), lift(hilbert), lift(full), lift(value))


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
