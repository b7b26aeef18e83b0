"""Fourier analysis on the circle and spectral projections of periodic flows.

The periodic Hilbert transform acts on e_p(t) = e^{ipt} as the Fourier
multiplier -i*sgn(p).  The Hardy-space (Cauchy-Szego) projection keeps the
nonnegative frequencies and satisfies

    P(g) = (i*Hg + g + ghat(0)) / 2.

This module applies the identity to matrices only; on a scalar series it
is a line of algebra on the coefficients.  For a Hermitian matrix A whose
one-parameter group U_A(t) = e^{itA} is 2*pi-periodic (equivalently:
integer spectrum), the spectral projection onto [E, infinity) is the
Hardy projection of t -> e^{-i ceil(E) t} U_A(t) evaluated at t = 0:

    P_{A,E} = (i*H_term + Id + mean_term) / 2,
    mean_term = (1/2pi) integral_{-pi}^{pi} U_A(t) e^{-i ceil(E) t} dt,
    H_term   = (1/2pi) integral_0^pi (U_A(-t) e^{i ceil(E) t}
                                      - U_A(t) e^{-i ceil(E) t}) cot(t/2) dt.

Both integrands are trigonometric polynomials, so an equispaced rule
integrates them exactly once the node count exceeds the frequency content:
the open midpoint rule for the Hilbert term (it never touches the
removable singularity at t = 0), the rectangle rule on the full period for
the mean term.  With N nodes and B = A - ceil(E), every node propagator is
a power of T = e^{i(pi/N)B} (times T^{1/2} for the Hilbert nodes), so both
node sums are matrix polynomials in T.  After one series exponential per
projector, the Hilbert sum takes ~2 sqrt(N) matrix products by
Paterson-Stockmeyer and the mean sum, a geometric series in T^2, at most
3 log2(N) by binary doubling.  This gives a
route to the projector that never touches an eigendecomposition; the
eigendecomposition route is kept alongside as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
INTEGER_SPECTRUM_TOL = 1e-8
EIGENVALUE_TIE_TOL = 1e-9
EXPM_TERM_TOL = 1e-16
EXPM_MAX_SQUARINGS = 64
RANDOM_SPECTRUM_BOUND = 8


class NodeCountError(ValueError):
    """Raised when a quadrature is attempted with too few nodes."""


def snapped_ceil(x: float) -> int:
    """ceil(x), except values within EIGENVALUE_TIE_TOL of an integer snap
    to that integer.

    Keeps an eigenvalue sitting exactly at the spectral cut inside the
    projector (the cut interval is closed on the left).
    """
    if not math.isfinite(x):
        raise ValueError(f"spectral cut level {x} must be finite")
    r = round(x)
    if abs(x - r) <= EIGENVALUE_TIE_TOL:
        return int(r)
    return int(math.ceil(x))


# ---------------------------------------------------------------------------
# operators with integer spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerSpectrumOperator:
    """Hermitian matrix whose unitary group e^{itA} is 2*pi-periodic.

    Construction validates finite entries, Hermitian symmetry (max-norm
    1e-12) and that
    every eigenvalue is within 1e-8 of an integer; the rounded integer
    spectrum is cached for node-count bookkeeping only, never for the
    quadrature values themselves.
    """

    matrix: np.ndarray
    spectrum: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian to 1e-12 in max-norm")
        m = 0.5 * (m + m.conj().T)
        eigs = np.linalg.eigvalsh(m)
        rounded = np.round(eigs)
        if np.max(np.abs(eigs - rounded)) > INTEGER_SPECTRUM_TOL:
            raise ValueError(
                "spectrum is not integral to 1e-8; the flow e^(itA) would "
                "not be 2*pi-periodic")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum",
                           tuple(int(v) for v in rounded))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _as_operator(a) -> IntegerSpectrumOperator:
    if isinstance(a, IntegerSpectrumOperator):
        return a
    return IntegerSpectrumOperator(np.asarray(a, dtype=complex))


def expm_series(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series.

    m is scaled by 2^-s so that b = m / 2^s has ||b||_1 <= 1/2.  The Taylor
    degree is fixed in advance as the smallest n with
    ||b||_1^(n+1) / (n+1)! < EXPM_TERM_TOL, a bound on the first omitted
    term; the degree-n polynomial is summed by _power_polynomial and then
    squared s times.  No eigendecomposition is involved, which keeps the
    quadrature route to spectral projectors independent of the eigen-oracle.
    """
    m = np.asarray(m, dtype=complex)
    norm = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm):
        raise ValueError("matrix exponential needs finite entries")
    s = 0
    if norm > 0.5:
        s = int(math.ceil(math.log2(norm / 0.5)))
        if s > EXPM_MAX_SQUARINGS:
            raise ValueError(f"matrix norm {norm:.3e} needs more than "
                             f"{EXPM_MAX_SQUARINGS} squarings")
    b_norm = norm / 2.0 ** s
    degree = 0
    omitted = b_norm
    while omitted >= EXPM_TERM_TOL:
        degree += 1
        omitted *= b_norm / (degree + 1)
    inv_factorials = np.empty(degree + 1)
    inv_factorials[0] = 1.0
    for j in range(1, degree + 1):
        inv_factorials[j] = inv_factorials[j - 1] / j
    result = _power_polynomial(inv_factorials, m / 2.0 ** s)
    for _ in range(s):
        result = result @ result
    return result


def _required_nodes(op: IntegerSpectrumOperator, cut: int) -> int:
    max_q = max((abs(p - cut) for p in op.spectrum), default=0)
    return 4 * (max_q + 1)


def default_node_count(a, energy: float) -> int:
    """Default quadrature resolution: 8*(max|p - ceil(E)| + 1)."""
    op = _as_operator(a)
    cut = snapped_ceil(energy)
    return 2 * _required_nodes(op, cut)


def spectral_projector_quadrature(a, energy: float,
                                  nodes: int | None = None) -> np.ndarray:
    """1_{[E,inf)}(A) via the Hilbert-transform representation.

    The Hilbert integral is discretized with the open midpoint rule and
    the mean integral with the full-period rectangle rule; with enough
    nodes both are exact for the trigonometric integrands, so the only
    error is rounding.  The node sums are the
    polynomials (1/N) sum_{j<N} T^{2j} and (sum_{j<N} c_j T^j) T^{1/2} in
    T = e^{i(pi/N)(A - ceil(E))}, with c_j the cotangent weights.  Only
    T^{1/2} comes from the exponential series.  The mean sum is
    G_N(T^2) / N with G_N(S) = sum_{j<N} S^j, summed by binary doubling
    (14 matrix products at N = 112, T^2 included); the Hilbert sum is
    summed by _power_polynomial (22 at N = 112, the factor T^{1/2}
    included).
    """
    op = _as_operator(a)
    cut = snapped_ceil(energy)
    needed = _required_nodes(op, cut)
    if nodes is None:
        nodes = 2 * needed
    if nodes < needed:
        raise NodeCountError(
            f"{nodes} quadrature nodes are insufficient; this operator and "
            f"energy level need at least {needed}")

    d = op.dimension
    ident = np.eye(d, dtype=complex)

    # U(t) e^{-i cut t} = e^{itB} with B = A - cut; every node is a power of
    # T = e^{i(pi/N)B} = half_step^2, times half_step for the Hilbert nodes.
    half_step = expm_series(1j * (0.5 * math.pi / nodes)
                            * (op.matrix - cut * ident))
    step = half_step @ half_step

    # mean term: (1/2pi) int U(t) e^{-i cut t} over the full period, by the
    # rectangle rule on the nodes 2j pi/N of [0, 2pi): (1/N) sum_{j<N} T^{2j}.
    # The integrand has frequencies |q| < N, so this rule is exact like the
    # midpoint rule on (2j+1)pi/N, whose sum is the same one times T.
    mean_term = _geometric_sum(step @ step, nodes) / nodes

    # Hilbert term: (1/2pi) int_0^pi (U(-t)e^{i cut t} - U(t)e^{-i cut t})
    # cot(t/2) dt, midpoint rule on t_j = (j+1/2)pi/N, where e^{i t_j B} =
    # T^j half_step; the U(-t) half is the adjoint X^H of the U(t) half X.
    t = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    x = _power_polynomial(1.0 / (2 * nodes * np.tan(0.5 * t)),
                          step) @ half_step
    hilbert_term = x.conj().T - x

    return 0.5 * (1j * hilbert_term + ident + mean_term)


def _power_polynomial(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] X^m for real coeffs, Paterson-Stockmeyer style.

    With s = isqrt(len(coeffs)), X^0 .. X^{s-1} are stored and the
    coefficients, zero-padded to nb blocks of s, form an (nb x s) array.
    One real matrix product of that array with the stored powers, viewed
    as (s x 2d^2) reals, gives every block sum at once; the block sums are
    then combined by Horner's rule in X^s.  Besides that product: s - 1
    matrix products for the table and, when nb > 1, one for X^s and
    nb - 1 Horner steps.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    d = x.shape[0]
    s = math.isqrt(len(coeffs))
    nb = -(-len(coeffs) // s)
    powers = np.empty((s, d, d), dtype=complex)
    powers[0] = np.eye(d)
    for r in range(1, s):
        np.matmul(powers[r - 1], x, out=powers[r])
    blocks = np.zeros(nb * s)
    blocks[:len(coeffs)] = coeffs
    block_sums = (blocks.reshape(nb, s)
                  @ powers.reshape(s, d * d).view(float)).view(complex)
    block_sums = block_sums.reshape(nb, d, d)
    result = block_sums[-1]
    if nb > 1:
        top = powers[-1] @ x
        for block_sum in block_sums[-2::-1]:
            result = result @ top + block_sum
    return result


def _geometric_sum(s_mat: np.ndarray, n: int) -> np.ndarray:
    """G_n = sum_{j<n} S^j by binary doubling, for n >= 1.

    Walks the bits of n below the leading one, carrying S^m alongside G_m:
    G_2m = G_m + S^m G_m, and a set bit adds G_2m+1 = G_2m + S^2m.  Each
    bit takes the doubling product and the squaring S^2m, and a set bit
    one more product for S^2m+1; the last bit skips what no bit after it
    needs.
    """
    g = np.eye(s_mat.shape[0], dtype=complex)
    power = s_mat
    bits = bin(n)[3:]
    for i, bit in enumerate(bits):
        g = g + power @ g
        last = i == len(bits) - 1
        if bit == "1" or not last:
            power = power @ power
        if bit == "1":
            g = g + power
            if not last:
                power = power @ s_mat
    return g


def spectral_projector_eig(a, energy: float) -> np.ndarray:
    """Oracle route: sum of v v* over the eigenpairs kept by the tie rule.

    The tie rule keeps every eigenvalue lambda >= E - EIGENVALUE_TIE_TOL *
    max|lambda|.  The tolerance scales with the spectrum, as the rounding
    of a computed eigenvalue does, so the projector of A at E equals that
    of A/n at E/n: an eigenvalue that is zero in exact arithmetic falls on
    the same side of the cut in both.  The quadrature route snaps E to an
    integer within an absolute EIGENVALUE_TIE_TOL instead; the two rules
    agree unless E lies within EIGENVALUE_TIE_TOL * max|lambda| above an
    eigenvalue but not within EIGENVALUE_TIE_TOL of it.

    Accepts an IntegerSpectrumOperator or any Hermitian matrix.
    """
    if isinstance(a, IntegerSpectrumOperator):
        m = a.matrix
    else:
        m = np.asarray(a, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian to 1e-12 in max-norm")
    eigvals, eigvecs = np.linalg.eigh(m)
    scale = float(np.abs(eigvals).max(initial=0.0))
    keep = eigvals >= energy - EIGENVALUE_TIE_TOL * scale
    v = eigvecs[:, keep]
    return v @ v.conj().T


def random_integer_spectrum_operator(dim: int, rng: np.random.Generator
                                     ) -> IntegerSpectrumOperator:
    """A random Hermitian matrix with integer spectrum in [-8, 8]."""
    ints = rng.integers(-RANDOM_SPECTRUM_BOUND, RANDOM_SPECTRUM_BOUND + 1,
                        size=dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    m = (q * ints) @ q.conj().T
    return IntegerSpectrumOperator(0.5 * (m + m.conj().T))


# ---------------------------------------------------------------------------
# spectral configuration bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralConfig:
    """Bundle (k, E, N) with the derived spectral cut.

    The admissible frequencies live on the lattice N*Z, so the cut index is
    N*ceil(k*E/N); for N = 1 this is ceil(k*E), and E_k = ceil(k*E)/k.
    """

    k: int
    energy: float
    stabilizer_order: int = 1

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        if self.stabilizer_order < 1 or int(self.stabilizer_order) != self.stabilizer_order:
            raise ValueError("stabilizer order must be a positive integer")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "stabilizer_order", int(self.stabilizer_order))

    @property
    def cut_index(self) -> int:
        n = self.stabilizer_order
        return n * snapped_ceil(self.k * self.energy / n)

    @property
    def e_k(self) -> float:
        return self.cut_index / self.k
