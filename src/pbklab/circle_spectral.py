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
the mean term.  Here ceil(E) is the integer cut taken by the eigen
oracle's tie rule and moved into min(spectrum) - 1 .. max(spectrum) + 1
(see _matrix_cut), and N = span + 1, span = max |p - ceil(E)| over the
spectrum, is the fewest nodes that make both rules exact
(hilbert_node_count).  With N nodes and B = A - ceil(E),
every node propagator is a power of T = e^{i(pi/N)B} (times T^{1/2} for
the Hilbert nodes), so both node sums are matrix polynomials in T.  The
one series exponential per projector gives T^{1/2}; its argument has
2-norm at most (pi/2N)(span + INTEGER_SPECTRUM_TOL) < pi/2, inside the
series bound EXPM_SERIES_NORM.  The mean sum, taken over nodes symmetric
about t = 0, is W + W^H with W of degree N - 1 in T, as the Hilbert sum
is, and both are read off one Paterson-Stockmeyer table of powers of T:
9 matrix products for the two together at N = 18.
This gives a route to the projector that never touches an
eigendecomposition; the eigendecomposition route is kept alongside as an
oracle, and an IntegerSpectrumOperator keeps the eigenpairs its
validation computed for it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

HERMITIAN_TOL = 1e-12
INTEGER_SPECTRUM_TOL = 1e-8
EIGENVALUE_TIE_TOL = 1e-9
EXPM_TERM_TOL = 1e-16
# the largest norm expm_series takes: the quadrature's arguments stay
# below pi/2
EXPM_SERIES_NORM = 2.0
RANDOM_SPECTRUM_BOUND = 8


def snapped_ceil(x: float) -> int:
    """ceil(x), except values within EIGENVALUE_TIE_TOL of an integer snap
    to that integer.

    Keeps a level sitting at k*E up to rounding inside the cut (the cut
    interval is closed on the left); the matrix routes use _matrix_cut.
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
    1e-12) and that every eigenvalue is within 1e-8 of an integer.  The
    one eigendecomposition this takes is kept: its eigenpairs serve the
    eigen oracle (spectral_projector_eig), and the rounded integer
    spectrum the quadrature's cut, node count and norm bound, never the
    quadrature values themselves.
    """

    matrix: np.ndarray
    spectrum: tuple[int, ...] = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian to 1e-12 in max-norm")
        m = 0.5 * (m + m.conj().T)
        eigs, vecs = np.linalg.eigh(m)
        rounded = np.round(eigs)
        if np.max(np.abs(eigs - rounded)) > INTEGER_SPECTRUM_TOL:
            raise ValueError(
                "spectrum is not integral to 1e-8; the flow e^(itA) would "
                "not be 2*pi-periodic")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum",
                           tuple(int(v) for v in rounded))
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def expm_series(m: np.ndarray, norm: float | None = None) -> np.ndarray:
    """Matrix exponential by the Taylor series, for ||m|| <= EXPM_SERIES_NORM.

    norm bounds ||m|| in an operator norm; by default it is ||m||_1.  A
    larger norm raises ValueError: the series is summed as it stands,
    with no scaling and squaring.  The Taylor degree is fixed in advance
    as the smallest n with ||m||^(n+1) / (n+1)! < EXPM_TERM_TOL, a bound
    on the first omitted term, and the degree-n polynomial is summed by
    _power_polynomials.  No eigendecomposition is involved, which keeps
    the quadrature route to spectral projectors independent of the
    eigen-oracle.
    """
    m = np.asarray(m, dtype=complex)
    if norm is None:
        norm = float(np.linalg.norm(m, 1))
    if not (math.isfinite(norm) and np.all(np.isfinite(m))):
        raise ValueError("matrix exponential needs finite entries")
    if norm > EXPM_SERIES_NORM:
        raise ValueError(f"matrix norm {norm:.17g} exceeds the series bound "
                         f"{EXPM_SERIES_NORM:g}")
    degree = 0
    omitted = norm
    while omitted >= EXPM_TERM_TOL:
        degree += 1
        omitted *= norm / (degree + 1)
    inv_factorials = np.empty(degree + 1)
    inv_factorials[0] = 1.0
    for j in range(1, degree + 1):
        inv_factorials[j] = inv_factorials[j - 1] / j
    result, = _power_polynomials([inv_factorials], m)
    return result


def clamp_cut(spectrum, cut: int) -> int:
    """cut moved into min(spectrum) - 1 .. max(spectrum) + 1.

    A cut below the integer spectrum keeps every level, one above it none,
    so a cut moved there keeps the same levels and still lies off the
    spectrum.  The frequencies |p - cut| of both Hilbert quadratures, and
    so their node count, then stay within the spectrum's width plus one
    however far the level lies.  Both routes, the matrix projector's and
    the kernel's, take their cut from here."""
    return min(max(cut, min(spectrum) - 1), max(spectrum) + 1)


def hilbert_node_count(spectrum, cut: int) -> int:
    """N = span + 1 nodes for both Hilbert quadratures, span the largest
    frequency |p - cut| of the integrand over the integer spectrum p.

    The full-period mean sum is exact for N > span, the midpoint Hilbert
    sum (a cosine polynomial of degree span) for 2N > span; span + 1 is
    the smallest count that makes both exact."""
    return max((abs(p - cut) for p in spectrum), default=0) + 1


def _matrix_cut(op: IntegerSpectrumOperator, energy: float
                ) -> tuple[int, int]:
    """The quadrature's cut ceil(E - EIGENVALUE_TIE_TOL * max|p|) over the
    integer spectrum p, the eigen oracle's tie rule, moved by clamp_cut
    into min(p) - 1 .. max(p) + 1; and its node count."""
    if not math.isfinite(energy):
        raise ValueError(f"spectral cut level {energy} must be finite")
    cut = clamp_cut(op.spectrum, math.ceil(
        energy - EIGENVALUE_TIE_TOL * max(map(abs, op.spectrum), default=0)))
    return cut, hilbert_node_count(op.spectrum, cut)


def default_node_count(op: IntegerSpectrumOperator, energy: float) -> int:
    """The node count spectral_projector_quadrature takes at this level."""
    return _matrix_cut(op, energy)[1]


def spectral_projector_quadrature(op: IntegerSpectrumOperator,
                                  energy: float) -> np.ndarray:
    """1_{[E,inf)}(A) via the Hilbert-transform representation.

    The Hilbert integral is discretized with the open midpoint rule and
    the mean integral with the full-period rectangle rule, on the
    hilbert_node_count nodes that make both exact for the trigonometric
    integrands, so the only error is rounding.  The node sums are the
    polynomials (1/N) sum_{j<N} T^{2j} and (sum_{j<N} c_j T^j) T^{1/2} in
    T = e^{i(pi/N)(A - ceil(E))}, with c_j the cotangent weights.  Only
    T^{1/2} comes from the exponential series, given the bound
    (pi/2N)(span + INTEGER_SPECTRUM_TOL) < pi/2 on its argument's 2-norm.
    The mean sum's nodes, taken symmetric about t = 0, fold it to W + W^H
    with W a polynomial of degree N - 1 in T, like the Hilbert sum, and
    both come from one Paterson-Stockmeyer table of powers of T
    (_power_polynomials).  At N = 18, the most a
    spectrum in [-8, 8] can take, that is 19 matrix products: 8 for the
    exponential, 1 for T, 9 for the two sums and 1 for the factor
    T^{1/2}.
    """
    cut, nodes = _matrix_cut(op, energy)

    d = op.dimension
    ident = np.eye(d, dtype=complex)

    # U(t) e^{-i cut t} = e^{itB} with B = A - cut; every node is a power of
    # T = e^{i(pi/N)B} = half_step^2, times half_step for the Hilbert nodes.
    # ||B||_2 = max |lambda - cut| over the eigenvalues lambda, each within
    # INTEGER_SPECTRUM_TOL of its integer p.
    theta = 0.5 * math.pi / nodes
    span = max(abs(p - cut) for p in op.spectrum)
    half_step = expm_series(1j * theta * (op.matrix - cut * ident),
                            norm=theta * (span + INTEGER_SPECTRUM_TOL))
    step = half_step @ half_step

    # mean term: (1/2pi) int U(t) e^{-i cut t} over the full period, by the
    # rectangle rule on N nodes; the integrand has frequencies |q| < N, so
    # the rule is exact on the nodes 2j pi/N and on the midpoints
    # (2j+1) pi/N alike.  Taken symmetric about t = 0, where the node
    # propagators pair up as T^j and T^-j = (T^j)^H, the sum is W + W^H:
    # odd N on the nodes, W = (1/N)(1/2 + T^2 + .. + T^(N-1)); even N on
    # the midpoints, W = (1/N)(T + T^3 + .. + T^(N-1)).
    mean_coeffs = np.zeros(nodes)
    mean_coeffs[nodes - 1::-2] = 1.0 / nodes
    if nodes % 2:
        mean_coeffs[0] = 0.5 / nodes

    # Hilbert term: (1/2pi) int_0^pi (U(-t)e^{i cut t} - U(t)e^{-i cut t})
    # cot(t/2) dt, midpoint rule on t_j = (j+1/2)pi/N, where e^{i t_j B} =
    # T^j half_step; the U(-t) half is the adjoint X^H of the U(t) half X.
    t = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    w, x = _power_polynomials(
        [mean_coeffs, 1.0 / (2 * nodes * np.tan(0.5 * t))], step)

    # i (X^H - X) + W + W^H = Z + Z^H with Z = W - i X
    z = w - 1j * (x @ half_step)
    return 0.5 * (ident + z + z.conj().T)


def _table_size(lengths: tuple[int, ...]) -> int:
    """The table size s of _power_polynomials with the fewest matrix
    products for polynomials of these lengths; of equal counts, the one
    with the fewest Horner steps."""
    def products(s):
        blocks = [-(-n // s) for n in lengths]
        horner = sum(b - 1 for b in blocks)
        giant = s > 1 and horner > 0
        return max(s - 2, 0) + giant + horner, horner
    return min(range(1, max(lengths) + 1), key=products)


def _power_polynomials(polys, x: np.ndarray) -> list[np.ndarray]:
    """[sum_m p[m] X^m for p in polys], for real coefficient arrays p,
    from one Paterson-Stockmeyer table.

    X^0 .. X^{s-1} are stored, s from _table_size.  Each polynomial's
    coefficients, zero-padded to nb blocks of s, form an (nb x s) array;
    one real matrix product of all those arrays, stacked, with the stored
    powers, viewed as (s x 2d^2) reals, gives every block sum at once.
    Each polynomial is then combined by Horner's rule in X^s.  Besides
    that product: s - 2 matrix products for the table (X^0 and X^1 come
    free) and, when some nb > 1, one for X^s and nb - 1 Horner steps per
    polynomial.
    """
    polys = [np.asarray(p, dtype=float) for p in polys]
    d = x.shape[0]
    s = _table_size(tuple(len(p) for p in polys))
    powers = np.empty((s, d, d), dtype=complex)
    powers[0] = np.eye(d)
    if s > 1:
        powers[1] = x
    for r in range(2, s):
        np.matmul(powers[r - 1], x, out=powers[r])
    counts = [-(-len(p) // s) for p in polys]
    blocks = np.zeros((sum(counts), s))
    start = 0
    for p, nb in zip(polys, counts):
        blocks[start:start + nb].reshape(-1)[:len(p)] = p
        start += nb
    block_sums = (blocks @ powers.reshape(s, d * d).view(float)
                  ).view(complex).reshape(-1, d, d)
    if max(counts) > 1:
        top = powers[-1] @ x if s > 1 else x
    results = []
    for sums in np.split(block_sums, np.cumsum(counts)[:-1]):
        result = sums[-1]
        for block_sum in sums[-2::-1]:
            result = result @ top
            result += block_sum
        results.append(result)
    return results


def spectral_projector_eig(a, energy: float) -> np.ndarray:
    """Oracle route: sum of v v* over the eigenpairs kept by the tie rule.

    The tie rule keeps every eigenvalue lambda >= E - EIGENVALUE_TIE_TOL *
    max|lambda|.  The tolerance scales with the spectrum, as the rounding
    of a computed eigenvalue does, so the projector of A at E equals that
    of A/n at E/n: an eigenvalue that is zero in exact arithmetic falls on
    the same side of the cut in both.  The quadrature route applies the
    same rule to the integer spectrum (_matrix_cut).

    Accepts an IntegerSpectrumOperator, whose stored eigenpairs it reads,
    or any Hermitian matrix, which it diagonalizes.
    """
    if isinstance(a, IntegerSpectrumOperator):
        eigvals, eigvecs = a.eigenvalues, a.eigenvectors
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
    """Bundle (k, E) with the derived spectral cut ceil(k*E).

    The rotation of the projective line acts freely off the poles, so the
    paper's stabilizer order N is 1 and every integer frequency is
    admissible.  The kernels and the leading-term predictors all read the
    cut from cut_index.
    """

    k: int
    energy: float

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        if not math.isfinite(self.energy):
            raise ValueError(f"energy level {self.energy} must be finite")
        object.__setattr__(self, "k", int(self.k))

    @property
    def cut_index(self) -> int:
        return snapped_ceil(self.k * self.energy)
