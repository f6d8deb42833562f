"""Finite compressions on the monomial basis of the Hardy space.

Every operator here is cut down to the span of 1, z, ..., z^(N-1):
column j of a matrix holds the coefficient vector of the image of z^j,
rows indexed the same way.  Compressions are exact for the entries they
keep, so they serve as numerical ground truth: compact-coset claims show
up as column norms ||M e_n|| tending to zero (z^n is weakly null), and
essential-spectrum claims show up as eigenvalue fill of the symmetrized
compressions.
"""

import operator

import numpy as np

from .moebius import MoebiusMap
from .rings import TrigPolynomial
from . import rewriter
from .rewriter import OperatorExpression


class PoleInDiskError(ValueError):
    """Truncations need the pole strictly outside the closed disk."""


class WindowTooLargeError(ValueError):
    """Columns past N/2 are contaminated by truncation tails."""


class NotSelfAdjointError(ValueError):
    """Eigenvalue checks are restricted to self-adjoint compressions."""


def _check_pole(m: MoebiusMap) -> MoebiusMap:
    if m.c != 0 and abs(m.d / m.c) <= 1:
        raise PoleInDiskError(f"pole {-m.d / m.c} lies in the closed disk")
    return m


def taylor_coeffs(m: MoebiusMap, n: int) -> np.ndarray:
    """First n Taylor coefficients of (az+b)/(cz+d) at the origin."""
    _check_pole(m)
    a, b, c, d = m.coeffs()
    out = np.zeros(n, dtype=complex)
    if c == 0:
        if n > 0:
            out[0] = b / d
        if n > 1:
            out[1] = a / d
        return out
    # 1/(cz+d) = (1/d) sum (-c/d)^k z^k, then multiply by (az+b)
    geo = (1 / d) * (-c / d) ** np.arange(n)
    out += b * geo
    out[1:] += a * geo[:-1]
    return out


def composition_matrix(m: MoebiusMap, n: int) -> np.ndarray:
    """n x n compression of f -> f(m); column j holds the coefficients of m^j.

    Powers are built by repeated series multiplication truncated to n
    coefficients: coefficient k of a product depends only on coefficients
    0..k of its factors, so the kept coefficients are exact through
    degree n-1.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    series = taylor_coeffs(m, n)
    out = np.zeros((n, n), dtype=complex)
    col = np.zeros(n, dtype=complex)
    col[0] = 1.0
    out[:, 0] = col
    for j in range(1, n):
        col = np.convolve(col, series)[:n]
        out[:, j] = col
    return out


def toeplitz_matrix(w: TrigPolynomial, n: int) -> np.ndarray:
    """n x n Toeplitz compression with entry (i, j) = w-hat(i - j)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    band = np.zeros(2 * n - 1, dtype=complex)  # band[m + n - 1] = w-hat(m)
    for freq, c in w.items():
        if -n < freq < n:
            band[freq + n - 1] = c
    idx = np.arange(n)
    return band[idx[:, None] - idx[None, :] + n - 1]


def truncate(e: OperatorExpression | str, phi: MoebiusMap, n: int) -> np.ndarray:
    """Evaluate an expression as an n x n matrix.

    C maps to the compression of the composition operator of phi, S to
    that of its Krein adjoint, the adjoint mark to the conjugate
    transpose, and an explicit K summand to zero.
    """
    if isinstance(e, str):
        e = rewriter.parse(e)
    sigma = phi.krein_adjoint
    leaves = {
        rewriter.Identity: lambda _: np.eye(n, dtype=complex),
        rewriter.Toeplitz: lambda atom: toeplitz_matrix(atom.symbol, n),
        rewriter.CPhi: lambda _: composition_matrix(phi, n),
        rewriter.CSigma: lambda _: composition_matrix(sigma, n),
        rewriter.CompactTerm: lambda _: np.zeros((n, n), dtype=complex),
    }
    return rewriter.fold(e, leaves, operator.matmul, lambda mat: mat.conj().T)


def vanishing_sequence(
    e: OperatorExpression | str, phi: MoebiusMap, n: int, window: int
) -> np.ndarray:
    """Norms ||M e_j|| for j = 0..window-1 of the truncated expression.

    Compact operators send the weakly null monomials to norm-null images,
    so a zero coset shows up as decay of these norms; window <= n/2 keeps
    truncation tails out of the measured columns.
    """
    if window > n // 2:
        raise WindowTooLargeError(f"window {window} exceeds n/2 = {n // 2}")
    mat = truncate(e, phi, n)
    return np.linalg.norm(mat[:, :window], axis=0)


def compression_eigs(e: OperatorExpression | str, phi: MoebiusMap, n: int) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized compression (M + M*)/2.

    Refuses expressions whose compression is not self-adjoint to 1e-8;
    eigenvalues of non-normal compressions are unreliable.
    """
    mat = truncate(e, phi, n)
    sym = (mat + mat.conj().T) / 2.0
    drift = np.linalg.norm(mat - sym, 2)
    if drift > 1e-8:
        raise NotSelfAdjointError(f"anti-hermitian part has norm {drift:.3e}")
    return np.linalg.eigvalsh(sym)


def fill_distance(predicted, eigs) -> float:
    """One-sided Hausdorff distance from predicted points to eigenvalues.

    One-sided because compressions may carry finitely many legitimate
    outlier eigenvalues beyond the essential spectrum.
    """
    predicted = np.asarray(predicted, dtype=complex)
    eigs = np.asarray(eigs, dtype=complex)
    if predicted.size == 0 or eigs.size == 0:
        raise ValueError("fill_distance needs nonempty inputs")
    dist = np.abs(predicted[:, None] - eigs[None, :])
    return float(dist.min(axis=1).max())


def matrix_csv(mat: np.ndarray) -> str:
    """Long-format CSV of a complex matrix: row,col,re,im."""
    mat = np.asarray(mat, dtype=complex)
    lines = ["row,col,re,im"]
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            z = complex(mat[i, j])
            lines.append(f"{i},{j},{z.real!r},{z.imag!r}")
    return "\n".join(lines) + "\n"


def sequence_csv(values) -> str:
    """CSV of a norm sequence: n,value."""
    lines = ["n,value"]
    for i, v in enumerate(np.asarray(values, dtype=float)):
        lines.append(f"{i},{float(v)!r}")
    return "\n".join(lines) + "\n"
