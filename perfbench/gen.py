"""Seeded inputs for the benchmark: maps and expressions.

Everything here is plain Python and numpy and never calls tcalgebra, so
each input carries ground truth (contact point, image, s) that was fixed
by construction rather than computed by the program under test.

Expressions are kept as specs: a sum of words, each word a complex
coefficient times a tuple of factors.  A factor is one of the strings
"C", "S", "C'", "S'", or ("T", ((n, c), ...)) for a Toeplitz operator
with trigonometric-polynomial symbol sum c z^n.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

X_UPPER = ("C", "S'")  # symbol [[0, *], [0, 0]]
X_LOWER = ("S", "C'")  # symbol [[0, 0], [*, 0]]


@dataclass(frozen=True)
class MapSpec:
    """z -> (az+b)/(cz+d) with its boundary data known by construction."""

    coeffs: tuple  # (a, b, c, d) as Python complex
    zeta: complex
    eta: complex
    s: float
    family: str  # "affine" | "pole"

    def __call__(self, z):
        a, b, c, d = self.coeffs
        return (a * z + b) / (c * z + d)

    def sigma_coeffs(self) -> tuple:
        """Krein adjoint sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d))."""
        a, b, c, d = self.coeffs
        return (a.conjugate(), -c.conjugate(), -b.conjugate(), d.conjugate())


def _compose(*mats):
    out = np.eye(2, dtype=complex)
    for m in mats:
        out = out @ m
    return out


def _apply(mat, z):
    return (mat[0, 0] * z + mat[0, 1]) / (mat[1, 0] * z + mat[1, 1])


def _inverse(mat):
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]])


def _automorphism(a: complex):
    """Disk automorphism z -> (z - a) / (1 - conj(a) z)."""
    return np.array([[1, -a], [-a.conjugate(), 1]], dtype=complex)


def _rotation(theta: float):
    return np.array([[cmath.exp(1j * theta), 0], [0, 1]], dtype=complex)


def affine_maps() -> list[MapSpec]:
    """The two reference maps -(1+z)/2 (s=2) and -(2+z)/3 (s=3), both 1 -> -1."""
    return [
        MapSpec((-1 + 0j, -1 + 0j, 0j, 2 + 0j), 1 + 0j, -1 + 0j, 2.0, "affine"),
        MapSpec((-1 + 0j, -2 + 0j, 0j, 3 + 0j), 1 + 0j, -1 + 0j, 3.0, "affine"),
    ]


def pole_map(rng: np.random.Generator) -> MapSpec:
    """Contact map with a finite pole and a general s.

    psi(z) = (1 - lam) + lam z is the Cayley image of the half-plane
    contraction w -> w / lam; it touches the circle only at 1, with
    psi(1) = 1 and psi'(1) = lam.  Conjugating through automorphisms and
    rotations, phi = R_beta A_a psi A_b R_alpha touches at
    zeta = (A_b R_alpha)^(-1)(1) with image eta = R_beta A_a(1).
    """
    while True:
        lam = rng.uniform(0.3, 0.7)
        a = complex(*rng.uniform(-0.45, 0.45, 2))
        b = complex(*rng.uniform(-0.45, 0.45, 2))
        alpha, beta = rng.uniform(0.0, 2 * math.pi, 2)
        psi = np.array([[lam, 1 - lam], [0, 1]], dtype=complex)
        inner = _compose(_automorphism(b), _rotation(alpha))
        outer = _compose(_rotation(beta), _automorphism(a))
        mat = _compose(outer, psi, inner)
        mat = mat / np.max(np.abs(mat))
        zeta = complex(_apply(_inverse(inner), 1.0))
        zeta /= abs(zeta)
        eta = complex(_apply(outer, 1.0))
        eta /= abs(eta)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        dphi = det / (mat[1, 0] * zeta + mat[1, 1]) ** 2
        s = float(1.0 / abs(dphi))
        c, d = mat[1, 0], mat[1, 1]
        # Keep zeta and eta apart (the calculus needs zeta != eta), the
        # poles of phi and of its Krein adjoint well outside the disk, and
        # s in a moderate range.
        if abs(zeta - eta) < 0.3 or not 0.05 * abs(d) < abs(c) < 0.8 * abs(d):
            continue
        if abs(mat[0, 1]) > 0.85 * abs(d):
            continue
        if not 0.5 <= s <= 8.0:
            continue
        coeffs = tuple(complex(x) for x in (mat[0, 0], mat[0, 1], c, d))
        return MapSpec(coeffs, zeta, eta, s, "pole")


def automorphism_map(rng: np.random.Generator) -> MapSpec:
    """A disk automorphism; the calculus rejects it (exit 2 from the CLI)."""
    mat = _compose(_rotation(rng.uniform(0, 2 * math.pi)), _automorphism(complex(*rng.uniform(-0.5, 0.5, 2))))
    coeffs = tuple(complex(x) for x in mat.ravel())
    return MapSpec(coeffs, 0j, 0j, 0.0, "automorphism")


def contraction_map(rng: np.random.Generator) -> MapSpec:
    """z -> r e^{i t} z + c with r + |c| < 1: no boundary contact (exit 2)."""
    r = rng.uniform(0.2, 0.5)
    c = complex(*rng.uniform(-0.3, 0.3, 2))
    coeffs = (r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)), c, 0j, 1 + 0j)
    return MapSpec(coeffs, 0j, 0j, 0.0, "contraction")


# ---------------------------------------------------------------------------
# expressions

_COEFFS = np.array([-2, -1.5, -1, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1, 1.5, 2])


def _coeff(rng) -> complex:
    return complex(float(rng.choice(_COEFFS)), float(rng.choice(_COEFFS)))


def trig_symbol(rng, terms: int) -> tuple:
    freqs = rng.choice(np.arange(-3, 4), size=terms, replace=False)
    return tuple((int(n), _coeff(rng)) for n in sorted(freqs))


def word(rng, length: int, toeplitz_share: float = 0.25) -> tuple:
    """A coefficient times `length` factors.

    Generators mostly alternate between the upper and lower nilpotent
    classes, so long words keep nonzero symbols and their ring degree
    grows with the length.
    """
    factors = []
    upper = bool(rng.integers(2))
    for _ in range(length):
        if rng.random() < toeplitz_share:
            factors.append(("T", trig_symbol(rng, int(rng.integers(1, 4)))))
            continue
        if rng.random() < 0.85:
            upper = not upper
        pool = X_UPPER if upper else X_LOWER
        factors.append(pool[int(rng.integers(2))])
    return (_coeff(rng), tuple(factors))


def _fmt(c: complex) -> str:
    c = complex(c)
    return f"({c.real!r},{c.imag!r})"


def render_factor(f) -> str:
    if isinstance(f, str):
        return f
    terms = [_fmt(c) if n == 0 else f"{_fmt(c)}*z^{n}" for n, c in f[1]]
    return "T{" + "+".join(terms) + "}"


def render(expr) -> str:
    """Text in the tcalgebra expression grammar."""
    parts = []
    for coeff, factors in expr:
        parts.append("*".join([_fmt(coeff)] + [render_factor(f) for f in factors]))
    return " + ".join(parts)


def identity_word(c: complex = 1.0) -> tuple:
    return (complex(c), ())
