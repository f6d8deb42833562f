"""Linear-fractional self-maps of the unit disk.

A map z -> (az+b)/(cz+d) is kept as its coefficient quadruple, which is
only meaningful up to a nonzero complex scalar.  The module classifies
such maps relative to the closed disk, locates the single boundary point
where a non-automorphism self-map can touch the circle, and computes the
Krein adjoint sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d))
together with the positive scalar s = 1/|phi'(zeta)| that couples the two
maps at the level of composition operators.
"""

import cmath
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import TOL, Tolerances


class DegenerateMapError(ValueError):
    """Coefficient quadruple with ad - bc = 0."""


class NotSelfMapError(ValueError):
    """The map sends part of the disk outside the closed disk."""


class AutomorphismError(ValueError):
    """Disk automorphisms sit outside this calculus."""


class NotParabolicError(ValueError):
    """Translation numbers exist only for parabolic maps."""


class MapKind(Enum):
    NOT_SELF_MAP = "not-self-map"
    STRICT_CONTRACTION = "strict-contraction"
    CONTACT = "contact"
    AUTOMORPHISM = "automorphism"


@dataclass(frozen=True)
class ContactData:
    """Boundary data of a non-automorphism self-map touching the circle.

    zeta is the unique unimodular point with |phi(zeta)| = 1, eta its
    image, dphi the derivative phi'(zeta), and s = 1/|dphi|.
    """

    zeta: complex
    eta: complex
    dphi: complex
    s: float

    @property
    def parabolic(self) -> bool:
        return abs(self.zeta - self.eta) <= 1e-9 and abs(self.dphi - 1.0) <= 1e-9


@dataclass(frozen=True)
class MapClass:
    kind: MapKind
    contact: ContactData | None = None
    parabolic: bool = False
    automorphism_kind: str | None = None  # elliptic | parabolic | hyperbolic


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (az+b)/(cz+d) with ad - bc != 0, projective in (a, b, c, d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0 or abs(self.det) <= 1e-14 * scale * scale:
            raise DegenerateMapError(f"ad - bc vanishes for {self.coeffs()}")

    def coeffs(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a), complex(self.b), complex(self.c), complex(self.d))

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def pole(self) -> complex | None:
        """Pole of the map, or None when it sits at infinity (c = 0)."""
        if self.c == 0:
            return None
        return -self.d / self.c

    def normalized(self) -> "MoebiusMap":
        """Scale coefficients so the largest has modulus one."""
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        return MoebiusMap(self.a / scale, self.b / scale, self.c / scale, self.d / scale)

    def __call__(self, z):
        return (self.a * z + self.b) / (self.c * z + self.d)

    def derivative(self, z) -> complex:
        den = self.c * z + self.d
        if np.min(np.abs(den)) == 0:
            raise ZeroDivisionError("derivative requested at the pole")
        return self.det / den**2

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self . other)(z) = self(other(z))."""
        a1, b1, c1, d1 = self.coeffs()
        a2, b2, c2, d2 = other.coeffs()
        return MoebiusMap(
            a1 * a2 + b1 * c2,
            a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2,
            c1 * b2 + d1 * d2,
        )

    def iterate(self, n: int) -> "MoebiusMap":
        """n-fold composition of the map with itself; n = 0 is the identity."""
        if n < 0:
            raise ValueError("iterate needs n >= 0")
        result = identity_map()
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            base = base.compose(base)
            n >>= 1
        return result

    @property
    def krein_adjoint(self) -> "MoebiusMap":
        a, b, c, d = self.coeffs()
        return MoebiusMap(
            a.conjugate(), -c.conjugate(), -b.conjugate(), d.conjugate()
        )

    def approx_equal(self, other: "MoebiusMap", tol: Tolerances = TOL) -> bool:
        """Projective equality: the coefficient quadruples are proportional."""
        v = np.array(self.coeffs())
        w = np.array(other.coeffs())
        norm = np.linalg.norm(v) * np.linalg.norm(w)
        for i in range(4):
            for j in range(i + 1, 4):
                if abs(v[i] * w[j] - v[j] * w[i]) > tol.projective * norm:
                    return False
        return True

    def commutes_with(self, other: "MoebiusMap", tol: Tolerances = TOL) -> bool:
        return self.compose(other).approx_equal(other.compose(self), tol)

    def to_json_dict(self) -> dict:
        return {
            key: [getattr(self, key).real, getattr(self, key).imag]
            for key in ("a", "b", "c", "d")
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "MoebiusMap":
        vals = {}
        for key in ("a", "b", "c", "d"):
            re, im = data[key]
            vals[key] = complex(re, im)
        return MoebiusMap(**vals)

    @staticmethod
    def from_json(text: str) -> "MoebiusMap":
        return MoebiusMap.from_json_dict(json.loads(text))


def identity_map() -> MoebiusMap:
    return MoebiusMap(1, 0, 0, 1)


def rotation(alpha: complex) -> MoebiusMap:
    if abs(abs(alpha) - 1) > 1e-12:
        raise ValueError("rotation coefficient must be unimodular")
    return MoebiusMap(alpha, 0, 0, 1)


def _contact_quadratic(m: MoebiusMap) -> tuple[complex, float]:
    """|phi|^2 - 1 on the circle equals (B + 2 Re(A z)) / |cz+d|^2.

    The contact condition is A z^2 + B z + conj(A) = 0 with |z| = 1.
    """
    a, b, c, d = m.coeffs()
    A = a * b.conjugate() - c * d.conjugate()
    B = abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2
    return A, B


def _circle_sup(m: MoebiusMap, samples: int) -> float:
    """Max of |phi| over a uniform circle grid."""
    theta = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    return float(np.max(np.abs(m(np.exp(1j * theta)))))


def _contact_point(m: MoebiusMap, tol: Tolerances) -> complex | None:
    """Unimodular solution of |phi(z)| = 1, or None when the map stays inside.

    Raises NotSelfMapError when the quadratic has two distinct unimodular
    roots, which means |phi| crosses 1 on an arc.  When A vanishes,
    |phi|^2 - 1 = B/|cz+d|^2 keeps the sign of B on the whole circle, so
    there is no isolated contact point.
    """
    mn = m.normalized()
    A, B = _contact_quadratic(mn)
    if abs(A) <= tol.degenerate_quad:
        if abs(B) <= tol.degenerate_quad:
            raise AutomorphismError("|phi| is identically 1 on the circle")
        return None
    disc = B * B - 4 * abs(A) ** 2
    if abs(disc) <= tol.contact_disc:
        # Tangency makes the root double; -B/(2A) is the stable form, the
        # two naive roots would separate by O(sqrt(disc)).
        zeta = -B / (2 * A)
    else:
        sq = cmath.sqrt(disc)
        roots = [(-B + sq) / (2 * A), (-B - sq) / (2 * A)]
        unimodular = [z for z in roots if abs(abs(z) - 1) <= 1e-7]
        if len(unimodular) >= 2 and abs(unimodular[0] - unimodular[1]) > 1e-7:
            raise NotSelfMapError("|phi| exceeds 1 on an arc of the circle")
        if not unimodular:
            return None
        zeta = unimodular[0]
    if abs(abs(zeta) - 1) > 1e-6:
        return None
    return zeta / abs(zeta)


def boundary_contact(m: MoebiusMap, tol: Tolerances = TOL) -> ContactData | None:
    """Contact data of a non-automorphism self-map, or None if sup |phi| < 1."""
    zeta = _contact_point(m, tol)
    if zeta is None:
        return None
    eta = m(zeta)
    eta = eta / abs(eta)
    dphi = m.derivative(zeta)
    return ContactData(zeta=zeta, eta=eta, dphi=dphi, s=1.0 / abs(dphi))


def _fixed_points(m: MoebiusMap) -> list[complex]:
    a, b, c, d = m.normalized().coeffs()
    if abs(c) < 1e-14:
        if abs(d - a) < 1e-14:
            return []  # identity: every point fixed
        return [b / (d - a)]
    disc = (d - a) ** 2 + 4 * b * c
    sq = cmath.sqrt(disc)
    return [((a - d) + sq) / (2 * c), ((a - d) - sq) / (2 * c)]


def _automorphism_kind(m: MoebiusMap) -> str:
    fixed = _fixed_points(m)
    if not fixed:
        return "identity"
    if len(fixed) == 1:
        # single finite fixed point (c = 0 case): rotation-like around it
        return "elliptic"
    z1, z2 = fixed
    if abs(z1 - z2) <= 1e-7:
        return "parabolic"
    on_circle = [abs(abs(z) - 1) <= 1e-7 for z in (z1, z2)]
    return "hyperbolic" if all(on_circle) else "elliptic"


def classify(m: MoebiusMap, tol: Tolerances = TOL) -> MapClass:
    """Sort a map into not-self-map / strict contraction / contact / automorphism."""
    mn = m.normalized()
    if mn.c != 0 and abs(mn.d / mn.c) <= 1 + tol.selfmap_slack:
        return MapClass(MapKind.NOT_SELF_MAP)
    A, B = _contact_quadratic(mn)
    if abs(A) <= tol.degenerate_quad and abs(B) <= tol.degenerate_quad:
        # |phi| = 1 identically on the circle and the pole sits outside.
        return MapClass(MapKind.AUTOMORPHISM, automorphism_kind=_automorphism_kind(mn))
    sup = _circle_sup(mn, tol.circle_samples)
    if sup > 1 + tol.selfmap_slack:
        return MapClass(MapKind.NOT_SELF_MAP)
    try:
        contact = boundary_contact(mn, tol)
    except NotSelfMapError:
        return MapClass(MapKind.NOT_SELF_MAP)
    if contact is None:
        return MapClass(MapKind.STRICT_CONTRACTION)
    return MapClass(MapKind.CONTACT, contact=contact, parabolic=contact.parabolic)


def parabolic_translation(m: MoebiusMap, tol: Tolerances = TOL) -> complex:
    """Translation number of a parabolic map under (eta+z)/(eta-z) coordinates.

    The value t satisfies Phi(m(z)) = Phi(z) + t for every z, where
    Phi(z) = (eta + z)/(eta - z) and eta is the boundary fixed point;
    constancy is asserted at three sample points.  Re t >= 0 always, with
    Re t = 0 exactly for parabolic automorphisms.
    """
    fixed = _fixed_points(m)
    if not fixed:
        raise NotParabolicError("identity map has no translation number")
    if len(fixed) == 2 and abs(fixed[0] - fixed[1]) > 1e-6:
        raise NotParabolicError("map has two distinct fixed points")
    eta = fixed[0] if len(fixed) == 1 else (fixed[0] + fixed[1]) / 2
    if abs(abs(eta) - 1) > 1e-6:
        raise NotParabolicError("fixed point is not on the unit circle")
    eta = eta / abs(eta)

    def cayley(z):
        return (eta + z) / (eta - z)

    samples = [0.0, 0.5, 0.25j]
    values = [cayley(m(z)) - cayley(z) for z in samples]
    spread = max(abs(v - values[0]) for v in values)
    scale = max(1.0, abs(values[0]))
    if spread > tol.constancy * scale:
        raise NotParabolicError(f"translation number is not constant (spread {spread:.2e})")
    t = values[0]
    if t.real < -tol.constancy:
        raise NotParabolicError("translation has negative real part")
    return t
