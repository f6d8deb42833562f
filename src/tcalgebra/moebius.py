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
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import TOL


class DegenerateMapError(ValueError):
    """Coefficient quadruple with ad - bc = 0."""


class MapFormatError(ValueError):
    """Map data that is not four finite complex coefficients a, b, c, d."""


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
    def fixed(self) -> bool:
        """zeta = eta to 1e-9: the contact point is a boundary fixed point."""
        return abs(self.zeta - self.eta) <= 1e-9

    @property
    def parabolic(self) -> bool:
        return self.fixed and abs(self.dphi - 1.0) <= 1e-9


@dataclass(frozen=True)
class MapClass:
    kind: MapKind
    contact: ContactData | None = None
    parabolic: bool = False
    automorphism_kind: str | None = None  # identity | elliptic | parabolic | hyperbolic


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (az+b)/(cz+d) with ad - bc != 0, projective in (a, b, c, d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for key in ("a", "b", "c", "d"):
            if not cmath.isfinite(getattr(self, key)):
                raise MapFormatError(f"coefficient {key!r} is not finite: {getattr(self, key)!r}")
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
        """n-fold composition of the map with itself; n = 0 is the identity.

        Each product is scaled by the power of two that brings its largest
        coefficient into [1/2, 1), so that powers neither overflow nor
        underflow; the scaling is exact, so the map is the unscaled product.
        The products still round: an n-th power carries about n units of
        rounding per coefficient, while _trace_kind budgets 64.  So
        parabolic_translation accepts iterates of parabolic maps up to
        n = 64 and may reject higher ones as hyperbolic or elliptic.
        """
        if n < 0:
            raise ValueError("iterate needs n >= 0")
        result = identity_map()
        base = self
        while n:
            if n & 1:
                result = _balanced(result.compose(base))
            base = _balanced(base.compose(base))
            n >>= 1
        return result

    @property
    def krein_adjoint(self) -> "MoebiusMap":
        a, b, c, d = self.coeffs()
        return MoebiusMap(
            a.conjugate(), -c.conjugate(), -b.conjugate(), d.conjugate()
        )

    def approx_equal(self, other: "MoebiusMap") -> bool:
        """Projective equality: the coefficient quadruples are proportional."""
        v = np.array(self.coeffs())
        w = np.array(other.coeffs())
        norm = np.linalg.norm(v) * np.linalg.norm(w)
        for i in range(4):
            for j in range(i + 1, 4):
                if abs(v[i] * w[j] - v[j] * w[i]) > TOL.projective * norm:
                    return False
        return True

    def commutes_with(self, other: "MoebiusMap") -> bool:
        return self.compose(other).approx_equal(other.compose(self))

    def to_json_dict(self) -> dict:
        return {
            key: [getattr(self, key).real, getattr(self, key).imag]
            for key in ("a", "b", "c", "d")
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "MoebiusMap":
        if not isinstance(data, dict):
            raise MapFormatError(
                f"expected an object with keys a, b, c, d, got {type(data).__name__}"
            )
        vals = {}
        for key in ("a", "b", "c", "d"):
            if key not in data:
                raise MapFormatError(f"key {key!r} is missing")
            pair = data[key]
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(isinstance(x, (int, float)) and math.isfinite(x) for x in pair)
            ):
                raise MapFormatError(
                    f"key {key!r} must be a pair [re, im] of finite numbers, got {pair!r}"
                )
            vals[key] = complex(*pair)
        return MoebiusMap(**vals)

    @staticmethod
    def from_json(text: str) -> "MoebiusMap":
        return MoebiusMap.from_json_dict(json.loads(text))


def identity_map() -> MoebiusMap:
    return MoebiusMap(1, 0, 0, 1)


def _balanced(m: MoebiusMap) -> MoebiusMap:
    """m with every coefficient times the same power of two, the largest in [1/2, 1)."""
    e = -math.frexp(max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)))[1]
    return MoebiusMap(*(complex(math.ldexp(x.real, e), math.ldexp(x.imag, e)) for x in m.coeffs()))


def rotation(alpha: complex) -> MoebiusMap:
    if abs(abs(alpha) - 1) > 1e-12:
        raise ValueError("rotation coefficient must be unimodular")
    return MoebiusMap(alpha, 0, 0, 1)


def boundary_contact(m: MoebiusMap) -> ContactData | None:
    """Contact data of a non-automorphism self-map, or None if sup |phi| < 1.

    With the pole outside the closed disk (|d| > |c|), on the circle
    |az+b|^2 - |cz+d|^2 = B + 2 Re(A z) for A = a conj(b) - c conj(d) and
    B = |a|^2 + |b|^2 - |c|^2 - |d|^2.  Its maximum B + 2|A| decides the
    class, and the maximizer conj(A)/|A| = -B/(2A) (B = -2|A| at contact)
    is the contact point zeta.  Raises NotSelfMapError when the pole lies
    in the closed disk or the maximum exceeds zero, and AutomorphismError
    when |phi| is identically 1 on the circle.
    """
    a, b, c, d = m.normalized().coeffs()
    if abs(d) <= abs(c):
        raise NotSelfMapError("the pole of phi lies in the closed disk")
    A = a * b.conjugate() - c * d.conjugate()
    B = abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2
    if abs(A) <= TOL.contact and abs(B) <= TOL.contact:
        raise AutomorphismError("|phi| is identically 1 on the circle")
    excess = B + 2 * abs(A)
    if excess > TOL.contact:
        raise NotSelfMapError("|phi| exceeds 1 on an arc of the circle")
    if excess < -TOL.contact:
        return None
    zeta = -B / (2 * A)
    zeta = zeta / abs(zeta)
    eta = m(zeta)
    eta = eta / abs(eta)
    dphi = m.derivative(zeta)
    return ContactData(zeta=zeta, eta=eta, dphi=dphi, s=1.0 / abs(dphi))


# Rounding budget of a normalized coefficient: the error of 64 operations at
# the scale of the largest one.  4 * _ROUNDING exceeds 1e-14, so every map
# whose two fixed points agree to 1e-7 (|(a-d)^2 + 4bc| <= 1e-14 |c|^2)
# stays parabolic.
_ROUNDING = 64 * 2.0**-53


def _trace_kind(a: complex, b: complex, c: complex, d: complex) -> str:
    """identity, parabolic, elliptic or hyperbolic, from tau = (a+d)^2/(ad-bc).

    a, b, c, d are the coefficients of a normalized map.  It has a double
    fixed point exactly when tau - 4 = ((a-d)^2 + 4bc)/(ad-bc) vanishes; for
    an automorphism tau is real, and the map is elliptic below 4 and
    hyperbolic above.  At a double fixed point the partial derivatives of
    tau in a, d, b, c are 2(a-d), -2(a-d), 4c and 4b over ad - bc, so moving
    each normalized coefficient by _ROUNDING moves tau by at most
    4 _ROUNDING (|a-d| + |b| + |c|)/|ad-bc|: within that band the map is
    parabolic.  The identity is a - d, b and c within _ROUNDING; a rotation
    (b = c = 0) is elliptic.
    """
    if max(abs(a - d), abs(b), abs(c)) <= _ROUNDING:
        return "identity"
    if b == c == 0:
        return "elliptic"
    det = a * d - b * c
    excess = ((a - d) ** 2 + 4 * b * c) / det
    if abs(excess) <= 4 * _ROUNDING * (abs(a - d) + abs(b) + abs(c)) / abs(det):
        return "parabolic"
    return "hyperbolic" if excess.real > 0 else "elliptic"


def classify(m: MoebiusMap) -> MapClass:
    """Sort a map into not-self-map / strict contraction / contact / automorphism."""
    mn = m.normalized()
    try:
        contact = boundary_contact(mn)
    except NotSelfMapError:
        return MapClass(MapKind.NOT_SELF_MAP)
    except AutomorphismError:
        return MapClass(MapKind.AUTOMORPHISM, automorphism_kind=_trace_kind(*mn.coeffs()))
    if contact is None:
        return MapClass(MapKind.STRICT_CONTRACTION)
    return MapClass(MapKind.CONTACT, contact=contact, parabolic=contact.parabolic)


def parabolic_translation(m: MoebiusMap) -> complex:
    """Translation number of a parabolic map under (eta+z)/(eta-z) coordinates.

    The value t satisfies Phi(m(z)) = Phi(z) + t for every z, where
    Phi(z) = (eta + z)/(eta - z) and eta is the boundary fixed point;
    constancy is asserted at three sample points.  Re t >= 0 always, with
    Re t = 0 exactly for parabolic automorphisms.  The map is parabolic by
    the test of _trace_kind, and eta = (a-d)/(2c) is its double root.
    That test allows 64 units of rounding per coefficient, so the k-th
    iterate of a parabolic map (about k units) passes it up to k = 64;
    beyond, it may be called hyperbolic or elliptic (MoebiusMap.iterate).
    """
    a, b, c, d = m.normalized().coeffs()
    kind = _trace_kind(a, b, c, d)
    if kind == "identity":
        raise NotParabolicError("identity map has no translation number")
    if kind != "parabolic":
        raise NotParabolicError("map has two distinct fixed points")
    # the double root; with c = 0 the map is a translation fixing infinity
    eta = (a - d) / (2 * c) if c else np.inf
    if abs(abs(eta) - 1) > 1e-6:
        raise NotParabolicError("fixed point is not on the unit circle")
    eta = eta / abs(eta)

    def cayley(z):
        return (eta + z) / (eta - z)

    samples = [0.0, 0.5, 0.25j]
    values = [cayley(m(z)) - cayley(z) for z in samples]
    spread = max(abs(v - values[0]) for v in values)
    scale = max(1.0, abs(values[0]))
    if spread > TOL.constancy * scale:
        raise NotParabolicError(f"translation number is not constant (spread {spread:.2e})")
    t = values[0]
    if t.real < -TOL.constancy:
        raise NotParabolicError("translation has negative real part")
    return t
