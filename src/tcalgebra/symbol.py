"""Canonical quintuples and their 2x2 matrix symbols.

Modulo compacts, the unital C*-algebra generated by the shift and the
composition operator of a disk map with boundary contact zeta -> eta
(zeta != eta) consists exactly of elements

    t_w + f(x*x) + g(xx*) + u h(x*x) + u* k(xx*),

where w is continuous on the circle, f, g, h, k vanish at 0 on [0, s]
with s = 1/|phi'(zeta)|, x is the coset of the composition operator and
u its unitary polar factor.  Each such element is identified with the
matrix-valued function on a "figure eight with an interval attached":

    t in (0, s]  ->  [[w(zeta)+g(t), h(t)], [k(t), w(eta)+f(t)]]
    triple point ->  diag(w(zeta), w(eta))
    |lam| = 1    ->  w(lam) I

That identification is an isometric *-isomorphism, so essential spectra,
essential norms and Fredholmness reduce to pointwise 2x2 linear algebra,
which is what this module computes.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .moebius import ContactData
from .rings import HalfPolynomial, TrigPolynomial
from .tolerances import TOL


class ContactMismatchError(ValueError):
    """Mixing elements built over different maps is meaningless."""


class NotCentralError(ValueError):
    """Gelfand values exist only for central elements."""


class InvalidContactError(ValueError):
    """The quotient calculus needs distinct boundary points zeta != eta."""


@dataclass(frozen=True)
class LambdaPoint:
    """Point of the symbol space: circle point, triple point, or interval t."""

    kind: str  # "circle" | "triple" | "interval"
    value: complex | float | None = None

    @staticmethod
    def circle(lam: complex) -> "LambdaPoint":
        lam = complex(lam)
        if not abs(abs(lam) - 1) <= 1e-9:  # also rejects nan and inf
            raise ValueError(f"circle points must be unimodular, got {lam!r}")
        return LambdaPoint("circle", lam)

    @staticmethod
    def interval(t: float) -> "LambdaPoint":
        t = float(t)
        if not 0 < t < np.inf:
            raise ValueError(f"interval points have 0 < t <= s, got {t!r}")
        return LambdaPoint("interval", t)


TRIPLE_POINT = LambdaPoint("triple", None)


def _check_contact(contact: ContactData) -> ContactData:
    if contact.fixed:
        raise InvalidContactError(
            "contact point equals its image; the two-point calculus needs zeta != eta"
        )
    return contact


class SymbolElement:
    """Canonical quintuple (w; f, g, h, k) over fixed contact data."""

    __slots__ = ("w", "f", "g", "h", "k", "contact")

    def __init__(
        self,
        w: TrigPolynomial,
        f: HalfPolynomial,
        g: HalfPolynomial,
        h: HalfPolynomial,
        k: HalfPolynomial,
        contact: ContactData,
    ):
        self.w = w
        self.f = f
        self.g = g
        self.h = h
        self.k = k
        self.contact = _check_contact(contact)

    @property
    def s(self) -> float:
        return self.contact.s

    def _same_algebra(self, other: "SymbolElement") -> None:
        if self.contact != other.contact:
            raise ContactMismatchError("operands live over different contact data")

    def _slots(self) -> tuple:
        return self.w, self.f, self.g, self.h, self.k

    def __add__(self, other: "SymbolElement") -> "SymbolElement":
        self._same_algebra(other)
        return SymbolElement(*(x + y for x, y in zip(self._slots(), other._slots())), self.contact)

    def __sub__(self, other: "SymbolElement") -> "SymbolElement":
        return self + (-1) * other

    def __rmul__(self, scalar: complex) -> "SymbolElement":
        return SymbolElement(*(scalar * x for x in self._slots()), self.contact)

    def __neg__(self) -> "SymbolElement":
        return (-1) * self

    def _interval_parts(self) -> tuple:
        """d = (w(zeta), w(eta)) and A = [[g, h], [k, f]]; the interval symbol is diag(d) + A."""
        d = (self.w(self.contact.zeta), self.w(self.contact.eta))
        return d, ((self.g, self.h), (self.k, self.f))

    def __mul__(self, other: "SymbolElement") -> "SymbolElement":
        """Product in the quotient algebra: the 2x2 product of the interval symbols.

        (D1 + A)(D2 + B) = D1 D2 + (D1 B + A D2 + A B).  D1 D2 is what w1 w2
        takes at zeta and eta, so w1 w2 and the entries of D1 B + A D2 + A B
        make up the product's quintuple.
        """
        self._same_algebra(other)
        d1, a = self._interval_parts()
        d2, b = other._interval_parts()
        (g, h), (k, f) = [
            [
                d1[i] * b[i][j] + d2[j] * a[i][j] + a[i][0] * b[0][j] + a[i][1] * b[1][j]
                for j in (0, 1)
            ]
            for i in (0, 1)
        ]
        return SymbolElement(self.w * other.w, f, g, h, k, self.contact)

    def adjoint(self) -> "SymbolElement":
        """Conjugate every slot; the two off-diagonal slots trade places."""
        w, f, g, h, k = self._slots()
        return SymbolElement(*(x.conj() for x in (w, f, g, k, h)), self.contact)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(x.is_zero(tol) for x in self._slots())

    def equals_exact(self, other: "SymbolElement") -> bool:
        return self.contact == other.contact and all(
            x.equals_exact(y) for x, y in zip(self._slots(), other._slots())
        )

    def allclose(self, other: "SymbolElement", tol: float = 1e-10) -> bool:
        return self.contact == other.contact and all(
            x.allclose(y, tol) for x, y in zip(self._slots(), other._slots())
        )

    def to_json_dict(self) -> dict:
        def half(hp: HalfPolynomial) -> dict:
            return {
                "p": [[c.real, c.imag] for c in hp.p],
                "q": [[c.real, c.imag] for c in hp.q],
            }

        return {
            "w": [[n, c.real, c.imag] for n, c in self.w.items()],
            "f": half(self.f),
            "g": half(self.g),
            "h": half(self.h),
            "k": half(self.k),
            "s": self.contact.s,
            "zeta": [self.contact.zeta.real, self.contact.zeta.imag],
            "eta": [self.contact.eta.real, self.contact.eta.imag],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SymbolElement":
        def half(d: dict) -> HalfPolynomial:
            return HalfPolynomial(
                [complex(re, im) for re, im in d["p"]],
                [complex(re, im) for re, im in d["q"]],
            )

        zeta = complex(*data["zeta"])
        eta = complex(*data["eta"])
        s = float(data["s"])
        # The derivative at the contact point obeys phi'(zeta) = |phi'(zeta)| eta/zeta,
        # so its phase is recoverable from (s, zeta, eta).
        contact = ContactData(zeta=zeta, eta=eta, dphi=eta / (s * zeta), s=s)
        w = TrigPolynomial({n: complex(re, im) for n, re, im in data["w"]})
        return SymbolElement(
            w, half(data["f"]), half(data["g"]), half(data["h"]), half(data["k"]), contact
        )

    def __repr__(self):
        return (
            f"SymbolElement(w={self.w!r}, f={self.f!r}, g={self.g!r}, "
            f"h={self.h!r}, k={self.k!r}, s={self.s!r})"
        )


def zero_element(contact: ContactData) -> SymbolElement:
    z = HalfPolynomial.zero()
    return SymbolElement(TrigPolynomial.zero(), z, z, z, z, contact)


def identity_element(contact: ContactData) -> SymbolElement:
    return embed_toeplitz(TrigPolynomial.constant(1.0), contact)


def embed_toeplitz(w: TrigPolynomial, contact: ContactData) -> SymbolElement:
    """Coset of the Toeplitz operator with (trig-polynomial) symbol w."""
    z = HalfPolynomial.zero()
    return SymbolElement(w, z, z, z, z, contact)


def embed_cphi(contact: ContactData) -> SymbolElement:
    """Coset of the composition operator itself: x = u sqrt(x*x)."""
    z = HalfPolynomial.zero()
    return SymbolElement(
        TrigPolynomial.zero(), z, z, HalfPolynomial.sqrt_t(), z, contact
    )


def embed_csigma(contact: ContactData) -> SymbolElement:
    """Coset of the Krein-adjoint composition operator: x* / s."""
    z = HalfPolynomial.zero()
    return SymbolElement(
        TrigPolynomial.zero(), z, z, z, HalfPolynomial.sqrt_t(1.0 / contact.s), contact
    )


def phi_lambda(b: SymbolElement, lam: LambdaPoint) -> np.ndarray:
    """Evaluate the 2x2 matrix symbol of b at a point of the symbol space."""
    wz = b.w(b.contact.zeta)
    we = b.w(b.contact.eta)
    if lam.kind == "interval":
        t = float(lam.value)
        if t > b.s + 1e-12:
            raise ValueError(f"interval point {t} exceeds s = {b.s}")
        return np.array(
            [[wz + b.g(t), b.h(t)], [b.k(t), we + b.f(t)]], dtype=complex
        )
    if lam.kind == "triple":
        return np.array([[wz, 0], [0, we]], dtype=complex)
    if lam.kind == "circle":
        lamv = complex(lam.value)
        if abs(lamv - b.contact.zeta) <= 1e-12 or abs(lamv - b.contact.eta) <= 1e-12:
            raise ValueError("circle points exclude zeta and eta; use the triple point")
        return b.w(lamv) * np.eye(2, dtype=complex)
    raise ValueError(f"unknown point kind {lam.kind!r}")


# ---------------------------------------------------------------------------
# grids and pointwise data


def _grids(b: SymbolElement, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sweep grids of one resolution.

    The unimodular grid contains zeta and eta exactly; the interval grid
    covers [0, s] including both endpoints.
    """
    try:
        valid = operator.index(resolution) >= 2
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"resolution must be an integer of at least 2, got {resolution!r}")
    theta = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    pts = np.concatenate([np.exp(1j * theta), [b.contact.zeta, b.contact.eta]])
    order = np.argsort(np.angle(pts), kind="stable")
    return pts[order], np.linspace(0.0, b.s, resolution)


def _interval_values(b: SymbolElement, ts: np.ndarray) -> tuple:
    """w(zeta), w(eta) and f, g, h, k at the points ts of [0, s].

    They fill the interval matrices [[w(zeta) + g, h], [k, w(eta) + f]];
    each formula below combines them in its own fixed order.  Zero slots
    share one +0 array.
    """
    f, g, h, k = HalfPolynomial.evaluate((b.f, b.g, b.h, b.k), ts)
    return b.w(b.contact.zeta), b.w(b.contact.eta), f, g, h, k


def spectrum_branches(
    b: SymbolElement, resolution: int = 1000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The essential spectrum by source: w on the circle grid, then the two
    eigenvalue branches mean +- sqrt(disc)/2 of the interval matrices.

    The circle grid has resolution + 2 points (zeta and eta included), the
    interval grid resolution points covering [0, s].  Both square-root
    signs are returned so no branch choice can drop points.
    """
    circle, ts = _grids(b, resolution)
    wz, we, f, g, h, k = _interval_values(b, ts)
    diag_sum = f + we + g + wz
    diag_diff = f + we - g - wz
    disc = diag_diff.astype(complex) ** 2 + 4 * h * k
    root = np.sqrt(disc)
    return b.w(circle), (diag_sum + root) / 2.0, (diag_sum - root) / 2.0


def spectrum_samples(b: SymbolElement, resolution: int = 1000) -> list[tuple[complex, str]]:
    """Essential-spectrum point cloud with provenance labels.

    Labels are "circle" for w values on the circle grid and "interval+" /
    "interval-" for the two eigenvalue branches over the [0, s] grid.
    """
    labels = ("circle", "interval+", "interval-")
    return [
        (z, label)
        for values, label in zip(spectrum_branches(b, resolution), labels)
        for z in values.tolist()
    ]


def essential_spectrum(b: SymbolElement, resolution: int = 1000) -> np.ndarray:
    """Point cloud filling the essential spectrum.

    The set is the union of the circle values of w with the eigenvalue
    image of the interval matrices over a deterministic grid on [0, s]
    that includes both endpoints.
    """
    return np.concatenate(spectrum_branches(b, resolution))


# ---------------------------------------------------------------------------
# sup / inf sweeps with local refinement


def _norms_from_entries(m11, m12, m21, m22) -> np.ndarray:
    """Largest singular values of the 2x2 matrices [[m11, m12], [m21, m22]].

    M*M = [[p, r], [conj(r), q]] has eigenvalues (p + q +- gap)/2 with
    gap = sqrt((p - q)^2 + 4|r|^2).  Its error is a rounding of p + q, and
    p + q + gap adds nonnegative terms, so the result stays accurate to
    rounding when the two singular values are close.  The equivalent
    gap^2 = ||M||_F^4 - 4|det M|^2 subtracts two nearly equal numbers
    there and loses half the digits.
    """
    p = abs(m11) ** 2 + abs(m21) ** 2
    q = abs(m12) ** 2 + abs(m22) ** 2
    r = np.conj(m11) * m12 + np.conj(m21) * m22
    gap = np.sqrt((p - q) ** 2 + 4 * abs(r) ** 2)
    return np.sqrt((p + q + gap) / 2.0)


def _interval_norms(b: SymbolElement, ts: np.ndarray) -> np.ndarray:
    wz, we, f, g, h, k = _interval_values(b, ts)
    return _norms_from_entries(wz + g, h, k, we + f)


def _interval_dets(b: SymbolElement, ts: np.ndarray) -> np.ndarray:
    wz, we, f, g, h, k = _interval_values(b, ts)
    return np.abs((wz + g) * (we + f) - h * k)


@dataclass(frozen=True)
class NormReport:
    """Essential norm with the accuracy of the final refinement grid."""

    value: float
    where: str  # "circle" | "interval"
    at: float  # angle on the circle, or t on the interval
    grid_spacing: float
    derivative_bound: float

    @property
    def accuracy(self) -> float:
        return self.grid_spacing * self.derivative_bound


def _refine(values_fn, x0: float, lo: float, hi: float, spacing: float, resolution: int):
    """Up to three rounds of local grid refinement around a running maximizer.

    A round whose grid would collapse to spacing 0 (its width is below
    rounding at x0) is not taken, so the last grid kept gives the spacing
    and the crude derivative bound.  The first round always runs; its
    spacing is 2 spacing / (resolution - 1), so it collapses only for
    resolutions above about 1e8.
    """
    for n in range(3):
        xs = np.linspace(max(lo, x0 - spacing), min(hi, x0 + spacing), resolution)
        if n and xs[1] == xs[0]:
            break
        vals = values_fn(xs)
        i = int(np.argmax(vals))
        x0, spacing = float(xs[i]), xs[1] - xs[0]
    dbound = float(np.max(np.abs(np.diff(vals)))) / spacing
    return float(vals[i]), x0, float(spacing), dbound


def _circle_max(b: SymbolElement, circle: np.ndarray, resolution: int, sign: int) -> tuple:
    """Sup of sign * |w| on the circle: the grid argmax, refined around it,
    keeping the larger of the grid and refined values.  Returns (value, at,
    spacing, derivative bound), `at` an angle in [0, 2 pi)."""
    vals = sign * np.abs(b.w(circle))
    i = int(np.argmax(vals))
    angle = float(np.angle(circle[i]) % (2 * np.pi))
    spacing = 2 * np.pi / resolution
    value, at, spacing, dbound = _refine(
        lambda th: sign * np.abs(b.w(np.exp(1j * th))),
        angle,
        angle - spacing,
        angle + spacing,
        spacing,
        resolution,
    )
    return max(float(vals[i]), value), at % (2 * np.pi), spacing, dbound


def _interval_max(b: SymbolElement, ts: np.ndarray, resolution: int, interval_fn) -> tuple:
    """Sup of interval_fn on [0, s], searched as _circle_max searches the circle."""
    vals = interval_fn(ts)
    i = int(np.argmax(vals))
    value, at, spacing, dbound = _refine(
        interval_fn, float(ts[i]), 0.0, b.s, float(ts[1] - ts[0]), resolution
    )
    return max(float(vals[i]), value), at, spacing, dbound


def essential_norm_report(b: SymbolElement, resolution: int = 1000) -> NormReport:
    circle, ts = _grids(b, resolution)
    circle = _circle_max(b, circle, resolution, 1)
    interval = _interval_max(b, ts, resolution, lambda ts: _interval_norms(b, ts))
    if circle[0] >= interval[0]:
        return NormReport(circle[0], "circle", *circle[1:])
    return NormReport(interval[0], "interval", *interval[1:])


def essential_norm(b: SymbolElement, resolution: int = 1000) -> float:
    """Sup of the pointwise 2x2 operator norms over the symbol space."""
    return essential_norm_report(b, resolution).value


def is_fredholm(b: SymbolElement, resolution: int = 1000) -> bool:
    """Invertibility of the symbol: w stays away from 0 on the circle and
    the interval matrices stay away from singularity (0 outside the
    essential spectrum, up to the threshold).  The interval side is
    searched only if the circle side passes."""
    circle, ts = _grids(b, resolution)
    return (
        -_circle_max(b, circle, resolution, -1)[0] > TOL.fredholm
        and -_interval_max(b, ts, resolution, lambda ts: -_interval_dets(b, ts))[0]
        > TOL.fredholm
    )


# ---------------------------------------------------------------------------
# the center


def is_central(b: SymbolElement) -> bool:
    """Central elements: no off-diagonal part, f = g, and w(zeta) = w(eta)."""
    eps = TOL.coefficient
    return (
        b.h.is_zero(eps)
        and b.k.is_zero(eps)
        and (b.f - b.g).is_zero(eps)
        and abs(b.w(b.contact.zeta) - b.w(b.contact.eta)) <= eps
    )


def gelfand_value(b: SymbolElement, lam: LambdaPoint) -> complex:
    """Gelfand transform of a central element at a point of the symbol space.

    w extends to the interval by its common boundary value w(zeta) = w(eta);
    f extends to the circle by zero.
    """
    if not is_central(b):
        raise NotCentralError("element is not in the center")
    if lam.kind == "circle":
        return b.w(complex(lam.value))
    if lam.kind == "triple":
        return b.w(b.contact.zeta)
    return b.w(b.contact.zeta) + b.f(float(lam.value))
