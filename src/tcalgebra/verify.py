"""Built-in verification battery over the reference map phi0(z) = -(1+z)/2.

Each claim is keyed AC1..AC11 so CI output lines map one-to-one onto the
acceptance criteria of the package.  Claims AC1-AC8 and AC11 exercise the
exact symbol calculus; AC9 and AC10 compare it against the finite-section
oracle.  Every claim reports the measured quantity next to its threshold,
or, for the finite-section rate claims, next to the criterion in ``extra``.

The battery is one table, ``MANIFEST``, from group id to rows.  A row
names a claim id, the map it runs on, a criterion and its arguments;
``run_claims`` calls ``criterion(claim id, map, sizes, *args)`` with the
same ``Sizes`` for every row, and collects the ClaimResults it returns.

The finite-section claims state what the exact compressions show, since
the paper fixes only limits and no finite-N value.  A compact coset's
column norms decay like n^(-3/4) and a nonzero one's like n^(-1/4), so
AC9.adjoint and AC9.commutator_fix require a fitted decay exponent of at
most -1/2; their window-64 floors (about 0.02, the exact norms of column
63) are reported in ``floor_or_fill`` and judged by no threshold.  The
eigenvalue fill of an essential-spectrum interval falls like N^(-1/2),
so each AC10.fill_* claim requires every doubling of N to shrink the fill
by at least 2^(-1/4); the final fill is reported the same way.  Both
criteria fail on wrong inputs: a nonzero coset such as C' - S, and an
interval widened past the essential spectrum.
"""

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .moebius import MoebiusMap, boundary_contact, classify, parabolic_translation
from .rings import HalfPolynomial, TrigPolynomial
from . import oracle, rewriter, symbol
from .symbol import LambdaPoint, SymbolElement, TRIPLE_POINT, phi_lambda

PHI0 = MoebiusMap(-1, -1, 0, 2)
RHO0 = MoebiusMap(1, 1, 0, 2)
SQRT2 = math.sqrt(2.0)
# Residual allowed to every closed-form spectrum (AC2-AC6, AC7.deform_*)
SPECTRUM_TOL = 1e-9


@dataclass
class ClaimResult:
    claim: str
    passed: bool
    description: str
    measured: float | None = None
    threshold: float | None = None
    n: int | None = None
    window: int | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "pass": self.passed,
            "description": self.description,
            "N": self.n,
            "window": self.window,
            "floor_or_fill": self.measured,
            "threshold": self.threshold,
            **({"extra": self.extra} if self.extra else {}),
        }


class Sizes(NamedTuple):
    """The sizes every row receives: oracle N, AC9 window, sweep resolution."""
    n: int
    window: int
    resolution: int


class Row(NamedTuple):
    """One row of the battery: criterion(cid, phi, sizes, *args) -> [ClaimResult]."""
    cid: str
    phi: MoebiusMap
    criterion: Callable[..., list[ClaimResult]]
    args: tuple = ()


def _contact(phi: MoebiusMap):
    contact = boundary_contact(phi)
    assert contact is not None
    return contact


def _normalize(text: str, phi: MoebiusMap) -> SymbolElement:
    return rewriter.normalize(rewriter.parse(text), _contact(phi))


def _bounded(
    cid: str, measured: float, threshold: float, description: str,
    ok: bool = True, extra: dict | None = None,
) -> list[ClaimResult]:
    """The one result of a claim that holds when measured <= threshold and ok."""
    passed = measured <= threshold and ok
    return [ClaimResult(cid, passed, description, measured, threshold, extra=extra or {})]


# -----------------------------------------------------------------------
# AC1: Krein adjoint, contact data, scalar s, parabolic translation


def _krein_contact(cid: str, phi: MoebiusMap, sizes: Sizes) -> list[ClaimResult]:
    sigma = phi.krein_adjoint
    expected_sigma = MoebiusMap(-1, 0, 1, 2)
    v = np.array(sigma.coeffs())
    w = np.array(expected_sigma.coeffs())
    cross = max(
        abs(v[i] * w[j] - v[j] * w[i]) for i in range(4) for j in range(i + 1, 4)
    )

    contact = _contact(phi)
    dprod = abs(phi.derivative(contact.zeta) * sigma.derivative(contact.eta) - 1)

    a, b, c, d = phi.coeffs()
    quotient = (
        c.conjugate() * contact.zeta.conjugate() + d.conjugate()
    ) / (-b.conjugate() * contact.eta + d.conjugate())
    s_dev = max(abs(contact.s - 2.0), abs(quotient - 2.0))
    s_alt = abs(abs(sigma.derivative(contact.eta)) - 2.0)

    tau = phi.compose(sigma)
    tau_class = classify(tau)
    translation = parabolic_translation(tau)
    t_dev = abs(translation - 2.0)

    return _bounded(
        cid,
        max(cross, dprod, s_dev, s_alt, t_dev),
        1e-12,
        "Krein adjoint -z/(z+2); phi'(1)sigma'(-1)=1; s=2 both ways; "
        "phi.sigma parabolic with translation 2",
        ok=tau_class.kind.value == "contact" and tau_class.parabolic,
        extra={"translation": [translation.real, translation.imag]},
    )


# -----------------------------------------------------------------------
# AC2-AC6: closed-form essential spectra

# Which of spectrum_branches' (circle, interval+, interval-) a claim judges
_WHOLE = slice(0, 3)
_INTERVAL = slice(1, 3)


def _spectrum(
    cid: str, phi: MoebiusMap, sizes: Sizes,
    expr: str, part: slice, check: Callable, description: str,
) -> list[ClaimResult]:
    """Judge the part of the spectrum of expr by check(points, resolution).

    The check returns the residual from the closed form, which must be at
    most SPECTRUM_TOL, whether its other conditions hold, and ``extra``.
    """
    branches = symbol.spectrum_branches(_normalize(expr, phi), sizes.resolution)
    residual, ok, extra = check(np.concatenate(branches[part]), sizes.resolution)
    return _bounded(cid, residual, SPECTRUM_TOL, description, ok, extra)


def _segment(lo: float, hi: float) -> Callable:
    """Check that the points are real with extremes lo and hi."""

    def check(pts, resolution):
        ends = abs(float(np.min(pts.real)) - lo), abs(float(np.max(pts.real)) - hi)
        return max(float(np.max(np.abs(pts.imag))), *ends), True, {}

    return check


def _filled_segment(lo: float, hi: float) -> Callable:
    """_segment, with no hole in [lo, hi] wider than the image-grid spacing."""

    def check(pts, resolution):
        xs = np.sort(pts.real)
        gap = float(np.max(np.diff(xs)))
        targets = np.linspace(lo, hi, 1001)
        fill = float(np.max(np.min(np.abs(targets[:, None] - xs[None, :]), axis=1)))
        residual = _segment(lo, hi)(pts, resolution)[0]
        return residual, fill <= gap + 1e-12, {"fill": fill, "image_gap": gap}

    return check


def _parabola(pts, resolution):
    """The points lie on x = y^2 with |y| <= 1."""
    y_range = float(np.max(np.abs(pts.imag)))
    residual = float(np.max(np.abs(pts.real - pts.imag**2)))
    return residual, y_range <= 1.0 + SPECTRUM_TOL, {"max_abs_y": y_range}


def _two_segments(pts, resolution):
    """The points lie on [-1/sqrt2, 1/sqrt2] U [-i/4, i/4] and reach its
    four ends to two grid spacings."""
    real_res = np.hypot(pts.imag, np.maximum(np.abs(pts.real) - 1 / SQRT2, 0.0))
    imag_res = np.hypot(pts.real, np.maximum(np.abs(pts.imag) - 0.25, 0.0))
    residual = float(np.max(np.minimum(real_res, imag_res)))

    spacing = 2.0 / (resolution - 1)
    acc = 2 * spacing
    extremes = (
        float(np.max(pts.real)) >= 1 / SQRT2 - acc
        and float(np.min(pts.real)) <= -1 / SQRT2 + acc
        and float(np.max(pts.imag)) >= 0.25 - acc
        and float(np.min(pts.imag)) <= -0.25 + acc
    )
    return residual, extremes, {"grid_accuracy": acc}


def _half_circle(pts, resolution):
    """The points lie on the circle |z - 1/2| = 1/2."""
    return float(np.max(np.abs(np.abs(pts - 0.5) - 0.5))), True, {}


# -----------------------------------------------------------------------
# AC7: essential norm sqrt(3) and the deformed square-root arcs


def _essential_norm(cid: str, phi: MoebiusMap, sizes: Sizes) -> list[ClaimResult]:
    contact = _contact(phi)
    norm = symbol.essential_norm(_normalize("T{z} + C + C'", phi), sizes.resolution)

    # closed form for ||T_z + C + C'||_e^2 over this contact data
    s = contact.s
    closed = math.sqrt(
        1.0 + s + math.sqrt(2.0 * s) * math.sqrt(1.0 + (contact.zeta * contact.eta).real)
    )
    dev = max(abs(norm - math.sqrt(3.0)), abs(norm - closed))
    return _bounded(
        cid, dev, 1e-6, "essential norm of T_z + C + C' equals sqrt(3) and the closed form"
    )


def _deformed_arcs(cid: str, phi: MoebiusMap, sizes: Sizes, r: float) -> list[ClaimResult]:
    contact = _contact(phi)
    w = TrigPolynomial({1: -r * (1 + 1j) / SQRT2})
    cphi = symbol.embed_cphi(contact)
    br = symbol.embed_toeplitz(w, contact) + cphi + cphi.adjoint()
    _, plus, minus = symbol.spectrum_branches(br, sizes.resolution)
    expected = np.sqrt(np.linspace(0.0, contact.s, sizes.resolution) + 1j * r**2)
    residual = max(float(np.max(np.abs(plus - expected))), float(np.max(np.abs(minus + expected))))
    return _bounded(
        cid, residual, SPECTRUM_TOL,
        f"interval branch of T_w + C + C' equals +-sqrt(t + {int(r)}i)",
    )


# -----------------------------------------------------------------------
# AC8 and AC11: random elements


def _random_element(rng: np.random.Generator, contact, degrees) -> SymbolElement:
    """w with coefficients at z^-2..z^2, and slots f, g, h, k whose p (after
    its zero constant term) and q have the lengths given in degrees."""

    def cx(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5

    w = TrigPolynomial({n: c for n, c in zip(range(-2, 3), cx(5))})
    slots = [HalfPolynomial(np.concatenate([[0], cx(p)]), cx(q)) for p, q in degrees]
    return SymbolElement(w, *slots, contact)


def _random_point(rng: np.random.Generator, s: float) -> LambdaPoint:
    r = rng.random()
    if r < 0.4:
        return LambdaPoint.circle(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    if r < 0.5:
        return TRIPLE_POINT
    return LambdaPoint.interval(rng.uniform(1e-6, s))


def _homomorphism(
    cid: str, phi: MoebiusMap, sizes: Sizes, trials: int, seed: int
) -> list[ClaimResult]:
    contact = _contact(phi)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        b1 = _random_element(rng, contact, [(2, 2)] * 4)
        b2 = _random_element(rng, contact, [(2, 2)] * 4)
        lam = _random_point(rng, contact.s)
        left = phi_lambda(b1 * b2, lam)
        right = phi_lambda(b1, lam) @ phi_lambda(b2, lam)
        star = phi_lambda(b1.adjoint(), lam) - phi_lambda(b1, lam).conj().T
        worst = max(worst, float(np.max(np.abs(left - right))), float(np.max(np.abs(star))))
    return _bounded(
        cid, worst, 1e-10,
        f"{trials} random triples: Phi(b1 b2) = Phi(b1)Phi(b2), Phi(b*) = Phi(b)*",
    )


def _roundtrip(
    cid: str, phi: MoebiusMap, sizes: Sizes, trials: int, seed: int
) -> list[ClaimResult]:
    contact = _contact(phi)
    rng = np.random.default_rng(seed)
    exact = 0
    for _ in range(trials):
        # elements of the generator ring: f and g in t, h and k in sqrt(t)
        b = _random_element(rng, contact, [(3, 0), (3, 0), (0, 3), (0, 3)])
        text = rewriter.to_composition_sum(b)
        back = rewriter.normalize(rewriter.parse(text), contact)
        if back.equals_exact(b):
            exact += 1
    return _bounded(
        cid, float(trials - exact), 0.0,
        f"normalize(parse(to_composition_sum(b))) = b exactly for {trials} random elements",
    )


def _independence(cid: str, phi: MoebiusMap, sizes: Sizes) -> list[ClaimResult]:
    # linear independence of the generator quintuples: each word's quintuple
    # is the one expected monomial in its slot and zero in the other slots
    u = 1 / _contact(phi).s
    table = [("f", "*".join(["S*C"] * m), HalfPolynomial.t_power(m, u**m)) for m in range(1, 5)]
    table += [("g", "*".join(["C*S"] * m), HalfPolynomial.t_power(m, u**m)) for m in range(1, 5)]
    table += [("h", "C" + "*S*C" * m, HalfPolynomial((), [0] * m + [u**m])) for m in range(4)]
    table += [("k", "S" + "*C*S" * m, HalfPolynomial((), [0] * m + [u ** (m + 1)])) for m in range(4)]
    independent = True
    for slot, word, monomial in table:
        b = _normalize(word, phi)
        independent &= all(
            getattr(b, x).equals_exact(monomial) if x == slot else getattr(b, x).is_zero()
            for x in "fghk"
        )
    description = "composition-family generators occupy distinct monomial slots"
    return [ClaimResult(cid, independent, description)]


# -----------------------------------------------------------------------
# AC9: compactness of cosets from the finite sections

# A zero coset's column norms fall off like n^(-3/4), because its
# multiplier vanishes to first order at the contact point; a nonzero
# coset's fall off like n^(-1/4) (||phi0^n|| ~ (pi n)^(-1/4)).  The bound
# is the midpoint of the two exponents.
AC9_EXPONENT_BOUND = -0.5


def decay_claim(
    claim_id: str, expr: str, phi: MoebiusMap, n: int, window: int, description: str
) -> ClaimResult:
    """Claim that the column norms ||M e_j|| of expr decay faster than j^(-1/2).

    The exponent is the least-squares slope of log ||M e_j|| against log j
    over columns [window/2, window), so it needs window >= 3.  The floor
    (the smallest norm in the window) is reported but judged by no
    threshold: the images of the weakly null monomials tend to zero in
    norm for a nonzero coset too, only more slowly, so no floor at a fixed
    window tells the two apart.  ``extra`` also names the first column at
    which the fitted power law is below 0.01.
    """
    norms = oracle.vanishing_sequence(expr, phi, n, window)
    exponent = reach = None
    if window >= 3:
        cols = np.arange(window // 2, window)
        slope, intercept = np.polyfit(np.log(cols), np.log(norms[cols]), 1)
        exponent = float(slope)
        log_reach = (math.log(0.01) - intercept) / exponent if exponent < 0 else math.inf
        if log_reach < 700:  # math.exp overflows past about 709
            reach = math.ceil(math.exp(log_reach))
    return ClaimResult(
        claim_id,
        exponent is not None and exponent <= AC9_EXPONENT_BOUND,
        description,
        measured=float(np.min(norms)),
        n=n,
        window=window,
        extra={
            "decay_exponent": exponent,
            "exponent_bound": AC9_EXPONENT_BOUND,
            "fit_columns": [window // 2, window],
            "fit_reaches_0.01_at_column": reach,
        },
    )


def _decay(
    cid: str, phi: MoebiusMap, sizes: Sizes, expr: str, description: str
) -> list[ClaimResult]:
    return [decay_claim(cid, expr, phi, sizes.n, sizes.window, description)]


def _floor(
    cid: str, phi: MoebiusMap, sizes: Sizes,
    expr: str, threshold: float, below: bool, description: str,
) -> list[ClaimResult]:
    floor = float(np.min(oracle.vanishing_sequence(expr, phi, sizes.n, sizes.window)))
    passed = floor < threshold if below else floor > threshold
    return [ClaimResult(cid, passed, description, floor, threshold, sizes.n, sizes.window)]


# -----------------------------------------------------------------------
# AC10: eigenvalue fill of the symmetrized compressions


# The number of eigenvalues near the ends of the interval grows like
# sqrt(N), so the fill falls like N^(-1/2); the bound asks for half that
# exponent.  A grid reaching past the essential spectrum levels off at
# its overshoot and fails.
AC10_RATIO_BOUND = 2 ** -0.25

_AC10_CASES = (
    ("anti", "C'*C + C*C'", 0.0, 2.0),
    ("real_part", "C + C'", -SQRT2, SQRT2),
    ("self", "C'*C - C*C'", -2.0, 2.0),
)


def fill_claim(
    claim_id: str, expr: str, phi: MoebiusMap, lo: float, hi: float, sizes: list[int]
) -> ClaimResult:
    """Claim that the eigenvalues of the compressions of expr fill [lo, hi].

    The fill distance of a 101-point grid on [lo, hi] is measured at each
    size; each doubling of N must shrink it by at least 2^(-1/4) (for
    sizes that are not exact doublings the ratio is taken per doubling).
    The fill at the largest size is reported, not judged: the limit is
    fixed by the essential spectrum, but no finite-N value is.
    """
    grid = np.linspace(lo, hi, 101)
    fills = [
        oracle.fill_distance(grid, oracle.compression_eigs(expr, phi, size))
        for size in sizes
    ]
    ratios = [
        (f1 / f0) ** (1.0 / math.log2(n1 / n0))
        for n0, n1, f0, f1 in zip(sizes, sizes[1:], fills, fills[1:])
    ]
    return ClaimResult(
        claim_id,
        all(r <= AC10_RATIO_BOUND for r in ratios),
        f"fill distance of [{lo:.4g}, {hi:.4g}] grid shrinks by 2^(-1/4) "
        f"per doubling over N={sizes}",
        measured=fills[-1],
        n=sizes[-1],
        extra={
            "fills": {str(k): v for k, v in zip(sizes, fills)},
            "ratios_per_doubling": ratios,
            "ratio_bound": AC10_RATIO_BOUND,
        },
    )


def _fill(
    cid: str, phi: MoebiusMap, sizes: Sizes, expr: str, lo: float, hi: float
) -> list[ClaimResult]:
    """fill_claim over N/4, N/2 and N, then the AC10.monotone_* claim on
    the same fills."""
    ns = [sizes.n // 4, sizes.n // 2, sizes.n]
    fill = fill_claim(cid, expr, phi, lo, hi, ns)
    fills = list(fill.extra["fills"].values())
    monotone = ClaimResult(
        cid.replace("fill", "monotone"),
        all(b_ <= 1.1 * a_ for a_, b_ in zip(fills, fills[1:])),
        f"fill distance non-increasing over N={ns} within 10%",
        n=ns[-1],
        extra={"fills": fill.extra["fills"]},
    )
    return [fill, monotone]


# -----------------------------------------------------------------------
# The table, in report order; a claim's group is its id up to the first "."

CLAIMS = (
    Row("AC1", PHI0, _krein_contact),
    Row("AC2", PHI0, _spectrum, (
        "C + C'", _WHOLE, _filled_segment(-SQRT2, SQRT2),
        "sigma_e(C + C') = [-sqrt(2), sqrt(2)]: real, endpoints to 1e-9, "
        "no holes beyond the image-grid spacing")),
    Row("AC3.self", PHI0, _spectrum, (
        "C'*C - C*C'", _WHOLE, _segment(-2.0, 2.0), "self-commutator fills [-2, 2]")),
    Row("AC3.anti", PHI0, _spectrum, (
        "C'*C + C*C'", _WHOLE, _segment(0.0, 2.0), "anti-commutator fills [0, 2]")),
    Row("AC4", PHI0, _spectrum, (
        "S*C + C*S + C - S", _INTERVAL, _parabola,
        "interval branch of C_{phi.sigma}+C_{sigma.phi}+C-S on the curve y^2 +- iy, |y| <= 1")),
    Row("AC5", PHI0, _spectrum, (
        "S*C - C*S + 0.5*C - S", _INTERVAL, _two_segments,
        "interval branch on [-1/sqrt2, 1/sqrt2] U [-i/4, i/4] with extremes attained")),
    Row("AC6", PHI0, _spectrum, (
        "2*S*C + C - S", _INTERVAL, _half_circle,
        "interval branch of 2C_{phi.sigma}+C-S on the circle |z - 1/2| = 1/2")),
    Row("AC7.norm", PHI0, _essential_norm),
    Row("AC7.deform_r0", PHI0, _deformed_arcs, (0.0,)),
    Row("AC7.deform_r1", PHI0, _deformed_arcs, (1.0,)),
    Row("AC8", PHI0, _homomorphism, (1000, 20260809)),
    Row("AC9.adjoint", PHI0, _decay, (
        "C' - 2*S", "C' - 2S has compact remainder: column norms decay faster than n^(-1/2)")),
    Row("AC9.toeplitz", PHI0, _floor, (
        "T{z}*T{z^-1+z^2} - T{1+z^3}", 0.01, True, "semi-commutator T_v T_w - T_vw is compact")),
    Row("AC9.commutator_fix", RHO0, _decay, (
        "T{z}*C - C*T{z}",
        "shift commutator is compact when the contact point is fixed: column norms decay "
        "faster than n^(-1/2)")),
    Row("AC9.commutator_move", PHI0, _floor, (
        "T{z}*C - C*T{z}", 0.1, False,
        "shift commutator stays essentially nonzero when zeta != eta")),
    *(Row(f"AC10.fill_{name}", PHI0, _fill, (expr, lo, hi)) for name, expr, lo, hi in _AC10_CASES),
    Row("AC11.roundtrip", PHI0, _roundtrip, (200, 20260809)),
    Row("AC11.independence", PHI0, _independence),
)

MANIFEST: dict[str, tuple[Row, ...]] = {
    gid: tuple(rows) for gid, rows in groupby(CLAIMS, lambda row: row.cid.split(".")[0])
}


def run_claims(
    ids=None, n: int = 512, window: int = 64, resolution: int = 1000
) -> list[ClaimResult]:
    """Run the battery (or the groups named in ids) and collect results.

    Every row gets the same sizes.  They are checked before any claim
    runs: AC9 reads columns below its window, which must stay within n/2
    (the oracle's truncation-safe half), and AC10 compresses at n//4,
    which must be at least 1.  An id that names no group of MANIFEST is
    a ValueError.
    """
    unknown = [cid for cid in ids or () if cid not in MANIFEST]
    if unknown:
        raise ValueError(f"unknown claim ids {unknown}; the groups are {', '.join(MANIFEST)}")
    groups = [gid for gid in MANIFEST if ids is None or gid in ids]
    if "AC9" in groups and window > n // 2:
        raise ValueError(f"AC9: window must not exceed N/2 (window {window}, N {n})")
    if "AC10" in groups and n < 4:
        raise ValueError(f"AC10: N must be at least 4; its smallest size N//4 = {n // 4}")
    sizes = Sizes(n, window, resolution)
    rows = [row for gid in groups for row in MANIFEST[gid]]
    return [res for row in rows for res in row.criterion(row.cid, row.phi, sizes, *row.args)]
