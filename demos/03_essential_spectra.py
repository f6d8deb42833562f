"""
Essential spectra as explicit plane curves
==========================================

The 2x2 symbol makes essential spectra computable: the spectrum is the
union of the Toeplitz symbol's circle image with the eigenvalue image of
the interval matrices.  For words in the generators these images are
classical curves: intervals, parabolas, perpendicular segments, circles.
"""

import numpy as np

from tcalgebra import (
    MoebiusMap,
    boundary_contact,
    essential_spectrum,
    normalize,
    parse,
    spectrum_branches,
)

phi = MoebiusMap(-1, -1, 0, 2)
contact = boundary_contact(phi)  # s = 2


def interval_points(text, resolution=2001):
    _, plus, minus = spectrum_branches(normalize(parse(text), contact), resolution)
    return np.concatenate([plus, minus])


# Real part of C: the interval [-sqrt(s), sqrt(s)].
pts = essential_spectrum(normalize(parse("C + C'"), contact), 2001)
print(f"C + C'          -> real interval [{pts.real.min():+.6f}, {pts.real.max():+.6f}]")

# Self-commutator and anti-commutator: [-s, s] and [0, s].
for text in ("C'*C - C*C'", "C'*C + C*C'"):
    pts = essential_spectrum(normalize(parse(text), contact), 2001)
    print(f"{text:15} -> real interval [{pts.real.min():+.6f}, {pts.real.max():+.6f}]")

# A parabola: points z = y^2 + iy for |y| <= 1.
pts = interval_points("S*C + C*S + C - S")
parabola_residual = np.max(np.abs(pts.real - pts.imag**2))
print(f"\nS*C + C*S + C - S lies on y^2 + iy:   max residual {parabola_residual:.2e}")

# Two perpendicular segments: [-1/sqrt2, 1/sqrt2] and [-i/4, i/4].
pts = interval_points("S*C - C*S + 0.5*C - S")
on_real = pts[np.abs(pts.imag) < 1e-12]
on_imag = pts[np.abs(pts.real) < 1e-12]
print(
    "S*C - C*S + 0.5*C - S splits into segments: "
    f"real span {on_real.real.max():.6f}, imaginary span {on_imag.imag.max():.6f}"
)

# A circle: |z - 1/2| = 1/2.
pts = interval_points("2*S*C + C - S")
circle_residual = np.max(np.abs(np.abs(pts - 0.5) - 0.5))
print(f"2*S*C + C - S lies on |z - 1/2| = 1/2: max residual {circle_residual:.2e}")

# Adding a Toeplitz part with w(zeta) != w(eta) deforms the interval of
# C + C' into two square-root arcs +-sqrt(t + i r^2).
for r in (0.0, 1.0):
    coeff = -r * (1 + 1j) / np.sqrt(2)
    text = f"T{{({coeff.real!r},{coeff.imag!r})*z}} + C + C'"
    pts = interval_points(text, 1001)
    ts = np.linspace(0, contact.s, 1001)
    expected = np.concatenate([np.sqrt(ts + 1j * r**2), -np.sqrt(ts + 1j * r**2)])
    residual = np.max(np.abs(np.sort_complex(pts) - np.sort_complex(expected)))
    print(f"r = {r:g}: interval branch matches +-sqrt(t + {r**2:g} i), residual {residual:.2e}")
