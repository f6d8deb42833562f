"""Central numerical tolerances used across the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """The shared thresholds, read through TOL; no function takes an override.

    A few inline thresholds remain in moebius, symbol and oracle.

    projective        -- relative tolerance for projective equality of
                         Moebius coefficient quadruples
    contact           -- band around 0 for the circle maximum B + 2|A| of
                         |az+b|^2 - |cz+d|^2 (coefficients scaled to largest
                         modulus one): above it the map is not a self-map,
                         below it a strict contraction, inside it a contact
                         map, or an automorphism when |A| and |B| both lie
                         within it
    coefficient       -- coefficient-level zero test (centrality, rendering)
    fredholm          -- min |det| / min |w| threshold for invertibility
                         of the symbol
    constancy         -- agreement required between samples of the parabolic
                         translation number
    """

    projective: float = 1e-10
    contact: float = 1e-12
    coefficient: float = 1e-10
    fredholm: float = 1e-8
    constancy: float = 1e-9


TOL = Tolerances()
