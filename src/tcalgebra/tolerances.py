"""Central numerical tolerances used across the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """One record for every threshold; all modules read from here.

    projective        -- relative tolerance for projective equality of
                         Moebius coefficient quadruples
    selfmap_slack     -- allowed excess of sup |phi| over 1 on the circle grid
    contact_disc      -- discriminant size below which the contact quadratic
                         is treated as having a double root
    degenerate_quad   -- coefficient size below which the contact quadratic
                         degenerates: no isolated contact point, and an
                         automorphism when its constant term vanishes too
    circle_samples    -- grid size for the sup |phi| self-map test
    coefficient       -- coefficient-level zero test (centrality, rendering)
    fredholm          -- min |det| / min |w| threshold for invertibility
                         of the symbol
    constancy         -- agreement required between samples of the parabolic
                         translation number
    """

    projective: float = 1e-10
    selfmap_slack: float = 1e-9
    contact_disc: float = 1e-9
    degenerate_quad: float = 1e-12
    circle_samples: int = 4096
    coefficient: float = 1e-10
    fredholm: float = 1e-8
    constancy: float = 1e-9


TOL = Tolerances()
