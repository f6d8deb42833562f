"""The finite-section criteria of the verify battery reject wrong claims.

AC9 and AC10 judge rates rather than floors or fills, so each criterion
is run here on inputs for which the claim is false, at the sizes the
battery uses: nonzero cosets, whose column norms decay like n^(-1/4),
and intervals widened past the essential spectrum, whose fill levels off
at the overshoot.
"""

import pytest

from tcalgebra import verify


@pytest.mark.parametrize("expr", ["C' - S", "C' - 3*S", "T{z}*C - C*T{z}"])
def test_decay_criterion_rejects_nonzero_cosets(expr):
    # C' - S and C' - 3*S are S and -S modulo the compacts, and the shift
    # commutator is essentially nonzero over phi0, whose contact point moves
    res = verify.decay_claim("AC9.wrong", expr, verify.PHI0, 512, 64, expr)
    assert not res.passed
    assert -0.35 < res.extra["decay_exponent"] < -0.15


def test_decay_criterion_needs_two_fit_columns():
    res = verify.decay_claim("AC9.short", "C' - 2*S", verify.PHI0, 8, 2, "")
    assert not res.passed
    assert res.extra["decay_exponent"] is None


@pytest.mark.parametrize("name, expr, lo, hi", verify._AC10_CASES)
def test_fill_criterion_rejects_widened_intervals(name, expr, lo, hi):
    # endpoints scaled by 1.1: every interval is 10% longer
    res = verify.fill_claim(
        f"AC10.wide_{name}", expr, verify.PHI0, 1.1 * lo, 1.1 * hi, [128, 256, 512]
    )
    assert not res.passed


@pytest.mark.parametrize("ids", [["AC12"], ["ac2"], ["AC2", "AC9.adjoint"]])
def test_run_claims_rejects_unknown_ids(ids):
    # ids name groups of MANIFEST; anything else is an error, not an empty run
    with pytest.raises(ValueError, match=f"unknown claim ids \\['{ids[-1]}'\\]"):
        verify.run_claims(ids)
