"""Acceptance battery: one test and one printed pass/fail line per criterion.

Every criterion runs at its stated tolerance over the reference map
phi0(z) = -(1+z)/2 (contact 1 -> -1, s = 2).  Criteria 9 and 10 check
the finite sections by the rates the exact compressions obey, since the
paper fixes only limits: compact-coset column norms decay like n^(-3/4)
against n^(-1/4) for a nonzero coset, so the fitted exponent over the
window-64 columns at N=512 must be at most -1/2; and eigenvalue fill
falls like N^(-1/2), so each doubling of N from 128 to 512 must shrink
it by 2^(-1/4).  The floors (about 0.02) and the final fills are printed
as measured values; no threshold is set on them.  Each test runs its
group through ``verify.run_claims``, the entry point of ``tcalgebra
verify``, at that command's default sizes.
"""

from tcalgebra import verify


def _report(cid: str) -> None:
    results = verify.run_claims([cid])
    ok = all(r.passed for r in results)
    print(f"{cid}: {'PASS' if ok else 'FAIL'}")
    for r in results:
        measured = "" if r.measured is None else f" measured={r.measured:.6g}"
        threshold = "" if r.threshold is None else f" threshold={r.threshold:.6g}"
        print(f"    {'PASS' if r.passed else 'FAIL'} {r.claim}{measured}{threshold}")
    assert ok, "; ".join(
        f"{r.claim}: measured={r.measured} threshold={r.threshold} extra={r.extra}"
        for r in results
        if not r.passed
    )


def test_criterion_1_krein_contact_battery():
    _report("AC1")


def test_criterion_2_real_part_spectrum():
    _report("AC2")


def test_criterion_3_commutator_spectra():
    _report("AC3")


def test_criterion_4_parabolic_curve():
    _report("AC4")


def test_criterion_5_two_segments():
    _report("AC5")


def test_criterion_6_circle_identity():
    _report("AC6")


def test_criterion_7_essential_norm_and_deformation():
    _report("AC7")


def test_criterion_8_homomorphism_property():
    _report("AC8")


def test_criterion_9_oracle_compactness_floors():
    _report("AC9")


def test_criterion_10_oracle_spectral_fill():
    _report("AC10")


def test_criterion_11_round_trip_and_independence():
    _report("AC11")
