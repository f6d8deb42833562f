import json

import numpy as np
import pytest

from tcalgebra import (
    AutomorphismError,
    ContactData,
    DegenerateMapError,
    MapKind,
    MoebiusMap,
    NotParabolicError,
    NotSelfMapError,
    boundary_contact,
    classify,
    identity_map,
    parabolic_translation,
    rotation,
)
from tcalgebra.moebius import MapFormatError

from conftest import pole_contact_map, psi_t, random_contact_map

# Random contact maps: Cayley-conjugated half-plane contractions, and
# finite-pole maps whose boundary data are known in closed form.
CONTACT_FAMILIES = (random_contact_map, lambda rng: pole_contact_map(rng)[0])


def test_degenerate_rejected():
    with pytest.raises(DegenerateMapError):
        MoebiusMap(1, 2, 2, 4)


@pytest.mark.parametrize("coeffs, key", [((np.nan, 0, 0, 1), "'a'"), ((1, 0, 0, complex(0, np.inf)), "'d'")])
def test_non_finite_rejected(coeffs, key):
    with pytest.raises(MapFormatError, match=f"coefficient {key} is not finite"):
        MoebiusMap(*coeffs)


class TestCompose:
    def test_identity_neutral(self, phi0):
        assert identity_map().compose(phi0).approx_equal(phi0)
        assert phi0.compose(identity_map()).approx_equal(phi0)

    def test_phi_sigma_product(self, phi0, sigma0):
        tau = phi0.compose(sigma0)
        assert tau.approx_equal(MoebiusMap(0, -1, 1, 2))
        # cross-check by evaluating both sides pointwise
        for z in (0.0, 0.5, 1j):
            assert abs(tau(z) - phi0(sigma0(z))) < 1e-14
            assert abs(tau(z) - (-1 / (z + 2))) < 1e-14

    def test_rotation_group_law(self):
        a, b = np.exp(0.7j), np.exp(-1.3j)
        assert rotation(a).compose(rotation(b)).approx_equal(rotation(a * b))


class TestKreinAdjoint:
    def test_phi0(self, phi0):
        assert phi0.krein_adjoint.approx_equal(MoebiusMap(-1, 0, 1, 2))
        assert abs(phi0.krein_adjoint(0.3) - (-0.3 / 2.3)) < 1e-15

    def test_involution_random(self, rng):
        for _ in range(50):
            coeffs = rng.standard_normal(8)
            try:
                m = MoebiusMap(
                    complex(coeffs[0], coeffs[1]),
                    complex(coeffs[2], coeffs[3]),
                    complex(coeffs[4], coeffs[5]),
                    complex(coeffs[6], coeffs[7]),
                )
            except DegenerateMapError:
                continue
            assert m.krein_adjoint.krein_adjoint.approx_equal(m)

    def test_rotation_adjoint_is_inverse(self):
        alpha = np.exp(0.9j)
        assert rotation(alpha).krein_adjoint.approx_equal(rotation(alpha.conjugate()))

    def test_anti_homomorphism(self, rng):
        for _ in range(25):
            m1 = random_contact_map(rng)
            m2 = random_contact_map(rng)
            left = m1.compose(m2).krein_adjoint
            right = m2.krein_adjoint.compose(m1.krein_adjoint)
            assert left.approx_equal(right)


class TestClassify:
    def test_phi0_contact(self, phi0):
        cls = classify(phi0)
        assert cls.kind == MapKind.CONTACT
        assert not cls.parabolic
        assert abs(cls.contact.zeta - 1) < 1e-12
        assert abs(cls.contact.eta + 1) < 1e-12

    def test_half_map_contraction(self):
        assert classify(MoebiusMap(1, 0, 0, 2)).kind == MapKind.STRICT_CONTRACTION

    def test_psi2_parabolic(self):
        cls = classify(psi_t(2.0))
        assert cls.kind == MapKind.CONTACT
        assert cls.parabolic
        assert abs(cls.contact.zeta - 1) < 1e-9
        assert abs(cls.contact.eta - 1) < 1e-9

    def test_rotation_automorphism(self):
        cls = classify(rotation(np.exp(0.4j)))
        assert cls.kind == MapKind.AUTOMORPHISM
        assert cls.automorphism_kind == "elliptic"

    def test_disk_automorphism_hyperbolic(self):
        # (z+1/2)/(1+z/2) fixes +-1
        cls = classify(MoebiusMap(1, 0.5, 0.5, 1))
        assert cls.kind == MapKind.AUTOMORPHISM
        assert cls.automorphism_kind == "hyperbolic"

    def test_expansion_rejected(self):
        assert classify(MoebiusMap(1, 1, 0, 1)).kind == MapKind.NOT_SELF_MAP

    def test_pole_in_disk_rejected(self):
        assert classify(MoebiusMap(0, 1, 1, 0.5)).kind == MapKind.NOT_SELF_MAP

    @pytest.mark.parametrize("k", range(3, 11))
    def test_scaled_by_r_near_one(self, phi0, rng, k):
        # r z and r phi for a contact phi: the circle maximum of |r phi| is r,
        # so the class turns from strict contraction to not a self-map at r = 1.
        for m in (identity_map(), phi0, pole_contact_map(rng)[0]):
            for r, kind in (
                (1 - 10.0**-k, MapKind.STRICT_CONTRACTION),
                (1 + 10.0**-k, MapKind.NOT_SELF_MAP),
            ):
                assert classify(MoebiusMap(r * m.a, r * m.b, m.c, m.d)).kind == kind, (r, m)


class TestBoundaryContact:
    def test_phi0(self, phi0):
        c = boundary_contact(phi0)
        assert abs(c.zeta - 1) < 1e-12
        assert abs(c.eta + 1) < 1e-12
        assert abs(c.dphi + 0.5) < 1e-12
        assert abs(c.s - 2.0) < 1e-12

    def test_rho0_fixed_point(self, rho0):
        c = boundary_contact(rho0)
        assert abs(c.zeta - 1) < 1e-12
        assert abs(c.eta - 1) < 1e-12
        assert abs(c.dphi - 0.5) < 1e-12
        assert abs(c.s - 2.0) < 1e-12

    def test_contraction_has_none(self):
        assert boundary_contact(MoebiusMap(1, 0, 0, 2)) is None

    def test_near_rotation_contraction_has_none(self):
        # The contact quadratic's A vanishes and B = -2e-9 < 0: |phi| < 1 on
        # the whole circle, so there is no contact point to report.
        m = MoebiusMap(1 - 1e-9, 0, 0, 1j)
        assert classify(m).kind == MapKind.STRICT_CONTRACTION
        assert boundary_contact(m) is None

    def test_automorphism_raises(self):
        with pytest.raises(AutomorphismError):
            boundary_contact(rotation(1j))

    @pytest.mark.parametrize("m", [MoebiusMap(0, 1, 2, 0), MoebiusMap(0, 1, 1, 0)])
    def test_pole_in_closed_disk_raises(self, m):
        # 1/(2z) and 1/z: classify and boundary_contact agree.
        assert classify(m).kind == MapKind.NOT_SELF_MAP
        with pytest.raises(NotSelfMapError):
            boundary_contact(m)

    def test_pole_family_matches_construction(self, rng):
        for _ in range(20):
            m, zeta, eta, s = pole_contact_map(rng)
            cls = classify(m)
            assert cls.kind == MapKind.CONTACT
            for c in (cls.contact, boundary_contact(m)):
                assert abs(c.zeta - zeta) < 1e-12
                assert abs(c.eta - eta) < 1e-12
                assert abs(c.s - s) < 1e-12 * s
            assert abs(1 / abs(m.derivative(zeta)) - s) < 1e-12 * s
            assert abs(abs(m.krein_adjoint.derivative(eta)) - s) < 1e-12 * s

    def test_contact_duality(self, rng):
        # if phi touches at zeta -> eta, sigma touches at eta -> zeta
        for make_contact_map in CONTACT_FAMILIES:
            for _ in range(20):
                m = make_contact_map(rng)
                c = boundary_contact(m)
                cs = boundary_contact(m.krein_adjoint)
                assert abs(cs.zeta - c.eta) < 1e-7
                assert abs(cs.eta - c.zeta) < 1e-7

    def test_derivative_product(self, rng):
        for make_contact_map in CONTACT_FAMILIES:
            for _ in range(20):
                m = make_contact_map(rng)
                c = boundary_contact(m)
                prod = m.derivative(c.zeta) * m.krein_adjoint.derivative(c.eta)
                assert abs(prod - 1.0) < 1e-12

    def test_scaling_invariance(self, rng):
        for make_contact_map in CONTACT_FAMILIES:
            for _ in range(20):
                m = make_contact_map(rng)
                lam = complex(rng.standard_normal(), rng.standard_normal())
                if abs(lam) < 1e-3:
                    continue
                scaled = MoebiusMap(lam * m.a, lam * m.b, lam * m.c, lam * m.d)
                c1, c2 = boundary_contact(m), boundary_contact(scaled)
                assert abs(c1.zeta - c2.zeta) < 1e-12
                assert abs(c1.eta - c2.eta) < 1e-12
                assert abs(c1.s - c2.s) < 1e-12

    def test_s_formula_agreement(self, rng):
        # s equals the coefficient quotient on any representative
        for make_contact_map in CONTACT_FAMILIES:
            for _ in range(20):
                m = make_contact_map(rng)
                c = boundary_contact(m)
                a, b, _c, d = m.coeffs()
                quotient = (_c.conjugate() * c.zeta.conjugate() + d.conjugate()) / (
                    -b.conjugate() * c.eta + d.conjugate()
                )
                assert abs(quotient - c.s) < 1e-9 * max(1.0, c.s)


class TestDerivative:
    def test_phi0_at_one(self, phi0):
        assert abs(phi0.derivative(1.0) + 0.5) < 1e-15

    def test_identity(self):
        for z in (0, 0.5, 1j):
            assert abs(identity_map().derivative(z) - 1) < 1e-15

    def test_parabolic_family_derivative_one(self):
        for t in (0.5, 1.0, 2.0, 3.5):
            assert abs(psi_t(t).derivative(1.0) - 1.0) < 1e-12


class TestParabolicTranslation:
    def test_tau0(self, phi0, sigma0):
        t = parabolic_translation(phi0.compose(sigma0))
        assert abs(t - 2.0) < 1e-12

    def test_canonical_family(self):
        for t in (0.5, 1.0, 2.0, 3.0):
            measured = parabolic_translation(psi_t(t))
            assert abs(measured - t) < 1e-10

    def test_parabolic_automorphism_imaginary(self):
        # Cayley conjugate of w -> w + i, fixing 1
        m = MoebiusMap(2 - 1j, 1j, -1j, 2 + 1j)
        assert classify(m).kind == MapKind.AUTOMORPHISM
        t = parabolic_translation(m)
        assert abs(t.real) < 1e-12
        assert abs(t.imag - 1.0) < 1e-12

    def test_conjugated_translations_are_parabolic(self):
        # R(r) cay (w -> w + it) cay R(conj r) is a parabolic automorphism with
        # translation it; rounding splits its double fixed point by about
        # sqrt(eps)/|c|, which a test on the fixed points misreads.
        cay = MoebiusMap(-1, 1, 1, 1)
        for t in (0.02, 0.05, 0.1, 0.3):
            for theta in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
                r = np.exp(1j * theta)
                m = (rotation(r).compose(cay).compose(MoebiusMap(1, 1j * t, 0, 1))
                     .compose(cay).compose(rotation(r.conjugate())))
                assert classify(m).automorphism_kind == "parabolic", (t, theta)
                assert abs(parabolic_translation(m) - 1j * t) < 1e-12, (t, theta)

    def test_identity_kind(self):
        assert classify(identity_map()).automorphism_kind == "identity"
        with pytest.raises(NotParabolicError, match="identity"):
            parabolic_translation(identity_map())

    def test_not_parabolic(self, phi0):
        with pytest.raises(NotParabolicError):
            parabolic_translation(phi0)

    def test_positive_parabolic_composition(self, rng):
        # phi . sigma is positive parabolic for admissible phi
        for _ in range(20):
            m = random_contact_map(rng)
            tau = m.compose(m.krein_adjoint)
            t = parabolic_translation(tau)
            assert t.real > 1e-8
            assert abs(t.imag) < 1e-7 * max(1.0, abs(t))


class TestIterate:
    def test_zero_is_identity(self, phi0):
        assert phi0.iterate(0).approx_equal(identity_map())

    def test_rotation_power(self):
        alpha = np.exp(0.3j)
        assert rotation(alpha).iterate(5).approx_equal(rotation(alpha**5))

    def test_translation_additivity(self, phi0, sigma0):
        tau = phi0.compose(sigma0)
        t2 = parabolic_translation(tau.iterate(2))
        assert abs(t2 - 4.0) < 1e-12

    def test_high_powers_stay_finite(self, phi0, sigma0):
        # unscaled products reach 1e79 at k = 256 and overflow before k = 1024
        tau = phi0.compose(sigma0)
        power = tau.iterate(1024)
        assert max(abs(x) for x in power.coeffs()) < 1
        assert abs(parabolic_translation(power) - 2048) < 1e-9

    def test_powers_of_composites_are_balanced(self, rng):
        # unscaled, some of these underflow and fail the ad - bc check by k = 256
        for family in CONTACT_FAMILIES:
            for _ in range(10):
                m = family(rng)
                power = m.compose(m.krein_adjoint).iterate(256)
                assert 0.5 <= max(abs(x) for x in power.coeffs()) < 1

    def test_iterates_up_to_the_trace_budget_stay_parabolic(self, rng):
        # _trace_kind budgets 64 units of rounding per coefficient, about what
        # a 64th power carries, so k = 64 is the documented limit.
        for family in CONTACT_FAMILIES:
            for _ in range(10):
                m = family(rng)
                tau = m.compose(m.krein_adjoint)
                t = 64 * parabolic_translation(tau)
                assert abs(parabolic_translation(tau.iterate(64)) - t) < 1e-8 * abs(t)


class TestEquality:
    def test_proportional_quadruples(self):
        assert MoebiusMap(1, 0, 0, 1).approx_equal(MoebiusMap(2, 0, 0, 2))

    def test_phi_sigma_do_not_commute(self, phi0, sigma0):
        assert not phi0.commutes_with(sigma0)

    def test_self_commutes(self, phi0):
        assert phi0.commutes_with(phi0)


def test_json_round_trip(phi0):
    text = phi0.to_json()
    data = json.loads(text)
    assert set(data) == {"a", "b", "c", "d"}
    back = MoebiusMap.from_json(text)
    assert back.coeffs() == phi0.coeffs()


def test_contact_data_deserialization_identity(phi0):
    # dphi phase recovered through phi'(zeta) = |phi'(zeta)| eta / zeta
    c = boundary_contact(phi0)
    rebuilt = ContactData(zeta=c.zeta, eta=c.eta, dphi=c.eta / (c.s * c.zeta), s=c.s)
    assert abs(rebuilt.dphi - c.dphi) < 1e-12
