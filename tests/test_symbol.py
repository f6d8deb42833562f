import math

import numpy as np
import pytest

from tcalgebra import (
    ContactMismatchError,
    HalfPolynomial,
    InvalidContactError,
    LambdaPoint,
    MoebiusMap,
    NotCentralError,
    SymbolElement,
    TRIPLE_POINT,
    TrigPolynomial,
    boundary_contact,
    embed_cphi,
    embed_csigma,
    embed_toeplitz,
    essential_norm,
    essential_norm_report,
    essential_spectrum,
    gelfand_value,
    identity_element,
    is_central,
    is_fredholm,
    normalize,
    parse,
    phi_lambda,
    spectrum_branches,
    spectrum_samples,
    zero_element,
)
from tcalgebra.symbol import _norms_from_entries

SQRT2 = math.sqrt(2.0)


def _second_contact():
    # rotate the range of phi0 so the contact data differs: 1 -> -i
    m = MoebiusMap(-1j, -1j, 0, 2)
    return boundary_contact(m)


def _random_element(rng, contact):
    def cx(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5

    w = TrigPolynomial({n: c for n, c in zip(range(-2, 3), cx(5))})

    def half():
        return HalfPolynomial(np.concatenate([[0], cx(2)]), cx(2))

    return SymbolElement(w, half(), half(), half(), half(), contact)


class TestEmbeddings:
    def test_toeplitz_one_is_identity(self, contact0):
        b = embed_toeplitz(TrigPolynomial.constant(1.0), contact0)
        assert b.w.coefficient(0) == 1.0
        assert b.f.is_zero() and b.g.is_zero() and b.h.is_zero() and b.k.is_zero()

    def test_cphi_slot(self, contact0):
        b = embed_cphi(contact0)
        assert np.array_equal(b.h.q, np.array([1.0], dtype=complex))
        mat = phi_lambda(b, LambdaPoint.interval(1.3))
        assert np.allclose(mat, [[0, math.sqrt(1.3)], [0, 0]])

    def test_csigma_scale(self, contact0):
        b = embed_csigma(contact0)
        assert np.array_equal(b.k.q, np.array([0.5], dtype=complex))

    def test_parabolic_contact_rejected(self, rho0):
        contact = boundary_contact(rho0)  # zeta = eta = 1
        with pytest.raises(InvalidContactError):
            embed_cphi(contact)


class TestLinearStructure:
    def test_add_zero(self, contact0, rng):
        b = _random_element(rng, contact0)
        assert (b + zero_element(contact0)).allclose(b, 1e-15)

    def test_real_part_slots(self, contact0):
        b = embed_cphi(contact0) + embed_cphi(contact0).adjoint()
        assert np.array_equal(b.h.q, np.array([1.0], dtype=complex))
        assert np.array_equal(b.k.q, np.array([1.0], dtype=complex))

    def test_scalar_on_toeplitz(self, contact0):
        b = 2.0 * embed_toeplitz(TrigPolynomial.monomial(1), contact0)
        assert b.w.coefficient(1) == 2.0

    def test_contact_mismatch(self, contact0):
        other = _second_contact()
        with pytest.raises(ContactMismatchError):
            embed_cphi(contact0) + embed_cphi(other)
        with pytest.raises(ContactMismatchError):
            embed_cphi(contact0) * embed_cphi(other)


class TestMultiply:
    def test_cphi_squares_to_zero(self, contact0):
        prod = embed_cphi(contact0) * embed_cphi(contact0)
        assert prod.is_zero()

    def test_adjoint_cphi_times_cphi(self, contact0):
        prod = embed_cphi(contact0).adjoint() * embed_cphi(contact0)
        assert np.array_equal(prod.f.p, np.array([0, 1.0], dtype=complex))
        assert prod.g.is_zero() and prod.h.is_zero() and prod.k.is_zero()

    def test_toeplitz_acts_by_zeta_value(self, contact0):
        tz = embed_toeplitz(TrigPolynomial.monomial(1), contact0)
        prod = tz * embed_cphi(contact0)
        # w(zeta) = 1 multiplies the off-diagonal slot
        assert np.array_equal(prod.h.q, np.array([1.0], dtype=complex))
        prod2 = embed_cphi(contact0) * tz
        # x t_w = w(eta) x with eta = -1
        assert np.array_equal(prod2.h.q, np.array([-1.0], dtype=complex))


class TestAdjoint:
    def test_cphi_adjoint_k_slot(self, contact0):
        b = embed_cphi(contact0).adjoint()
        assert np.array_equal(b.k.q, np.array([1.0], dtype=complex))
        assert b.h.is_zero()

    def test_involution(self, contact0, rng):
        b = _random_element(rng, contact0)
        assert b.adjoint().adjoint().allclose(b, 1e-15)

    def test_toeplitz_conjugate(self, contact0):
        b = embed_toeplitz(TrigPolynomial.monomial(1), contact0).adjoint()
        assert b.w.coefficient(-1) == 1.0


class TestPhiLambda:
    def test_identity_everywhere(self, contact0):
        b = identity_element(contact0)
        for lam in (LambdaPoint.interval(0.7), TRIPLE_POINT, LambdaPoint.circle(1j)):
            assert np.allclose(phi_lambda(b, lam), np.eye(2))

    def test_toeplitz_triple_point(self, contact0):
        w = TrigPolynomial({1: 2.0, 0: 1.0})
        b = embed_toeplitz(w, contact0)
        mat = phi_lambda(b, TRIPLE_POINT)
        assert np.allclose(mat, np.diag([w(contact0.zeta), w(contact0.eta)]))

    def test_circle_point_excludes_contact_points(self, contact0):
        b = identity_element(contact0)
        with pytest.raises(ValueError):
            phi_lambda(b, LambdaPoint.circle(contact0.zeta))

    def test_interval_point_beyond_s(self, contact0):
        with pytest.raises(ValueError):
            phi_lambda(identity_element(contact0), LambdaPoint.interval(2.5))

    def test_interval_zero_invalid(self):
        with pytest.raises(ValueError):
            LambdaPoint.interval(0.0)

    def test_homomorphism_random(self, contact0, rng):
        for _ in range(100):
            b1 = _random_element(rng, contact0)
            b2 = _random_element(rng, contact0)
            lam = LambdaPoint.interval(rng.uniform(1e-6, contact0.s))
            left = phi_lambda(b1 * b2, lam)
            right = phi_lambda(b1, lam) @ phi_lambda(b2, lam)
            assert np.max(np.abs(left - right)) < 1e-10

    def test_star_compatibility(self, contact0, rng):
        for _ in range(50):
            b = _random_element(rng, contact0)
            lam = LambdaPoint.interval(rng.uniform(1e-6, contact0.s))
            assert np.max(
                np.abs(phi_lambda(b.adjoint(), lam) - phi_lambda(b, lam).conj().T)
            ) < 1e-12

    def test_triple_point_continuity(self, contact0, rng):
        b = _random_element(rng, contact0)
        target = phi_lambda(b, TRIPLE_POINT)
        gaps = [
            np.max(np.abs(phi_lambda(b, LambdaPoint.interval(t)) - target))
            for t in (1e-3, 1e-5, 1e-7)
        ]
        assert gaps == sorted(gaps, reverse=True) or max(gaps) < 1e-3
        assert gaps[-1] < 1e-3


class TestEssentialSpectrum:
    def test_real_part_interval(self, contact0):
        b = embed_cphi(contact0) + embed_cphi(contact0).adjoint()
        pts = essential_spectrum(b, 501)
        assert np.max(np.abs(pts.imag)) < 1e-12
        assert abs(pts.real.min() + SQRT2) < 1e-12
        assert abs(pts.real.max() - SQRT2) < 1e-12

    def test_cphi_alone_is_zero(self, contact0):
        pts = essential_spectrum(embed_cphi(contact0), 101)
        assert np.max(np.abs(pts)) < 1e-14

    def test_sources_partition(self, contact0):
        rows = spectrum_samples(identity_element(contact0), 100)
        sources = {src for _, src in rows}
        assert sources == {"circle", "interval+", "interval-"}

    def test_branches_make_up_the_spectrum(self, contact0, rng):
        b = _random_element(rng, contact0)
        res = 203
        branches = spectrum_branches(b, res)
        assert [len(v) for v in branches] == [res + 2, res, res]
        assert np.array_equal(essential_spectrum(b, res), np.concatenate(branches))
        rows = spectrum_samples(b, res)
        labels = ["circle"] * (res + 2) + ["interval+"] * res + ["interval-"] * res
        assert [src for _, src in rows] == labels
        assert all(type(z) is complex for z, _ in rows)
        assert np.array_equal(np.array([z for z, _ in rows]), np.concatenate(branches))

    def test_conjugate_symmetry(self, contact0, rng):
        b = _random_element(rng, contact0)
        pts = np.sort_complex(essential_spectrum(b, 301))
        pts_adj = np.sort_complex(essential_spectrum(b.adjoint(), 301).conj())
        assert np.max(np.abs(pts - pts_adj)) < 1e-10

    def test_self_adjoint_real(self, contact0, rng):
        x = _random_element(rng, contact0)
        b = x + x.adjoint()
        pts = essential_spectrum(b, 301)
        assert np.max(np.abs(pts.imag)) < 1e-10

    def test_resolution_validated(self, contact0):
        with pytest.raises(ValueError):
            essential_spectrum(identity_element(contact0), 1)


class TestEssentialNorm:
    def test_example_norm(self, contact0):
        b = (
            embed_toeplitz(TrigPolynomial.monomial(1), contact0)
            + embed_cphi(contact0)
            + embed_cphi(contact0).adjoint()
        )
        assert abs(essential_norm(b, 1001) - math.sqrt(3.0)) < 1e-6

    def test_toeplitz_sup(self, contact0):
        w = TrigPolynomial({1: 2.0, 0: 1.0})
        assert abs(essential_norm(embed_toeplitz(w, contact0), 2001) - 3.0) < 1e-6

    def test_cphi_norm_sqrt_s(self, contact0):
        assert abs(essential_norm(embed_cphi(contact0), 1001) - SQRT2) < 1e-9

    def test_report_fields(self, contact0):
        rep = essential_norm_report(embed_cphi(contact0), 101)
        assert rep.where == "interval"
        assert abs(rep.at - contact0.s) < 1e-9
        assert rep.grid_spacing > 0
        assert rep.accuracy >= 0

    def test_accuracy_finite_at_fine_resolution(self, contact0):
        # At 50000 points the third refinement round around t = s would
        # collapse to spacing 0; the report keeps the last grid that did not.
        b = normalize(parse("C + C' + 2*I"), contact0)
        rep = essential_norm_report(b, 50000)
        assert rep.grid_spacing > 0
        assert math.isfinite(rep.accuracy)
        assert abs(rep.value - (2 + SQRT2)) <= rep.accuracy + 1e-12

    def test_cstar_identity(self, contact0, rng):
        b = _random_element(rng, contact0)
        lhs = essential_norm(b.adjoint() * b, 800)
        rhs = essential_norm(b, 800) ** 2
        assert abs(lhs - rhs) < 1e-6 * max(1.0, rhs)

    def test_pointwise_norm_with_close_singular_values(self, rng):
        # U diag(s, s(1 - eps)) V* with eps down to 1e-12: a closed form that
        # subtracts 4|det|^2 from ||M||_F^4 loses half the digits here.
        count = 4000

        def unitaries():
            z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
            q, r = np.linalg.qr(z)
            diag = np.diagonal(r, axis1=1, axis2=2)
            return q * (diag / abs(diag))[:, None, :]

        top = 10 ** rng.uniform(-2, 2, count)
        sv = np.stack([top, top * (1 - 10 ** rng.uniform(-12, -4, count))], axis=1)
        mats = unitaries() @ (sv[:, :, None] * np.eye(2)) @ unitaries().conj().transpose(0, 2, 1)
        got = _norms_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
        want = np.linalg.norm(mats, 2, axis=(1, 2))
        assert np.max(abs(got - want) / want) <= 1e-14


class TestFredholm:
    def test_identity_plus_cphi(self, contact0):
        assert is_fredholm(identity_element(contact0) + embed_cphi(contact0))

    def test_shift_fredholm(self, contact0):
        assert is_fredholm(embed_toeplitz(TrigPolynomial.monomial(1), contact0))

    def test_cphi_not_fredholm(self, contact0):
        assert not is_fredholm(embed_cphi(contact0))

    def test_interior_determinant_zero_detected(self, contact0):
        # diag(t - 1 + w(zeta), ...) style: pick w = 0, f = g = t - s/2 is not
        # allowed (f(0) = 0 required), so use f = g = t and subtract the
        # identity: the interval matrix is diag(t - 1), singular at t = 1.
        t_slot = HalfPolynomial.t_power(1)
        b = SymbolElement(
            TrigPolynomial.constant(-1.0), t_slot, t_slot,
            HalfPolynomial.zero(), HalfPolynomial.zero(), contact0,
        )
        assert not is_fredholm(b)


class TestCenter:
    def test_anticommutator_central(self, contact0):
        x = embed_cphi(contact0)
        a = x.adjoint() * x + x * x.adjoint()
        assert is_central(a)
        assert abs(gelfand_value(a, LambdaPoint.interval(1.5)) - 1.5) < 1e-12
        assert abs(gelfand_value(a, TRIPLE_POINT)) < 1e-12

    def test_cphi_not_central(self, contact0):
        assert not is_central(embed_cphi(contact0))

    def test_balanced_toeplitz_central(self, contact0):
        w = TrigPolynomial.monomial(2)  # w(1) = w(-1) = 1
        b = embed_toeplitz(w, contact0)
        assert is_central(b)
        lam = np.exp(0.8j)
        assert abs(gelfand_value(b, LambdaPoint.circle(lam)) - lam**2) < 1e-12

    def test_gelfand_requires_central(self, contact0):
        with pytest.raises(NotCentralError):
            gelfand_value(embed_cphi(contact0), TRIPLE_POINT)


def test_serialization_round_trip(contact0, rng):
    b = _random_element(rng, contact0)
    data = b.to_json_dict()
    back = SymbolElement.from_json_dict(data)
    assert back.w.allclose(b.w, 1e-15)
    assert back.f.allclose(b.f, 1e-15)
    assert back.k.allclose(b.k, 1e-15)
    assert abs(back.contact.zeta - b.contact.zeta) < 1e-15
    assert abs(back.contact.dphi - b.contact.dphi) < 1e-12
    assert abs(back.contact.s - b.contact.s) < 1e-15
