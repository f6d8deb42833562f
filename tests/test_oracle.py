import math

import numpy as np
import pytest

from tcalgebra import (
    MoebiusMap,
    NotSelfAdjointError,
    PoleInDiskError,
    TrigPolynomial,
    WindowTooLargeError,
    composition_matrix,
    compression_eigs,
    fill_distance,
    identity_map,
    matrix_csv,
    sequence_csv,
    taylor_coeffs,
    toeplitz_matrix,
    truncate,
    vanishing_sequence,
)

from conftest import psi_t

# Regression baseline from the reference run at N = 512, window = 64.
FLOOR_COMMUTATOR_MOVING = 0.5311295415228282


def floor_adjoint(nodes: int = 4096) -> float:
    """Norm of column 63 of C' - 2S on phi0, independent of the oracle.

    Cowen's adjoint formula gives C' = T_{2/(z+2)} C_sigma with
    sigma(z) = -z/(z+2), so the column is -2(1+z) sigma^63 / (z+2).  Its
    norm comes from the trapezoid rule on the unit circle, which
    converges geometrically: the column is analytic on |z| < 2.
    """
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    col = -2 * (1 + z) * (-z / (z + 2)) ** 63 / (z + 2)
    return math.sqrt(float(np.mean(np.abs(col) ** 2)))


def floor_commutator_fixed() -> float:
    """Norm of column 63 of [T_z, C] on rho0(z) = (1+z)/2.

    The column is z rho0^63 - rho0^64 = (z-1)/2 ((1+z)/2)^63, whose norm
    squared is 2 Catalan(63) / 4^64.
    """
    catalan = math.comb(126, 63) // 64
    return math.sqrt(2 * catalan / 4**64)


def composition_matrix_2n(m: MoebiusMap, n: int) -> np.ndarray:
    """Reference builder that keeps 2n series coefficients of every power.

    The coefficients past n - 1 never reach the kept rows, so the builder
    under test, which keeps n, must agree with it bit for bit.
    """
    series = taylor_coeffs(m, 2 * n)
    out = np.zeros((n, n), dtype=complex)
    col = np.zeros(2 * n, dtype=complex)
    col[0] = 1.0
    out[:, 0] = col[:n]
    for j in range(1, n):
        col = np.convolve(col, series)[: 2 * n]
        out[:, j] = col[:n]
    return out


class TestTaylorCoeffs:
    def test_identity(self):
        assert np.array_equal(taylor_coeffs(identity_map(), 4), [0, 1, 0, 0])

    def test_polynomial_map(self, phi0):
        assert np.array_equal(taylor_coeffs(phi0, 4), [-0.5, -0.5, 0, 0])

    def test_geometric_series(self, sigma0):
        coeffs = taylor_coeffs(sigma0, 6)
        assert np.allclose(coeffs, [0, -0.5, 0.25, -0.125, 0.0625, -0.03125])
        # partial sum converges to the map value inside the disk
        z = 0.3
        partial = sum(c * z**j for j, c in enumerate(taylor_coeffs(sigma0, 60)))
        assert abs(partial - (-0.3 / 2.3)) < 1e-10

    def test_pole_in_disk_rejected(self):
        with pytest.raises(PoleInDiskError):
            taylor_coeffs(MoebiusMap(0, 1, 1, 0.5), 4)


class TestMatrices:
    def test_dilation_diagonal(self):
        m = composition_matrix(MoebiusMap(1, 0, 0, 2), 5)
        assert np.allclose(m, np.diag(0.5 ** np.arange(5)))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
    def test_working_length_n_is_exact(self, phi0, sigma0, n):
        # phi0 is affine; its Krein adjoint -z/(z+2) has a pole at -2
        for m in (phi0, sigma0, MoebiusMap(1, 0.3j, 0.5 - 0.4j, 2)):
            assert np.array_equal(composition_matrix(m, n), composition_matrix_2n(m, n))

    def test_identity_toeplitz(self):
        assert np.array_equal(toeplitz_matrix(TrigPolynomial.constant(1.0), 4), np.eye(4))

    def test_shift_matrix(self):
        m = toeplitz_matrix(TrigPolynomial.monomial(1), 4)
        assert np.array_equal(m, np.diag(np.ones(3), -1))

    def test_columns_are_map_powers(self, phi0):
        m = truncate("C", phi0, 3)
        assert np.allclose(m[:, 0], [1, 0, 0])
        assert np.allclose(m[:, 1], [-0.5, -0.5, 0])
        assert np.allclose(m[:, 2], [0.25, 0.5, 0.25])

    def test_truncate_identity(self, phi0):
        assert np.array_equal(truncate("I", phi0, 3), np.eye(3))

    def test_shift_isometry(self, phi0):
        # exact on the leading block; the last basis vector leaves the
        # truncation span, so the corner entry of the compression product is 0
        prod = truncate("T{z}'*T{z}", phi0, 6)
        expected = np.eye(6, dtype=complex)
        expected[5, 5] = 0.0
        assert np.array_equal(prod, expected)

    def test_compact_token_zero(self, phi0):
        assert np.array_equal(truncate("K", phi0, 3), np.zeros((3, 3)))


class TestVanishingSequence:
    def test_window_guard(self, phi0):
        with pytest.raises(WindowTooLargeError):
            vanishing_sequence("C", phi0, 64, 33)

    def test_adjoint_identity_floor(self, phi0):
        vs = vanishing_sequence("C' - 2*S", phi0, 512, 64)
        assert float(vs.min()) == vs[63]
        assert abs(float(vs.min()) - floor_adjoint()) < 1e-12
        assert vs[-1] < vs[0]

    def test_adjoint_identity_swapped(self, phi0):
        # taking adjoints of the defining identity: C - 2 S' is also compact
        vs = vanishing_sequence("C - 2*S'", phi0, 512, 64)
        assert float(vs.min()) < 0.03
        assert vs[-1] < vs[0]

    def test_toeplitz_semi_multiplicativity(self, phi0):
        vs = vanishing_sequence("T{z}*T{z^-1+z^2} - T{1+z^3}", phi0, 256, 32)
        assert float(vs.min()) == 0.0

    def test_commutator_floors(self, phi0, rho0):
        fixed = vanishing_sequence("T{z}*C - C*T{z}", rho0, 512, 64)
        moving = vanishing_sequence("T{z}*C - C*T{z}", phi0, 512, 64)
        assert float(fixed.min()) == fixed[63]
        assert abs(float(fixed.min()) - floor_commutator_fixed()) < 1e-12
        assert abs(float(moving.min()) - FLOOR_COMMUTATOR_MOVING) < 1e-9


class TestCompressionEigs:
    def test_anticommutator_fills_interval(self, phi0):
        eigs = compression_eigs("C'*C + C*C'", phi0, 256)
        assert eigs[0] > -1e-10
        assert fill_distance(np.linspace(0, 2, 101), eigs) < 0.06

    def test_real_part_fills_interval(self, phi0):
        eigs = compression_eigs("C + C'", phi0, 256)
        s2 = math.sqrt(2.0)
        assert fill_distance(np.linspace(-s2, s2, 101), eigs) < 0.05

    def test_self_commutator_fills_interval(self, phi0):
        eigs = compression_eigs("C'*C - C*C'", phi0, 256)
        assert fill_distance(np.linspace(-2, 2, 101), eigs) < 0.08

    def test_non_self_adjoint_rejected(self, phi0):
        with pytest.raises(NotSelfAdjointError):
            compression_eigs("C", phi0, 32)


class TestFillDistance:
    def test_identical_sets(self):
        assert fill_distance([0, 1, 2], [0, 1, 2]) == 0.0

    def test_outliers_ignored(self):
        assert fill_distance([0, 1, 2], [0, 0.5, 1, 1.5, 2, 7]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fill_distance([], [1.0])


class TestInvariants:
    def test_multiplicativity_inner_vanishing_at_zero(self, phi0, sigma0):
        # sigma0(0) = 0: the inner factor kills all truncation tails
        n = 128
        left = composition_matrix(sigma0, n) @ composition_matrix(phi0, n)
        right = composition_matrix(phi0.compose(sigma0), n)
        h = n // 2
        assert np.max(np.abs(left[:h, :h] - right[:h, :h])) < 1e-8

    def test_multiplicativity_polynomial_outer(self, phi0):
        n = 128
        left = composition_matrix(phi0, n) @ composition_matrix(phi0, n)
        right = composition_matrix(phi0.compose(phi0), n)
        h = n // 2
        assert np.max(np.abs(left[:h, :h] - right[:h, :h])) < 1e-8

    def test_multiplicativity_remote_poles(self):
        # strict contractions with poles well outside: geometric tails
        m1 = MoebiusMap(1, 0.3, 0, 3)
        m2 = MoebiusMap(0.5, 0.1, 0.2, 2)
        n = 128
        left = composition_matrix(m1, n) @ composition_matrix(m2, n)
        right = composition_matrix(m2.compose(m1), n)
        h = n // 2
        assert np.max(np.abs(left[:h, :h] - right[:h, :h])) < 1e-8

    def test_parabolic_conjugation_exact(self, phi0, sigma0):
        # r . tau0 . r with r(z) = -z equals the canonical translation-2 form
        r = MoebiusMap(-1, 0, 0, 1)
        conj = r.compose(phi0.compose(sigma0)).compose(r)
        assert np.array_equal(
            composition_matrix(conj, 64), composition_matrix(psi_t(2.0), 64)
        )


class TestCsvExports:
    def test_matrix_csv(self):
        text = matrix_csv(np.array([[1 + 2j]]))
        assert text.splitlines() == ["row,col,re,im", "0,0,1.0,2.0"]

    def test_sequence_csv(self):
        text = sequence_csv([1.5, 0.25])
        assert text.splitlines() == ["n,value", "0,1.5", "1,0.25"]
