import numpy as np
import pytest

from tcalgebra import HalfPolynomial, SymbolElement, TrigPolynomial, embed_toeplitz


class TestTrigPolynomial:
    def test_evaluation(self):
        w = TrigPolynomial({1: 2.0, -1: 1.0, 0: -3.0})
        z = np.exp(0.7j)
        assert abs(w(z) - (2 * z + 1 / z - 3)) < 1e-14

    def test_product_degree_adds(self):
        v = TrigPolynomial({2: 1.0, -1: 1.0})
        w = TrigPolynomial({3: 1.0})
        assert (v * w).degree == 5
        assert (v * w).coefficient(2) == 1.0

    def test_product_matches_pointwise(self):
        v = TrigPolynomial({1: 1 + 1j, -2: 0.5})
        w = TrigPolynomial({0: 2.0, 1: -1j})
        z = np.exp(1.1j)
        assert abs((v * w)(z) - v(z) * w(z)) < 1e-14

    def test_conj(self):
        w = TrigPolynomial({1: 1j, 2: 3.0})
        wc = w.conj()
        assert wc.coefficient(-1) == -1j
        assert wc.coefficient(-2) == 3.0
        z = np.exp(0.3j)
        assert abs(wc(z) - w(z).conjugate()) < 1e-14

    def test_zero_and_addition(self):
        w = TrigPolynomial({1: 1.0})
        assert (w - w).is_zero()
        assert (w + TrigPolynomial.zero()).allclose(w)

    def test_scalar(self):
        w = 2j * TrigPolynomial({1: 3.0})
        assert w.coefficient(1) == 6j

    def test_fractional_frequency_rejected(self, contact0):
        assert TrigPolynomial({2.0: 1}).equals_exact(TrigPolynomial.monomial(2))
        with pytest.raises(ValueError, match="frequency 1.5 is not an integer"):
            TrigPolynomial({1.5: 1})
        data = embed_toeplitz(TrigPolynomial.monomial(1), contact0).to_json_dict()
        data["w"] = [[1.5, 1, 0]]
        with pytest.raises(ValueError, match="frequency 1.5 is not an integer"):
            SymbolElement.from_json_dict(data)


class TestHalfPolynomial:
    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            HalfPolynomial([1.0], ())

    def test_sqrt_t_square_is_t(self):
        r = HalfPolynomial.sqrt_t()
        sq = r * r
        assert np.array_equal(sq.p, np.array([0, 1], dtype=complex))
        assert len(sq.q) == 0

    def test_product_matches_pointwise(self):
        a = HalfPolynomial([0, 1.0, 2.0], [1j, 0.5])
        b = HalfPolynomial([0, -0.5], [2.0])
        ts = np.linspace(0, 2, 17)
        assert np.max(np.abs((a * b)(ts) - a(ts) * b(ts))) < 1e-13

    def test_vanishes_at_zero(self):
        a = HalfPolynomial([0, 1.0], [3.0, 1j])
        assert abs(a(0.0)) == 0.0

    def test_conj_pointwise(self):
        a = HalfPolynomial([0, 1j], [2.0 - 1j])
        ts = np.linspace(0, 1, 5)
        assert np.max(np.abs(a.conj()(ts) - np.conj(a(ts)))) < 1e-14

    def test_closure_under_ring_ops(self):
        # sums and products keep p(0) = 0 automatically
        a = HalfPolynomial([0, 1.0], [1.0])
        b = HalfPolynomial([0, 0, 2.0], [0, 1.0])
        for result in (a + b, a * b, 3j * a, a - b):
            assert len(result.p) == 0 or result.p[0] == 0

    def test_exact_equality_after_trim(self):
        a = HalfPolynomial([0, 1.0, 0.0], ())
        b = HalfPolynomial([0, 1.0], ())
        assert a.equals_exact(b)
