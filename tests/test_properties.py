"""Property tests for the two function rings and the symbol calculus.

Examples are derandomized and few, so the suite stays fast and repeatable.
Elements live over contact data in closed form from a pole map with a
general s; the reference map -(1+z)/2 (s = 2) is covered elsewhere.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tcalgebra import (
    TRIPLE_POINT,
    ContactData,
    HalfPolynomial,
    LambdaPoint,
    SymbolElement,
    TrigPolynomial,
    phi_lambda,
)

from conftest import pole_contact_map

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

real = st.floats(-1.0, 1.0, allow_subnormal=False)
coefficient = st.builds(complex, real, real)
# Exact zeros are common so trimming and empty parts get exercised.
entries = st.lists(st.one_of(coefficient, st.just(0j)), max_size=4)
halves = st.builds(lambda p, q: HalfPolynomial([0j] + p, q), entries, entries)
# Parts 0.0 and -0.0 are common too, in every slot shape: zero, p only, q only, both.
signed_zero = st.sampled_from([0.0, -0.0])
signed_zero_coefficient = st.builds(complex, signed_zero, signed_zero)
signed_coefficient = st.one_of(
    coefficient, signed_zero_coefficient, st.builds(complex, real, signed_zero)
)
signed_entries = st.lists(signed_coefficient, min_size=1, max_size=4)
p_part = st.builds(lambda c, p: [c] + p, signed_zero_coefficient, signed_entries)
signed_halves = st.one_of(
    st.just(HalfPolynomial()),
    st.builds(HalfPolynomial, p_part),
    st.builds(lambda q: HalfPolynomial((), q), signed_entries),
    st.builds(HalfPolynomial, p_part, signed_entries),
).flatmap(lambda hp: st.sampled_from([hp, -hp, hp * hp]))
trigs = st.builds(
    lambda lo, cs: TrigPolynomial(dict(enumerate(cs, start=lo))),
    st.integers(-3, 3),
    st.lists(st.one_of(coefficient, st.just(0j)), max_size=5),
)


def _trimmed(xs) -> list:
    xs = list(xs)
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


def _per_slot_horner(hp: HalfPolynomial, t):
    """Reference evaluation: Horner in t on p and on q of one element, then
    p + sqrt(t) q, each step on a fresh array."""
    t = np.asarray(t, dtype=float)
    pv = np.zeros(t.shape, dtype=complex)
    for c in hp.p[::-1]:
        pv = pv * t + c
    qv = np.zeros(t.shape, dtype=complex)
    for c in hp.q[::-1]:
        qv = qv * t + c
    out = pv + np.sqrt(t) * qv
    return complex(out) if out.ndim == 0 else out


def _majorant(hp: HalfPolynomial, ts):
    """sum |c_n| t^(n/2): bounds |hp(t)| and the rounding of its value."""
    return HalfPolynomial(np.abs(hp.p), np.abs(hp.q))(ts).real


def _majorant_matrix(b: SymbolElement, lam: LambdaPoint) -> np.ndarray:
    """Entrywise bound on phi_lambda(b, lam) from the moduli of the coefficients."""
    w = sum(abs(c) for _, c in b.w.items())
    if lam.kind != "interval":
        return w * np.eye(2)
    f, g, h, k = (_majorant(x, lam.value) for x in (b.f, b.g, b.h, b.k))
    return np.array([[w + g, h], [k, w + f]])


def _trig_majorant(w: TrigPolynomial) -> float:
    """sum |c_n|: bounds |w| on the circle and the rounding of its value."""
    return sum(abs(c) for _, c in w.items())


@st.composite
def contacts(draw) -> ContactData:
    """Contact data of conftest.pole_contact_map, from its closed form."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, zeta, eta, s = pole_contact_map(rng)
    return ContactData(zeta=zeta, eta=eta, dphi=eta / (s * zeta), s=s)


@st.composite
def elements(draw, contact: ContactData) -> SymbolElement:
    w = TrigPolynomial(dict(enumerate(draw(st.lists(coefficient, max_size=4)), start=-1)))
    return SymbolElement(w, *(draw(halves) for _ in range(4)), contact)


def _points(contact: ContactData, fractions) -> list[LambdaPoint]:
    """The triple point, interval points at fractions of s, and circle points
    at fractions of a turn from zeta (those near zeta or eta left out)."""
    circle = [contact.zeta * np.exp(2j * np.pi * x) for x in fractions]
    return (
        [TRIPLE_POINT]
        + [LambdaPoint.interval(x * contact.s) for x in fractions if x > 0]
        + [
            LambdaPoint.circle(z)
            for z in circle
            if min(abs(z - contact.zeta), abs(z - contact.eta)) > 1e-6
        ]
    )


class TestHalfPolynomial:
    def test_sqrt_t_has_no_polynomial_part(self):
        r = HalfPolynomial((), (1,))
        assert len(r.p) == 0 and r.q.tolist() == [1]

    @PROPERTY
    @given(entries, entries)
    def test_p_q_round_trip_trims(self, p, q):
        hp = HalfPolynomial([0j] + p, q)
        assert hp.p.tolist() == _trimmed([0j] + p)
        assert hp.q.tolist() == _trimmed(q)
        assert not hp.p.flags.writeable and not hp.q.flags.writeable
        assert HalfPolynomial(hp.p, hp.q).equals_exact(hp)

    # At t = 0 the Horner sums of these are -0.0 (the first in p, the second in
    # both p and sqrt(t) q), which p + sqrt(t) q turns into +0.0 only in the first.
    @settings(PROPERTY, max_examples=150)
    @example([HalfPolynomial([complex(-0.0, -0.0), -1])], 1.0, 2)
    @example([HalfPolynomial([complex(-0.0, -0.0), -1], [-1]), HalfPolynomial()], 1.0, 2)
    @given(st.lists(signed_halves, min_size=1, max_size=4), st.floats(0.1, 8.0), st.integers(2, 40))
    def test_evaluate_matches_per_slot_horner_bitwise(self, slots, s, n):
        ts = np.linspace(0.0, s, n)
        for hp, value in zip(slots, HalfPolynomial.evaluate(slots, ts), strict=True):
            want = _per_slot_horner(hp, ts).tobytes()
            assert value.tobytes() == want
            assert hp(ts).tobytes() == want
            for t in (0.0, s):
                want = np.complex128(_per_slot_horner(hp, t)).tobytes()
                assert np.complex128(hp(t)).tobytes() == want

    @PROPERTY
    @given(halves, halves, st.floats(0.1, 8.0))
    def test_ring_operations_pointwise(self, a, b, s):
        ts = np.linspace(0.0, s, 9)
        tol = 1e-13 * (1 + _majorant(a, ts)) * (1 + _majorant(b, ts))
        assert np.all(np.abs((a * b)(ts) - a(ts) * b(ts)) <= tol)
        assert np.all(np.abs((a + b)(ts) - (a(ts) + b(ts))) <= tol)
        assert np.array_equal(a.conj()(ts), np.conj(a(ts)))


class TestTrigPolynomial:
    @PROPERTY
    @given(trigs, trigs)
    def test_ring_operations_pointwise(self, v, w):
        z = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 9))
        tol = 1e-13 * (1 + _trig_majorant(v)) * (1 + _trig_majorant(w))
        assert np.all(np.abs((v * w)(z) - v(z) * w(z)) <= tol)
        assert np.all(np.abs((v + w)(z) - (v(z) + w(z))) <= tol)
        assert np.all(np.abs((v - w)(z) - (v(z) - w(z))) <= tol)
        assert np.all(np.abs(v.conj()(z) - np.conj(v(z))) <= tol)

    @PROPERTY
    @given(trigs, trigs)
    def test_equals_exact_compares_canonical_coefficients(self, v, w):
        assert v.equals_exact(w) == (v.items() == w.items())
        u = v + w - w
        assert u.equals_exact(v) == (u.items() == v.items())
        padded = {**dict(v.items()), v.degree + 1: 0j, -v.degree - 1: 0j}
        assert TrigPolynomial(padded).equals_exact(v)
        assert TrigPolynomial(dict(reversed(v.items()))).equals_exact(v)
        assert (TrigPolynomial.monomial(1) * v).equals_exact(v) == v.is_zero()

    @PROPERTY
    @given(st.data(), st.lists(st.tuples(st.integers(-4, 4), coefficient), unique_by=lambda x: x[0]))
    def test_evaluation_ignores_construction_order(self, data, terms):
        shuffled = data.draw(st.permutations(terms))
        v = TrigPolynomial(dict(terms))
        w = sum((TrigPolynomial.monomial(n, c) for n, c in shuffled), TrigPolynomial.zero())
        z = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 7))
        assert v.equals_exact(w)
        assert np.array_equal(v(z), w(z))
        assert v(z[1]) == w(z[1])


class TestSymbolElement:
    @PROPERTY
    @given(st.data(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_product_and_adjoint_match_phi_lambda(self, data, fractions):
        contact = data.draw(contacts())
        b1 = data.draw(elements(contact))
        b2 = data.draw(elements(contact))
        product, adjoint = b1 * b2, b1.adjoint()
        for lam in _points(contact, fractions):
            m1, m2 = phi_lambda(b1, lam), phi_lambda(b2, lam)
            bound1 = _majorant_matrix(b1, lam)
            tol = 1e-13 * (1 + bound1 @ _majorant_matrix(b2, lam))
            assert np.all(np.abs(phi_lambda(product, lam) - m1 @ m2) <= tol)
            assert np.all(np.abs(phi_lambda(adjoint, lam) - m1.conj().T) <= 1e-13 * (1 + bound1.T))

    @PROPERTY
    @given(st.data())
    def test_json_round_trip_is_exact(self, data):
        b = data.draw(elements(data.draw(contacts())))
        assert SymbolElement.from_json_dict(b.to_json_dict()).equals_exact(b)
