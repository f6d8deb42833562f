"""Function rings backing the canonical quintuple.

TrigPolynomial is a finite Fourier series on the unit circle; it carries
the continuous symbol of the Toeplitz part.  HalfPolynomial is the ring
{ p(t) + sqrt(t) q(t) : p, q polynomials, p(0) = 0 } on an interval
[0, s], which is the ring of polynomials in r = sqrt(t) without constant
term: the coset of the composition operator is u sqrt(x*x), so the
generators bring in sqrt(t).  It is stored as one coefficient array in
r, so sums add and products convolve it.  The interval slots f, g, h, k
of a canonical quintuple stay inside it under sums, products and
adjoints.
"""

import numpy as np


def _trim(arr: np.ndarray) -> np.ndarray:
    """Drop exactly-zero trailing coefficients (canonical form)."""
    n = len(arr)
    while n > 0 and arr[n - 1] == 0:
        n -= 1
    return arr[:n]


def _view(arr: np.ndarray) -> np.ndarray:
    """Trimmed read-only view of a coefficient array."""
    arr = _trim(arr)
    arr.flags.writeable = False
    return arr


class TrigPolynomial:
    """Finite sum of c_n z^n over integer frequencies n, evaluated on |z| = 1."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, complex] | None = None):
        data = {}
        if coeffs:
            for n, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    data[int(n)] = data.get(int(n), 0) + c
        self._coeffs = {n: c for n, c in data.items() if c != 0}

    @classmethod
    def constant(cls, c: complex) -> "TrigPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, n: int, c: complex = 1.0) -> "TrigPolynomial":
        return cls({n: c})

    @classmethod
    def zero(cls) -> "TrigPolynomial":
        return cls()

    def coefficient(self, n: int) -> complex:
        return self._coeffs.get(n, 0j)

    def items(self) -> list[tuple[int, complex]]:
        return sorted(self._coeffs.items())

    @property
    def degree(self) -> int:
        """max |n| over the support; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(abs(n) for n in self._coeffs)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for n, c in self._coeffs.items():
            out = out + c * z**n
        if out.ndim == 0:
            return complex(out)
        return out

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        data = dict(self._coeffs)
        for n, c in other._coeffs.items():
            data[n] = data.get(n, 0) + c
        return TrigPolynomial(data)

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + (-1) * other

    def __mul__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        data: dict[int, complex] = {}
        for n1, c1 in self._coeffs.items():
            for n2, c2 in other._coeffs.items():
                n = n1 + n2
                data[n] = data.get(n, 0) + c1 * c2
        return TrigPolynomial(data)

    def __rmul__(self, scalar: complex) -> "TrigPolynomial":
        return TrigPolynomial({n: scalar * c for n, c in self._coeffs.items()})

    def __neg__(self) -> "TrigPolynomial":
        return (-1) * self

    def conj(self) -> "TrigPolynomial":
        """Complex conjugate on the circle: c_n -> conj(c_{-n})."""
        return TrigPolynomial({-n: c.conjugate() for n, c in self._coeffs.items()})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self._coeffs.values())

    def equals_exact(self, other: "TrigPolynomial") -> bool:
        return self._coeffs == other._coeffs

    def allclose(self, other: "TrigPolynomial", tol: float = 1e-10) -> bool:
        keys = set(self._coeffs) | set(other._coeffs)
        return all(abs(self.coefficient(n) - other.coefficient(n)) <= tol for n in keys)

    def __repr__(self):
        return f"TrigPolynomial({dict(self.items())!r})"


class HalfPolynomial:
    """p(t) + sqrt(t) q(t) with p(0) = 0, kept as one polynomial in r = sqrt(t).

    Coefficient c[n] multiplies r^n, so the even coefficients are those of
    p, the odd ones those of q, and c[0] = p(0) = 0.  Sums add and products
    convolve the one array.  The constructor and the read-only views .p and
    .q speak (p, q), coefficients in increasing degree of t.
    """

    __slots__ = ("c",)

    def __init__(self, p=(), q=()):
        p = np.asarray(p, dtype=complex)
        q = np.asarray(q, dtype=complex)
        if len(p) and p[0] != 0:
            raise ValueError("polynomial part must vanish at t = 0")
        c = np.zeros(max(2 * len(p) - 1, 2 * len(q)), dtype=complex)
        c[0 : 2 * len(p) : 2] = p
        c[1 : 2 * len(q) : 2] = q
        self.c = _trim(c)

    @classmethod
    def _of(cls, c: np.ndarray) -> "HalfPolynomial":
        """Wrap a coefficient array in r whose c[0] already vanishes."""
        obj = object.__new__(cls)
        obj.c = _trim(c)
        return obj

    @property
    def p(self) -> np.ndarray:
        return _view(self.c[0::2])

    @property
    def q(self) -> np.ndarray:
        return _view(self.c[1::2])

    @classmethod
    def zero(cls) -> "HalfPolynomial":
        return cls()

    @classmethod
    def sqrt_t(cls, c: complex = 1.0) -> "HalfPolynomial":
        return cls((), (c,))

    @classmethod
    def t_power(cls, n: int, c: complex = 1.0) -> "HalfPolynomial":
        if n < 1:
            raise ValueError("polynomial part starts at t^1")
        coeffs = [0] * n + [c]
        return cls(coeffs, ())

    def __call__(self, t):
        # Horner in t on p and on q; a Horner scheme in sqrt(t) rounds differently.
        t = np.asarray(t, dtype=float)
        pv = np.zeros(t.shape, dtype=complex)
        for c in self.p[::-1]:
            pv = pv * t + c
        qv = np.zeros(t.shape, dtype=complex)
        for c in self.q[::-1]:
            qv = qv * t + c
        out = pv + np.sqrt(t) * qv
        if out.ndim == 0:
            return complex(out)
        return out

    def __add__(self, other: "HalfPolynomial") -> "HalfPolynomial":
        x, y = self.c, other.c
        if len(x) < len(y):
            x, y = y, x
        out = x.copy()
        out[: len(y)] += y
        return HalfPolynomial._of(out)

    def __sub__(self, other: "HalfPolynomial") -> "HalfPolynomial":
        return self + (-1) * other

    def __mul__(self, other: "HalfPolynomial") -> "HalfPolynomial":
        if len(self.c) == 0 or len(other.c) == 0:
            return HalfPolynomial._of(self.c[:0])
        return HalfPolynomial._of(np.convolve(self.c, other.c))

    def __rmul__(self, scalar: complex) -> "HalfPolynomial":
        return HalfPolynomial._of(scalar * self.c)

    def __neg__(self) -> "HalfPolynomial":
        return (-1) * self

    def conj(self) -> "HalfPolynomial":
        """Pointwise conjugate for real t: conjugate each coefficient."""
        return HalfPolynomial._of(np.conj(self.c))

    def is_zero(self, tol: float = 0.0) -> bool:
        return len(self.c) == 0 or np.max(np.abs(self.c)) <= tol

    def equals_exact(self, other: "HalfPolynomial") -> bool:
        return np.array_equal(self.c, other.c)

    def allclose(self, other: "HalfPolynomial", tol: float = 1e-10) -> bool:
        return (self - other).is_zero(tol)

    def __repr__(self):
        return f"HalfPolynomial(p={self.p.tolist()!r}, q={self.q.tolist()!r})"
