"""Function rings backing the canonical quintuple, with one array implementation.

Each element is a complex coefficient array c with an offset lo, c[i]
multiplying x^(lo + i): sums add the aligned arrays, products convolve
them.  TrigPolynomial (x = z) is a finite Fourier series on the unit
circle, the symbol w of the Toeplitz part.  HalfPolynomial (x = sqrt(t),
lo = 0) is the ring { p(t) + sqrt(t) q(t) : p(0) = 0 } on [0, s]: the
coset of the composition operator is u sqrt(x*x), so the generators bring
in sqrt(t), and the slots f, g, h, k stay inside it under the algebra.
HalfPolynomial.evaluate is its one evaluator: it takes several elements
at once, computes only the nonzero ones (Horner in t, in place) and takes
sqrt(t) once; calling one element goes through it.
"""

import numpy as np


def _trim(lo: int, c: np.ndarray, start: bool) -> tuple[int, np.ndarray]:
    """Drop exactly-zero coefficients at the end, and at the start if asked; zero has lo = 0."""
    vals = c.tolist()
    first, end = 0, len(vals)
    while end > 0 and vals[end - 1] == 0:
        end -= 1
    while start and first < end and vals[first] == 0:
        first += 1
    return (lo + first if end else 0), c[first:end]


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum coeffs[n] t^n by Horner's rule, in place on one new complex array."""
    value = np.zeros(t.shape, dtype=complex)
    for c in coeffs[::-1]:
        value *= t
        value += c
    return value


def _view(arr: np.ndarray) -> np.ndarray:
    """Trimmed read-only view of a coefficient array."""
    arr = _trim(0, arr, False)[1]
    arr.flags.writeable = False
    return arr


class _CoefficientRing:
    """Sum of c[i] x^(lo + i); subclasses fix x, conj and which zeros to trim."""

    __slots__ = ("lo", "c")

    @classmethod
    def _of(cls, lo: int, c: np.ndarray):
        """Wrap a coefficient array that lies in the ring."""
        obj = object.__new__(cls)
        obj.lo, obj.c = _trim(lo, c, cls._trim_start)
        return obj

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """The coefficients of x^lo, ..., x^hi as a new array; 0 + c reads -0.0 parts as 0.0."""
        out = np.zeros(hi - lo + 1, dtype=complex)
        a, b = max(lo, self.lo), min(hi + 1, self.lo + len(self.c))
        if a < b:
            out[a - lo : b - lo] += self.c[a - self.lo : b - self.lo]
        return out

    def __add__(self, other):
        # Copy the longer array and add the shorter one into it, so that a
        # coefficient only one operand has keeps its bits, signed zeros too.
        x, y = (self, other) if len(self.c) >= len(other.c) else (other, self)
        if len(y.c) == 0:
            return x
        lo = min(x.lo, y.lo)
        if lo == x.lo and y.lo + len(y.c) <= x.lo + len(x.c):
            out = x.c.copy()
        else:
            out = x.dense(lo, max(x.lo + len(x.c), y.lo + len(y.c)) - 1)
        out[y.lo - lo : y.lo - lo + len(y.c)] += y.c
        return self._of(lo, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if len(self.c) == 0 or len(other.c) == 0:
            return self._of(0, self.c[:0])
        return self._of(self.lo + other.lo, np.convolve(self.c, other.c))

    def __rmul__(self, scalar: complex):
        return self._of(self.lo, scalar * self.c)

    def __neg__(self):
        return (-1) * self

    def is_zero(self, tol: float = 0.0) -> bool:
        # Both canonical forms end in a nonzero coefficient.
        return len(self.c) == 0 or (tol > 0 and np.max(np.abs(self.c)) <= tol)

    @classmethod
    def zero(cls):
        return cls()

    def equals_exact(self, other) -> bool:
        return self.lo == other.lo and np.array_equal(self.c, other.c)

    def allclose(self, other, tol: float = 1e-10) -> bool:
        return (self - other).is_zero(tol)


class TrigPolynomial(_CoefficientRing):
    """Finite sum of c_n z^n over integer n, evaluated on |z| = 1; arithmetic can
    leave -0.0 parts in c, which items, dense and coefficient read as 0.0."""

    __slots__ = ()
    _trim_start = True  # so (lo, c) is canonical

    def __init__(self, coeffs: dict[int, complex] | None = None):
        terms: dict[int, complex] = {}
        for n, c in (coeffs or {}).items():
            if n != int(n):
                raise ValueError(f"frequency {n!r} is not an integer")
            if c != 0:
                terms[int(n)] = terms.get(int(n), 0) + complex(c)
        lo = min(terms, default=0)
        vals = [terms.get(n, 0j) for n in range(lo, max(terms, default=lo - 1) + 1)]
        self.lo, self.c = _trim(lo, np.array(vals, dtype=complex), True)

    @classmethod
    def constant(cls, c: complex) -> "TrigPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, n: int, c: complex = 1.0) -> "TrigPolynomial":
        return cls({n: c})

    def coefficient(self, n: int) -> complex:
        return complex(self.dense(n, n)[0])

    def items(self) -> list[tuple[int, complex]]:
        """(n, c_n) over the nonzero coefficients, in ascending frequency."""
        return [(self.lo + i, 0 + c) for i, c in enumerate(self.c.tolist()) if c != 0]

    @property
    def degree(self) -> int:
        """max |n| over the support; -1 for the zero polynomial."""
        return max(-self.lo, self.lo + len(self.c) - 1) if len(self.c) else -1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for n, c in self.items():
            out = out + c * z**n
        return complex(out) if out.ndim == 0 else out

    def conj(self) -> "TrigPolynomial":
        """Complex conjugate on the circle: c_n -> conj(c_{-n})."""
        return self._of(1 - self.lo - len(self.c), np.conj(self.c[::-1]))

    def __repr__(self):
        return f"TrigPolynomial({dict(self.items())!r})"


class HalfPolynomial(_CoefficientRing):
    """p(t) + sqrt(t) q(t) with p(0) = 0, kept as one polynomial in r = sqrt(t).

    Coefficient c[n] multiplies r^n, so the even coefficients are those of
    p, the odd ones those of q, and c[0] = p(0) = 0.  The constructor and the
    read-only views .p and .q speak (p, q), coefficients in increasing t-degree.
    """

    __slots__ = ()
    _trim_start = False  # c[0] keeps its sign, which the quintuple JSON shows

    def __init__(self, p=(), q=()):
        p, q = (np.asarray(x, dtype=complex) for x in (p, q))
        if len(p) and p[0] != 0:
            raise ValueError("polynomial part must vanish at t = 0")
        c = np.zeros(max(2 * len(p) - 1, 2 * len(q)), dtype=complex)
        c[0 : 2 * len(p) : 2] = p
        c[1 : 2 * len(q) : 2] = q
        self.lo, self.c = _trim(0, c, False)

    @property
    def p(self) -> np.ndarray:
        return _view(self.c[0::2])

    @property
    def q(self) -> np.ndarray:
        return _view(self.c[1::2])

    @classmethod
    def sqrt_t(cls, c: complex = 1.0) -> "HalfPolynomial":
        return cls((), (c,))

    @classmethod
    def t_power(cls, n: int, c: complex = 1.0) -> "HalfPolynomial":
        if n < 1:
            raise ValueError("polynomial part starts at t^1")
        return cls([0] * n + [c])

    @staticmethod
    def evaluate(slots, t) -> list[np.ndarray]:
        """Values of several elements at the points t of [0, s], in one pass.

        Each value is p(t) + sqrt(t) q(t) with p and q by Horner's rule in t
        (a Horner scheme in sqrt(t) rounds differently).  Only the nonzero
        elements are computed: every zero element gets one shared +0 array,
        and sqrt(t) is taken once.  A value with no q part gets + 0, as
        p(t) + sqrt(t) * 0 would, so -0.0 parts come out as +0.0.
        """
        t = np.asarray(t, dtype=float)
        zero = r = None
        out = []
        for x in slots:
            if not len(x.c):
                zero = np.zeros(t.shape, dtype=complex) if zero is None else zero
                out.append(zero)
                continue
            p, q = x.p, x.q
            value = _horner(p, t) if len(p) else 0
            if len(q):
                r = np.sqrt(t) if r is None else r
                qv = _horner(q, t)
                qv *= r
                qv += value
                value = qv
            else:
                value += 0
            out.append(value)
        return out

    def __call__(self, t):
        out = self.evaluate((self,), t)[0]
        return complex(out) if out.ndim == 0 else out

    def conj(self) -> "HalfPolynomial":
        """Pointwise conjugate for real t: conjugate each coefficient."""
        return self._of(0, np.conj(self.c))

    def __repr__(self):
        return f"HalfPolynomial(p={self.p.tolist()!r}, q={self.q.tolist()!r})"
