"""Expressions in the operator generators and their normal forms.

Grammar (whitespace-insensitive; adjoint ' binds tighter than *):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom "'"*
    atom     := 'I' | 'C' | 'S' | 'K' | 'T{' trigpoly '}'
              | number | '(' re ',' im ')' | '(' expr ')'
    trigpoly := ['+'|'-'] trigterm (('+'|'-') trigterm)*
    trigterm := coeff ['*'] [zpart] | zpart
    zpart    := 'z' ['^' ['-'] digits]

I is the identity, C the composition operator, S its Krein companion
(so C' and s*S agree modulo compacts), T{...} a Toeplitz operator with
trig-polynomial symbol, and K an unspecified compact summand that
normalization drops.  Numbers and (re,im) pairs are complex scalars;
juxtaposition is not multiplication.

Normalization rewrites any expression, modulo compact operators, to the
unique canonical quintuple (w; f, g, h, k); to_composition_sum renders
that quintuple back as a sum of Toeplitz and composition operators.
"""

import operator
import re
from dataclasses import dataclass
from functools import reduce

from .moebius import ContactData
from .rings import HalfPolynomial, TrigPolynomial
from .symbol import (
    SymbolElement,
    embed_cphi,
    embed_csigma,
    embed_toeplitz,
    identity_element,
    zero_element,
)


class ExpressionSyntaxError(ValueError):
    """Parse failure; carries the 0-based offset and the expected tokens."""

    def __init__(self, message: str, position: int, expected: set[str] | None = None):
        self.position = position
        self.expected = set(expected or ())
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += f" (expected one of: {', '.join(sorted(self.expected))})"
        super().__init__(detail)


class NotInGeneratorRingError(ValueError):
    """Quintuple falls outside the span of words in the two generators."""


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Toeplitz:
    symbol: TrigPolynomial


@dataclass(frozen=True)
class CPhi:
    pass


@dataclass(frozen=True)
class CSigma:
    pass


@dataclass(frozen=True)
class CompactTerm:
    pass


@dataclass(frozen=True)
class Adjoint:
    operand: "OperatorExpression"


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Scalar:
    value: complex
    operand: "OperatorExpression"


OperatorExpression = (
    Identity | Toeplitz | CPhi | CSigma | CompactTerm | Adjoint | Sum | Product | Scalar
)


# --------------------------------------------------------------------------
# parser

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_SIGNED = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = re.compile(r"\(\s*(" + _SIGNED + r")\s*,\s*(" + _SIGNED + r")\s*\)")
_INT = re.compile(r"\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, expected: set[str] | None = None):
        raise ExpressionSyntaxError(message, self.pos, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str):
        if not self.take(char):
            self.error(f"missing {char!r}", {char})

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> OperatorExpression:
        terms = [self.parse_term()]
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                terms.append(self.parse_term())
            elif ch == "-":
                self.pos += 1
                terms.append(_negate(self.parse_term()))
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    # term := factor ('*' factor)*
    def parse_term(self) -> OperatorExpression:
        factors = [self.parse_factor()]
        while self.take("*"):
            factors.append(self.parse_factor())
        coeff = complex(1)
        operators = []
        for f in factors:
            if isinstance(f, Scalar) and isinstance(f.operand, Identity):
                coeff *= f.value
            else:
                operators.append(f)
        if not operators:
            return Scalar(coeff, Identity())
        node = operators[0] if len(operators) == 1 else Product(tuple(operators))
        return node if coeff == 1 else Scalar(coeff, node)

    # factor := atom "'"*
    def parse_factor(self) -> OperatorExpression:
        node = self.parse_atom()
        while self.take("'"):
            node = Adjoint(node)
        return node

    def parse_atom(self) -> OperatorExpression:
        ch = self.peek()
        if ch == "I":
            self.pos += 1
            return Identity()
        if ch == "C":
            self.pos += 1
            return CPhi()
        if ch == "S":
            self.pos += 1
            return CSigma()
        if ch == "K":
            self.pos += 1
            return CompactTerm()
        if ch == "T":
            self.pos += 1
            self.expect("{")
            poly = self.parse_trigpoly()
            self.expect("}")
            return Toeplitz(poly)
        if ch == "(":
            m = _COMPLEX.match(self.text, self.pos)
            if m:
                self.pos = m.end()
                return Scalar(complex(float(m.group(1)), float(m.group(2))), Identity())
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Scalar(complex(float(m.group(0))), Identity())
        self.error(
            "unrecognized token",
            {"I", "C", "S", "K", "T{", "number", "(re,im)", "("},
        )

    # trigpoly := [sign] trigterm (sign trigterm)*
    def parse_trigpoly(self) -> TrigPolynomial:
        coeffs: dict[int, complex] = {}
        sign = -1.0 if self.take("-") else 1.0
        if self.peek() == "+":
            self.pos += 1
        n, c = self.parse_trigterm()
        coeffs[n] = coeffs.get(n, 0) + sign * c
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                sign = 1.0
            elif ch == "-":
                self.pos += 1
                sign = -1.0
            else:
                break
            n, c = self.parse_trigterm()
            coeffs[n] = coeffs.get(n, 0) + sign * c
        return TrigPolynomial(coeffs)

    # trigterm := coeff ['*'] [zpart] | zpart
    def parse_trigterm(self) -> tuple[int, complex]:
        ch = self.peek()
        coeff = complex(1)
        have_coeff = False
        if ch == "(":
            m = _COMPLEX.match(self.text, self.pos)
            if not m:
                self.error("malformed complex coefficient", {"(re,im)"})
            self.pos = m.end()
            coeff = complex(float(m.group(1)), float(m.group(2)))
            have_coeff = True
        else:
            m = _NUMBER.match(self.text, self.pos)
            if m:
                self.pos = m.end()
                coeff = complex(float(m.group(0)))
                have_coeff = True
        if have_coeff:
            self.take("*")
        if self.peek() == "z":
            self.pos += 1
            n = 1
            if self.take("^"):
                neg = self.take("-")
                m = _INT.match(self.text, self.pos)
                if not m:
                    self.error("missing integer exponent", {"integer"})
                self.pos = m.end()
                n = int(m.group(0))
                if neg:
                    n = -n
            return n, coeff
        if not have_coeff:
            self.error("expected a coefficient or z", {"number", "(re,im)", "z"})
        return 0, coeff


def _negate(node: OperatorExpression) -> OperatorExpression:
    if isinstance(node, Scalar):
        return Scalar(-node.value, node.operand)
    return Scalar(complex(-1), node)


def parse(text: str) -> OperatorExpression:
    """Parse an expression; raises ExpressionSyntaxError with an offset."""
    p = _Parser(text)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input", {"+", "-", "*", "end of input"})
    return node


# --------------------------------------------------------------------------
# normalization


def fold(e: OperatorExpression, leaves: dict, mul, adjoint):
    """Evaluate an expression tree bottom-up.

    ``leaves`` maps each atom type (Identity, Toeplitz, CPhi, CSigma,
    CompactTerm) to a function of the atom that gives its value.  Sums
    add with +, scalars multiply with *, products reduce with ``mul`` and
    adjoint marks apply ``adjoint``; sums and products reduce from their
    first operand.
    """
    if isinstance(e, Adjoint):
        return adjoint(fold(e.operand, leaves, mul, adjoint))
    if isinstance(e, Scalar):
        return e.value * fold(e.operand, leaves, mul, adjoint)
    if isinstance(e, Sum):
        return reduce(operator.add, (fold(t, leaves, mul, adjoint) for t in e.terms))
    if isinstance(e, Product):
        return reduce(mul, (fold(f, leaves, mul, adjoint) for f in e.factors))
    leaf = leaves.get(type(e))
    if leaf is None:
        raise TypeError(f"not an operator expression: {e!r}")
    return leaf(e)


def normalize(e: OperatorExpression, contact: ContactData) -> SymbolElement:
    """Canonical quintuple of the expression's coset, modulo compacts.

    The generators carry the polar-decomposition images: C becomes the
    off-diagonal sqrt(t), C' its swap, S the same scaled by 1/s, and an
    explicit K summand is dropped.
    """
    leaves = {
        Identity: lambda _: identity_element(contact),
        Toeplitz: lambda atom: embed_toeplitz(atom.symbol, contact),
        CPhi: lambda _: embed_cphi(contact),
        CSigma: lambda _: embed_csigma(contact),
        CompactTerm: lambda _: zero_element(contact),
    }
    return fold(e, leaves, operator.mul, lambda b: b.adjoint())


# --------------------------------------------------------------------------
# rendering


def _fmt_real(x: float) -> str:
    return f"{x:.12g}"


def _fmt_scalar(c: complex) -> str:
    if c.imag == 0:
        return _fmt_real(c.real)
    if c.real == 0:
        return f"{_fmt_real(c.imag)}i"
    return f"({_fmt_real(c.real)}{'+' if c.imag >= 0 else '-'}{_fmt_real(abs(c.imag))}i)"


def _coeff_prefix(c: complex) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return _fmt_scalar(c)


def _fmt_trig_pretty(w: TrigPolynomial) -> str:
    if w.is_zero():
        return "0"
    parts = []
    for n, c in w.items():
        if n == 0:
            base = _fmt_scalar(c)
        else:
            zp = "z" if n == 1 else f"z^{n}"
            base = f"{_coeff_prefix(c)}{zp}"
        parts.append(base)
    return " + ".join(parts)


def _fmt_half_pretty(hp: HalfPolynomial) -> str:
    if hp.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(hp.p):
        if c == 0:
            continue
        tp = "t" if i == 1 else f"t^{i}"
        parts.append(f"{_coeff_prefix(complex(c))}{tp}")
    for i, c in enumerate(hp.q):
        if c == 0:
            continue
        if i == 0:
            tp = "sqrt(t)"
        elif i == 1:
            tp = "sqrt(t)t"
        else:
            tp = f"sqrt(t)t^{i}"
        parts.append(f"{_coeff_prefix(complex(c))}{tp}")
    return " + ".join(parts)


def render(b: SymbolElement) -> str:
    """Human-readable dump of the canonical quintuple."""
    return "\n".join(
        [
            f"w: {_fmt_trig_pretty(b.w)}",
            f"f: {_fmt_half_pretty(b.f)}",
            f"g: {_fmt_half_pretty(b.g)}",
            f"h: {_fmt_half_pretty(b.h)}",
            f"k: {_fmt_half_pretty(b.k)}",
            f"s: {_fmt_real(b.s)}",
        ]
    )


def _literal(c: complex) -> str:
    c = complex(c)
    return f"({c.real!r},{c.imag!r})"


def _trig_grammar(w: TrigPolynomial) -> str:
    parts = []
    for n, c in w.items():
        if n == 0:
            parts.append(_literal(c))
        elif n == 1:
            parts.append(f"{_literal(c)}*z")
        else:
            parts.append(f"{_literal(c)}*z^{n}")
    return "+".join(parts)


def _ring_coefficients(b: SymbolElement):
    """Monomial coefficients (f_n, g_n, h_n, k_n) of a generator-ring element.

    Requires f, g to be plain polynomials and h, k pure sqrt(t) series;
    raises NotInGeneratorRingError otherwise.
    """
    for name, part in (("f", b.f), ("g", b.g)):
        if len(part.q):
            raise NotInGeneratorRingError(
                f"{name} has a sqrt(t) component; not a word in the generators"
            )
    for name, part in (("h", b.h), ("k", b.k)):
        if len(part.p):
            raise NotInGeneratorRingError(
                f"{name} has a polynomial component; not a word in the generators"
            )
    f = {n: complex(c) for n, c in enumerate(b.f.p) if c != 0}
    g = {n: complex(c) for n, c in enumerate(b.g.p) if c != 0}
    h = {n: complex(c) for n, c in enumerate(b.h.q) if c != 0}
    k = {n: complex(c) for n, c in enumerate(b.k.q) if c != 0}
    return f, g, h, k


def to_composition_sum(b: SymbolElement) -> str:
    """Rewrite f, g, h, k as composition-operator words in C and S.

    The output is in the expression grammar, so it parses back; the
    trailing "+ K" records the compact ambiguity of the coset.  Slot
    monomials map to iterates:

        t^n in f        -> f_n s^n (S*C)^n
        t^n in g        -> g_n s^n (C*S)^n
        sqrt(t) t^n in h -> h_n s^n C (S*C)^n
        sqrt(t) t^n in k -> k_n s^(n+1) S (C*S)^n
    """
    f, g, h, k = _ring_coefficients(b)
    s = b.s
    terms = []
    if not b.w.is_zero():
        terms.append(f"T{{{_trig_grammar(b.w)}}}")
    for n, c in sorted(f.items()):
        terms.append(_literal(c * s**n) + "*S*C" * n)
    for n, c in sorted(g.items()):
        terms.append(_literal(c * s**n) + "*C*S" * n)
    for n, c in sorted(h.items()):
        terms.append(_literal(c * s**n) + "*C" + "*S*C" * n)
    for n, c in sorted(k.items()):
        terms.append(_literal(c * s ** (n + 1)) + "*S" + "*C*S" * n)
    if not terms:
        terms.append("0")
    return " + ".join(terms) + " + K"


_PHI = "φ"
_SIGMA = "σ"
_CIRC = "∘"
_CDOT = "·"
_PHI_SIGMA = _PHI + _CIRC + _SIGMA
_SIGMA_PHI = _SIGMA + _CIRC + _PHI


def _pretty_coeff(c: complex) -> str:
    if c == 1:
        return ""
    return _fmt_scalar(c) + _CDOT


def composition_sum_pretty(b: SymbolElement) -> str:
    """Display form of to_composition_sum with named composition operators."""
    f, g, h, k = _ring_coefficients(b)
    s = b.s
    terms = []
    if not b.w.is_zero():
        terms.append(f"T{{{_fmt_trig_pretty(b.w)}}}")

    def word(base: str, n: int) -> str:
        return f"C_{{{base}}}" if n == 1 else f"C_{{({base})_{n}}}"

    def tail_word(base: str, n: int, tail: str) -> str:
        if n == 0:
            return f"C_{tail}"
        return f"C_{{({base})_{n}{_CIRC}{tail}}}"

    for n, c in sorted(f.items()):
        terms.append(_pretty_coeff(c * s**n) + word(_PHI_SIGMA, n))
    for n, c in sorted(g.items()):
        terms.append(_pretty_coeff(c * s**n) + word(_SIGMA_PHI, n))
    for n, c in sorted(h.items()):
        terms.append(_pretty_coeff(c * s**n) + tail_word(_PHI_SIGMA, n, _PHI))
    for n, c in sorted(k.items()):
        terms.append(_pretty_coeff(c * s ** (n + 1)) + tail_word(_SIGMA_PHI, n, _SIGMA))
    if not terms:
        terms.append("0")
    return " + ".join(terms) + " + K"
