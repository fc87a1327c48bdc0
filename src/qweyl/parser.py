"""Expression parser for scalars, algebra elements, and symmetry words.

Grammar sketch (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := ('-' | '+')* postfix
    postfix  := primary ("'" | '^' ['-'] INT)*
    primary  := '(' expr ')' | INT | NAME | NAME '(' expr ')'

Names: ``i q0 q lambda`` (scalars), ``y1.. x1.. R1.. Q1..`` (algebra,
``Qk`` expanding to its signed square of ``Rk``), ``K1 E1 F1 ..``
(symmetry generators, ``K1^-1`` for the inverse), and the query heads
``eps`` and ``S``.  ``'`` is the involution.  Negative exponents are only
defined on scale generators, ``Q``, and ``K``.
"""

from __future__ import annotations

import re

from . import coeff, uq, weyl
from .coeff import ScalarValue
from .errors import ParseError
from .uq import HopfElement
from .weyl import AlgebraElement

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<op>[-+*/^()'()]))")

_SCALARS = {"i", "q0", "q", "lambda"}
_GEN_RE = re.compile(r"^([yxRQKEF])(\d+)$")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.n = n
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", at, expected=(symbol,))
        return self.advance()

    # -- value model ----------------------------------------------------

    @staticmethod
    def _check_mix(a, b, at):
        if not (isinstance(a, ScalarValue) or isinstance(b, ScalarValue)
                or type(a) is type(b)):
            raise ParseError("cannot mix coordinate and symmetry generators", at)

    def _div(self, a, b, at):
        if not isinstance(b, ScalarValue):
            raise ParseError("division is defined for scalar denominators only", at)
        if b.is_zero:
            raise ParseError("division by zero", at)
        if isinstance(a, ScalarValue):
            return a / b
        return a.scaled(b.inv())

    def _pow(self, a, k, at):
        if isinstance(a, ScalarValue):
            if a.is_zero and k < 0:
                raise ParseError("division by zero", at)
            return a ** k
        if isinstance(a, AlgebraElement):
            if k < 0:
                try:
                    a, k = a.monomial_inverse(), -k
                except ValueError:
                    raise ParseError("negative exponents are only defined "
                                     "on scale generators", at)
            return a ** k
        # symmetry words: negative powers only for K words
        if k >= 0:
            # a sum of T words expands to up to T^k words: refuse first
            weyl._check_power_work(len(a.terms), k,
                                   max(map(len, a.terms), default=0))
            return a ** k
        if len(a.terms) == 1:
            ((word, cv),) = a.terms.items()
            if cv.is_one and all(kind in (uq.K, uq.KINV) for kind, _ in word):
                flipped = tuple((uq.KINV if kind == uq.K else uq.K, j)
                                for kind, j in reversed(word))
                base = HopfElement(self.n, {flipped: coeff.ONE})
                return self._pow(base, -k, at)
        raise ParseError("negative exponents are only defined on K words", at)

    # -- grammar --------------------------------------------------------

    def parse(self):
        value = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, sym, at = self.peek()
            if kind == "op" and sym in "+-":
                self.advance()
                rhs = self.term()
                self._check_mix(value, rhs, at)
                value = value + rhs if sym == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, sym, at = self.peek()
            if kind == "op" and sym in "*/":
                self.advance()
                rhs = self.unary()
                if sym == "*":
                    self._check_mix(value, rhs, at)
                    value = value * rhs
                else:
                    value = self._div(value, rhs, at)
            else:
                return value

    def unary(self):
        sign = 1
        while True:
            kind, sym, _ = self.peek()
            if kind == "op" and sym in "+-":
                self.advance()
                if sym == "-":
                    sign = -sign
            else:
                break
        value = self.postfix()
        if sign < 0:
            value = -value
        return value

    def postfix(self):
        value = self.primary()
        while True:
            kind, sym, at = self.peek()
            if kind == "op" and sym == "'":
                self.advance()
                value = value.star()
            elif kind == "op" and sym == "^":
                self.advance()
                value = self._pow(value, self.exponent(), at)
            else:
                return value

    def exponent(self):
        kind, sym, at = self.peek()
        neg = False
        if kind == "op" and sym == "-":
            self.advance()
            neg = True
        kind, val, at = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", at,
                             expected=("integer",))
        self.advance()
        return -val if neg else val

    def primary(self):
        kind, val, at = self.advance()
        if kind == "int":
            return coeff.integer(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            return self.name_value(val, at)
        raise ParseError("expected a value", at,
                         expected=("integer", "name", "("))

    def name_value(self, name, at):
        if name == "i":
            return coeff.I
        if name == "q0":
            return coeff.Q0
        if name == "q":
            return coeff.Q
        if name == "lambda":
            return coeff.LAMBDA
        if name in ("eps", "S"):
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            if isinstance(arg, ScalarValue):
                arg = HopfElement.unit(self.n).scaled(arg)
            if not isinstance(arg, HopfElement):
                raise ParseError(f"{name}() takes a symmetry-algebra argument", at)
            return uq.counit(arg) if name == "eps" else uq.antipode_element(arg)
        m = _GEN_RE.match(name)
        if not m:
            raise ParseError(f"unknown name {name!r}", at)
        head, idx = m.group(1), int(m.group(2))
        n = self.n
        if head == "y":
            return weyl.gen_y(n, idx)
        if head == "x":
            return weyl.gen_x(n, idx)
        if head == "R":
            return weyl.gen_r(n, idx)
        if head == "Q":
            return weyl.q_elem(n, idx)
        return HopfElement.generator(n, {"K": uq.K, "E": uq.E,
                                         "F": uq.F}[head], idx)


def parse_expression(text, n):
    """Parse to a scalar, an algebra element, or a symmetry word."""
    return _Parser(text, n).parse()


def parse_algebra(text, n):
    value = parse_expression(text, n)
    if isinstance(value, ScalarValue):
        return weyl.scalar_element(n, value)
    if not isinstance(value, AlgebraElement):
        raise ParseError("expected a coordinate-algebra expression", 0)
    return value


def parse_hopf(text, n):
    value = parse_expression(text, n)
    if isinstance(value, ScalarValue):
        return HopfElement.unit(n).scaled(value)
    if not isinstance(value, HopfElement):
        raise ParseError("expected a symmetry-algebra expression", 0)
    return value


def parse_scalar(text):
    value = parse_expression(text, 1)
    if not isinstance(value, ScalarValue):
        raise ParseError("expected a scalar expression", 0)
    return value
