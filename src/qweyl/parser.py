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
import sys

from . import coeff, uq, weyl
from .coeff import ScalarValue
from .errors import ParseError
from .uq import HopfElement
from .weyl import AlgebraElement

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<op>[-+*/^()'()]))")

_CONSTANTS = {"i": coeff.I, "q0": coeff.Q0, "q": coeff.Q,
              "lambda": coeff.LAMBDA}

# generator heads and their builders ``(n, index)``; the K, E and F heads
# name their kinds in ``uq``
_GENERATORS = {"y": weyl.gen_y, "x": weyl.gen_x, "R": weyl.gen_r,
               "Q": weyl.q_elem,
               **{kind: (lambda n, j, kind=kind:
                         HopfElement.generator(n, kind, j)) for kind in "KEF"}}

_GEN_RE = re.compile(rf"^([{''.join(_GENERATORS)}])(\d+)$")

# what a negative power is defined on, by element type
_INVERTIBLE = {AlgebraElement: "scale generators", HopfElement: "K words"}

# parentheses, ``eps(`` and ``S(`` nest at most this deep; each level takes
# several Python frames, so a fixed bound refuses before the stack runs out
MAX_NESTING = 100


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
            digits, at = m.group("int"), m.start("int")
            try:
                value = int(digits)
            except ValueError:  # past the interpreter's conversion limit
                raise ParseError(f"integer literal of {len(digits)} digits "
                                 "passes the limit of "
                                 f"{sys.get_int_max_str_digits()} digits",
                                 at) from None
            tokens.append(("int", value, at))
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
        self.depth = 0

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

    def nested(self, at):
        """``expr ')'`` after the opening parenthesis at ``at``."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"parentheses nest deeper than {MAX_NESTING} "
                             "levels", at)
        self.depth += 1
        value = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return value

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
        elif k < 0:
            try:
                a, k = a.monomial_inverse(), -k
            except ValueError:
                raise ParseError("negative exponents are only defined on "
                                 + _INVERTIBLE[type(a)], at) from None
        return a ** k

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
            return self.nested(at)
        if kind == "name":
            return self.name_value(val, at)
        raise ParseError("expected a value", at,
                         expected=("integer", "name", "("))

    def name_value(self, name, at):
        if name in _CONSTANTS:
            return _CONSTANTS[name]
        if name in ("eps", "S"):
            arg = self.nested(self.expect_op("(")[2])
            if isinstance(arg, ScalarValue):
                arg = HopfElement.zero(self.n) + arg
            if not isinstance(arg, HopfElement):
                raise ParseError(f"{name}() takes a symmetry-algebra argument", at)
            return uq.counit(arg) if name == "eps" else uq.antipode_element(arg)
        m = _GEN_RE.match(name)
        if not m:
            raise ParseError(f"unknown name {name!r}", at)
        return _GENERATORS[m.group(1)](self.n, int(m.group(2)))


def parse_expression(text, n):
    """Parse to a scalar, an algebra element, or a symmetry word."""
    return _Parser(text, n).parse()


def _parse_as(text, n, cls, what):
    """``text`` parsed to a ``cls``; a scalar stands for that multiple of
    the unit."""
    value = parse_expression(text, n)
    if isinstance(value, ScalarValue) and cls is not ScalarValue:
        value = cls.zero(n) + value
    if not isinstance(value, cls):
        raise ParseError(f"expected a {what} expression", 0)
    return value


def parse_algebra(text, n):
    return _parse_as(text, n, AlgebraElement, "coordinate-algebra")


def parse_hopf(text, n):
    return _parse_as(text, n, HopfElement, "symmetry-algebra")


def parse_scalar(text):
    return _parse_as(text, 1, ScalarValue, "scalar")
