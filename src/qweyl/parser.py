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

import functools
import re
import sys
from typing import NamedTuple

from . import coeff, uq, weyl
from .coeff import ONE, ScalarValue
from .errors import ParseError
from .uq import HopfElement
from .weyl import AlgebraElement

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<op>[-+*/^()']))")

_CONSTANTS = {"i": coeff.I, "q0": coeff.Q0, "q": coeff.Q,
              "lambda": coeff.LAMBDA}

_GEN_RE = re.compile(r"^([yxRQKEF])(\d+)$")

# parentheses, ``eps(`` and ``S(`` nest at most this deep; each level takes
# several Python frames, so a fixed bound refuses before the stack runs out
MAX_NESTING = 100

# a generator's power past this is formed by ``**``, under that one's bounds
MAX_WORD_POWER = 64


class _Word(NamedTuple):
    """A generator power: its family, coefficient and atoms, in a product."""

    cls: type
    coef: ScalarValue
    atoms: tuple

    def __neg__(self):
        return self._replace(coef=-self.coef)


def _tokenize(text):
    tokens, pos = [], 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        value, at, pos = m.group(kind), m.start(kind), m.end()
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's conversion limit
                raise ParseError(f"integer literal of {len(value)} digits "
                                 "passes the limit of "
                                 f"{sys.get_int_max_str_digits()} digits",
                                 at) from None
        tokens.append((kind, value, at))
    stripped = text[pos:].lstrip()
    if stripped:
        raise ParseError(f"unexpected character {stripped[0]!r}",
                         len(text) - len(stripped))
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

    def accept(self, symbols):
        """The next token, taken if it is an operator in ``symbols``."""
        kind, sym, _ = tok = self.peek()
        if kind == "op" and sym in symbols:
            self.pos += 1
            return tok
        return None

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

    def _times(self, value, cls, coef, atoms):
        """``value`` times ``coef`` times the word ``atoms`` of family ``cls``,
        formed once; a None ``value`` or ``cls`` stands for the unit."""
        if cls is None and coef.is_one:
            return value
        if cls is None or not coef:
            word = coef if cls is None else cls.zero(self.n)
        elif cls is HopfElement:
            word = HopfElement(self.n, {tuple(atoms): coef})
        else:
            word = weyl.normal_form(self.n, [(coef, atoms)])
        return word if value is None else value * word

    def _pow(self, a, k, at):
        if isinstance(a, _Word) and len(a.atoms) == 1:
            head, j, *e = a.atoms[0]
            if head == "R":  # ``R_j`` or ``Q_j``: one atom at any power
                coef = a.coef if a.coef.is_one else a.coef ** k
                return _Word(a.cls, coef, (("R", j, e[0] * k),))
            if 0 <= k <= MAX_WORD_POWER:
                return a._replace(atoms=a.atoms * k)
        a = self._times(None, *a) if isinstance(a, _Word) else a
        if isinstance(a, ScalarValue):
            if a.is_zero and k < 0:
                raise ParseError("division by zero", at)
        elif k < 0:
            try:
                a, k = a.monomial_inverse(), -k
            except ValueError:
                raise ParseError("negative exponents are only defined on " + (
                    "K words" if isinstance(a, HopfElement)
                    else "scale generators"), at) from None
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
        while tok := self.accept("+-"):
            rhs = self.term()
            self._check_mix(value, rhs, tok[2])
            value = value + rhs if tok[1] == "+" else value - rhs
        return value

    def term(self):
        # a product is one word, formed once: scalars and ``/`` by a scalar
        # fold into its coefficient and generator powers join its atoms; any
        # other factor forms the word so far and multiplies left to right
        value, family, cls, coef, atoms = None, None, None, ONE, []
        sym, at = "*", None
        while True:
            factor = self.unary()
            if sym == "/":
                if not isinstance(factor, ScalarValue):
                    raise ParseError("division is defined for scalar "
                                     "denominators only", at)
                if factor.is_zero:
                    raise ParseError("division by zero", at)
                coef = coef / factor
            elif isinstance(factor, ScalarValue):
                coef = coef * factor
            else:
                fam = factor.cls if isinstance(factor, _Word) else type(factor)
                if family not in (None, fam):
                    raise ParseError("cannot mix coordinate and symmetry "
                                     "generators", at)
                family = fam
                if isinstance(factor, _Word):
                    cls = fam
                    coef = coef if factor.coef.is_one else coef * factor.coef
                    atoms += factor.atoms
                else:
                    value = self._times(value, cls, coef, atoms)
                    value = factor if value is None else value * factor
                    cls, coef, atoms = None, ONE, []
            tok = self.accept("*/")
            if tok is None:
                value = self._times(value, cls, coef, atoms)
                return ONE if value is None else value
            _, sym, at = tok

    def unary(self):
        sign = 1
        while tok := self.accept("+-"):
            sign = -sign if tok[1] == "-" else sign
        value = self.postfix()
        return -value if sign < 0 else value

    def postfix(self):
        value = self.primary()
        while tok := self.accept("'^"):
            if tok[1] == "^":
                value = self._pow(value, self.exponent(), tok[2])
            elif not isinstance(value, _Word):  # generators are hermitian
                value = value.star()
        return value

    def exponent(self):
        neg = self.accept("-")
        kind, val, at = self.advance()
        if kind != "int":
            raise ParseError("expected an integer exponent", at,
                             expected=("integer",))
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
        word = _generator(name, self.n)
        if word is None:
            raise ParseError(f"unknown name {name!r}", at)
        return word


@functools.lru_cache(maxsize=256)
def _generator(name, n):
    """The word of the generator ``name`` at rank ``n``, or None."""
    m = _GEN_RE.match(name)
    if not m:
        return None
    head, j = m.group(1), int(m.group(2))
    if head in "KEF":
        return _Word(HopfElement, ONE, (uq.hopf_gen(n, head, j),))
    if head == "Q":
        ((atoms, cv),) = weyl.tl_q(n, weyl._index(j, n + 1, "Q ")).terms.items()
        return _Word(AlgebraElement, cv, atoms)
    atom = (head, weyl._index(j, n, head + " "))
    return _Word(AlgebraElement, ONE, (atom + (1,) if head == "R" else atom,))


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
