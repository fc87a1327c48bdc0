"""Exact scalar arithmetic over the unit-circle deformation symbol.

Scalars are rational functions in ``q0`` with Gaussian-rational
coefficients ``a + b*i``.  The deformation parameter is ``q = q0**2`` and
the commutator scale is ``lam = q - 1/q``.  The involution ``star`` fixes
rationals and sends ``i -> -i``, ``q0 -> 1/q0``; numeric evaluation
substitutes ``q0 = exp(1j*phi/2)``.

Values are immutable and canonical: numerator and denominator share no
factor, no common power of ``q0``, and the denominator is monic, so
equality and hashing are structural.

Coefficient parts are exact: a Python ``int`` when integral, a
:class:`Fraction` only when the part is not an integer.  The values met in
the symbolic sweeps are Gaussian integers, so their arithmetic runs on
small ints.  A ``float`` never becomes a part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleAtEvaluationPoint

# |denominator| below which evaluate() reports a pole; fixed, so that the
# report tolerance of a NumericContext does not move it
POLE_TOLERANCE = 1e-9


def _digit(x):
    """Exact part: ``int`` when integral, else a :class:`Fraction`."""
    if type(x) is not int:
        x = Fraction(x)
        if x.denominator == 1:
            x = x.numerator
    return x


class QI:
    """Gaussian rational ``re + im*i``.

    Each part is an ``int`` or a :class:`Fraction`.  The constructor does
    not convert: ``_canonicalize`` turns every part of a new value into an
    exact one (see :func:`_digit`).  Mixed parts compare, hash and print
    alike, because ``2 == Fraction(2)``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QI(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def conjugate(self):
        return QI(self.re, -self.im)

    def inv(self):
        nrm = self.re * self.re + self.im * self.im
        if not nrm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QI(_digit(Fraction(self.re, nrm)),
                  _digit(Fraction(-self.im, nrm)))

    def as_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


_QI0 = QI(0)
_QI1 = QI(1)

# Polynomials in q0 are coefficient tuples indexed by degree; () is zero.


def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_QI0] * (len(a) + len(b) - 1)
    for ka, ca in enumerate(a):
        if not ca:
            continue
        for kb, cb in enumerate(b):
            if cb:
                out[ka + kb] = out[ka + kb] + ca * cb
    return _trim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    binv = b[-1].inv()
    db = len(b) - 1
    rem = list(a)
    quo = [_QI0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[db + i]
        if not c:
            continue
        f = c * binv
        quo[i] = f
        for j in range(db + 1):
            rem[i + j] = rem[i + j] - f * b[j]
    return _trim(quo), _trim(rem)


def _pmonic(a):
    if not a or a[-1] == _QI1:
        return a
    inv = a[-1].inv()
    return tuple(c * inv for c in a)


def _pgcd(a, b):
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, _pmonic(r)
    return _pmonic(a)


def _pval(a):
    for k, c in enumerate(a):
        if c:
            return k
    return 0


def _pshift(a, k):
    if not a:
        return a
    return (_QI0,) * k + tuple(a)


def _peval(a, z):
    out = 0j
    for c in reversed(a):
        out = out * z + c.as_complex()
    return out


_P_ONE = (_QI1,)


class ScalarValue:
    """Element of the exact coefficient field.

    Do not call the constructor with non-canonical data; use the module
    factories (:func:`integer`, :func:`gaussian`, :func:`q0_power`, ...)
    or arithmetic on existing values.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _canonical=False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- ring structure -------------------------------------------------

    def _co(self, other):
        if isinstance(other, ScalarValue):
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarValue((QI(other),), _P_ONE)
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return ScalarValue(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pneg(_pmul(o.num, self.den)))
        return ScalarValue(num, _pmul(self.den, o.den))

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return ScalarValue(_pneg(self.num), self.den, _canonical=True)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        # values are immutable, so a product by one can share the other factor
        if o.is_one:
            return self
        if self.is_one:
            return o
        return _monomial_product(self, o) or ScalarValue(
            _pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("scalar division by zero")
        return ScalarValue(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        return ScalarValue(self.den, self.num)

    # -- field-specific structure ----------------------------------------

    def star(self):
        """Involution: conjugate coefficients and invert ``q0``."""
        dn, dd = len(self.num) - 1, len(self.den) - 1
        rn = tuple(c.conjugate() for c in reversed(self.num))
        rd = tuple(c.conjugate() for c in reversed(self.den))
        if dd >= dn:
            rn = _pshift(rn, dd - dn)
        else:
            rd = _pshift(rd, dn - dd)
        return ScalarValue(_trim(rn), _trim(rd))

    def evaluate(self, ctx):
        """Substitute ``q0 = exp(1j*phi/2)``; raise on a (near-)pole."""
        z = ctx.q0_value
        dv = _peval(self.den, z)
        if abs(dv) < POLE_TOLERANCE:
            raise PoleAtEvaluationPoint(
                f"denominator magnitude {abs(dv):.3e} below tolerance "
                f"{POLE_TOLERANCE:.1e} at phi={ctx.phi!r}")
        return _peval(self.num, z) / dv

    # -- comparisons and display ------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    @property
    def is_one(self):
        return self.num == _P_ONE and self.den == _P_ONE

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self):
        top = _poly_str(self.num)
        if self.den == _P_ONE:
            return top
        return f"({top})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"<scalar {self}>"


def _canonicalize(num, den):
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), _P_ONE
    v = min(_pval(num), _pval(den))
    if v:
        num = num[v:]
        den = den[v:]
    # with the common q0 power gone, a one-term side c*q0^k is coprime to the
    # other side (whose constant term is then nonzero): skip the gcd
    if any(num[:-1]) and any(den[:-1]):
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
    if den[-1] != _QI1:
        inv = den[-1].inv()
        num = tuple(c * inv for c in num)
        den = tuple(c * inv for c in den)
    return _exact(num), _exact(den)


def _exact(p):
    """``p`` with exact parts: an int wherever a part is integral."""
    if all(type(c.re) is int and type(c.im) is int for c in p):
        return p
    return tuple(QI(_digit(c.re), _digit(c.im)) for c in p)


def _monomial_product(a, b):
    """``a*b`` of nonzero values when one is ``c*q0**k``, else None: the other
    scaled by ``c`` and shifted less the common ``q0`` power, with no gcd."""
    if not (a.num and b.num):
        return None
    for m, f in ((b, a), (a, b)):
        num, den = m.num, m.den
        if len(den) == 1 and not any(num[:-1]):
            c, k = num[-1], len(num) - 1
        elif len(num) == 1 and not any(den[:-1]):
            c, k = num[0], 1 - len(den)
        else:
            continue
        num, den = f.num, f.den
        if c != _QI1:
            num = _exact(tuple(c * p for p in num))
        if k > 0:
            v = min(k, _pval(den))
            num, den = _pshift(num, k - v), den[v:]
        elif k < 0:
            v = min(-k, _pval(num))
            num, den = num[v:], _pshift(den, -k - v)
        return ScalarValue(num, den, _canonical=True)
    return None


def _qi_str(c):
    if not c.im:
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    return f"({c.re} + {c.im}*i)" if c.im > 0 else f"({c.re} - {-c.im}*i)"


def _poly_str(p):
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            parts.append(_qi_str(c))
            continue
        mono = "q0" if k == 1 else f"q0^{k}"
        if c == _QI1:
            parts.append(mono)
        elif c == QI(-1):
            parts.append(f"-{mono}")
        else:
            parts.append(f"{_qi_str(c)}*{mono}")
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


# -- factories and constants ----------------------------------------------


def integer(k):
    return ScalarValue((QI(k),), _P_ONE)


def rational(p, q=1):
    return ScalarValue((QI(Fraction(p, q)),), _P_ONE)


def gaussian(re, im):
    return ScalarValue((QI(re, im),), _P_ONE)


def q0_power(k):
    """``q0**k`` for any integer ``k``."""
    if k >= 0:
        return ScalarValue(_pshift(_P_ONE, k), _P_ONE, _canonical=True)
    return ScalarValue(_P_ONE, _pshift(_P_ONE, -k), _canonical=True)


def q_power(k):
    """``q**k = q0**(2k)``."""
    return q0_power(2 * k)


ZERO = ScalarValue((), _P_ONE, _canonical=True)
ONE = integer(1)
MINUS_ONE = integer(-1)
I = gaussian(0, 1)
Q0 = q0_power(1)
Q = q_power(1)
LAMBDA = q_power(1) - q_power(-1)
LAMBDA_INV = LAMBDA.inv()


@dataclass(frozen=True)
class NumericContext:
    """Evaluation point ``q0 = exp(1j*phi/2)`` plus the report tolerance.

    ``tolerance`` bounds the residuals of the numeric checks; the pole
    threshold of :meth:`ScalarValue.evaluate` is :data:`POLE_TOLERANCE`.

    ``phi`` must avoid 0 and +-pi/2 (so that ``q**4 != 1``) and satisfy
    ``|phi| < pi``.
    """

    phi: float = math.pi / 3
    tolerance: float = 1e-9

    def __post_init__(self):
        if not (0.0 < abs(self.phi) < math.pi):
            raise ValueError(f"phi={self.phi!r} outside the open punctured range")
        if abs(abs(self.phi) - math.pi / 2) < 1e-12:
            raise ValueError("phi = +-pi/2 makes q**4 = 1; excluded")
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance={self.tolerance!r} is not finite")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")

    @property
    def q0_value(self):
        return cmath.exp(0.5j * self.phi)

    @property
    def q_value(self):
        return cmath.exp(1j * self.phi)

    @property
    def lambda_value(self):
        return 2j * math.sin(self.phi)
