"""Exact scalar arithmetic over the unit-circle deformation symbol.

Scalars are rational functions in ``q0`` with Gaussian-rational
coefficients ``a + b*i``.  The deformation parameter is ``q = q0**2`` and
the commutator scale is ``lam = q - 1/q``.  The involution ``star`` fixes
rationals and sends ``i -> -i``, ``q0 -> 1/q0``; numeric evaluation
substitutes ``q0 = exp(1j*phi/2)``.

Values are immutable and canonical: numerator and denominator share no
factor, no common power of ``q0``, and the denominator is monic, so
equality and hashing are structural.

Polynomials are coefficient tuples indexed by degree.  A real coefficient
is an ``int``, or a :class:`Fraction` when not integral; only one with a
nonzero imaginary part is a :class:`QI`, whose parts follow the same rule
(``c.real``/``c.imag`` read any coefficient).  Most coefficients met in the
sweeps are real integers, so their arithmetic runs on small ints.  A
``float`` never becomes a part.  A degree above :data:`MAX_DEGREE` is never
built: the product or shift that would reach it raises ``ValueError``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleAtEvaluationPoint

# |denominator| below which evaluate() reports a pole; fixed, so that the
# report tolerance of a NumericContext does not move it
POLE_TOLERANCE = 1e-9

# nested powers multiply degrees, so the bound is checked where tuples grow
MAX_DEGREE = 100_000


def _digit(x):
    """Exact part: ``int`` when integral, else a :class:`Fraction`."""
    if type(x) is not int:
        x = Fraction(x)
        if x.denominator == 1:
            x = x.numerator
    return x


class QI:
    """Gaussian rational ``real + imag*i``.

    Each part is an ``int`` or a :class:`Fraction`.  Arithmetic takes an
    ``int`` or :class:`Fraction` operand on either side and neither converts
    nor demotes: ``_canonicalize`` puts every coefficient of a new value in
    canonical form (see :func:`_exact`).  A ``QI`` with a zero imaginary
    part equals and hashes like its real part.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        self.real = real
        self.imag = imag

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, (int, Fraction)):
            return self.real == other and not self.imag
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag)) if self.imag else hash(self.real)

    def __add__(self, other):
        if type(other) is QI:
            return QI(self.real + other.real, self.imag + other.imag)
        return QI(self.real + other, self.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return QI(-self.real, -self.imag)

    def __mul__(self, other):
        if type(other) is QI:
            return QI(self.real * other.real - self.imag * other.imag,
                      self.real * other.imag + self.imag * other.real)
        return QI(self.real * other, self.imag * other)

    __rmul__ = __mul__

    def conjugate(self):
        return QI(self.real, -self.imag)

    def inv(self):
        nrm = self.real * self.real + self.imag * self.imag
        if not nrm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QI(_digit(Fraction(self.real, nrm)),
                  _digit(Fraction(-self.imag, nrm)))

    def __complex__(self):
        return complex(self.real) + 1j * complex(self.imag)

    def __repr__(self):
        return f"QI({self.real}, {self.imag})"


def _inv(c):
    """Exact inverse of a nonzero coefficient."""
    return c.inv() if type(c) is QI else _digit(Fraction(1, c))


def _check_degree(d):
    if d > MAX_DEGREE:
        raise ValueError(f"q0 degree {d} exceeds the bound {MAX_DEGREE}")


def _power(base, k, one):
    """``base**k``, ``k >= 0``, from the unit ``one`` by repeated squaring
    (about ``log2(k)`` products), for scalars and combinations alike."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        base = base * base if k else base
    return out


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
    _check_degree(len(a) + len(b) - 2)
    if not any(b[:-1]):  # b is one term c*q0^k: shift and scale a
        return (0,) * (len(b) - 1) + tuple(ca * b[-1] if ca else 0 for ca in a)
    if not any(a[:-1]):
        return (0,) * (len(a) - 1) + tuple(a[-1] * cb if cb else 0 for cb in b)
    out = [0] * (len(a) + len(b) - 1)
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
    binv = _inv(b[-1])
    db = len(b) - 1
    rem = list(a)
    quo = [0] * (len(a) - db)
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
    if not a or a[-1] == 1:
        return a
    inv = _inv(a[-1])
    return _exact(tuple(c * inv for c in a))


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
    _check_degree(len(a) + k - 1)
    return (0,) * k + tuple(a)


def _peval(a, z):
    out = 0j
    for c in reversed(a):
        out = out * z + complex(c)
    return out


_P_ONE = (1,)


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
            return ScalarValue((other,), _P_ONE)
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ScalarValue(_padd(self.num, o.num), self.den)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return ScalarValue(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

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
        if any(self.num[:-1]) or any(self.den[:-1]):
            # a dense base squares its way up: refuse before the first product
            _check_degree(abs(k) * (max(len(self.num), len(self.den)) - 1))
        if k < 0:
            return self.inv() ** (-k)
        return _power(self, k, ONE)

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
    if den[-1] != 1:
        inv = _inv(den[-1])
        num = tuple(c * inv for c in num)
        den = tuple(c * inv for c in den)
    return _exact(num), _exact(den)


def _exact(p):
    """``p`` in canonical coefficient form (see the module docstring)."""
    if all(type(c) is int for c in p):
        return p
    return tuple(map(_exact_coeff, p))


def _exact_coeff(c):
    if type(c) is not QI:
        return _digit(c)
    real, imag = _digit(c.real), _digit(c.imag)
    return QI(real, imag) if imag else real


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
        if c != 1:
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
    re, im = c.real, c.imag
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    return f"({re} + {im}*i)" if im > 0 else f"({re} - {-im}*i)"


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
        if c == 1:
            parts.append(mono)
        elif c == -1:
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
    return ScalarValue((k,), _P_ONE)


def rational(p, q=1):
    return ScalarValue((Fraction(p, q),), _P_ONE)


def gaussian(re, im):
    return ScalarValue((QI(re, im),), _P_ONE)


@functools.cache
def q0_power(k):
    """``q0**k`` for any integer ``k``, built once per exponent."""
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
