"""Sparse linear combinations: add-and-prune, the shared base, free words."""

from .coeff import ONE, ScalarValue, _power, _shifted_power, integer
from .errors import DescriptorMismatch


def accumulate(out, pairs):
    """Add each ``(key, value)`` into the dict ``out`` and return it.

    A key whose sum is zero (falsy, for exact scalars and complex numbers
    alike) is removed.
    """
    for key, value in pairs:
        acc = out.get(key)
        if acc is not None:
            value = acc + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


class Combination:
    """Finite linear combination ``{key: coefficient}`` over a rank ``n``.

    Holds the vector-space structure, ``**`` and the inverse of one term; a
    subclass adds its product, a key's power (``_key_power``) and inverse
    (``_key_inverse``) and how a key prints (``_key_str``) and sorts
    (``_sort_key``).  Coefficients are exact scalars unless a subclass
    overrides ``_scalar``.  An operand of a type in ``_scalars`` stands for
    that multiple of the unit, whose key a subclass taking such operands gives
    as ``_unit_key(n)``.  The dict ``terms`` never holds a zero coefficient.
    """

    __slots__ = ("n", "terms")

    _scalars = (int, ScalarValue)
    _sort_key = None

    def __init__(self, n, terms):
        self.n = n
        self.terms = terms

    @staticmethod
    def _scalar(c):
        return integer(c) if isinstance(c, int) else c

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def unit(cls, n):
        return cls(n, {cls._unit_key(n): ONE})

    def _mismatch(self, other):
        return DescriptorMismatch(f"rank {self.n} vs {other.n}")

    def _match(self, other):
        if self.n != other.n:
            raise self._mismatch(other)

    def _co(self, other):
        """``other`` as an element of this class, or None."""
        if isinstance(other, type(self)):
            return other
        if not isinstance(other, self._scalars):
            return None
        c = self._scalar(other)
        return type(self)(self.n, {self._unit_key(self.n): c} if c else {})

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        self._match(o)
        return type(self)(self.n, accumulate(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def scaled(self, c):
        c = self._scalar(c)
        if not c:
            return self.zero(self.n)
        return type(self)(self.n, {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, m):
        """The ``m``-th power: the ``monomial_inverse``'s for ``m < 0``; once
        ``_check_power`` passes, a sum's by squaring, and one term's in closed
        form, its coefficient (``_shifted_power``) before its key."""
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return self.monomial_inverse() ** -m
        self._check_power(m)
        if len(self.terms) != 1:
            return _power(self, m, self.unit(self.n))
        ((key, cv),) = self.terms.items()
        e = self._power_shift(key, m) if m > 1 else 0
        cv = _shifted_power(cv, m, e)
        return type(self)(self.n, {self._key_power(key, m): cv})

    def monomial_inverse(self):
        """Inverse of one scaled key whose ``_key_inverse`` is defined: that
        key over the inverted scalar; anything else raises ``ValueError``."""
        if len(self.terms) == 1:
            ((key, cv),) = self.terms.items()
            inverse = self._key_inverse(key)
            if inverse is not None:
                return inverse.scaled(cv.inv())
        raise ValueError("only a single invertible term has an inverse")

    def _key_inverse(self, key):
        """The inverse of the unit-coefficient ``key``, or None."""
        return None

    def _check_power(self, m):
        """Refuse the ``m``-th power before any of it is formed."""

    def _power_shift(self, key, m):
        """``e`` with ``key**m = q0**e * _key_power(key, m)``, ``m >= 2``."""
        return 0

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.n == o.n and self.terms == o.terms

    def __hash__(self):
        # a frozenset: keys with complex parts do not sort
        return hash((self.n, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        one = self._scalar(1)
        parts = []
        for key in sorted(self.terms, key=self._sort_key):
            cv = self.terms[key]
            body = self._key_str(key)
            if not body:
                parts.append(f"({cv})")
            elif cv == one:
                parts.append(body)
            else:
                parts.append(f"({cv})*{body}")
        return " + ".join(parts)


class Words(Combination):
    """Combination of free words: tuple keys multiply by concatenation,
    ``self``'s word first, and the unit key is ``()``."""

    __slots__ = ()

    @staticmethod
    def _unit_key(n):
        return ()

    @staticmethod
    def _key_power(word, m):
        return word * m

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scaled(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._match(other)
        return type(self)(self.n, accumulate({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items())))
