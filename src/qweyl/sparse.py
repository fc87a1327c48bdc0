"""Sparse linear combinations: the add-and-prune step and the shared base."""

from .coeff import ONE, ScalarValue, _power, integer
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

    Holds the vector-space structure; a subclass adds its product and how a
    key prints (``_key_str``) and sorts (``_sort_key``).  Coefficients are
    exact scalars unless a subclass overrides ``_scalar``.  An operand of a
    type in ``_scalars`` stands for that multiple of the unit, whose key a
    subclass taking such operands gives as ``_unit_key(n)``.  The dict
    ``terms`` never holds a zero coefficient.
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
        """The ``m``-th power, ``m >= 0``, of a subclass with a product."""
        if not isinstance(m, int) or m < 0:
            return NotImplemented
        return _power(self, m, self.unit(self.n))

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
