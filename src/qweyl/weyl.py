"""Canonical normal forms in the localized real q-Weyl algebra.

A monomial is stored in block order: half-power scale generators ``R_k``
(integer exponents of either sign), then the ``y_k`` block, then the
``x_k`` block, each by ascending index.  A same-index pair ``y_k``/``x_k``
never survives: it contracts into a Laurent polynomial in ``R_k`` and
``R_{k+1}``.  Every public operation returns elements already in this
canonical form, so equality of elements is equality of term maps and
zero-testing is decidable.

Atoms passed to :func:`normal_form` are tuples ``('R', k, s)``, ``('y', k)``
or ``('x', k)`` with 1-based indices.
"""

from __future__ import annotations

from typing import NamedTuple

from . import coeff
from .coeff import ONE, ScalarValue, q0_power, q_power
from .errors import IndexOutOfRange
from .sparse import Combination, accumulate

# -- sign bookkeeping -------------------------------------------------------


def sign_of(n, k):
    """Sign attached to the square ``R_k**2``; +1 at the phantom index n+1."""
    if k == n + 1:
        return 1
    return -1 if (n - k + 1) % 2 else 1


def sign_table(n):
    return tuple(sign_of(n, k) for k in range(1, n + 2))


# -- the rewriting core -----------------------------------------------------
#
# Keys are (r, b, c): three n-tuples of exponents, b and c nonnegative with
# min(b[k], c[k]) == 0.  Each rule multiplies a canonical key by a single
# atom on the right and returns (scalar, key) pairs, again canonical.


def _bump(t, i, s):
    return t[:i] + (t[i] + s,) + t[i + 1:]


def _contract(n, k, r, b, c, ea, eb):
    """A same-index ``y_k``/``x_k`` pair contracted in place: ``q^ea`` times
    the ``Q_{k+1}`` term minus ``q^eb`` times the ``Q_k`` term, with the signs
    of :func:`sign_of`; ``Q_{n+1}`` is 1."""
    ca = q_power(ea) if sign_of(n, k + 1) > 0 else -q_power(ea)
    cb = -q_power(eb) if sign_of(n, k) > 0 else q_power(eb)
    return ((ca, (_bump(r, k, 2) if k < n else r, b, c)),
            (cb, (_bump(r, k - 1, 2), b, c)))


def _times_r(n, key, atom):
    _, k, s = atom
    r, b, c = key
    t = 0
    for j in range(k - 1, n):
        t += c[j] - b[j]
    return ((q_power(s * t), (_bump(r, k - 1, s), b, c)),)


def _times_y(n, key, atom):
    k = atom[1]
    r, b, c = key
    i = k - 1
    bgt = sum(b[k:])
    if c[i] == 0:
        # crossing the x block costs q per distinct-index generator,
        # slotting into the y block costs 1/q per higher-index generator
        return ((q_power(sum(c) - c[i] - bgt), (r, _bump(b, i, 1), c)),)
    # contraction with the rightmost x_k; note b[i] == 0 on canonical input
    e = sum(c[k:]) - 2 * bgt
    return _contract(n, k, r, b, _bump(c, i, -1), e, e + 2 * c[i] - 1)


def _times_x(n, key, atom):
    k = atom[1]
    r, b, c = key
    i = k - 1
    cgt = sum(c[k:])
    if b[i] == 0:
        return ((q_power(cgt), (r, b, _bump(c, i, 1))),)
    # contraction: walk one y_k rightward onto the freshly inserted x_k
    e = cgt - sum(b[k:]) - sum(c[:i])
    return _contract(n, k, r, _bump(b, i, -1), c, e, e + 1 - 2 * b[i])


_RULES = {"R": _times_r, "y": _times_y, "x": _times_x}


def _sum_words(n, words):
    """Term map of the sum over ``(terms, atoms)`` of a canonical term map
    times the atoms, multiplied on the right one at a time."""
    out = {}
    for terms, atoms in words:
        for atom in atoms:
            rule = _RULES[atom[0]]
            terms = accumulate({}, ((key2, factor * cv)
                                    for key, cv in terms.items()
                                    for factor, key2 in rule(n, key, atom)))
        accumulate(out, terms.items())
    return out


def _key_atoms(key):
    r, b, c = key
    for i, s in enumerate(r):
        if s:
            yield ("R", i + 1, s)
    for i, m in enumerate(b):
        for _ in range(m):
            yield ("y", i + 1)
    for i, m in enumerate(c):
        for _ in range(m):
            yield ("x", i + 1)


def _checked(n, atoms):
    """``atoms``, once each is known to be a valid atom at rank ``n``."""
    for atom in atoms:
        kind = atom[0]
        if kind not in _RULES:
            raise ValueError(f"unknown atom kind {kind!r}")
        k = atom[1]
        if not 1 <= k <= n:
            raise IndexOutOfRange(f"generator index {k} outside 1..{n}")
        if kind == "R" and (len(atom) < 3 or not isinstance(atom[2], int)):
            raise ValueError("R atoms carry an integer exponent")
    return atoms


# A power of a sum of T terms expands into T^m words of m terms each; no
# power whose words hold more atoms in all than this is formed
MAX_POWER_WORK = 1 << 24


def _check_power_work(terms, m, atoms):
    """Refuse the ``m``-th power of a ``terms``-term element whose largest
    term has ``atoms`` atoms when its expansion passes MAX_POWER_WORK."""
    work = m * atoms
    for _ in range(m):
        work *= terms
        if work > MAX_POWER_WORK:
            raise ValueError(
                f"power {m} of a {terms}-term element expands to {terms}^{m} "
                f"words of {m * atoms} atoms, over the bound {MAX_POWER_WORK}")


class AlgebraElement(Combination):
    """Finite linear combination of canonical monomials over exact scalars."""

    __slots__ = ()

    @staticmethod
    def _unit_key(n):
        z = (0,) * n
        return (z, z, z)

    # -- the product --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._match(other)
        return AlgebraElement(self.n, _sum_words(self.n, (
            ({k: v * cb for k, v in self.terms.items()}, _key_atoms(key_b))
            for key_b, cb in other.terms.items())))

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return self.monomial_inverse() ** (-m)
        if len(self.terms) > 1:
            # a sum squares its way up: refuse before the first product
            _check_power_work(len(self.terms), m,
                              max(sum(map(abs, r)) + sum(b) + sum(c)
                                  for r, b, c in self.terms))
        out = AlgebraElement.unit(self.n)
        base = self
        while m:
            if m & 1:
                out = out * base
            m >>= 1
            base = base * base if m else base
        return out

    def monomial_inverse(self):
        """Inverse, defined only for a single scale monomial (pure R part)."""
        if len(self.terms) != 1:
            raise ValueError("only single scale monomials are invertible")
        (key, cv), = self.terms.items()
        r, b, c = key
        if any(b) or any(c):
            raise ValueError("coordinate generators are not invertible")
        z = (0,) * self.n
        return AlgebraElement(self.n, {(tuple(-s for s in r), z, z): cv.inv()})

    # -- involution ---------------------------------------------------------

    def star(self):
        """Anti-multiplicative involution fixing every generator."""
        unit = self._unit_key(self.n)
        return AlgebraElement(self.n, _sum_words(self.n, (
            ({unit: cv.star()}, reversed(tuple(_key_atoms(key))))
            for key, cv in self.terms.items())))

    # -- inspection -----------------------------------------------------------

    def as_terms(self):
        """Term list ``((scalar, atoms), ...)`` in deterministic order."""
        return tuple((self.terms[key], tuple(_key_atoms(key)))
                     for key in sorted(self.terms))

    @staticmethod
    def _key_str(key):
        r, b, c = key
        factors = []
        for i, s in enumerate(r):
            if s:
                factors.append(f"R{i + 1}" if s == 1 else f"R{i + 1}^{s}")
        for head, block in (("y", b), ("x", c)):
            for i, m in enumerate(block):
                if m:
                    factors.append(f"{head}{i + 1}" if m == 1
                                   else f"{head}{i + 1}^{m}")
        return "*".join(factors)

    def __repr__(self):
        return f"<element n={self.n}: {self}>"


def scalar_element(n, c):
    """The constant ``c`` (an exact scalar or an int) as an element."""
    return AlgebraElement.zero(n) + c


# -- generators and normal form --------------------------------------------


def gen_y(n, k):
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"y index {k} outside 1..{n}")
    z = (0,) * n
    b = z[:k - 1] + (1,) + z[k:]
    return AlgebraElement(n, {(z, b, z): ONE})


def gen_x(n, k):
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"x index {k} outside 1..{n}")
    z = (0,) * n
    c = z[:k - 1] + (1,) + z[k:]
    return AlgebraElement(n, {(z, z, c): ONE})


def gen_r(n, k, power=1):
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"R index {k} outside 1..{n}")
    if power == 0:
        return AlgebraElement.unit(n)
    z = (0,) * n
    r = z[:k - 1] + (power,) + z[k:]
    return AlgebraElement(n, {(r, z, z): ONE})


def normal_form(n, words):
    """Normalize a weighted word list ``((scalar, atoms), ...)``.

    Returns the canonical element of the sum; an empty list gives zero.
    """
    unit = AlgebraElement._unit_key(n)
    return AlgebraElement(n, _sum_words(n, (
        ({unit: AlgebraElement._scalar(cv)}, _checked(n, atoms))
        for cv, atoms in words)))


# -- derived elements: normal forms of the word lists further down ---------


def q_elem(n, k):
    """The commutator scale element at index ``k``; the unit at ``n + 1``."""
    if not 1 <= k <= n + 1:
        raise IndexOutOfRange(f"Q index {k} outside 1..{n + 1}")
    return normal_form(n, tl_q(n, k))


def q_elem_inv(n, k):
    if not 1 <= k <= n + 1:
        raise IndexOutOfRange(f"Q index {k} outside 1..{n + 1}")
    return normal_form(n, tl_q_inv(n, k))


def rho(n, k):
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"rho index {k} outside 1..{n}")
    return normal_form(n, tl_rho(n, k))


def rho_inv(n, k):
    return rho(n, k).monomial_inverse()


def a_op(n, k):
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"index {k} outside 1..{n}")
    return normal_form(n, tl_a(n, k))


def b_op(n, k):
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"index {k} outside 1..{n}")
    return normal_form(n, tl_b(n, k))


def gamma(n):
    """Quantum-trace density: R1^(-2n) * R2^2 * ... * Rn^2 (R1^-2 for n=1)."""
    if n < 1:
        raise IndexOutOfRange("rank must be positive")
    return normal_form(n, tl_gamma(n))


def verify_identity(lhs, rhs):
    """True plus zero witness when both sides normalize identically.

    On failure the witness is the nonzero canonical remainder lhs - rhs.
    """
    diff = lhs - rhs
    return diff.is_zero, diff


# -- relation catalogs -------------------------------------------------------
#
# A Relation is a named weighted word list that must normalize to zero.
# The word form is kept (rather than canonical elements) so the same
# catalog drives both the symbolic checks and the pointwise operator
# checks on Gaussian states.


class Relation(NamedTuple):
    name: str
    terms: tuple  # ((scalar, atoms), ...)


def tl(*pairs):
    return tuple((cv if isinstance(cv, ScalarValue) else coeff.integer(cv), atoms)
                 for cv, atoms in pairs)


def tl_scaled(c, terms):
    return tuple((c * cv, atoms) for cv, atoms in terms)


def tl_mul(a, b):
    return tuple((ca * cb, wa + wb) for ca, wa in a for cb, wb in b)


def tl_add(*parts):
    out = []
    for p in parts:
        out.extend(p)
    return tuple(out)


def tl_sub(a, b):
    return tl_add(a, tl_scaled(coeff.MINUS_ONE, b))


def _t_y(k):
    return (("y", k),)


def _t_x(k):
    return (("x", k),)


def _t_r(k, s=1):
    return (("R", k, s),)


def tl_q(n, k):
    if k == n + 1:
        return tl((1, ()))
    return tl((sign_of(n, k), _t_r(k, 2)))


def tl_q_inv(n, k):
    if k == n + 1:
        return tl((1, ()))
    return tl((sign_of(n, k), _t_r(k, -2)))


def tl_rho(n, k):
    if k == n:
        return tl((1, _t_r(1) + _t_r(n))) if n > 1 else tl((1, _t_r(1, 2)))
    atoms = _t_r(k) + _t_r(k + 1, -2)
    if k + 2 <= n:
        atoms += _t_r(k + 2)
    return tl((1, atoms))


def tl_rho_inv(n, k):
    ((cv, atoms),) = tl_rho(n, k)
    return ((cv, tuple(("R", j, -s) for (_tag, j, s) in atoms)),)


def tl_a(n, k):
    if k == n:
        return tl((-coeff.I * coeff.LAMBDA_INV, _t_y(n)))
    cv = coeff.I * coeff.LAMBDA_INV * q0_power(-1) * q_power(-1)
    return tl_scaled(cv, tl_mul(tl_q_inv(n, k + 1), tl((1, _t_x(k + 1) + _t_y(k)))))


def tl_b(n, k):
    if k == n:
        cv = -coeff.I * coeff.LAMBDA_INV * q_power(-1)
        return tl_scaled(cv, tl_mul(tl_rho_inv(n, n), tl((1, _t_x(n)))))
    cv = -coeff.I * coeff.LAMBDA_INV * q0_power(1)
    return tl_scaled(cv, tl_mul(tl_rho_inv(n, k),
                                tl_mul(tl_q_inv(n, k + 1),
                                       tl((1, _t_y(k + 1) + _t_x(k))))))


def tl_gamma(n):
    atoms = _t_r(1, -2 * n if n > 1 else -2)
    for k in range(2, n + 1):
        atoms += _t_r(k, 2)
    return tl((1, atoms))


def _commutator(a, b):
    return tl_sub(tl_mul(a, b), tl_mul(b, a))


def _q_commutator(a, b, qq):
    """a*b - qq*b*a as a term list."""
    return tl_sub(tl_mul(a, b), tl_scaled(qq, tl_mul(b, a)))


def coordinate_relations(n):
    """Defining exchange relations of the coordinate generators."""
    rels = []
    q2 = q_power(2)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            rels.append(Relation(
                f"qhn0[k={k},l={l}]",
                _q_commutator(tl((1, _t_y(k))), tl((1, _t_y(l))), q_power(1))))
            rels.append(Relation(
                f"qhn1[k={k},l={l}]",
                _q_commutator(tl((1, _t_x(k))), tl((1, _t_x(l))), q_power(-1))))
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            if k == l:
                continue
            rels.append(Relation(
                f"qhn2[l={l},k={k}]",
                _q_commutator(tl((1, _t_x(l))), tl((1, _t_y(k))), q_power(1))))
    for k in range(1, n):
        terms = _q_commutator(tl((1, _t_x(k))), tl((1, _t_y(k))), q2)
        tail = []
        for j in range(k + 1, n + 1):
            tail.append(((coeff.ONE - q2) * q_power(j - k), _t_y(j) + _t_x(j)))
        tail.append((-(coeff.ONE - q2) * q_power(n - k), ()))
        rels.append(Relation(f"qhn3[k={k}]", tl_add(terms, tuple(tail))))
    rels.append(Relation(
        "qhn4",
        tl_add(_q_commutator(tl((1, _t_x(n))), tl((1, _t_y(n))), q2),
               tl((-(coeff.ONE - q2), ())))))
    return rels


def localized_relations(n):
    """Relations of the scale generators with the coordinates."""
    rels = []
    lam_inv = coeff.LAMBDA_INV
    for k in range(1, n + 1):
        qk = tl_q(n, k)
        for j in range(1, n + 1):
            fy = q_power(2) if j >= k else ONE
            fx = q_power(-2) if j >= k else ONE
            rels.append(Relation(
                f"Qy[k={k},j={j}]",
                _q_commutator(qk, tl((1, _t_y(j))), fy)))
            rels.append(Relation(
                f"Qx[k={k},j={j}]",
                _q_commutator(qk, tl((1, _t_x(j))), fx)))
            fy2 = q_power(1) if j >= k else ONE
            fx2 = q_power(-1) if j >= k else ONE
            rels.append(Relation(
                f"Q12y[k={k},j={j}]",
                _q_commutator(tl((1, _t_r(k))), tl((1, _t_y(j))), fy2)))
            rels.append(Relation(
                f"Q12x[k={k},j={j}]",
                _q_commutator(tl((1, _t_r(k))), tl((1, _t_x(j))), fx2)))
        for l in range(k + 1, n + 1):
            rels.append(Relation(
                f"QQn[k={k},l={l}]",
                _commutator(qk, tl_q(n, l))))
        rels.append(Relation(
            f"QQyx[k={k}]",
            tl_add(tl((1, _t_y(k) + _t_x(k))),
                   tl_sub(tl_scaled(q_power(-1), qk), tl_q(n, k + 1)))))
        rels.append(Relation(
            f"QQyx*[k={k}]",
            tl_add(tl((1, _t_x(k) + _t_y(k))),
                   tl_sub(tl_scaled(q_power(1), qk), tl_q(n, k + 1)))))
        rels.append(Relation(
            f"xyQ[k={k}]",
            tl_sub(_q_commutator(tl((1, _t_x(k))), tl((1, _t_y(k))), q_power(2)),
                   tl_scaled(coeff.ONE - q_power(2), tl_q(n, k + 1)))))
        rels.append(Relation(
            f"defQ[k={k}]",
            tl_sub(tl_scaled(lam_inv,
                             tl_sub(tl((1, _t_y(k) + _t_x(k))),
                                    tl((1, _t_x(k) + _t_y(k))))),
                   qk)))
    if n == 1:
        rels.append(Relation(
            "xy",
            tl_add(_q_commutator(tl((1, _t_x(1))), tl((1, _t_y(1))), q_power(2)),
                   tl((-(coeff.ONE - q_power(2)), ())))))
        rels.append(Relation(
            "Qxy[y]", _q_commutator(tl_q(1, 1), tl((1, _t_y(1))), q_power(2))))
        rels.append(Relation(
            "Qxy[x]", _q_commutator(tl_q(1, 1), tl((1, _t_x(1))), q_power(-2))))
    return rels


def cartan_matrix(n):
    return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(n)) for i in range(n))


def ab_rho_relations(n):
    """Commutation suite of the conjugators and ladder elements."""
    rels = []
    cart = cartan_matrix(n)
    lam_inv = coeff.LAMBDA_INV
    rhos = {j: tl_rho(n, j) for j in range(1, n + 1)}
    rhois = {j: tl_rho_inv(n, j) for j in range(1, n + 1)}
    aops = {j: tl_a(n, j) for j in range(1, n + 1)}
    bops = {j: tl_b(n, j) for j in range(1, n + 1)}

    # conjugator-coordinate table
    for j in range(1, n):
        for k in range(1, n + 1):
            fy = q_power(1) if k == j else (q_power(-1) if k == j + 1 else ONE)
            fx = q_power(-1) if k == j else (q_power(1) if k == j + 1 else ONE)
            rels.append(Relation(f"rhoy[j={j},k={k}]",
                                 _q_commutator(rhos[j], tl((1, _t_y(k))), fy)))
            rels.append(Relation(f"rhox[j={j},k={k}]",
                                 _q_commutator(rhos[j], tl((1, _t_x(k))), fx)))
    for k in range(1, n + 1):
        fy = q_power(2) if k == n else q_power(1)
        fx = q_power(-2) if k == n else q_power(-1)
        rels.append(Relation(f"rhon[y,k={k}]",
                             _q_commutator(rhos[n], tl((1, _t_y(k))), fy)))
        rels.append(Relation(f"rhon[x,k={k}]",
                             _q_commutator(rhos[n], tl((1, _t_x(k))), fx)))

    for i in range(1, n + 1):
        rels.append(Relation(
            f"qAB1[unit,{i}]",
            tl_sub(tl_mul(rhos[i], rhois[i]), tl((1, ())))))
        for j in range(i + 1, n + 1):
            rels.append(Relation(f"qAB1[rho,{i},{j}]",
                                 _commutator(rhos[i], rhos[j])))
        for j in range(1, n + 1):
            qa = q_power(cart[i - 1][j - 1])
            rels.append(Relation(f"qAB1[rhoA,{i},{j}]",
                                 _q_commutator(rhos[i], aops[j], qa)))
            rels.append(Relation(f"qAB1[rhoB,{i},{j}]",
                                 _q_commutator(rhos[i], bops[j],
                                               q_power(-cart[i - 1][j - 1]))))

    qser = q_power(1) + q_power(-1)
    for (tag, ops) in (("A", aops), ("B", bops)):
        eq = 2 if tag == "A" else 3
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if j - i >= 2:
                    rels.append(Relation(f"qAB{eq}[far,{i},{j}]",
                                         _commutator(ops[i], ops[j])))
        for j in range(1, n + 1):
            for l in (j - 1, j + 1):
                if not 1 <= l <= n:
                    continue
                serre = tl_add(
                    tl_mul(tl_mul(ops[j], ops[j]), ops[l]),
                    tl_scaled(-qser, tl_mul(tl_mul(ops[j], ops[l]), ops[j])),
                    tl_mul(ops[l], tl_mul(ops[j], ops[j])))
                rels.append(Relation(f"qAB{eq}[serre,{j},{l}]", serre))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            rels.append(Relation(f"qAB4[cross,{i},{j}]",
                                 _commutator(aops[i], bops[j])))
    for j in range(1, n):
        rels.append(Relation(
            f"qAB4[diag,{j}]",
            tl_sub(_commutator(aops[j], bops[j]),
                   tl_scaled(lam_inv, tl_sub(rhos[j], rhois[j])))))
    rels.append(Relation(
        "qAB5",
        tl_add(_commutator(aops[n], bops[n]), tl_scaled(lam_inv, rhois[n]))))

    # ladder product rearrangements and their helper commutations
    for k in range(2, n):
        wk = tl_mul(tl_q_inv(n, k), tl((1, _t_x(k + 1) + _t_y(k - 1))))
        vk = tl_mul(tl_mul(rhois[k - 1], rhois[k]),
                    tl_mul(tl_q_inv(n, k), tl((1, _t_y(k + 1) + _t_x(k - 1)))))
        rels.append(Relation(
            f"AAk[k={k}]",
            tl_sub(_q_commutator(aops[k - 1], aops[k], q_power(1)),
                   tl_scaled(lam_inv * q_power(-1), wk))))
        rels.append(Relation(
            f"BBk[k={k}]",
            tl_add(_q_commutator(bops[k - 1], bops[k], q_power(-1)),
                   tl_scaled(lam_inv, vk))))
        rels.append(Relation(f"hilf1[k={k}]",
                             _q_commutator(aops[k], wk, q_power(1))))
        rels.append(Relation(f"hilf2[k={k}]",
                             _q_commutator(aops[k - 1], wk, q_power(-1))))
        rels.append(Relation(f"hilf3[k={k}]",
                             _q_commutator(bops[k], vk, q_power(-1))))
        rels.append(Relation(f"hilf4[k={k}]",
                             _q_commutator(bops[k - 1], vk, q_power(1))))
    if n >= 2:
        wn = tl_mul(tl_q_inv(n, n), tl((1, _t_y(n - 1))))
        vn = tl_mul(tl_mul(rhois[n - 1], rhois[n]),
                    tl_mul(tl_q_inv(n, n), tl((1, _t_x(n - 1)))))
        rels.append(Relation(
            "AAn-1",
            tl_add(_q_commutator(aops[n - 1], aops[n], q_power(1)),
                   tl_scaled(lam_inv * q0_power(1), wn))))
        rels.append(Relation(
            "BBn",
            tl_add(_q_commutator(bops[n - 1], bops[n], q_power(-1)),
                   tl_scaled(lam_inv * q0_power(-1) * q_power(-1), vn))))
        rels.append(Relation("hilf5", _q_commutator(aops[n], wn, q_power(1))))
        rels.append(Relation("hilf6", _q_commutator(aops[n - 1], wn, q_power(-1))))
        rels.append(Relation("hilf7", _q_commutator(bops[n], vn, q_power(-1))))
        rels.append(Relation("hilf8", _q_commutator(bops[n - 1], vn, q_power(1))))

    if n == 1:
        qe = tl_q(1, 1)
        qei = tl_q_inv(1, 1)
        b3 = tl_scaled(coeff.MINUS_ONE, bops[1])  # the rank-one text form
        rels.append(Relation("ABQ[QA]",
                             _q_commutator(qe, aops[1], q_power(2))))
        rels.append(Relation("ABQ[QB]",
                             _q_commutator(qe, b3, q_power(-2))))
        rels.append(Relation(
            "ABQ[AB]",
            tl_add(_commutator(aops[1], b3), tl_scaled(lam_inv, qei))))
    return rels


def hermitian_generators(n):
    """Named elements whose involution must fix them."""
    out = []
    for k in range(1, n + 1):
        out.append((f"y{k}", gen_y(n, k)))
        out.append((f"x{k}", gen_x(n, k)))
        out.append((f"R{k}", gen_r(n, k)))
        out.append((f"Q{k}", q_elem(n, k)))
        out.append((f"rho{k}", rho(n, k)))
        out.append((f"A{k}", a_op(n, k)))
        out.append((f"B{k}", b_op(n, k)))
    out.append(("Gamma", gamma(n)))
    return out
