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

Two monomials, keys ``(r, b, c)`` for ``R^r y^b x^c``, multiply in closed
form.  Distinct generators q-commute, so ``a*b`` is ``q^w`` times the
merged key, ``w`` counting the exchanges that sort ``b``'s atoms into ``a``::

    w = sum_k r_b[k] * sum_{j>=k} (c_a[j] - b_a[j]) + c_b[k] * sum_{j>k} c_a[j]
              + b_b[k] * (sum_{j!=k} c_a[j] - sum_{j>k} b_a[j])

Where ``a`` has ``y_k^m`` and ``b`` has ``x_k^p`` (or ``x_k^m`` and
``y_k^p``), ``t = min(m, p)`` pairs contract instead and ``w`` loses ``t``
per ``x`` below ``k`` and ``y`` above it left by the lower contractions.
With ``X = Q_{k+1}`` (1 at ``k = n``), ``Y = -q^-1 Q_k`` and ``y_k``
passing ``R_k^2`` at ``q^-2``, induction on ``y_k x_k = X + Y`` and
``x_k y_k = X + q^2 Y`` gives::

    y_k^t x_k^t = prod_{0<=j<t} (X + q^(-2j) Y)
    x_k^t y_k^t = prod_{1<=j<=t} (X + q^(2j) Y)

whose ``t + 1`` terms ``q^(-+j^2) [t, j]_{q^-+2} X^(t-j) (-q Y)^j`` follow
from Gauss's q-binomial theorem; ``R_k^(2j)`` passes a rest ``y_k^(m-t)``
or ``x_k^(m-t)`` on their left at ``q^(-+2j(m-t))``.  ``tests/test_weyl.py``
pins all of this against a naive rewriter.
"""

from __future__ import annotations

from itertools import chain
from operator import add
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


# -- the product core -------------------------------------------------------
#
# Keys are (r, b, c): three n-tuples of exponents, b and c nonnegative with
# min(b[k], c[k]) == 0.  A product of keys is ((key, scalar), ...).


def _gauss_binomials(t):
    """Coefficient lists in ``u`` of ``[t, j]_u`` for ``j = 0..t``, t >= 1."""
    rows = [[1]]
    for j in range(1, t // 2 + 1):
        # [t, j] = [t, j-1] * (1 - u^(t-j+1)) / (1 - u^j)
        p = rows[-1] + [0] * (t - j + 1)
        for d in range(len(p) - 1, t - j, -1):
            p[d] -= p[d - t + j - 1]
        for d in range(j, len(p)):
            p[d] += p[d - j]
        rows.append(p[:j * (t - j) + 1])
    return rows + rows[t - len(rows)::-1]  # [t, j] = [t, t - j]


def _block(n, i, y_first, m, p, e, cv):
    """``cv q^e y_k^m x_k^p`` (``x_k^m y_k^p`` unless ``y_first``), ``k = i+1``,
    as ``((r, scalar), ...)``, each ``R^r`` times the rest; refused before
    it is formed when its ``q0`` degree would pass ``coeff.MAX_DEGREE``."""
    t = min(m, p)
    coeff._check_degree(4 * t * m - 2 * t * t)
    sk, sk1 = -sign_of(n, i + 1), sign_of(n, i + 2)
    signed = {1: cv, -1: -cv}
    out = []
    for j, g in enumerate(_gauss_binomials(t)):
        s = signed[sk1 ** (t - j) * sk ** j] * q0_power(
            2 * (e + j * j) + (-4 * j * m if y_first else 4 * j * (m - t)))
        if len(g) > 1:  # [t, j] in q0^4
            poly = [0] * (4 * len(g) - 3)
            poly[::4] = g
            s = s * ScalarValue(tuple(poly), (1,), True)
        r = (0,) * i + (2 * j, 2 * (t - j)) + (0,) * n  # R_{n+1} is cut off
        out.append((r[:n], s))
    return out


def _key_product(n, ka, kb, cv):
    """``cv * ka*kb`` as ``((key, scalar), ...)``."""
    (ra, ba, ca), (rb, bb, cb) = ka, kb
    b, c, w, hits = ba, ca, 0, []
    if any(rb):
        for i, s in enumerate(rb):
            if s:
                w += s * (sum(ca[i:]) - sum(ba[i:]))
        ra = tuple(map(add, ra, rb))
    if any(bb):
        for i, s in enumerate(bb):
            if s:
                w += s * (sum(ca) - ca[i] - sum(ba[i + 1:]))
                if ca[i]:
                    hits.append(i)
        b = tuple(map(add, ba, bb))
    if any(cb):
        for i, s in enumerate(cb):
            if s:
                w += s * sum(ca[i + 1:])
                if ba[i]:
                    hits.append(i)
        c = tuple(map(add, ca, cb))
    if not hits:
        return (((ra, b, c), cv * q_power(w) if w else cv),)
    hits.sort()
    b, c, terms = list(b), list(c), [(ra, cv)]
    for i in hits:
        m, p = (ba[i], cb[i]) if ba[i] else (ca[i], bb[i])
        t = min(m, p)
        w -= t * (sum(c[:i]) + sum(b[i + 1:]))
        b[i] -= t
        c[i] -= t
        terms = [(tuple(map(add, r, r2)), s2) for r, s in terms
                 for r2, s2 in _block(n, i, bool(ba[i]), m, p,
                                      w if i == hits[-1] else 0, s)]
    return [((r, tuple(b), tuple(c)), s) for r, s in terms]


def _key_atoms(key):
    r, b, c = key
    return [("R", i + 1, s) for i, s in enumerate(r) if s] + [
        (h, i + 1) for h, e in zip("yx", (b, c)) for i, m in enumerate(e)
        for _ in range(m)]


def _index(k, top, what=""):
    """``k``, once it is known to lie in ``1..top``."""
    if not 1 <= k <= top:
        raise IndexOutOfRange(f"{what}index {k} outside 1..{top}")
    return k


def _atom_key(n, k, part, power=1):
    key = [(0,) * n] * 3
    key[part] = key[part][:k - 1] + (power,) + key[part][k:]
    return tuple(key)


def _runs(n, atoms):
    """The keys of the longest runs of ``atoms`` in block order with no
    same-index ``y``/``x`` pair, once every atom is checked at rank ``n``."""
    runs, top = [], None
    for atom in atoms:
        kind = atom[0]
        if kind not in ("R", "y", "x"):
            raise ValueError(f"unknown atom kind {kind!r}")
        i = _index(atom[1], n, "generator ") - 1
        if kind == "R" and (len(atom) < 3 or not isinstance(atom[2], int)):
            raise ValueError("R atoms carry an integer exponent")
        part = "Ryx".index(kind)
        rank = (part, i if part else 0)
        if not runs or rank < top or part == 2 and runs[-1][1][i]:
            runs.append([[0] * n, [0] * n, [0] * n])
        top = rank
        runs[-1][part][i] += atom[2] if part == 0 else 1
    return [tuple(map(tuple, run)) for run in runs]


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
        if terms < 2:  # the work no longer grows
            return


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
        return AlgebraElement(self.n, accumulate({}, chain.from_iterable(
            _key_product(self.n, ka, kb, ca * cb)
            for kb, cb in other.terms.items() for ka, ca in self.terms.items())))

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return self.monomial_inverse() ** (-m)
        if len(self.terms) == 1 and m >= 2:
            # k*k never contracts, so (c*k)^m = c^m q^(w*m(m-1)/2) (m*k) for
            # k*k = q^w (2k): its q0 degree is checked once, on the result
            ((key, cv),) = self.terms.items()
            ((_, qw),) = _key_product(self.n, key, key, ONE)
            e = (len(qw.num) - len(qw.den)) * (m * (m - 1) // 2)
            return AlgebraElement(self.n, {
                tuple(tuple(m * s for s in part) for part in key):
                    coeff._shifted_power(cv, m, e)})
        if len(self.terms) > 1:
            # a sum squares its way up: refuse before the first product
            _check_power_work(len(self.terms), m,
                              max(sum(map(abs, r)) + sum(b) + sum(c)
                                  for r, b, c in self.terms))
        return super().__pow__(m)

    def monomial_inverse(self):
        """Inverse, defined only for a single scale monomial (pure R part)."""
        if len(self.terms) != 1:
            raise ValueError("only single scale monomials are invertible")
        ((r, b, c), cv), = self.terms.items()
        if any(b) or any(c):
            raise ValueError("coordinate generators are not invertible")
        z = (0,) * self.n
        return AlgebraElement(self.n, {(tuple(-s for s in r), z, z): cv.inv()})

    # -- involution ---------------------------------------------------------

    def star(self):
        """Anti-multiplicative involution fixing every generator.  A key's
        reversed word sorts back at ``q^w``, times ``q`` per ``x`` passing a
        ``y`` and per ``x_i x_j`` swap, ``1/q`` per ``y_i y_j`` swap."""
        z = (0,) * self.n
        out = {}
        for (r, b, c), cv in self.terms.items():
            nb, nc = sum(b), sum(c)
            e = nb * nc + (nc * nc - nb * nb - sum(x * x for x in c)
                           + sum(x * x for x in b)) // 2
            ((key, cv),) = _key_product(self.n, (z, b, c), (r, z, z),
                                        cv.star() * q_power(e))
            out[key] = cv
        return AlgebraElement(self.n, out)

    # -- inspection -----------------------------------------------------------

    def as_terms(self):
        """Term list ``((scalar, atoms), ...)`` in deterministic order."""
        return tuple((self.terms[key], tuple(_key_atoms(key)))
                     for key in sorted(self.terms))

    @staticmethod
    def _key_str(key):
        return "*".join(f"{head}{i + 1}" + (f"^{m}" if m != 1 else "")
                        for head, part in zip("Ryx", key)
                        for i, m in enumerate(part) if m)

    def __repr__(self):
        return f"<element n={self.n}: {self}>"


def scalar_element(n, c):
    """The constant ``c`` (an exact scalar or an int) as an element."""
    return AlgebraElement.zero(n) + c


# -- generators and normal form --------------------------------------------


def gen_y(n, k):
    return AlgebraElement(n, {_atom_key(n, _index(k, n, "y "), 1): ONE})


def gen_x(n, k):
    return AlgebraElement(n, {_atom_key(n, _index(k, n, "x "), 2): ONE})


def gen_r(n, k, power=1):
    return AlgebraElement(n, {_atom_key(n, _index(k, n, "R "), 0, power): ONE})


def normal_form(n, words):
    """Normalize a weighted word list ``((scalar, atoms), ...)``.

    Returns the canonical element of the sum; an empty list gives zero.
    """
    out = {}
    for cv, atoms in words:
        terms = [(AlgebraElement._unit_key(n), AlgebraElement._scalar(cv))]
        for key in _runs(n, atoms):
            terms = [t for k, c in terms for t in _key_product(n, k, key, c)]
            if len(terms) > 1:  # equal keys merge as they arise
                terms = list(accumulate({}, terms).items())
        accumulate(out, terms)
    return AlgebraElement(n, out)


# -- derived elements: normal forms of the word lists further down ---------


def q_elem(n, k):
    """The commutator scale element at index ``k``; the unit at ``n + 1``."""
    return normal_form(n, tl_q(n, _index(k, n + 1, "Q ")))


def q_elem_inv(n, k):
    return normal_form(n, tl_q_inv(n, _index(k, n + 1, "Q ")))


def rho(n, k):
    return normal_form(n, tl_rho(n, _index(k, n, "rho ")))


def rho_inv(n, k):
    return rho(n, k).monomial_inverse()


def a_op(n, k):
    return normal_form(n, tl_a(n, _index(k, n)))


def b_op(n, k):
    return normal_form(n, tl_b(n, _index(k, n)))


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
    return tuple(term for p in parts for term in p)


def tl_sub(a, b):
    return tl_add(a, tl_scaled(coeff.MINUS_ONE, b))


def _t_y(k):
    return (("y", k),)


def _t_x(k):
    return (("x", k),)


def _t_r(k, s=1):
    return (("R", k, s),)


def tl_q(n, k, s=2):
    return tl((1, ())) if k == n + 1 else tl((sign_of(n, k), _t_r(k, s)))


def tl_q_inv(n, k):
    return tl_q(n, k, -2)


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
            for tag, atom, e in (("qhn0", _t_y, 1), ("qhn1", _t_x, -1)):
                rels.append(Relation(f"{tag}[k={k},l={l}]", _q_commutator(
                    tl((1, atom(k))), tl((1, atom(l))), q_power(e))))
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
            for tag, left, e in (("Q", qk, 2), ("Q12", tl((1, _t_r(k))), 1)):
                for g, sgn in (("y", 1), ("x", -1)):
                    rels.append(Relation(f"{tag}{g}[k={k},j={j}]", _q_commutator(
                        left, tl((1, ((g, j),))),
                        q_power(sgn * e) if j >= k else ONE)))
        for l in range(k + 1, n + 1):
            rels.append(Relation(
                f"QQn[k={k},l={l}]",
                _commutator(qk, tl_q(n, l))))
        for tag, e, word in (("QQyx", -1, _t_y(k) + _t_x(k)),
                             ("QQyx*", 1, _t_x(k) + _t_y(k))):
            rels.append(Relation(f"{tag}[k={k}]", tl_add(tl((1, word)), tl_sub(
                tl_scaled(q_power(e), qk), tl_q(n, k + 1)))))
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
        # the rank-one names of three relations above, equal term for term
        terms = {rel.name: rel.terms for rel in rels}
        for name, same in (("xy", "xyQ[k=1]"), ("Qxy[y]", "Qy[k=1,j=1]"),
                           ("Qxy[x]", "Qx[k=1,j=1]")):
            rels.append(Relation(name, terms[same]))
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
        for name, build in (("y", gen_y), ("x", gen_x), ("R", gen_r),
                            ("Q", q_elem), ("rho", rho), ("A", a_op),
                            ("B", b_op)):
            out.append((f"{name}{k}", build(n, k)))
    out.append(("Gamma", gamma(n)))
    return out
