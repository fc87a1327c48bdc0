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
from .sparse import Combination, Words, accumulate

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


# -- derived elements: normal forms of the words further down --------------


def _terms(words):
    """The term list ``((scalar, atoms), ...)`` of ``words``, in its order."""
    return tuple((cv, atoms) for atoms, cv in words.terms.items())


def q_elem(n, k):
    """The commutator scale element at index ``k``; the unit at ``n + 1``."""
    return normal_form(n, _terms(tl_q(n, _index(k, n + 1, "Q "))))


def q_elem_inv(n, k):
    return normal_form(n, _terms(tl_q(n, _index(k, n + 1, "Q "), -1)))


def rho(n, k):
    return normal_form(n, _terms(tl_rho(n, _index(k, n, "rho "))))


def rho_inv(n, k):
    return rho(n, k).monomial_inverse()


def a_op(n, k):
    return normal_form(n, _terms(tl_a(n, _index(k, n))))


def b_op(n, k):
    return normal_form(n, _terms(tl_b(n, _index(k, n))))


def gamma(n):
    """Quantum-trace density: R1^(-2n) * R2^2 * ... * Rn^2."""
    if n < 1:
        raise IndexOutOfRange("rank must be positive")
    return normal_form(n, _terms(tl_gamma(n)))


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
# checks on Gaussian states.  The catalogs are written on ``Words`` of
# atoms, whose terms keep the order in which they were formed.


class Relation(NamedTuple):
    name: str
    terms: tuple  # ((scalar, atoms), ...)


def _relations(pairs):
    return [Relation(name, _terms(words)) for name, words in pairs]


def _word(n, *atoms):
    return Words(n, {atoms: ONE})


def _gens(n, head):
    """The one-atom words ``head_k`` by index ``k = 1..n``."""
    return {k: _word(n, (head, k)) for k in range(1, n + 1)}


def tl_q(n, k, sign=1):
    """``Q_k`` (``Q_k^-1`` for ``sign = -1``); the unit at ``k = n + 1``."""
    if k == n + 1:
        return Words.unit(n)
    return sign_of(n, k) * _word(n, ("R", k, 2 * sign))


def tl_rho(n, k, sign=1):
    """``rho_k`` (``rho_k^-1`` for ``sign = -1``) as one word of ``R``s."""
    if k == n:
        powers = ((1, 1), (n, 1)) if n > 1 else ((1, 2),)
    else:
        powers = ((k, 1), (k + 1, -2)) + (((k + 2, 1),) if k + 2 <= n else ())
    return _word(n, *(("R", j, sign * s) for j, s in powers))


def tl_a(n, k):
    if k == n:
        return -coeff.I * coeff.LAMBDA_INV * _word(n, ("y", n))
    cv = coeff.I * coeff.LAMBDA_INV * q0_power(-1) * q_power(-1)
    return cv * (tl_q(n, k + 1, -1) * _word(n, ("x", k + 1), ("y", k)))


def tl_b(n, k):
    if k == n:
        cv = -coeff.I * coeff.LAMBDA_INV * q_power(-1)
        return cv * (tl_rho(n, n, -1) * _word(n, ("x", n)))
    cv = -coeff.I * coeff.LAMBDA_INV * q0_power(1)
    return cv * (tl_rho(n, k, -1) * (tl_q(n, k + 1, -1)
                                     * _word(n, ("y", k + 1), ("x", k))))


def tl_gamma(n):
    return _word(n, ("R", 1, -2 * n), *(("R", k, 2) for k in range(2, n + 1)))


def coordinate_relations(n):
    """Defining exchange relations of the coordinate generators."""
    rels = []
    y, x = _gens(n, "y"), _gens(n, "x")
    q2 = q_power(2)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            for tag, g, e in (("qhn0", y, 1), ("qhn1", x, -1)):
                rels.append((f"{tag}[k={k},l={l}]",
                             g[k] * g[l] - q_power(e) * (g[l] * g[k])))
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            if k != l:
                rels.append((f"qhn2[l={l},k={k}]",
                             x[l] * y[k] - q_power(1) * (y[k] * x[l])))
    for k in range(1, n):
        rel = x[k] * y[k] - q2 * (y[k] * x[k])
        for j in range(k + 1, n + 1):
            rel = rel + (ONE - q2) * q_power(j - k) * (y[j] * x[j])
        rels.append((f"qhn3[k={k}]", rel - (ONE - q2) * q_power(n - k)))
    rels.append(("qhn4", x[n] * y[n] - q2 * (y[n] * x[n]) - (ONE - q2)))
    return _relations(rels)


def localized_relations(n):
    """Relations of the scale generators with the coordinates."""
    rels = []
    lam_inv = coeff.LAMBDA_INV
    gens = {"y": _gens(n, "y"), "x": _gens(n, "x")}
    y, x = gens["y"], gens["x"]
    for k in range(1, n + 1):
        qk, rk = tl_q(n, k), _word(n, ("R", k, 1))
        for j in range(1, n + 1):
            for tag, left, e in (("Q", qk, 2), ("Q12", rk, 1)):
                for g, sgn in (("y", 1), ("x", -1)):
                    gj = gens[g][j]
                    qq = q_power(sgn * e) if j >= k else ONE
                    rels.append((f"{tag}{g}[k={k},j={j}]",
                                 left * gj - qq * (gj * left)))
        for l in range(k + 1, n + 1):
            ql = tl_q(n, l)
            rels.append((f"QQn[k={k},l={l}]", qk * ql - ql * qk))
        for tag, e, word in (("QQyx", -1, y[k] * x[k]),
                             ("QQyx*", 1, x[k] * y[k])):
            rels.append((f"{tag}[k={k}]",
                         word + q_power(e) * qk - tl_q(n, k + 1)))
        rels.append((f"xyQ[k={k}]",
                     x[k] * y[k] - q_power(2) * (y[k] * x[k])
                     - (ONE - q_power(2)) * tl_q(n, k + 1)))
        rels.append((f"defQ[k={k}]",
                     lam_inv * (y[k] * x[k] - x[k] * y[k]) - qk))
    if n == 1:
        # the rank-one names of three relations above, equal term for term
        words = dict(rels)
        for name, same in (("xy", "xyQ[k=1]"), ("Qxy[y]", "Qy[k=1,j=1]"),
                           ("Qxy[x]", "Qx[k=1,j=1]")):
            rels.append((name, words[same]))
    return _relations(rels)


def rho_weight(n, j, k):
    """The ``w`` with ``rho_j y_k = q^w y_k rho_j`` and
    ``rho_j x_k = q^-w x_k rho_j``."""
    if j == n:
        return 2 if k == n else 1
    return (k == j) - (k == j + 1)


def cartan_matrix(n):
    return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                       for j in range(n)) for i in range(n))


def ab_rho_relations(n):
    """Commutation suite of the conjugators and ladder elements."""
    rels = []
    cart = cartan_matrix(n)
    lam_inv = coeff.LAMBDA_INV
    y, x = _gens(n, "y"), _gens(n, "x")
    rhos = {j: tl_rho(n, j) for j in range(1, n + 1)}
    rhois = {j: tl_rho(n, j, -1) for j in range(1, n + 1)}
    aops = {j: tl_a(n, j) for j in range(1, n + 1)}
    bops = {j: tl_b(n, j) for j in range(1, n + 1)}

    # conjugator-coordinate table
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            w = rho_weight(n, j, k)
            names = ((f"rhon[y,k={k}]", f"rhon[x,k={k}]") if j == n else
                     (f"rhoy[j={j},k={k}]", f"rhox[j={j},k={k}]"))
            for name, g, e in zip(names, (y, x), (w, -w)):
                rels.append((name, rhos[j] * g[k]
                             - q_power(e) * (g[k] * rhos[j])))

    for i in range(1, n + 1):
        ri = rhos[i]
        rels.append((f"qAB1[unit,{i}]", ri * rhois[i] - 1))
        for j in range(i + 1, n + 1):
            rels.append((f"qAB1[rho,{i},{j}]", ri * rhos[j] - rhos[j] * ri))
        for j in range(1, n + 1):
            c = cart[i - 1][j - 1]
            rels.append((f"qAB1[rhoA,{i},{j}]",
                         ri * aops[j] - q_power(c) * (aops[j] * ri)))
            rels.append((f"qAB1[rhoB,{i},{j}]",
                         ri * bops[j] - q_power(-c) * (bops[j] * ri)))

    qser = q_power(1) + q_power(-1)
    for (tag, ops) in (("A", aops), ("B", bops)):
        eq = 2 if tag == "A" else 3
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                rels.append((f"qAB{eq}[far,{i},{j}]",
                             ops[i] * ops[j] - ops[j] * ops[i]))
        for j in range(1, n + 1):
            for l in (j - 1, j + 1):
                if 1 <= l <= n:
                    oj, ol = ops[j], ops[l]
                    rels.append((f"qAB{eq}[serre,{j},{l}]", oj * oj * ol
                                 - qser * (oj * ol * oj) + ol * (oj * oj)))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                rels.append((f"qAB4[cross,{i},{j}]",
                             aops[i] * bops[j] - bops[j] * aops[i]))
    for j in range(1, n):
        rels.append((f"qAB4[diag,{j}]", aops[j] * bops[j] - bops[j] * aops[j]
                     - lam_inv * (rhos[j] - rhois[j])))
    rels.append(("qAB5", aops[n] * bops[n] - bops[n] * aops[n]
                 + lam_inv * rhois[n]))

    # ladder product rearrangements and their helper commutations, for the
    # pairs (k - 1, k) below n and then (n - 1, n)
    q1, qm1 = q_power(1), q_power(-1)
    for k in range(2, n + 1):
        top = k == n
        qi = tl_q(n, k, -1)
        w = qi * (y[k - 1] if top else x[k + 1] * y[k - 1])
        v = rhois[k - 1] * rhois[k] * (
            qi * (x[k - 1] if top else y[k + 1] * x[k - 1]))
        sw = lam_inv * q0_power(1) if top else -(lam_inv * qm1)
        sv = lam_inv * q0_power(-1) * qm1 if top else lam_inv
        names = (("AAn-1", "BBn", "hilf5", "hilf6", "hilf7", "hilf8") if top
                 else [f"{t}[k={k}]" for t in ("AAk", "BBk", "hilf1", "hilf2",
                                               "hilf3", "hilf4")])
        a0, a1, b0, b1 = aops[k - 1], aops[k], bops[k - 1], bops[k]
        rels += zip(names, (a0 * a1 - q1 * (a1 * a0) + sw * w,
                            b0 * b1 - qm1 * (b1 * b0) + sv * v,
                            a1 * w - q1 * (w * a1), a0 * w - qm1 * (w * a0),
                            b1 * v - qm1 * (v * b1), b0 * v - q1 * (v * b0)))

    if n == 1:
        # b3 = -B1 is the rank-one text form
        qe, a1, b3 = tl_q(1, 1), aops[1], -bops[1]
        rels += [("ABQ[QA]", qe * a1 - q_power(2) * (a1 * qe)),
                 ("ABQ[QB]", qe * b3 - q_power(-2) * (b3 * qe)),
                 ("ABQ[AB]", a1 * b3 - b3 * a1 + lam_inv * tl_q(1, 1, -1))]
    return _relations(rels)


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
