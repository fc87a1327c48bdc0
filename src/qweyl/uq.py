"""Hopf generators, their coalgebra tables, and the action on normal forms.

Generator words are kept free: no rewriting is performed inside the Hopf
algebra.  Its defining relations are verified through the action instead,
which realizes each generator as a two-sided multiplication sandwich built
from the conjugator ``rho_j`` and the ladder elements ``A_j``, ``B_j``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import coeff, weyl
from .coeff import ONE, q0_power, q_power
from .errors import DescriptorMismatch, IndexOutOfRange
from .report import SuiteReport
from .sparse import Combination, accumulate
from .weyl import AlgebraElement, cartan_matrix

K, KINV, E, F = "K", "Kinv", "E", "F"
_KINDS = (K, KINV, E, F)


def hopf_gen(n, kind, j):
    if kind not in _KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"generator index {j} outside 1..{n}")
    return (kind, j)


def _jmax(n, jmax):
    """The highest generator index, ``n`` by default; below 1, a check over
    the generators would pass vacuously."""
    jmax = n if jmax is None else jmax
    if jmax < 1:
        raise ValueError("a check needs at least one generator index")
    return jmax


def generators(n, jmax=None):
    return [(kind, j) for j in range(1, _jmax(n, jmax) + 1) for kind in _KINDS]


class HopfElement(Combination):
    """Linear combination of free generator words over exact scalars."""

    __slots__ = ()

    @staticmethod
    def _unit_key(n):
        return ()

    @staticmethod
    def generator(n, kind, j):
        return HopfElement(n, {(hopf_gen(n, kind, j),): ONE})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scaled(other)
        if not isinstance(other, HopfElement):
            return NotImplemented
        self._match(other)
        return HopfElement(self.n, accumulate({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items())))

    def star(self):
        """Antilinear anti-automorphism; every generator is fixed."""
        return HopfElement(self.n, {tuple(reversed(word)): cv.star()
                                    for word, cv in self.terms.items()})

    @staticmethod
    def _sort_key(word):
        return (len(word), word)

    @staticmethod
    def _key_str(word):
        return "*".join(_gen_str(g) for g in word)

    def __repr__(self):
        return f"<hopf n={self.n}: {self}>"


def _gen_str(g):
    kind, j = g
    return f"K{j}^-1" if kind == KINV else f"{kind}{j}"


# -- coalgebra tables --------------------------------------------------------


def counit(h):
    """Algebra homomorphism to scalars; kills every ladder generator."""
    total = coeff.ZERO
    for word, cv in h.terms.items():
        if all(kind in (K, KINV) for kind, _ in word):
            total = total + cv
    return total


def coproduct(n, g):
    """Generator-level coproduct as a list of tensor-factor pairs."""
    kind, j = g
    one = HopfElement.unit(n)
    gg = HopfElement.generator(n, kind, j)
    if kind in (K, KINV):
        return [(gg, gg)]
    if kind == E:
        kk = HopfElement.generator(n, K, j)
        return [(gg, one), (kk, gg)]
    ki = HopfElement.generator(n, KINV, j)
    return [(gg, ki), (one, gg)]


def antipode(n, g):
    kind, j = g
    if kind == K:
        return HopfElement.generator(n, KINV, j)
    if kind == KINV:
        return HopfElement.generator(n, K, j)
    if kind == E:
        return -(HopfElement.generator(n, KINV, j)
                 * HopfElement.generator(n, E, j))
    return -(HopfElement.generator(n, F, j) * HopfElement.generator(n, K, j))


def antipode_element(h):
    """Anti-multiplicative extension of the generator antipode."""
    n = h.n
    out = HopfElement.zero(n)
    for word, cv in h.terms.items():
        acc = HopfElement.unit(n).scaled(cv)
        for g in reversed(word):
            acc = acc * antipode(n, g)
        out = out + acc
    return out


# -- the action --------------------------------------------------------------


@lru_cache(maxsize=None)
def sandwich(n, g):
    """The action of ``g`` as terms ``(c, left, right)``, shared by every
    consumer: ``g > f = sum(c * left * f * right)``, ``None`` being the unit."""
    kind, j = g
    rho, rho_inv = weyl.rho(n, j), weyl.rho_inv(n, j)
    if kind == K:
        return ((ONE, rho, rho_inv),)
    if kind == KINV:
        return ((ONE, rho_inv, rho),)
    if kind == E:
        a = weyl.a_op(n, j)
        return ((ONE, a, None), (coeff.MINUS_ONE, rho, rho_inv * a))
    if kind == F:
        b = weyl.b_op(n, j)
        return ((ONE, b, rho), (-q_power(2), None, rho * b))
    raise ValueError(f"unknown generator kind {kind!r}")


@lru_cache(maxsize=None)
def _act_monomial(n, g, key):
    """Canonical term map of ``g``'s image of the unit monomial ``key``;
    the maps are shared and must never be mutated."""
    m = AlgebraElement(n, {key: ONE})
    total = AlgebraElement.zero(n)
    for c, left, right in sandwich(n, g):
        term = m if left is None else left * m
        if right is not None:
            term = term * right
        total = total + term.scaled(c)
    return total.terms


def act(g, f):
    """Apply a single generator to an algebra element, monomial by monomial."""
    n = f.n
    hopf_gen(n, *g)
    return AlgebraElement(n, accumulate({}, (
        (key2, v2 if cv.is_one else cv * v2) for key, cv in f.terms.items()
        for key2, v2 in _act_monomial(n, g, key).items())))


def act_element(h, f):
    """Extend the action over words (by composition) and linearly."""
    if h.n != f.n:
        raise DescriptorMismatch(f"rank {h.n} vs {f.n}")
    out = AlgebraElement.zero(f.n)
    for word, cv in h.terms.items():
        acc = f
        for g in reversed(word):
            acc = act(g, acc)
        out = out + acc.scaled(cv)
    return out


# -- reference tables and check suites ----------------------------------------


def action_table(n, jmax=None):
    """Expected generator-on-coordinate values as (gen, input, output, name)."""
    jmax = _jmax(n, jmax)
    rows = []
    i_unit = coeff.I
    for j in range(1, jmax + 1):
        for k in range(1, n + 1):
            y = weyl.gen_y(n, k)
            x = weyl.gen_x(n, k)
            if j < n:
                ey = (-i_unit * q0_power(-1)) * weyl.gen_y(n, j) if k == j + 1 \
                    else AlgebraElement.zero(n)
                ex = (i_unit * q0_power(-1)) * weyl.gen_x(n, j + 1) if k == j \
                    else AlgebraElement.zero(n)
                fy = (i_unit * q0_power(1)) * weyl.gen_y(n, j + 1) if k == j \
                    else AlgebraElement.zero(n)
                fx = (-i_unit * q0_power(1)) * weyl.gen_x(n, j) if k == j + 1 \
                    else AlgebraElement.zero(n)
                ky = q_power(1) if k == j else (q_power(-1) if k == j + 1 else ONE)
                kx = q_power(-1) if k == j else (q_power(1) if k == j + 1 else ONE)
            else:
                ey = (i_unit * q_power(1)) * (weyl.gen_y(n, n) * y)
                ex = (-i_unit * q_power(-1)) * AlgebraElement.unit(n) if k == n \
                    else AlgebraElement.zero(n)
                fy = i_unit * AlgebraElement.unit(n) if k == n \
                    else AlgebraElement.zero(n)
                fx = (-i_unit * q_power(2)) * (x * weyl.gen_x(n, n))
                ky = q_power(2) if k == n else q_power(1)
                kx = q_power(-2) if k == n else q_power(-1)
            rows.append(((E, j), y, ey, f"E{j}>y{k}"))
            rows.append(((E, j), x, ex, f"E{j}>x{k}"))
            rows.append(((F, j), y, fy, f"F{j}>y{k}"))
            rows.append(((F, j), x, fx, f"F{j}>x{k}"))
            rows.append(((K, j), y, ky * y, f"K{j}>y{k}"))
            rows.append(((K, j), x, kx * x, f"K{j}>x{k}"))
            rows.append(((KINV, j), y, ky.inv() * y, f"K{j}^-1>y{k}"))
            rows.append(((KINV, j), x, kx.inv() * x, f"K{j}^-1>x{k}"))
    return rows


def check_action_table(n, jmax=None):
    rep = SuiteReport("action-table")
    for g, fin, expected, name in action_table(n, jmax):
        got = act(g, fin)
        ok = got == expected
        rep.record(name, ok,
                   detail="" if ok else f"got {got}, want {expected}")
    return rep


def coordinate_monomials(n, max_degree):
    """Canonical coordinate monomials (no scale part) up to a total degree."""
    out = []
    degrees = range(max_degree + 1)
    for b in itertools.product(degrees, repeat=n):
        room = max_degree - sum(b)
        if room < 0:
            continue
        for c in itertools.product(range(room + 1), repeat=n):
            if sum(c) > room:
                continue
            if any(b[i] and c[i] for i in range(n)):
                continue
            z = (0,) * n
            out.append(AlgebraElement(n, {(z, b, c): ONE}))
    return out


def _record_sweep(rep, case, witnesses):
    """Record ``case`` as passing when the lazy ``witnesses`` yield nothing,
    and otherwise as failing with the first witness as its detail."""
    witness = next(witnesses, "")
    rep.record(case, not witness, detail=witness)


# the module-algebra properties with a sweep and a tensor certificate
CERTIFIED = ("modalg", "modstar", "antipode")


def check_generator(rep, n, g, monomials, certified=()):
    """Record the unit rule, Leibniz rule, star compatibility and antipode
    cancellation of ``g``, sweeping ``monomials``.  A property named in
    ``certified`` is recorded passing, as its sweep would record it, and is
    not swept."""
    gname = _gen_str(g)
    cop = coproduct(n, g)
    eps = counit(HopfElement(n, {(g,): ONE}))
    unit, zero = AlgebraElement.unit(n), AlgebraElement.zero(n)

    got = act(g, unit)
    rep.record(f"modeins[{gname}]", got == unit.scaled(eps),
               detail="" if got == unit.scaled(eps) else str(got))

    def leibniz():
        # each coproduct leg's image of each monomial, formed once
        images = [([act_element(h1, f) for f in monomials],
                   [act_element(h2, f) for f in monomials]) for h1, h2 in cop]
        return (f"f1={f1}, f2={f2}"
                for i1, f1 in enumerate(monomials)
                for i2, f2 in enumerate(monomials)
                if act(g, f1 * f2) != sum((left[i1] * right[i2]
                                           for left, right in images), zero))

    def star():
        sstar = antipode(n, g).star()
        return (f"f={f}" for f in monomials
                if act(g, f).star() != act_element(sstar, f.star()))

    def cancellation():
        cancel = [antipode_element(h1) * h2 for h1, h2 in cop]
        return (f"f={f}" for f in monomials
                if sum((act_element(h, f) for h in cancel), zero)
                != f.scaled(eps))

    for prop, sweep in zip(CERTIFIED, (leibniz, star, cancellation)):
        _record_sweep(rep, f"{prop}[{gname}]",
                      iter(()) if prop in certified else sweep())


def check_module_algebra(n, degree=3, jmax=None):
    """Leibniz rule, unit rule, star compatibility, antipode cancellation."""
    rep = SuiteReport("module-algebra")
    monomials = coordinate_monomials(n, degree)
    for g in generators(n, jmax):
        check_generator(rep, n, g, monomials)
    return rep


def defining_relations(n, jmax=None):
    """Words that must annihilate every element through the action."""
    jmax = _jmax(n, jmax)
    cart = cartan_matrix(n)
    gens = {g: HopfElement.generator(n, *g) for g in generators(n, jmax)}
    rels = []
    lam_inv = coeff.LAMBDA_INV
    for i in range(1, jmax + 1):
        rels.append((f"KKinv[{i}]",
                     gens[(K, i)] * gens[(KINV, i)] - HopfElement.unit(n)))
        rels.append((f"KinvK[{i}]",
                     gens[(KINV, i)] * gens[(K, i)] - HopfElement.unit(n)))
        for j in range(i + 1, jmax + 1):
            rels.append((f"KK[{i},{j}]",
                         gens[(K, i)] * gens[(K, j)] - gens[(K, j)] * gens[(K, i)]))
        for j in range(1, jmax + 1):
            a = cart[i - 1][j - 1]
            rels.append((f"KE[{i},{j}]",
                         gens[(K, i)] * gens[(E, j)]
                         - q_power(a) * (gens[(E, j)] * gens[(K, i)])))
            rels.append((f"KF[{i},{j}]",
                         gens[(K, i)] * gens[(F, j)]
                         - q_power(-a) * (gens[(F, j)] * gens[(K, i)])))
    qser = q_power(1) + q_power(-1)
    for kind, tag in ((E, "EE"), (F, "FF")):
        for i in range(1, jmax + 1):
            for j in range(i + 1, jmax + 1):
                if j - i >= 2:
                    rels.append((f"{tag}far[{i},{j}]",
                                 gens[(kind, i)] * gens[(kind, j)]
                                 - gens[(kind, j)] * gens[(kind, i)]))
        for j in range(1, jmax + 1):
            for l in (j - 1, j + 1):
                if not 1 <= l <= jmax:
                    continue
                gj, gl = gens[(kind, j)], gens[(kind, l)]
                rels.append((f"{tag}serre[{j},{l}]",
                             gj * gj * gl - qser * (gj * gl * gj) + gl * (gj * gj)))
    for i in range(1, jmax + 1):
        for j in range(1, jmax + 1):
            if i != j:
                rels.append((f"EFcross[{i},{j}]",
                             gens[(E, i)] * gens[(F, j)]
                             - gens[(F, j)] * gens[(E, i)]))
        rels.append((f"EF[{i}]",
                     gens[(E, i)] * gens[(F, i)] - gens[(F, i)] * gens[(E, i)]
                     - lam_inv * (gens[(K, i)] - gens[(KINV, i)])))
    return rels


def check_defining_relations(n, degree=3, jmax=None):
    rep = SuiteReport("uq-relations")
    monomials = coordinate_monomials(n, degree)
    for name, rel in defining_relations(n, jmax):
        _record_sweep(rep, name, (
            f"f={f} -> {got}" for f in monomials
            if not (got := act_element(rel, f)).is_zero))
    return rep


# -- sandwich-tensor certificates ---------------------------------------------
#
# A word acts as ``f -> sum(c * L * f * R)``, an element of A (x) A^op kept as
# the term map ``{(key_L, key_R): c}``.  A zero tensor proves an identity for
# every ``f`` at once.  A nonzero one proves nothing, since the map
# A (x) A^op -> End(A) is not shown injective, so failures come from sweeps.


def _mono(n, key):
    return AlgebraElement(n, {key: ONE})


def _outer(c, left, right):
    """The tensor terms of ``c * left (x) right``."""
    return (((a, b), c * va * vb) for a, va in left.terms.items()
            for b, vb in right.terms.items())


def _tensor(n, h):
    """Term map of ``h``, composed from ``sandwich`` as
    ``(L' (x) R') o (L (x) R) = L'L (x) R R'``."""
    unit = AlgebraElement._unit_key(n)
    out = {}
    for word, cv in h.terms.items():
        t = {(unit, unit): cv}
        for g in reversed(word):
            step = {}
            for (kl, kr), v in t.items():
                left, right = _mono(n, kl), _mono(n, kr)
                for c, l2, r2 in sandwich(n, g):
                    accumulate(step, _outer(
                        c * v, left if l2 is None else l2 * left,
                        right if r2 is None else right * r2))
            t = step
        accumulate(out, t.items())
    return out


def certify(n, g):
    """The names in :data:`CERTIFIED` whose identity is a zero tensor for
    ``g``; a name left out is not certified, which does not make it false."""
    unit = AlgebraElement._unit_key(n)
    hg = HopfElement(n, {(g,): ONE})
    tg = _tensor(n, hg)
    cop = coproduct(n, g)
    closed = set()
    # Leibniz: L (x) 1 (x) R against L1 (x) R1*L2 (x) R2 per coproduct term
    leibniz = {(kl, unit, kr): -v for (kl, kr), v in tg.items()}
    for h1, h2 in cop:
        t2 = _tensor(n, h2)
        for (l1, r1), v1 in _tensor(n, h1).items():
            for (l2, r2), v2 in t2.items():
                mid = _mono(n, r1) * _mono(n, l2)
                accumulate(leibniz, (((l1, km, r2), v1 * v2 * vm)
                                     for km, vm in mid.terms.items()))
    if not leibniz:
        closed.add("modalg")
    # star: sum(conj(c) * R* (x) L*) against the tensor of S(g)*
    star = _tensor(n, -antipode(n, g).star())
    for (kl, kr), v in tg.items():
        accumulate(star, _outer(v.star(), _mono(n, kr).star(),
                                _mono(n, kl).star()))
    if not star:
        closed.add("modstar")
    # antipode: sum(S(h1) * h2) - eps(g), one element whose tensor is zero
    cancel = sum((antipode_element(h1) * h2 for h1, h2 in cop), -counit(hg))
    if not _tensor(n, cancel):
        closed.add("antipode")
    return closed


def check_certificates(n):
    """Each generator's :func:`certify` properties, its trace density
    ``sum(c * R * Gamma * L) == eps(g) * Gamma`` and each defining relation's
    zero tensor as cases; a failing case is not certified, not disproved."""
    rep = SuiteReport("certificate")
    gamma = weyl.gamma(n)
    for g in generators(n):
        gname = _gen_str(g)
        hg = HopfElement(n, {(g,): ONE})
        closed = certify(n, g)
        for prop in CERTIFIED:
            rep.record(f"cert-{prop}[{gname}]", prop in closed)
        density = sum(((_mono(n, kr) * gamma * _mono(n, kl)).scaled(v)
                       for (kl, kr), v in _tensor(n, hg).items()),
                      AlgebraElement.zero(n))
        rep.record(f"cert-density[{gname}]",
                   density == gamma.scaled(counit(hg)))
    for name, rel in defining_relations(n):
        rep.record(f"cert-rel[{name}]", not _tensor(n, rel))
    return rep
