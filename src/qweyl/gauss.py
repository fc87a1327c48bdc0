"""Shift-operator realization on Gaussian wave packets.

States live on ``n`` tensor legs, each a finite combination of packets
``exp(-eps*s**2 + gamma*s)`` with ``eps > 0``.  Every generator of the
algebra becomes a finite sum of elementary operators: a complex scalar
times one shift leg ``(t, p)`` per tensor leg, which applies ``e^{t T}``
and then ``e^{p P}``:

    e^{t T}: gamma -> gamma + t
    e^{p P}: prefactor *= exp(eps*p**2 + 1j*gamma*p), gamma -> gamma - 2j*eps*p

Composing two legs moves the second ``T`` shift past the first ``P`` shift
at the exact phase ``exp(-1j*p0*t1)``, so every leg stays one ``(t, p)``
pair.  Applying any represented element to a state stays inside the
family, and all inner products reduce to the closed-form Gaussian integral
``sqrt(pi/a) * exp(b**2/(4a))``.  The inner product is linear in its first
argument.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ShapeMismatch
from .report import SuiteReport
from .sparse import Combination, accumulate
from .weyl import hermitian_generators


def _apply_leg(eps, gamma, leg):
    """Apply the shift leg ``(t, p)`` to ``exp(-eps*s**2 + gamma*s)``.

    Returns ``(gamma', prefactor)``; ``eps`` is unchanged.
    """
    t, p = leg
    if t:
        gamma = gamma + t
    if not p:
        return gamma, 1.0 + 0j
    # not a no-op: the product by one turns a -0.0 part into +0.0
    pre = (1.0 + 0j) * cmath.exp(eps * p * p + 1j * gamma * p)
    return gamma - 2j * eps * p, pre


def _leg_overlap(e1, g1, e2, g2):
    # integral of exp(-(e1+e2)t^2 + (g1 + conj(g2))t) over the line
    a = e1 + e2
    b = g1 + g2.conjugate()
    return math.sqrt(math.pi / a) * cmath.exp(b * b / (4.0 * a))


class GaussianState(Combination):
    """Finite combination of n-leg Gaussian products with complex amplitudes.

    Leg prefactors are folded into the amplitudes, so terms are keyed by the
    exact ``(epsilon, gamma)`` data of their legs and merge canonically.
    A state takes no scalar operands: ``scaled`` multiplies it by a number.
    """

    __slots__ = ()

    _scalars = ()
    _scalar = complex

    def _mismatch(self, other):
        return ShapeMismatch(f"{self.n} legs vs {other.n}")

    @staticmethod
    def _sort_key(key):
        return tuple((eps, gam.real, gam.imag) for eps, gam in key)

    @staticmethod
    def _key_str(key):
        return "*".join(f"G({eps!r}, {gam!r})" for eps, gam in key)

    @staticmethod
    def from_legs(amplitude, legs):
        """One-term state from finite ``(eps, gamma)`` legs, each ``eps > 0``."""
        key = []
        for eps, gam in legs:
            if not (math.isfinite(eps) and eps > 0):
                raise ValueError("epsilon must be positive and finite")
            if not cmath.isfinite(complex(gam)):
                raise ValueError("gamma must be finite")
            key.append((float(eps), complex(gam)))
        amp = complex(amplitude)
        if amp == 0:
            return GaussianState.zero(len(key))
        return GaussianState(len(key), {tuple(key): amp})


def inner(u, v):
    """Closed-form inner product, linear in ``u``, conjugate-linear in ``v``."""
    u._match(v)
    total = 0j
    for ku, au in u.terms.items():
        for kv, av in v.terms.items():
            prod = au * av.conjugate()
            for (e1, g1), (e2, g2) in zip(ku, kv):
                prod *= _leg_overlap(e1, g1, e2, g2)
            total += prod
    return total


def norm(u, table=None):
    """``sqrt(inner(u, u))`` over unordered term pairs: as ``(j, i)`` is the
    conjugate of ``(i, j)``, an off-diagonal pair adds twice its real part.

    ``table`` numbers each distinct ``(eps, gamma)`` leg and keeps each
    ordered leg-pair overlap once, so the norms that share it share their
    overlaps; the products and the sum are the same either way.
    """
    ids, legs, rows = table or ({}, [], [])
    items = []
    for key, amp in u.terms.items():
        nums = []
        for leg in key:
            a = ids.setdefault(leg, len(legs))
            if a == len(legs):
                legs.append(leg)
                rows.append({})
            nums.append(a)
        items.append((nums, amp))
    total = 0.0
    for i, (ku, au) in enumerate(items):
        for j, (kv, av) in enumerate(items[i:]):
            prod = au * av.conjugate()
            for a, b in zip(ku, kv):
                row = rows[a]
                ov = row.get(b)
                if ov is None:
                    ov = row[b] = _leg_overlap(*legs[a], *legs[b])
                prod *= ov
            total += 2.0 * prod.real if j else prod.real
    return math.sqrt(abs(total))


# -- elementary operators ------------------------------------------------------


def _compose_legs(first, then):
    """The leg ``first`` followed by ``then``, as ``(phase, leg)``.

    Moving the ``T`` shift of ``then`` past the ``P`` shift of ``first``
    picks up ``exp(-1j*p0*t1)``.  Keeping legs composed avoids the huge
    intermediate prefactors that uncomposed conjugation words would produce
    on sharply peaked packets.
    """
    t0, p0 = first
    t1, p1 = then
    arg = -p0 * t1
    phase = cmath.exp(1j * arg) if arg else 1.0 + 0j
    return phase, (t0 + t1, p0 + p1)


@dataclass(frozen=True)
class ElementaryOperator:
    """Complex scalar times one shift leg ``(t, p)`` per tensor leg."""

    scalar: complex
    legs: tuple  # per tensor leg: e^{t T}, then e^{p P}

    def applied_after(self, other):
        """Composite acting as ``other`` first, then ``self``."""
        return _composed(self.scalar * other.scalar, zip(other.legs, self.legs))


def _composed(scalar, leg_pairs):
    """``scalar`` times the composite of each ``(first, then)`` leg pair."""
    legs = []
    for first, then in leg_pairs:
        phase, leg = _compose_legs(first, then)
        scalar *= phase
        legs.append(leg)
    return ElementaryOperator(scalar, tuple(legs))


def op_identity(n):
    return ElementaryOperator(1.0 + 0j, ((0.0, 0.0),) * n)


def adjoint_ops(ops):
    """Adjoint of a sum of elementary operators.

    Each shift is its own adjoint, so a leg's shifts act in reverse order
    (``e^{p P}`` first, then ``e^{t T}``); scalars are conjugated.
    """
    return [_composed(op.scalar.conjugate(),
                      (((0.0, p), (t, 0.0)) for t, p in op.legs))
            for op in ops]


def apply_ops(ops, state):
    """Apply a sum of elementary operators to a state."""
    def images():
        for key, amp in state.terms.items():
            for op in ops:
                if len(op.legs) != state.n:
                    raise ShapeMismatch(f"operator has {len(op.legs)} legs, "
                                        f"state has {state.n}")
                val = amp * op.scalar
                newkey = []
                for (eps, gam), leg in zip(key, op.legs):
                    gam, pre = _apply_leg(eps, gam, leg)
                    val *= pre
                    newkey.append((eps, gam))
                yield tuple(newkey), val

    return GaussianState(state.n, accumulate({}, images()))


# -- representation of algebra elements ----------------------------------------


def _atom_variants(atom, n, ctx):
    """The elementary operators whose sum realizes one generator atom."""
    phi = ctx.phi
    kind, k = atom[0], atom[1]
    main = n - k
    before = ((0.0, phi),) * main
    after = ((0.0, 0.0),) * (k - 1)
    if kind == "R":
        return [ElementaryOperator(1.0 + 0j,
                                   ((0.0, atom[2] * phi),) * (main + 1) + after)]
    if kind == "y":
        return [ElementaryOperator(1.0 + 0j, before + ((1.0, 0.0),) + after)]
    if kind == "x":
        sign = -1.0 if main % 2 else 1.0
        return [ElementaryOperator(sign * ctx.q_value,
                                   before + ((-1.0, 2.0 * phi),) + after),
                ElementaryOperator(sign + 0j, before + ((-1.0, 0.0),) + after)]
    raise ValueError(f"unknown atom kind {kind!r}")


def represent_word(n, atoms, ctx, scalar=1.0 + 0j):
    """Represent a free product of generator atoms as elementary operators."""
    ops = [ElementaryOperator(complex(scalar), ((0.0, 0.0),) * n)]
    for atom in reversed(tuple(atoms)):
        variants = _atom_variants(atom, n, ctx)
        ops = [v.applied_after(op) for op in ops for v in variants]
    return ops


def represent_terms(n, terms, ctx):
    """Represent a weighted word list ``((scalar, atoms), ...)``."""
    ops = []
    for cv, atoms in terms:
        ops.extend(represent_word(n, atoms, ctx, scalar=cv.evaluate(ctx)))
    return ops


# (element, ctx) -> its operators as a tuple, which callers never see
_REPRESENT_MEMO = {}


def represent(element, ctx):
    """Represent a canonical algebra element, once per ``(element, ctx)``."""
    ops = _REPRESENT_MEMO.get((element, ctx))
    if ops is None:
        ops = _REPRESENT_MEMO[(element, ctx)] = tuple(
            represent_terms(element.n, element.as_terms(), ctx))
    return list(ops)


# -- pointwise verification -----------------------------------------------------


def _pieces_residual(pieces, state, scale):
    """Relative size of the summed images; ``scale`` is the state's norm.

    The norms of the pieces and of their sum share one overlap table, which
    lives for this call only.
    """
    table = ({}, [], [])
    image = {}
    for ops in pieces:
        piece = apply_ops(ops, state)
        scale = max(scale, norm(piece, table))
        accumulate(image, piece.terms.items())
    return norm(GaussianState(state.n, image), table) / scale


def relation_residual(n, relation, state, ctx):
    """Relative size of the relation image on a state.

    The represented generators are unbounded, so individual term images can
    dwarf the input state; the residual is therefore measured against the
    largest contribution rather than the state norm alone.
    """
    pieces = [represent_terms(n, (term,), ctx) for term in relation.terms]
    return _pieces_residual(pieces, state, norm(state))


def check_relations_pointwise(n, relations, states, ctx, suite="pointwise"):
    rep = SuiteReport(suite)
    norms = [norm(state) for state in states]
    for rel in relations:
        pieces = [represent_terms(n, (term,), ctx) for term in rel.terms]
        worst = 0.0
        for state, scale in zip(states, norms):
            worst = max(worst, _pieces_residual(pieces, state, scale))
        rep.record(rel.name, worst <= ctx.tolerance, residual=worst)
    return rep


def check_hermiticity_pointwise(n, states, ctx):
    """Symmetry ``<Op u, v> == <u, Op v>`` for the hermitian element list."""
    rep = SuiteReport("pointwise")
    for name, element in hermitian_generators(n):
        ops = represent(element, ctx)
        images = [apply_ops(ops, u) for u in states]
        worst = 0.0
        for i, u in enumerate(states):
            j = (i + 1) % len(states)
            lhs = inner(images[i], states[j])
            rhs = inner(u, images[j])
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        rep.record(f"hermitian[{name}]", worst <= ctx.tolerance, residual=worst)
    return rep


def random_state(n, rng, max_terms=2, eps_range=(0.5, 2.0), gamma_bound=1.4):
    """Sample states with tame conditioning: eps in [0.5, 2], |gamma| <= 2."""
    state = GaussianState.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        legs = [(rng.uniform(*eps_range),
                 complex(rng.uniform(-gamma_bound, gamma_bound),
                         rng.uniform(-gamma_bound, gamma_bound)))
                for _ in range(n)]
        amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        state = state + GaussianState.from_legs(amp, legs)
    if state.is_zero:
        state = GaussianState.from_legs(1.0, [(1.0, 0j)] * n)
    return state


def sample_states(n, rng, count):
    return [random_state(n, rng) for _ in range(count)]


# -- the rank-one two-component model (single coordinate pair only) -----------
#
# States carry an internal two-component leg; operators are sums of
# (scalar, shift leg, 2x2 matrix).

SIGMA0 = ((1.0 + 0j, 0j), (0j, -1.0 + 0j))
SIGMA1 = ((0j, 1.0 + 0j), (1.0 + 0j, 0j))
ID2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def model2_operators(ctx):
    """Two-component realization of the single-pair coordinate algebra."""
    phi = ctx.phi
    s = 1.0 if phi > 0 else -1.0
    beta = 2.0 * phi - s * math.pi
    qv = ctx.q_value
    s01 = mat_mul(SIGMA0, SIGMA1)
    return {
        "y": [(1.0 + 0j, (1.0, 0.0), SIGMA1)],
        "x": [(qv, (-1.0, beta), s01),
              (1.0 + 0j, (-1.0, 0.0), SIGMA1)],
        "Q": [(-1.0 + 0j, (0.0, beta), SIGMA0)],
        "Qinv": [(-1.0 + 0j, (0.0, -beta), SIGMA0)],
        "one": [(1.0 + 0j, (0.0, 0.0), ID2)],
    }


def model2_state(amp, eps, gamma, comp):
    return {(float(eps), complex(gamma), int(comp)): complex(amp)}


def model2_random_state(rng):
    state = {}
    for _ in range(rng.randint(1, 2)):
        key = (rng.uniform(0.5, 2.0),
               complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)),
               rng.randint(0, 1))
        amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        state[key] = state.get(key, 0j) + amp
    return state or model2_state(1.0, 1.0, 0j, 0)


def m2_compose(after, before):
    """Compose two-component operators (``before`` acts first)."""
    out = []
    for sa, la, ma in after:
        for sb, lb, mb in before:
            phase, leg = _compose_legs(lb, la)
            out.append((sa * sb * phase, leg, mat_mul(ma, mb)))
    return out


def m2_scaled(c, ops):
    return [(c * s, w, m) for s, w, m in ops]


def model2_apply(ops, state):
    def images():
        for (eps, gam, comp), amp in state.items():
            for scalar, leg, mat in ops:
                shifted, pre = _apply_leg(eps, gam, leg)
                base = amp * scalar * pre
                for row in range(2):
                    entry = mat[row][comp]
                    if entry != 0:
                        yield (eps, shifted, row), base * entry

    return accumulate({}, images())


def model2_add(u, v, cv=1.0):
    return accumulate(dict(u), ((key, cv * amp) for key, amp in v.items()))


def model2_inner(u, v):
    total = 0j
    for (e1, g1, c1), a1 in u.items():
        for (e2, g2, c2), a2 in v.items():
            if c1 != c2:
                continue
            total += a1 * a2.conjugate() * _leg_overlap(e1, g1, e2, g2)
    return total


def model2_norm(u):
    return math.sqrt(abs(model2_inner(u, u)))


def _m2_relation_residual(op_terms, states):
    """Largest relative residual of a vanishing sum of composite operators."""
    worst = 0.0
    for u in states:
        scale = model2_norm(u)
        total = {}
        for ops in op_terms:
            piece = model2_apply(ops, u)
            scale = max(scale, model2_norm(piece))
            total = model2_add(total, piece)
        worst = max(worst, model2_norm(total) / scale)
    return worst


def check_model2(states, ctx):
    """Pointwise defining relations and hermiticity in the two-component model."""
    rep = SuiteReport("model2-n1")
    ops = model2_operators(ctx)
    qv = ctx.q_value
    lam = ctx.lambda_value

    r = _m2_relation_residual(
        [m2_compose(ops["x"], ops["y"]),
         m2_scaled(-qv * qv, m2_compose(ops["y"], ops["x"])),
         m2_scaled(-(1.0 - qv * qv), ops["one"])], states)
    rep.record("xy", r <= ctx.tolerance, residual=r)

    for coord in ("y", "x"):
        factor = qv * qv if coord == "y" else 1.0 / (qv * qv)
        r = _m2_relation_residual(
            [m2_compose(ops["Q"], ops[coord]),
             m2_scaled(-factor, m2_compose(ops[coord], ops["Q"]))], states)
        rep.record(f"Qxy[{coord}]", r <= ctx.tolerance, residual=r)

    r = _m2_relation_residual(
        [m2_scaled(1.0 / lam, m2_compose(ops["y"], ops["x"])),
         m2_scaled(-1.0 / lam, m2_compose(ops["x"], ops["y"])),
         m2_scaled(-1.0, ops["Q"])], states)
    rep.record("Qdef", r <= ctx.tolerance, residual=r)

    for name in ("y", "x", "Q"):
        worst = 0.0
        for i, u in enumerate(states):
            v = states[(i + 1) % len(states)]
            lhs = model2_inner(model2_apply(ops[name], u), v)
            rhs = model2_inner(u, model2_apply(ops[name], v))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        rep.record(f"hermitian[{name}]", worst <= ctx.tolerance, residual=worst)

    anti = mat_add(mat_mul(SIGMA0, SIGMA1), mat_mul(SIGMA1, SIGMA0))
    exact = all(anti[i][j] == 0 for i in range(2) for j in range(2))
    rep.record("sigma-anticommute", exact, residual=0.0 if exact else 1.0)
    return rep
