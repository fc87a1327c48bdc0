"""Shift-operator realization on Gaussian wave packets.

States live on ``n`` tensor legs, each a finite combination of packets
``exp(-eps*t**2 + gamma*t)`` with ``eps > 0``.  Every generator of the
algebra becomes a finite sum of per-leg shift words built from

    e^{a T}: gamma -> gamma + a
    e^{b P}: prefactor *= exp(eps*b**2 + 1j*gamma*b), gamma -> gamma - 2j*eps*b

so applying any represented element to a state stays inside the family and
all inner products reduce to the closed-form Gaussian integral
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


@dataclass(frozen=True)
class GaussianFactor:
    """One leg: ``prefactor * exp(-epsilon*t**2 + gamma*t)``."""

    epsilon: float
    gamma: complex
    prefactor: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive for square-integrability")


def apply_shift_t(alpha, g):
    """Left shift of the argument: multiply by ``e^{alpha*T}``."""
    return GaussianFactor(g.epsilon, g.gamma + alpha, g.prefactor)


def apply_shift_p(beta, g):
    """Imaginary translation ``t -> t + 1j*beta`` expanded back into the family."""
    pre = g.prefactor * cmath.exp(g.epsilon * beta * beta + 1j * g.gamma * beta)
    return GaussianFactor(g.epsilon, g.gamma - 2j * g.epsilon * beta, pre)


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
    def from_legs(amplitude, legs):
        """Build a one-term state; legs are GaussianFactors or (eps, gamma)."""
        key = []
        amp = complex(amplitude)
        for leg in legs:
            if isinstance(leg, GaussianFactor):
                amp *= leg.prefactor
                key.append((float(leg.epsilon), complex(leg.gamma)))
            else:
                eps, gam = leg
                if eps <= 0:
                    raise ValueError("epsilon must be positive")
                key.append((float(eps), complex(gam)))
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


def norm(u):
    return math.sqrt(abs(inner(u, u)))


# -- elementary operators ------------------------------------------------------


def collapse_word(word):
    """Reduce a shift word to canonical ``T then P`` application order.

    Successive shifts of the same kind add; reordering a ``T`` shift past
    accumulated ``P`` shifts picks up the exact phase ``exp(-1j*P*alpha)``.
    Returns ``(phase, word)``.  Keeping words collapsed avoids the huge
    intermediate prefactors that uncollapsed conjugation words would
    produce on sharply peaked packets.
    """
    t_total = 0.0
    p_total = 0.0
    arg = 0.0
    for kind, amount in word:
        if kind == "T":
            arg -= p_total * amount
            t_total += amount
        else:
            p_total += amount
    out = ()
    if t_total:
        out += (("T", t_total),)
    if p_total:
        out += (("P", p_total),)
    phase = cmath.exp(1j * arg) if arg else 1.0 + 0j
    return phase, out


@dataclass(frozen=True)
class ElementaryOperator:
    """Complex scalar times per-leg shift words (application order).

    Construct through :func:`make_elementary` so leg words stay collapsed.
    """

    scalar: complex
    legs: tuple  # tuple over legs of tuples of ("T"|"P", amount)

    def applied_after(self, other):
        """Composite acting as ``other`` first, then ``self``."""
        return make_elementary(
            self.scalar * other.scalar,
            tuple(o + s for o, s in zip(other.legs, self.legs)))


def make_elementary(scalar, legs):
    scalar = complex(scalar)
    out = []
    for leg in legs:
        phase, word = collapse_word(leg)
        scalar *= phase
        out.append(word)
    return ElementaryOperator(scalar, tuple(out))


def op_identity(n):
    return ElementaryOperator(1.0 + 0j, ((),) * n)


def adjoint_ops(ops):
    """Adjoint of a sum of shift words: reverse each word, conjugate scalars."""
    return [make_elementary(op.scalar.conjugate(),
                            tuple(tuple(reversed(leg)) for leg in op.legs))
            for op in ops]


def _apply_word(g, word):
    """Apply a shift word (application order) to one leg."""
    for kind, amount in word:
        g = apply_shift_t(amount, g) if kind == "T" else apply_shift_p(amount, g)
    return g


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
                for (eps, gam), word in zip(key, op.legs):
                    g = _apply_word(GaussianFactor(eps, gam), word)
                    val *= g.prefactor
                    newkey.append((g.epsilon, g.gamma))
                yield tuple(newkey), val

    return GaussianState(state.n, accumulate({}, images()))


# -- representation of algebra elements ----------------------------------------


def _atom_variants(atom, n, ctx):
    """Options (scalar, legs) realizing one generator atom."""
    phi = ctx.phi
    kind = atom[0]
    k = atom[1]
    empty = ()
    if kind == "R":
        s = atom[2]
        legs = tuple((("P", s * phi),) if pos <= n - k else empty
                     for pos in range(n))
        return [(1.0 + 0j, legs)]
    if kind == "y":
        legs = []
        for pos in range(n):
            if pos < n - k:
                legs.append((("P", phi),))
            elif pos == n - k:
                legs.append((("T", 1.0),))
            else:
                legs.append(empty)
        return [(1.0 + 0j, tuple(legs))]
    if kind == "x":
        sign = -1.0 if (n - k) % 2 else 1.0
        prefix = []
        for pos in range(n):
            if pos < n - k:
                prefix.append((("P", phi),))
            else:
                prefix.append(empty)
        main = n - k
        legs_a = list(prefix)
        legs_a[main] = (("T", -1.0), ("P", 2.0 * phi))
        legs_b = list(prefix)
        legs_b[main] = (("T", -1.0),)
        qv = ctx.q_value
        return [(sign * qv, tuple(legs_a)), (sign + 0j, tuple(legs_b))]
    raise ValueError(f"unknown atom kind {kind!r}")


def represent_word(n, atoms, ctx, scalar=1.0 + 0j):
    """Represent a free product of generator atoms as elementary operators."""
    ops = [ElementaryOperator(complex(scalar), ((),) * n)]
    for atom in reversed(tuple(atoms)):
        variants = _atom_variants(atom, n, ctx)
        ops = [make_elementary(v_scalar, v_legs).applied_after(op)
               for op in ops
               for v_scalar, v_legs in variants]
    return ops


def represent_terms(n, terms, ctx):
    """Represent a weighted word list ``((scalar, atoms), ...)``."""
    ops = []
    for cv, atoms in terms:
        ops.extend(represent_word(n, atoms, ctx, scalar=cv.evaluate(ctx)))
    return ops


def represent(element, ctx):
    """Represent a canonical algebra element."""
    return represent_terms(element.n, element.as_terms(), ctx)


# -- pointwise verification -----------------------------------------------------


def relation_residual(n, relation, state, ctx):
    """Relative size of the relation image on a state.

    The represented generators are unbounded, so individual term images can
    dwarf the input state; the residual is therefore measured against the
    largest contribution rather than the state norm alone.
    """
    scale = norm(state)
    image = GaussianState.zero(state.n)
    for cv, atoms in relation.terms:
        ops = represent_word(n, atoms, ctx, scalar=cv.evaluate(ctx))
        piece = apply_ops(ops, state)
        scale = max(scale, norm(piece))
        image = image + piece
    return norm(image) / scale


def check_relations_pointwise(n, relations, states, ctx, suite="pointwise"):
    rep = SuiteReport(suite)
    for rel in relations:
        worst = 0.0
        for state in states:
            worst = max(worst, relation_residual(n, rel, state, ctx))
        rep.record(rel.name, worst <= ctx.tolerance, residual=worst)
    return rep


def check_hermiticity_pointwise(n, states, ctx, suite="pointwise"):
    """Symmetry ``<Op u, v> == <u, Op v>`` for the hermitian element list."""
    rep = SuiteReport(suite)
    pairs = [(states[i], states[(i + 1) % len(states)])
             for i in range(len(states))]
    for name, element in hermitian_generators(n):
        ops = represent(element, ctx)
        worst = 0.0
        for u, v in pairs:
            lhs = inner(apply_ops(ops, u), v)
            rhs = inner(u, apply_ops(ops, v))
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
# (scalar, shift word, 2x2 matrix).

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
        "y": [(1.0 + 0j, (("T", 1.0),), SIGMA1)],
        "x": [(qv, (("T", -1.0), ("P", beta)), s01),
              (1.0 + 0j, (("T", -1.0),), SIGMA1)],
        "Q": [(-1.0 + 0j, (("P", beta),), SIGMA0)],
        "Qinv": [(-1.0 + 0j, (("P", -beta),), SIGMA0)],
        "one": [(1.0 + 0j, (), ID2)],
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
    for sa, wa, ma in after:
        for sb, wb, mb in before:
            phase, word = collapse_word(wb + wa)
            out.append((sa * sb * phase, word, mat_mul(ma, mb)))
    return out


def m2_scaled(c, ops):
    return [(c * s, w, m) for s, w, m in ops]


def model2_apply(ops, state):
    def images():
        for (eps, gam, comp), amp in state.items():
            for scalar, word, mat in ops:
                g = _apply_word(GaussianFactor(eps, gam), word)
                base = amp * scalar * g.prefactor
                for row in range(2):
                    entry = mat[row][comp]
                    if entry != 0:
                        yield (g.epsilon, g.gamma, row), base * entry

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


def check_model2(states, ctx, suite="model2-n1"):
    """Pointwise defining relations and hermiticity in the two-component model."""
    rep = SuiteReport(suite)
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
