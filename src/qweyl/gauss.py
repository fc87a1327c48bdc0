"""Shift-operator realization on Gaussian wave packets.

States live on ``n`` tensor legs, each a finite combination of packets
``exp(-eps*s**2 + gamma*s)`` with ``eps > 0``.  Every generator of the
algebra becomes a finite sum of elementary operators: a complex scalar
times one integer shift leg ``(t, m)`` per tensor leg, which applies
``e^{t T}`` and then ``e^{p P}`` with ``p = m*phi``; the operator carries
its P-shift unit ``phi``:

    e^{t T}: gamma -> gamma + t
    e^{p P}: prefactor *= exp(eps*p**2 + 1j*gamma*p), gamma -> gamma - 2j*eps*p

Composing two legs moves the second ``T`` shift past the first ``P`` shift
at the Weyl phase ``exp(-1j*phi*m0*t1)`` of integer exponent, so every leg
stays one integer pair and operators with equal legs merge exactly; a
composite ``(scalar, k, legs)`` forms its phase of exponent ``k`` once.
Applying any represented element to a state stays inside the family, and
all inner products, linear in the first argument, reduce to the closed-form
Gaussian integral ``sqrt(pi/a) * exp(b**2/(4a))``.

The atom table is exact: each entry is a sign, a power of ``q`` and integer
legs, so a word's image is an element of the quantum torus over Q(i)(q0),
where the phase of exponent ``k`` is ``q0**(-2k)``: ``_word_image`` gives
it as signs per ``(legs, k)``, which ``torus_terms`` reads exactly and
``represent_terms`` at ``phi``.  A relation line merges the exact image
first: an empty sum proves the relation, with residual 0.0 and no Gaussian
work.  Only a relation that does not cancel is applied to the states.  A
NaN residual raises ``OverflowError`` rather than pass.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import struct
from dataclasses import dataclass

from .coeff import q0_power
from .errors import ShapeMismatch
from .report import SuiteReport
from .sparse import Combination, accumulate
from .weyl import hermitian_generators, localized_relations, sign_of


def _apply_leg(eps, gamma, leg, phi):
    """Apply the shift leg ``(t, m)`` to ``exp(-eps*s**2 + gamma*s)``.

    Returns ``(gamma', prefactor)``; ``eps`` is unchanged.  This is the one
    place that forms a P-shift, ``p = m*phi``.
    """
    t, m = leg
    if t:
        gamma = gamma + t
    if not m:
        return gamma, 1.0 + 0j
    p = m * phi
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


def norm(u):
    return math.sqrt(abs(inner(u, u)))


# -- elementary operators ------------------------------------------------------


@dataclass(frozen=True)
class ElementaryOperator:
    """Complex scalar times one integer shift leg ``(t, m)`` per tensor leg."""

    scalar: complex
    legs: tuple  # per tensor leg: e^{t T}, then e^{m phi P}
    phi: float  # the P-shift unit


def _then(first, then):
    """The triple of ``first`` followed by ``then``: the ``T`` shift of
    ``then`` moves past the ``P`` shift of ``first`` on each tensor leg."""
    (s0, k, legs0), (s1, k1, legs1) = first, then
    legs = []
    for (t0, m0), (t1, m1) in zip(legs0, legs1):
        k += m0 * t1
        legs.append((t0 + t1, m0 + m1))
    return s0 * s1, k + k1, tuple(legs)


def _operator(triple, phi):
    """The elementary operator of a triple, its Weyl phase formed once."""
    scalar, k, legs = triple
    if k:
        scalar *= cmath.exp(1j * (-k * phi))
    return ElementaryOperator(scalar, legs, phi)


def adjoint_ops(ops):
    """Adjoint of a sum of elementary operators.

    Each shift is its own adjoint, so a leg's shifts act in reverse order
    (``e^{m phi P}`` first, then ``e^{t T}``); scalars are conjugated.
    """
    return [_operator(_then(
        (op.scalar.conjugate(), 0, [(0, m) for _, m in op.legs]),
        (1.0 + 0j, 0, [(t, 0) for t, _ in op.legs])), op.phi) for op in ops]


def apply_ops(ops, state):
    """Apply a sum of elementary operators to a state."""
    for op in ops:
        if len(op.legs) != state.n:
            raise ShapeMismatch(f"operator has {len(op.legs)} legs, "
                                f"state has {state.n}")

    def images():
        for key, amp in state.terms.items():
            for op in ops:
                val = amp * op.scalar
                phi = op.phi
                newkey = []
                for (eps, gam), leg in zip(key, op.legs):
                    gam, pre = _apply_leg(eps, gam, leg, phi)
                    val *= pre
                    newkey.append((eps, gam))
                yield tuple(newkey), val

    return GaussianState(state.n, accumulate({}, images()))


# -- representation of algebra elements ----------------------------------------


def _atom_variants(atom, n):
    """The exact entries ``(sign, e, legs)`` of one generator atom, which is
    the sum of ``sign * q**e`` times the shift ``legs`` over them."""
    kind, k = atom[0], atom[1]
    main = n - k
    before = ((0, 1),) * main
    after = ((0, 0),) * (k - 1)
    if kind == "R":
        return [(1, 0, ((0, atom[2]),) * (main + 1) + after)]
    if kind == "y":
        return [(1, 0, before + ((1, 0),) + after)]
    if kind == "x":
        sign = -sign_of(n, k)
        return [(sign, 1, before + ((-1, 2),) + after),
                (sign, 0, before + ((-1, 0),) + after)]
    raise ValueError(f"unknown atom kind {kind!r}")


def _word_image(n, atoms):
    """A word's atom entries composed on ``_then``, ``q**e`` carried as the
    Weyl exponent ``k = -e``: ``(sign, k, legs)`` triples whose equal
    ``(legs, k)`` add their signs after each atom of two entries."""
    ops = [(1, 0, ((0, 0),) * n)]
    for atom in reversed(atoms):
        variants = [(s, -e, legs) for s, e, legs in _atom_variants(atom, n)]
        ops = [_then(op, v) for op in ops for v in variants]
        if len(ops) > len(variants) > 1:  # one product's extensions differ
            signs = accumulate({}, (((legs, k), s) for s, k, legs in ops))
            ops = [(s, k, legs) for (legs, k), s in signs.items()]
    return ops


def torus_terms(n, terms):
    """The exact image of a weighted word list ``((scalar, atoms), ...)`` in
    the quantum torus, as legs -> nonzero ``ScalarValue``: each word's
    ``_word_image`` read with the phase of exponent ``k`` as ``q0**(-2k)``."""
    return accumulate({}, ((legs, cv * _monomial(s, -2 * k))
                           for cv, atoms in terms
                           for s, k, legs in _word_image(n, atoms)))


@functools.cache
def _monomial(c, e):
    """``c * q0**e`` for an integer ``c``, built once."""
    return q0_power(e) * c


def represent_terms(n, terms, ctx):
    """Represent a weighted word list ``((scalar, atoms), ...)`` from its
    words' ``_word_image`` at ``phi``, equal legs merged in first order."""
    ops = (_operator((c * s, k, legs), ctx.phi)
           for c, atoms in ((cv.evaluate(ctx), atoms) for cv, atoms in terms)
           for s, k, legs in _word_image(n, atoms))
    merged = accumulate({}, ((op.legs, op.scalar) for op in ops))
    return [ElementaryOperator(s, legs, ctx.phi) for legs, s in merged.items()]


@functools.cache
def _represented(element, ctx):
    # a tuple, which callers never see
    return tuple(represent_terms(element.n, element.as_terms(), ctx))


def represent(element, ctx):
    """Represent a canonical algebra element, once per ``(element, ctx)``."""
    return list(_represented(element, ctx))


@functools.cache
def represent_adjoint(element, ctx):
    """The adjoint of ``represent(element, ctx)``, built once, as a tuple."""
    return tuple(adjoint_ops(_represented(element, ctx)))


# -- pointwise verification -----------------------------------------------------


# Work, in operator terms times state terms, that pays for one more process
# in a sweep: a fork costs about 8 ms of copy-on-write page faults, which the
# rank-1 and rank-2 sweeps of ``verify`` (work below 2,500) do not win back
# and the rank-3 invariance sweep at 60 samples does.
WORK_PER_PROCESS = 5000


def _process_count(work, jobs):
    """How many processes share a sweep of ``work``: one unless it is large."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, work // WORK_PER_PROCESS, len(jobs)))


def _sweep(rep, tolerance, cases, jobs, residual, work):
    """Record in ``rep`` each ``(name, case)`` case's worst
    ``residual(case, *job)`` over the jobs, passing within ``tolerance``;
    ``work`` sizes the sweep for ``_process_count``.

    A large sweep cuts the jobs into contiguous chunks and forks a child for
    each chunk after the first, which writes its residuals case by case as
    packed doubles, so every bit survives.  A child that dies or raises
    leaves a short read; the parent then computes that chunk itself, for
    this case and every later one, and so raises what the sequential loop
    raises.
    """
    procs = _process_count(work, jobs)
    cut = [len(jobs) * k // procs for k in range(procs + 1)]
    chunks = [jobs[a:b] for a, b in zip(cut, cut[1:])]
    packs = [struct.Struct(f"{len(chunk)}d") for chunk in chunks]
    reads = [None] * procs  # a child's read end; None: the parent computes
    pids = []
    try:
        for c in range(1, procs):
            try:
                r, w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if not pid:
                _child(cases, chunks[c], packs[c], w,
                       [r] + [f.fileno() for f in reads[1:c]], residual)
            os.close(w)
            reads[c] = os.fdopen(r, "rb")
            pids.append(pid)
        for name, case in cases:
            residuals = []
            for c, (chunk, pack) in enumerate(zip(chunks, packs)):
                data = reads[c].read(pack.size) if reads[c] else b""
                if len(data) == pack.size:
                    residuals.extend(pack.unpack(data))
                    continue
                if reads[c]:
                    reads[c].close()
                    reads[c] = None
                residuals.extend(residual(case, *job) for job in chunk)
            _record_worst(rep, name, residuals, tolerance)
    finally:
        for f in reads:
            if f:
                f.close()
        # a child whose read end is closed stops at its next write
        for pid in pids:
            os.waitpid(pid, 0)


def _child(cases, chunk, pack, w, inherited, residual):
    """Write the chunk's residuals case by case to ``w`` and exit.

    The child closes the read ends it inherited, so that it stops on a
    broken pipe once the parent closes or loses its own.  ``os._exit`` skips
    every cleanup of the parent's state the child holds a copy of: no stdout
    or ``--out`` buffer is flushed twice.
    """
    code = 1
    try:
        for r in inherited:
            os.close(r)
        with os.fdopen(w, "wb") as out:
            for _, case in cases:
                out.write(pack.pack(*(residual(case, *job) for job in chunk)))
                out.flush()
        code = 0
    finally:
        os._exit(code)


def check_relations_pointwise(n, relations, states, ctx, suite="pointwise"):
    """Record each relation's worst residual over ``states``, in order.

    A relation whose exact image ``torus_terms`` is empty holds: its residual
    is 0.0, with no float representation or state work.  Any other is
    represented at ``phi``; on each state its residual is the norm of its
    pieces' summed images over the largest of the state's and the pieces'
    norms, since a piece of an unbounded generator can dwarf the state.
    """
    for what, given in (("state", states), ("relation", relations)):
        if not given:
            raise ValueError(f"a pointwise check needs at least one {what}")
    for state in states:
        if state.n != n:
            raise ShapeMismatch(f"operator has {n} legs, state has {state.n}")
    rep = SuiteReport(suite)
    for rel in relations:
        residuals = [0.0]
        if torus_terms(n, rel.terms):
            pieces = [represent_terms(n, (term,), ctx) for term in rel.terms]
            residuals = []
            for state in states:
                scale, image = norm(state), GaussianState.zero(n)
                for ops in pieces:
                    piece = apply_ops(ops, state)
                    scale = max(scale, norm(piece))
                    image = image + piece
                residuals.append(norm(image) / scale)
        _record_worst(rep, rel.name, residuals, ctx.tolerance)
    return rep


def _record_worst(rep, name, residuals, tolerance):
    """Record a case's worst residual, passing within ``tolerance``.  A NaN
    among them raises ``OverflowError``: ``max`` would drop it, and their
    sum carries it."""
    if math.isnan(sum(residuals)):
        raise OverflowError(f"the {name} {rep.suite} residual is nan")
    worst = max(0.0, *residuals)
    rep.record(name, worst <= tolerance, residual=worst)


def _hermitian_residuals(states, images, inner_product):
    """``|<Op u, v> - <u, Op v>| / (1 + |<Op u, v>|)`` for each state ``u``
    and the next ``v`` (cyclically); ``images[i]`` is ``Op states[i]``."""
    out = []
    for i, u in enumerate(states):
        j = (i + 1) % len(states)
        lhs = inner_product(images[i], states[j])
        rhs = inner_product(u, images[j])
        out.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
    return out


def check_hermiticity_pointwise(n, states, ctx):
    """Symmetry ``<Op u, v> == <u, Op v>`` for the hermitian element list."""
    if not states:
        raise ValueError("a pointwise check needs at least one state")
    rep = SuiteReport("pointwise")
    for name, element in hermitian_generators(n):
        ops = represent(element, ctx)
        _record_worst(rep, f"hermitian[{name}]", _hermitian_residuals(
            states, [apply_ops(ops, u) for u in states], inner), ctx.tolerance)
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
# States are dicts keyed by ``(eps, gamma, component)``; operators are sums of
# (one-leg ElementaryOperator, 2x2 matrix) pairs.

SIGMA0 = ((1.0 + 0j, 0j), (0j, -1.0 + 0j))
SIGMA1 = ((0j, 1.0 + 0j), (1.0 + 0j, 0j))
ID2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def mat_mul(a, b):
    (b00, b01), (b10, b11) = b
    return tuple((r0 * b00 + r1 * b10, r0 * b01 + r1 * b11) for r0, r1 in a)


def _model2_atom(atom, q_value):
    """The atom table: ``y1``, ``x1`` and ``R1^(2e)`` as (one-leg triple,
    matrix) pairs that shift P in units of ``beta = 2*phi -+ pi``.  ``R1^2 =
    -Q1`` acts as ``e^{beta P}`` times ``SIGMA0``; an odd power of ``R1`` has
    no image in this model."""
    if atom[:2] == ("R", 1):
        e, odd = divmod(atom[2], 2)
        if odd:
            raise ValueError(f"the two-component model represents only even "
                             f"powers of R1, not R1^{atom[2]}")
        pairs = [(1.0 + 0j, (0, e), SIGMA0 if e % 2 else ID2)]
    elif atom == ("y", 1):
        pairs = [(1.0 + 0j, (1, 0), SIGMA1)]
    elif atom == ("x", 1):
        pairs = [(q_value, (-1, 1), mat_mul(SIGMA0, SIGMA1)),
                 (1.0 + 0j, (-1, 0), SIGMA1)]
    else:
        raise ValueError(f"the two-component model has no atom {atom!r}")
    return [((s, 0, (leg,)), m) for s, leg, m in pairs]


def model2_represent(terms, ctx):
    """Represent a weighted word list ``((scalar, atoms), ...)`` in the model;
    each word composes its atoms' pairs on ``_then`` as ``_word_image`` does."""
    beta = 2.0 * ctx.phi - math.copysign(math.pi, ctx.phi)
    out = []
    for cv, atoms in terms:
        ops = [((cv.evaluate(ctx), 0, ((0, 0),)), ID2)]
        for atom in reversed(atoms):
            variants = _model2_atom(atom, ctx.q_value)
            ops = [(_then(op, v), mat_mul(vm, m))
                   for op, m in ops for v, vm in variants]
        out += [(_operator(op, beta), m) for op, m in ops]
    return out


def model2_random_state(rng):
    state = {}
    for _ in range(rng.randint(1, 2)):
        key = (rng.uniform(0.5, 2.0),
               complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4)),
               rng.randint(0, 1))
        amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        state[key] = state.get(key, 0j) + amp
    return state or {(1.0, 0j, 0): 1.0 + 0j}


def model2_apply(ops, state):
    def images():
        for (eps, gam, comp), amp in state.items():
            for op, mat in ops:
                shifted, pre = _apply_leg(eps, gam, op.legs[0], op.phi)
                base = amp * op.scalar * pre
                for row in range(2):
                    entry = mat[row][comp]
                    if entry != 0:
                        yield (eps, shifted, row), base * entry

    return accumulate({}, images())


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


def _m2_relation_residual(op_terms, state):
    """Relative residual of a vanishing sum of operator terms on one state."""
    scale = model2_norm(state)
    total = {}
    for ops in op_terms:
        piece = model2_apply(ops, state)
        scale = max(scale, model2_norm(piece))
        accumulate(total, piece.items())
    return model2_norm(total) / scale


def check_model2(states, ctx):
    """Pointwise defining relations and hermiticity in the two-component model,
    read from the rank-one catalog and hermitian element list of ``weyl``."""
    if not states:
        raise ValueError("a pointwise check needs at least one state")
    rep = SuiteReport("model2-n1")
    catalog = {rel.name: rel.terms for rel in localized_relations(1)}
    cases = [(shown, [model2_represent((term,), ctx) for term in catalog[name]])
             for name, shown in (("xy", "xy"), ("Qxy[y]", "Qxy[y]"),
                                 ("Qxy[x]", "Qxy[x]"), ("defQ[k=1]", "Qdef"))]
    work = sum(len(ops) for _, pieces in cases for ops in pieces) \
        * sum(len(state) for state in states)
    _sweep(rep, ctx.tolerance, cases, [(u,) for u in states],
           _m2_relation_residual, work)

    for name, element in hermitian_generators(1):
        if name in ("y1", "x1", "Q1"):
            ops = model2_represent(element.as_terms(), ctx)
            _record_worst(rep, f"hermitian[{name[0]}]", _hermitian_residuals(
                states, [model2_apply(ops, u) for u in states], model2_inner),
                ctx.tolerance)

    s01, s10 = mat_mul(SIGMA0, SIGMA1), mat_mul(SIGMA1, SIGMA0)
    exact = all(s01[i][j] + s10[i][j] == 0 for i in range(2) for j in range(2))
    rep.record("sigma-anticommute", exact, residual=0.0 if exact else 1.0)
    return rep
