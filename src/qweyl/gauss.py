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
stays one integer pair and operators with equal legs merge exactly.
Applying any represented element to a state stays inside the family, and
all inner products, linear in the first argument, reduce to the closed-form
Gaussian integral ``sqrt(pi/a) * exp(b**2/(4a))``.  A pointwise relation
residual is a quadratic form in one Gram table per state, ``G[p] =
inner(U_a psi, U_b psi)`` over unit operators, so a relation's coefficients
cancel before any Gaussian prefactor; per-position tables of shifted
packets and leg overlaps fill each table in ``inner``'s float order.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import os
import struct
from dataclasses import dataclass

from .errors import ShapeMismatch
from .report import SuiteReport
from .sparse import Combination, accumulate
from .weyl import hermitian_generators


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
    """``sqrt(inner(u, u))`` over unordered term pairs: as ``(j, i)`` is the
    conjugate of ``(i, j)``, an off-diagonal pair adds twice its real part."""
    items = tuple(u.terms.items())
    total = 0.0
    for i, (ku, au) in enumerate(items):
        for j, (kv, av) in enumerate(items[i:]):
            prod = au * av.conjugate()
            for (e1, g1), (e2, g2) in zip(ku, kv):
                prod *= _leg_overlap(e1, g1, e2, g2)
            total += 2.0 * prod.real if j else prod.real
    return math.sqrt(abs(total))


# -- elementary operators ------------------------------------------------------


def _compose_legs(first, then, phi):
    """The leg ``first`` followed by ``then``, as ``(phase, leg)``.

    Moving the ``T`` shift of ``then`` past the ``P`` shift of ``first``
    picks up ``exp(-1j*phi*k)`` with the integer exponent ``k = m0*t1``.
    Keeping legs composed avoids the huge intermediate prefactors that
    uncomposed conjugation words would produce on sharply peaked packets.
    """
    t0, m0 = first
    t1, m1 = then
    k = m0 * t1
    phase = cmath.exp(1j * (-k * phi)) if k else 1.0 + 0j
    return phase, (t0 + t1, m0 + m1)


@dataclass(frozen=True)
class ElementaryOperator:
    """Complex scalar times one integer shift leg ``(t, m)`` per tensor leg."""

    scalar: complex
    legs: tuple  # per tensor leg: e^{t T}, then e^{m phi P}
    phi: float  # the P-shift unit

    def applied_after(self, other):
        """Composite acting as ``other`` first, then ``self``."""
        return _composed(self.scalar * other.scalar, zip(other.legs, self.legs),
                         self.phi)


def _composed(scalar, leg_pairs, phi):
    """``scalar`` times the composite of each ``(first, then)`` leg pair."""
    legs = []
    for first, then in leg_pairs:
        phase, leg = _compose_legs(first, then, phi)
        scalar *= phase
        legs.append(leg)
    return ElementaryOperator(scalar, tuple(legs), phi)


def adjoint_ops(ops):
    """Adjoint of a sum of elementary operators.

    Each shift is its own adjoint, so a leg's shifts act in reverse order
    (``e^{m phi P}`` first, then ``e^{t T}``); scalars are conjugated.
    """
    return [_composed(op.scalar.conjugate(),
                      (((0, m), (t, 0)) for t, m in op.legs), op.phi)
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
                phi = op.phi
                newkey = []
                for (eps, gam), leg in zip(key, op.legs):
                    gam, pre = _apply_leg(eps, gam, leg, phi)
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
    before = ((0, 1),) * main
    after = ((0, 0),) * (k - 1)
    if kind == "R":
        return [ElementaryOperator(
            1.0 + 0j, ((0, atom[2]),) * (main + 1) + after, phi)]
    if kind == "y":
        return [ElementaryOperator(1.0 + 0j, before + ((1, 0),) + after, phi)]
    if kind == "x":
        sign = -1.0 if main % 2 else 1.0
        return [ElementaryOperator(sign * ctx.q_value,
                                   before + ((-1, 2),) + after, phi),
                ElementaryOperator(sign + 0j, before + ((-1, 0),) + after, phi)]
    raise ValueError(f"unknown atom kind {kind!r}")


def represent_word(n, atoms, ctx, scalar=1.0 + 0j):
    """Represent a free product of generator atoms as elementary operators."""
    ops = [ElementaryOperator(complex(scalar), ((0, 0),) * n, ctx.phi)]
    for atom in reversed(tuple(atoms)):
        variants = _atom_variants(atom, n, ctx)
        ops = [v.applied_after(op) for op in ops for v in variants]
    return ops


def represent_terms(n, terms, ctx):
    """Represent a weighted word list ``((scalar, atoms), ...)``; operators
    with equal legs merge into one, in the order they first appear."""
    merged = accumulate({}, ((op.legs, op.scalar) for cv, atoms in terms
                             for op in represent_word(n, atoms, ctx,
                                                      scalar=cv.evaluate(ctx))))
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


def _gram_cases(cases):
    """``(name, pieces)`` cases as quadratic forms over one Gram table.

    Each distinct unit operator ``U_a`` of the pieces is numbered, and so is
    each pair ``a <= b`` that a piece or a relation's merged sum needs, so
    that ``|| sum c_a U_a psi ||**2 = Re sum w_p G[p]``.  A case's forms are
    its pieces', then its sum's.  Returns ``(legs, units, pairs)`` and cases.
    """
    keys = {(o.legs, o.phi) for _, pieces in cases for ops in pieces for o in ops}
    # numbered in sorted order, a relation's forms do not depend on the others
    ids = {key: a for a, key in enumerate(sorted(keys))}
    pairs = {}

    def form(coeffs):
        # off the diagonal, the pair (b, a) adds the conjugate of (a, b)
        return [(pairs.setdefault((a, b), len(pairs)),
                 ca * cb.conjugate() * (1.0 if a == b else 2.0))
                for i, (a, ca) in enumerate(coeffs) for b, cb in coeffs[i:]]

    out = []
    for name, pieces in cases:
        coeffs = [sorted((ids[o.legs, o.phi], o.scalar) for o in ops)
                  for ops in pieces]
        merged = accumulate({}, (c for piece in coeffs for c in piece))
        coeffs.append(sorted(merged.items()))
        out.append((name, [form(c) for c in coeffs]))
    legs = {}  # each (position, leg, phi); a unit is a tuple of their numbers
    units = [tuple(legs.setdefault((i, leg, phi), len(legs))
                   for i, leg in enumerate(key)) for key, phi in ids]
    return (list(legs), units, list(pairs)), out


def _gram_table(legs, units, pairs, state):
    """Yield ``inner(apply_ops((U_a,), state), apply_ops((U_b,), state))`` per
    pair in the same float operations, each leg shift and overlap evaluated
    once; images merge on per-position numbers of equal shifted packets."""
    seen = [{} for _ in range(state.n)]  # per position: (eps, gamma) -> number
    shifted = []  # per term: the amplitude, and per leg (number, prefactor)
    for key, amp in state.terms.items():
        shifted.append((amp, row := []))
        for i, leg, phi in legs:
            gam, pre = _apply_leg(*key[i], leg, phi)
            row.append((seen[i].setdefault((key[i][0], gam), len(seen[i])), pre))

    def image(unit):
        for amp, row in shifted:
            val = amp * (1.0 + 0j)  # a unit's scalar, as in apply_ops
            for k in unit:
                val *= row[k][1]
            yield tuple(row[k][0] for k in unit), val

    images = [list(accumulate({}, image(unit)).items()) for unit in units]
    tables = [(list(at), [[None] * len(at) for _ in at]) for at in seen]
    for a, b in pairs:
        total = 0j
        for ku, au in images[a]:
            for kv, av in images[b]:
                prod = au * av.conjugate()
                for i, j, (at, table) in zip(ku, kv, tables):
                    if table[i][j] is None:
                        table[i][j] = _leg_overlap(*at[i], *at[j])
                    prod *= table[i][j]
                total += prod
        yield total


def _gram_residual(table, forms, state, scale, gram):
    """The merged sum's norm over the largest of the state's and the pieces'
    norms, since a piece of an unbounded generator can dwarf the state;
    ``gram`` is the state's table, filled at its first case."""
    if not gram:
        gram.extend(_gram_table(*table, state))
    norms = [math.sqrt(abs(sum(w * gram[p] for p, w in form).real))
             for form in forms]
    return norms[-1] / max([scale] + norms[:-1])


# Work, in operator terms times state terms, that pays for one more process
# in a sweep: a fork costs about 8 ms of copy-on-write page faults, which the
# rank-1 and rank-2 sweeps of ``verify`` (work below 2,500) do not win back
# and the rank-3 sweeps at 60 samples (work above 18,000) do.
WORK_PER_PROCESS = 5000


def _process_count(work, jobs):
    """How many processes share a sweep of ``work``: one unless it is large."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, work // WORK_PER_PROCESS, len(jobs)))


def _sweep(cases, jobs, residual, work):
    """Yield each ``(name, case)`` case's name and ``residual(case, *job)``
    for every job, in order; ``work`` sizes the sweep for ``_process_count``.

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
            yield name, residuals
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
    for what, given in (("state", states), ("relation", relations)):
        if not given:
            raise ValueError(f"a pointwise check needs at least one {what}")
    for state in states:
        if state.n != n:
            raise ShapeMismatch(f"operator has {n} legs, state has {state.n}")
    rep = SuiteReport(suite)
    cases = [(rel.name, [represent_terms(n, (term,), ctx) for term in rel.terms])
             for rel in relations]
    work = sum(len(ops) for _, pieces in cases for ops in pieces) \
        * sum(len(state.terms) for state in states)
    table, cases = _gram_cases(cases)
    # each job keeps its state's Gram table, which goes with the sweep
    jobs = [(state, norm(state), []) for state in states]
    sweep = _sweep(cases, jobs, functools.partial(_gram_residual, table), work)
    with contextlib.closing(sweep):
        for name, residuals in sweep:
            worst = max(0.0, *residuals)
            rep.record(name, worst <= ctx.tolerance, residual=worst)
    return rep


def _hermitian_residual(states, images, inner_product):
    """Worst ``|<Op u, v> - <u, Op v>| / (1 + |<Op u, v>|)`` over each state
    ``u`` and the next ``v`` (cyclically); ``images[i]`` is ``Op states[i]``."""
    worst = 0.0
    for i, u in enumerate(states):
        j = (i + 1) % len(states)
        lhs = inner_product(images[i], states[j])
        rhs = inner_product(u, images[j])
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def check_hermiticity_pointwise(n, states, ctx):
    """Symmetry ``<Op u, v> == <u, Op v>`` for the hermitian element list."""
    if not states:
        raise ValueError("a pointwise check needs at least one state")
    rep = SuiteReport("pointwise")
    for name, element in hermitian_generators(n):
        ops = represent(element, ctx)
        worst = _hermitian_residual(
            states, [apply_ops(ops, u) for u in states], inner)
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
# (one-leg ElementaryOperator, 2x2 matrix) pairs.

SIGMA0 = ((1.0 + 0j, 0j), (0j, -1.0 + 0j))
SIGMA1 = ((0j, 1.0 + 0j), (1.0 + 0j, 0j))
ID2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def model2_operators(ctx):
    """Two-component realization of the single-pair coordinate algebra;
    its one-leg operators shift P in units of ``beta = 2*phi -+ pi``."""
    phi = ctx.phi
    s = 1.0 if phi > 0 else -1.0
    beta = 2.0 * phi - s * math.pi
    qv = ctx.q_value
    s01 = mat_mul(SIGMA0, SIGMA1)

    def op(scalar, leg, mat):
        return ElementaryOperator(scalar, (leg,), beta), mat

    return {
        "y": [op(1.0 + 0j, (1, 0), SIGMA1)],
        "x": [op(qv, (-1, 1), s01), op(1.0 + 0j, (-1, 0), SIGMA1)],
        "Q": [op(-1.0 + 0j, (0, 1), SIGMA0)],
        "Qinv": [op(-1.0 + 0j, (0, -1), SIGMA0)],
        "one": [op(1.0 + 0j, (0, 0), ID2)],
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
    return [(a.applied_after(b), mat_mul(ma, mb))
            for a, ma in after for b, mb in before]


def m2_scaled(c, ops):
    return [(ElementaryOperator(c * op.scalar, op.legs, op.phi), m)
            for op, m in ops]


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


def _m2_relation_residual(op_terms, states):
    """Largest relative residual of a vanishing sum of composite operators."""
    worst = 0.0
    for u in states:
        scale = model2_norm(u)
        total = {}
        for ops in op_terms:
            piece = model2_apply(ops, u)
            scale = max(scale, model2_norm(piece))
            accumulate(total, piece.items())
        worst = max(worst, model2_norm(total) / scale)
    return worst


def check_model2(states, ctx):
    """Pointwise defining relations and hermiticity in the two-component model."""
    if not states:
        raise ValueError("a pointwise check needs at least one state")
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
        worst = _hermitian_residual(
            states, [model2_apply(ops[name], u) for u in states], model2_inner)
        rep.record(f"hermitian[{name}]", worst <= ctx.tolerance, residual=worst)

    anti = mat_add(mat_mul(SIGMA0, SIGMA1), mat_mul(SIGMA1, SIGMA0))
    exact = all(anti[i][j] == 0 for i in range(2) for j in range(2))
    rep.record("sigma-anticommute", exact, residual=0.0 if exact else 1.0)
    return rep
