"""Finite-rank operators with Gaussian legs and the invariant trace functional.

A finite-rank operator is a finite sum of dyads ``amp * (ket x bra)`` acting
as ``v -> amp * <v, bra> * ket``.  Composition with represented algebra
elements keeps the legs Gaussian: left factors push onto the kets, right
factors push their adjoints onto the bras.  The integral is the trace
against the scale density, ``h(F) = c * sum(amp * <ket, density bra>)``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
from dataclasses import dataclass, field

from . import coeff, gauss, uq, weyl
from .coeff import NumericContext
from .errors import ShapeMismatch
from .gauss import (GaussianState, apply_ops, inner, norm, represent,
                    represent_adjoint)
from .report import SuiteReport


class FiniteRankOperator:
    """Finite sum of Gaussian dyads."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        self.terms = tuple(terms)

    @staticmethod
    def zero(n):
        return FiniteRankOperator(n, ())

    def _match(self, other):
        if self.n != other.n:
            raise ShapeMismatch(f"{self.n} legs vs {other.n}")

    def __add__(self, other):
        self._match(other)
        return FiniteRankOperator(self.n, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, c):
        c = complex(c)
        return FiniteRankOperator(
            self.n, tuple((c * amp, ket, bra) for amp, ket, bra in self.terms))

    def star(self):
        """Adjoint: swap kets and bras, conjugate amplitudes."""
        return FiniteRankOperator(
            self.n,
            tuple((amp.conjugate(), bra, ket) for amp, ket, bra in self.terms))

    def apply_to(self, v):
        out = GaussianState.zero(self.n)
        for amp, ket, bra in self.terms:
            out = out + ket.scaled(amp * inner(v, bra))
        return out

    def left_composed(self, ops):
        """Compose with an operator sum on the left (acts on kets)."""
        return FiniteRankOperator(
            self.n,
            tuple((amp, apply_ops(ops, ket), bra)
                  for amp, ket, bra in self.terms))

    def bras_applied(self, ops):
        """Apply an operator sum to every bra, which composes on the right
        with the sum's adjoint."""
        return FiniteRankOperator(
            self.n,
            tuple((amp, ket, apply_ops(ops, bra))
                  for amp, ket, bra in self.terms))


def rank_one(e, f):
    """Dyad ``v -> <v, f> e``."""
    if e.n != f.n:
        raise ShapeMismatch(f"{e.n} legs vs {f.n}")
    return FiniteRankOperator(e.n, ((1.0 + 0j, e, f),))


@dataclass(frozen=True)
class IntegralContext:
    """Normalization, evaluation point, and density convention.

    ``density`` selects the trace weight: ``"gamma"`` uses the scale density
    available at every rank, ``"qinv"`` the signed single-pair variant
    (rank 1 only); the two differ by an overall sign there.
    """

    c: float = 1.0
    ctx: NumericContext = field(default_factory=NumericContext)
    density: str = "gamma"

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"c={self.c!r} is not finite")
        if self.c == 0:
            raise ValueError("c=0 makes every trace vanish")
        if self.density not in ("gamma", "qinv"):
            raise ValueError(f"unknown density {self.density!r}")


@functools.lru_cache(maxsize=None)
def _density_element(n, density):
    return weyl.q_elem_inv(1, 1) if density == "qinv" else weyl.gamma(n)


def density_ops(n, ictx):
    if ictx.density == "qinv" and n != 1:
        raise ValueError("the qinv density convention is rank-1 only")
    return represent(_density_element(n, ictx.density), ictx.ctx)


def plain_trace(F):
    """Trace without density weight: sum of ``amp * <ket, bra>``."""
    return sum((amp * inner(ket, bra) for amp, ket, bra in F.terms), 0j)


def quantum_trace(F, ictx):
    """The invariant integral ``c * tr(F . density)``."""
    dens = density_ops(F.n, ictx)
    total = 0j
    for amp, ket, bra in F.terms:
        total += amp * inner(ket, apply_ops(dens, bra))
    return ictx.c * total


# -- the action on finite-rank operators ---------------------------------------


def act_on_operator(g, F, ctx):
    """Apply a single symmetry generator to a finite-rank operator."""
    out = FiniteRankOperator.zero(F.n)
    for c, left, right in uq.sandwich(F.n, g):
        term = F if left is None else F.left_composed(represent(left, ctx))
        if right is not None:
            term = term.bras_applied(represent_adjoint(right, ctx))
        out = out + term.scaled(c.evaluate(ctx))
    return out


def act_hopf_on_operator(h, F, ctx):
    """Linear word-by-word extension of the operator action."""
    out = FiniteRankOperator.zero(F.n)
    for word, cv in h.terms.items():
        acc = F
        for g in reversed(word):
            acc = act_on_operator(g, acc, ctx)
        out = out + acc.scaled(cv.evaluate(ctx))
    return out


# -- sampling and verification suites -------------------------------------------


def random_finite_rank(n, rng, max_rank=3, gentle=False):
    kwargs = dict(eps_range=(0.6, 1.2), gamma_bound=1.0) if gentle else {}
    terms = []
    for _ in range(rng.randint(1, max_rank)):
        amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ket = gauss.random_state(n, rng, max_terms=2, **kwargs)
        bra = gauss.random_state(n, rng, max_terms=2, **kwargs)
        terms.append((amp, ket, bra))
    return FiniteRankOperator(n, terms)


def check_invariance(n, ictx, count=20, seed=7, max_rank=3):
    """Counit-twisted trace invariance for every generator on random dyads."""
    if count < 1:
        raise ValueError("an invariance check needs at least one sample")
    rng = random.Random(seed)
    rep = SuiteReport("invariance")
    samples = [random_finite_rank(n, rng, max_rank) for _ in range(count)]
    jobs = [(F, quantum_trace(F, ictx)) for F in samples]

    def residual(g, F, base):
        moved = quantum_trace(act_on_operator(g, F, ictx.ctx), ictx)
        eps = 1.0 if g[0] in (uq.K, uq.KINV) else 0.0
        # relative to |c|, so the residual does not scale with c
        err = abs(moved - eps * base) / (abs(ictx.c) + abs(base))
        if not math.isfinite(err):
            raise OverflowError(f"the {uq._gen_str(g)} invariance residual "
                                f"is {err}")
        return err

    # operator terms times state terms, the units of a pointwise sweep; the
    # operators are built here, before any fork
    gens = uq.generators(n)
    dens = len(density_ops(n, ictx))
    ops = sum(dens + (len(represent(left, ictx.ctx)) if left else 0)
              + (len(represent_adjoint(right, ictx.ctx)) if right else 0)
              for g in gens for _, left, right in uq.sandwich(n, g))
    work = ops * sum(len(ket.terms) + len(bra.terms)
                     for F in samples for _, ket, bra in F.terms)
    cases = [(uq._gen_str(g), g) for g in gens]
    with contextlib.closing(gauss._sweep(cases, jobs, residual, work)) as sweep:
        for gname, residuals in sweep:
            worst = max(0.0, *residuals)
            rep.record(gname, worst <= ictx.ctx.tolerance, residual=worst)
    return rep


def check_cyclicity(n, ictx, count=20, seed=7):
    """tr(a g b) == tr(g b a) == tr(b a g) for represented factor pairs."""
    if count < 1:
        raise ValueError("a cyclicity check needs at least one sample")
    rng = random.Random(seed)
    rep = SuiteReport("cyclicity")
    pool = []
    for k in range(1, n + 1):
        pool.append((f"y{k}", weyl.gen_y(n, k)))
        pool.append((f"x{k}", weyl.gen_x(n, k)))
        pool.append((f"R{k}", weyl.gen_r(n, k)))
        pool.append((f"R{k}^-1", weyl.gen_r(n, k, -1)))
    if n == 1:
        pool.append(("Q1^-1", weyl.q_elem_inv(1, 1)))
    tol = ictx.ctx.tolerance
    for idx in range(count):
        aname, a_el = pool[rng.randrange(len(pool))]
        bname, b_el = pool[rng.randrange(len(pool))]
        G = random_finite_rank(n, rng, max_rank=2)
        a_ops = represent(a_el, ictx.ctx)
        b_ops = represent(b_el, ictx.ctx)
        a_adj = represent_adjoint(a_el, ictx.ctx)
        b_adj = represent_adjoint(b_el, ictx.ctx)
        t1 = plain_trace(G.left_composed(a_ops).bras_applied(b_adj))
        t2 = plain_trace(G.bras_applied(b_adj).bras_applied(a_adj))
        t3 = plain_trace(G.left_composed(a_ops).left_composed(b_ops))
        scale = 1.0 + max(abs(t1), abs(t2), abs(t3))
        worst = max(abs(t1 - t2), abs(t2 - t3), abs(t1 - t3)) / scale
        rep.record(f"triple[{idx:02d}:{aname},{bname}]", worst <= tol,
                   residual=worst)
    return rep


def check_obstruction():
    """No normalized invariant integral exists on the coordinate algebra.

    Derivation: the lowering generator sends the first coordinate to the
    unit (times i), yet has vanishing counit, so ``h(1) = 1`` would force
    ``1 = -1j * eps(F) * h(y) = 0``.
    """
    rep = SuiteReport("obstruction")
    f_gen = (uq.F, 1)
    got = uq.act(f_gen, weyl.gen_y(1, 1))
    expected = weyl.AlgebraElement.unit(1).scaled(coeff.I)
    rep.record("F>y=i", got == expected,
               detail="" if got == expected else str(got))
    eps = uq.counit(uq.HopfElement.generator(1, uq.F, 1))
    rep.record("eps(F)=0", eps.is_zero, detail="" if eps.is_zero else str(eps))
    confirmed = got == expected and eps.is_zero
    rep.record("obstruction-confirmed", confirmed)
    return rep


def check_operator_star_compat(n, ctx, count=8, seed=13):
    """(g > F)* == S(g)* > F* on random low-rank operators."""
    if count < 1:
        raise ValueError("a star-compatibility check needs at least one sample")
    rng = random.Random(seed)
    rep = SuiteReport("op-star")
    samples = [random_finite_rank(n, rng, max_rank=2, gentle=True)
               for _ in range(count)]
    probes = [gauss.random_state(n, rng, eps_range=(0.6, 1.2), gamma_bound=1.0)
              for _ in range(3)]
    tol = ctx.tolerance
    for g in uq.generators(n):
        gname = uq._gen_str(g)
        sstar = uq.antipode(n, g).star()
        worst = 0.0
        for F in samples:
            lhs = act_on_operator(g, F, ctx).star()
            rhs = act_hopf_on_operator(sstar, F.star(), ctx)
            # matrix-element comparison: a norm of the difference would take
            # a square root through a cancelling Gram sum and halve the
            # available precision
            for i, u in enumerate(probes):
                v = probes[(i + 1) % len(probes)]
                scale = norm(u) * norm(v)
                total = 0j
                for sgn, op in ((1.0, lhs), (-1.0, rhs)):
                    for amp, ket, bra in op.terms:
                        contrib = amp * inner(u, bra) * inner(ket, v)
                        scale = max(scale, abs(contrib))
                        total += sgn * contrib
                worst = max(worst, abs(total) / scale)
        rep.record(gname, worst <= tol, residual=worst)
    return rep
