"""Finite-rank operators with Gaussian legs and the invariant trace functional.

A finite-rank operator is a finite sum of dyads ``amp * (ket x bra)`` acting
as ``v -> amp * <v, bra> * ket``.  Composition with represented algebra
elements keeps the legs Gaussian: left factors push onto the kets, right
factors push their adjoints onto the bras.  The integral is the trace
against the scale density, ``h(F) = c * sum(amp * <ket, density bra>)``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

from . import coeff, gauss, uq, weyl
from .coeff import NumericContext
from .errors import ShapeMismatch
from .gauss import apply_ops, inner, represent, represent_adjoint
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
    return ictx.c * plain_trace(F.bras_applied(density_ops(F.n, ictx)))


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


# -- sampling and verification suites -------------------------------------------


def random_finite_rank(n, rng, max_rank=3):
    terms = []
    for _ in range(rng.randint(1, max_rank)):
        amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ket = gauss.random_state(n, rng, max_terms=2)
        bra = gauss.random_state(n, rng, max_terms=2)
        terms.append((amp, ket, bra))
    return FiniteRankOperator(n, terms)


def _moved_trace(g, parts, F, held, ictx):
    """``quantum_trace(act_on_operator(g, F, ictx.ctx), ictx)`` in its float
    operations, from ``g``'s sandwich parts ``(c, left, ket ops, right, bra
    ops)``, whose ``left`` and ``right`` number a dyad's shifted ket and bra
    among ``g``'s index.  ``held`` keeps the sample's shifted states while
    the sweep stays on that index, which four generators share."""
    if held[0] != g[1]:
        held[:] = g[1], {}
    images = held[1]

    def image(side, d, state, ops):
        if (side, d) not in images:
            for o in ops:
                state = apply_ops(o, state)
            images[side, d] = state
        return images[side, d]

    return ictx.c * sum(
        ((c * amp) * inner(image(left, d, ket, kops),
                           image(right, d, bra, bops))
         for c, left, kops, right, bops in parts
         for d, (amp, ket, bra) in enumerate(F.terms)), 0j)


def check_invariance(n, ictx, count=20, seed=7, max_rank=3):
    """Counit-twisted trace invariance for every generator on random dyads."""
    if count < 1:
        raise ValueError("an invariance check needs at least one sample")
    rng = random.Random(seed)
    rep = SuiteReport("invariance")
    samples = [random_finite_rank(n, rng, max_rank) for _ in range(count)]
    jobs = [(F, quantum_trace(F, ictx), [None, {}]) for F in samples]

    def residual(case, F, base, held):
        g, eps, parts = case
        moved = _moved_trace(g, parts, F, held, ictx)
        # relative to |c|, so the residual does not scale with c
        err = abs(moved - eps * base) / (abs(ictx.c) + abs(base))
        if not math.isfinite(err):
            raise OverflowError(f"the {uq._gen_str(g)} invariance residual "
                                f"is {err}")
        return err

    # the sandwiches resolved before any fork, sides numbered per index
    ctx, dens, sides, cases = ictx.ctx, density_ops(n, ictx), {}, []
    for g in uq.generators(n):
        number = sides.setdefault(g[1], {})
        parts = [(complex(c.evaluate(ctx)),
                  number.setdefault((0, left), len(number)),
                  [represent(left, ctx)] if left else [],
                  number.setdefault((1, right), len(number)),
                  ([represent_adjoint(right, ctx)] if right else []) + [dens])
                 for c, left, right in uq.sandwich(n, g)]
        eps = uq.counit(uq.HopfElement.generator(n, *g)).evaluate(ctx)
        cases.append((uq._gen_str(g), (g, eps, parts)))
    # operator terms times state terms, the units of a pointwise sweep
    ops = sum(len(o) for _, (*_, parts) in cases
              for _, _, kops, _, bops in parts for o in kops + bops)
    work = ops * sum(len(ket.terms) + len(bra.terms)
                     for F in samples for _, ket, bra in F.terms)
    gauss._sweep(rep, ctx.tolerance, cases, jobs, residual, work)
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
        # a on the kets and b's adjoint on the bras, each applied once
        A, B = G.left_composed(a_ops), G.bras_applied(b_adj)
        t1 = plain_trace(FiniteRankOperator(n, (
            a[:2] + b[2:] for a, b in zip(A.terms, B.terms))))
        t2 = plain_trace(B.bras_applied(a_adj))
        t3 = plain_trace(A.left_composed(b_ops))
        scale = 1.0 + max(abs(t1), abs(t2), abs(t3))
        worst = max(abs(t1 - t2), abs(t2 - t3), abs(t1 - t3)) / scale
        rep.record(f"triple[{idx:02d}:{aname},{bname}]", worst <= tol,
                   residual=worst)
    return rep


def check_obstruction(n=1):
    """No normalized invariant integral exists on the coordinate algebra.

    Derivation: the lowering generator ``F_n`` sends the coordinate ``y_n``
    to the unit (times i), yet has vanishing counit, so ``h(1) = 1`` would
    force ``1 = -1j * eps(F_n) * h(y_n) = 0``.
    """
    rep = SuiteReport("obstruction")
    got = uq.act((uq.F, n), weyl.gen_y(n, n))
    expected = weyl.AlgebraElement.unit(n).scaled(coeff.I)
    rep.record("F>y=i", got == expected,
               detail="" if got == expected else str(got))
    eps = uq.counit(uq.HopfElement.generator(n, uq.F, n))
    rep.record("eps(F)=0", eps.is_zero, detail="" if eps.is_zero else str(eps))
    confirmed = got == expected and eps.is_zero
    rep.record("obstruction-confirmed", confirmed)
    return rep

