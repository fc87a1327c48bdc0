import cmath
import itertools
import math
import random

import pytest
from scipy.integrate import quad

from qweyl import coeff, gauss, haar, uq, weyl
from qweyl.coeff import NumericContext
from qweyl.errors import ShapeMismatch
from qweyl.gauss import GaussianState, apply_ops, inner, norm, represent
from qweyl.haar import (FiniteRankOperator, IntegralContext,
                        act_on_operator, density_ops, plain_trace,
                        quantum_trace, rank_one)
from qweyl.report import SuiteReport

CTX = NumericContext()
NEG = NumericContext(phi=-math.pi / 5)
# better conditioned legs than ``gauss.random_state``'s defaults
GENTLE = dict(eps_range=(0.6, 1.2), gamma_bound=1.0)


def g_state(eps=1.0, gamma=0j, n=1):
    return GaussianState.from_legs(1.0, [(eps, gamma)] * n)


def apply_to(op, v):
    """A finite-rank operator applied to a state: each dyad sends ``v`` to
    ``amp * <v, bra> * ket``."""
    out = GaussianState.zero(op.n)
    for amp, ket, bra in op.terms:
        out = out + ket.scaled(amp * inner(v, bra))
    return out


def test_rank_one_applies_as_dyad():
    g = g_state()
    op = rank_one(g, g)
    out = apply_to(op, g)
    want = g.scaled(inner(g, g))
    assert norm(out - want) <= 1e-12 * norm(want)


def test_rank_one_plain_trace_is_overlap():
    rng = random.Random(5)
    e = gauss.random_state(1, rng)
    f = gauss.random_state(1, rng)
    assert plain_trace(rank_one(e, f)) == pytest.approx(inner(e, f), rel=1e-12)


def test_rank_one_star_swaps_legs():
    rng = random.Random(6)
    e = gauss.random_state(1, rng)
    f = gauss.random_state(1, rng)
    u = gauss.random_state(1, rng)
    lhs = apply_to(rank_one(e, f).star(), u)
    rhs = apply_to(rank_one(f, e), u)
    assert norm(lhs - rhs) <= 1e-12 * max(norm(lhs), 1.0)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        rank_one(g_state(n=1), g_state(n=2))


def test_quantum_trace_closed_form_and_quadrature():
    # single-pair dyad of the centered unit-width packet, scale density
    ictx = IntegralContext(c=1.0, ctx=CTX)
    g = g_state()
    value = quantum_trace(rank_one(g, g), ictx)
    phi = CTX.phi
    closed = math.sqrt(math.pi / 2.0) * math.exp(2.0 * phi * phi)
    assert value == pytest.approx(closed, rel=1e-12)

    # quadrature: integral of g(t) * conj((weighted g)(t))
    def weighted(t):
        # e^{-2 phi P} shifts the argument by -2i phi
        return cmath.exp(-((t - 2j * phi) ** 2))

    byquad = quad(lambda t: (cmath.exp(-t * t)
                             * weighted(t).conjugate()).real, -20, 20,
                  limit=200)[0]
    assert value == pytest.approx(byquad, rel=1e-9)


def test_trace_linearity():
    ictx = IntegralContext(c=1.0, ctx=CTX)
    rng = random.Random(7)
    F = haar.random_finite_rank(1, rng, 2)
    assert quantum_trace(F.scaled(2.5j), ictx) == pytest.approx(
        2.5j * quantum_trace(F, ictx), rel=1e-12)
    assert IntegralContext(c=-2.0, ctx=CTX).c == -2.0
    assert quantum_trace(F, IntegralContext(c=-2.0, ctx=CTX)) == pytest.approx(
        -2.0 * quantum_trace(F, ictx), rel=1e-12)


def test_single_pair_density_conventions_differ_by_sign():
    rng = random.Random(8)
    gam = IntegralContext(c=1.0, ctx=CTX)
    qin = IntegralContext(c=1.0, ctx=CTX, density="qinv")
    for _ in range(5):
        F = haar.random_finite_rank(1, rng, 3)
        a = quantum_trace(F, gam)
        b = quantum_trace(F, qin)
        assert b == pytest.approx(-a, rel=1e-12)
    with pytest.raises(ValueError):
        IntegralContext(ctx=CTX, density="bogus")
    with pytest.raises(ValueError):
        haar.density_ops(2, qin)


@pytest.mark.parametrize("n, density, builder", [
    (1, "gamma", "gamma"), (3, "gamma", "gamma"), (1, "qinv", "q_elem_inv"),
])
def test_density_element_built_at_most_once(monkeypatch, n, density, builder):
    real = getattr(weyl, builder)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weyl, builder, counted)
    ictx = IntegralContext(c=1.0, ctx=NEG, density=density)
    first = density_ops(n, ictx)
    second = density_ops(n, ictx)
    assert len(calls) <= 1
    want = real(*((1, 1) if density == "qinv" else (n,)))
    assert first == second == gauss.represent_terms(n, want.as_terms(), NEG)


def gentle_finite_rank(n, rng, max_rank):
    """``haar.random_finite_rank`` with ``GENTLE`` legs."""
    terms = []
    for _ in range(rng.randint(1, max_rank)):
        amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ket = gauss.random_state(n, rng, max_terms=2, **GENTLE)
        bra = gauss.random_state(n, rng, max_terms=2, **GENTLE)
        terms.append((amp, ket, bra))
    return FiniteRankOperator(n, terms)


def trace_gram_route(F, ictx):
    """Independent evaluation: materialize ``F . density`` on the span of its
    legs, orthonormalize the span through the Gram matrix, sum the diagonal."""
    import numpy as np

    dens = density_ops(F.n, ictx)
    kets = [ket for _, ket, _ in F.terms]
    wbras = [apply_ops(dens, bra) for _, _, bra in F.terms]
    amps = [amp for amp, _, _ in F.terms]
    basis = kets + wbras
    m = len(basis)
    gram = np.empty((m, m), dtype=complex)
    for p in range(m):
        for q in range(m):
            gram[p, q] = inner(basis[p], basis[q])
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    cutoff = max(vals.max(), 0.0) * 1e-12
    coords = []
    for idx in range(m):
        if vals[idx] > cutoff:
            coords.append(vecs[:, idx].conjugate() / math.sqrt(vals[idx]))
    total = 0j
    for ck in coords:
        # <w, wbra_i> and <ket_i, w> for w = sum_p ck[p] basis_p
        for i in range(len(F.terms)):
            w_dot_g = sum(ck[p] * gram[p, len(kets) + i] for p in range(m))
            e_dot_w = sum(ck[q].conjugate() * gram[i, q] for q in range(m))
            total += amps[i] * w_dot_g * e_dot_w
    return ictx.c * total


def test_trace_gram_route_agrees():
    rng = random.Random(9)
    for n in (1, 2):
        ictx = IntegralContext(c=1.0, ctx=CTX)
        for _ in range(4):
            F = gentle_finite_rank(n, rng, 3)
            direct = quantum_trace(F, ictx)
            indirect = trace_gram_route(F, ictx)
            assert direct == pytest.approx(indirect, rel=1e-8, abs=1e-8)


def test_act_on_operator_matches_dyad_expansion():
    # E on a dyad: ladder on the ket minus conjugated ladder on the bra
    rng = random.Random(10)
    n = 1
    e = gauss.random_state(n, rng)
    f = gauss.random_state(n, rng)
    F = rank_one(e, f)
    got = haar.act_on_operator((uq.E, 1), F, CTX)
    a_ops = represent(weyl.a_op(1, 1), CTX)
    rho_ops = represent(weyl.rho(1, 1), CTX)
    mixed = represent(weyl.rho_inv(1, 1) * weyl.a_op(1, 1), CTX)
    want = (rank_one(apply_ops(a_ops, e), f)
            - rank_one(apply_ops(rho_ops, e),
                       apply_ops(gauss.adjoint_ops(mixed), f)))
    for _ in range(5):
        u = gauss.random_state(n, rng)
        lhs = apply_to(got, u)
        rhs = apply_to(want, u)
        assert norm(lhs - rhs) <= 1e-9 * max(norm(lhs), norm(u))


def test_act_on_operator_f_generator_single_pair():
    # lowering on a dyad: B on the ket with the scale on the bra, minus the
    # q^2-twisted right factor
    rng = random.Random(11)
    e = gauss.random_state(1, rng)
    f = gauss.random_state(1, rng)
    F = rank_one(e, f)
    got = haar.act_on_operator((uq.F, 1), F, CTX)
    b_ops = represent(weyl.b_op(1, 1), CTX)
    rho_ops = represent(weyl.rho(1, 1), CTX)
    mixed = represent(weyl.rho(1, 1) * weyl.b_op(1, 1), CTX)
    q2 = (CTX.q_value) ** 2
    want = (rank_one(apply_ops(b_ops, e), apply_ops(rho_ops, f))
            - rank_one(e, apply_ops(gauss.adjoint_ops(mixed), f)).scaled(q2))
    for _ in range(5):
        u = gauss.random_state(1, rng)
        lhs = apply_to(got, u)
        rhs = apply_to(want, u)
        assert norm(lhs - rhs) <= 1e-9 * max(norm(lhs), norm(u))


def test_conjugation_preserves_rank():
    rng = random.Random(12)
    F = haar.random_finite_rank(2, rng, 3)
    out = haar.act_on_operator((uq.K, 1), F, CTX)
    assert isinstance(out, FiniteRankOperator)
    assert len(out.terms) == len(F.terms)


def test_invariance_all_generators():
    for ctx in (CTX, NEG):
        for n in (1, 2):
            ictx = IntegralContext(c=1.0, ctx=ctx)
            rep = haar.check_invariance(n, ictx, count=20, seed=7)
            assert rep.ok, [(c.case, c.residual) for c in rep.failures()]


def test_invariance_traces_each_unmoved_sample_once(monkeypatch):
    calls = []
    trace, moved = haar.quantum_trace, haar._moved_trace

    def counted(F, ictx):
        calls.append(F)
        return trace(F, ictx)

    def counted_moved(g, parts, F, held, ictx):
        calls.append(F)
        return moved(g, parts, F, held, ictx)

    monkeypatch.setattr(haar, "quantum_trace", counted)
    monkeypatch.setattr(haar, "_moved_trace", counted_moved)
    rep = haar.check_invariance(1, IntegralContext(ctx=CTX), count=3, seed=5)
    assert rep.ok
    assert len(calls) == 3 + 3 * len(uq.generators(1))


def test_invariance_qinv_convention():
    for ctx in (CTX, NEG):
        ictx = IntegralContext(c=1.0, ctx=ctx, density="qinv")
        rep = haar.check_invariance(1, ictx, count=20, seed=7)
        assert rep.ok


def test_trace_cyclicity():
    for n in (1, 2):
        ictx = IntegralContext(c=1.0, ctx=CTX)
        rep = haar.check_cyclicity(n, ictx, count=20, seed=7)
        assert rep.ok, [(c.case, c.residual) for c in rep.failures()]


def _drawn(monkeypatch):
    """Record each operator that ``haar.random_finite_rank`` draws."""
    drawn, draw = [], haar.random_finite_rank

    def recorded(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(haar, "random_finite_rank", recorded)
    return drawn


def _hex(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("n, density", [(1, "gamma"), (1, "qinv"),
                                        (2, "gamma"), (3, "gamma")])
def test_invariance_residuals_match_the_operator_route_bit_for_bit(
        n, density, monkeypatch):
    # the suite's shared images against quantum_trace(act_on_operator(g, F))
    monkeypatch.setattr(gauss, "WORK_PER_PROCESS", 10 ** 12)  # one process
    drawn, moved, calls = _drawn(monkeypatch), haar._moved_trace, []

    def recorded(g, parts, F, held, ictx):
        calls.append((g, F, moved(g, parts, F, held, ictx)))
        return calls[-1][2]

    monkeypatch.setattr(haar, "_moved_trace", recorded)
    gens = uq.generators(n)
    for phi, c, seed in itertools.product((math.pi / 3, -0.9), (1.0, -2.5),
                                          (1, 7, 26)):
        ictx = IntegralContext(c=c, ctx=NumericContext(phi=phi),
                               density=density)
        drawn.clear()
        calls.clear()
        rep = haar.check_invariance(n, ictx, count=6, seed=seed)
        assert [(g, F) for g, F, _ in calls] == \
            [(g, F) for g in gens for F in drawn]
        worst = {}
        for g, F, got in calls:
            want = quantum_trace(act_on_operator(g, F, ictx.ctx), ictx)
            assert _hex(got) == _hex(want)
            eps = uq.counit(uq.HopfElement.generator(n, *g)).evaluate(ictx.ctx)
            base = quantum_trace(F, ictx)
            err = abs(want - eps * base) / (abs(c) + abs(base))
            worst[g] = max(worst.get(g, 0.0), err)
        assert [case.residual.hex() for case in rep.cases] == \
            [worst[g].hex() for g in gens]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyclicity_traces_match_the_recomposed_route_bit_for_bit(
        n, monkeypatch):
    # each sample's three traces against composing the operator sums anew
    drawn, factors, traces = _drawn(monkeypatch), [], []
    build, trace = haar.represent, haar.plain_trace

    def represented(element, ctx):
        factors.append(element)
        return build(element, ctx)

    def traced(F):
        traces.append(trace(F))
        return traces[-1]

    monkeypatch.setattr(haar, "represent", represented)
    monkeypatch.setattr(haar, "plain_trace", traced)
    for phi, seed in itertools.product((math.pi / 3, -0.9), (1, 7, 26)):
        ctx = NumericContext(phi=phi)
        for got in (drawn, factors, traces):
            got.clear()
        rep = haar.check_cyclicity(n, IntegralContext(ctx=ctx), count=8,
                                   seed=seed)
        want = []
        for idx, (G, a, b) in enumerate(zip(drawn, factors[::2],
                                            factors[1::2])):
            a_ops, b_ops = represent(a, ctx), represent(b, ctx)
            a_adj = gauss.represent_adjoint(a, ctx)
            b_adj = gauss.represent_adjoint(b, ctx)
            t = (trace(G.left_composed(a_ops).bras_applied(b_adj)),
                 trace(G.bras_applied(b_adj).bras_applied(a_adj)),
                 trace(G.left_composed(a_ops).left_composed(b_ops)))
            want.extend(t)
            scale = 1.0 + max(map(abs, t))
            err = max(abs(t[0] - t[1]), abs(t[1] - t[2]),
                      abs(t[0] - t[2])) / scale
            assert rep.cases[idx].residual.hex() == err.hex()
        assert len(want) == 3 * 8
        assert [_hex(t) for t in traces] == [_hex(t) for t in want]


def test_invariance_refuses_zero_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        haar.check_invariance(1, IntegralContext(ctx=CTX), count=0)


def test_cyclicity_refuses_zero_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        haar.check_cyclicity(1, IntegralContext(ctx=CTX), count=0)


def test_cyclicity_identity_factors_exact():
    rng = random.Random(13)
    G = haar.random_finite_rank(1, rng, 2)
    ident = [gauss.ElementaryOperator(1.0 + 0j, ((0, 0),), CTX.phi)]
    adj = gauss.adjoint_ops(ident)
    t1 = plain_trace(G.left_composed(ident).bras_applied(adj))
    t2 = plain_trace(G)
    assert t1 == t2


def test_obstruction_report():
    rep = haar.check_obstruction()
    assert rep.ok
    cases = {c.case for c in rep.cases}
    assert cases == {"F>y=i", "eps(F)=0", "obstruction-confirmed"}


@pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
def test_obstruction_holds_at_every_rank(n):
    rep = haar.check_obstruction(n)
    assert rep.ok
    assert [c.case for c in rep.cases] == [
        case.case for case in haar.check_obstruction().cases]


@pytest.fixture
def fresh_action():
    """No memoized action images before or after the test."""
    uq._act_monomial.cache_clear()
    yield
    uq._act_monomial.cache_clear()


def _plant_counit(monkeypatch):
    """A counit that keeps every word, ladder generators too."""
    monkeypatch.setattr(uq, "counit", lambda h: sum(h.terms.values(),
                                                    coeff.ZERO))


def _plant_f_sign(monkeypatch):
    """The second term of each F sandwich with its sign flipped."""
    sandwich = uq.sandwich

    def planted(n, g):
        terms = sandwich(n, g)
        if g[0] == uq.F:
            first, (c, left, right) = terms
            terms = (first, (-c, left, right))
        return terms

    monkeypatch.setattr(uq, "sandwich", planted)


@pytest.mark.parametrize("plant, failing", [
    (_plant_counit, {"eps(F)=0", "obstruction-confirmed"}),
    (_plant_f_sign, {"F>y=i", "obstruction-confirmed"})],
    ids=["counit", "f-sign"])
def test_a_planted_obstruction_defect_fails_at_rank_3(monkeypatch,
                                                      fresh_action,
                                                      plant, failing):
    plant(monkeypatch)
    rep = haar.check_obstruction(3)
    assert {c.case for c in rep.cases if not c.passed} == failing


def act_hopf_on_operator(h, F, ctx):
    """Linear word-by-word extension of the operator action."""
    out = FiniteRankOperator.zero(F.n)
    for word, cv in h.terms.items():
        acc = F
        for g in reversed(word):
            acc = act_on_operator(g, acc, ctx)
        out = out + acc.scaled(cv.evaluate(ctx))
    return out


def check_operator_star_compat(n, ctx, count=8, seed=13):
    """(g > F)* == S(g)* > F* on random low-rank operators."""
    if count < 1:
        raise ValueError("a star-compatibility check needs at least one sample")
    rng = random.Random(seed)
    rep = SuiteReport("op-star")
    samples = [gentle_finite_rank(n, rng, max_rank=2) for _ in range(count)]
    probes = [gauss.random_state(n, rng, **GENTLE) for _ in range(3)]
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


def test_operator_star_compat_refuses_zero_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        check_operator_star_compat(1, CTX, count=0)


def test_operator_module_star_compatibility():
    for n in (1, 2):
        rep = check_operator_star_compat(n, CTX)
        assert rep.ok, [(c.case, c.residual) for c in rep.failures()]
