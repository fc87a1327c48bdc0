import cmath
import math
import random

import pytest
from scipy.integrate import quad

from qweyl import gauss, haar, uq, weyl
from qweyl.coeff import NumericContext
from qweyl.errors import ShapeMismatch
from qweyl.gauss import GaussianState, apply_ops, inner, norm, represent
from qweyl.haar import (FiniteRankOperator, IntegralContext, density_ops,
                        plain_trace, quantum_trace, rank_one)

CTX = NumericContext()
NEG = NumericContext(phi=-math.pi / 5)


def g_state(eps=1.0, gamma=0j, n=1):
    return GaussianState.from_legs(1.0, [(eps, gamma)] * n)


def test_rank_one_applies_as_dyad():
    g = g_state()
    op = rank_one(g, g)
    out = op.apply_to(g)
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
    lhs = rank_one(e, f).star().apply_to(u)
    rhs = rank_one(f, e).apply_to(u)
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
            F = haar.random_finite_rank(n, rng, 3, gentle=True)
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
        lhs = got.apply_to(u)
        rhs = want.apply_to(u)
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
        lhs = got.apply_to(u)
        rhs = want.apply_to(u)
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
    trace = haar.quantum_trace

    def counted(F, ictx):
        calls.append(F)
        return trace(F, ictx)

    monkeypatch.setattr(haar, "quantum_trace", counted)
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


def test_operator_star_compat_refuses_zero_samples():
    with pytest.raises(ValueError, match="at least one sample"):
        haar.check_operator_star_compat(1, CTX, count=0)


def test_operator_module_star_compatibility():
    for n in (1, 2):
        rep = haar.check_operator_star_compat(n, CTX)
        assert rep.ok, [(c.case, c.residual) for c in rep.failures()]
