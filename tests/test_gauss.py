import cmath
import math
import random

import pytest
from scipy.integrate import quad

from qweyl import gauss, weyl
from qweyl.coeff import NumericContext
from qweyl.errors import ShapeMismatch
from qweyl.gauss import (ElementaryOperator, GaussianState, _apply_leg,
                         _compose_legs, apply_ops, inner, norm, represent,
                         represent_word)

CTX = NumericContext()
NEG = NumericContext(phi=-math.pi / 5)


def packet_value(eps, gamma, t):
    """Evaluate ``exp(-eps*t**2 + gamma*t)`` at a (possibly complex) ``t``."""
    return cmath.exp(-eps * t * t + gamma * t)


def complex_quad(fn, bound=25.0):
    re = quad(lambda t: fn(t).real, -bound, bound, limit=200)[0]
    im = quad(lambda t: fn(t).imag, -bound, bound, limit=200)[0]
    return complex(re, im)


def _random_leg(rng):
    return (rng.uniform(0.5, 2.0),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))


# -- elementary shifts ------------------------------------------------------


def test_shift_t_examples():
    assert _apply_leg(1.0, 0j, (0.0, 0.0)) == (0j, 1.0 + 0j)
    assert _apply_leg(1.0, 0j, (2.0, 0.0)) == (2.0 + 0j, 1.0 + 0j)
    first, _ = _apply_leg(1.0, 0j, (-0.5, 0.0))
    assert _apply_leg(1.0, first, (1.5, 0.0)) == _apply_leg(1.0, 0j, (1.0, 0.0))


def test_shift_p_single_step_values():
    gamma, pre = _apply_leg(1.0, 0j, (0.0, 1.0))
    assert gamma == -2j
    assert pre == pytest.approx(math.e)


def test_shift_p_matches_imaginary_translation():
    rng = random.Random(12)
    for _ in range(6):
        eps, gamma = _random_leg(rng)
        beta = rng.uniform(-1.5, 1.5)
        shifted, pre = _apply_leg(eps, gamma, (0.0, beta))
        for t in (-1.3, 0.0, 0.7, 2.1):
            direct = packet_value(eps, gamma, t + 1j * beta)
            got = pre * packet_value(eps, shifted, t)
            assert got == pytest.approx(direct, rel=1e-12)


def test_weyl_exchange_relation_exact_fields():
    # e^{bP} e^{aT} == e^{iba} e^{aT} e^{bP} inside the family
    rng = random.Random(3)
    for _ in range(8):
        eps, gamma = _random_leg(rng)
        alpha = rng.uniform(-2, 2)
        beta = rng.uniform(-2, 2)
        lhs, lhs_pre = _apply_leg(eps, gamma, (alpha, beta))
        mid, pre_p = _apply_leg(eps, gamma, (0.0, beta))
        rhs, pre_t = _apply_leg(eps, mid, (alpha, 0.0))
        assert lhs == rhs
        rhs_pre = cmath.exp(1j * beta * alpha) * pre_p * pre_t
        assert lhs_pre == pytest.approx(rhs_pre, rel=1e-13)


def test_leg_composition_phase():
    phase, leg = _compose_legs((0.0, 2.0), (1.5, 0.0))
    assert leg == (1.5, 2.0)
    assert phase == pytest.approx(cmath.exp(-3j))
    phase, leg = _compose_legs((0.0, 1.0), (0.0, -1.0))
    assert phase == 1.0
    assert leg == (0.0, 0.0)


def test_operator_word_exchange_collapses_identically():
    # the exchange relation holds at the level of composed operator data
    lhs = ElementaryOperator(1.0 + 0j, ((0.75, -1.25),))
    p_first = ElementaryOperator(1.0 + 0j, ((0.0, -1.25),))
    rhs = ElementaryOperator(cmath.exp(1j * (-1.25) * 0.75),
                             ((0.75, 0.0),)).applied_after(p_first)
    assert lhs.legs == rhs.legs
    assert lhs.scalar == pytest.approx(rhs.scalar, rel=1e-15)


# -- inner products -----------------------------------------------------------


def test_inner_gaussian_value():
    g = GaussianState.from_legs(1.0, [(1.0, 0j)])
    assert inner(g, g) == pytest.approx(math.sqrt(math.pi / 2.0))


def test_inner_matches_quadrature():
    # plain packets, and a P shift applied through an operator against the
    # packet evaluated at t + 1j*beta under the integral
    rng = random.Random(8)
    for _ in range(5):
        eu, gu = _random_leg(rng)
        ev, gv = _random_leg(rng)
        beta = rng.uniform(-1.0, 1.0)
        u = GaussianState.from_legs(1.0, [(eu, gu)])
        v = GaussianState.from_legs(1.0, [(ev, gv)])
        direct = inner(u, v)
        byquad = complex_quad(lambda t: packet_value(eu, gu, t)
                              * packet_value(ev, gv, t).conjugate())
        assert direct == pytest.approx(byquad, rel=1e-9)
        shift = [ElementaryOperator(1.0 + 0j, ((0.0, beta),))]
        direct = inner(apply_ops(shift, u), v)
        byquad = complex_quad(lambda t: packet_value(eu, gu, t + 1j * beta)
                              * packet_value(ev, gv, t).conjugate())
        assert direct == pytest.approx(byquad, rel=1e-9)


def test_from_legs_refuses_nonpositive_epsilon():
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            GaussianState.from_legs(1.0, [(1.0, 0j), (eps, 0j)])


def test_inner_hermitian_symmetric_and_linear():
    rng = random.Random(9)
    u = gauss.random_state(2, rng)
    v = gauss.random_state(2, rng)
    w = gauss.random_state(2, rng)
    assert inner(u, v) == pytest.approx(inner(v, u).conjugate(), rel=1e-12)
    lhs = inner(u + w, v)
    assert lhs == pytest.approx(inner(u, v) + inner(w, v), rel=1e-12)
    assert inner(u.scaled(2j), v) == pytest.approx(2j * inner(u, v), rel=1e-12)


def test_shape_mismatch():
    u = GaussianState.from_legs(1.0, [(1.0, 0j)])
    v = GaussianState.from_legs(1.0, [(1.0, 0j), (1.0, 0j)])
    with pytest.raises(ShapeMismatch):
        inner(u, v)
    with pytest.raises(ShapeMismatch):
        apply_ops(represent(weyl.gen_y(2, 1), CTX), u)


# -- representation -----------------------------------------------------------


def test_represent_single_pair_generators():
    ops = represent(weyl.gen_y(1, 1), CTX)
    assert ops == [ElementaryOperator(1.0 + 0j, ((1.0, 0.0),))]
    ops = represent(weyl.gen_r(1, 1), CTX)
    assert ops == [ElementaryOperator(1.0 + 0j, ((0.0, CTX.phi),))]
    ops = represent(weyl.q_elem(1, 1), CTX)
    assert len(ops) == 1
    assert ops[0].scalar == pytest.approx(-1.0)
    assert ops[0].legs == ((0.0, 2 * CTX.phi),)


def test_apply_shift_through_representation():
    g = GaussianState.from_legs(1.0, [(1.0, 0j)])
    moved = apply_ops(represent(weyl.gen_y(1, 1), CTX), g)
    assert moved.terms == {((1.0, 1.0 + 0j),): 1.0 + 0j}


def test_apply_identity_operator():
    rng = random.Random(44)
    for n in (1, 2):
        s = gauss.random_state(n, rng)
        out = apply_ops([gauss.op_identity(n)], s)
        assert out.terms == s.terms


def test_defining_relation_pointwise_on_probe():
    q2 = CTX.q_value ** 2
    g = GaussianState.from_legs(1.0, [(1.0, 0j)])
    x, y = weyl.gen_x(1, 1), weyl.gen_y(1, 1)
    xy = apply_ops(represent(x, CTX), apply_ops(represent(y, CTX), g))
    yx = apply_ops(represent(y, CTX), apply_ops(represent(x, CTX), g))
    resid = xy - yx.scaled(q2) - g.scaled(1 - q2)
    assert norm(resid) <= 1e-9 * max(norm(xy), norm(g))


def test_representation_homomorphism_matrix_elements():
    rng = random.Random(31)
    for n in (1, 2):
        for _ in range(6):
            a = weyl.normal_form(
                n, [(weyl.ONE, _random_word(n, rng))])
            b = weyl.normal_form(
                n, [(weyl.ONE, _random_word(n, rng))])
            if a.is_zero or b.is_zero:
                continue
            u = gauss.random_state(n, rng, eps_range=(0.6, 1.2), gamma_bound=1.0)
            v = gauss.random_state(n, rng, eps_range=(0.6, 1.2), gamma_bound=1.0)
            left = apply_ops(represent(a * b, CTX), u)
            right = apply_ops(represent(a, CTX),
                              apply_ops(represent(b, CTX), u))
            lv, rv = inner(left, v), inner(right, v)
            scale = max(1.0, abs(lv), abs(rv), norm(left) * norm(v))
            assert abs(lv - rv) <= 1e-9 * scale


def _random_word(n, rng, max_len=3):
    atoms = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(("R", "y", "x"))
        k = rng.randint(1, n)
        atoms.append(("R", k, rng.choice((-1, 1))) if kind == "R" else (kind, k))
    return tuple(atoms)


def test_pointwise_relation_suite():
    rng = random.Random(11)
    for ctx in (CTX, NEG):
        for n in (1, 2):
            states = gauss.sample_states(n, rng, 10)
            rels = weyl.coordinate_relations(n) + weyl.localized_relations(n)
            rep = gauss.check_relations_pointwise(n, rels, states, ctx)
            assert rep.ok, [(c.case, c.residual) for c in rep.failures()]
            herm = gauss.check_hermiticity_pointwise(n, states, ctx)
            assert herm.ok, [(c.case, c.residual) for c in herm.failures()]


def test_trivial_relation_residual_zero():
    rel = weyl.Relation("one-minus-one", weyl.tl((1, ()), (-1, ())))
    state = GaussianState.from_legs(1.0, [(1.0, 0j)])
    assert gauss.relation_residual(1, rel, state, CTX) == 0.0


def _residual_reference(n, relation, state, ctx):
    """Per-state loop: represent every term again for this one state."""
    scale = norm(state)
    image = GaussianState.zero(state.n)
    for cv, atoms in relation.terms:
        piece = apply_ops(represent_word(n, atoms, ctx, scalar=cv.evaluate(ctx)),
                          state)
        scale = max(scale, norm(piece))
        image = image + piece
    return norm(image) / scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pointwise_check_equals_per_state_residuals(n):
    rng = random.Random(70 + n)
    states = gauss.sample_states(n, rng, 3)
    for rels in (weyl.coordinate_relations(n), weyl.localized_relations(n),
                 weyl.ab_rho_relations(n)):
        rep = gauss.check_relations_pointwise(n, rels, states, CTX)
        assert [case.case for case in rep.cases] == [rel.name for rel in rels]
        for rel, case in zip(rels, rep.cases):
            worst = 0.0
            for state in states:
                want = _residual_reference(n, rel, state, CTX)
                assert gauss.relation_residual(n, rel, state, CTX) == want
                worst = max(worst, want)
            assert case.residual == worst


def test_represent_memo_matches_fresh_build(monkeypatch):
    monkeypatch.setattr(gauss, "_REPRESENT_MEMO", {})
    rng = random.Random(23)
    for ctx in (CTX, NEG):
        for n in (1, 2, 3):
            elements = [weyl.gamma(n), weyl.rho(n, 1) * weyl.a_op(n, n)]
            elements += [weyl.normal_form(n, [(weyl.ONE, _random_word(n, rng))])
                         for _ in range(3)]
            for element in elements:
                fresh = gauss.represent_terms(n, element.as_terms(), ctx)
                cold = represent(element, ctx)
                warm = represent(element, ctx)
                assert type(cold) is type(warm) is list
                assert cold == fresh and warm == fresh


def test_represent_result_can_be_mutated_safely():
    element = weyl.gen_x(2, 1)
    first = represent(element, CTX)
    want = list(first)
    first.append(gauss.op_identity(2))
    first[0] = gauss.op_identity(2)
    assert represent(element, CTX) == want
    first.clear()
    assert represent(element, CTX) == want


def test_family_closure_never_truncates():
    rng = random.Random(17)
    for n in (1, 2):
        element = weyl.rho(n, 1) * weyl.a_op(n, 1)
        ops = represent(element, CTX)
        state = gauss.random_state(n, rng)
        image = apply_ops(ops, state)
        assert isinstance(image, GaussianState)
        for key in image.terms:
            assert len(key) == n
            assert all(eps > 0 for eps, _ in key)


# -- two-component model --------------------------------------------------------


def test_model2_suite_both_signs():
    rng = random.Random(23)
    for ctx in (CTX, NEG):
        states = [gauss.model2_random_state(rng) for _ in range(10)]
        rep = gauss.check_model2(states, ctx)
        assert rep.ok, [(c.case, c.residual) for c in rep.failures()]


def test_model2_sigma_anticommutation_exact():
    anti = gauss.mat_add(gauss.mat_mul(gauss.SIGMA0, gauss.SIGMA1),
                         gauss.mat_mul(gauss.SIGMA1, gauss.SIGMA0))
    assert all(anti[i][j] == 0 for i in range(2) for j in range(2))


def test_model2_q_display_matches_quadrature():
    # the model's scale operator against a quadrature of the shifted packet
    ctx = CTX
    ops = gauss.model2_operators(ctx)
    state = gauss.model2_state(1.0, 1.0, 0.3 + 0.1j, 0)
    image = gauss.model2_apply(ops["Q"], state)
    ((eps, gam, comp), amp), = image.items()
    assert comp == 0
    beta = 2 * ctx.phi - math.copysign(math.pi, ctx.phi)
    for t in (-0.9, 0.2, 1.4):
        direct = -packet_value(1.0, 0.3 + 0.1j, t + 1j * beta)
        got = amp * cmath.exp(-eps * t * t + gam * t)
        assert got == pytest.approx(direct, rel=1e-12)
