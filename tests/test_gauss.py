import cmath
import math
import random

import pytest
from scipy.integrate import quad

from qweyl import gauss, weyl
from qweyl.coeff import NumericContext
from qweyl.errors import ShapeMismatch
from qweyl.gauss import (ElementaryOperator, GaussianFactor, GaussianState,
                         apply_ops, apply_shift_p, apply_shift_t,
                         collapse_word, inner, make_elementary, norm,
                         represent, represent_word)

CTX = NumericContext()
NEG = NumericContext(phi=-math.pi / 5)


def factor_value(g, t):
    """Evaluate one leg at a (possibly complex) argument."""
    return g.prefactor * cmath.exp(-g.epsilon * t * t + g.gamma * t)


def complex_quad(fn, bound=25.0):
    re = quad(lambda t: fn(t).real, -bound, bound, limit=200)[0]
    im = quad(lambda t: fn(t).imag, -bound, bound, limit=200)[0]
    return complex(re, im)


# -- elementary shifts ------------------------------------------------------


def test_shift_t_examples():
    g = GaussianFactor(1.0, 0j)
    assert apply_shift_t(0.0, g) == g
    shifted = apply_shift_t(2.0, g)
    assert shifted == GaussianFactor(1.0, 2.0 + 0j)
    twice = apply_shift_t(1.5, apply_shift_t(-0.5, g))
    assert twice == apply_shift_t(1.0, g)


def test_shift_p_single_step_values():
    g = GaussianFactor(1.0, 0j)
    shifted = apply_shift_p(1.0, g)
    assert shifted.epsilon == 1.0
    assert shifted.gamma == -2j
    assert shifted.prefactor == pytest.approx(math.e)


def test_shift_p_matches_imaginary_translation():
    rng = random.Random(12)
    for _ in range(6):
        g = GaussianFactor(rng.uniform(0.5, 2.0),
                           complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        beta = rng.uniform(-1.5, 1.5)
        shifted = apply_shift_p(beta, g)
        for t in (-1.3, 0.0, 0.7, 2.1):
            direct = factor_value(g, t + 1j * beta)
            assert factor_value(shifted, t) == pytest.approx(direct, rel=1e-12)


def test_weyl_exchange_relation_exact_fields():
    # e^{bP} e^{aT} == e^{iba} e^{aT} e^{bP} inside the family
    rng = random.Random(3)
    for _ in range(8):
        g = GaussianFactor(rng.uniform(0.5, 2.0),
                           complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        alpha = rng.uniform(-2, 2)
        beta = rng.uniform(-2, 2)
        lhs = apply_shift_p(beta, apply_shift_t(alpha, g))
        rhs0 = apply_shift_t(alpha, apply_shift_p(beta, g))
        rhs = GaussianFactor(rhs0.epsilon, rhs0.gamma,
                             cmath.exp(1j * beta * alpha) * rhs0.prefactor)
        assert lhs.epsilon == rhs.epsilon
        assert lhs.gamma == rhs.gamma
        assert lhs.prefactor == pytest.approx(rhs.prefactor, rel=1e-13)


def test_collapse_word_phase():
    phase, word = collapse_word((("P", 2.0), ("T", 1.5)))
    assert word == (("T", 1.5), ("P", 2.0))
    assert phase == pytest.approx(cmath.exp(-3j))
    phase, word = collapse_word((("P", 1.0), ("P", -1.0)))
    assert phase == 1.0
    assert word == ()


def test_operator_word_exchange_collapses_identically():
    # the exchange relation holds at the level of collapsed operator data
    lhs = make_elementary(1.0, ((("T", 0.75), ("P", -1.25)),))
    rhs = make_elementary(cmath.exp(1j * (-1.25) * 0.75),
                          ((("P", -1.25), ("T", 0.75)),))
    assert lhs.legs == rhs.legs
    assert lhs.scalar == pytest.approx(rhs.scalar, rel=1e-15)


# -- inner products -----------------------------------------------------------


def test_inner_gaussian_value():
    g = GaussianState.from_legs(1.0, [(1.0, 0j)])
    assert inner(g, g) == pytest.approx(math.sqrt(math.pi / 2.0))


def test_inner_matches_quadrature():
    rng = random.Random(8)
    for _ in range(5):
        gu = GaussianFactor(rng.uniform(0.5, 2.0),
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        gv = GaussianFactor(rng.uniform(0.5, 2.0),
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        u = GaussianState.from_legs(1.0, [gu])
        v = GaussianState.from_legs(1.0, [gv])
        direct = inner(u, v)
        byquad = complex_quad(lambda t: factor_value(gu, t)
                              * factor_value(gv, t).conjugate())
        assert direct == pytest.approx(byquad, rel=1e-9)


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
    assert ops == [ElementaryOperator(1.0 + 0j, ((("T", 1.0),),))]
    ops = represent(weyl.gen_r(1, 1), CTX)
    assert ops == [ElementaryOperator(1.0 + 0j, ((("P", CTX.phi),),))]
    ops = represent(weyl.q_elem(1, 1), CTX)
    assert len(ops) == 1
    assert ops[0].scalar == pytest.approx(-1.0)
    assert ops[0].legs == ((("P", 2 * CTX.phi),),)


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
    g = GaussianFactor(1.0, 0.3 + 0.1j)
    for t in (-0.9, 0.2, 1.4):
        direct = -factor_value(g, t + 1j * beta)
        got = amp * cmath.exp(-eps * t * t + gam * t)
        assert got == pytest.approx(direct, rel=1e-12)
