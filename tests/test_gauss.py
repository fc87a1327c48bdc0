import cmath
import collections
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from qweyl import gauss, weyl
from qweyl.coeff import NumericContext
from qweyl.errors import ShapeMismatch
from qweyl.gauss import (ElementaryOperator, GaussianState, _apply_leg,
                         _compose_legs, apply_ops, inner, norm, represent,
                         represent_word)
from qweyl.report import SuiteReport

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


def test_from_legs_refuses_non_finite_epsilon():
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            GaussianState.from_legs(1.0, [(1.0, 0j), (eps, 0j)])


def test_from_legs_refuses_non_finite_gamma():
    for gamma in (complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            GaussianState.from_legs(1.0, [(1.0, 0j), (1.0, gamma)])


def _inner_reference(u, v):
    """The ordered double loop over term pairs, one leg overlap at a time."""
    u._match(v)
    total = 0j
    for ku, au in u.terms.items():
        for kv, av in v.terms.items():
            prod = au * av.conjugate()
            for (e1, g1), (e2, g2) in zip(ku, kv):
                prod *= gauss._leg_overlap(e1, g1, e2, g2)
            total += prod
    return total


def _norm_reference(u):
    """The norm through the ordered Gram sum of ``inner``."""
    return math.sqrt(abs(inner(u, u)))


def test_inner_equals_ordered_reference_loop_exactly():
    rng = random.Random(14)
    for n in (1, 2, 3):
        for _ in range(6):
            u = gauss.random_state(n, rng, max_terms=4)
            v = gauss.random_state(n, rng, max_terms=4)
            assert inner(u, v) == _inner_reference(u, v)
            assert inner(u, u) == _inner_reference(u, u)


_unit = st.floats(-1.0, 1.0)
_legs = st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-1.4, 1.4),
                           st.floats(-1.4, 1.4)), min_size=3, max_size=3)
# (amplitude, legs, whether to add -amplitude one ulp away in gamma)
_terms = st.lists(st.tuples(_unit, _unit, _legs, st.booleans()),
                  min_size=1, max_size=3)


@given(n=st.integers(1, 3), terms=_terms)
@settings(max_examples=80, deadline=None)
def test_norm_matches_ordered_gram_sum(n, terms):
    state = GaussianState.zero(n)
    for re, im, legs, cancel in terms:
        amp = complex(re, im)
        legs = [(eps, complex(gr, gi)) for eps, gr, gi in legs[:n]]
        state = state + GaussianState.from_legs(amp, legs)
        if cancel:
            eps, gam = legs[-1]
            nudged = complex(math.nextafter(gam.real, math.inf), gam.imag)
            state = state + GaussianState.from_legs(
                -amp, legs[:-1] + [(eps, nudged)])
    scale = sum(_norm_reference(GaussianState(n, {key: amp}))
                for key, amp in state.terms.items())
    want = _norm_reference(state)
    assert abs(norm(state) ** 2 - want ** 2) <= 1e-12 * scale ** 2


def test_norm_matches_quadrature():
    rng = random.Random(31)
    terms = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), *_random_leg(rng))
             for _ in range(3)]
    state = GaussianState.zero(1)
    for amp, eps, gamma in terms:
        state = state + GaussianState.from_legs(amp, [(eps, gamma)])
    assert len(state.terms) == 3

    def density(t):
        value = sum(amp * packet_value(eps, gamma, t)
                    for amp, eps, gamma in terms)
        return complex(abs(value) ** 2)

    byquad = complex_quad(density).real
    assert norm(state) == pytest.approx(math.sqrt(byquad), rel=1e-9)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 6)])
def test_norm_visits_each_unordered_pair_once(n, count, monkeypatch):
    rng = random.Random(40 + n)
    state = GaussianState.zero(n)
    for _ in range(count):
        state = state + GaussianState.from_legs(
            1.0 + 0.5j, [_random_leg(rng) for _ in range(n)])
    assert len(state.terms) == count
    calls = []
    overlap = gauss._leg_overlap

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(gauss, "_leg_overlap", counted)
    norm(state)
    assert len(calls) == n * count * (count + 1) // 2


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


def _norm_pairs_reference(u):
    """``norm`` as a loop over unordered term pairs, one overlap per leg."""
    items = tuple(u.terms.items())
    total = 0.0
    for i, (ku, au) in enumerate(items):
        for j, (kv, av) in enumerate(items[i:]):
            prod = au * av.conjugate()
            for (e1, g1), (e2, g2) in zip(ku, kv):
                prod *= gauss._leg_overlap(e1, g1, e2, g2)
            total += 2.0 * prod.real if j else prod.real
    return math.sqrt(abs(total))


def _pieces_residual_reference(pieces, state, scale):
    """``_pieces_residual`` with a fresh norm per image and ``image + piece``."""
    image = GaussianState.zero(state.n)
    for ops in pieces:
        piece = apply_ops(ops, state)
        scale = max(scale, _norm_pairs_reference(piece))
        image = image + piece
    return _norm_pairs_reference(image) / scale


def _flip_zero(x):
    return -x if x == 0 else x


_part = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]), st.floats(-1.4, 1.4))
_pool = st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5]), _part, _part),
                 min_size=1, max_size=4)
# amplitude parts stay clear of the underflow that zeroes a norm
_amp_part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 1.0),
                      st.floats(-1.0, -0.01))
_shift = st.sampled_from([(0.0, 0.0), (0.0, -0.0), (1.0, 0.0), (-1.0, 0.0),
                          (0.0, 0.25), (-1.0, 0.25)])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_shared_overlap_table_is_bit_identical(data):
    # legs come from a small pool, some with the signs of their zero parts
    # flipped, so terms, pieces and the summed image share legs
    n = data.draw(st.integers(1, 3))
    pool = data.draw(_pool)
    state = GaussianState.zero(n)
    for _ in range(data.draw(st.integers(1, 3))):
        legs = []
        for _ in range(n):
            eps, gr, gi = data.draw(st.sampled_from(pool))
            if data.draw(st.booleans()):
                gr, gi = _flip_zero(gr), _flip_zero(gi)
            legs.append((eps, complex(gr, gi)))
        amp = complex(data.draw(_amp_part), data.draw(_amp_part))
        state = state + GaussianState.from_legs(amp, legs)
    assume(not state.is_zero)
    pieces = []
    for _ in range(data.draw(st.integers(1, 4))):
        ops = [ElementaryOperator(complex(data.draw(_amp_part),
                                          data.draw(_amp_part)),
                                  tuple(data.draw(st.lists(_shift, min_size=n,
                                                           max_size=n))))
               for _ in range(data.draw(st.integers(1, 3)))]
        pieces.append(ops)
        if data.draw(st.booleans()):  # a piece that cancels the last one
            pieces.append([ElementaryOperator(-op.scalar, op.legs)
                           for op in ops])
    scale = norm(state)
    assert scale == _norm_pairs_reference(state)
    assert gauss._pieces_residual(pieces, state, scale) == \
        _pieces_residual_reference(pieces, state, scale)


def _ordered_leg_pairs(u):
    """The ordered leg pairs whose overlaps ``norm(u)`` multiplies in."""
    keys = tuple(u.terms)
    return {pair for i, ku in enumerate(keys) for kv in keys[i:]
            for pair in zip(ku, kv)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residual_evaluates_each_ordered_leg_pair_once(n, monkeypatch):
    rng = random.Random(90 + n)
    state = gauss.random_state(n, rng, max_terms=1) + \
        gauss.random_state(n, rng, max_terms=1)
    overlap = gauss._leg_overlap
    calls = []

    def counted(e1, g1, e2, g2):
        calls.append(((e1, g1), (e2, g2)))
        return overlap(e1, g1, e2, g2)

    monkeypatch.setattr(gauss, "_leg_overlap", counted)
    evaluated = visited = 0
    for rel in weyl.ab_rho_relations(n):
        pieces = [gauss.represent_terms(n, (term,), CTX) for term in rel.terms]
        images = [apply_ops(ops, state) for ops in pieces]
        images.append(sum(images, GaussianState.zero(n)))
        want = set().union(*map(_ordered_leg_pairs, images))
        calls.clear()
        gauss._pieces_residual(pieces, state, 1.0)
        assert len(calls) == len(want)
        assert set(calls) == want
        evaluated += len(calls)
        visited += sum(n * len(u.terms) * (len(u.terms) + 1) // 2
                       for u in images)
    assert evaluated < visited  # the pieces and their image share legs


def _hermiticity_reference(n, states, ctx):
    """Each pair forms both of its images afresh, as ``lhs`` and ``rhs``."""
    rep = SuiteReport("pointwise")
    for name, element in weyl.hermitian_generators(n):
        ops = represent(element, ctx)
        worst = 0.0
        for i, u in enumerate(states):
            v = states[(i + 1) % len(states)]
            lhs = inner(apply_ops(ops, u), v)
            rhs = inner(u, apply_ops(ops, v))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        rep.record(f"hermitian[{name}]", worst <= ctx.tolerance, residual=worst)
    return rep


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermiticity_forms_each_image_once(n, monkeypatch):
    rng = random.Random(60 + n)
    elements = weyl.hermitian_generators(n)
    apply = gauss.apply_ops
    calls = []

    def counted(ops, state):
        calls.append(id(state))
        return apply(ops, state)

    monkeypatch.setattr(gauss, "apply_ops", counted)
    for count in (1, 2, 4):
        states = gauss.sample_states(n, rng, count)
        for ctx in (CTX, NEG):
            want = _hermiticity_reference(n, states, ctx).lines()
            calls.clear()
            assert gauss.check_hermiticity_pointwise(n, states, ctx).lines() \
                == want
            assert collections.Counter(calls) == \
                {id(state): len(elements) for state in states}


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
