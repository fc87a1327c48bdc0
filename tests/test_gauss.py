import cmath
import collections
import math
import os
import pathlib
import random
import signal
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from qweyl import cli, gauss, haar, uq, weyl
from qweyl.coeff import ONE, Q, NumericContext, gaussian
from qweyl.errors import ShapeMismatch
from qweyl.gauss import (ElementaryOperator, GaussianState, _apply_leg,
                         _operator, _then, apply_ops, inner, norm, represent)
from qweyl.report import SuiteReport
from qweyl.sparse import accumulate

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
    phi = CTX.phi
    assert _apply_leg(1.0, 0j, (0, 0), phi) == (0j, 1.0 + 0j)
    assert _apply_leg(1.0, 0j, (2, 0), phi) == (2.0 + 0j, 1.0 + 0j)
    first, _ = _apply_leg(1.0, 0j, (-1, 0), phi)
    assert _apply_leg(1.0, first, (3, 0), phi) == \
        _apply_leg(1.0, 0j, (2, 0), phi)


def test_shift_p_single_step_values():
    gamma, pre = _apply_leg(1.0, 0j, (0, 1), 1.0)
    assert gamma == -2j
    assert pre == pytest.approx(math.e)
    # the P-shift is m units of phi
    assert _apply_leg(1.0, 0j, (0, 2), 0.5) == _apply_leg(1.0, 0j, (0, 1), 1.0)


def test_shift_p_matches_imaginary_translation():
    rng = random.Random(12)
    for _ in range(6):
        eps, gamma = _random_leg(rng)
        phi = rng.uniform(-0.75, 0.75)
        m = rng.choice((-2, -1, 1, 2))
        shifted, pre = _apply_leg(eps, gamma, (0, m), phi)
        for t in (-1.3, 0.0, 0.7, 2.1):
            direct = packet_value(eps, gamma, t + 1j * m * phi)
            got = pre * packet_value(eps, shifted, t)
            assert got == pytest.approx(direct, rel=1e-12)


def test_weyl_exchange_relation_exact_fields():
    # e^{bP} e^{aT} == e^{iba} e^{aT} e^{bP} inside the family, b = m*phi
    rng = random.Random(3)
    for _ in range(8):
        eps, gamma = _random_leg(rng)
        phi = rng.uniform(-1, 1)
        alpha = rng.randint(-2, 2)
        m = rng.randint(-2, 2)
        lhs, lhs_pre = _apply_leg(eps, gamma, (alpha, m), phi)
        mid, pre_p = _apply_leg(eps, gamma, (0, m), phi)
        rhs, pre_t = _apply_leg(eps, mid, (alpha, 0), phi)
        assert lhs == rhs
        rhs_pre = cmath.exp(1j * m * phi * alpha) * pre_p * pre_t
        assert lhs_pre == pytest.approx(rhs_pre, rel=1e-13)


def test_leg_composition_phase():
    # P by 2 and then T by 3 moves the T shift past the P shift: k = 2*3
    assert _then((1.0 + 0j, 0, ((0, 2),)), (1.0 + 0j, 0, ((3, 0),))) == \
        (1.0 + 0j, 6, ((3, 2),))
    assert _then((1.0 + 0j, 0, ((0, 1),)), (1.0 + 0j, 0, ((0, -1),))) == \
        (1.0 + 0j, 0, ((0, 0),))
    # exponents add over tensor legs and over the composed triples
    assert _then((2.0 + 0j, 1, ((0, 1), (2, -1))),
                 (0.5j, 3, ((4, 0), (5, 1)))) == (1j, 1 + 3 + 4 - 5,
                                                  ((4, 1), (7, 0)))
    phi = 0.75
    op = _operator((1.0 + 0j, 6, ((3, 2),)), phi)
    assert (op.legs, op.phi) == (((3, 2),), phi)
    assert op.scalar == pytest.approx(cmath.exp(-6j * phi))
    assert _operator((0.5 - 1j, 0, ((0, 0),)), phi).scalar == 0.5 - 1j


def test_operator_word_exchange_collapses_identically():
    # the exchange relation holds at the level of composed operator data
    phi = -0.625
    lhs = ElementaryOperator(1.0 + 0j, ((3, 2),), phi)
    rhs = _operator(_then((1.0 + 0j, 0, ((0, 2),)),
                          (cmath.exp(1j * 2 * phi * 3), 0, ((3, 0),))), phi)
    assert lhs.legs == rhs.legs
    assert lhs.scalar == pytest.approx(rhs.scalar, rel=1e-15)


def test_represent_terms_forms_each_phase_once(monkeypatch):
    # the word's operators pick up Weyl phases at several composition steps;
    # each distinct nonzero (legs, k) of its exact image forms one phase
    calls = []

    def exp(z):
        calls.append(z)
        return cmath.exp(z)

    atoms = (("y", 1), ("R", 1, 1), ("x", 1), ("y", 2), ("R", 1, 2),
             ("y", 1), ("R", 2, -1), ("x", 2))
    phased = {(legs, k) for _, k, legs in gauss._word_image(2, atoms) if k}
    monkeypatch.setattr(gauss, "cmath", mock.Mock(exp=exp))
    gauss.represent_terms(2, ((ONE, atoms),), CTX)
    assert calls and len(calls) <= len(phased)


def test_x_powers_expand_in_their_distinct_legs(monkeypatch):
    # the 2**m products of an x power's entries meet in few (legs, k): the
    # expansion adds their signs after each x atom, where composing every
    # product would take 2**25 - 2 steps for x1^24 on each of the two paths
    steps, then = [], gauss._then
    monkeypatch.setattr(gauss, "_then",
                        lambda *a: (steps.append(None), then(*a))[1])
    for atoms, bound in (((("x", 1),) * 24, 52000),
                         ((("y", 1),) * 12 + (("x", 1),) * 12, 10500)):
        steps.clear()
        exact = gauss.torus_terms(1, ((ONE, atoms),))
        ops = gauss.represent_terms(1, ((ONE, atoms),), CTX)
        assert len(steps) <= bound
        assert {op.legs for op in ops} == set(exact)
        # a float scalar sums integer signs times phases, so it rounds
        # relative to the largest integer coefficient of the exact image
        scale = max(abs(complex(c)) for value in exact.values()
                    for c in value.num)
        for op in ops:
            assert abs(op.scalar - exact[op.legs].evaluate(CTX)) <= \
                1e-12 * scale


# -- the float-leg oracle ------------------------------------------------------
#
# Legs as float pairs ``(t, p)``, applying ``e^{tT}`` then ``e^{pP}``, composed
# at the phase ``exp(-1j*p0*t1)`` of their float shifts.


def _float_compose(first, then):
    t0, p0 = first
    t1, p1 = then
    arg = -p0 * t1
    phase = cmath.exp(1j * arg) if arg else 1.0 + 0j
    return phase, (t0 + t1, p0 + p1)


def _float_variants(atom, n, ctx):
    phi = ctx.phi
    kind, k = atom[0], atom[1]
    main = n - k
    before = ((0.0, phi),) * main
    after = ((0.0, 0.0),) * (k - 1)
    if kind == "R":
        return [(1.0 + 0j, ((0.0, atom[2] * phi),) * (main + 1) + after)]
    if kind == "y":
        return [(1.0 + 0j, before + ((1.0, 0.0),) + after)]
    sign = -1.0 if main % 2 else 1.0
    return [(sign * ctx.q_value, before + ((-1.0, 2.0 * phi),) + after),
            (sign + 0j, before + ((-1.0, 0.0),) + after)]


def _float_represent_word(n, atoms, ctx, scalar=1.0 + 0j):
    """``(scalar, float legs)`` per product of the atoms' entries, unmerged:
    ``_float_variants`` composed at float phases, in the order of
    ``_then``'s expansion."""
    ops = [(complex(scalar), ((0.0, 0.0),) * n)]
    for atom in reversed(atoms):
        out = []
        for s0, legs0 in ops:
            for s1, legs1 in _float_variants(atom, n, ctx):
                value, legs = s1 * s0, []
                for first, then in zip(legs0, legs1):
                    phase, leg = _float_compose(first, then)
                    value *= phase
                    legs.append(leg)
                out.append((value, tuple(legs)))
        ops = out
    return ops


def _float_apply(float_ops, state):
    """Apply float-leg operators: a leg ``(t, p)`` is ``(t, 1)`` in units
    of ``p``."""
    def images():
        for key, amp in state.terms.items():
            for scalar, legs in float_ops:
                val = amp * scalar
                newkey = []
                for (eps, gam), (t, p) in zip(key, legs):
                    gam, pre = _apply_leg(eps, gam, (t, 1), p)
                    val *= pre
                    newkey.append((eps, gam))
                yield tuple(newkey), val

    return GaussianState(state.n, accumulate({}, images()))


_atom = st.one_of(
    st.tuples(st.just("R"), st.integers(1, 3), st.sampled_from([-2, -1, 1, 2])),
    st.tuples(st.sampled_from(["x", "y"]), st.integers(1, 3)))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_integer_legs_match_the_float_oracle(data):
    n = data.draw(st.integers(1, 3))
    atoms = tuple(data.draw(st.lists(_atom.filter(lambda a: a[1] <= n),
                                     max_size=5)))
    phi = data.draw(st.floats(0.05, 3.1))
    assume(abs(phi - math.pi / 2) > 1e-6)
    ctx = NumericContext(phi=phi if data.draw(st.booleans()) else -phi)
    re, im = data.draw(_unit), data.draw(_unit)
    ops = gauss.represent_terms(
        n, ((gaussian(Fraction(re), Fraction(im)), atoms),), ctx)
    assert all(op.phi == ctx.phi for op in ops)
    got = {op.legs: op.scalar for op in ops}
    assert all(type(t) is int and type(m) is int
               for legs in got for t, m in legs)
    # the oracle's float legs, merged per (t, round(p/phi))
    want = {}
    for value, legs in _float_represent_word(n, atoms, ctx, complex(re, im)):
        key = tuple((int(t), round(p / ctx.phi)) for t, p in legs)
        for (_, m), (_, p) in zip(key, legs):
            assert abs(m * ctx.phi - p) <= 1e-12
        want[key] = want.get(key, 0j) + value
    for legs in got.keys() | want.keys():
        assert abs(got.get(legs, 0j) - want.get(legs, 0j)) <= 1e-12


def test_one_element_represented_at_two_phis_in_one_process():
    n = 2
    x1 = weyl.gen_x(n, 1)
    element = x1 * x1 * weyl.gen_y(n, 2)
    rng = random.Random(5)
    u = gauss.random_state(n, rng, eps_range=(0.6, 1.2), gamma_bound=1.0)
    v = gauss.random_state(n, rng, eps_range=(0.6, 1.2), gamma_bound=1.0)
    seen = {}
    for ctx in (CTX, NEG, CTX, NEG):
        ops = represent(element, ctx)
        assert {op.phi for op in ops} == {ctx.phi}
        oracle = [op for cv, atoms in element.as_terms()
                  for op in _float_represent_word(n, atoms, ctx,
                                                  cv.evaluate(ctx))]
        assert len(ops) < len(oracle)  # equal legs merged
        image = apply_ops(ops, u)
        got, want = inner(image, v), inner(_float_apply(oracle, u), v)
        assert abs(got - want) <= 1e-12 * max(1.0, norm(image) * norm(v))
        assert seen.setdefault(ctx.phi, got) == got
    assert abs(seen[CTX.phi] - seen[NEG.phi]) > 1e-3


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
        shift = [ElementaryOperator(1.0 + 0j, ((0, 1),), beta)]
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


def test_shape_mismatch():
    u = GaussianState.from_legs(1.0, [(1.0, 0j)])
    v = GaussianState.from_legs(1.0, [(1.0, 0j), (1.0, 0j)])
    with pytest.raises(ShapeMismatch):
        inner(u, v)
    with pytest.raises(ShapeMismatch):
        apply_ops(represent(weyl.gen_y(2, 1), CTX), u)


def test_apply_ops_checks_ranks_on_a_zero_state():
    # a zero state has no terms, so the check cannot wait for one
    ops = represent(weyl.gen_y(2, 1), CTX)
    with pytest.raises(ShapeMismatch,
                       match="^operator has 2 legs, state has 1$"):
        apply_ops(ops, GaussianState.zero(1))
    assert apply_ops(ops, GaussianState.zero(2)).is_zero
    assert apply_ops([], GaussianState.zero(1)).is_zero


# -- representation -----------------------------------------------------------


def test_represent_single_pair_generators():
    ops = represent(weyl.gen_y(1, 1), CTX)
    assert ops == [ElementaryOperator(1.0 + 0j, ((1, 0),), CTX.phi)]
    ops = represent(weyl.gen_r(1, 1), CTX)
    assert ops == [ElementaryOperator(1.0 + 0j, ((0, 1),), CTX.phi)]
    ops = represent(weyl.q_elem(1, 1), CTX)
    assert len(ops) == 1
    assert ops[0].scalar == pytest.approx(-1.0)
    assert ops[0].legs == ((0, 2),)
    assert ops[0].phi == CTX.phi


def test_apply_shift_through_representation():
    g = GaussianState.from_legs(1.0, [(1.0, 0j)])
    moved = apply_ops(represent(weyl.gen_y(1, 1), CTX), g)
    assert moved.terms == {((1.0, 1.0 + 0j),): 1.0 + 0j}


def _identity_op(n):
    return ElementaryOperator(1.0 + 0j, ((0, 0),) * n, CTX.phi)


def test_apply_identity_operator():
    rng = random.Random(44)
    for n in (1, 2):
        s = gauss.random_state(n, rng)
        out = apply_ops([_identity_op(n)], s)
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
    rel = weyl.Relation("one-minus-one", ((weyl.ONE, ()), (-weyl.ONE, ())))
    state = GaussianState.from_legs(1.0, [(1.0, 0j)])
    rep = gauss.check_relations_pointwise(1, [rel], [state], CTX)
    assert rep.cases[0].residual == 0.0


def _residual_reference(n, relation, state, ctx):
    """Per-state loop: represent every term again for this one state."""
    scale = norm(state)
    image = GaussianState.zero(state.n)
    for term in relation.terms:
        piece = apply_ops(gauss.represent_terms(n, (term,), ctx), state)
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
                one = gauss.check_relations_pointwise(n, [rel], [state], CTX)
                got = one.cases[0].residual
                # every relation holds exactly, and the float route sits at
                # the floor
                assert got == 0.0
                assert _residual_reference(n, rel, state, CTX) <= 1e-14
                worst = max(worst, got)
            assert case.residual == worst


def _planted(defect):
    """``_atom_variants`` with one defect in its exact atom table."""
    variants = gauss._atom_variants

    def planted(atom, n):
        entries = variants(atom, n)
        if atom[0] == "x" and defect == "x-q-squared":
            sign, e, legs = entries[0]
            entries[0] = (sign, e + 1, legs)
        elif atom[0] == "x" and defect == "x-second-sign":
            sign, e, legs = entries[1]
            entries[1] = (-sign, e, legs)
        elif atom[0] == "R" and defect == "R-first-leg-doubled":
            sign, e, ((t, m), *rest) = entries[0]
            entries[0] = (sign, e, ((t, 2 * m), *rest))
        return entries

    return planted


@pytest.fixture
def fresh_represent():
    """Empty the represent caches around a test that plants a defect."""
    caches = (gauss._represented, gauss.represent_adjoint)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


# how many of the 139 relations, and of the 22 hermitian elements, at n=3
# each defect breaks; the second sign is a self-adjoint operator's, so x stays
# hermitian and only the relations see it
_PLANTED_FAILURES = {"x-q-squared": (13, 8), "x-second-sign": (19, 0),
                     "R-first-leg-doubled": (63, 3)}


@pytest.mark.parametrize("defect", ["x-q-squared", "x-second-sign",
                                    "R-first-leg-doubled"])
def test_planted_defects_fail_the_pointwise_check(defect, monkeypatch,
                                                  fresh_represent):
    n = 3
    states = gauss.sample_states(n, random.Random(8), 3)
    rels = weyl.coordinate_relations(n) + weyl.localized_relations(n) + \
        weyl.ab_rho_relations(n)
    assert len(rels) == 139
    assert gauss.check_relations_pointwise(n, rels, states, CTX).ok
    assert gauss.check_hermiticity_pointwise(n, states, CTX).ok
    gauss._represented.cache_clear()
    monkeypatch.setattr(gauss, "_atom_variants", _planted(defect))
    rep = gauss.check_relations_pointwise(n, rels, states, CTX)
    herm = gauss.check_hermiticity_pointwise(n, states, CTX)
    assert (len(rep.failures()), len(herm.failures())) == \
        _PLANTED_FAILURES[defect]
    for rel, case in zip(rels, rep.cases):
        if not case.passed:
            pieces = [gauss.represent_terms(n, (term,), CTX)
                      for term in rel.terms]
            want = max(_pieces_residual_reference(pieces, state, norm(state))
                       for state in states)
            assert case.residual == pytest.approx(want, rel=1e-9)


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
    """A relation's residual on one state, term by term: a fresh norm per
    image and ``image + piece``, over the largest of ``scale`` and the
    pieces' norms."""
    image = GaussianState.zero(state.n)
    for ops in pieces:
        piece = apply_ops(ops, state)
        scale = max(scale, _norm_pairs_reference(piece))
        image = image + piece
    return _norm_pairs_reference(image) / scale


_part = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]), st.floats(-1.4, 1.4))
# amplitude parts stay clear of the underflow that zeroes a norm
_amp_part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 1.0),
                      st.floats(-1.0, -0.01))


# -- the exact torus image -----------------------------------------------------


# runs of one atom, so that powers x_k^m and R_k^m meet their q-weights
_run = st.tuples(_atom, st.integers(1, 8))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_torus_terms_evaluate_to_the_represented_terms(data):
    n = data.draw(st.integers(1, 3))
    runs = data.draw(st.lists(_run.filter(lambda r: r[0][1] <= n), max_size=4))
    atoms = tuple(atom for atom, m in runs for _ in range(m))
    # an x atom doubles a word's operators; 2**10 of them before merging
    assume(sum(atom[0] == "x" for atom in atoms) <= 10)
    words = [(ONE, atoms), (-ONE, atoms[::-1]), (Q, atoms[len(atoms) // 2:])]
    terms = words[:data.draw(st.integers(1, 3))]
    phi = data.draw(st.floats(0.05, 3.1))
    assume(abs(phi - math.pi / 2) > 1e-6)
    ctx = NumericContext(phi=phi if data.draw(st.booleans()) else -phi)
    exact = gauss.torus_terms(n, terms)
    assert all(not c.is_zero for c in exact.values())
    ops = gauss.represent_terms(n, terms, ctx)
    # relative to the largest coefficient: equal legs may cancel in floats
    scale = max([1.0] + [abs(op.scalar) for op in ops])
    for op in ops:
        want = exact.get(op.legs)
        want = 0.0 if want is None else want.evaluate(ctx)
        assert abs(op.scalar - want) <= 1e-12 * scale
    assert set(exact) <= {op.legs for op in ops}


def test_torus_terms_merge_exactly():
    # x1 y1 - q^2 y1 x1 - (1 - q^2) is the defining exchange relation at n = 1
    q2 = Q * Q
    exchange = ((ONE, (("x", 1), ("y", 1))), (-q2, (("y", 1), ("x", 1))),
                (q2 - ONE, ()))
    assert gauss.torus_terms(1, exchange) == {}
    # x1 is q T^-1 P^2 + T^-1, its q an exact power of q0
    assert gauss.torus_terms(1, ((ONE, (("x", 1),)),)) == {
        ((-1, 2),): Q, ((-1, 0),): ONE}
    assert gauss.torus_terms(1, ((ONE, ()), (-ONE, ()))) == {}


def _catalogs(n):
    return [weyl.coordinate_relations(n) + weyl.localized_relations(n),
            weyl.ab_rho_relations(n)]


def test_every_relation_up_to_rank_eight_is_exact():
    for n, sizes in ((1, [12, 9]), (2, [31, 33]), (3, [66, 73]),
                     (8, [436, 468])):
        for rels, size in zip(_catalogs(n), sizes, strict=True):
            assert len(rels) == size
            assert sum(not gauss.torus_terms(n, rel.terms) for rel in rels) \
                == size


def test_an_exact_relation_takes_no_gaussian_work(monkeypatch):
    n = 3
    states = gauss.sample_states(n, random.Random(5), 3)
    for name in ("represent_terms", "apply_ops", "norm"):
        monkeypatch.setattr(gauss, name, mock.Mock(side_effect=AssertionError))
    for rels in _catalogs(n):
        rep = gauss.check_relations_pointwise(n, rels, states, CTX)
        assert [c.case for c in rep.cases] == [rel.name for rel in rels]
        assert {c.residual for c in rep.cases} == {0.0}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cancelling_relations_get_no_gram_pairs(n, monkeypatch):
    # no overlap of two packets, and no shift of one, for a relation whose
    # exact image is empty, at either sign of phi
    states = gauss.sample_states(n, random.Random(70 + n), 3)
    calls = []
    for name in ("_apply_leg", "_leg_overlap"):
        fn = getattr(gauss, name)
        monkeypatch.setattr(gauss, name, lambda *a, fn=fn, name=name: (
            calls.append(name), fn(*a))[1])
    for ctx in (CTX, NEG):
        for rels in _catalogs(n):
            rep = gauss.check_relations_pointwise(n, rels, states, ctx)
            assert [c.case for c in rep.cases] == [rel.name for rel in rels]
            assert {c.residual for c in rep.cases} == {0.0}
    assert calls == []
    # the same sweep shifts and overlaps packets once a relation is live
    rels = weyl.coordinate_relations(n)
    (scalar, atoms), *rest = rels[0].terms
    doubled = weyl.Relation(rels[0].name, ((scalar + scalar, atoms), *rest))
    gauss.check_relations_pointwise(n, [doubled], states, CTX)
    assert set(calls) == {"_apply_leg", "_leg_overlap"}


def _unpruned_residuals(n, rels, states, ctx):
    """Each relation's worst residual over ``states`` on the plain route,
    a relation whose exact image is empty included."""
    out = []
    for rel in rels:
        pieces = [gauss.represent_terms(n, (term,), ctx) for term in rel.terms]
        residuals = []
        for state in states:
            scale, image = norm(state), GaussianState.zero(n)
            for ops in pieces:
                piece = apply_ops(ops, state)
                scale = max(scale, norm(piece))
                image = image + piece
            residuals.append(norm(image) / scale)
        out.append(max(residuals))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_residuals_are_bit_identical_to_the_unpruned_route(
        n, monkeypatch, fresh_represent):
    # with R's first leg doubled some relations are live and the rest exact:
    # a live one's residual is the plain route's to the bit, an exact one's
    # is 0.0 where the plain route reads rounding
    monkeypatch.setattr(gauss, "_atom_variants", _planted("R-first-leg-doubled"))
    live = 0
    for seed in (1, 2):
        states = gauss.sample_states(n, random.Random(100 * seed + n), 3)
        for ctx in (CTX, NEG):
            gauss._represented.cache_clear()
            for rels in _catalogs(n):
                want = _unpruned_residuals(n, rels, states, ctx)
                got = gauss.check_relations_pointwise(n, rels, states, ctx)
                for rel, case, plain in zip(rels, got.cases, want,
                                            strict=True):
                    if gauss.torus_terms(n, rel.terms):
                        live += 1
                        assert case.residual.hex() == plain.hex()
                    else:
                        assert case.residual == 0.0
                        assert plain <= ctx.tolerance
    assert live > 0


@pytest.mark.parametrize("n, rels, name", [
    (2, weyl.localized_relations(2), "Qy[k=2,j=1]"),
    (1, weyl.ab_rho_relations(1), "qAB1[unit,1]"),
])
def test_a_doubled_term_makes_a_cancelling_relation_live(n, rels, name):
    index = next(i for i, rel in enumerate(rels) if rel.name == name)
    (scalar, atoms), *rest = rels[index].terms
    doubled = weyl.Relation(name, ((scalar + scalar, atoms), *rest))
    states = gauss.sample_states(n, random.Random(9), 3)
    assert gauss.check_relations_pointwise(n, rels, states, CTX).ok
    # the doubled relation's image is its first term's, exactly
    assert gauss.torus_terms(n, rels[index].terms) == {}
    assert gauss.torus_terms(n, doubled.terms) == \
        gauss.torus_terms(n, ((scalar, atoms),)) != {}
    planted = list(rels)
    planted[index] = doubled
    rep = gauss.check_relations_pointwise(n, planted, states, CTX)
    assert [c.case for c in rep.failures()] == [name]
    pieces = [gauss.represent_terms(n, (term,), CTX) for term in doubled.terms]
    want = max(_pieces_residual_reference(pieces, state, norm(state))
               for state in states)
    assert rep.cases[index].residual == pytest.approx(want, rel=1e-9)


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


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_hermiticity_residuals_are_bit_identical_to_the_per_pair_loop(data):
    n = data.draw(st.integers(1, 2))
    states = []
    for _ in range(data.draw(st.integers(1, 3))):
        state = GaussianState.zero(n)
        for _ in range(data.draw(st.integers(1, 2))):
            legs = [(data.draw(st.floats(0.5, 2.0)),
                     complex(data.draw(_part), data.draw(_part)))
                    for _ in range(n)]
            amp = complex(data.draw(_amp_part), data.draw(_amp_part))
            state = state + GaussianState.from_legs(amp, legs)
        assume(not state.is_zero)
        states.append(state)
    for ctx in (CTX, NEG):
        want = _hermiticity_reference(n, states, ctx).cases
        got = gauss.check_hermiticity_pointwise(n, states, ctx).cases
        assert [c.case for c in got] == [c.case for c in want]
        assert [c.residual.hex() for c in got] == \
            [c.residual.hex() for c in want]


def test_pointwise_checks_refuse_zero_states():
    with pytest.raises(ValueError, match="at least one state"):
        gauss.check_relations_pointwise(1, weyl.coordinate_relations(1), [], CTX)
    with pytest.raises(ValueError, match="at least one state"):
        gauss.check_hermiticity_pointwise(1, [], CTX)


def test_pointwise_relation_check_refuses_zero_relations():
    states = gauss.sample_states(1, random.Random(1), 2)
    with pytest.raises(ValueError, match="at least one relation"):
        gauss.check_relations_pointwise(1, [], states, CTX)


def test_pointwise_relation_check_refuses_a_state_of_another_rank():
    states = gauss.sample_states(2, random.Random(2), 2)
    with pytest.raises(ShapeMismatch, match="operator has 3 legs, state has 2"):
        gauss.check_relations_pointwise(3, weyl.coordinate_relations(3),
                                        states, CTX)


# -- sweeps split across processes ---------------------------------------------


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _processes(monkeypatch, count):
    """Make every sweep of this test take ``count`` processes if it has the
    states; return the pids that ``os.fork`` gives the parent."""
    monkeypatch.setattr(gauss, "WORK_PER_PROCESS", 1 if count > 1 else 10 ** 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    fork = os.fork
    pids = []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _reaped(monkeypatch):
    """Record the status of each child that ``os.waitpid`` reaps; return
    the list of statuses."""
    waitpid = os.waitpid
    statuses = []

    def recorded(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped:
            statuses.append(status)
        return reaped, status

    monkeypatch.setattr(os, "waitpid", recorded)
    return statuses


def _killed(statuses):
    return any(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL
               for s in statuses)


def _split_sweeps(n):
    """The two sweeps that still fork: invariance at rank ``n`` and the
    two-component model, each over seven samples."""
    rng = random.Random(40 + n)
    states = [gauss.model2_random_state(rng) for _ in range(7)]
    return [haar.check_invariance(n, haar.IntegralContext(ctx=CTX), count=7,
                                  seed=40 + n), gauss.check_model2(states, CTX)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_sweep_reports_what_one_process_reports(n, monkeypatch,
                                                      no_child_left):
    _processes(monkeypatch, 1)
    want = _split_sweeps(n)
    for count in (2, 3):
        pids = _processes(monkeypatch, count)
        got = _split_sweeps(n)
        assert len(pids) == 2 * (count - 1)
        for g, w in zip(got, want, strict=True):
            assert g.lines() == w.lines()
            assert [c.residual.hex() for c in g.cases] == \
                [c.residual.hex() for c in w.cases]


def _failing_model2(monkeypatch, name, fail):
    """Patch ``_m2_relation_residual`` to call ``fail(state)`` first on each
    state of the two-component relation ``name``'s sweep."""
    catalog = {rel.name: rel.terms for rel in weyl.localized_relations(1)}
    target = [gauss.model2_represent((term,), CTX) for term in catalog[name]]
    residual = gauss._m2_relation_residual

    def patched(op_terms, state):
        if op_terms == target:
            fail(state)
        return residual(op_terms, state)

    monkeypatch.setattr(gauss, "_m2_relation_residual", patched)


def _sampled_model2_states(seed):
    rng = random.Random(seed)
    return [gauss.model2_random_state(rng) for _ in range(6)]


# the chunks of three processes are states 0-1, 2-3 and 4-5
@pytest.mark.parametrize("failing", [(3, 5), (0, 5), (5,)])
def test_split_sweep_raises_what_one_process_raises(failing, monkeypatch,
                                                    no_child_left):
    states = _sampled_model2_states(3)

    def fail(state):
        for i in failing:
            if state is states[i]:
                raise ArithmeticError(f"state {i}")

    # the third of the model's four relations
    _failing_model2(monkeypatch, "Qxy[x]", fail)
    for count in (1, 3):
        pids = _processes(monkeypatch, count)
        with pytest.raises(ArithmeticError) as err:
            gauss.check_model2(states, CTX)
        assert len(pids) == count - 1
        assert str(err.value) == f"state {failing[0]}"


# the chunks of three processes are jobs 0-1, 2-3 and 4-5
@pytest.mark.parametrize("count", [1, 3])
def test_sweep_refuses_a_nan_residual(count, monkeypatch, no_child_left):
    def residual(case, job):
        return math.nan if (case, job) == (1, 3) else 1e-3 * job

    pids = _processes(monkeypatch, count)
    rep = SuiteReport("planted")
    with pytest.raises(OverflowError) as err:
        gauss._sweep(rep, 1e-2, [("a", 0), ("b", 1), ("c", 2)],
                     [(job,) for job in range(6)], residual, 6)
    assert len(pids) == count - 1
    assert str(err.value) == "the b planted residual is nan"
    assert [c.case for c in rep.cases] == ["a"]


def test_split_sweep_outlives_a_killed_child(monkeypatch, no_child_left):
    states = _sampled_model2_states(4)
    _processes(monkeypatch, 1)
    want = gauss.check_model2(states, CTX).lines()
    parent = os.getpid()

    def die(state):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_model2(monkeypatch, "Qxy[y]", die)
    pids, statuses = _processes(monkeypatch, 3), _reaped(monkeypatch)
    assert gauss.check_model2(states, CTX).lines() == want
    assert len(pids) == 2
    assert _killed(statuses)


def _invariance(seed=5):
    """The invariance suite at n=3 on six sampled operators."""
    return haar.check_invariance(3, haar.IntegralContext(ctx=CTX), count=6,
                                 seed=seed)


def test_split_invariance_reports_what_one_process_reports(monkeypatch,
                                                           no_child_left):
    for seed in (5, 7):
        _processes(monkeypatch, 1)
        want = _invariance(seed)
        for count in (2, 3):
            pids = _processes(monkeypatch, count)
            got = _invariance(seed)
            assert len(pids) == count - 1
            assert got.lines() == want.lines()
            assert [c.residual.hex() for c in got.cases] == \
                [c.residual.hex() for c in want.cases]


def _failing_action(monkeypatch, fail):
    """Patch ``haar._moved_trace``, the trace of one generator's image of
    one sample, to call ``fail(name, index)`` first, with the generator's
    name and the index of the sampled operator, and to scale the trace by
    what ``fail`` returns if that is not None.

    Returns the list of sampled operators, which a test empties before
    each run."""
    samples = []
    draw, moved = haar.random_finite_rank, haar._moved_trace

    def drawn(*args, **kwargs):
        samples.append(draw(*args, **kwargs))
        return samples[-1]

    def patched(g, parts, F, held, ictx):
        index = next(i for i, s in enumerate(samples) if s is F)
        factor = fail(uq._gen_str(g), index)
        out = moved(g, parts, F, held, ictx)
        return out if factor is None else out * factor

    monkeypatch.setattr(haar, "random_finite_rank", drawn)
    monkeypatch.setattr(haar, "_moved_trace", patched)
    return samples


# the chunks of three processes are samples 0-1, 2-3 and 4-5
@pytest.mark.parametrize("failing", [
    (("E1", 3), ("E1", 5)), (("E2", 5), ("F1", 0)), (("K3^-1", 0),)])
@pytest.mark.parametrize("nan", [False, True])
def test_split_invariance_raises_what_one_process_raises(failing, nan,
                                                         monkeypatch,
                                                         no_child_left):
    order = [uq._gen_str(g) for g in uq.generators(3)]
    first = min(failing, key=lambda f: (order.index(f[0]), f[1]))

    def fail(name, index):
        if (name, index) in failing:
            if nan:  # a residual that is not finite
                return math.nan
            raise ArithmeticError(f"{name} sample {index}")
        return None

    samples = _failing_action(monkeypatch, fail)
    for count in (1, 3):
        pids = _processes(monkeypatch, count)
        samples.clear()
        with pytest.raises(OverflowError if nan else ArithmeticError) as err:
            _invariance()
        assert len(pids) == count - 1
        assert str(err.value) == (
            f"the {first[0]} invariance residual is nan" if nan
            else f"{first[0]} sample {first[1]}")


def test_split_invariance_outlives_a_killed_child(monkeypatch, no_child_left):
    _processes(monkeypatch, 1)
    want = _invariance().lines()
    parent = os.getpid()

    def die(name, index):
        if name == "F2" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_action(monkeypatch, die)
    pids, statuses = _processes(monkeypatch, 3), _reaped(monkeypatch)
    assert _invariance().lines() == want
    assert len(pids) == 2
    assert _killed(statuses)


def test_only_rank_three_sweeps_fork(monkeypatch, capsys, no_child_left):
    # at the module's own WORK_PER_PROCESS, on two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    fork = os.fork
    pids = []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    assert cli.main(["verify", "--seed", "7"]) == 0
    assert pids == []
    assert cli.main(["verify", "--suite", "invariance", "--n", "3",
                     "--samples", "60"]) == 0
    assert len(pids) == 1
    capsys.readouterr()


_CLI_WITH_PROCESSES = """\
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from qweyl import cli, gauss
gauss.WORK_PER_PROCESS = 1 if sys.argv[1] != "1" else 10 ** 12
fork = os.fork
def counted():
    pid = fork()
    if pid:
        sys.stderr.write("forked\\n")
    return pid
os.fork = counted
print("printed before the sweep")
sys.exit(cli.main(sys.argv[2:]))
"""


def test_split_cli_run_prints_each_line_once(tmp_path):
    src = str(pathlib.Path(gauss.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # the child holds a copy of the buffer
    runs = []
    for count in ("1", "2"):
        out = tmp_path / f"report{count}.txt"
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_WITH_PROCESSES, count, "verify",
             "--suite", "invariance", "--n", "3", "--samples", "60",
             "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300)
        assert proc.stderr == ("forked\n" if count == "2" else "")
        head, report = proc.stdout.split("\n", 1)
        assert head == "printed before the sweep"
        assert out.read_text() == report
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0][1].splitlines()) == 1 + len(uq.generators(3))


def test_represent_memo_matches_fresh_build():
    gauss._represented.cache_clear()
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
    first.append(_identity_op(2))
    first[0] = _identity_op(2)
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
#
# The oracle: the model's operators written out by hand, composed and scaled
# pair by pair, and the four relations as lists of such operator terms.


def _oracle_operators(ctx, x_q_matrix=None):
    phi = ctx.phi
    s = 1.0 if phi > 0 else -1.0
    beta = 2.0 * phi - s * math.pi
    qv = ctx.q_value
    s01 = gauss.mat_mul(gauss.SIGMA0, gauss.SIGMA1)

    def op(scalar, leg, mat):
        return ElementaryOperator(scalar, (leg,), beta), mat

    return {
        "y": [op(1.0 + 0j, (1, 0), gauss.SIGMA1)],
        "x": [op(qv, (-1, 1), x_q_matrix or s01),
              op(1.0 + 0j, (-1, 0), gauss.SIGMA1)],
        "Q": [op(-1.0 + 0j, (0, 1), gauss.SIGMA0)],
        "Qinv": [op(-1.0 + 0j, (0, -1), gauss.SIGMA0)],
        "one": [op(1.0 + 0j, (0, 0), gauss.ID2)],
    }


def _m2_compose(after, before):
    """Compose two-component operators (``before`` acts first): the ``T``
    shift of ``a`` moves past the ``P`` shift of ``b`` at the float phase
    ``exp(-1j*beta*m0*t1)``."""
    out = []
    for a, ma in after:
        for b, mb in before:
            ((t0, m0),), ((t1, m1),) = b.legs, a.legs
            scalar = a.scalar * b.scalar * cmath.exp(-1j * b.phi * m0 * t1)
            op = ElementaryOperator(scalar, ((t0 + t1, m0 + m1),), a.phi)
            out.append((op, gauss.mat_mul(ma, mb)))
    return out


def _m2_scaled(c, ops):
    return [(ElementaryOperator(c * op.scalar, op.legs, op.phi), m)
            for op, m in ops]


def _oracle_relations(ctx, ops):
    """Each relation's operator terms, by case name, in the catalog's order."""
    qv, lam = ctx.q_value, 2j * math.sin(ctx.phi)
    rels = {"xy": [_m2_compose(ops["x"], ops["y"]),
                   _m2_scaled(-qv * qv, _m2_compose(ops["y"], ops["x"])),
                   _m2_scaled(-(1.0 - qv * qv), ops["one"])]}
    for coord in ("y", "x"):
        factor = qv * qv if coord == "y" else 1.0 / (qv * qv)
        rels[f"Qxy[{coord}]"] = [
            _m2_compose(ops["Q"], ops[coord]),
            _m2_scaled(-factor, _m2_compose(ops[coord], ops["Q"]))]
    rels["Qdef"] = [_m2_scaled(1.0 / lam, _m2_compose(ops["y"], ops["x"])),
                    _m2_scaled(-1.0 / lam, _m2_compose(ops["x"], ops["y"])),
                    _m2_scaled(-1.0, ops["Q"])]
    return rels


_M2_CATALOG = {"xy": "xy", "Qxy[y]": "Qxy[y]", "Qxy[x]": "Qxy[x]",
               "Qdef": "defQ[k=1]"}


def test_model2_suite_both_signs():
    rng = random.Random(23)
    for ctx in (CTX, NEG):
        states = [gauss.model2_random_state(rng) for _ in range(10)]
        rep = gauss.check_model2(states, ctx)
        assert rep.ok, [(c.case, c.residual) for c in rep.failures()]


def test_model2_refuses_zero_states():
    with pytest.raises(ValueError, match="at least one state"):
        gauss.check_model2([], CTX)


def test_model2_refuses_odd_powers_of_r():
    for power in (1, -1, 3, -5):
        with pytest.raises(ValueError, match=rf"not R1\^{power}$"):
            gauss.model2_represent(((ONE, (("R", 1, power),)),), CTX)
    with pytest.raises(ValueError, match="not R1"):
        gauss.model2_represent(weyl.gen_r(1, 1).as_terms(), CTX)
    for atom in (("y", 2), ("R", 2, 2), ("K", 1)):
        with pytest.raises(ValueError, match="no atom"):
            gauss.model2_represent(((ONE, (atom,)),), CTX)


def _model2_states_of(drawn):
    return [{(eps, complex(gr, gi), comp): complex(ar, ai)
             for (eps, gr, gi, comp), (ar, ai) in terms.items()}
            for terms in drawn]


def _model2_hermitian_reference(ops, states):
    """Each pair forms both of its images afresh, as ``lhs`` and ``rhs``."""
    worst = 0.0
    for i, u in enumerate(states):
        v = states[(i + 1) % len(states)]
        lhs = gauss.model2_inner(gauss.model2_apply(ops, u), v)
        rhs = gauss.model2_inner(u, gauss.model2_apply(ops, v))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def _model2_relation_reference(op_terms, states):
    """Each partial sum a fresh dict of ``1.0 * amp`` added in, term by term."""
    worst = 0.0
    for u in states:
        scale = gauss.model2_norm(u)
        total = {}
        for ops in op_terms:
            piece = gauss.model2_apply(ops, u)
            scale = max(scale, gauss.model2_norm(piece))
            total = accumulate(dict(total),
                               ((key, 1.0 * amp) for key, amp in piece.items()))
        worst = max(worst, gauss.model2_norm(total) / scale)
    return worst


_model2_states = st.lists(
    st.dictionaries(st.tuples(st.floats(0.5, 2.0), _part, _part,
                              st.integers(0, 1)),
                    st.tuples(_amp_part, _amp_part), min_size=1, max_size=2),
    min_size=1, max_size=4)


@given(drawn=_model2_states,
       phi=st.sampled_from([math.pi / 3, -0.9, 0.7, 1.2, -2.5]))
@settings(max_examples=60, deadline=None)
def test_model2_represent_acts_as_the_hand_table(drawn, phi):
    ctx = NumericContext(phi=phi)
    ops = _oracle_operators(ctx)
    r2 = _m2_scaled(-1.0, ops["Q"])  # R1^2 = -Q1
    atoms = {("y", 1): ops["y"], ("x", 1): ops["x"], ("R", 1, 2): r2,
             ("R", 1, -2): _m2_scaled(-1.0, ops["Qinv"]),
             ("R", 1, 4): _m2_compose(r2, r2),
             ("R", 1, -4): _m2_compose(ops["Qinv"], ops["Qinv"])}
    pairs = [(gauss.model2_represent(((ONE, (atom,)),), ctx), want)
             for atom, want in atoms.items()]
    catalog = {rel.name: rel.terms for rel in weyl.localized_relations(1)}
    for case, op_terms in _oracle_relations(ctx, ops).items():
        terms = catalog[_M2_CATALOG[case]]
        assert len(terms) == len(op_terms)
        pairs += [(gauss.model2_represent((term,), ctx), want)
                  for term, want in zip(terms, op_terms)]
    for state in _model2_states_of(drawn):
        for got_ops, want_ops in pairs:
            got = gauss.model2_apply(got_ops, state)
            want = gauss.model2_apply(want_ops, state)
            scale = max(map(abs, want.values()), default=0.0)
            for key in got.keys() | want.keys():
                assert abs(got.get(key, 0j) - want.get(key, 0j)) \
                    <= 1e-12 * scale


def test_model2_planted_sigma_order_fails_qdef():
    # SIGMA1*SIGMA0 = -SIGMA0*SIGMA1 on the q term of x breaks Qdef, in the
    # hand table and in the atom table alike
    rng = random.Random(5)
    states = [gauss.model2_random_state(rng) for _ in range(8)]
    s10 = gauss.mat_mul(gauss.SIGMA1, gauss.SIGMA0)
    oracle = _oracle_relations(CTX, _oracle_operators(CTX, x_q_matrix=s10))
    assert _model2_relation_reference(oracle["Qdef"], states) > CTX.tolerance
    atom_table = gauss._model2_atom

    def planted(atom, q_value):
        pairs = atom_table(atom, q_value)
        if atom[0] == "x":
            pairs[0] = (pairs[0][0], s10)
        return pairs

    with mock.patch.object(gauss, "_model2_atom", planted):
        rep = gauss.check_model2(states, CTX)
    assert "Qdef" in [c.case for c in rep.failures()]
    assert gauss.check_model2(states, CTX).ok


@given(drawn=_model2_states)
@settings(max_examples=100, deadline=None)
def test_model2_residuals_are_bit_identical_to_the_reference_loops(drawn):
    states = _model2_states_of(drawn)
    assume(all(any(state.values()) for state in states))
    residual = gauss._m2_relation_residual
    for ctx in (CTX, NEG):
        relations = []

        def recorded(op_terms, state):
            if state is states[0]:
                relations.append(op_terms)
            return residual(op_terms, state)

        with mock.patch.object(gauss, "_m2_relation_residual", recorded):
            cases = gauss.check_model2(states, ctx).cases
        ops = _oracle_operators(ctx)
        want = [_model2_relation_reference(op_terms, states)
                for op_terms in relations]
        want += [_model2_hermitian_reference(ops[name], states)
                 for name in ("y", "x", "Q")]
        assert [c.case for c in cases[:7]] == [
            "xy", "Qxy[y]", "Qxy[x]", "Qdef",
            "hermitian[y]", "hermitian[x]", "hermitian[Q]"]
        assert [c.residual.hex() for c in cases[:7]] == [r.hex() for r in want]


def test_model2_sigma_anticommutation_exact():
    s01 = gauss.mat_mul(gauss.SIGMA0, gauss.SIGMA1)
    s10 = gauss.mat_mul(gauss.SIGMA1, gauss.SIGMA0)
    assert all(s01[i][j] + s10[i][j] == 0 for i in range(2) for j in range(2))


def test_model2_q_display_matches_quadrature():
    # the model's scale operator against a quadrature of the shifted packet
    ctx = CTX
    ops = gauss.model2_represent(weyl.q_elem(1, 1).as_terms(), ctx)
    state = {(1.0, 0.3 + 0.1j, 0): 1.0 + 0j}
    image = gauss.model2_apply(ops, state)
    ((eps, gam, comp), amp), = image.items()
    assert comp == 0
    beta = 2 * ctx.phi - math.copysign(math.pi, ctx.phi)
    for t in (-0.9, 0.2, 1.4):
        direct = -packet_value(1.0, 0.3 + 0.1j, t + 1j * beta)
        got = amp * cmath.exp(-eps * t * t + gam * t)
        assert got == pytest.approx(direct, rel=1e-12)
