import cmath
import collections
import dataclasses
import math
import os
import pathlib
import random
import signal
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from qweyl import cli, gauss, haar, uq, weyl
from qweyl.coeff import NumericContext
from qweyl.errors import ShapeMismatch
from qweyl.gauss import (ElementaryOperator, GaussianState, _apply_leg,
                         _compose_legs, apply_ops, inner, norm, represent,
                         represent_word)
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
    phi = 0.75
    phase, leg = _compose_legs((0, 2), (3, 0), phi)
    assert leg == (3, 2)
    assert phase == pytest.approx(cmath.exp(-6j * phi))
    phase, leg = _compose_legs((0, 1), (0, -1), phi)
    assert phase == 1.0
    assert leg == (0, 0)


def test_operator_word_exchange_collapses_identically():
    # the exchange relation holds at the level of composed operator data
    phi = -0.625
    lhs = ElementaryOperator(1.0 + 0j, ((3, 2),), phi)
    p_first = ElementaryOperator(1.0 + 0j, ((0, 2),), phi)
    rhs = ElementaryOperator(cmath.exp(1j * 2 * phi * 3),
                             ((3, 0),), phi).applied_after(p_first)
    assert lhs.legs == rhs.legs
    assert lhs.scalar == pytest.approx(rhs.scalar, rel=1e-15)


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
    """``(scalar, float legs)`` per term, in ``represent_word``'s order."""
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
    scalar = complex(data.draw(_unit), data.draw(_unit))
    got = represent_word(n, atoms, ctx, scalar)
    want = _float_represent_word(n, atoms, ctx, scalar)
    assert len(got) == len(want)
    for op, (value, legs) in zip(got, want):
        assert op.phi == ctx.phi
        assert all(type(t) is int and type(m) is int for t, m in op.legs)
        assert [t for t, _ in op.legs] == [t for t, _ in legs]
        for (_, m), (_, p) in zip(op.legs, legs):
            assert abs(m * ctx.phi - p) <= 1e-12
        assert abs(op.scalar - value) <= 1e-12


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
    rel = weyl.Relation("one-minus-one", weyl.tl((1, ()), (-1, ())))
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
                # every relation holds: both routes sit at the float floor
                assert abs(got - _residual_reference(n, rel, state, CTX)) \
                    <= 1e-14
                worst = max(worst, got)
            assert case.residual == worst


def _planted(defect):
    """``_atom_variants`` with one defect in its atom table."""
    variants = gauss._atom_variants

    def planted(atom, n, ctx):
        ops = variants(atom, n, ctx)
        if atom[0] == "x" and defect == "x-q-squared":
            ops[0] = dataclasses.replace(ops[0],
                                         scalar=ops[0].scalar * ctx.q_value)
        elif atom[0] == "x" and defect == "x-second-sign":
            ops[1] = dataclasses.replace(ops[1], scalar=-ops[1].scalar)
        elif atom[0] == "R" and defect == "R-first-leg-doubled":
            (t, m), *rest = ops[0].legs
            ops[0] = dataclasses.replace(ops[0], legs=((t, 2 * m), *rest))
        return ops

    return planted


# how many of the 139 relations at n=3 each defect breaks
_PLANTED_FAILURES = {"x-q-squared": 13, "x-second-sign": 19,
                     "R-first-leg-doubled": 63}


@pytest.mark.parametrize("defect", ["x-q-squared", "x-second-sign",
                                    "R-first-leg-doubled"])
def test_planted_defects_fail_the_pointwise_check(defect, monkeypatch):
    n = 3
    states = gauss.sample_states(n, random.Random(8), 3)
    rels = weyl.coordinate_relations(n) + weyl.localized_relations(n) + \
        weyl.ab_rho_relations(n)
    assert len(rels) == 139
    assert gauss.check_relations_pointwise(n, rels, states, CTX).ok
    monkeypatch.setattr(gauss, "_atom_variants", _planted(defect))
    rep = gauss.check_relations_pointwise(n, rels, states, CTX)
    assert len(rep.failures()) == _PLANTED_FAILURES[defect]
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


def _flip_zero(x):
    return -x if x == 0 else x


_part = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.0]), st.floats(-1.4, 1.4))
_pool = st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.5]), _part, _part),
                 min_size=1, max_size=4)
# amplitude parts stay clear of the underflow that zeroes a norm
_amp_part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 1.0),
                      st.floats(-1.0, -0.01))
_shift = st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (-1, 1)])


def _draw_pieces(data, n, phi):
    """One to four pieces of one to three operators at ``phi``, each piece
    with distinct legs, and some piece the negative of the one before."""
    pieces = []
    for _ in range(data.draw(st.integers(1, 4))):
        merged = accumulate({}, (
            (tuple(data.draw(st.lists(_shift, min_size=n, max_size=n))),
             complex(data.draw(_amp_part), data.draw(_amp_part)))
            for _ in range(data.draw(st.integers(1, 3)))))
        ops = [ElementaryOperator(c, legs, phi) for legs, c in merged.items()]
        pieces.append(ops)
        if data.draw(st.booleans()):  # a piece that cancels the last one
            pieces.append([ElementaryOperator(-op.scalar, op.legs, op.phi)
                           for op in ops])
    return pieces


def _gram_norms(pieces, state):
    """The norms of each piece and of their sum, through the Gram route:
    a residual against scale 1 is the norm of its last form."""
    table, ((_, forms),) = gauss._gram_cases([("r", pieces)])
    gram = []
    return [gauss._gram_residual(table, [form], state, 1.0, gram)
            for form in forms]


def _unit_ops(legs, units):
    """The unit operators that ``_gram_cases`` numbers, each a tuple of
    numbers into its ``(position, leg, phi)`` legs."""
    return [ElementaryOperator(1.0 + 0j, tuple(legs[k][1] for k in unit),
                               legs[unit[0]][2]) for unit in units]


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _table_reference(legs, units, pairs, state):
    """The Gram table through ``apply_ops`` and ``inner``."""
    images = [apply_ops([op], state) for op in _unit_ops(legs, units)]
    return [inner(images[a], images[b]) for a, b in pairs]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_shared_overlap_table_is_bit_identical(data):
    # legs come from a small pool, some with the signs of their zero parts
    # flipped, so terms and images share legs; relations share operators
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
    cases = [(f"r{i}", _draw_pieces(data, n, 0.25))
             for i in range(data.draw(st.integers(1, 3)))]
    scale = norm(state)
    assert scale == _norm_pairs_reference(state)
    table, shared_cases = gauss._gram_cases(cases)
    shared = []
    for case, (_, forms) in zip(cases, shared_cases):
        got = gauss._gram_residual(table, forms, state, scale, shared)
        # the same relation alone, with a table of its own
        alone_table, ((_, alone),) = gauss._gram_cases([case])
        want = gauss._gram_residual(alone_table, alone, state, scale, [])
        assert got.hex() == want.hex()
    # signed zeros count
    assert [_hex(z) for z in shared] == \
        [_hex(z) for z in _table_reference(*table, state)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_tables_of_the_catalogs_are_bit_identical(n):
    states = gauss.sample_states(n, random.Random(70 + n), 3)
    catalogs = [weyl.coordinate_relations(n) + weyl.localized_relations(n),
                weyl.ab_rho_relations(n)]
    for ctx in (CTX, NEG):
        for rels in catalogs:
            table, _ = gauss._gram_cases(
                [(rel.name, [gauss.represent_terms(n, (term,), ctx)
                             for term in rel.terms]) for rel in rels])
            for state in states:
                assert [_hex(z) for z in gauss._gram_table(*table, state)] == \
                    [_hex(z) for z in _table_reference(*table, state)]


def test_gram_table_merges_and_cancels_as_apply_ops_does():
    # under the leg (1, 0) the first two terms' images round to one key,
    # gamma = 1.0, and their amplitudes cancel
    state = GaussianState.from_legs(1.0, [(1.0, 0j)]) \
        + GaussianState.from_legs(-1.0, [(1.0, 1e-17)]) \
        + GaussianState.from_legs(0.5j, [(0.7, 0.3j)])
    assert len(state.terms) == 3
    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (-1, 2), (1, 1)]
    ops = [ElementaryOperator(1.0 + 0j, (leg,), CTX.phi) for leg in shifts]
    assert len(apply_ops([ops[1]], state).terms) == 1
    # one piece of every operator needs every pair
    table, _ = gauss._gram_cases([("r", [ops])])
    assert len(table[2]) == len(ops) * (len(ops) + 1) // 2
    assert [_hex(z) for z in gauss._gram_table(*table, state)] == \
        [_hex(z) for z in _table_reference(*table, state)]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_gram_route_norms_match_the_term_level_norms(data):
    n = data.draw(st.integers(1, 3))
    phi = data.draw(st.floats(0.05, 1.5)) * data.draw(st.sampled_from([-1, 1]))
    state = GaussianState.zero(n)
    for _ in range(data.draw(st.integers(1, 3))):
        legs = [(data.draw(st.floats(0.5, 2.0)),
                 complex(data.draw(st.floats(-1.4, 1.4)),
                         data.draw(st.floats(-1.4, 1.4)))) for _ in range(n)]
        amp = complex(data.draw(_amp_part), data.draw(_amp_part))
        state = state + GaussianState.from_legs(amp, legs)
    assume(not state.is_zero)
    pieces = _draw_pieces(data, n, phi)
    sums = pieces + [[op for ops in pieces for op in ops]]
    for got, ops in zip(_gram_norms(pieces, state), sums, strict=True):
        want = norm(apply_ops(ops, state))
        # relative to the triangle bound, which is the norm unless the
        # operators' images cancel
        bound = sum(norm(apply_ops([op], state)) for op in ops)
        assert abs(got * got - want * want) <= 1e-12 * bound * bound


def _unit_pairs(legs):
    """The unordered pairs, the diagonal included, of a list of legs."""
    return {frozenset((a, b)) for a in legs for b in legs}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_evaluates_each_gram_entry_once(n, monkeypatch):
    rng = random.Random(90 + n)
    states = [gauss.random_state(n, rng, max_terms=1)
              + gauss.random_state(n, rng, max_terms=1) for _ in range(3)]
    states += gauss.sample_states(n, rng, 3)
    rels = weyl.coordinate_relations(n) + weyl.localized_relations(n) + \
        weyl.ab_rho_relations(n)
    want = set()  # the operator pairs a piece or a relation's sum needs
    shifts = [set() for _ in range(n)]  # each position's distinct legs
    for rel in rels:
        pieces = [gauss.represent_terms(n, (term,), CTX) for term in rel.terms]
        merged = accumulate({}, (((op.legs, op.phi), op.scalar)
                                 for ops in pieces for op in ops))
        for keys in [[(op.legs, op.phi) for op in ops] for ops in pieces] \
                + [merged]:
            want |= _unit_pairs(keys)
        for ops in pieces:
            for op in ops:
                for i, leg in enumerate(op.legs):
                    shifts[i].add((leg, op.phi))
    table, shift, overlap = gauss._gram_table, gauss._apply_leg, \
        gauss._leg_overlap
    current, tables, shifted, overlaps = [], [], [], []

    def table_counted(legs, units, pairs, state):
        current[:] = [id(state)]
        gram = list(table(legs, units, pairs, state))
        ops = [(op.legs, op.phi) for op in _unit_ops(legs, units)]
        tables.append((id(state), [frozenset((ops[a], ops[b]))
                                   for a, b in pairs], len(gram)))
        return gram

    def shift_counted(eps, gamma, leg, phi):
        shifted.append((*current, eps, gamma, leg, phi))
        return shift(eps, gamma, leg, phi)

    def overlap_counted(e1, g1, e2, g2):
        overlaps.append((*current, e1, g1, e2, g2))
        return overlap(e1, g1, e2, g2)

    _processes(monkeypatch, 1)
    monkeypatch.setattr(gauss, "_gram_table", table_counted)
    monkeypatch.setattr(gauss, "_apply_leg", shift_counted)
    monkeypatch.setattr(gauss, "_leg_overlap", overlap_counted)
    gauss.check_relations_pointwise(n, rels, states, CTX)
    # one table per state, of one entry per needed pair and nothing else
    assert [s for s, _, _ in tables] == [id(s) for s in states]
    for _, entries, size in tables:
        assert size == len(entries) == len(want)
        assert set(entries) == want
    # each (position, term, distinct leg) shift once; sampled legs differ
    # between positions, so equal arguments would be a repeated evaluation
    assert collections.Counter(shifted) == collections.Counter(
        (id(s), eps, gam, leg, phi) for s in states for key in s.terms
        for (eps, gam), legs in zip(key, shifts) for leg, phi in legs)
    # each overlap of two shifted packets at most once per state
    assert max(collections.Counter(overlaps).values()) == 1


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_sweep_reports_what_one_process_reports(n, monkeypatch,
                                                      no_child_left):
    rng = random.Random(40 + n)
    states = gauss.sample_states(n, rng, 7)
    rels = weyl.coordinate_relations(n) + weyl.localized_relations(n) + \
        weyl.ab_rho_relations(n)
    _processes(monkeypatch, 1)
    want = gauss.check_relations_pointwise(n, rels, states, CTX)
    for count in (2, 3):
        pids = _processes(monkeypatch, count)
        got = gauss.check_relations_pointwise(n, rels, states, CTX)
        assert len(pids) == count - 1
        assert got.lines() == want.lines()
        assert [c.residual.hex() for c in got.cases] == \
            [c.residual.hex() for c in want.cases]


def _failing_residual(monkeypatch, n, rels, index, fail):
    """Patch ``_gram_residual`` to call ``fail(state)`` first on each state
    of ``rels[index]``'s sweep."""
    _, cases = gauss._gram_cases(
        [(rel.name, [gauss.represent_terms(n, (term,), CTX)
                     for term in rel.terms]) for rel in rels])
    target = cases[index][1]
    assert [forms for _, forms in cases].count(target) == 1
    residual = gauss._gram_residual

    def patched(table, forms, state, scale, gram):
        if forms == target:
            fail(state)
        return residual(table, forms, state, scale, gram)

    monkeypatch.setattr(gauss, "_gram_residual", patched)


# the chunks of three processes are states 0-1, 2-3 and 4-5
@pytest.mark.parametrize("failing", [(3, 5), (0, 5), (5,)])
def test_split_sweep_raises_what_one_process_raises(failing, monkeypatch,
                                                    no_child_left):
    n = 2
    states = gauss.sample_states(n, random.Random(3), 6)
    rels = weyl.coordinate_relations(n)

    def fail(state):
        for i in failing:
            if state is states[i]:
                raise ArithmeticError(f"state {i}")

    _failing_residual(monkeypatch, n, rels, 2, fail)
    for count in (1, 3):
        pids = _processes(monkeypatch, count)
        with pytest.raises(ArithmeticError) as err:
            gauss.check_relations_pointwise(n, rels, states, CTX)
        assert len(pids) == count - 1
        assert str(err.value) == f"state {failing[0]}"


def test_split_sweep_outlives_a_killed_child(monkeypatch, no_child_left):
    n = 2
    states = gauss.sample_states(n, random.Random(4), 6)
    rels = weyl.coordinate_relations(n)
    _processes(monkeypatch, 1)
    want = gauss.check_relations_pointwise(n, rels, states, CTX).lines()
    parent = os.getpid()

    def die(state):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_residual(monkeypatch, n, rels, 1, die)
    pids = _processes(monkeypatch, 3)
    assert gauss.check_relations_pointwise(n, rels, states, CTX).lines() == want
    assert len(pids) == 2


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
    """Patch ``haar.act_on_operator`` to call ``fail(name, index)`` first,
    with the generator's name and the index of the sampled operator, and
    to scale its image by what ``fail`` returns if that is not None.

    Returns the list of sampled operators, which a test empties before
    each run."""
    samples = []
    draw, act = haar.random_finite_rank, haar.act_on_operator

    def drawn(*args, **kwargs):
        samples.append(draw(*args, **kwargs))
        return samples[-1]

    def patched(g, F, ctx):
        index = next(i for i, s in enumerate(samples) if s is F)
        factor = fail(uq._gen_str(g), index)
        out = act(g, F, ctx)
        return out if factor is None else out.scaled(factor)

    monkeypatch.setattr(haar, "random_finite_rank", drawn)
    monkeypatch.setattr(haar, "act_on_operator", patched)
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
    pids = _processes(monkeypatch, 3)
    assert _invariance().lines() == want
    assert len(pids) == 2


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
             "--suite", "pointwise", "--n", "3", "--samples", "60",
             "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=300)
        assert proc.stderr == ("forked\n" if count == "2" else "")
        head, report = proc.stdout.split("\n", 1)
        assert head == "printed before the sweep"
        assert out.read_text() == report
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0][1].splitlines()) == 1 + len(
        weyl.coordinate_relations(3) + weyl.localized_relations(3)
        + weyl.hermitian_generators(3))


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


def test_model2_suite_both_signs():
    rng = random.Random(23)
    for ctx in (CTX, NEG):
        states = [gauss.model2_random_state(rng) for _ in range(10)]
        rep = gauss.check_model2(states, ctx)
        assert rep.ok, [(c.case, c.residual) for c in rep.failures()]


def test_model2_refuses_zero_states():
    with pytest.raises(ValueError, match="at least one state"):
        gauss.check_model2([], CTX)


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


@given(drawn=_model2_states)
@settings(max_examples=100, deadline=None)
def test_model2_residuals_are_bit_identical_to_the_reference_loops(drawn):
    states = [{(eps, complex(gr, gi), comp): complex(ar, ai)
               for (eps, gr, gi, comp), (ar, ai) in terms.items()}
              for terms in drawn]
    assume(all(any(state.values()) for state in states))
    residual = gauss._m2_relation_residual
    for ctx in (CTX, NEG):
        relations = []

        def recorded(op_terms, states):
            relations.append(op_terms)
            return residual(op_terms, states)

        with mock.patch.object(gauss, "_m2_relation_residual", recorded):
            cases = gauss.check_model2(states, ctx).cases
        ops = gauss.model2_operators(ctx)
        want = [_model2_relation_reference(op_terms, states)
                for op_terms in relations]
        want += [_model2_hermitian_reference(ops[name], states)
                 for name in ("y", "x", "Q")]
        assert [c.case for c in cases[:7]] == [
            "xy", "Qxy[y]", "Qxy[x]", "Qdef",
            "hermitian[y]", "hermitian[x]", "hermitian[Q]"]
        assert [c.residual.hex() for c in cases[:7]] == [r.hex() for r in want]


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
