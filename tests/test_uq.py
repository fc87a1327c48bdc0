import random

import pytest

from qweyl import coeff, uq, weyl
from qweyl.coeff import LAMBDA_INV, ONE, q0_power, q_power
from qweyl.errors import DescriptorMismatch, IndexOutOfRange
from qweyl.parser import parse_hopf, parse_scalar
from qweyl.uq import (E, F, K, KINV, HopfElement, act, act_element, antipode,
                      antipode_element, coproduct, counit)
from qweyl.weyl import AlgebraElement, gen_x, gen_y


def hopf(n, kind, j):
    return HopfElement.generator(n, kind, j)


def test_counit_table():
    assert counit(hopf(2, K, 1)) == ONE
    assert counit(hopf(2, KINV, 2)) == ONE
    assert counit(hopf(2, E, 1)).is_zero
    assert counit(hopf(2, F, 2)).is_zero


def test_counit_homomorphism_and_linearity():
    assert counit(hopf(1, E, 1) * hopf(1, F, 1)).is_zero
    assert counit(hopf(1, K, 1) + hopf(1, E, 1)) == ONE
    word = hopf(2, K, 1) * hopf(2, KINV, 2) * hopf(2, K, 2)
    assert counit(word) == ONE


def test_coproduct_table():
    n = 2
    kk = coproduct(n, (K, 1))
    assert kk == [(hopf(n, K, 1), hopf(n, K, 1))]
    ee = coproduct(n, (E, 1))
    assert ee == [(hopf(n, E, 1), HopfElement.unit(n)),
                  (hopf(n, K, 1), hopf(n, E, 1))]
    ff = coproduct(n, (F, 2))
    assert ff == [(hopf(n, F, 2), hopf(n, KINV, 2)),
                  (HopfElement.unit(n), hopf(n, F, 2))]


def test_antipode_table():
    n = 2
    assert antipode(n, (K, 1)) == hopf(n, KINV, 1)
    assert antipode(n, (KINV, 1)) == hopf(n, K, 1)
    assert antipode(n, (E, 1)) == -(hopf(n, KINV, 1) * hopf(n, E, 1))
    assert antipode(n, (F, 2)) == -(hopf(n, F, 2) * hopf(n, K, 2))


def test_antipode_element_antimultiplicative():
    n = 2
    w = hopf(n, E, 1) * hopf(n, F, 2)
    got = antipode_element(w)
    want = antipode(n, (F, 2)) * antipode(n, (E, 1))
    assert got == want


def test_hopf_star_reverses_words():
    n = 2
    w = (coeff.I * LAMBDA_INV) * (hopf(n, E, 1) * hopf(n, K, 2))
    got = w.star()
    want = (coeff.I * LAMBDA_INV).star() * (hopf(n, K, 2) * hopf(n, E, 1))
    assert got == want


# -- the action -----------------------------------------------------------------


def test_action_pinned_values():
    # lowering the top coordinate hits the unit
    for n in (1, 2, 3):
        got = act((F, n), gen_y(n, n))
        assert got == AlgebraElement.unit(n).scaled(coeff.I)
        got = act((E, n), gen_x(n, n))
        assert got == AlgebraElement.unit(n).scaled(-coeff.I * q_power(-1))
    for n in (2, 3):
        for j in range(1, n):
            got = act((E, j), gen_x(n, j))
            assert got == (coeff.I * q0_power(-1)) * gen_x(n, j + 1)


def test_action_table_full():
    for n in (1, 2, 3):
        report = uq.check_action_table(n)
        assert report.ok, [c.case for c in report.failures()]


def test_action_table_subalgebra_restriction():
    for n in (2, 3):
        report = uq.check_action_table(n, jmax=n - 1)
        assert report.ok


def test_single_pair_action_matches_signed_conjugator():
    # at one coordinate pair the signed square conjugates identically
    q_el = weyl.q_elem(1, 1)
    q_in = weyl.q_elem_inv(1, 1)
    for f in (gen_y(1, 1), gen_x(1, 1), gen_y(1, 1) * gen_y(1, 1),
              gen_x(1, 1) * gen_y(1, 1) * gen_y(1, 1)):
        assert q_el * f * q_in == act((K, 1), f)
        assert q_in * f * q_el == act((KINV, 1), f)


def test_act_element_word_composition():
    n = 2
    f = gen_y(n, 1) * gen_x(n, 2)
    unit_word = hopf(n, K, 1) * hopf(n, KINV, 1)
    assert act_element(unit_word, f) == f
    assert act_element(HopfElement.unit(n), f) == f
    nested = act((E, 1), act((F, 2), f))
    assert act_element(hopf(n, E, 1) * hopf(n, F, 2), f) == nested


def test_ef_commutator_matches_cartan_side():
    n = 1
    lhs_word = (hopf(n, E, 1) * hopf(n, F, 1)
                - hopf(n, F, 1) * hopf(n, E, 1))
    rhs_word = LAMBDA_INV * (hopf(n, K, 1) - hopf(n, KINV, 1))
    for f in uq.coordinate_monomials(1, 4):
        assert act_element(lhs_word, f) == act_element(rhs_word, f)


# -- the memoized action against the whole-element formula -----------------------


def _direct_action(g, f):
    """``g > f`` as one sandwich product on the whole element."""
    kind, j = g
    n = f.n
    rho, rho_inv = weyl.rho(n, j), weyl.rho_inv(n, j)
    if kind == K:
        return rho * f * rho_inv
    if kind == KINV:
        return rho_inv * f * rho
    if kind == E:
        a = weyl.a_op(n, j)
        return a * f - rho * f * (rho_inv * a)
    b = weyl.b_op(n, j)
    return b * f * rho - q_power(2) * (f * (rho * b))


def _direct_action_element(h, f):
    out = AlgebraElement.zero(f.n)
    for word, cv in h.terms.items():
        acc = f
        for g in reversed(word):
            acc = _direct_action(g, acc)
        out = out + acc.scaled(cv)
    return out


_COEFFS = [parse_scalar(text) for text in (
    "1", "1/(q0+1)", "(q0^2 + i)/(q0^3 - 2)", "-3/2*q0", "lambda",
    "i*q^-1", "(1 - q0)/(q0^4 - 1)")]


def _random_element(n, rng, terms=3):
    words = []
    for _ in range(terms):
        atoms = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("R", "y", "x"))
            k = rng.randint(1, n)
            atoms.append(("R", k, rng.choice((-2, -1, 1, 2)))
                         if kind == "R" else (kind, k))
        words.append((rng.choice(_COEFFS), tuple(atoms)))
    return weyl.normal_form(n, words)


def test_memoized_action_matches_direct_sandwich():
    rng = random.Random(31)
    for n in (1, 2, 3):
        elements = [_random_element(n, rng) for _ in range(3)]
        assert any(len(f.terms) > 1 for f in elements)
        for g in uq.generators(n):
            uq._ACT_MEMO.clear()
            for f in elements:
                want = _direct_action(g, f)
                cold = act(g, f)
                assert cold == want, (g, str(f))
                # the returned terms are the caller's to change
                cold.terms.clear()
                assert act(g, f) == want, (g, str(f))


def test_memoized_action_element_matches_direct_words():
    rng = random.Random(32)
    words = {1: "K1*E1 - lambda*F1*K1^-1 + (1/(q0+1))*E1*F1",
             2: "K1*E2*F1 - lambda*K2^-1 + (1/2)*F2*E1",
             3: "E3*F2*K1 + (q0/(q0^2 - 3))*F3*E1 - K2^-1"}
    for n, text in words.items():
        h = parse_hopf(text, n)
        f = _random_element(n, rng)
        uq._ACT_MEMO.clear()
        want = _direct_action_element(h, f)
        assert act_element(h, f) == want
        assert act_element(h, f) == want


def test_act_index_and_descriptor_errors():
    with pytest.raises(IndexOutOfRange):
        act((E, 3), gen_y(2, 1))
    with pytest.raises(ValueError):
        act(("G", 1), AlgebraElement.zero(1))
    with pytest.raises(DescriptorMismatch):
        act_element(HopfElement.generator(1, E, 1), gen_y(2, 1))


def test_module_algebra_small_sweep():
    for n in (1, 2):
        report = uq.check_module_algebra(n, degree=2)
        assert report.ok, [(c.case, c.detail) for c in report.failures()]


def test_module_algebra_unit_case():
    rep = uq.check_module_algebra(1, degree=0)
    assert rep.ok


def test_defining_relations_through_action():
    for n in (1, 2):
        report = uq.check_defining_relations(n, degree=2)
        assert report.ok, [c.case for c in report.failures()]


def test_relation_compat_degree_four():
    # full sweep at two pairs; deterministic sample of the rank-3 sweep
    # (the exhaustive rank-3 run passes too but takes minutes)
    import random as _random

    report = uq.check_defining_relations(2, degree=4)
    assert report.ok, [c.case for c in report.failures()]
    rng = _random.Random(42)
    monomials = uq.coordinate_monomials(3, 4)
    for name, rel in uq.defining_relations(3):
        for f in rng.sample(monomials, 5):
            assert uq.act_element(rel, f).is_zero, name


def test_relation_sweep_rank_three_degree_four():
    report = uq.check_defining_relations(3, degree=4)
    assert report.ok, [c.case for c in report.failures()]


def test_subalgebra_relations_through_action():
    report = uq.check_defining_relations(2, degree=2, jmax=1)
    assert report.ok


def test_star_compatibility_examples():
    # (F > f)* == S(F)* > f*
    n = 1
    sstar = antipode(n, (F, 1)).star()
    assert sstar == -(hopf(n, K, 1) * hopf(n, F, 1))
    for f in (gen_y(1, 1), gen_x(1, 1), gen_y(1, 1) * gen_y(1, 1)):
        assert act((F, 1), f).star() == act_element(sstar, f.star())


def test_cartan_matrix():
    cart = weyl.cartan_matrix(3)
    assert cart == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
