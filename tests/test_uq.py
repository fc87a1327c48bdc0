import argparse
import random

import pytest

from qweyl import cli, coeff, uq, weyl
from qweyl.coeff import LAMBDA_INV, ONE, q0_power, q_power
from qweyl.errors import DescriptorMismatch, IndexOutOfRange
from qweyl.parser import parse_hopf, parse_scalar
from qweyl.report import SuiteReport
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


def test_module_algebra_acts_once_per_leg_and_monomial(monkeypatch):
    calls = []

    def counted(h, f, _act_element=uq.act_element):
        calls.append(h)
        return _act_element(h, f)

    monkeypatch.setattr(uq, "act_element", counted)
    m = len(uq.coordinate_monomials(1, 2))
    gens = uq.generators(1)
    terms = sum(len(coproduct(1, g)) for g in gens)
    assert uq.check_module_algebra(1, degree=2).ok
    # Leibniz: both legs of each coproduct term on each monomial; star
    # compatibility: one image per monomial; antipode: one per term and monomial
    assert len(calls) == 2 * terms * m + len(gens) * m + terms * m


def _leibniz_witness(n, g, monomials):
    """The first failing ``(f1, f2)`` of the Leibniz rule, acting pairwise."""
    for f1 in monomials:
        for f2 in monomials:
            rhs = AlgebraElement.zero(n)
            for h1, h2 in uq.coproduct(n, g):
                rhs = rhs + act_element(h1, f1) * act_element(h2, f2)
            if act(g, f1 * f2) != rhs:
                return f"f1={f1}, f2={f2}"
    return None


def _plant_swapped_legs(monkeypatch):
    """The second term of ``Delta(E1)`` with its legs swapped."""
    def swapped(n, g, _coproduct=uq.coproduct):
        legs = _coproduct(n, g)
        if g == (E, 1):
            (a, b), (c, d) = legs
            legs = [(a, b), (d, c)]
        return legs

    monkeypatch.setattr(uq, "coproduct", swapped)


def test_module_algebra_reports_a_wrong_coproduct_term(monkeypatch):
    _plant_swapped_legs(monkeypatch)
    monomials = uq.coordinate_monomials(1, 2)
    witness = _leibniz_witness(1, (E, 1), monomials)
    first = f"f1={monomials[0]}, f2={monomials[0]}"
    assert witness is not None and witness != first
    cases = {c.case: c for c in uq.check_module_algebra(1, degree=2).cases}
    assert not cases["modalg[E1]"].passed
    assert cases["modalg[E1]"].detail == witness
    assert cases["modalg[F1]"].passed and cases["modalg[K1]"].passed


# -- planted defects: the failing cases and their first witnesses ---------------

_SANDWICH = uq.sandwich


@pytest.fixture
def fresh_action():
    """No memoized action images before or after the test."""
    uq._ACT_MEMO.clear()
    _SANDWICH.cache_clear()
    yield
    uq._ACT_MEMO.clear()
    _SANDWICH.cache_clear()


def _failing(report):
    return {c.case: c.detail for c in report.cases if not c.passed}


def _star_witness(n, g, monomials):
    """The first ``f`` with ``(g > f)* != S(g)* > f*``."""
    sstar = uq.antipode(n, g).star()
    for f in monomials:
        if act(g, f).star() != act_element(sstar, f.star()):
            return f"f={f}"
    return None


def _relation_witness(rel, monomials):
    for f in monomials:
        got = act_element(rel, f)
        if not got.is_zero:
            return f"f={f} -> {got}"
    return None


def _plant_e_antipode(monkeypatch):
    """The E antipode as ``-(E_j K_j^-1)``, the star of the right one."""
    def planted(n, g, _antipode=uq.antipode):
        if g[0] == E:
            return -(hopf(n, E, g[1]) * hopf(n, KINV, g[1]))
        return _antipode(n, g)

    monkeypatch.setattr(uq, "antipode", planted)


def _plant_f_sandwich(monkeypatch):
    """``-q`` in place of ``-q^2`` in the second F sandwich term."""
    def planted(n, g):
        terms = _SANDWICH(n, g)
        if g[0] == F:
            (c, left, right), (_, left2, right2) = terms
            terms = ((c, left, right), (-q_power(1), left2, right2))
        return terms

    monkeypatch.setattr(uq, "sandwich", planted)


def _plant_serre(monkeypatch, n=2):
    """Each E Serre relation's middle word at ``-q`` in place of
    ``-(q + 1/q)``."""
    planted_relations = []
    for name, rel in uq.defining_relations(n):
        if name.startswith("EEserre"):
            j, l = map(int, name[len("EEserre["):-1].split(","))
            rel = rel + q_power(-1) * (hopf(n, E, j) * hopf(n, E, l)
                                       * hopf(n, E, j))
        planted_relations.append((name, rel))
    monkeypatch.setattr(uq, "defining_relations",
                        lambda n, jmax=None: planted_relations)


def test_a_wrong_e_antipode_fails_only_star_and_antipode(monkeypatch,
                                                         fresh_action):
    _plant_e_antipode(monkeypatch)
    monomials = uq.coordinate_monomials(1, 2)
    g = (E, 1)
    cancel_witness = None
    for f in monomials:
        total = AlgebraElement.zero(1)
        for h1, h2 in coproduct(1, g):
            total = total + act_element(antipode_element(h1) * h2, f)
        if not total.is_zero:
            cancel_witness = f"f={f}"
            break
    assert _star_witness(1, g, monomials) == "f=x1"
    assert cancel_witness is not None
    assert _failing(uq.check_module_algebra(1, degree=2)) == {
        "modstar[E1]": "f=x1", "antipode[E1]": cancel_witness}


def test_a_wrong_f_sandwich_fails_every_f_case_and_ef(monkeypatch,
                                                      fresh_action):
    _plant_f_sandwich(monkeypatch)
    n = 2
    monomials = uq.coordinate_monomials(n, 2)
    want = {}
    for j in (1, 2):
        g = (F, j)
        # the counit of F is zero, so the image of the unit is the detail
        want[f"modeins[F{j}]"] = str(act(g, AlgebraElement.unit(n)))
        want[f"modalg[F{j}]"] = _leibniz_witness(n, g, monomials)
        want[f"modstar[F{j}]"] = _star_witness(n, g, monomials)
    assert all(want.values()) and "0" not in want.values()
    assert _failing(uq.check_module_algebra(n, degree=2)) == want
    relations = dict(uq.defining_relations(n))
    want = {name: _relation_witness(relations[name], monomials)
            for name in ("EF[1]", "EF[2]")}
    assert all(want.values())
    assert _failing(uq.check_defining_relations(n, degree=2)) == want


def test_a_wrong_serre_word_fails_only_its_relations(monkeypatch,
                                                     fresh_action):
    n = 2
    _plant_serre(monkeypatch, n)
    monomials = uq.coordinate_monomials(n, 2)
    relations = dict(uq.defining_relations(n))
    want = {name: _relation_witness(relations[name], monomials)
            for name in ("EEserre[1,2]", "EEserre[2,1]")}
    assert all(want.values())
    assert _failing(uq.check_defining_relations(n, degree=2)) == want


# each planted defect at its rank, with the certificate cases it leaves open
_DEFECTS = {
    "e-antipode": (_plant_e_antipode, 1, {
        "cert-modstar[E1]", "cert-antipode[E1]"}),
    "f-sandwich": (_plant_f_sandwich, 2, {
        f"cert-{prop}[F{j}]" for prop in ("modalg", "modstar", "density")
        for j in (1, 2)} | {"cert-rel[EF[1]]", "cert-rel[EF[2]]"}),
    "serre": (_plant_serre, 2, {
        "cert-rel[EEserre[1,2]]", "cert-rel[EEserre[2,1]]"}),
    "swapped-legs": (_plant_swapped_legs, 1, {
        "cert-modalg[E1]", "cert-antipode[E1]"}),
}


def _triples(report):
    return [(c.case, c.passed, c.detail) for c in report.cases]


@pytest.mark.parametrize("defect", list(_DEFECTS))
def test_planted_defects_fail_alike_certified_or_swept(monkeypatch,
                                                       fresh_action, defect):
    plant, n, uncertified = _DEFECTS[defect]
    plant(monkeypatch)
    swept = uq.check_module_algebra(n, degree=2)
    first = cli.run_module_algebra(n, argparse.Namespace(degree=2))
    assert _triples(first) == _triples(swept)
    certificates = uq.check_certificates(n)
    assert {c.case for c in certificates.failures()} == uncertified
    left_open = {f"cert-{prop}[{uq._gen_str(g)}]" for g in uq.generators(n)
                 for prop in set(uq.CERTIFIED) - uq.certify(n, g)}
    assert left_open == {case for case in uncertified
                         if not case.startswith(("cert-rel", "cert-density"))}
    relations = uq.check_defining_relations(n, degree=2)
    assert not (swept.ok and relations.ok)


def test_certificates_close_at_every_rank():
    for n in range(1, 7):
        for g in uq.generators(n):
            assert uq.certify(n, g) == set(uq.CERTIFIED), (n, g)
    for n in range(1, 5):
        report = uq.check_certificates(n)
        assert report.ok, [c.case for c in report.failures()]
        assert sum(c.case.startswith("cert-rel[") for c in report.cases) \
            == len(uq.defining_relations(n))


def test_certified_properties_are_not_swept(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(uq, "act_element", no_sweep)
    report = SuiteReport("module-algebra")
    uq.check_generator(report, 2, (E, 1), uq.coordinate_monomials(2, 2),
                       uq.CERTIFIED)
    assert _triples(report) == [(f"{prop}[E1]", True, "") for prop in
                                ("modeins",) + uq.CERTIFIED]


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


def test_symmetry_power_checks_its_work_before_any_product(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(weyl, "MAX_POWER_WORK", 64)
    # 2^4 words of 4 atoms and one word of 64 atoms are at the bound
    assert parse_hopf("(E1+F1)^4", 1) == \
        parse_hopf("(E1+F1)*(E1+F1)*(E1+F1)*(E1+F1)", 1)
    assert len(parse_hopf("(E1+F1)^4", 1).terms) == 16
    assert parse_hopf("E1^64", 1) == HopfElement(1, {((E, 1),) * 64: ONE})
    assert parse_hopf("(E1+F1)^0", 1) == HopfElement.unit(1)
    assert parse_hopf("K1^-3", 1) == parse_hopf("K1^-1*K1^-1*K1^-1", 1)

    def no_product(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(HopfElement, "__mul__", no_product)
    for text, terms, m, atoms in (("(E1+F1)^5", 2, 5, 5),
                                  ("(E1+F1+K1)^3", 3, 3, 3),
                                  ("E1^65", 1, 65, 65),
                                  ("(E1+F1)^1000000000000", 2, 10 ** 12,
                                   10 ** 12)):
        with pytest.raises(ValueError) as err:
            parse_hopf(text, 1)
        assert str(err.value) == (
            f"power {m} of a {terms}-term element expands to {terms}^{m} "
            f"words of {atoms} atoms, over the bound 64")
    assert cli.main(["normalize", "--n", "1", "(E1+F1)^5"]) == 2
    assert capsys.readouterr().err == (
        "error: power 5 of a 2-term element expands to 2^5 words of 5 atoms, "
        "over the bound 64\n")
