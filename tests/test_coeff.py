import cmath
import functools
import json
import math
import pathlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qweyl import cli, coeff, uq
from qweyl.coeff import (LAMBDA, LAMBDA_INV, NumericContext, ONE, Q, Q0, ZERO,
                         QI, ScalarValue, gaussian, integer, q0_power, q_power,
                         rational)
from qweyl.errors import PoleAtEvaluationPoint

CTX = NumericContext()


def test_star_q0_is_inverse():
    assert Q0.star() == q0_power(-1)


def test_q0_power_is_built_once_per_exponent():
    assert q0_power(-3) is q0_power(-3)
    assert q_power(2) is q0_power(4)
    assert q0_power(5) * q0_power(-5) == ONE


def test_star_lambda_is_minus_lambda():
    assert LAMBDA.star() == -LAMBDA


def test_star_i_over_lambda_fixed():
    value = coeff.I * LAMBDA_INV
    assert value.star() == value


def test_eval_q_on_unit_circle():
    got = Q.evaluate(CTX)
    assert got == pytest.approx(cmath.exp(1j * math.pi / 3), rel=1e-12)


def test_eval_lambda_two_i_sine():
    got = LAMBDA.evaluate(CTX)
    assert got == pytest.approx(2j * math.sin(math.pi / 3), abs=1e-12)


def test_context_excludes_degenerate_angles():
    with pytest.raises(ValueError):
        NumericContext(phi=0.0)
    with pytest.raises(ValueError):
        NumericContext(phi=math.pi / 2)
    with pytest.raises(ValueError):
        NumericContext(phi=-math.pi / 2)
    with pytest.raises(ValueError):
        NumericContext(phi=3.5)


def test_pole_detection():
    # q0^4 - q0^2 + 1 vanishes exactly at the default angle phi = pi/3
    den = q0_power(4) - q0_power(2) + ONE
    value = ONE / den
    with pytest.raises(PoleAtEvaluationPoint):
        value.evaluate(CTX)
    assert abs(value.evaluate(NumericContext(phi=1.0))) > 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_canonical_equality_cross_forms():
    a = (q_power(2) - ONE) / (Q0 - ONE)
    b = (q_power(2) - ONE) * (Q0 - ONE).inv()
    assert a == b
    assert hash(a) == hash(b)


# -- randomized field axioms -------------------------------------------------

_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_qi = st.builds(QI, _fracs, _fracs)
_poly = st.lists(_qi, min_size=0, max_size=3).map(tuple)
_nonzero_poly = _poly.filter(lambda p: any(p))


@st.composite
def scalars(draw):
    num = draw(_poly)
    den = draw(_nonzero_poly)
    return ScalarValue(num, den)


nonzero_scalars = scalars().filter(lambda s: not s.is_zero)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * a.inv() == ONE


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_star_is_multiplicative_involution(a, b):
    assert (a * b).star() == a.star() * b.star()
    assert a.star().star() == a
    assert (a + b).star() == a.star() + b.star()


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_eval_intertwines_star_and_conjugation(a):
    try:
        lhs = a.star().evaluate(CTX)
        rhs = a.evaluate(CTX)
    except PoleAtEvaluationPoint:
        return
    assert lhs == pytest.approx(rhs.conjugate(), rel=1e-9, abs=1e-9)


def test_rational_fixed_by_star():
    a = ScalarValue((QI(Fraction(3, 7)),), (QI(1),))
    assert a.star() == a


# -- canonicalization fast path and an independent oracle ----------------------


def _canonicalize_via_gcd(num, den):
    """The canonical form with the polynomial gcd always taken."""
    num, den = coeff._trim(num), coeff._trim(den)
    if not num:
        return (), (1,)
    v = min(coeff._pval(num), coeff._pval(den))
    num, den = num[v:], den[v:]
    g = coeff._pgcd(num, den)
    if len(g) > 1:
        num, _ = coeff._pdivmod(num, g)
        den, _ = coeff._pdivmod(den, g)
    inv = coeff._inv(den[-1])
    return tuple(c * inv for c in num), tuple(c * inv for c in den)


_nonzero_qi = _qi.filter(bool)


@st.composite
def one_term_side_pairs(draw):
    """(num, den) with at least one side of the form c*q0^k."""
    mono = (QI(0),) * draw(st.integers(0, 4)) + (draw(_nonzero_qi),)
    other = draw(st.lists(_qi, min_size=1, max_size=5).map(tuple)
                 .filter(lambda p: any(p)))
    other = (QI(0),) * draw(st.integers(0, 3)) + other
    return (mono, other) if draw(st.booleans()) else (other, mono)


@settings(max_examples=100, deadline=None)
@given(one_term_side_pairs())
def test_one_term_side_skips_gcd_with_same_result(pair):
    num, den = pair
    assert coeff._canonicalize(num, den) == _canonicalize_via_gcd(num, den)


@settings(max_examples=60, deadline=None)
@given(_poly, _nonzero_poly)
def test_canonicalize_matches_gcd_route(num, den):
    assert coeff._canonicalize(num, den) == _canonicalize_via_gcd(num, den)


# common factors of C = q0^4 - 1 cancel by exact division before Euclid


_C = (-1, 0, 0, 0, 1)
# 1 and factors of C over Q(i), so that a partial cancellation reaches Euclid
_C_FACTORS = ((1,), (-1, 1), (1, 1), (1, 0, 1), (QI(0, -1), 1), (QI(0, 1), 1))
_int_poly = st.lists(st.integers(-3, 3), max_size=3).map(tuple)


@st.composite
def planted_pairs(draw):
    """``q0^a·C^i·F·P`` over ``q0^b·C^j·G·Q``."""
    def side(rest):
        p = (0,) * draw(st.integers(0, 3)) + (1,)
        for _ in range(draw(st.integers(0, 3))):
            p = coeff._pmul(p, _C)
        p = coeff._pmul(p, draw(st.sampled_from(_C_FACTORS)))
        return coeff._pmul(p, rest)

    num = side(draw(st.one_of(_poly, _int_poly)))
    den = side(draw(st.one_of(_nonzero_poly, _int_poly.filter(any))))
    return num, den


@settings(max_examples=150, deadline=None)
@given(planted_pairs())
def test_planted_factors_cancel_as_by_the_gcd(pair):
    num, den = pair
    got = ScalarValue(*coeff._canonicalize(num, den), _canonical=True)
    want = ScalarValue(*map(coeff._exact, _canonicalize_via_gcd(num, den)),
                       _canonical=True)
    assert _structure(got) == _structure(want)


def test_act_path_and_module_sweep_reach_no_euclid(monkeypatch, capsys):
    # every denominator they form is q0^k·C^m, which exact division cancels
    def no_gcd(a, b):
        raise AssertionError("Euclid's gcd was reached")

    monkeypatch.setattr(coeff, "_pgcd", no_gcd)
    uq._act_monomial.cache_clear()
    golden = pathlib.Path(__file__).with_name("golden_queries_seed7.jsonl")
    acts = [(argv, text) for argv, text in map(
        json.loads, golden.read_text(encoding="utf-8").splitlines())
        if argv[0] == "act"]
    assert len(acts) == 600
    for argv, text in acts:
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (text + "\n", ""), argv
    assert uq.check_module_algebra(2, degree=2).ok


def _to_sympy(value, z):
    import sympy

    def poly(p):
        return sum((sympy.Rational(c.real.numerator, c.real.denominator)
                    + sympy.I * sympy.Rational(c.imag.numerator,
                                               c.imag.denominator))
                   * z ** k for k, c in enumerate(p))

    return poly(value.num) / poly(value.den)


def test_products_and_quotients_match_sympy_cancel():
    import random

    import sympy

    z = sympy.Symbol("q0")
    rng = random.Random(2024)
    pool = [LAMBDA, LAMBDA_INV, Q0, q0_power(-3), coeff.I, q_power(2) + ONE,
            ONE / (Q0 + ONE), gaussian(Fraction(2, 3), -1),
            (Q0 - coeff.I) / (q0_power(2) + integer(3)),
            LAMBDA_INV ** 2, LAMBDA_INV ** 3, LAMBDA_INV ** 2 + LAMBDA_INV,
            LAMBDA_INV ** 3 - q_power(1) * LAMBDA_INV ** 2 + coeff.I]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        a = a * q0_power(rng.randint(-2, 2)) + rng.choice(pool)
        for got, want in ((a * b, _to_sympy(a, z) * _to_sympy(b, z)),
                          (a / b, _to_sympy(a, z) / _to_sympy(b, z))):
            assert sympy.cancel(_to_sympy(got, z) - want) == 0, str(got)


# -- exact coefficients: an int, a non-integral Fraction, or a QI with a nonzero
# imaginary part; never a float ------------------------------------------------


_UNITS = (1, -1, QI(0, 1), QI(0, -1))


def _unit_ended(p):
    """Leading and lowest nonzero coefficients are Gaussian units."""
    return p[-1] in _UNITS and p[coeff._pval(p)] in _UNITS


def _combine(pair, divides=lambda b: True):
    """Apply each field operation to a pair; divide only where allowed."""
    a, b = pair
    out = [a + b, a - b, a * b, a.star(), -b]
    if b and divides(b):
        out += [a / b, b.inv()]
    return out


def _values(leaves, divides=lambda b: True):
    return st.recursive(
        leaves, lambda inner: st.tuples(inner, inner).map(
            lambda pair: _combine(pair, divides)).flatmap(st.sampled_from),
        max_leaves=4)


_small = st.integers(-3, 3)
_integral_leaves = st.one_of(
    _small.map(integer), st.tuples(_small, _small).map(lambda p: gaussian(*p)),
    _small.map(q0_power), st.just(LAMBDA), st.just(LAMBDA_INV))
_any_leaves = st.one_of(
    _integral_leaves, scalars(),
    st.tuples(_small, st.integers(1, 4)).map(lambda p: rational(*p)),
    st.just(ONE / (Q0 + ONE)),
    st.floats(-4, 4).map(lambda f: gaussian(f, 0.5)))


def _parts(value):
    return [part for c in value.num + value.den for part in (c.real, c.imag)]


def _exact_part(part):
    return type(part) is int or (type(part) is Fraction
                                 and part.denominator != 1)


def _canonical_coefficient(c):
    """A real coefficient is itself an exact part; a QI has a nonzero imag."""
    if type(c) is QI:
        return bool(c.imag) and _exact_part(c.real) and _exact_part(c.imag)
    return _exact_part(c)


# Dividing by 2 leaves 1/2, and a denominator ending in 2 leaves a 1/2 after
# star; the sweeps divide only by unit-ended values such as q0^a*(q0^4 - 1)^m.
@settings(max_examples=80, deadline=None)
@given(_values(_integral_leaves, lambda b: _unit_ended(b.num)))
def test_integral_inputs_keep_int_parts(value):
    assert all(type(part) is int for part in _parts(value)), repr(value)
    for c in value.num + value.den:
        assert type(c) is int or (type(c) is QI and c.imag), repr(value)


@settings(max_examples=80, deadline=None)
@given(_values(_any_leaves))
def test_parts_are_exact_and_demoted(value):
    for part in _parts(value):
        assert _exact_part(part), repr(value)
    for c in value.num + value.den:
        assert _canonical_coefficient(c), repr(value)


def test_integral_rational_is_the_integer():
    two = rational(4, 2)
    assert two == integer(2)
    assert hash(two) == hash(integer(2))
    assert str(two) == str(integer(2)) == "2"
    assert type(two.num[0]) is int
    half = rational(1, 2) + gaussian(0, 1) - coeff.I
    assert type(half.num[0]) is Fraction and half == rational(2, 4)


def test_gaussian_float_parts_are_exact():
    value = gaussian(0.5, 0.1)
    assert value.num[0].real == Fraction(1, 2)
    assert value.num[0].imag == Fraction(0.1)
    assert type(value.num[0].imag) is Fraction


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_product_by_one_shares_the_factor(x):
    full = ScalarValue(coeff._pmul(x.num, ONE.num), coeff._pmul(x.den, ONE.den))
    assert x * ONE is x
    # when x is itself one, either factor is the product
    assert ONE * x is x or x.is_one
    assert x * ONE == full and ONE * x == full


# -- products by a Laurent monomial c*q0^k against the general route -----------


def _general_product(a, b):
    """``a*b`` through ``_pmul`` and ``_canonicalize``, never the shortcut."""
    return ScalarValue(coeff._pmul(a.num, b.num), coeff._pmul(a.den, b.den))


def _structure(value):
    return tuple(tuple((type(c), type(c.real), c.real, type(c.imag), c.imag)
                       for c in side) for side in (value.num, value.den))


def _laurent(c, k):
    if k >= 0:
        return ScalarValue((0,) * k + (c,), (1,))
    return ScalarValue((c,), (0,) * -k + (1,))


_monomials = st.builds(
    _laurent,
    st.one_of(st.sampled_from(_UNITS), st.builds(QI, _fracs.filter(bool)),
              _nonzero_qi),
    st.integers(-4, 4))
_operands = st.one_of(
    scalars(), _monomials, st.sampled_from([ZERO, ONE, coeff.MINUS_ONE]),
    _values(_any_leaves),
    st.tuples(scalars(), st.integers(-3, 3)).map(
        lambda p: _general_product(p[0], q0_power(p[1]))))


@settings(max_examples=150, deadline=None)
@given(_monomials, _operands, st.booleans())
def test_monomial_product_matches_general_route(m, x, monomial_first):
    a, b = (m, x) if monomial_first else (x, m)
    got = a * b
    assert _structure(got) == _structure(_general_product(a, b))
    for c in got.num + got.den:
        assert _canonical_coefficient(c), repr(got)
    if m.is_one:
        # when x is itself one, either factor is the product
        assert got is x or x.is_one
    elif a and b:
        assert _structure(coeff._monomial_product(a, b)) == _structure(got)


def test_monomial_product_strips_the_common_q0_power():
    x = ONE / (Q0 * (Q0 + ONE))
    got = x * q0_power(3)
    assert _structure(got) == (((int, int, 0, int, 0),) * 2
                               + ((int, int, 1, int, 0),),
                               ((int, int, 1, int, 0),) * 2)
    assert _structure(got) == _structure(_general_product(x, q0_power(3)))
    assert coeff._monomial_product(LAMBDA, LAMBDA_INV) is None


def test_pole_threshold_ignores_report_tolerance():
    loose = NumericContext(tolerance=1e300)
    assert (Q0 - ONE).inv().evaluate(loose) == pytest.approx(
        (Q0 - ONE).inv().evaluate(CTX), rel=1e-15)
    with pytest.raises(PoleAtEvaluationPoint, match="below tolerance 1.0e-09"):
        (q0_power(4) - q0_power(2) + ONE).inv().evaluate(loose)


# -- sums over a shared denominator against the cross-product route ------------


def _cross_sum(a, b, sign):
    """``a + sign*b`` as ``(a.num*b.den + sign*b.num*a.den)/(a.den*b.den)``."""
    right = coeff._pmul(b.num, a.den)
    if sign < 0:
        right = coeff._pneg(right)
    return ScalarValue(coeff._padd(coeff._pmul(a.num, b.den), right),
                       coeff._pmul(a.den, b.den))


@st.composite
def shared_den_pairs(draw):
    """Canonical ``(a, b)`` over one denominator ``f*g``.  The numerators are
    free, or cancel, or sum to a multiple of ``g``, a factor of the
    denominator."""
    f, g = draw(_nonzero_poly), draw(_nonzero_poly)
    den = coeff._pmul(f, g)
    top = draw(_poly)
    kind = draw(st.sampled_from(["free", "cancel", "factor"]))
    if kind == "free":
        other = draw(_poly)
    elif kind == "cancel":
        other = coeff._pneg(top)
    else:
        other = coeff._padd(coeff._pmul(g, draw(_nonzero_poly)),
                            coeff._pneg(top))
    a, b = ScalarValue(top, den), ScalarValue(other, den)
    assume(a.den == b.den)
    return a, b


@settings(max_examples=150, deadline=None)
@given(shared_den_pairs())
def test_shared_denominator_sums_match_cross_products(pair):
    a, b = pair
    want = {(x, y, s): _cross_sum(x, y, s)
            for x, y in ((a, b), (b, a)) for s in (1, -1)}
    with mock.patch.object(coeff, "_pmul", wraps=coeff._pmul) as pmul:
        got = {(a, b, 1): a + b, (a, b, -1): a - b,
               (b, a, 1): b + a, (b, a, -1): b - a}
    assert not pmul.called
    for key, value in got.items():
        assert _structure(value) == _structure(want[key])
        assert hash(value) == hash(want[key])


def test_shared_denominator_sum_cancels_a_common_factor():
    den = q0_power(4) - ONE
    a, b = ONE / den, q0_power(2) / den
    assert a.den == b.den
    got = a + b
    assert _structure(got) == _structure(ONE / (q0_power(2) - ONE))
    assert _structure(got) == _structure(_cross_sum(a, b, 1))
    assert _structure(a - a) == _structure(ZERO) == _structure(b + (-b))


@st.composite
def c_power_pairs(draw):
    """``(a, b)``, each a numerator over ``q0^k·C^m``; a numerator may carry
    a factor of C, so that a side cancels part of its denominator."""
    def value():
        den = (1,)
        for _ in range(draw(st.integers(0, 3))):
            den = coeff._pmul(den, _C)
        num = coeff._pmul(draw(st.sampled_from(_C_FACTORS)),
                          draw(st.one_of(_nonzero_poly, _int_poly)))
        return ScalarValue(num, coeff._pshift(den, draw(st.integers(0, 3))))

    return value(), value()


@settings(max_examples=150, deadline=None)
@given(c_power_pairs())
def test_sums_over_c_power_denominators_match_cross_products(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        for s in (1, -1):
            got = x + y if s > 0 else x - y
            want = _cross_sum(x, y, s)
            assert _structure(got) == _structure(want)
            assert hash(got) == hash(want)


def test_sums_over_c_power_denominators_form_their_common_multiple(
        monkeypatch):
    # 1/C^2 + 1/(q0^3·C^3) is formed over q0^3·C^3, of degree 15, where the
    # product of the denominators, q0^3·C^5, has degree 23
    c = q0_power(4) - ONE
    a, b = ONE / c ** 2, q0_power(-3) / c ** 3
    want = _cross_sum(a, b, 1)
    degrees = []
    pmul = coeff._pmul

    def counted(x, y):
        out = pmul(x, y)
        degrees.append(len(out) - 1)
        return out

    monkeypatch.setattr(coeff, "_pmul", counted)
    got = a + b
    assert _structure(got) == _structure(want)
    assert max(degrees) <= 15


# -- every field operation leaves canonical coefficients -----------------------


def _field_results(a, b):
    """Equal values reached by different routes, grouped."""
    groups = [[a + b, b + a, b - (-a), -((-a) - b)],
              [a - b, a + (-b), -(b - a)],
              [a * b, b * a],
              [a.star().star(), a, (a + b) - b],
              [a ** 2, a * a], [-a, ZERO - a, 0 - a],
              [a + 1, 1 + a, a - (-1)], [Fraction(1, 2) * a, a / 2]]
    if b:
        groups += [[a / b, a * b.inv()], [b.inv(), ONE / b, b ** -1],
                   [(a * b) / b, a]]
    return groups


_any_operands = st.one_of(_values(_any_leaves), _monomials)


@settings(max_examples=100, deadline=None)
@given(_any_operands, _any_operands)
def test_every_operation_keeps_coefficients_canonical(a, b):
    for group in _field_results(a, b):
        for value in group:
            for c in value.num + value.den:
                assert _canonical_coefficient(c), repr(value)
            assert value == group[0]
            assert _structure(value) == _structure(group[0])
            assert hash(value) == hash(group[0])


def test_real_and_gaussian_coefficients_mix():
    c = QI(Fraction(1, 2), 3)
    assert 2 * c == c * 2 == QI(1, 6)
    assert 1 + c == c + 1 == QI(Fraction(3, 2), 3)
    assert 1 - c == QI(Fraction(1, 2), -3) and c - 1 == QI(Fraction(-1, 2), 3)
    assert QI(2, 0) == 2 == QI(Fraction(2), 0) and hash(QI(2, 0)) == hash(2)
    assert QI(2, 0) != QI(2, 1) and QI(0, 1) != 0
    assert complex(c) == 0.5 + 3j
    value = gaussian(1, 2) * gaussian(1, -2)
    assert type(value.num[0]) is int and value == integer(5)


# -- the q0 degree bound -------------------------------------------------------


def test_degree_bound_raises_before_building():
    top = coeff.MAX_DEGREE
    assert len(q0_power(top).num) == top + 1
    with pytest.raises(ValueError, match=f"q0 degree {top + 1} exceeds"):
        coeff._pshift((1,), top + 1)
    with pytest.raises(ValueError, match=f"q0 degree {top + 1} exceeds"):
        coeff._pmul((0,) * 50_000 + (1,), (0,) * 50_001 + (1,))
    with pytest.raises(ValueError, match="exceeds the bound"):
        Q0 ** (top + 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        (Q0 + ONE) * q0_power(top)
    with pytest.raises(ValueError, match="exceeds the bound"):
        q0_power(-top - 1)


def test_dense_power_checks_its_degree_before_any_product(monkeypatch):
    monkeypatch.setattr(coeff, "MAX_DEGREE", 64)
    dense = Q0 + ONE
    assert (dense ** 64).num == tuple(math.comb(64, j) for j in range(65))
    assert (dense ** -32).den == tuple(math.comb(32, j) for j in range(33))
    over = Q0 / (Q0 * Q0 + ONE)

    def no_product(a, b):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(coeff, "_pmul", no_product)
    for base, k, degree in ((dense, 65, 65), (dense, -65, 65),
                            (over, 33, 66)):
        with pytest.raises(ValueError) as err:
            base ** k
        assert str(err.value) == f"q0 degree {degree} exceeds the bound 64"


def test_dense_power_checks_its_work_before_any_product(monkeypatch):
    monkeypatch.setattr(coeff, "MAX_POWER_WORK", 100)
    dense = Q0 + ONE
    assert (dense ** 10).num == tuple(math.comb(10, j) for j in range(11))
    assert (dense ** -10).den == (dense ** 10).num
    assert (Q0 ** 1000).num[-1] == 1  # one term: no work bound
    over = Q0 / (Q0 * Q0 + ONE)

    def no_product(a, b):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(coeff, "_pmul", no_product)
    for base, k, degree in ((dense, 11, 11), (dense, -11, 11), (over, 8, 16)):
        with pytest.raises(ValueError) as err:
            base ** k
        assert str(err.value) == (
            f"power {k} of a dense scalar of q0 degree {degree} passes the "
            "work bound 100")


def test_dense_power_bound_keeps_degree_2048(monkeypatch):
    built = []
    monkeypatch.setattr(coeff, "_power",
                        lambda base, k, one, mul: built.append(k) or one)
    assert (Q0 + ONE) ** 2048 == (Q0 + ONE) ** -2048 == ONE
    assert built == [2048] * 4  # both sides of each power
    with pytest.raises(ValueError, match="passes the work bound 4194304"):
        (Q0 + ONE) ** 2049


# -- products by a one-term factor ---------------------------------------------


def _dense_pmul(a, b):
    """The product through the double loop over every coefficient pair."""
    out = [0] * (len(a) + len(b) - 1)
    for ka, ca in enumerate(a):
        for kb, cb in enumerate(b):
            if ca and cb:
                out[ka + kb] = out[ka + kb] + ca * cb
    return coeff._trim(out)


# canonical coefficients: an int, a non-integral Fraction, or a QI with a
# nonzero imaginary part
_coefficient = st.one_of(
    st.integers(-5, 5), _fracs.filter(lambda f: f.denominator != 1),
    st.builds(lambda re, im: QI(coeff._digit(re), coeff._digit(im)),
              _fracs, _fracs.filter(bool)))
_nonzero_coefficient = _coefficient.filter(bool)
_one_term = st.builds(lambda k, c: (0,) * k + (c,),
                      st.integers(0, 6), _nonzero_coefficient)
_dense = st.builds(lambda cs, top: tuple(cs) + (top,),
                   st.lists(_coefficient, max_size=6), _nonzero_coefficient)


@settings(max_examples=200, deadline=None)
@given(_one_term, _dense, st.booleans())
def test_one_term_factor_shifts_and_scales_as_the_dense_product(
        one, other, one_first):
    a, b = (one, other) if one_first else (other, one)
    got = coeff._pmul(a, b)
    want = _dense_pmul(a, b)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_one_term_power_is_formed_in_closed_form(monkeypatch):
    bases = [c * q0_power(d) for c in (ONE, -ONE, coeff.I, gaussian(1, -2),
                                       rational(-3, 2)) for d in (-3, 0, 2)]
    want = {}
    for base in bases:
        up, down = ONE, ONE
        for k in range(7):
            want[base, k], want[base, -k] = up, down
            up, down = up * base, down / base
    refused = ((q_power(1), 99999999), (gaussian(2, 1) * Q0, -100001))

    def no_product(a, b):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(ScalarValue, "__mul__", no_product)
    for (base, k), value in want.items():
        got = base ** k
        assert (got.num, got.den) == (value.num, value.den), (base, k)
    # the degree refused is the power's own, before anything is formed
    for base, k in refused:
        with pytest.raises(ValueError) as err:
            base ** k
        assert str(err.value) == (f"q0 degree {abs(k * (len(base.num) - 1))} "
                                  f"exceeds the bound {coeff.MAX_DEGREE}")


# -- powers of canonical scalars -----------------------------------------------


# a side with a nonzero constant term and a nonzero top: at least two terms
_dense_side = st.builds(lambda low, cs, top: (low,) + tuple(cs) + (top,),
                        _nonzero_coefficient, st.lists(_coefficient, max_size=3),
                        _nonzero_coefficient)


@st.composite
def power_bases(draw):
    """A canonical scalar with a dense numerator, denominator or both, with
    QI and Fraction coefficients, times a power of q0."""
    shape = draw(st.sampled_from(["num", "den", "both"]))
    num = draw(_dense_side if shape != "den" else _one_term)
    den = draw(_dense_side if shape != "num" else _one_term)
    return ScalarValue(num, den) * q0_power(draw(st.integers(-3, 3)))


@settings(max_examples=150, deadline=None)
@given(power_bases(), st.integers(-8, 8))
def test_powers_match_repeated_products_and_quotients(s, k):
    want = ONE
    for _ in range(abs(k)):
        want = want * s if k > 0 else want / s
    assert _structure(s ** k) == _structure(want)


def test_powers_form_no_gcd(monkeypatch):
    base = (Q0 * Q0 - coeff.I) / (Q0 + integer(3))
    want, value = {}, ONE
    for k in range(13):
        want[k], want[-k] = value, ONE / value
        value = value * base
    lam_inv_40 = functools.reduce(lambda a, _: a * LAMBDA_INV, range(40), ONE)

    def no_gcd(a, b):
        raise AssertionError("a gcd was formed")

    monkeypatch.setattr(coeff, "_pgcd", no_gcd)
    for k, value in want.items():
        assert _structure(base ** k) == _structure(value)
    assert _structure(LAMBDA_INV ** 40) == _structure(lam_inv_40)
    assert _structure(LAMBDA ** -40) == _structure(lam_inv_40)


def test_coefficient_power_checks_its_bits_before_forming_it(monkeypatch):
    # 7 and 2/3 have 3 bits each (half those of 49 and 4/9), 2 and 1+i one,
    # 3/5 + 4/5*i, of modulus 1, five (half those of (4/5)^2), and a unit
    # none
    monkeypatch.setattr(coeff, "MAX_POWER_WORK", 300)
    assert integer(7) ** 100 == integer(7 ** 100)
    assert gaussian(Fraction(3, 5), Fraction(4, 5)) ** 60 == \
        gaussian(3, 4) ** 60 * rational(1, 5 ** 60)
    assert rational(2, 3) ** -100 == rational(3 ** 100, 2 ** 100)
    assert gaussian(1, 1) ** 300 == integer(-(2 ** 150))
    for unit in (ONE, -ONE, coeff.I, -coeff.I):
        assert unit ** 99999999 == unit ** 3
    assert (integer(5) * q0_power(3)) ** -100 == \
        rational(1, 5 ** 100) * q0_power(-300)
    for base, k, bits in ((integer(7), 101, 3), (rational(2, 3), -101, 3),
                          (integer(2) * Q0, 301, 1),
                          (gaussian(1, 1), -301, 1),
                          (gaussian(Fraction(3, 5), Fraction(4, 5)), 61, 5)):
        with pytest.raises(ValueError) as err:
            base ** k
        assert str(err.value) == (f"power {k} of a coefficient of {bits} bits "
                                  "passes the work bound 300")


@given(side=st.integers(1, 10 ** 6), m=st.integers(0, 3000))
@settings(max_examples=200, deadline=None)
def test_power_bits_are_exact_or_untold(side, m):
    bits = coeff._power_bits(side, m)
    assert bits in (None, (side ** m).bit_length())
    assert bits is not None or side & (side - 1)


def test_library_powers_past_the_printer_are_refused_unformed(monkeypatch):
    # the largest side of 7^6000, (7i)^6000 and (3/2)^10000 has 16845, 16845
    # and 15850 bits, past the 4300 decimal digits the printer takes; 3^9000
    # has 4295 digits and prints
    formed, power = [], coeff._power

    def watched(*args):
        formed.append(power(*args))
        return formed[-1]

    monkeypatch.setattr(coeff, "_power", watched)
    monkeypatch.setattr(coeff.sys, "get_int_max_str_digits", lambda: 4300)
    for base, k, bits in ((integer(7), 6000, 16845),
                          (gaussian(0, 7), 6000, 16845),
                          (rational(2, 3), -10000, 15850)):
        with pytest.raises(ValueError) as err:
            base ** k
        assert str(err.value) == (f"a coefficient of {bits} bits passes the "
                                  "limit of 4300 decimal digits on printing "
                                  "an integer")
    assert not formed
    assert integer(7) ** 5000 == integer(7 ** 5000)
    assert rational(2, 3) ** -9000 == rational(3 ** 9000, 2 ** 9000)
    assert formed == [7 ** 5000, Fraction(3 ** 9000, 2 ** 9000)]
    # with no limit there is nothing to refuse
    monkeypatch.setattr(coeff.sys, "get_int_max_str_digits", lambda: 0)
    assert (integer(7) ** 6000).num == (7 ** 6000,)
    assert (gaussian(0, 7) ** 6000).num == (7 ** 6000,)
    assert (rational(2, 3) ** -10000).num == (Fraction(3 ** 10000,
                                                       2 ** 10000),)


@pytest.mark.parametrize("re, im", [
    (3, 4), (7, -7), (Fraction(1, 7), Fraction(1, 7)),
    (Fraction(2, 3), Fraction(-5, 2)), (Fraction(-1, 10), Fraction(1, 5)),
    (Fraction(3, 5), Fraction(4, 5)), (Fraction(1, 2), Fraction(1, 3))])
def test_gaussian_rational_powers_are_refused_on_a_sure_digit_bound(
        monkeypatch, re, im):
    # a power of a + b*i, both parts nonzero, is refused unformed when more
    # than D > limit digits must print, and it has more than D; 3/5 + 4/5*i
    # has modulus 1, so only its denominator's odd part bounds D
    limit, formed, power = 60, [], coeff._power

    def watched(*args):
        formed.append(args)
        return power(*args)

    def digits(value):
        (c,) = value.num
        return max(len(str(abs(side))) for part in (c.real, c.imag)
                   for side in (part.numerator, part.denominator))

    monkeypatch.setattr(coeff, "_power", watched)
    refused = []
    for m in range(2, 400):
        monkeypatch.setattr(coeff.sys, "get_int_max_str_digits",
                            lambda: limit)
        formed.clear()
        try:
            gaussian(re, im) ** m
        except ValueError as err:
            refused.append(m)
            assert not formed
            head, tail = str(err).split(" digits passes the limit of ")
            bound = int(head.removeprefix("a coefficient of more than "))
            assert tail == f"{limit} decimal digits on printing an integer"
            monkeypatch.setattr(coeff.sys, "get_int_max_str_digits",
                                lambda: 0)
            assert digits(gaussian(re, im) ** m) > bound > limit
    # refused from some power on, and at every power past it
    assert refused and refused == list(range(refused[0], 400))
