import cmath
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qweyl import coeff
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
            (Q0 - coeff.I) / (q0_power(2) + integer(3))]
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
