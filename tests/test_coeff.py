import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import coeff
from qweyl.coeff import (LAMBDA, LAMBDA_INV, NumericContext, ONE, Q, Q0, ZERO,
                         QI, ScalarValue, gaussian, integer, q0_power, q_power,
                         rational)
from qweyl.errors import PoleAtEvaluationPoint

CTX = NumericContext()


def test_star_q0_is_inverse():
    assert Q0.star() == q0_power(-1)


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
        return (), (QI(1),)
    v = min(coeff._pval(num), coeff._pval(den))
    num, den = num[v:], den[v:]
    g = coeff._pgcd(num, den)
    if len(g) > 1:
        num, _ = coeff._pdivmod(num, g)
        den, _ = coeff._pdivmod(den, g)
    inv = den[-1].inv()
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
        return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                    + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
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


# -- exact parts: ints unless a part is not an integer, never a float ----------


_UNITS = (QI(1), QI(-1), QI(0, 1), QI(0, -1))


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
    return [part for c in value.num + value.den for part in (c.re, c.im)]


# Dividing by 2 leaves 1/2, and a denominator ending in 2 leaves a 1/2 after
# star; the sweeps divide only by unit-ended values such as q0^a*(q0^4 - 1)^m.
@settings(max_examples=80, deadline=None)
@given(_values(_integral_leaves, lambda b: _unit_ended(b.num)))
def test_integral_inputs_keep_int_parts(value):
    assert all(type(part) is int for part in _parts(value)), repr(value)


@settings(max_examples=80, deadline=None)
@given(_values(_any_leaves))
def test_parts_are_exact_and_demoted(value):
    for part in _parts(value):
        assert type(part) is int or (type(part) is Fraction
                                     and part.denominator != 1), repr(value)


def test_integral_rational_is_the_integer():
    two = rational(4, 2)
    assert two == integer(2)
    assert hash(two) == hash(integer(2))
    assert str(two) == str(integer(2)) == "2"
    assert type(two.num[0].re) is int


def test_gaussian_float_parts_are_exact():
    value = gaussian(0.5, 0.1)
    assert value.num[0].re == Fraction(1, 2)
    assert value.num[0].im == Fraction(0.1)
    assert type(value.num[0].im) is Fraction


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
    return tuple(tuple((type(c.re), c.re, type(c.im), c.im) for c in side)
                 for side in (value.num, value.den))


def _laurent(c, k):
    if k >= 0:
        return ScalarValue((QI(0),) * k + (c,), (QI(1),))
    return ScalarValue((c,), (QI(0),) * -k + (QI(1),))


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
    for part in _parts(got):
        assert type(part) is int or (type(part) is Fraction
                                     and part.denominator != 1), repr(got)
    if m.is_one:
        # when x is itself one, either factor is the product
        assert got is x or x.is_one
    elif a and b:
        assert _structure(coeff._monomial_product(a, b)) == _structure(got)


def test_monomial_product_strips_the_common_q0_power():
    x = ONE / (Q0 * (Q0 + ONE))
    got = x * q0_power(3)
    assert (got.num, got.den) == ((QI(0), QI(0), QI(1)), (QI(1), QI(1)))
    assert _structure(got) == _structure(_general_product(x, q0_power(3)))
    assert coeff._monomial_product(LAMBDA, LAMBDA_INV) is None


def test_pole_threshold_ignores_report_tolerance():
    loose = NumericContext(tolerance=1e300)
    assert (Q0 - ONE).inv().evaluate(loose) == pytest.approx(
        (Q0 - ONE).inv().evaluate(CTX), rel=1e-15)
    with pytest.raises(PoleAtEvaluationPoint, match="below tolerance 1.0e-09"):
        (q0_power(4) - q0_power(2) + ONE).inv().evaluate(loose)
