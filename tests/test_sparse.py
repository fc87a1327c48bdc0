from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import coeff, weyl
from qweyl.errors import DescriptorMismatch, ShapeMismatch
from qweyl.gauss import GaussianState
from qweyl.sparse import Words, accumulate
from qweyl.uq import E, F, K, KINV, HopfElement

# the accumulate-and-prune loops that sparse.accumulate replaced, kept as
# oracles: one for exact scalars, one for complex amplitudes


def _scalar_loop(out, pairs):
    for key, cv in pairs:
        acc = out.get(key)
        acc = cv if acc is None else acc + cv
        if acc.is_zero:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def _complex_loop(out, pairs):
    for key, amp in pairs:
        acc = out.get(key, 0j) + amp
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


# values chosen so that sums over a handful of keys cancel exactly
_SCALARS = [coeff.ONE, coeff.MINUS_ONE, coeff.integer(2), coeff.integer(-2),
            coeff.I, -coeff.I, coeff.LAMBDA_INV, -coeff.LAMBDA_INV,
            coeff.q0_power(3), -coeff.q0_power(3), coeff.ZERO]
_KEYS = st.integers(0, 3)
_SCALAR = st.sampled_from(_SCALARS)
_COMPLEX = st.one_of(
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0j, -0.5 + 0j, 0j]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(start=st.dictionaries(_KEYS, _SCALAR.filter(bool)),
       pairs=st.lists(st.tuples(_KEYS, _SCALAR), max_size=12))
def test_accumulate_matches_scalar_loop(start, pairs):
    want = _scalar_loop(dict(start), pairs)
    got = accumulate(dict(start), iter(pairs))
    assert list(got.items()) == list(want.items())


@settings(max_examples=150, deadline=None)
@given(start=st.dictionaries(_KEYS, _COMPLEX.filter(bool)),
       pairs=st.lists(st.tuples(_KEYS, _COMPLEX), max_size=12))
def test_accumulate_matches_complex_loop(start, pairs):
    want = _complex_loop(dict(start), pairs)
    got = accumulate(dict(start), iter(pairs))
    assert list(got.items()) == list(want.items())


def test_accumulate_returns_its_dict_and_prunes_cancellations():
    out = {"a": coeff.ONE}
    got = accumulate(out, [("a", coeff.MINUS_ONE), ("b", coeff.I),
                           ("c", coeff.ZERO), ("a", coeff.I)])
    assert got is out
    assert list(got.items()) == [("b", coeff.I), ("a", coeff.I)]


# -- the shared Combination base -------------------------------------------------


def _algebra(n):
    return (weyl.gen_x(n, 1) + coeff.I * weyl.gen_r(n, n, -2),
            weyl.gen_y(n, n) * weyl.gen_x(n, 1) - coeff.Q0)


def _hopf(n):
    e, kinv = HopfElement.generator(n, E, 1), HopfElement.generator(n, KINV, n)
    return e * kinv - coeff.LAMBDA * e, kinv + HopfElement.generator(n, F, n)


def _state(n):
    return (GaussianState.from_legs(0.5 - 1j, [(1.0, 0.5j)] * n)
            + GaussianState.from_legs(2.0, [(0.7, -1.0 + 0j)] * n),
            GaussianState.from_legs(1j, [(1.0, 0.5j)] * n))


def _words(n):
    a, b = Words(n, {("a",): coeff.ONE}), Words(n, {("b", n): coeff.I})
    return a * b - coeff.Q0 * (b * a), b + 3


_BUILDERS = [_algebra, _hopf, _state, _words]
_IDS = {"ids": lambda build: build.__name__[1:]}
_MISMATCH = {_algebra: (DescriptorMismatch, "rank {} vs {}"),
             _hopf: (DescriptorMismatch, "rank {} vs {}"),
             _state: (ShapeMismatch, "{} legs vs {}"),
             _words: (DescriptorMismatch, "rank {} vs {}")}


@pytest.mark.parametrize("build", _BUILDERS, **_IDS)
def test_combination_vector_space_laws(build):
    a, b = build(2)
    assert a + b - b == a
    assert (-a + a).is_zero
    assert a.scaled(0).is_zero
    assert a - a == type(a).zero(2)


@pytest.mark.parametrize("build", _BUILDERS, **_IDS)
def test_combination_rank_clash_raises_own_error(build):
    a, _ = build(1)
    b, _ = build(2)
    error, message = _MISMATCH[build]
    for combine, ranks in ((lambda: a + b, (1, 2)), (lambda: a - b, (1, 2)),
                           (lambda: b - a, (2, 1))):
        with pytest.raises(error) as err:
            combine()
        assert str(err.value) == message.format(*ranks)


@pytest.mark.parametrize("build", _BUILDERS, **_IDS)
def test_combination_hash_ignores_insertion_order(build):
    a, b = build(2)
    total = a + b
    items = list(total.terms.items())
    assert len(items) > 1
    backwards = type(total)(2, dict(reversed(items)))
    assert list(backwards.terms) != list(total.terms)
    assert backwards == total
    assert hash(backwards) == hash(total)


def test_state_hash_with_equal_epsilon_keys():
    # keys that tie on eps would make a sorted hash compare complex numbers
    u = GaussianState(1, {((1.0, 0.5j),): 1.0 + 0j, ((1.0, -0.5j),): 2j})
    v = GaussianState(1, {((1.0, -0.5j),): 2j, ((1.0, 0.5j),): 1.0 + 0j})
    assert u == v and hash(u) == hash(v)


@pytest.mark.parametrize("build", [_algebra, _hopf, _words], **_IDS)
def test_exact_combinations_take_scalars_on_either_side(build):
    h, _ = build(2)
    two = coeff.integer(2)
    unit = type(h).unit(2)
    assert 2 - h == unit.scaled(two) + h.scaled(-1)
    assert two - h == 2 - h
    assert h - 2 == h + unit.scaled(-2)
    assert 2 + h == h + 2 == h + unit.scaled(two)
    assert 2 * h == h * 2 == two * h == h * two == h.scaled(two)
    assert (h - h) == 0 and h + 0 == h


def test_words_multiply_by_concatenation_left_word_first():
    a = Words(1, {("a",): coeff.I, ("b", "c"): coeff.integer(2)})
    b = Words(1, {("d",): coeff.Q0, (): coeff.MINUS_ONE})
    assert list((a * b).terms.items()) == [
        (("a", "d"), coeff.I * coeff.Q0), (("a",), -coeff.I),
        (("b", "c", "d"), coeff.integer(2) * coeff.Q0),
        (("b", "c"), coeff.integer(-2))]
    assert type(a * b) is Words


def test_words_unit_is_the_empty_word():
    unit = Words.unit(2)
    a = Words(2, {("a", "b"): coeff.LAMBDA})
    assert unit.terms == {(): coeff.ONE} and unit == 1
    assert unit * a == a * unit == a
    assert a + 1 == Words(2, {("a", "b"): coeff.LAMBDA, (): coeff.ONE})


def test_words_product_rank_clash():
    with pytest.raises(DescriptorMismatch) as err:
        Words(1, {("a",): coeff.ONE}) * Words(2, {("a",): coeff.ONE})
    assert str(err.value) == "rank 1 vs 2"


def test_words_cancelling_terms_drop():
    u = Words(1, {(): coeff.ONE, ("a",): coeff.ONE})
    v = Words(1, {(): coeff.ONE, ("a",): coeff.MINUS_ONE})
    # (1 + a)(1 - a) = 1 - a + a - aa: the a terms cancel and leave no key
    assert list((u * v).terms.items()) == [((), coeff.ONE),
                                           (("a", "a"), coeff.MINUS_ONE)]
    assert (u - u).terms == {}


def test_combination_strings():
    z = (0, 0)
    algebra = weyl.AlgebraElement(2, {
        ((-2, 0), (0, 1), z): coeff.ONE, ((0, 3), z, z): -coeff.Q0,
        (z, z, z): coeff.rational(1, 2), (z, z, (1, 0)): coeff.ONE})
    assert str(algebra) == "R1^-2*y2 + (1/2) + x1 + (-q0)*R2^3"
    hopf = HopfElement(1, {((KINV, 1), (E, 1)): -coeff.LAMBDA,
                           ((F, 1),): coeff.ONE, (): coeff.integer(3)})
    assert str(hopf) == "(3) + F1 + ((-q0^4 + 1)/(q0^2))*K1^-1*E1"
    assert str(HopfElement.zero(1)) == "0"
    assert str(weyl.AlgebraElement.unit(1).scaled(coeff.I)) == "(i)"
    # legs with equal epsilon sort without comparing complex numbers
    state = (GaussianState.from_legs(1.0, [(0.7, -2 + 0j), (1.0, 0j)])
             + GaussianState.from_legs(0.5 - 1j, [(0.7, 0.5j), (1.0, 0j)]))
    assert str(state) == ("G(0.7, (-2+0j))*G(1.0, 0j)"
                          " + ((0.5-1j))*G(0.7, 0.5j)*G(1.0, 0j)")
    assert str(GaussianState.zero(2)) == "0"


# -- the one power routine -------------------------------------------------------

# single coefficients with q0 powers and Fraction and QI parts; dense ones
# (a sum of them squares slowly, so only one term takes them)
_SINGLE = [coeff.ONE, coeff.MINUS_ONE, coeff.integer(3), coeff.rational(-2, 3),
           coeff.I, coeff.gaussian(1, -2),
           coeff.gaussian(Fraction(1, 2), Fraction(-3, 4))]
_DENSE = [coeff.Q0 + coeff.ONE, coeff.LAMBDA_INV,
          coeff.I * coeff.LAMBDA - coeff.rational(1, 2)]


def _coefficients(pool):
    return st.builds(lambda c, d: c * coeff.q0_power(d), st.sampled_from(pool),
                     st.integers(-2, 2))


def _algebra_keys(n, top, scale_only):
    def key(r, bc):
        return (tuple(r), tuple(max(v, 0) for v in bc),
                tuple(max(-v, 0) for v in bc))

    exps = st.lists(st.integers(-top, top), min_size=n, max_size=n)
    return st.builds(key, exps, st.just([0] * n) if scale_only else exps)


def _words(atoms, top):
    return st.lists(st.sampled_from(atoms), max_size=top).map(tuple)


@st.composite
def _power_bases(draw, terms=1, invertible=False):
    """An ``AlgebraElement``, ``HopfElement`` or ``Words`` value of ``terms``
    terms; an invertible one is one scale monomial or one scaled word of
    ``K`` and ``K^-1``.  A sum keeps its keys short."""
    n, top = draw(st.integers(1, 2)), 2 if terms == 1 else 1
    kinds = (K, KINV) if invertible else (K, KINV, E, F)
    families = [
        (weyl.AlgebraElement, _algebra_keys(n, top, invertible)),
        (HopfElement, _words([(k, j) for k in kinds for j in range(1, n + 1)],
                             top + 1))]
    if not invertible:
        families.append((Words, _words([("a",), ("b", 1)], top + 1)))
    cls, keys = draw(st.sampled_from(families))
    pool = _SINGLE + _DENSE if terms == 1 else _SINGLE
    return cls(n, draw(st.dictionaries(keys, _coefficients(pool),
                                       min_size=terms, max_size=terms)))


@settings(max_examples=100, deadline=None)
@given(_power_bases(), st.integers(0, 8))
def test_one_term_powers_match_repeated_products(x, m):
    assert x ** m == coeff._power(x, m, type(x).unit(x.n))


@settings(max_examples=40, deadline=None)
@given(_power_bases(terms=2), st.integers(0, 8))
def test_powers_of_sums_match_repeated_products(x, m):
    assert x ** m == coeff._power(x, m, type(x).unit(x.n))


@settings(max_examples=80, deadline=None)
@given(_power_bases(invertible=True), st.integers(1, 8))
def test_negative_powers_are_powers_of_the_monomial_inverse(x, m):
    inverse = x.monomial_inverse()
    assert x ** -m == inverse ** m
    assert x ** -m == coeff._power(inverse, m, type(x).unit(x.n))


_ALGEBRA_TWO_TERMS = weyl.gen_r(1, 1) + weyl.gen_r(1, 1, -1)
_HOPF_TWO_TERMS = HopfElement.generator(1, K, 1) + HopfElement.generator(
    1, KINV, 1)


@pytest.mark.parametrize("x", [
    Words(1, {("a",): coeff.ONE}), Words.zero(1), Words.unit(1),
    Words(1, {("a",): coeff.ONE, (): coeff.I}),
    weyl.AlgebraElement.zero(1), weyl.gen_y(1, 1), weyl.gen_x(1, 1),
    _ALGEBRA_TWO_TERMS, 2 * weyl.gen_r(1, 1) * weyl.gen_x(1, 1),
    HopfElement.zero(1), HopfElement.generator(1, E, 1), _HOPF_TWO_TERMS,
    HopfElement.generator(1, K, 1) * HopfElement.generator(1, F, 1),
    GaussianState.from_legs(1.0, [(1.0, 0j)])],
    ids=["word", "words-zero", "words-unit", "words-two-terms",
         "algebra-zero", "y", "x", "algebra-two-terms", "R-times-x",
         "hopf-zero", "E", "hopf-two-terms", "K-times-F", "state"])
def test_no_inverse_outside_one_invertible_term(x):
    with pytest.raises(ValueError):
        x.monomial_inverse()
    with pytest.raises(ValueError):
        x ** -1


@pytest.mark.parametrize("cls", [weyl.AlgebraElement, HopfElement])
def test_the_unit_and_a_scaled_unit_invert(cls):
    unit = cls.unit(2)
    assert unit.monomial_inverse() == unit ** -1 == unit
    two = unit.scaled(coeff.integer(2))
    assert two ** -1 == unit.scaled(coeff.integer(2).inv())
