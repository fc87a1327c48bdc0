import pytest
from hypothesis import given, settings, strategies as st

from qweyl import coeff, weyl
from qweyl.errors import DescriptorMismatch, ShapeMismatch
from qweyl.gauss import GaussianState
from qweyl.sparse import accumulate
from qweyl.uq import E, F, KINV, HopfElement

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


_BUILDERS = [_algebra, _hopf, _state]
_IDS = {"ids": lambda build: build.__name__[1:]}
_MISMATCH = {_algebra: (DescriptorMismatch, "rank {} vs {}"),
             _hopf: (DescriptorMismatch, "rank {} vs {}"),
             _state: (ShapeMismatch, "{} legs vs {}")}


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


@pytest.mark.parametrize("build", [_algebra, _hopf], **_IDS)
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
