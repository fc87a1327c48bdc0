from hypothesis import given, settings, strategies as st

from qweyl import coeff
from qweyl.sparse import accumulate

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
