import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qweyl import coeff, weyl
from qweyl.coeff import LAMBDA_INV, ONE, q_power
from qweyl.errors import DescriptorMismatch, IndexOutOfRange
from qweyl.weyl import (AlgebraElement, a_op, b_op, gamma, gen_r, gen_x,
                        gen_y, normal_form, q_elem, q_elem_inv, rho, rho_inv,
                        sign_of, verify_identity)


# -- an independent, naive rewriting engine ----------------------------------
#
# Words over single-step atoms are rewritten by applying defining relations
# at randomly chosen admissible spots until a fixpoint; used as the oracle
# for the batch normal-form engine.


def _q_of(n, k):
    # Q_k as naive words: sign * R_k R_k; the phantom index n+1 is the unit
    if k == n + 1:
        return [(ONE, ())]
    sgn = coeff.integer(sign_of(n, k))
    return [(sgn, (("R", k, 1), ("R", k, 1)))]


def _pair_positions(word):
    pairs = []
    for i, atom in enumerate(word):
        if atom[0] != "y":
            continue
        for j, other in enumerate(word):
            if other[0] == "x" and other[1] == atom[1]:
                pairs.append((i, j, atom[1]))
    return pairs


def _swap_cost(left, right):
    """Scalar c with left*right == c * right*left for distinct atoms."""
    (k1, a1), (k2, a2) = (left[0], left), (right[0], right)
    if k1 == "R" or k2 == "R":
        if k1 == "R" and k2 == "R":
            return ONE
        if k1 == "R":
            # R_l^s g_k -> g_k R_l^s
            _, l, s = left
            kind, k = right[0], right[1]
            if k >= l:
                return q_power(s) if kind == "y" else q_power(-s)
            return ONE
        _, l, s = right
        kind, k = left[0], left[1]
        if k >= l:
            return q_power(-s) if kind == "y" else q_power(s)
        return ONE
    k1, i1 = left[0], left[1]
    k2, i2 = right[0], right[1]
    if k1 == "y" and k2 == "y":
        if i1 == i2:
            return ONE
        return q_power(1) if i1 < i2 else q_power(-1)
    if k1 == "x" and k2 == "x":
        if i1 == i2:
            return ONE
        return q_power(-1) if i1 < i2 else q_power(1)
    if k1 == "y" and k2 == "x":
        assert i1 != i2
        return q_power(-1)
    if k1 == "x" and k2 == "y":
        assert i1 != i2
        return q_power(1)
    raise AssertionError(left)


def _naive_step(n, cv, word, rng):
    """One randomly chosen admissible rewrite; None at a fixpoint."""
    pairs = _pair_positions(word)
    if pairs:
        adjacent = [p for p in pairs if abs(p[0] - p[1]) == 1]
        if adjacent:
            i, j, k = adjacent[rng.randrange(len(adjacent))]
            lo, hi = min(i, j), max(i, j)
            out = []
            first = word[lo][0]
            qq = q_power(-1) if first == "y" else q_power(1)
            for qc, qw in _q_of(n, k + 1):
                out.append((cv * qc, word[:lo] + qw + word[hi + 1:]))
            for qc, qw in _q_of(n, k):
                out.append((cv * (-qq) * qc, word[:lo] + qw + word[hi + 1:]))
            return out
        # walk one endpoint of a random pair a single step toward its partner
        i, j, _k = pairs[rng.randrange(len(pairs))]
        lo, hi = min(i, j), max(i, j)
        pos = lo if rng.random() < 0.5 else hi - 1
        cost = _swap_cost(word[pos], word[pos + 1])
        swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2:]
        return [(cv * cost, swapped)]

    # no same-index pairs: bubble toward block order R < y < x, indices ascending
    rank = {"R": 0, "y": 1, "x": 2}
    violations = []
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if rank[a[0]] > rank[b[0]]:
            violations.append(pos)
        elif a[0] == b[0] and a[0] != "R" and a[1] > b[1]:
            violations.append(pos)
        elif a[0] == "R" and b[0] == "R":
            if a[1] > b[1] or (a[1] == b[1] and a[2] == -b[2]):
                violations.append(pos)
    if not violations:
        return None
    pos = violations[rng.randrange(len(violations))]
    a, b = word[pos], word[pos + 1]
    if a[0] == "R" and b[0] == "R" and a[1] == b[1] and a[2] == -b[2]:
        return [(cv, word[:pos] + word[pos + 2:])]
    cost = _swap_cost(a, b)
    return [(cv * cost, word[:pos] + (b, a) + word[pos + 2:])]


def naive_normal_form(n, words, rng):
    agenda = [(cv, tuple(atoms)) for cv, atoms in words]
    done = {}
    while agenda:
        cv, word = agenda.pop()
        step = _naive_step(n, cv, word, rng)
        if step is None:
            key = _word_to_key(n, word)
            acc = done.get(key, coeff.ZERO) + cv
            if acc.is_zero:
                done.pop(key, None)
            else:
                done[key] = acc
        else:
            agenda.extend(step)
    return AlgebraElement(n, done)


def _word_to_key(n, word):
    r = [0] * n
    b = [0] * n
    c = [0] * n
    for atom in word:
        if atom[0] == "R":
            r[atom[1] - 1] += atom[2]
        elif atom[0] == "y":
            b[atom[1] - 1] += 1
        else:
            c[atom[1] - 1] += 1
    return (tuple(r), tuple(b), tuple(c))


def random_word(n, rng, max_len=6):
    atoms = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(("R", "y", "x"))
        k = rng.randint(1, n)
        atoms.append(("R", k, rng.choice((-1, 1))) if kind == "R" else (kind, k))
    return tuple(atoms)


# -- examples ------------------------------------------------------------------


def test_xy_normal_form_single_pair():
    got = gen_x(1, 1) * gen_y(1, 1)
    want = AlgebraElement.unit(1) + q_power(1) * gen_r(1, 1, 2)
    assert got == want  # 1 + q*R^2, i.e. Q2 - q*Q1


def test_generator_already_normal():
    y = gen_y(2, 1)
    assert normal_form(2, [(ONE, (("y", 1),))]) == y


def test_empty_word_list_is_zero():
    assert normal_form(2, []) == AlgebraElement.zero(2)
    assert normal_form(2, [(ONE, ())]) == AlgebraElement.unit(2)


def test_defining_commutator_collapses():
    lhs = gen_x(1, 1) * gen_y(1, 1) - q_power(2) * (gen_y(1, 1) * gen_x(1, 1))
    assert lhs == weyl.scalar_element(1, ONE - q_power(2))


def test_multiply_unit():
    a = gen_y(2, 1) * gen_x(2, 2)
    assert AlgebraElement.unit(2) * a == a


def test_q_commutes_past_y():
    for n in (1, 2):
        for k in range(1, n + 1):
            for j in range(k, n + 1):
                lhs = q_elem(n, k) * gen_y(n, j)
                rhs = q_power(2) * (gen_y(n, j) * q_elem(n, k))
                assert lhs == rhs


def test_star_fixes_generators():
    assert gen_y(2, 1).star() == gen_y(2, 1)
    assert gen_x(3, 2).star() == gen_x(3, 2)
    assert q_elem(2, 1).star() == q_elem(2, 1)


def test_q_elem_values():
    assert q_elem(1, 2) == AlgebraElement.unit(1)
    assert q_elem(1, 1) == gen_r(1, 1, 2).scaled(-1)
    # defining commutator reproduces the canonical form
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            comm = LAMBDA_INV * (gen_y(n, k) * gen_x(n, k)
                                 - gen_x(n, k) * gen_y(n, k))
            assert comm == q_elem(n, k)


def test_q_elems_commute():
    for n in (2, 3):
        for k in range(1, n + 2):
            for l in range(1, n + 2):
                a, b = q_elem(n, k), q_elem(n, l)
                assert a * b == b * a


def test_a_op_top_index():
    for n in (1, 2, 3):
        want = gen_y(n, n).scaled(-coeff.I * LAMBDA_INV)
        assert a_op(n, n) == want


def test_rho_shapes():
    assert rho(1, 1) == gen_r(1, 1, 2)
    assert rho(2, 1) == gen_r(2, 1) * gen_r(2, 2, -2)
    assert rho(3, 1) == gen_r(3, 1) * gen_r(3, 2, -2) * gen_r(3, 3)
    assert rho(2, 2) == gen_r(2, 1) * gen_r(2, 2)
    assert rho(1, 1) * rho_inv(1, 1) == AlgebraElement.unit(1)


def test_ab_commutator_top():
    for n in (1, 2):
        lhs = a_op(n, n) * b_op(n, n) - b_op(n, n) * a_op(n, n)
        rhs = rho_inv(n, n).scaled(-LAMBDA_INV)
        assert lhs == rhs


def test_gamma_values():
    assert gamma(1) == gen_r(1, 1, -2)
    assert gamma(2) == gen_r(2, 1, -4) * gen_r(2, 2, 2)
    assert gamma(3) == gen_r(3, 1, -6) * gen_r(3, 2, 2) * gen_r(3, 3, 2)


def test_verify_identity_witness():
    ok, witness = verify_identity(gen_x(1, 1) * gen_y(1, 1),
                                  gen_y(1, 1) * gen_x(1, 1))
    assert not ok
    want = (q_power(2) - ONE) * (gen_y(1, 1) * gen_x(1, 1)
                                 - AlgebraElement.unit(1))
    assert witness == want


def test_index_errors():
    with pytest.raises(IndexOutOfRange):
        gen_x(1, 2)
    with pytest.raises(IndexOutOfRange):
        gen_r(2, 0)
    with pytest.raises(IndexOutOfRange):
        q_elem(2, 4)
    with pytest.raises(DescriptorMismatch):
        gen_y(1, 1) * gen_y(2, 1)



# canonical strings of the derived elements, as printed by the hand-built
# products these builders replaced; (n, builder, index or None, str)
_PINNED_BUILDERS = [
    (1, "rho", 1, "R1^2"),
    (1, "rho_inv", 1, "R1^-2"),
    (1, "a_op", 1, "((-i*q0^2)/(q0^4 - 1))*y1"),
    (1, "b_op", 1, "((-i)/(q0^4 - 1))*R1^-2*x1"),
    (1, "q_elem", 1, "(-1)*R1^2"),
    (1, "q_elem_inv", 1, "(-1)*R1^-2"),
    (1, "q_elem", 2, "(1)"),
    (1, "q_elem_inv", 2, "(1)"),
    (1, "gamma", None, "R1^-2"),
    (2, "rho", 1, "R1*R2^-2"),
    (2, "rho_inv", 1, "R1^-1*R2^2"),
    (2, "a_op", 1, "((-i*q0)/(q0^4 - 1))*R2^-2*y1*x2"),
    (2, "b_op", 1, "((i*q0^3)/(q0^4 - 1))*R1^-1*y2*x1"),
    (2, "q_elem", 1, "R1^2"),
    (2, "q_elem_inv", 1, "R1^-2"),
    (2, "rho", 2, "R1*R2"),
    (2, "rho_inv", 2, "R1^-1*R2^-1"),
    (2, "a_op", 2, "((-i*q0^2)/(q0^4 - 1))*y2"),
    (2, "b_op", 2, "((-i)/(q0^4 - 1))*R1^-1*R2^-1*x2"),
    (2, "q_elem", 2, "(-1)*R2^2"),
    (2, "q_elem_inv", 2, "(-1)*R2^-2"),
    (2, "q_elem", 3, "(1)"),
    (2, "q_elem_inv", 3, "(1)"),
    (2, "gamma", None, "R1^-4*R2^2"),
    (3, "rho", 1, "R1*R2^-2*R3"),
    (3, "rho_inv", 1, "R1^-1*R2^2*R3^-1"),
    (3, "a_op", 1, "((i*q0)/(q0^4 - 1))*R2^-2*y1*x2"),
    (3, "b_op", 1, "((-i*q0^3)/(q0^4 - 1))*R1^-1*R3^-1*y2*x1"),
    (3, "q_elem", 1, "(-1)*R1^2"),
    (3, "q_elem_inv", 1, "(-1)*R1^-2"),
    (3, "rho", 2, "R2*R3^-2"),
    (3, "rho_inv", 2, "R2^-1*R3^2"),
    (3, "a_op", 2, "((-i*q0)/(q0^4 - 1))*R3^-2*y2*x3"),
    (3, "b_op", 2, "((i*q0^3)/(q0^4 - 1))*R2^-1*y3*x2"),
    (3, "q_elem", 2, "R2^2"),
    (3, "q_elem_inv", 2, "R2^-2"),
    (3, "rho", 3, "R1*R3"),
    (3, "rho_inv", 3, "R1^-1*R3^-1"),
    (3, "a_op", 3, "((-i*q0^2)/(q0^4 - 1))*y3"),
    (3, "b_op", 3, "((-i)/(q0^4 - 1))*R1^-1*R3^-1*x3"),
    (3, "q_elem", 3, "(-1)*R3^2"),
    (3, "q_elem_inv", 3, "(-1)*R3^-2"),
    (3, "q_elem", 4, "(1)"),
    (3, "q_elem_inv", 4, "(1)"),
    (3, "gamma", None, "R1^-6*R2^2*R3^2"),
]

_BUILDERS = {"rho": rho, "rho_inv": rho_inv, "a_op": a_op, "b_op": b_op,
             "q_elem": q_elem, "q_elem_inv": q_elem_inv}


def test_builders_pinned_to_canonical_strings():
    for n, name, k, want in _PINNED_BUILDERS:
        got = gamma(n) if k is None else _BUILDERS[name](n, k)
        assert str(got) == want, (n, name, k)
    assert len(_PINNED_BUILDERS) == sum(4 * n + 2 * (n + 1) + 1
                                        for n in (1, 2, 3))


def test_builder_index_messages():
    for n in (1, 2, 3):
        for k in (0, n + 1, n + 2):
            cases = [(rho, f"rho index {k} outside 1..{n}"),
                     (rho_inv, f"rho index {k} outside 1..{n}"),
                     (a_op, f"index {k} outside 1..{n}"),
                     (b_op, f"index {k} outside 1..{n}")]
            if k != n + 1:
                cases += [(q_elem, f"Q index {k} outside 1..{n + 1}"),
                          (q_elem_inv, f"Q index {k} outside 1..{n + 1}")]
            for fn, want in cases:
                with pytest.raises(IndexOutOfRange) as err:
                    fn(n, k)
                assert str(err.value) == want
    with pytest.raises(IndexOutOfRange) as err:
        gamma(0)
    assert str(err.value) == "rank must be positive"

# -- oracle agreement -----------------------------------------------------------


def test_mixed_index_word_against_oracle():
    # x1 * y2 * y1 at two coordinate pairs
    word = (("x", 1), ("y", 2), ("y", 1))
    engine = normal_form(2, [(ONE, word)])
    for seed in range(5):
        oracle = naive_normal_form(2, [(ONE, word)], random.Random(seed))
        assert engine == oracle
    # equals q * y2 * (Q2 - q Q1)
    direct = q_power(1) * (gen_y(2, 2) * (q_elem(2, 2) - q_power(1) * q_elem(2, 1)))
    assert engine == direct


def _same_index_words(n):
    """Every ``x_k^a y_k^b`` and ``y_k^a x_k^b`` with a, b <= 3: both
    contraction rules, at k < n and at k = n."""
    for k in range(1, n + 1):
        for a in range(1, 4):
            for b in range(1, 4):
                yield (("x", k),) * a + (("y", k),) * b
                yield (("y", k),) * a + (("x", k),) * b


def test_random_words_match_oracle():
    rng = random.Random(20240817)
    for n in (1, 2, 3):
        words = [random_word(n, rng) for _ in range(40)]
        for word in words + list(_same_index_words(n)):
            engine = normal_form(n, [(ONE, word)])
            for strategy_seed in range(3):
                oracle = naive_normal_form(
                    n, [(ONE, word)], random.Random(strategy_seed))
                assert engine == oracle, (n, word)


def test_termination_on_degree_eight_words():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(10):
            word = random_word(n, rng, max_len=8)
            element = normal_form(n, [(ONE, word)])
            for key in element.terms:
                _, b, c = key
                assert all(min(bi, ci) == 0 for bi, ci in zip(b, c))


# -- the closed-form product against the oracle ---------------------------------


def _mono(n, key):
    return AlgebraElement(n, {key: ONE})


def _key_word(key):
    """The atoms of the monomial ``key``, written out independently."""
    r, b, c = key
    return (tuple(("R", i + 1, s) for i, s in enumerate(r) if s)
            + tuple(("y", i + 1) for i, m in enumerate(b) for _ in range(m))
            + tuple(("x", i + 1) for i, m in enumerate(c) for _ in range(m)))


def _oracle_product(n, ka, kb, seed=0):
    return naive_normal_form(n, [(ONE, _key_word(ka) + _key_word(kb))],
                             random.Random(seed))


@st.composite
def _keys(draw, n, top=3):
    r = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    parts = [draw(st.tuples(st.booleans(), st.integers(0, top)))
             for _ in range(n)]
    return (r, tuple(0 if is_x else m for is_x, m in parts),
            tuple(m if is_x else 0 for is_x, m in parts))


@st.composite
def _key_pairs(draw):
    n = draw(st.integers(1, 5))
    ka, kb = draw(_keys(n, 2)), draw(_keys(n, 2))
    if not draw(st.booleans()):  # keep only the indices that do not contract
        (_, ba, ca), (rb, bb, cb) = ka, kb
        kb = (rb, tuple(0 if c else m for m, c in zip(bb, ca)),
              tuple(0 if b else m for m, b in zip(cb, ba)))
    return n, ka, kb


@settings(max_examples=60, deadline=None)
@given(_key_pairs())
def test_key_products_match_oracle(case):
    n, ka, kb = case
    assert _mono(n, ka) * _mono(n, kb) == _oracle_product(n, ka, kb)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), _keys(n))))
def test_star_of_a_key_matches_oracle(case):
    # the involution reverses the word, which the oracle sorts back
    n, key = case
    word = _key_word(key)[::-1]
    assert _mono(n, key).star() == naive_normal_form(
        n, [(ONE, word)], random.Random(0))


@st.composite
def _blocks(draw):
    n = draw(st.integers(1, 3))
    return (n, draw(st.integers(1, n)), draw(st.integers(1, 12)),
            draw(st.integers(1, 12)))


@settings(max_examples=15, deadline=None)
@given(_blocks())
@example((1, 1, 2, 2)).via("t = 2")
@example((2, 1, 3, 4)).via("t = 3")
@example((3, 2, 5, 4)).via("t = 4")
@example((1, 1, 12, 12)).via("t = 12")
def test_same_index_blocks_match_oracle(case):
    # y_k^a x_k^b and x_k^b y_k^a, with t = min(a, b) contracted pairs
    n, k, a, b = case
    y, x = gen_y(n, k) ** a, gen_x(n, k) ** b
    for got, word in ((y * x, (("y", k),) * a + (("x", k),) * b),
                      (x * y, (("x", k),) * b + (("y", k),) * a)):
        assert got == naive_normal_form(n, [(ONE, word)], random.Random(0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_same_index_blocks_match_scale_products(n):
    # y_k^t x_k^t = prod_{0<=j<t} (Q_{k+1} - q^(-1-2j) Q_k) and
    # x_k^t y_k^t = prod_{1<=j<=t} (Q_{k+1} - q^(2j-1) Q_k), formed from
    # products of scale elements only, which never reach ``_block``
    for k in range(1, n + 1):
        qk, qk1 = q_elem(n, k), q_elem(n, k + 1)
        for t in (1, 2, 13, 25) + ((40,) if n == 1 else ()):
            yx = xy = AlgebraElement.unit(n)
            for j in range(t):
                yx = yx * (qk1 - q_power(-1 - 2 * j) * qk)
                xy = xy * (qk1 - q_power(2 * j + 1) * qk)
            y, x = gen_y(n, k) ** t, gen_x(n, k) ** t
            assert y * x == yx, (k, t)
            assert x * y == xy, (k, t)


def test_rho_weights_are_the_conjugation_weights():
    for n in (1, 2, 3, 4):
        for j in range(1, n + 1):
            r = rho(n, j)
            for k in range(1, n + 1):
                w = weyl.rho_weight(n, j, k)
                y, x = gen_y(n, k), gen_x(n, k)
                assert r * y == q_power(w) * (y * r), (n, j, k)
                assert r * x == q_power(-w) * (x * r), (n, j, k)


@st.composite
def _double_contractions(draw):
    n = draw(st.integers(2, 4))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                max_size=2, unique=True)))
    ka, kb = draw(_keys(n, 2)), draw(_keys(n, 2))
    keys = [[list(part) for part in key] for key in (ka, kb)]
    for at in (i, j):
        y_first = draw(st.booleans())
        m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        for key, e, y in ((keys[0], m, y_first), (keys[1], p, not y_first)):
            key[1][at], key[2][at] = (e, 0) if y else (0, e)
    ka, kb = (tuple(map(tuple, key)) for key in keys)
    return n, ka, kb


@settings(max_examples=30, deadline=None)
@given(_double_contractions())
def test_products_contracting_at_two_indices_match_oracle(case):
    n, ka, kb = case
    assert _mono(n, ka) * _mono(n, kb) == _oracle_product(n, ka, kb)


def test_powers_of_one_term_form_few_key_products(monkeypatch):
    calls = []
    product = weyl._key_product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(weyl, "_key_product", counted)
    for m in (1, 2, 3, 1000, 10 ** 6, 99999999):
        calls.clear()
        z = (0,)
        assert (gen_x(1, 1) ** m).terms == {(z, z, (m,)): ONE}
        assert len(calls) <= 1


_POWER_COEFFS = (ONE, q_power(1), coeff.I, coeff.Q0 + ONE, LAMBDA_INV)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), _keys(n), st.sampled_from(_POWER_COEFFS),
    st.integers(0, 12))))
def test_powers_of_one_term_match_repeated_products(case):
    n, key, cv, m = case
    x = AlgebraElement(n, {key: cv})
    want = AlgebraElement.unit(n)
    if m:
        want = x
        for _ in range(m - 1):
            want = want * x
    assert x ** m == want


def test_dense_coefficient_power_is_refused_before_any_product(monkeypatch):
    # y1*x2 squares to q (y1*x2)^2: the 20000th power has q0 degree
    # 20000*19999 from q and 20000 from (q0+1)^20000
    x = AlgebraElement(2, {((0, 0), (1, 0), (0, 1)): coeff.Q0 + ONE})

    def no_product(a, b):
        raise AssertionError("a dense product was formed")

    monkeypatch.setattr(coeff, "_pmul", no_product)
    with pytest.raises(ValueError) as err:
        x ** 20000
    assert str(err.value) == (f"q0 degree {20000 * 19999 + 20000} exceeds "
                              f"the bound {coeff.MAX_DEGREE}")


def test_dense_coefficient_work_leaves_out_the_q_power_of_the_key():
    # (q0+1)^300 is 300 * 300 work; with q^(300*299/2) counted it would be
    # 300 * 90000, over the bound
    x = AlgebraElement(2, {((0, 0), (1, 0), (0, 1)): coeff.Q0 + ONE})
    assert (x ** 300).terms == {((0, 0), (300, 0), (0, 300)):
                                (coeff.Q0 + ONE) ** 300 * q_power(44850)}


def test_free_words_merge_equal_keys_as_they_arise(monkeypatch):
    # (y1 x1)^k has k + 1 terms, but 2^k contraction paths
    k = 12
    want = (gen_y(1, 1) * gen_x(1, 1)) ** k
    calls = []
    product = weyl._key_product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(weyl, "_key_product", counted)
    assert normal_form(1, [(ONE, (("y", 1), ("x", 1)) * k)]) == want
    assert len(want.terms) == k + 1
    assert len(calls) <= 2 * k * (k + 1)


def test_same_index_blocks_refuse_degrees_over_the_bound(monkeypatch):
    # a block's q0 degree is 4*t*m - 2*t^2 for t = min(m, p) contracted pairs
    # and m atoms on its left; it is refused before any polynomial is formed
    y5, x5 = gen_y(1, 1) ** 5, gen_x(1, 1) ** 5
    at_bound = y5 * x5
    y6, x6 = gen_y(2, 1) ** 6, gen_x(2, 1) ** 6

    def no_product(a, b):
        raise AssertionError("a polynomial product was formed")

    monkeypatch.setattr(coeff, "MAX_DEGREE", 50)
    monkeypatch.setattr(coeff, "_pmul", no_product)
    assert y5 * x5 == at_bound
    for lhs, rhs, degree in ((y6, x6, 72), (x6, y6, 72),
                             (y6 * gen_y(2, 1), x6, 96),
                             (x6, y6 * gen_y(2, 1), 72)):
        with pytest.raises(ValueError) as err:
            lhs * rhs
        assert str(err.value) == f"q0 degree {degree} exceeds the bound 50"


# -- structural properties --------------------------------------------------------


def _random_element(n, rng, words=2, max_len=4):
    total = AlgebraElement.zero(n)
    for _ in range(words):
        cv = coeff.integer(rng.randint(-3, 3))
        if cv.is_zero:
            cv = ONE
        total = total + normal_form(n, [(cv, random_word(n, rng, max_len))])
    return total


def test_associativity_probes():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(12):
            a = _random_element(n, rng)
            b = _random_element(n, rng)
            c = _random_element(n, rng)
            assert (a * b) * c == a * (b * c)


def test_star_involution_and_antimultiplicativity():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for _ in range(12):
            a = _random_element(n, rng)
            b = _random_element(n, rng)
            assert a.star().star() == a
            assert (a * b).star() == b.star() * a.star()


def test_full_relation_suite_symbolically():
    for n in (1, 2, 3):
        rels = (weyl.coordinate_relations(n) + weyl.localized_relations(n)
                + weyl.ab_rho_relations(n))
        for rel in rels:
            element = normal_form(n, rel.terms)
            assert element.is_zero, (n, rel.name, str(element))


def _catalog_lines(n):
    """Each rank-``n`` relation's name, then a line per term: scalar, atoms."""
    for catalog in (weyl.coordinate_relations, weyl.localized_relations,
                    weyl.ab_rho_relations):
        for rel in catalog(n):
            yield f"n={n} {rel.name}"
            for cv, atoms in rel.terms:
                assert isinstance(cv, coeff.ScalarValue), (n, rel.name)
                yield f"  {cv} |" + "".join(
                    f" {a[0]}{a[1]}" + (f"^{a[2]}" if a[0] == "R" else "")
                    for a in atoms)


def test_relation_catalogs_match_golden_file():
    path = pathlib.Path(__file__).with_name("golden_relations.txt")
    golden = path.read_text().splitlines()
    got = [line for n in (1, 2, 3) for line in _catalog_lines(n)]
    for number, (line, want) in enumerate(zip(got, golden), 1):
        assert line == want, f"line {number}"
    assert len(got) == len(golden)


def _rank_one_reference():
    """The rank-one ``xy``, ``Qxy[y]`` and ``Qxy[x]`` written out by hand."""
    y, x, r2 = ("y", 1), ("x", 1), ("R", 1, 2)  # Q1 = -R1^2
    q2 = q_power(2)
    return {
        "xy": ((ONE, (x, y)), (-q2, (y, x)), (q2 - ONE, ())),
        "Qxy[y]": ((-ONE, (r2, y)), (q2, (y, r2))),
        "Qxy[x]": ((-ONE, (r2, x)), (q_power(-2), (x, r2))),
    }


def test_rank_one_relations_equal_their_hand_written_term_lists():
    rels = weyl.localized_relations(1)
    assert [rel.name for rel in rels[-3:]] == ["xy", "Qxy[y]", "Qxy[x]"]
    got = {rel.name: rel.terms for rel in rels}
    for name, want in _rank_one_reference().items():
        assert got[name] == want, name
        assert str(normal_form(1, got[name])) == str(normal_form(1, want))


def test_hermitian_element_list():
    for n in (1, 2, 3):
        for name, element in weyl.hermitian_generators(n):
            assert element.star() == element, (n, name)


def test_sign_table():
    def table(n):
        return tuple(weyl.sign_of(n, k) for k in range(1, n + 2))

    assert table(1) == (-1, 1)
    assert table(2) == (1, -1, 1)
    assert table(3) == (-1, 1, -1, 1)
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            want = gen_r(n, k, 2).scaled(weyl.sign_of(n, k))
            assert q_elem(n, k) == want



def test_power_of_a_sum_checks_its_work_before_any_product(monkeypatch):
    monkeypatch.setattr(weyl, "MAX_POWER_WORK", 64)
    s = gen_y(1, 1) + gen_x(1, 1)
    mixed = gen_y(2, 1) * gen_x(2, 2) + gen_r(2, 1, -3)
    # 2^4 words of 4 atoms is at the bound; 2^2 words of 2 * 3 atoms below it
    assert s ** 4 == s * s * s * s
    assert mixed ** 2 == mixed * mixed
    assert len((gen_y(1, 1) ** 200).terms) == 1  # one term keeps its path
    assert s ** 1 == s and s ** 0 == AlgebraElement.unit(1)

    def no_product(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(AlgebraElement, "__mul__", no_product)
    for base, m, atoms in ((s, 5, 5), (s, 10 ** 12, 10 ** 12), (mixed, 4, 12)):
        with pytest.raises(ValueError) as err:
            base ** m
        assert str(err.value) == (
            f"power {m} of a 2-term element expands to 2^{m} words of "
            f"{atoms} atoms, over the bound 64")
