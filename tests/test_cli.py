import contextlib
import io
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import cli, coeff, parser, uq, weyl
from qweyl.coeff import ONE, q_power
from qweyl.errors import IndexOutOfRange, ParseError
from qweyl.parser import parse_algebra, parse_expression, parse_hopf, parse_scalar


# -- parsing --------------------------------------------------------------------


def test_parse_defining_relation_collapses():
    got = parse_algebra("x1*y1 - q^2*y1*x1", 1)
    assert got == weyl.scalar_element(1, ONE - q_power(2))


def test_parse_star_postfix():
    assert parse_algebra("y1'", 1) == weyl.gen_y(1, 1)
    mixed = parse_algebra("(i*y1)'", 1)
    assert mixed == weyl.gen_y(1, 1).scaled(-coeff.I)


def test_parse_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_algebra("R1^-3 * x2", 1)


def test_parse_q_sugar():
    assert parse_algebra("Q1", 2) == weyl.q_elem(2, 1)
    assert parse_algebra("Q3", 2) == weyl.AlgebraElement.unit(2)
    assert parse_algebra("Q1^-1", 2) == weyl.q_elem_inv(2, 1)


def test_parse_negative_exponent_rules():
    assert parse_algebra("R2^-4", 2) == weyl.gen_r(2, 2, -4)
    with pytest.raises(ParseError):
        parse_algebra("y1^-1", 1)
    with pytest.raises(ParseError):
        parse_hopf("E1^-1", 1)
    assert parse_hopf("K1^-1", 1) == uq.HopfElement.generator(1, uq.KINV, 1)


def test_parse_hopf_queries():
    assert parse_expression("eps(K1*K1^-1 + E1)", 1) == ONE
    s_val = parse_expression("S(E1)", 1)
    want = -(uq.HopfElement.generator(1, uq.KINV, 1)
             * uq.HopfElement.generator(1, uq.E, 1))
    assert s_val == want


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_algebra("y1 + ?", 1)
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_algebra("y1 * K1", 1)  # mixing families
    assert "mix" in str(err.value)
    with pytest.raises(ParseError):
        parse_scalar("y1")
    with pytest.raises(ParseError):
        parse_algebra("q0 ^ x", 1)


@pytest.mark.parametrize("text, position", [
    ("x1 - E1", 3), ("E1 - x1", 3), ("x1 + E1", 3), ("E1 + x1", 3),
    ("x1 * E1", 3), ("E1*x1", 2), ("2*E1 - x1", 5), ("(x1 - 2) * (3*E1)", 9),
])
def test_parse_refuses_mixed_families(text, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, 1)
    assert str(err.value) == ("cannot mix coordinate and symmetry generators "
                              f"(at position {position})")


@pytest.mark.parametrize("text, printed", [
    ("2 - E1*F1", "(2) + (-1)*E1*F1"),
    ("-E1 + 3*K1^-1", "(-1)*E1 + (3)*K1^-1"),
    ("3 - x1", "(3) + (-1)*x1"),
    ("x1*(2 - y1)", "(-1) + (2)*x1 + (-q0^2)*R1^2"),
])
def test_parse_scalar_operands(text, printed):
    assert str(parse_expression(text, 1)) == printed


def test_roundtrip_random_elements():
    rng = random.Random(404)
    for n in (1, 2, 3):
        for _ in range(10):
            atoms = []
            for _ in range(rng.randint(0, 4)):
                kind = rng.choice(("R", "y", "x"))
                k = rng.randint(1, n)
                atoms.append(("R", k, rng.choice((-2, -1, 1, 2)))
                             if kind == "R" else (kind, k))
            cv = coeff.q0_power(rng.randint(-2, 2)) * coeff.integer(
                rng.choice((1, -1, 2)))
            element = weyl.normal_form(n, [(cv, tuple(atoms))])
            again = parse_algebra(str(element), n)
            assert again == element, str(element)


def test_roundtrip_hopf_words():
    h = parse_hopf("K1*E2*F1 - lambda*K1^-1 + (1/2)*F2", 2)
    assert parse_hopf(str(h), 2) == h


def test_roundtrip_scalars():
    values = [
        coeff.LAMBDA_INV,
        coeff.I * coeff.q0_power(3) - coeff.rational(2, 3),
        (coeff.Q0 - ONE) / (coeff.q0_power(2) + coeff.integer(5)),
    ]
    for value in values:
        assert parse_scalar(str(value)) == value


# -- command-line front end -------------------------------------------------------


def test_cli_normalize(capsys):
    rc = cli.main(["normalize", "--n", "1", "x1*y1 - q^2*y1*x1"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert parse_algebra(out, 1) == weyl.scalar_element(1, ONE - q_power(2))


def test_cli_normalize_answers_hopf_queries(capsys):
    rc = cli.main(["normalize", "--n", "1", "S(E1)"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert parse_hopf(out, 1) == uq.antipode(1, (uq.E, 1))
    rc = cli.main(["normalize", "--n", "1", "eps(K1 + E1)"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert parse_expression(out, 1) == ONE


def test_cli_act_matches_library(capsys):
    rc = cli.main(["act", "--n", "2", "E1", "x1"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert parse_algebra(out, 2) == uq.act((uq.E, 1), weyl.gen_x(2, 1))


def test_cli_parse_error_exit_code(capsys):
    rc = cli.main(["normalize", "--n", "1", "x2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    assert cli.main(["verify", "--suite", "not-a-suite"]) == 2


def test_cli_verify_suite_exit_zero(capsys):
    rc = cli.main(["verify", "--suite", "obstruction"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in out.strip().splitlines():
        assert line.startswith("suite=obstruction, case=")
        assert ", residual=" in line and ", pass=" in line


def test_cli_reports_are_deterministic(capsys, tmp_path):
    args = ["verify", "--suite", "invariance", "--n", "1",
            "--samples", "6", "--seed", "11"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "a.txt")])
    out1 = capsys.readouterr().out
    rc2 = cli.main(args + ["--out", str(tmp_path / "b.txt")])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()
    assert (tmp_path / "a.txt").read_text().strip() == out1.strip()


def test_cli_documented_invocations(capsys):
    rc = cli.main(["verify", "--suite", "ab-rho", "--n", "3"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["verify", "--suite", "invariance", "--n", "2",
                   "--phi", "1.0471975512", "--samples", "20", "--seed", "7"])
    assert rc == 0
    capsys.readouterr()


def test_cli_pointwise_and_model2(capsys):
    rc = cli.main(["verify", "--suite", "pointwise", "--n", "2",
                   "--samples", "5", "--seed", "3"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["verify", "--suite", "model2-n1", "--n", "1",
                   "--samples", "5"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["verify", "--suite", "model2-n1", "--n", "2"])
    assert rc == 2
    capsys.readouterr()


def test_cli_integrate_value(capsys):
    rc = cli.main(["integrate", "--n", "1", "--ket", "(1,0,0)",
                   "--bra", "(1,0,0)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("h=")
    import math
    value = complex(out[2:].strip())
    phi = math.pi / 3
    closed = math.sqrt(math.pi / 2) * math.exp(2 * phi * phi)
    assert value.real == pytest.approx(closed, rel=1e-9)


def test_cli_tolerance_is_not_the_pole_threshold(capsys):
    dyad = ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0,0)"]
    assert cli.main(dyad) == 0
    want = capsys.readouterr().out
    assert cli.main(dyad + ["--tolerance", "1e300"]) == 0
    assert capsys.readouterr().out == want
    # q0^4 - 1 divides denominators, so phi near 0 is a pole at any tolerance
    for tol in ("1e-9", "1e300"):
        rc = cli.main(["verify", "--suite", "pointwise", "--phi", "1e-11",
                       "--tolerance", tol])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: denominator magnitude ")
        assert "below tolerance 1.0e-09" in captured.err


def test_cli_verify_exact_suites_match_golden(capsys):
    golden = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
        "golden_verify_exact.txt"
    exact = ("weyl-relations", "ab-rho", "action-table", "module-algebra",
             "obstruction")
    assert cli.main(["verify", "--seed", "7"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.split(",", 1)[0][len("suite="):] in exact]
    assert lines == golden.read_text(encoding="utf-8").splitlines()


def test_cli_integrate_bad_state(capsys):
    rc = cli.main(["integrate", "--n", "2", "--ket", "(1,0,0)",
                   "--bra", "(1,0,0);(1,0,0)"])
    assert rc == 2


def test_cli_repr_check(capsys):
    rc = cli.main(["repr-check", "--n", "1", "--samples", "4", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite=model2-n1" in out
    assert "suite=pointwise" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "0"],
    ["verify", "--suite", "invariance", "--samples", "-3"],
    ["verify", "--suite", "module-algebra", "--degree", "-1"],
    ["normalize", "--n", "0", "1"],
    ["normalize", "--n", "-1", "1"],
    ["act", "--n", "0", "E1", "1"],
    ["integrate", "--ket", "(1,40,0)", "--bra", "(1,40,0)"],
    ["integrate", "--ket", "(nan,0,0)", "--bra", "(1,0,0)"],
    ["integrate", "--ket", "(1,nan,0)", "--bra", "(1,0,0)"],
    ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0,-inf)"],
    ["integrate", "--ket", "(inf,0,0)", "--bra", "(1,0,0)"],
    ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0,0)", "--c", "nan"],
    ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0,0)", "--c", "inf"],
    ["verify", "--suite", "pointwise", "--tolerance", "nan"],
    ["verify", "--suite", "pointwise", "--tolerance", "inf"],
    ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0,0)", "--c", "1e308"],
    ["verify", "--suite", "obstruction", "--out", "{missing}/r.txt"],
    ["repr-check", "--samples", "1", "--out", "{missing}/r.txt"],
])
def test_cli_rejects_vacuous_and_unrepresentable_inputs(capsys, tmp_path, argv):
    missing = str(tmp_path / "no-such-dir")
    rc = cli.main([arg.replace("{missing}", missing) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


# -- fuzzing the command line -------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308",
                     "1e-320", "0.5", "1.0471975512", "3.2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_ALGEBRA_ATOMS = ["y1", "x1", "R1", "Q1", "y2", "x2", "R2", "Q2", "Q3", "y3",
                  "q", "q0", "i", "lambda", "0", "2", "(1/2)"]
_HOPF_ATOMS = ["K1", "K1^-1", "E1", "F1", "K2", "E2", "F2", "E3", "q",
               "lambda", "1", "y1"]
_NOISE = ["+", "-", "*", "/", "^", "^-1", "'", "(", ")", "?", "S(", "eps(", ""]


def _expression(atoms):
    # exponents stay at 2 or -1 so that nested powers keep each example small
    grammatical = st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]),
                      inner).map(" ".join),
            st.tuples(st.sampled_from(["(", "S(", "eps("]), inner).map(
                lambda p: f"{p[0]}{p[1]})"),
            st.tuples(inner, st.sampled_from(["^2", "^-1", "'"])).map(
                lambda p: f"({p[0]}){p[1]}")),
        max_leaves=5)
    noise = st.lists(st.sampled_from(atoms + _NOISE), max_size=8).map(" ".join)
    return st.one_of(grammatical, noise)


def _legs(n):
    tame = st.tuples(st.sampled_from(["0.5", "1", "1.7"]),
                     st.sampled_from(["0", "-0.4", "1.2"]),
                     st.sampled_from(["0", "0.3"]))
    leg = st.one_of(tame, tame, st.tuples(_NUMBERS, _NUMBERS, _NUMBERS))
    return st.lists(leg.map(lambda f: "(" + ",".join(f) + ")"),
                    min_size=n, max_size=n).map(";".join)


def _dyad(n):
    return st.tuples(st.just(f"--n={n}"), _legs(n).map(lambda v: f"--ket={v}"),
                     _legs(n).map(lambda v: f"--bra={v}"))


def _flag(name, values):
    """An optional ``--name=value`` argument; left out, it takes its default."""
    return st.one_of(st.just(()), values.map(lambda v: (f"--{name}={v}",)))


_PHIS = st.one_of(st.sampled_from(["1.0471975512", "-0.7", "2.5"]), _NUMBERS)
_RANK = _flag("n", st.sampled_from(["-1", "0", "1", "2"]))
_ARGV = st.one_of(
    st.tuples(st.just(("normalize",)), _RANK,
              _expression(_ALGEBRA_ATOMS + _HOPF_ATOMS).map(lambda e: (e,))),
    st.tuples(st.just(("act",)), _RANK,
              st.tuples(_expression(_HOPF_ATOMS), _expression(_ALGEBRA_ATOMS))),
    st.tuples(st.just(("integrate",)), st.sampled_from([1, 2]).flatmap(_dyad),
              _flag("phi", _PHIS), _flag("c", _NUMBERS),
              _flag("tolerance", _NUMBERS),
              _flag("density", st.sampled_from(["gamma", "qinv"]))),
    st.tuples(st.just(("verify",)),
              st.sampled_from(["action-table", "obstruction"]).map(
                  lambda v: (f"--suite={v}",)),
              _RANK, _flag("phi", _PHIS), _flag("tolerance", _NUMBERS),
              _flag("c", _NUMBERS)),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=200, deadline=None)
@given(argv=_ARGV)
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
