import contextlib
import importlib
import io
import json
import math
import pathlib
import os
import random
import runpy
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qweyl import cli, coeff, parser, uq, weyl
from qweyl.coeff import ONE, q_power
from qweyl.errors import IndexOutOfRange, ParseError
from qweyl.parser import parse_algebra, parse_expression, parse_hopf, parse_scalar


# -- parsing --------------------------------------------------------------------


def test_parse_defining_relation_collapses():
    got = parse_algebra("x1*y1 - q^2*y1*x1", 1)
    assert got == weyl.AlgebraElement.zero(1) + (ONE - q_power(2))


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


def test_parse_refuses_nesting_deeper_than_the_bound():
    assert str(parse_expression("(" * 100 + "x1" + ")" * 100, 1)) == "x1"
    for text, position in (("(" * 200 + "x1" + ")" * 200, 100),
                           ("-(" * 300 + "x1" + ")" * 300, 201),
                           ("S(" * 300 + "E1" + ")" * 300, 201),
                           ("eps(" * 101 + "E1" + ")" * 101, 403)):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 1)
        assert err.value.position == position
        assert "nest deeper than 100 levels" in str(err.value)


def test_cli_refuses_deep_nesting_without_a_traceback(capsys):
    assert cli.main(["normalize", "--n", "1",
                     "(" * 100 + "x1" + ")" * 100]) == 0
    assert capsys.readouterr().out == "x1\n"
    for argv in (["normalize", "--n", "1", "(" * 200 + "x1" + ")" * 200],
                 ["act", "--n", "1", "(" * 200 + "E1" + ")" * 200, "y1"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: parentheses nest deeper than 100 levels "
            "(at position 100)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qweyl", "normalize", "--n", "1",
         "(" * 200 + "x1" + ")" * 200], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("text, position", [
    ("x1 - E1", 3), ("E1 - x1", 3), ("x1 + E1", 3), ("E1 + x1", 3),
    ("x1 * E1", 3), ("E1*x1", 2), ("2*E1 - x1", 5), ("(x1 - 2) * (3*E1)", 9),
    ("E1*F1*x1", 5), ("2*E1*F1/3*y1", 9), ("y1*K1*K1", 2),
])
def test_parse_refuses_mixed_families(text, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, 1)
    assert str(err.value) == ("cannot mix coordinate and symmetry generators "
                              f"(at position {position})")


@pytest.mark.parametrize("text, message", [
    ("y1*K1", "cannot mix coordinate and symmetry generators (at position 2)"),
    ("K1*y1*x1", "cannot mix coordinate and symmetry generators "
                 "(at position 2)"),
    ("y1/0", "division by zero (at position 2)"),
    ("y1*x1/K1", "division is defined for scalar denominators only "
                 "(at position 5)"),
])
def test_parse_errors_inside_a_word_keep_their_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_expression(text, 1)
    assert str(err.value) == message


# the parser that takes each product one factor at a time, left to right,
# each generator being its own element: the slow oracle of the word route
_ELEMENTS = {"y": weyl.gen_y, "x": weyl.gen_x, "R": weyl.gen_r,
             "Q": weyl.q_elem,
             **{kind: (lambda n, j, kind=kind:
                       uq.HopfElement.generator(n, kind, j)) for kind in "KEF"}}


class _FactorByFactor(parser._Parser):
    def name_value(self, name, at):
        m = parser._GEN_RE.match(name)
        if not m:
            return super().name_value(name, at)
        return _ELEMENTS[m.group(1)](self.n, int(m.group(2)))

    def term(self):
        value = self.unary()
        while True:
            kind, sym, at = self.peek()
            if kind != "op" or sym not in "*/":
                return value
            self.advance()
            rhs = self.unary()
            if sym == "*":
                self._check_mix(value, rhs, at)
                value = value * rhs
            elif not isinstance(rhs, coeff.ScalarValue):
                raise ParseError("division is defined for scalar denominators "
                                 "only", at)
            elif rhs.is_zero:
                raise ParseError("division by zero", at)
            else:
                value = value * rhs.inv()


def _outcome(parse, text, n):
    try:
        value = parse(text, n)
    except ParseError as err:
        return "ParseError", str(err)
    return type(value).__name__, str(value), value


_POWERS = ["", "", "", "^2", "^3", "^0", "^-1", "^-2", "'", "^2^-1", "^-1^2"]
_SCALARS = ["2", "q", "q0", "i", "lambda", "(1/2)", "(q0 - 1)", "0"]


@st.composite
def _products(draw):
    """An expression at rank 1..4 over one family's generators and scalars:
    powers, ``'``, ``/``, parentheses, ``-``, ``S(…)`` and ``eps(…)``."""
    n = draw(st.integers(1, 4))
    heads = draw(st.sampled_from(["yxRQ", "KEF"]))
    names = [f"{h}{k}" for h in heads for k in range(1, n + 1)] + (
        [f"Q{n + 1}"] if "Q" in heads else [])
    leaf = st.tuples(st.sampled_from(names + _SCALARS),
                     st.sampled_from(_POWERS)).map("".join)
    group = st.tuples(leaf, st.sampled_from(["*", "+", " - "]), leaf,
                      st.sampled_from(["^2", "^-1", "'"])).map(
        lambda p: f"({p[0]}{p[1]}{p[2]}){p[3]}")
    text = draw(st.recursive(
        st.one_of(leaf, leaf, group),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["*", " * ", "/", "+", " - "]),
                      inner).map("".join),
            st.tuples(st.sampled_from(["-", "(", "S(", "eps("]), inner).map(
                lambda p: p[0] + p[1] + ("" if p[0] == "-" else ")")),
            inner.map(lambda e: f"({e})'")),
        max_leaves=10))
    return n, text


@settings(max_examples=300, deadline=None)
@given(_products())
def test_word_route_matches_the_factor_by_factor_product(case):
    n, text = case
    assert _outcome(parse_expression, text, n) == _outcome(
        lambda t, r: _FactorByFactor(t, r).parse(), text, n)


def test_written_out_coordinate_products_take_one_key_product_per_run(
        monkeypatch):
    # 4,000 atoms in 2,001 block-order runs: one word, formed from its first
    # run's key by one key product per further run
    text = "*".join(["y1", "R1", "y1", "R1^-1"] * 1000)
    atoms = [("y", 1), ("R", 1, 1), ("y", 1), ("R", 1, -1)] * 1000
    want = _FactorByFactor(text, 1).parse()
    runs = len(weyl._runs(1, atoms))
    assert runs == 2001
    calls = []
    key_product = weyl._key_product

    def counted(*args):
        calls.append(args)
        return key_product(*args)

    monkeypatch.setattr(weyl, "_key_product", counted)
    assert parse_algebra(text, 1) == want
    assert len(calls) == runs - 1


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
    want = weyl.AlgebraElement.zero(1) + (ONE - q_power(2))
    assert parse_algebra(out, 1) == want


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


@pytest.mark.parametrize("n", ["2", "3", "8"])
def test_cli_obstruction_runs_at_the_given_rank(capsys, monkeypatch, n):
    assert cli.main(["verify", "--suite", "obstruction", "--n", n]) == 0
    assert capsys.readouterr().out == "".join(
        f"suite=obstruction, case={case}, residual=0.000000e+00, pass=true\n"
        for case in ("F>y=i", "eps(F)=0", "obstruction-confirmed"))
    # a counit wrong only on the generators of index n fails at rank n
    counit = uq.counit
    monkeypatch.setattr(uq, "counit", lambda h: ONE if any(
        j == int(n) for word in h.terms for _, j in word) else counit(h))
    assert cli.main(["verify", "--suite", "obstruction", "--n", n]) == 1


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


# every state pair's inner products are NaN; the relations, whose lines come
# first, hold exactly and take no state work
@pytest.mark.parametrize("argv, case", [
    (["--n", "8", "--samples", "10", "--seed", "7"], "hermitian[Gamma]"),
    (["--n", "3", "--phi", "2.8", "--seed", "7"], "hermitian[Gamma]"),
    (["--n", "3", "--phi", "3.0", "--seed", "1", "--samples", "4"],
     "hermitian[Gamma]"),
])
def test_cli_refuses_a_nan_pointwise_residual(capsys, argv, case):
    rc = cli.main(["verify", "--suite", "pointwise"] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: out of floating-point range: the "
                            f"{case} pointwise residual is nan\n")


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


def test_cli_verify_builds_each_catalog_once_per_rank(capsys):
    catalogs = (weyl.coordinate_relations, weyl.localized_relations,
                weyl.ab_rho_relations, weyl.hermitian_generators)
    for catalog in catalogs:
        catalog.cache_clear()
    assert cli.main(["verify", "--seed", "7"]) == 0
    capsys.readouterr()
    # verify runs at n = 1 and 2
    assert [catalog.cache_info().misses for catalog in catalogs] == [2] * 4
    for catalog in catalogs:
        first = catalog(1)
        first.append(None)  # each call returns its own list
        assert catalog(1) == first[:-1]
    assert [catalog.cache_info().misses for catalog in catalogs] == [2] * 4


def test_cli_verify_numeric_suites_match_golden(capsys):
    golden = pathlib.Path(__file__).with_name("golden_verify_numeric.txt")
    lines = []
    runs = [(suite, "3") for suite in ("pointwise", "invariance", "cyclicity")]
    for suite, n in runs + [("model2-n1", "1")]:
        assert cli.main(["verify", "--suite", suite, "--n", n, "--seed", "7",
                         "--samples", "8"]) == 0
        lines.extend(capsys.readouterr().out.splitlines())
    assert lines == golden.read_text(encoding="utf-8").splitlines()


def _bench_workloads():
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(bench))


def test_cli_queries_match_golden(capsys):
    # the 1,200 queries of the benchmark at seed 7, answered before the
    # products were formed in closed form; bench/workloads.py checks its
    # answers through the same products, so only this pins them
    golden = pathlib.Path(__file__).with_name("golden_queries_seed7.jsonl")
    want = [json.loads(line)
            for line in golden.read_text(encoding="utf-8").splitlines()]
    queries = _bench_workloads().make_queries(7, 1200)
    assert [list(q.argv) for q in queries] == [argv for argv, _ in want]
    for query, (_, text) in zip(queries, want):
        assert cli.main(list(query.argv)) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (text + "\n", ""), query.argv


@pytest.mark.parametrize("argv, printed", [
    (["normalize", "--n", "1", "-x1"], "(-1)*x1"),
    (["normalize", "-x2", "--n", "2"], "(-1)*x2"),
    (["normalize", "-E1*F1"], "(-1)*E1*F1"),
    (["normalize", "-(1/2)*q"], "-1/2*q0^2"),
    (["act", "--n", "1", "-F1", "-y1"], "(i)"),
    (["act", "--n", "2", "-E1", "x1"], "((-i)/(q0))*x2"),
])
def test_cli_expressions_may_start_with_minus(capsys, argv, printed):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_cli_options_beside_minus_expressions(capsys):
    for verb in ("normalize", "act"):
        assert cli.main([verb, "-h"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: qweyl {verb} ")
    for argv in (["normalize", "--n", "1", "--bogus"],
                 ["normalize", "--bogus", "x1"],
                 ["act", "--n", "1", "--bogus", "-F1", "-y1"]):
        assert cli.main(argv) == 2
        assert "error: " in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qweyl", "normalize", "--n", "1", "-x1"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("qweyl", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == "(-1)*x1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "obstruction"],
    ["verify", "--suite", "pointwise", "--samples", "1"],
    ["repr-check", "--samples", "1"],
    ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0,0)"],
])
def test_cli_unwritable_out_refused_before_any_report(capsys, tmp_path, argv):
    out = str(tmp_path / "no-such-dir" / "r.txt")
    assert cli.main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_failed_run_keeps_earlier_out_file(capsys, tmp_path):
    out = tmp_path / "r.txt"
    out.write_text("earlier report\n", encoding="utf-8")
    assert cli.main(["verify", "--suite", "pointwise", "--phi", "1e-11",
                     "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "earlier report\n"
    assert cli.main(["verify", "--suite", "obstruction", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_cli_integrate_writes_out_file(capsys, tmp_path):
    out = tmp_path / "h.txt"
    dyad = ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0.5,-0.2)"]
    assert cli.main(dyad + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("h=")
    assert out.read_text(encoding="utf-8") == printed
    # an integral that overflows leaves the earlier file as it was
    assert cli.main(["integrate", "--ket", "(1,40,0)", "--bra", "(1,40,0)",
                     "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == printed


def test_cli_integrate_bad_state(capsys):
    rc = cli.main(["integrate", "--n", "2", "--ket", "(1,0,0)",
                   "--bra", "(1,0,0);(1,0,0)"])
    assert rc == 2


@pytest.mark.parametrize("ket", [
    "(1,0,0);(0.5,-0.4,0.3)", "(1,0,0) (0.5,-0.4,0.3)", "1,0,0;0.5,-0.4,0.3",
    "1,0,0 0.5,-0.4,0.3", "(1, 0, 0); (0.5, -0.4, 0.3)",
    "( 1 , 0 , 0 ) ( 0.5 ,-0.4, 0.3 )", " 1, 0, 0 ; 0.5, -0.4, 0.3 ",
])
def test_cli_integrate_legs_may_contain_spaces(capsys, ket):
    dyad = ["integrate", "--n", "2", "--bra", "(1,0.5,-0.2);(1,0,0)"]
    assert cli.main(dyad + ["--ket", "(1,0,0);(0.5,-0.4,0.3)"]) == 0
    want = capsys.readouterr().out
    assert cli.main(dyad + ["--ket", ket]) == 0
    assert capsys.readouterr().out == want


def test_cli_integrate_single_leg_forms(capsys):
    outs = []
    for ket in ("(1,0,0)", "1,0,0", "(1, 0, 0)", "1 , 0 , 0"):
        assert cli.main(["integrate", "--ket", ket, "--bra", "(1,0,0)"]) == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == 1


@pytest.mark.parametrize("ket, message", [
    ("(1,0)", "--ket: each leg is (eps,gammaRe,gammaIm)"),
    ("(1 0 0)", "--ket: each leg is (eps,gammaRe,gammaIm)"),
    ("(1,0,0,0)", "--ket: each leg is (eps,gammaRe,gammaIm)"),
    ("(1, nan, 0)", "--ket: leg fields must be finite"),
    ("(1, 0, 0)", "--ket: expected 2 legs, got 1"),
    ("(1,0,0) (1,0,0) (1,0,0)", "--ket: expected 2 legs, got 3"),
    ("", "--ket: expected 2 legs, got 0"),
])
def test_cli_integrate_bad_legs_keep_their_messages(capsys, ket, message):
    rc = cli.main(["integrate", "--n", "2", "--ket", ket,
                   "--bra", "(1,0,0);(1,0,0)"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message} (at position 0)\n"


def _run_sequence(argvs, out_path):
    """stdout, stderr, exit code and --out contents of each call in turn."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        written = out_path.read_text() if out_path.exists() else None
        results.append((argv, rc, out.getvalue(), err.getvalue(), written))
    return results


def _shared_parser_argvs(out_path):
    return [
        ["normalize", "--n", "2", "x2*y2"], ["normalize", "x1*y1"],
        ["verify", "--suite", "nope"], ["verify", "--suite", "obstruction"],
        ["normalize", "--n", "1"], ["act", "--n", "2", "E1", "x1"],
        ["-h"], ["normalize", "-h"], ["verify", "-h"], ["--bogus"], [],
        ["verify", "--suite", "obstruction", "--out", str(out_path)],
        ["verify", "--suite", "obstruction"],
        ["repr-check", "--samples", "1", "--seed", "4"],
        ["normalize", "--n", "1", "-x1"], ["act", "--n", "1", "-F1", "-y1"],
        ["normalize", "-(1/2)*q", "--n", "2"], ["normalize", "--n", "-x1"],
        ["integrate", "--ket", "(1, 0, 0)", "--bra", "(1,0,0)"],
        ["integrate", "--n", "2", "--ket", "(1,0,0)", "--bra", "(1,0,0)"],
        ["integrate", "--ket", "(1,0,0)", "--bra", "(1,0.5,-0.2)",
         "--density", "qinv", "--c", "2"],
        ["normalize", "x1"],
    ]


def test_cli_shared_parser_matches_a_fresh_parser_per_call(tmp_path,
                                                           monkeypatch):
    out_path = tmp_path / "r.txt"
    argvs = _shared_parser_argvs(out_path)
    cli._arg_parser.cache_clear()
    shared = _run_sequence(argvs, out_path)
    out_path.unlink()
    monkeypatch.setattr(cli, "_arg_parser", cli.build_arg_parser)
    fresh = _run_sequence(argvs, out_path)
    assert shared == fresh
    assert [r[1] for r in shared[:4]] == [0, 0, 2, 0]
    assert shared[6][1] == 0 and shared[6][2].startswith("usage: qweyl ")


def _exit_and_output(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, a SystemExit read as
    :func:`cli.main` reads it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = call(list(argv))
        except SystemExit as exc:
            rc = 2 if exc.code not in (0, None) else 0
    return rc, out.getvalue(), err.getvalue()


def test_cli_verb_dispatch_matches_the_top_level_parser(tmp_path, monkeypatch):
    # a fresh top-level parser is the oracle: where it exits, main gives the
    # same exit code and output; where it parses, main runs the same namespace
    battery = [
        ["normalize", "x1", "extra"], ["act", "E1", "x1", "y1"],
        ["normalize"], ["act", "E1"],
        ["normalize", "--n=2", "x2"], ["normalize", "--", "-x1"],
        ["normalize", "x1", "-h"],
        ["bogus", "x1"], [], ["-h"],
    ] + [argv for argv in _shared_parser_argvs(tmp_path / "r.txt")
         if argv and argv[0] in ("verify", "integrate", "repr-check")]
    ran = []
    check_bounds = cli._check_bounds

    def recorded(args):
        ran.append(args)
        check_bounds(args)

    monkeypatch.setattr(cli, "_check_bounds", recorded)
    for argv in battery:
        ran.clear()
        got = _exit_and_output(cli.main, argv)
        parsed = []
        want = _exit_and_output(
            lambda a: parsed.append(cli.build_arg_parser().parse_args(a)), argv)
        if parsed:
            del parsed[0].verb
            assert ran == parsed, argv
        else:
            assert ran == [] and got == want, argv
            assert got[0] == (0 if "-h" in argv else 2), argv


def test_cli_builds_its_parser_once_per_process(capsys, monkeypatch):
    built = []
    build = cli.build_arg_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_arg_parser", counting)
    cli._arg_parser.cache_clear()
    for argv in (["normalize", "x1"], ["verify", "--suite", "nope"],
                 ["act", "E1", "x1"]):
        cli.main(argv)
    capsys.readouterr()
    assert len(built) == 1
    cli._arg_parser.cache_clear()


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
    ["normalize", "--n", "1000000000000", "y1"],
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
    ["verify", "--suite", "invariance", "--c", "0"],
    ["verify", "--suite", "invariance", "--c", "1e308"],
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


@pytest.mark.parametrize("text, degree", [
    ("q0^100001", 100001),
    ("((q0^999)^999)^999", 998001),
    ("q^-50001", 100002),
    ("(q0^40000*R1)^3", 120000),
    ("q^99999999", 199999998),
    ("(2*q)^-99999999", 199999998),
])
def test_cli_refuses_q0_degrees_over_the_bound(capsys, text, degree):
    import tracemalloc

    tracemalloc.start()
    try:
        rc = cli.main(["normalize", text])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (f"error: q0 degree {degree} exceeds the bound "
                            f"{coeff.MAX_DEGREE}\n")
    # a polynomial at the bound takes 0.8 MB; the nested power would take GBs
    assert peak < 8e6


def test_cli_powers_up_to_the_bound(capsys):
    assert cli.main(["normalize", "q0^100000"]) == 0
    assert capsys.readouterr().out == "q0^100000\n"
    assert cli.main(["normalize", "(q0^40000*R1)^2"]) == 0
    assert capsys.readouterr().out == "(q0^80000)*R1^2\n"
    # the coefficient's q0^-160000 cancels all but q0^-400 of the q power
    assert cli.main(["normalize", "--n", "2", "(q0^-400*y1*x2)^400"]) == 0
    assert capsys.readouterr().out == "((1)/(q0^400))*y1^400*x2^400\n"
    # the first and zeroth powers form no square, so q^(250*250) is not met
    assert cli.main(["normalize", "--n", "2", "(y1^250*x2^250)^1"]) == 0
    assert capsys.readouterr().out == "y1^250*x2^250\n"
    assert cli.main(["normalize", "--n", "2", "(y1^250*x2^250)^0"]) == 0
    assert capsys.readouterr().out == "(1)\n"


def test_cli_powers_of_one_term_cost_no_time_per_factor(capsys):
    assert cli.main(["normalize", "--n", "1", "x1^99999999"]) == 0
    assert capsys.readouterr().out == "x1^99999999\n"
    assert cli.main(["normalize", "--n", "1", "(x1^99999999)'"]) == 0
    assert capsys.readouterr().out == "x1^99999999\n"
    assert cli.main(["normalize", "--n", "3",
                     "(R2^99999999*R3^-99999999*y1^99999999)'"]) == 0
    assert capsys.readouterr().out == "R2^99999999*R3^-99999999*y1^99999999\n"


def test_cli_dense_coefficient_powers_meet_the_scalar_bounds(capsys):
    # the coefficient of a one-term element is refused as the scalar is
    assert cli.main(["normalize", "--n", "1", "((q0+1)*y1)^100000"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: power 100000 of a dense scalar of q0 degree 100000 passes "
        "the work bound 4194304\n"))
    # and each side is raised on its own: (q0^2 - i)^100 over (q0 + 3)^100
    minus_i_powers = (1, coeff.QI(0, -1), -1, coeff.QI(0, 1))
    num = [0] * 201
    for j in range(101):
        num[2 * j] = minus_i_powers[(100 - j) % 4] * math.comb(100, j)
    num = tuple(map(coeff._exact_coeff, num))
    den = tuple(math.comb(100, j) * 3 ** (100 - j) for j in range(101))
    value = coeff.ScalarValue(num, den, _canonical=True)
    assert cli.main(["normalize", "--n", "1", "((q0^2-i)/(q0+3))^100"]) == 0
    assert capsys.readouterr().out == f"{value}\n"
    assert cli.main(["normalize", "--n", "1", "((q0^2-i)/(q0+3)*y1)^100"]) == 0
    assert capsys.readouterr().out == f"({value})*y1^100\n"


def test_cli_refuses_coefficient_powers_over_the_work_bound(capsys,
                                                            monkeypatch):
    # 7 and 2/3 have 3 bits each; a unit has none
    monkeypatch.setattr(coeff, "MAX_POWER_WORK", 300)
    for text, out in (("7^100", f"{7 ** 100}\n"), ("i^99999999", "-i\n"),
                      ("(-1)^99999999", "-1\n")):
        assert cli.main(["normalize", "--n", "1", text]) == 0
        assert capsys.readouterr().out == out
    for text, k in (("7^101", 101), ("(7*y1)^101", 101), ("(2/3)^-101", -101)):
        assert cli.main(["normalize", "--n", "1", text]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error: power {k} of a coefficient of 3 bits passes the work "
            "bound 300\n"))


@pytest.mark.parametrize("text, power", [
    ("7^6000", 6000),
    ("7^4000*7^4000", 8000),
    ("(7^4000+q0)*(7^4000+q0)", 8000),
])
def test_cli_refuses_to_print_integers_past_the_string_limit(capsys, text,
                                                             power):
    # the largest coefficient is 7^power
    assert cli.main(["normalize", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"error: a coefficient of {(7 ** power).bit_length()} bits passes the limit "
        f"of {sys.get_int_max_str_digits()} decimal digits on printing an "
        "integer\n"))


def test_cli_prints_integers_up_to_the_string_limit(capsys):
    assert cli.main(["normalize", "7^5000"]) == 0
    assert capsys.readouterr().out == f"{7 ** 5000}\n"


def _formed_past_the_limit(value):
    return isinstance(value, coeff.ScalarValue) and any(
        abs(side).bit_length() > 20000 for c in value.num
        for part in (c.real, c.imag) for side in (part.numerator,
                                                  part.denominator))


@pytest.mark.parametrize("n, text, bits", [
    (1, "7^1398101", 3924966),
    (1, "(7*y1)^1398101", 3924966),
    (1, "(7*K1)^1398101", 3924966),
    (1, "(2/3)^1000000", 1584963),
    (1, "(-2/3)^-999999", 1584961),
    (1, "(7*R1)^-1398101", 3924966),
    (1, "7^6000", 16845),
    (1, "(7*i)^1398101", 3924966),
    (1, "(-7*i*y1)^1398100", 3924963),
    (1, "(2/3*i*K1)^-1000000", 1584963),
])
def test_cli_refuses_unprintable_coefficient_powers_unformed(
        capsys, monkeypatch, n, text, bits):
    # the printer's refusal, raised before a coefficient past it is formed
    def unformed(fn):
        def checked(*args):
            value = fn(*args)
            assert not _formed_past_the_limit(value)
            return value
        return checked

    monkeypatch.setattr(coeff, "_shifted_power",
                        unformed(coeff._shifted_power))
    monkeypatch.setattr(coeff.ScalarValue, "__mul__",
                        unformed(coeff.ScalarValue.__mul__))
    assert cli.main(["normalize", "--n", str(n), text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        f"error: a coefficient of {bits} bits passes the limit of "
        f"{sys.get_int_max_str_digits()} decimal digits on printing an "
        "integer\n"))


@pytest.mark.parametrize("n, text, digits", [
    (1, "(7+7*i)^600000", 597367),
    (1, "((1+i)/7*y1)^600000", 416749),
    (1, "((1+i)/7)^-600000", 416749),
    (2, "((3-4*i)*K2)^-6160", 4305),
    (1, "(3/5+4/5*i)^100000", 34948),
])
def test_cli_refuses_gaussian_rational_powers_unformed(capsys, monkeypatch,
                                                       n, text, digits):
    # both parts nonzero: a sure lower bound on the digits, |c|^m over
    # sqrt(2), refuses the power before it is formed
    def unformed(fn):
        def checked(*args):
            value = fn(*args)
            assert not _formed_past_the_limit(value)
            return value
        return checked

    monkeypatch.setattr(coeff, "_shifted_power",
                        unformed(coeff._shifted_power))
    assert cli.main(["normalize", "--n", str(n), text]) == 2
    assert capsys.readouterr() == ("", (
        f"error: a coefficient of more than {digits} digits passes the limit "
        f"of {sys.get_int_max_str_digits()} decimal digits on printing an "
        "integer\n"))


@pytest.mark.parametrize("n, text, message", [
    (1, "7^1398102", "power 1398102 of a coefficient of 3 bits passes the "
                     "work bound 4194304"),
    (1, "(7*K1)^1398102", "power 1398102 of a coefficient of 3 bits passes "
                          "the work bound 4194304"),
    (1, "(2*K1)^5000000", "power 5000000 of a coefficient of 1 bits passes "
                          "the work bound 4194304"),
    (1, "(2*K1)^16000000", "power 16000000 of a coefficient of 1 bits passes "
                           "the work bound 4194304"),
    (1, "(3/5+4/5*i)^1000000", "power 1000000 of a coefficient of 5 bits "
                               "passes the work bound 4194304"),
    (1, "(7*q0)^1398101", "q0 degree 1398101 exceeds the bound 100000"),
    (2, "(7*y1*x2)^1398101", "q0 degree 1954685008100 exceeds the bound "
                             "100000"),
])
def test_cli_unprintable_powers_meet_their_other_bounds_first(capsys, n, text,
                                                              message):
    assert cli.main(["normalize", "--n", str(n), text]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_refuses_integer_literals_past_the_string_limit(capsys):
    text = "q0 + " + "7" * 5000
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert err.value.position == 5
    assert cli.main(["normalize", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: integer literal of 5000 digits passes the limit of "
        f"{sys.get_int_max_str_digits()} digits (at position 5)\n"))


@pytest.mark.parametrize("n, text, printed", [
    (1, "(-K1)^-1", "(-1)*K1^-1"),
    (1, "(2*K1)^-1", "(1/2)*K1^-1"),
    (1, "((1+i)*K1)^-2", "(-1/2*i)*K1^-1*K1^-1"),
    (2, "(q*K1*K2^-1)^-2", "((1)/(q0^4))*K2*K1^-1*K2*K1^-1"),
    (1, "(-R1)^-1", "(-1)*R1^-1"),
])
def test_cli_negative_powers_of_scaled_k_words(capsys, n, text, printed):
    assert cli.main(["normalize", "--n", str(n), text]) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("text, at", [("(2*E1)^-1", 6), ("(K1+K2)^-1", 7)])
def test_cli_negative_powers_refused_off_k_words(capsys, text, at):
    assert cli.main(["normalize", "--n", "2", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: negative exponents are only defined on K words "
        f"(at position {at})\n"))


@pytest.mark.parametrize("text, degree", [
    # y1*x2 squares to q (y1*x2)^2, so its m-th power has q0 degree m(m-1)
    ("(y1*x2)^400", 159600),
    ("(y1*x2)^511", 260610),
    ("((q0+1)*y1*x2)^317", 317 * 316 + 317),
])
def test_cli_one_term_powers_are_refused_by_their_own_degree(capsys, text,
                                                             degree):
    assert cli.main(["normalize", "--n", "2", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: q0 degree {degree} exceeds the bound {coeff.MAX_DEGREE}\n")


def test_cli_refuses_a_same_index_block_over_the_bound(capsys):
    # the R1^460 coefficient of y1^230*x1^230 has degree 2 * 230^2
    assert cli.main(["normalize", "--n", "1", "y1^230*x1^230"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: q0 degree 105800 exceeds the bound "
                            f"{coeff.MAX_DEGREE}\n")


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


def test_cli_module_algebra_sweeps_nothing_that_certifies(capsys, monkeypatch):
    assert cli.main(["verify", "--suite", "module-algebra", "--n", "2",
                     "--degree", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == \
        uq.check_module_algebra(2, degree=3).lines()

    def no_monomials(n, degree):
        raise AssertionError("the monomials were built")

    monkeypatch.setattr(uq, "coordinate_monomials", no_monomials)
    assert cli.main(["verify", "--suite", "module-algebra", "--n", "3",
                     "--degree", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 48
    assert all(line.startswith("suite=module-algebra, case=")
               and line.endswith(", residual=0.000000e+00, pass=true")
               for line in lines)


def test_cli_certificate_suite_is_opt_in(capsys):
    assert cli.main(["verify", "--suite", "certificate", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = {line.split(", ")[1][len("case="):] for line in lines}
    assert {"cert-modalg[E1]", "cert-modstar[F2]", "cert-antipode[K1^-1]",
            "cert-density[K2]", "cert-rel[EF[1]]"} <= cases
    assert len(lines) == 4 * len(uq.generators(2)) + \
        len(uq.defining_relations(2))
    assert "certificate" not in cli.DEFAULT_SUITES


def test_cli_refuses_powers_over_the_work_bound(capsys, monkeypatch):
    monkeypatch.setattr(weyl, "MAX_POWER_WORK", 64)
    assert cli.main(["normalize", "--n", "1", "(y1+x1)^4"]) == 0
    assert capsys.readouterr().out == \
        f"{parse_algebra('(y1+x1)*(y1+x1)*(y1+x1)*(y1+x1)', 1)}\n"
    assert cli.main(["normalize", "--n", "1", "(y1+x1)^5"]) == 2
    assert capsys.readouterr().err == (
        "error: power 5 of a 2-term element expands to 2^5 words of 5 atoms, "
        "over the bound 64\n")


def test_cli_import_loads_no_numpy_or_scipy():
    # the CLI's start-up time has no room for either import
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, qweyl.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('numpy', 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# unbuffered, the report's write fails; buffered, the flush before exit does
@pytest.mark.parametrize("argv, unbuffered", [
    (["repr-check", "--n", "2"], True),
    (["repr-check", "--n", "2"], False),
    (["normalize", "--n", "1", "x1*y1"], False),
])
def test_cli_exits_1_quietly_when_its_reader_closes_stdout(argv, unbuffered):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "qweyl", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # closed before the child can have written anything: no reader is left
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
