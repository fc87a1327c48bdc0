"""The benchmark's workloads: seeded inputs, the timed body, and the gate.

* ``verify-default`` runs ``qweyl verify --seed <s>`` through ``cli.main``:
  every suite at n = 1, 2, the command a user runs to get a verdict.
* ``queries`` sends seeded, all-distinct ``normalize`` and ``act`` strings
  at n = 3, 4, each as its own ``cli.main`` call.
* ``trace`` runs the numeric suites at n = 3 plus the pointwise check of
  the ab-rho catalog, where ``gauss``/``haar`` do the work and ``uq.act``
  is never called.

``build_inputs`` is the set-up the benchmark times as ``setup_s``; ``run``
is the timed body; the ``check_*`` functions are the correctness gate.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from collections import namedtuple
from pathlib import Path

from qweyl import cli, coeff, gauss, parser, report, uq, weyl

import tracer

WORKLOADS = ("verify-default", "queries", "trace")

EXACT_SUITES = ("weyl-relations", "ab-rho", "action-table", "module-algebra",
                "obstruction")
FLOOR_SUITE = "ab-rho-pointwise"
# The ab-rho pointwise floor sits at residuals of 1e-9 to 1e-7 although
# every relation is exactly zero; a residual above this is a broken
# relation, not the floor.
FLOOR_RESIDUAL = 1e-6
TRACE_N = 3

GOLDEN = Path(__file__).resolve().parent / "golden_verify_exact.txt"

SIZES = {
    "full": {"verify": None, "queries": 1200, "samples": 60, "states": 50},
    "tiny": {"verify": ("action-table", 1), "queries": 6, "samples": 2,
             "states": 1},
}

Query = namedtuple("Query", "argv n kind data")


# -- inputs ------------------------------------------------------------------


def _atom_text(atom):
    if atom[0] == "R":
        return f"R{atom[1]}" if atom[2] == 1 else f"R{atom[1]}^{atom[2]}"
    return f"{atom[0]}{atom[1]}"


def _word_text(atoms):
    return "*".join(_atom_text(a) for a in atoms)


def _normalize_query(rng, n, length, commutator):
    atoms = []
    for _ in range(length):
        kind = rng.choice("yxR")
        k = rng.randint(1, n)
        atoms.append(("R", k, rng.choice((-1, 1))) if kind == "R" else (kind, k))
    atoms = tuple(atoms)
    if commutator:
        cut = rng.randint(1, len(atoms) - 1)
        a, b = atoms[:cut], atoms[cut:]
        e = rng.randint(-2, 2)
        text = (f"{_word_text(a)}*{_word_text(b)} - "
                f"q^{e}*{_word_text(b)}*{_word_text(a)}")
        data = ((None, a + b), (e, b + a))
    else:
        text, data = _word_text(atoms), ((None, atoms),)
    return Query(("normalize", "--n", str(n), text), n, "normalize", data)


def _monomial(rng, n, degree):
    b, c = [0] * n, [0] * n
    for _ in range(degree):
        while True:
            k = rng.randrange(n)
            block, other = (b, c) if rng.random() < 0.5 else (c, b)
            if not other[k]:
                block[k] += 1
                break
    factors = [f"{head}{k + 1}" + (f"^{m}" if m > 1 else "")
               for head, block in (("y", b), ("x", c))
               for k, m in enumerate(block) if m]
    return "*".join(factors), (tuple(b), tuple(c))


def _act_query(rng, n, kinds, degree):
    word = tuple((kind, rng.randint(1, n)) for kind in kinds)
    element, key = _monomial(rng, n, degree)
    hopf = "*".join(f"{kind}{j}" for kind, j in word)
    return Query(("act", "--n", str(n), hopf, element), n, "act", (word, key))


_SINGLE = [(a,) for a in "EFK"]
_PAIRS = [(a, b) for a in "EFK" for b in "EFK"]


def make_queries(seed, count):
    """Distinct CLI queries at n = 3, 4, half normalize and half act, in an
    order drawn from the seed.

    Atom counts, word lengths and degrees cycle through fixed strata.  The
    normalize strings are drawn from the seed; the act queries are the same
    set for every seed.  Which word meets which monomial decides the slowest
    queries, and drawing them from the seed moved the tail percentile by
    20% from one seed to the next.
    """
    fixed = random.Random(0)
    rng = random.Random(seed)
    seen = set()
    out = []
    for i in range(count):
        n = (3, 4)[i % 2]
        stratum = i // 4
        if (i // 2) % 2 == 0:
            make, params = _normalize_query, (
                rng, n, 4 + stratum % 5, stratum // 5 % 10 < 3)
        else:
            words = _PAIRS if stratum % 2 else _SINGLE
            make, params = _act_query, (
                fixed, n, words[stratum // 2 % len(words)], 2 + stratum // 18 % 3)
        query = make(*params)
        while query.argv in seen:
            query = make(*params)
        seen.add(query.argv)
        out.append(query)
    rng.shuffle(out)
    return out


def verify_argv(seed, size):
    spec = SIZES[size]["verify"]
    if spec is None:
        return ["verify", "--seed", str(seed)]
    suite, n = spec
    return ["verify", "--suite", suite, "--n", str(n), "--seed", str(seed)]


def build_inputs(workload, seed, size="full"):
    """Everything a workload needs before its clock starts."""
    spec = SIZES[size]
    if workload == "verify-default":
        return {"argv": verify_argv(seed, size)}
    if workload == "queries":
        return {"queries": make_queries(seed, spec["queries"])}
    if workload == "trace":
        common = ["--n", str(TRACE_N), "--seed", str(seed),
                  "--samples", str(spec["samples"])]
        # half the states are one Gaussian term and half are two, so every
        # seed asks for the same amount of work
        rng = random.Random(seed)
        states = [gauss.random_state(TRACE_N, rng, max_terms=1)
                  for _ in range(spec["states"])]
        for i in range(1, len(states), 2):
            states[i] = states[i] + gauss.random_state(TRACE_N, rng, max_terms=1)
        return {
            "argv": [["verify", "--suite", suite] + common
                     for suite in ("invariance", "cyclicity", "pointwise")],
            "relations": weyl.ab_rho_relations(TRACE_N),
            "states": states,
            "ctx": coeff.NumericContext(),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- the timed body ------------------------------------------------------------


class CaseClock:
    """Times suite cases as the gaps between consecutive ``SuiteReport.record``
    calls; a suite's first case is timed from the suite's start."""

    def __init__(self):
        self.events = []   # (perf_counter, True at a suite start)

    def start(self):
        self.events.append((time.perf_counter(), True))

    def install(self):
        events = self.events
        clock = time.perf_counter
        record = report.SuiteReport.record

        def timed_record(rep, *args, **kwargs):
            events.append((clock(), False))
            return record(rep, *args, **kwargs)

        report.SuiteReport.record = timed_record
        for runner in list(cli._RUNNERS.values()):
            def timed_runner(n, args, _runner=runner):
                events.append((clock(), True))
                return _runner(n, args)
            tracer.rebind(runner, timed_runner)

    def bounds(self):
        """Raw (start, end) stamps of every recorded case."""
        out = []
        last = None
        for t, is_start in self.events:
            if not is_start and last is not None:
                out.append((last, t))
            last = t
        return out


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run(workload, inputs, clock):
    """Run one repetition; return outputs, exit codes and raw case stamps."""
    if workload == "verify-default":
        rc, text = _call_cli(inputs["argv"])
        lines = text.splitlines()
        return {"outputs": lines, "rcs": [rc], "case_bounds": clock.bounds(),
                "attempted": len(lines), "failed": _failed(lines)}
    if workload == "queries":
        outputs, rcs, bounds = [], [], []
        for query in inputs["queries"]:
            t0 = time.perf_counter()
            rc, text = _call_cli(query.argv)
            bounds.append((t0, time.perf_counter()))
            rcs.append(rc)
            outputs.append(text.rstrip("\n"))
        return {"outputs": outputs, "rcs": rcs, "case_bounds": bounds,
                "attempted": len(rcs), "failed": sum(rc != 0 for rc in rcs)}
    if workload == "trace":
        lines, rcs = [], []
        for argv in inputs["argv"]:
            rc, text = _call_cli(argv)
            rcs.append(rc)
            lines.extend(text.splitlines())
        clock.start()
        rep = gauss.check_relations_pointwise(
            TRACE_N, inputs["relations"], inputs["states"], inputs["ctx"],
            suite=FLOOR_SUITE)
        lines.extend(rep.lines())
        floor = sum(_is_floor(line) for line in lines)
        return {"outputs": lines, "rcs": rcs, "case_bounds": clock.bounds(),
                "attempted": len(lines), "failed": _failed(lines) - floor,
                "floor": floor}
    raise ValueError(f"unknown workload {workload!r}")


def _failed(lines):
    return sum(line.endswith("pass=false") for line in lines)


def _is_floor(line):
    """True for an ab-rho pointwise line that fails only at the known
    precision floor: its relation is exactly zero and its residual is
    small.  Such a line is counted apart from ``failed``."""
    if not line.endswith("pass=false") or _suite_of(line) != FLOOR_SUITE:
        return False
    residual = float(line.split("residual=", 1)[1].split(",", 1)[0])
    return residual <= FLOOR_RESIDUAL


# -- the correctness gate --------------------------------------------------------


def _suite_of(line):
    return line.split(",", 1)[0][len("suite="):]


def expected_exact_lines(argv):
    """Exact-suite report lines the seed commit prints for this argv.

    The golden file holds the full ``qweyl verify`` lines; a single-suite
    run prints the same cases without the ``n<k>:`` prefix.
    """
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    if "--suite" not in argv:
        return golden
    suite = argv[argv.index("--suite") + 1]
    n = argv[argv.index("--n") + 1] if "--n" in argv else "1"
    head = f"suite={suite}, case=n{n}:"
    return [f"suite={suite}, case=" + line[len(head):]
            for line in golden if line.startswith(head)]


def check_verify(argv, result):
    problems = []
    exact = [line for line in result["outputs"] if _suite_of(line) in EXACT_SUITES]
    if exact != expected_exact_lines(argv):
        problems.append("exact-suite lines differ from the golden lines")
    problems += [f"failed: {line}" for line in result["outputs"]
                 if not line.endswith("pass=true")]
    if result["rcs"] != [0]:
        problems.append(f"exit codes {result['rcs']}")
    return problems


def check_trace(result):
    problems = []
    if any(rc != 0 for rc in result["rcs"]):
        problems.append(f"exit codes {result['rcs']}")
    for line in result["outputs"]:
        if line.endswith("pass=true") or _is_floor(line):
            continue
        if _suite_of(line) == FLOOR_SUITE:
            problems.append(f"broken relation, not the floor: {line}")
        else:
            problems.append(f"failed: {line}")
    return problems


def expected_query(query):
    """The answer computed through the library API, bypassing parser and cli."""
    n = query.n
    if query.kind == "normalize":
        terms = [(coeff.ONE if e is None else -coeff.q_power(e), atoms)
                 for e, atoms in query.data]
        return weyl.normal_form(n, terms)
    word, (b, c) = query.data
    z = (0,) * n
    h = uq.HopfElement(n, {word: coeff.ONE})
    return uq.act_element(h, weyl.AlgebraElement(n, {(z, b, c): coeff.ONE}))


def check_queries(queries, result):
    problems = []
    for query, rc, text in zip(queries, result["rcs"], result["outputs"]):
        if rc != 0:
            problems.append(f"exit {rc}: {' '.join(query.argv)}")
            continue
        want = expected_query(query)
        if str(want) != text or parser.parse_algebra(text, query.n) != want:
            problems.append(f"wrong answer: {' '.join(query.argv)} -> {text}")
    if len(result["rcs"]) != len(queries):
        problems.append("missing query results")
    return problems


def check(workload, inputs, result):
    """Problems found in one repetition's outputs; empty when correct."""
    if workload == "verify-default":
        return check_verify(inputs["argv"], result)
    if workload == "queries":
        return check_queries(inputs["queries"], result)
    return check_trace(result)
