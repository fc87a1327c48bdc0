"""Command-line front end: normalize expressions, evaluate actions, run suites.

Report records are line-oriented ``key=value`` fields::

    suite=<name>, case=<id>, residual=<float>, pass=<true|false>

Exit codes: 0 all checks passed, 1 failures present or stdout closed by its
reader, 2 usage, parse or output-file error.  An argv that starts with a verb
is parsed by that verb's parser alone; any other goes to the top-level parser.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import random
import re
import sys

from . import gauss, haar, parser, uq, weyl
from .coeff import NumericContext
from .errors import ParseError, QweylError
from .report import SuiteReport

# far above any rank whose sweep can finish; a larger --n would first spend
# memory on its n-tuple keys
MAX_RANK = 10_000


def _symbolic_suite(name, relations, n):
    rep = SuiteReport(name)
    for rel in relations:
        element = weyl.normal_form(n, rel.terms)
        rep.record(rel.name, element.is_zero,
                   detail="" if element.is_zero else str(element))
    return rep


def run_weyl_relations(n, args):
    rels = weyl.coordinate_relations(n) + weyl.localized_relations(n)
    return _symbolic_suite("weyl-relations", rels, n)


def run_ab_rho(n, args):
    rep = _symbolic_suite("ab-rho", weyl.ab_rho_relations(n), n)
    for name, element in weyl.hermitian_generators(n):
        ok = element.star() == element
        rep.record(f"hermitian[{name}]", ok)
    return rep


def run_action_table(n, args):
    return uq.check_action_table(n)


def run_module_algebra(n, args):
    """The library's suite, sweeping only the properties whose tensor
    certificate does not close; the monomials are built only for those."""
    rep = SuiteReport("module-algebra")
    monomials = ()
    for g in uq.generators(n):
        certified = uq.certify(n, g)
        if not monomials and set(uq.CERTIFIED) - certified:
            monomials = uq.coordinate_monomials(n, args.degree)
        uq.check_generator(rep, n, g, monomials, certified)
    return rep


def run_certificate(n, args):
    return uq.check_certificates(n)


def _numeric_ctx(args):
    return NumericContext(phi=args.phi, tolerance=args.tolerance)


def run_pointwise(n, args):
    ctx = _numeric_ctx(args)
    rng = random.Random(args.seed)
    states = gauss.sample_states(n, rng, args.samples)
    rels = weyl.coordinate_relations(n) + weyl.localized_relations(n)
    rep = gauss.check_relations_pointwise(n, rels, states, ctx)
    rep.extend(gauss.check_hermiticity_pointwise(n, states, ctx))
    return rep


def run_model2(n, args):
    if n != 1:
        raise QweylError("the two-component model is defined for --n 1 only")
    ctx = _numeric_ctx(args)
    rng = random.Random(args.seed)
    states = [gauss.model2_random_state(rng) for _ in range(args.samples)]
    return gauss.check_model2(states, ctx)


def run_invariance(n, args):
    ictx = haar.IntegralContext(c=args.c, ctx=_numeric_ctx(args))
    rep = haar.check_invariance(n, ictx, count=args.samples, seed=args.seed)
    if n == 1:
        alt = dataclasses.replace(ictx, density="qinv")
        sub = haar.check_invariance(1, alt, count=args.samples, seed=args.seed)
        for case in sub.cases:
            rep.record(f"qinv:{case.case}", case.passed, residual=case.residual)
    return rep


def run_cyclicity(n, args):
    ictx = haar.IntegralContext(c=args.c, ctx=_numeric_ctx(args))
    return haar.check_cyclicity(n, ictx, count=args.samples, seed=args.seed)


def run_obstruction(n, args):
    return haar.check_obstruction(n)


_RUNNERS = {
    "weyl-relations": run_weyl_relations,
    "ab-rho": run_ab_rho,
    "action-table": run_action_table,
    "module-algebra": run_module_algebra,
    "pointwise": run_pointwise,
    "model2-n1": run_model2,
    "invariance": run_invariance,
    "cyclicity": run_cyclicity,
    "obstruction": run_obstruction,
    "certificate": run_certificate,
}
SUITES = tuple(_RUNNERS)
# what a bare ``verify`` runs; ``certificate`` is opt-in, so the default
# report keeps its lines
DEFAULT_SUITES = tuple(suite for suite in _RUNNERS if suite != "certificate")


def _out_file(path):
    """Open ``--out`` before any work is done; it is emptied only when written."""
    return (open(path, "a", encoding="utf-8") if path
            else contextlib.nullcontext())


def _emit(report_lines, out_file):
    text = "\n".join(report_lines)
    if text:
        print(text)
    if out_file is not None:
        out_file.truncate(0)
        out_file.write(text + ("\n" if text else ""))


def _run_suites(args, runs, prefixed=False):
    """Print one report of every ``(suite, n)`` run, naming each case
    ``n<k>:<case>`` when ``prefixed``; exit 1 if any case fails."""
    with _out_file(args.out) as out_file:
        merged = SuiteReport("verify")
        for suite, n in runs:
            for case in _RUNNERS[suite](n, args).cases:
                merged.cases.append(dataclasses.replace(
                    case, case=f"n{n}:{case.case}") if prefixed else case)
        _emit(merged.lines(), out_file)
    return 0 if merged.ok else 1


def _cmd_verify(args):
    if args.suite:
        return _run_suites(args, [(args.suite, args.n)])
    return _run_suites(args, [
        (suite, n) for suite in DEFAULT_SUITES
        for n in ((1,) if suite in ("model2-n1", "obstruction") else (1, 2))],
        prefixed=True)


def _cmd_normalize(args):
    value = parser.parse_expression(args.expr, args.n)
    print(value)
    return 0


def _cmd_act(args):
    h = parser.parse_hopf(args.hopf, args.n)
    f = parser.parse_algebra(args.element, args.n)
    print(uq.act_element(h, f))
    return 0


def _parse_state(text, n, ctx_name):
    legs = []
    # drop spaces beside commas, then split legs on parentheses, ';' and spaces
    for part in re.findall(r"[^\s;()]+", re.sub(r"\s*,\s*", ",", text)):
        fields = [p.strip() for p in part.split(",")]
        if len(fields) != 3:
            raise ParseError(
                f"{ctx_name}: each leg is (eps,gammaRe,gammaIm)", 0)
        eps, gre, gim = (float(p) for p in fields)
        if not all(map(math.isfinite, (eps, gre, gim))):
            raise ParseError(f"{ctx_name}: leg fields must be finite", 0)
        legs.append((eps, complex(gre, gim)))
    if len(legs) != n:
        raise ParseError(f"{ctx_name}: expected {n} legs, got {len(legs)}", 0)
    return gauss.GaussianState.from_legs(1.0, legs)


def _cmd_integrate(args):
    with _out_file(args.out) as out_file:
        ictx = haar.IntegralContext(c=args.c, ctx=_numeric_ctx(args),
                                    density=args.density)
        ket = _parse_state(args.ket, args.n, "--ket")
        bra = _parse_state(args.bra, args.n, "--bra")
        value = haar.quantum_trace(haar.rank_one(ket, bra), ictx)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise OverflowError(f"h={value} is not finite")
        _emit([f"h={value.real:.12e}{value.imag:+.12e}j"], out_file)
    return 0


def _cmd_repr_check(args):
    return _run_suites(args, [("pointwise", args.n)]
                       + [("model2-n1", 1)] * (args.n == 1))


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="qweyl",
        description="Verification kernel for invariant integration on the "
                    "real q-Weyl algebra")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, samples=10):
        p.add_argument("--n", type=int, default=1, help="number of coordinate pairs")
        p.add_argument("--phi", type=float, default=math.pi / 3,
                       help="deformation angle, q = exp(i*phi)")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--c", type=float, default=1.0,
                       help="trace normalization constant")
        p.add_argument("--out", default=None, help="also write the report here")

    # argparse's negative-number pattern, widened so that "-x1" is read as an
    # expression; "-h", "--n" and an unknown "--bogus" keep their meaning
    expression_arg = re.compile(r"^-[^-]")
    p = sub.add_parser("normalize", help="print the canonical form")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_normalize)
    p._negative_number_matcher = expression_arg

    p = sub.add_parser("act", help="apply a symmetry word to an element")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("hopf")
    p.add_argument("element")
    p.set_defaults(fn=_cmd_act)
    p._negative_number_matcher = expression_arg

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", choices=SUITES, default=None)
    p.add_argument("--degree", type=int, default=2,
                   help="monomial degree bound for module-algebra sweeps")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("integrate", help="invariant integral of a dyad")
    common(p)
    p.add_argument("--density", choices=("gamma", "qinv"), default="gamma")
    p.add_argument("--ket", required=True,
                   help="legs as (eps, gammaRe, gammaIm), split by ';' or spaces")
    p.add_argument("--bra", required=True)
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("repr-check", help="pointwise representation checks")
    common(p)
    p.set_defaults(fn=_cmd_repr_check)
    return ap


def _check_bounds(args):
    """Reject counts that would make a check pass on nothing, and ranks
    above :data:`MAX_RANK`."""
    for flag, least in (("n", 1), ("samples", 1), ("degree", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise QweylError(f"--{flag} must be at least {least}, got {value}")
    if args.n > MAX_RANK:
        raise QweylError(f"--n must be at most {MAX_RANK}, got {args.n}")


@functools.cache
def _arg_parser():
    """The parser that every :func:`main` call in a process shares."""
    return build_arg_parser()


def _parse(argv):
    """``argv`` parsed as the top-level parser would, but by the verb's own
    parser when ``argv[0]`` names one: the top level hands it nothing else."""
    top = _arg_parser()
    verbs = top._subparsers._group_actions[0].choices
    if not argv or argv[0] not in verbs:
        return top.parse_args(argv)
    args, extra = verbs[argv[0]].parse_known_args(argv[1:])
    if extra:
        top.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_bounds(args)
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed reader shows here
        return code
    except BrokenPipeError:  # the rest, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (QweylError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: out of floating-point range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
