"""Command-line front end: towers, splitting, series experiments, descent.

Each leaf subcommand computes one report and emits it as JSON (or CSV for
row-shaped reports) to --out or stdout.  Reports are byte-identical across
runs: keys are sorted, nothing is timestamped, and the computation is
single-threaded no matter what thread count is configured -- the count is
validated and echoed so scripted runs can assert it.

Exit codes: 0 success, 2 a comparison refuted its hypothesis, 3 an
inconclusive certificate, 64 invalid parameters.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache, reduce

from .cyclotomic import (
    CycloField,
    Datum,
    InconclusiveError,
    cyclo_primes_above,
    pp_lattice,
)
from .tower import DEFAULT_WITNESS_BOUND, KummerTower, fresh_prime_plan, verify_nested
from .splitting import (
    Field,
    classify_rational,
    compositum_min_norm,
    degree1_density,
    inert_chain_certificate,
    inert_prime_subfield,
    inert_splits_in_top,
    kummer_step,
    trace_prime,
)
from .automorphic import IsobaricRep
from .lseries import (
    PrimeSelector,
    positivity_check,
    rs_coeffs,
    slope_experiment,
    tail_threshold,
)
from .determination import build_L, descend_chain, run_pipeline

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64

_SQRT_FIELD = re.compile(r"Q\(sqrt\(?(-?\d+)\)?\)")
_CYCLO_FIELD = re.compile(r"Q\(z(\d+)\)")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad input; 2 is taken by refuted hypotheses
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_field(text: str) -> Field:
    """Field shorthand: Q, Q(i), Q(zN), Q(sqrt D), or a bare conductor."""
    s = text.strip().replace(" ", "")
    if re.fullmatch(r"\d+", s):
        return Field(int(s))
    if s == "Q":
        return Field(1)
    if s == "Q(i)":
        return Field(4)
    hit = _CYCLO_FIELD.fullmatch(s)
    if hit:
        return Field(int(hit.group(1)))
    hit = _SQRT_FIELD.fullmatch(s)
    if hit:
        return Field(KummerTower(1, 2, 1, Datum.of(int(hit.group(1)))))
    raise ValueError(
        f"unrecognized field {text!r}; use Q, Q(i), Q(zN), Q(sqrt D), "
        "or a conductor")


def _poly_add(a: dict, b: dict) -> dict:
    return {k: c for k in a.keys() | b.keys() if (c := a.get(k, 0) + b.get(k, 0))}


def _poly_mul(a: dict, b: dict) -> dict:
    return reduce(_poly_add, ({i + j: x * y for i, x in a.items()}
                              for j, y in b.items()), {})


def _poly_of(node, src: str) -> dict:
    """{exponent: nonzero coefficient} of a whitelisted expression in z."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # a decimal is exact: read from its source text, not the float
        c = Fraction(node.value if type(node.value) is int
                     else ast.get_source_segment(src, node).replace("_", ""))
        return {0: c} if c else {}
    if isinstance(node, ast.Name) and node.id == "z":
        return {1: 1}
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        sign = -1 if isinstance(node.op, ast.USub) else 1
        return _poly_mul(_poly_of(node.operand, src), {0: sign})
    if not (isinstance(node, ast.BinOp) and type(node.op) in
            (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
        raise ValueError(f"{ast.get_source_segment(src, node)!r} is not allowed")
    a, b = _poly_of(node.left, src), _poly_of(node.right, src)
    if isinstance(node.op, (ast.Add, ast.Sub)):
        return _poly_add(a, b if isinstance(node.op, ast.Add) else _poly_mul(b, {0: -1}))
    if isinstance(node.op, ast.Mult):
        return _poly_mul(a, b)
    if b.keys() - {0}:
        raise ValueError("a divisor or an exponent must not depend on z")
    c = Fraction(b.get(0, 0))
    if isinstance(node.op, ast.Div):
        return _poly_mul(a, {0: 1 / c})
    if c.denominator != 1 or c < 0:
        raise ValueError("an exponent must be a non-negative integer")
    out, e = {0: 1}, int(c)
    while e:
        out = _poly_mul(out, a) if e & 1 else out
        a, e = _poly_mul(a, a), e >> 1
    return out


def parse_alpha(text: str, m: int) -> Datum:
    """Rational literal or polynomial in z over Q(zeta_m), never run as Python:
    integer and decimal literals (decimals exact), z, + - * /, ** or ^ with a
    non-negative integer exponent, signs and parentheses.  Degree 0 in z
    (before z^m = 1) gives a rational datum."""
    # ^ is a power, with the precedence of **, not Python's xor
    src = text.strip().replace("^", "**")
    try:
        poly = _poly_of(ast.parse(src, mode="eval").body, src)
    except (SyntaxError, ValueError, ZeroDivisionError) as e:
        raise ValueError(f"cannot parse alpha {text!r}: {e}") from e
    if max(poly, default=0) == 0:
        return Datum.of(poly.get(0, 0), m=m)
    coeffs = [sum(c for k, c in poly.items() if k % m == j) for j in range(m)]
    return Datum(CycloField(m).element(coeffs))


def _parse_grid(text: str):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"grid {text!r} is not a comma list of floats")


def _parse_ints(text: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"{text!r} is not a comma list of integers")


def _parse_degree_counts(text: str):
    # "a:c,a:c" pairs, e.g. "1:4,2:2"
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        left, _, right = tok.partition(":")
        try:
            out.append((int(left), int(right)))
        except ValueError:
            raise ValueError(f"{text!r} is not a comma list of deg:count pairs")
    return tuple(out)


def _thread_count(args) -> int:
    raw = args.threads if args.threads is not None \
        else os.environ.get("KUMMERLAB_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"thread count {raw!r} is not an integer")
    if n < 1:
        raise ValueError("thread count must be >= 1")
    return n


def _positive(name: str, value: int | None) -> int | None:
    """`value` when it is unset (None) or at least 1; else ValueError."""
    if value is not None and value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _tower_from(args) -> KummerTower:
    alpha = parse_alpha(args.alpha, args.m)
    pre = tuple(parse_alpha(t, args.m) for t in (args.pre or ()))
    return KummerTower(args.m, args.p, args.r, alpha, pre_steps=pre,
                       base_is_step=args.base_is_step)


def _load_pair(path: str, field=None):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        pi = IsobaricRep.from_json(doc["pi"], field=field)
        pi2 = IsobaricRep.from_json(doc["pi2"], field=field)
    except (AttributeError, KeyError, TypeError, ZeroDivisionError) as e:
        raise ValueError(f"malformed pair file {path}: {e!r}")
    return pi, pi2


def _selector(args, field) -> PrimeSelector:
    degrees = frozenset(_parse_ints(args.degrees)) if args.degrees else None
    exclude = frozenset(_parse_ints(args.exclude)) if args.exclude else frozenset()
    return PrimeSelector(field, cutoff=_positive("X", args.X),
                         degrees=degrees, exclude=exclude)


def _report(kind: str, args, **body) -> dict:
    return {"schema": 1, "kind": kind, "threads": args.thread_count, **body}


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        rows = payload.get("rows")
        if not rows:
            raise ValueError("this report has no tabular rows; use --format json")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- handlers --------------------------------------------------------------


def _cmd_tower_build(args):
    t = _tower_from(args)
    payload = _report(
        "tower-report", args,
        m=t.m, p=t.p, r=t.r, alpha=repr(t.datum),
        pre_steps=[repr(d) for d in t.pre_steps],
        base_is_step=t.base_is_step,
        stacked_steps=t.stacked_steps,
        root_exponents=[t.root_exponent(j) for j in range(t.r + 1)])
    return payload, EXIT_OK


def _cmd_tower_verify(args):
    t = _tower_from(args)
    cert = verify_nested(t, bound=_positive("bound", args.bound))
    prime = cert.witness_prime
    payload = _report(
        "nestedness-report", args,
        m=t.m, p=t.p, r=t.r, alpha=repr(t.datum),
        chain_degrees=list(cert.chain_degrees),
        mu_source=cert.mu_source,
        witness_q=cert.witness_q,
        witness_prime=None if prime is None else {"q": prime.q, "f": prime.f},
        lines=[{"exponents": list(canon), "witness_q": w}
               for canon, w in cert.line_witnesses])
    return payload, EXIT_OK


def _cmd_split_trace(args):
    t = _tower_from(args)
    rows = []
    ramified = False
    primes = cyclo_primes_above(t.m, args.q)
    for i, P in enumerate(primes):
        tr = trace_prime(t, P)
        if tr.ramified:
            ramified = True
            continue
        for level in range(t.r + 1):
            for degree, count in tr.places(level):
                rows.append({"prime_index": i, "base_degree": P.f,
                             "level": level, "degree": degree,
                             "count": count})
    payload = _report("trace-report", args, q=args.q,
                      primes_above=len(primes), ramified=ramified, rows=rows)
    return payload, EXIT_OK


def _cmd_split_classify(args):
    step = kummer_step(args.m, args.p, parse_alpha(args.alpha, args.m))
    rows = [{"prime_index": i, "base_degree": P.f, "class": cls.value}
            for i, (P, cls) in enumerate(classify_rational(step, args.q))]
    payload = _report("classify-report", args, q=args.q, rows=rows)
    return payload, EXIT_OK


def _cmd_split_density(args):
    step = kummer_step(args.m, args.p, parse_alpha(args.alpha, args.m))
    rep = degree1_density(step, _positive("X", args.X))
    row = {"degree1": rep.degree1, "total": rep.total,
           "ratio": float(rep.ratio)}
    payload = _report("density-report", args, X=args.X,
                      degree1=rep.degree1, total=rep.total,
                      ratio=str(rep.ratio), rows=[row])
    return payload, EXIT_OK


def _cmd_lemma_44(args):
    t = _tower_from(args)
    cert = inert_chain_certificate(t, args.q)
    payload = _report(
        "inert-chain-report", args,
        q=args.q, prime={"q": cert.prime.q, "f": cert.prime.f},
        norms=list(cert.norms),
        order_valuation=cert.order_valuation,
        sylow_valuation=cert.sylow_valuation,
        branch_count=cert.branch_count,
        unique_lift=cert.unique_lift,
        rows=[{"level": j, "norm": n} for j, n in enumerate(cert.norms)])
    return payload, EXIT_OK


def _cmd_lemma_45(args):
    t = _tower_from(args)
    other = _parse_degree_counts(args.other) if args.other else None
    bound = compositum_min_norm(t, args.q, other)
    payload = _report(
        "compositum-report", args,
        q=args.q, min_norm=bound.min_norm,
        folded=None if bound.folded is None else
        [list(pair) for pair in bound.folded],
        rows=[{"level": j, "norm": n}
              for j, n in enumerate(bound.certificate.norms)])
    return payload, EXIT_OK


def _lattice_from(args):
    return pp_lattice(Datum.of(args.D), Datum.of(args.F))


def _cmd_lemma_58(args):
    cls = inert_prime_subfield(_lattice_from(args), args.q)
    payload = _report("subfield-report", args, q=cls.q, D=args.D, F=args.F,
                      label=cls.label, coords=list(cls.coords),
                      datum=repr(cls.datum))
    return payload, EXIT_OK


def _cmd_lemma_7split(args):
    cert = inert_splits_in_top(_lattice_from(args), args.q)
    payload = _report("top-split-report", args, q=cert.q, D=args.D, F=args.F,
                      coords=list(cert.coords), k_class=cert.k_class.value,
                      primes_in_top=cert.primes_in_top,
                      relative_degree=cert.relative_degree)
    return payload, EXIT_OK


def _cmd_rs_coeffs(args):
    field = parse_field(args.field)
    pi, pi2 = _load_pair(args.pair, field)
    series = rs_coeffs(pi, pi2, _selector(args, field),
                       _positive("M", args.M), args.kind)
    rows = []
    for m, v in sorted(series.floats().items()):
        re_part, im_part = (v.real, v.imag) if isinstance(v, complex) \
            else (v, 0.0)
        rows.append({"index": m, "real": re_part, "imag": im_part})
    payload = _report("coeffs-report", args, field=args.field,
                      series=args.kind, X=args.X, M=args.M, rows=rows)
    return payload, EXIT_OK


def _cmd_rs_slope(args):
    field = parse_field(args.field)
    pi, pi2 = _load_pair(args.pair, field)
    grid = _parse_grid(args.grid) if args.grid else None
    selector = _selector(args, field)
    rep = slope_experiment(pi, pi2, selector, grid) if grid is not None \
        else slope_experiment(pi, pi2, selector)
    payload = _report(
        "slope-report", args, field=args.field, X=rep.cutoff,
        grid=list(rep.grid),
        raw_slope=rep.raw_slope,
        completed_slope=rep.completed_slope,
        compensated_slope=rep.compensated_slope,
        mean_tail_coeff=rep.mean_tail_coeff,
        rows=[{"epsilon": e, "log_value": v}
              for e, v in zip(rep.grid, rep.log_values)])
    return payload, EXIT_OK


def _cmd_rs_positivity(args):
    field = parse_field(args.field)
    pi, pi2 = _load_pair(args.pair, field)
    rep = positivity_check(pi, pi2, _selector(args, field),
                           _positive("M", args.M))
    row = {"checked": rep.checked, "zero": rep.zero,
           "min_value": str(rep.min_value),
           "all_nonnegative": rep.all_nonnegative}
    payload = _report("positivity-report", args, field=args.field,
                      X=args.X, M=args.M, rows=[row], **row)
    return payload, EXIT_OK


def _cmd_rs_tail(args):
    n = _positive("n", args.n)
    payload = _report("tail-report", args, n=n, d0=tail_threshold(n))
    return payload, EXIT_OK


def _cmd_descent_plan(args):
    used = set(_parse_ints(args.used)) if args.used else set()
    plan = fresh_prime_plan(used, args.p, _positive("r", args.r),
                            split_modulus=args.split_modulus)
    payload = _report(
        "descent-plan-report", args, p=args.p, r=args.r,
        used=sorted(used),
        rows=[{"level": i + 1, "prime": ell, "power": power}
              for i, (ell, power) in enumerate(plan)])
    return payload, EXIT_OK


def _cmd_descent_run(args):
    K = parse_field(args.K)
    pi, pi2 = _load_pair(args.pair, K)
    plan = build_L(K, pi.n)
    upto = _positive("verify-upto", args.verify_upto)
    cert = descend_chain(pi, pi2, plan, plan.lift(pi, upto),
                         plan.lift(pi2, upto))
    payload = _report(
        "descent-report", args, K=args.K, n=pi.n,
        conclusion=cert.conclusion,
        used=list(cert.used),
        fresh_primes=list(cert.fresh_primes()),
        modified_datum=cert.modified_datum,
        replay_check=cert.check(pi, pi2),
        steps=[{"level": s.level, "fresh_prime": s.fresh_prime,
                "multiplier_power": s.multiplier_power,
                "exponents": list(s.exponents)} for s in cert.steps])
    return payload, EXIT_OK


def _cmd_theorem_a(args):
    K = parse_field(args.K)
    pi, pi2 = _load_pair(args.pair, K)
    report = run_pipeline(K, pi, pi2, X=_positive("X", args.X),
                          compare_X=_positive("compare-X", args.compare_X),
                          final_X=_positive("final-X", args.final_X),
                          slope_cutoff=args.slope_cutoff)
    payload = dict(report.to_json())
    payload["threads"] = args.thread_count
    return payload, report.exit_code


# --- parser ----------------------------------------------------------------


def _add_tower_flags(sub, with_r: bool = True):
    sub.add_argument("--m", type=int, required=True,
                     help="base conductor (1 for Q)")
    sub.add_argument("--p", type=int, required=True, help="step degree")
    if with_r:
        sub.add_argument("--r", type=int, default=1, help="tower height")
    sub.add_argument("--alpha", required=True,
                     help="datum: rational or polynomial in z, e.g. '1+z'")
    if with_r:
        sub.add_argument("--pre", action="append",
                         help="pre-step datum (repeatable)")
        sub.add_argument("--base-is-step", action="store_true",
                         help="count the degree-p base layer as the first step")


def _add_lattice_flags(sub):
    sub.add_argument("--D", type=int, required=True,
                     help="datum of the real quadratic K")
    sub.add_argument("--F", type=int, default=-1,
                     help="datum of the partner quadratic F")
    sub.add_argument("--q", type=int, required=True)


def _add_pair_flags(sub, field_flag: str = "--field", default: str | None = "Q"):
    sub.add_argument(field_flag, default=default,
                     required=default is None,
                     help="field shorthand: Q, Q(i), Q(zN), Q(sqrt D)")
    sub.add_argument("--pair", required=True,
                     help="JSON file with 'pi' and 'pi2' documents")


@cache
def _build_parser() -> _Parser:
    # built on first use, not at import, and kept for later main() calls
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--threads", default=None,
                        help="override KUMMERLAB_THREADS (reports stay "
                        "single-threaded and byte-identical)")

    parser = _Parser(prog="kummerlab",
                     description="Kummer towers, prime splitting, "
                     "Rankin-Selberg series, descent.")
    top = parser.add_subparsers(dest="command", required=True)

    tower = top.add_parser("tower", help="build and certify root towers")
    tower_sub = tower.add_subparsers(dest="subcommand", required=True)
    sub = tower_sub.add_parser("build", parents=[common],
                               help="construct a tower and describe it")
    _add_tower_flags(sub)
    sub.set_defaults(func=_cmd_tower_build)
    sub = tower_sub.add_parser("verify", parents=[common],
                               help="certify nestedness with full degree")
    _add_tower_flags(sub)
    sub.add_argument("--bound", type=int, default=DEFAULT_WITNESS_BOUND,
                     help="witness search bound")
    sub.set_defaults(func=_cmd_tower_verify)

    split = top.add_parser("split", help="prime splitting along a tower")
    split_sub = split.add_subparsers(dest="subcommand", required=True)
    sub = split_sub.add_parser("trace", parents=[common],
                               help="follow one rational prime level by level")
    _add_tower_flags(sub)
    sub.add_argument("--q", type=int, required=True)
    sub.set_defaults(func=_cmd_split_trace)
    sub = split_sub.add_parser("classify", parents=[common],
                               help="degree class of each prime above q")
    _add_tower_flags(sub, with_r=False)
    sub.add_argument("--q", type=int, required=True)
    sub.set_defaults(func=_cmd_split_classify)
    sub = split_sub.add_parser("density", parents=[common],
                               help="degree-1 place density of a bare step")
    _add_tower_flags(sub, with_r=False)
    sub.add_argument("--X", type=int, default=10 ** 4, help="norm cutoff")
    sub.set_defaults(func=_cmd_split_density)

    lemma = top.add_parser("lemma", help="single-certificate checks")
    lemma_sub = lemma.add_subparsers(dest="subcommand", required=True)
    sub = lemma_sub.add_parser("44", parents=[common],
                               help="inert chain with doubling norms")
    _add_tower_flags(sub)
    sub.add_argument("--q", type=int, required=True)
    sub.set_defaults(func=_cmd_lemma_44)
    sub = lemma_sub.add_parser("45", parents=[common],
                               help="compositum minimum-norm bound")
    _add_tower_flags(sub)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--other",
                     help="other factor's degrees as deg:count pairs, "
                     "e.g. '1:4,2:2'")
    sub.set_defaults(func=_cmd_lemma_45)
    sub = lemma_sub.add_parser("58", parents=[common],
                               help="which lattice subfield an inert prime "
                               "splits in")
    _add_lattice_flags(sub)
    sub.set_defaults(func=_cmd_lemma_58)
    sub = lemma_sub.add_parser("7split", parents=[common],
                               help="inert-in-K primes split at the top")
    _add_lattice_flags(sub)
    sub.set_defaults(func=_cmd_lemma_7split)

    rs = top.add_parser("rs", help="Rankin-Selberg series experiments")
    rs_sub = rs.add_subparsers(dest="subcommand", required=True)
    sub = rs_sub.add_parser("coeffs", parents=[common],
                            help="log- or Z-series coefficients")
    _add_pair_flags(sub)
    sub.add_argument("--X", type=int, default=10 ** 4, help="place cutoff")
    sub.add_argument("--M", type=int, default=100, help="coefficient cutoff")
    sub.add_argument("--kind", choices=("log", "Z"), default="log")
    sub.add_argument("--degrees", help="restrict place degrees, e.g. '1,2'")
    sub.add_argument("--exclude", help="exclude rational primes (ramified ones must be), e.g. '2'")
    sub.set_defaults(func=_cmd_rs_coeffs)
    sub = rs_sub.add_parser("slope", parents=[common],
                            help="log Z_X(1+eps) slope against log(1/eps)")
    _add_pair_flags(sub)
    sub.add_argument("--X", type=int, default=10 ** 5, help="place cutoff")
    sub.add_argument("--grid", help="eps grid, e.g. '0.1,0.05,0.02,0.01'")
    sub.add_argument("--degrees", help="restrict place degrees")
    sub.add_argument("--exclude",
                     help="exclude rational primes (ramified ones must be)")
    sub.set_defaults(func=_cmd_rs_slope)
    sub = rs_sub.add_parser("positivity", parents=[common],
                            help="Z-series coefficient nonnegativity")
    _add_pair_flags(sub)
    sub.add_argument("--X", type=int, default=10 ** 4, help="place cutoff")
    sub.add_argument("--M", type=int, default=10 ** 3,
                     help="coefficient cutoff")
    sub.add_argument("--degrees", help="restrict place degrees")
    sub.add_argument("--exclude",
                     help="exclude rational primes (ramified ones must be)")
    sub.set_defaults(func=_cmd_rs_positivity)
    sub = rs_sub.add_parser("tail", parents=[common],
                            help="first degree past the tail threshold")
    sub.add_argument("--n", type=int, required=True, help="ambient degree")
    sub.set_defaults(func=_cmd_rs_tail)

    descent = top.add_parser("descent", help="fresh-prime descent down a chain")
    descent_sub = descent.add_subparsers(dest="subcommand", required=True)
    sub = descent_sub.add_parser("plan", parents=[common],
                                 help="fresh multiplier primes for each level")
    sub.add_argument("--used", help="primes to avoid, e.g. '2,5'")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--split-modulus", type=int, default=None,
                     help="restrict candidates to 1 mod this")
    sub.set_defaults(func=_cmd_descent_plan)
    sub = descent_sub.add_parser("run", parents=[common],
                                 help="eliminate twists level by level")
    _add_pair_flags(sub, field_flag="--K", default=None)
    sub.add_argument("--verify-upto", type=int, default=60,
                     help="primes q up to this bound check the Satake "
                          "coherence of each base change")
    sub.set_defaults(func=_cmd_descent_run)

    sub = top.add_parser("theorem-a", parents=[common],
                         help="full determination pipeline over K")
    _add_pair_flags(sub, field_flag="--K", default=None)
    sub.add_argument("--X", type=int, default=10 ** 4,
                     help="hypothesis window cutoff")
    sub.add_argument("--compare-X", type=int, default=None)
    sub.add_argument("--final-X", type=int, default=None)
    sub.add_argument("--slope-cutoff", type=int, default=None)
    sub.set_defaults(func=_cmd_theorem_a)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value with a leading '-' that is not a plain number
    # (a datum such as -5/6 or -z) for an option: glue it to its flag
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--alpha", "--pre") and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        args.thread_count = _thread_count(args)
        payload, code = args.func(args)
        _emit(payload, args)
    except InconclusiveError as e:
        print(f"kummerlab: inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError) as e:
        print(f"kummerlab: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
