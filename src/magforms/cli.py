"""Command line driver.

Verbs: expand, verify, table1, congruence, misc, basis, lift, unlift, reduce;
each takes only the options its handler reads.
Exit codes: 0 all checks pass, 1 a mathematical counterexample was found,
2 usage or parse error or an unreadable or unwritable path, 3 precision
shortfall.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .series import PrecisionError, QSeries, SeriesError, UsageError
from .cache import ENV_VAR, SeriesCache
from .exprs import ParseError, evaluate, normalize, parse_expression
from .halfint import PLUS_FORM_NAMES, named_plus_form, plus_basis
from .lifts import phi, psi
from .quasi import (
    parse_element,
    reduce_weight4,
    reduce_weight6,
    verify_certificate,
)
from .reports import VerificationReport
from .verify import verify_congruence, verify_misc, verify_table1, verify_theorem

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magforms",
        description="exact q-expansion computations and integrality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)  # the handler main calls
        return p

    p = add_parser("expand", _cmd_expand, "expand an expression to a q-series")
    p.add_argument("expression")
    p.add_argument("--prec", type=int, default=None)
    p.add_argument("--out", default=None, help="write canonical JSON to a file")
    cache = p.add_mutually_exclusive_group()
    cache.add_argument("--no-cache", action="store_true", help="bypass the disk cache")
    cache.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache directory (default: ${ENV_VAR} or ~/.cache/magforms)",
    )

    p = add_parser("verify", _cmd_verify, "run a theorem verification")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.add_argument("which", choices=["th1", "th2", "w4", "w6"])
    p.add_argument("--prec", type=int, default=1000)

    p = add_parser("table1", _cmd_table1, "verify the weight-4 lift table")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--rows", default=None, help="comma separated row ids")
    rows.add_argument("--extended", action="store_true", help="include the deep-pole rows")
    p.add_argument("--coeffs", type=int, default=60)
    p.add_argument("--magnetic-prec", type=int, default=500)

    p = add_parser("congruence", _cmd_congruence, "divisibility and magnetic checks")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.add_argument("form", help="a named form or a cuspidal expression")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--power", type=int, default=1, choices=[1, 2])
    p.add_argument("--order", type=int, default=1, help="antiderivative order")
    p.add_argument("--prec", type=int, default=1000)

    p = add_parser("misc", _cmd_misc, "raising relations, ODE checks, exponent families")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.add_argument("--prec", type=int, default=800)
    p.add_argument("--family-prec", type=int, default=1000)

    p = add_parser("basis", _cmd_basis, "compute a plus-space basis element")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prec", type=int, default=100)
    p.add_argument("--out", default=None)

    p = add_parser("lift", _cmd_lift, "apply the half-integral to integral weight lift")
    p.add_argument("source", help="plus form name, basis:k=..,m=.., or JSON file")
    p.add_argument("--k", type=int, default=None, help="default: the k the source names")
    p.add_argument("--prec", type=int, default=3600, help="input window for the lift")
    p.add_argument("--out", default=None)

    p = add_parser("unlift", _cmd_lift, "apply the reverse map")
    p.add_argument("source", help="plus form name, JSON file, or expression")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prec", type=int, default=100)
    p.add_argument("--out", default=None)

    p = add_parser("reduce", _cmd_reduce, "reduce a weight 4 or 6 element to generators")
    p.add_argument("element", help="e.g. '3/2*f(1,-1,1) - f(0,1,0)'")
    p.add_argument("--prec", type=int, default=300)
    return parser


def _emit(text: str, args) -> None:
    """Print *text*, and write it with a newline to ``--out`` when given."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _emit_report(report: VerificationReport, args) -> int:
    print(report.to_json() if args.json else report.render_text())
    return EXIT_PASS if report.verdict == "PASS" else EXIT_COUNTEREXAMPLE


def _read_series_file(path: str):
    """(series, embedded k or None) from a JSON series file, which holds a
    series or {"series": ..., "k": ...}; None when the file cannot be opened."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return None
    with fh:
        try:
            data = json.load(fh)
            if isinstance(data, dict):
                return QSeries.from_json_dict(data.get("series", data)), data.get("k")
            return QSeries.from_json_dict(data), None
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed series file {path!r}: {exc}") from None


def _load_source_series(source: str, k: int | None, prec: int):
    """Resolve a lift or unlift source: plus-form name, JSON file, or expression.
    An expression other than basis:k=K,m=M is evaluated only when k is given."""
    if source in PLUS_FORM_NAMES:
        form = named_plus_form(source, prec)
        return form.series, (form.k if k is None else k)
    loaded = _read_series_file(source)
    if loaded is None:
        if k is None:
            try:  # the parser recurses per level of nesting
                node = parse_expression(source)
            except RecursionError:
                raise ParseError("expression nested too deeply") from None
            if node[0] != "basis":
                raise UsageError(f"source {source!r} needs an explicit --k")
            k = node[1][0]  # basis:k=K,m=M names its k
        return evaluate(source, prec), k
    series, meta_k = loaded
    use_k = k if k is not None else meta_k
    if use_k is None:
        raise UsageError("JSON input needs --k or an embedded k field")
    return series, int(use_k)


def _cmd_expand(args) -> int:
    prec = 50 if args.prec is None else args.prec
    cache = SeriesCache(args.cache_dir, enabled=not args.no_cache)
    key = cache.key(f"expand/1|{normalize(args.expression)}|{prec}|{args.prec is None}")
    hit = cache.get(key)
    try:
        series = None if hit is None else QSeries.from_json_dict(hit)
    except (KeyError, TypeError, ValueError, SeriesError):
        series = None  # an entry that does not decode is a miss; overwrite it
    if series is None:
        series = evaluate(args.expression, prec, trim=args.prec is None)
        cache.put(key, series.to_json_dict())
    _emit(series.to_json(), args)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    return _emit_report(verify_theorem(args.which, args.prec), args)


def _cmd_table1(args) -> int:
    rows = None
    if args.rows:
        try:
            rows = [int(r) for r in args.rows.split(",") if r.strip()]
        except ValueError:
            raise UsageError(
                f"--rows needs comma separated row ids, got {args.rows!r}"
            ) from None
    report = verify_table1(
        rows,
        lift_coeffs=args.coeffs,
        magnetic_prec=args.magnetic_prec,
        extended=args.extended,
    )
    return _emit_report(report, args)


def _cmd_congruence(args) -> int:
    from .verify import _HALF_INTEGRAL, _INTEGRAL_FORMS, verify_magnetic_expression

    if args.form in _INTEGRAL_FORMS or args.form in _HALF_INTEGRAL:
        if args.prime is None:
            raise UsageError("named-form congruences need --prime")
        report = verify_congruence(args.form, args.prime, args.n, args.power, args.prec)
    else:
        report = verify_magnetic_expression(args.form, args.prec, args.order, args.prime)
    return _emit_report(report, args)


def _cmd_misc(args) -> int:
    return _emit_report(verify_misc(args.prec, args.family_prec), args)


def _cmd_basis(args) -> int:
    basis = plus_basis(args.k, [args.m], args.prec)
    form = basis[args.m]
    payload = {
        "k": args.k,
        "m": args.m,
        "pool_s_max": basis.pool_s_max,
        "series": form.series.to_json_dict(),
    }
    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")), args)
    return EXIT_PASS


def _cmd_lift(args) -> int:
    """lift applies psi to its source, unlift applies phi."""
    series, k = _load_source_series(args.source, args.k, args.prec)
    lift = psi if args.command == "lift" else phi
    _emit(lift(series, k).to_json(), args)
    return EXIT_PASS


def _cmd_reduce(args) -> int:
    element = parse_element(args.element)
    if element.is_zero():
        raise UsageError("nothing to reduce: the element is zero")
    if element.weight == 4:
        cert = reduce_weight4(element)
    elif element.weight == 6:
        cert = reduce_weight6(element)
    else:
        raise UsageError(f"no reduction algorithm for weight {element.weight}")
    ok = verify_certificate(cert, args.prec)
    payload = {
        "input": str(element),
        "weight": cert.weight,
        "mu": str(cert.mu),
        "generators": {name: str(val) for name, val in sorted(cert.gens.items())},
        "delta_part": str(cert.delta_part),
        "verified_at_prec": args.prec,
        "verified": ok,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_PASS if ok else EXIT_COUNTEREXAMPLE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (UsageError, SeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
