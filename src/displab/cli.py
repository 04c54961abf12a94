"""Command-line front end.

Every computation in the library is reachable as a subcommand with
deterministic output: rationals print as "p/q", polynomial JSON lists run
lowest degree first, and pretty polynomial output runs highest degree
first.  Exit codes: 0 success, 1 computation refused (size caps, mismatch),
2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import DisplabError, ParseError, SizeLimitError

DEFAULT_MAX_ORDER = 20


def _at_least(value: int, least: int, option: str) -> None:
    if value < least:
        raise ParseError(f"{option} must be at least {least}, got {value}")


def _max_order(args) -> int:
    cap = getattr(args, "max_order", None)
    source = "--max-order"
    if cap is None:
        env = os.environ.get("DISPLAB_MAX_ORDER")
        if not env:
            return DEFAULT_MAX_ORDER
        try:
            cap = int(env)
        except ValueError as exc:
            raise ParseError(f"bad DISPLAB_MAX_ORDER value {env!r}") from exc
        source = "DISPLAB_MAX_ORDER"
    _at_least(cap, 0, source)
    return cap


def _load_digraph(source: str) -> tuple[SimpleDigraph, dict[str, int]]:
    """Resolve a --family string or --file path into a digraph plus labels."""
    from .families import build_family
    from .graph import normalize, parse_digraph_json, parse_digraph_text

    kind, _, rest = source.partition(":")
    if kind == "file":
        path = Path(rest)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        stripped = text.lstrip()
        if stripped.startswith("{"):
            multi = parse_digraph_json(text)
        else:
            multi = parse_digraph_text(text)
        d = normalize(multi)
        return d, {f"v{i + 1}": i for i in range(d.n)}
    return build_family(source)


def _digraph_from_args(args) -> tuple[SimpleDigraph, dict[str, int], str]:
    if getattr(args, "family", None) and getattr(args, "file", None):
        raise ParseError("give either --family or --file, not both")
    if getattr(args, "family", None):
        d, labels = _load_digraph(args.family)
        name = args.family
    elif getattr(args, "file", None):
        d, labels = _load_digraph(f"file:{args.file}")
        name = args.file
    else:
        raise ParseError("one of --family or --file is required")
    cap = _max_order(args)
    if d.n > cap:
        raise SizeLimitError(
            f"digraph order {d.n} exceeds --max-order {cap}")
    return d, labels, name


def _resolve_vertex(spec: str, labels: dict[str, int], n: int) -> int:
    if spec in labels:
        return labels[spec]
    try:
        v = int(spec)
    except ValueError as exc:
        raise ParseError(f"unknown vertex {spec!r}") from exc
    if not (0 <= v < n):
        raise ParseError(f"vertex index {v} out of range")
    return v


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    from .counting import count

    d, _, _ = _digraph_from_args(args)
    value = count(d)
    if args.format == "json":
        _emit(_json({"count": value, "n": d.n}))
    else:
        _emit(str(value))
    return 0


def _cmd_dispositions(args) -> int:
    from .counting import enumerate_dispositions

    _at_least(args.cap, 0, "--cap")
    d, _, _ = _digraph_from_args(args)
    dispositions = enumerate_dispositions(d, cap=args.cap)
    if args.format == "json":
        _emit(_json({"count": len(dispositions),
                     "dispositions": [list(f) for f in dispositions]}))
    else:
        for f in dispositions:
            _emit(" ".join(str(x) for x in f))
    return 0


def _cmd_companion(args) -> int:
    from .companion import companion_by_heights, companion_from_counters

    d, labels, _ = _digraph_from_args(args)
    v = _resolve_vertex(args.vertex, labels, d.n)
    if args.route == "recurrence":
        result = companion_by_heights(d, v, reverse=args.dual)
    else:
        result = companion_from_counters(d, v, reverse=args.dual)
    if args.format == "json":
        _emit(_json(result.to_json()))
    else:
        _emit(result.poly.pretty())
    return 0


def _cmd_ode(args) -> int:
    from .companion import staircase_companion
    from .graph import check_mask_limit
    from .ode import (catalan_ode, laguerre_equation, laguerrean_reflected,
                      two_row_ode)

    chosen = [x for x in (args.catalan, args.tworow, args.staircase,
                          args.laguerre) if x is not None]
    if len(chosen) != 1:
        raise ParseError(
            "give exactly one of --catalan, --tworow, --staircase, --laguerre")
    if args.catalan is not None:
        ode = catalan_ode(args.catalan, args.r)
    elif args.tworow is not None:
        try:
            n1, n2 = (int(x) for x in args.tworow.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --tworow {args.tworow!r}") from exc
        ode = two_row_ode(n1, n2, args.r)
    elif args.staircase is not None:
        # n is the order of the zigzag digraph: the counters' hard vertex cap
        check_mask_limit(args.staircase, "ode --staircase")
        ode = laguerrean_reflected(staircase_companion(args.staircase))
    else:
        _at_least(args.laguerre, 0, "--laguerre")
        ode = laguerre_equation(args.laguerre)
    if args.format == "json":
        _emit(_json(ode.to_json()))
    else:
        _emit(ode.pretty())
    return 0


def _cmd_gram(args) -> int:
    from .algebra import format_rational, laguerre
    from .companion import catalan_polynomial
    from .orthogonality import gram

    if (args.catalan is None) == (args.laguerre is None):
        raise ParseError("give exactly one of --catalan or --laguerre")
    if args.catalan is not None:
        _at_least(args.catalan, 1, "--catalan")
        polys = [catalan_polynomial(k) for k in range(1, args.catalan + 1)]
        labels = [f"C{k}" for k in range(1, args.catalan + 1)]
        matrix = gram(polys, flip_sign=True, labels=labels)
    else:
        _at_least(args.laguerre, 1, "--laguerre")
        polys = [laguerre(k) for k in range(args.laguerre)]
        labels = [f"L{k}" for k in range(args.laguerre)]
        matrix = gram(polys, labels=labels)
    if args.format == "json":
        _emit(_json({"labels": list(matrix.labels),
                     "entries": [[format_rational(x) for x in row]
                                 for row in matrix.entries]}))
    else:
        _emit(matrix.to_csv())
    return 0


def _cmd_nonstrict(args) -> int:
    from .nonstrict import order_polynomial

    sources = args.family or []
    if args.file:
        sources.extend(f"file:{f}" for f in args.file)
    if not sources:
        raise ParseError("at least one --family or --file is required")
    _at_least(args.max_size, 1, "--max-size")
    rows = []
    cap = _max_order(args)
    for src in sources:
        d, _ = _load_digraph(src)
        if d.n > cap:
            raise SizeLimitError(f"digraph order {d.n} exceeds --max-order {cap}")
        omega = order_polynomial(d)
        # Omega is an integer combination of binomials C(i, k)
        rows.append((src, [int(omega(i))
                           for i in range(1, args.max_size + 1)]))
    if args.format == "json":
        _emit(_json({src: values for src, values in rows}))
    else:
        header = "digraph," + ",".join(f"i={i}" for i in range(1, args.max_size + 1))
        lines = [header]
        for src, values in rows:
            lines.append(src + "," + ",".join(str(v) for v in values))
        _emit("\n".join(lines))
    return 0


def _cmd_series(args) -> int:
    from .algebra import bessel_i_series, exp_series, format_rational
    from .nonstrict import (nonstrict_path_series,
                            nonstrict_path_series_fixed_size)

    kind, _, rest = args.kind.partition(":")
    try:
        if kind == "nspaths":
            series = nonstrict_path_series(args.order)
        elif kind == "nspath-size":
            series = nonstrict_path_series_fixed_size(int(rest), args.order)
        elif kind == "exp":
            series = exp_series(int(rest or 1), args.order)
        elif kind == "bessel":
            m, k = (int(x) for x in rest.split(","))
            series = bessel_i_series(m, k, args.order)
        else:
            raise ParseError(f"unknown series kind {args.kind!r}")
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad series kind {args.kind!r}: {exc}") from exc
    coeffs = [format_rational(c) for c in series.coeffs]
    if args.format == "json":
        _emit(_json({"order": series.order, "coeffs": coeffs}))
    else:
        _emit(" ".join(coeffs))
    return 0


def _cmd_extremal(args) -> int:
    from .extremal import max_counter_search

    report = max_counter_search(args.order, parallel=args.parallel)
    _emit(_json(report.to_json()))
    return 0


def _cmd_families(args) -> int:
    from .counting import count

    d, labels = _load_digraph(args.spec)
    data = d.to_json()
    data["labels"] = labels
    data["counter"] = count(d) if d.n <= _max_order(args) else None
    _emit(_json(data))
    return 0


def _cmd_paper_tables(args) -> int:
    """Recompute every reference table and diff against the fixtures."""
    from . import golden
    from .algebra import Polynomial, format_rational
    from .companion import (catalan_polynomial, catalan_polynomial_r3,
                            generalized_zigzag, staircase_companion,
                            staircase_data, two_row_companion)
    from .families import staircase_counter
    from .ode import (Ode2, catalan_ode, laguerrean_reflected, reduce_to_QR,
                      two_row_ode)
    from .orthogonality import laguerre_inner

    failures = []

    def check(name: str, ok: bool) -> None:
        _emit(f"{name}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures.append(name)

    for i, expected in sorted(golden.GENERALIZED_ZIGZAG.items()):
        if i == 0:
            got = [staircase_counter(n) for n in range(len(expected))]
        else:
            got = generalized_zigzag(i, len(expected))
        check(f"generalized-zigzag i={i}", got == expected)

    for n, coeffs in sorted(golden.CATALAN_POLYNOMIALS.items()):
        check(f"catalan-polynomial n={n}",
              catalan_polynomial(n) == Polynomial.from_json(coeffs))

    for n, (u, v, w) in sorted(golden.CATALAN_EQUATIONS.items()):
        expected = Ode2(Polynomial.from_json(u), Polynomial.from_json(v),
                        Polynomial.from_json(w))
        check(f"catalan-equation n={n}", catalan_ode(n, 2) == expected)

    check("two-row-2-3 polynomial",
          two_row_companion(2, 3, 2) == Polynomial.from_json(golden.TWO_ROW_2_3_POLY))
    u, v, w = golden.TWO_ROW_2_3_EQUATION
    check("two-row-2-3 equation",
          two_row_ode(2, 3, 2) == Ode2(Polynomial.from_json(u),
                                       Polynomial.from_json(v),
                                       Polynomial.from_json(w)))

    for n, coeffs in sorted(golden.STAIRCASE_POLYNOMIALS.items()):
        check(f"staircase-polynomial n={n}",
              staircase_companion(n) == Polynomial.from_json(coeffs))
    for n, expected_g in sorted(golden.STAIRCASE_G_TUPLES.items()):
        got = staircase_data(n).g
        check(f"staircase-g n={n}",
              [format_rational(x) for x in got] == expected_g)
    for n, (q_str, r_str) in sorted(golden.STAIRCASE_QR.items()):
        q, r = reduce_to_QR(staircase_companion(n).compose_neg())
        check(f"staircase-QR n={n}",
              q == Polynomial.from_json(q_str) and r == Polynomial.from_json(r_str))
    for n, (u, v, w) in sorted(golden.STAIRCASE_EQUATIONS.items()):
        expected = Ode2(Polynomial.from_json(u), Polynomial.from_json(v),
                        Polynomial.from_json(w))
        check(f"staircase-equation n={n}",
              laguerrean_reflected(staircase_companion(n)) == expected)

    cross = laguerre_inner(catalan_polynomial_r3(3).compose_neg(),
                           catalan_polynomial_r3(4).compose_neg())
    check("order-3 cross inner product",
          format_rational(cross) == golden.R3_CROSS_INNER_3_4)

    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_digraph_options(sub, multiple=False) -> None:
    if multiple:
        sub.add_argument("--family", action="append",
                         help="family string such as staircase:7 or tworow:2,3")
        sub.add_argument("--file", action="append",
                         help="digraph file (text edge list or JSON)")
    else:
        sub.add_argument("--family",
                         help="family string such as staircase:7 or tworow:2,3")
        sub.add_argument("--file", help="digraph file (text edge list or JSON)")
    sub.add_argument("--max-order", type=int, default=None,
                     help="refuse digraphs larger than this "
                          "(default 20, or DISPLAB_MAX_ORDER)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="displab",
        description="Exact counters, companion polynomials and differential "
                    "equations of directed multigraphs.",
        epilog="Rationals print as p/q.  Polynomial JSON lists coefficients "
               "lowest degree first; pretty output runs highest degree first.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="number of dispositions")
    _add_digraph_options(sub)
    sub.add_argument("--format", choices=("pretty", "json"), default="pretty")
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("dispositions", help="list every disposition")
    _add_digraph_options(sub)
    sub.add_argument("--cap", type=int, default=100_000,
                     help="refuse to enumerate more dispositions than this")
    sub.add_argument("--format", choices=("pretty", "json"), default="pretty")
    sub.set_defaults(func=_cmd_dispositions)

    sub = subs.add_parser("companion", help="companion polynomial at a vertex")
    _add_digraph_options(sub)
    sub.add_argument("--vertex", required=True,
                     help="vertex label (v2, u1, ...) or 0-based index")
    sub.add_argument("--dual", action="store_true",
                     help="attach the path in reverse orientation")
    sub.add_argument("--route", choices=("counters", "recurrence"),
                     default="counters")
    sub.add_argument("--format", choices=("pretty", "json"), default="pretty")
    sub.set_defaults(func=_cmd_companion)

    sub = subs.add_parser("ode", help="differential equation families")
    sub.add_argument("--catalan", type=int, help="equal-rows equation index")
    sub.add_argument("--tworow", help="n1,n2 for the two-row equation")
    sub.add_argument("--staircase", type=int,
                     help="zigzag companion equation index")
    sub.add_argument("--laguerre", type=int, help="plain Laguerre equation")
    sub.add_argument("--r", type=int, choices=(2, 3), default=2,
                     help="attachment vertex for --catalan/--tworow")
    sub.add_argument("--format", choices=("pretty", "json"), default="pretty")
    sub.set_defaults(func=_cmd_ode)

    sub = subs.add_parser("gram", help="Gram matrices under the exp(-x) weight")
    sub.add_argument("--catalan", type=int,
                     help="first N Catalan polynomials, sign-flipped")
    sub.add_argument("--laguerre", type=int, help="first N Laguerre polynomials")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=_cmd_gram)

    sub = subs.add_parser("nonstrict", help="non-strict counter table")
    _add_digraph_options(sub, multiple=True)
    sub.add_argument("--max-size", type=int, default=5,
                     help="tabulate sizes 1..N")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(func=_cmd_nonstrict)

    sub = subs.add_parser("series", help="exact truncated power series")
    sub.add_argument("--kind", required=True,
                     help="nspaths | nspath-size:J | exp:C | bessel:M,K")
    sub.add_argument("--order", type=int, default=12)
    sub.add_argument("--format", choices=("pretty", "json"), default="pretty")
    sub.set_defaults(func=_cmd_series)

    sub = subs.add_parser("extremal", help="maximize the counter over "
                                           "connected row-grid digraphs")
    sub.add_argument("--order", type=int, required=True)
    sub.add_argument("--parallel", action="store_true",
                     help="accepted and ignored (the search is serial)")
    sub.set_defaults(func=_cmd_extremal)

    sub = subs.add_parser("families", help="build a named digraph family")
    sub.add_argument("--spec", required=True, help="family string")
    sub.add_argument("--max-order", type=int, default=None)
    sub.set_defaults(func=_cmd_families)

    sub = subs.add_parser("paper-tables",
                          help="recompute the reference tables and diff "
                               "against the checked-in fixtures")
    sub.set_defaults(func=_cmd_paper_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        # invalid values are input errors, same as malformed syntax
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DisplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
