"""Command-line front end.

Every computation in the library is reachable as a subcommand with
deterministic output: rationals print as "p/q", polynomial JSON lists run
lowest degree first, and pretty polynomial output runs highest degree
first.  Exit codes: 0 success, 1 computation refused (size caps, mismatch,
an internal MemoryError, RecursionError or OverflowError) or a stdout
closed by its reader, 2 malformed input.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import DisplabError, ParseError, SizeLimitError, _decimal

DEFAULT_MAX_ORDER = 20
# the largest accepted `gram --catalan/--laguerre N` (`gram --catalan 100`
# takes about 0.7 s) and `ode --catalan N`, twice it the largest
# `ode --tworow n1,n2` order n1 + n2 (`--tworow 0,200` and `--catalan 100`
# take about 0.1 s), `ode --staircase N` (150 takes about 0.5-0.7 s and
# 17 MB, nearly all in `laguerrean`), `nonstrict --max-size N`,
# `families --spec` order (`path:100000` takes about 1 s and 64 MB),
# `series --order` (past it every kind but exp:0 has a coefficient too long
# to print) and `dispositions --cap` (499,488 dispositions of 12 vertices
# take about 6 s and 200 MB)
GRAM_SIZE_LIMIT = 100
STAIRCASE_ORDER_LIMIT = 150
MAX_SIZE_LIMIT = 10_000
SPEC_ORDER_LIMIT = 100_000
SERIES_ORDER_LIMIT = 2_000
DISPOSITIONS_CAP_LIMIT = 500_000


def _int(text: str) -> int:
    """An integer of CLI text, read as family strings and digraph files
    read theirs: ASCII decimal digits with an optional leading '-'."""
    return _decimal(text)


# argparse names the type in its refusal: "invalid int value: 'x'"
_int.__name__ = "int"


def _at_least(value: int, least: int, option: str) -> None:
    if value < least:
        raise ParseError(f"{option} must be at least {least}, got {value}")


def _at_most(value: int, most: int, option: str) -> None:
    if value > most:
        raise SizeLimitError(f"{option} {value} exceeds the cap {most}")


def _max_order(args) -> int:
    _at_least(args.max_order, 0, "--max-order")
    return args.max_order


def _read_digraph(path: str, max_order: int
                  ) -> tuple[SimpleDigraph, dict[str, int]]:
    """Read a digraph file, text edge list or JSON, plus its labels v1..vn.

    A text file is read one line at a time, and a digraph of more than
    ``max_order`` vertices is refused as soon as its order is read.
    """
    from itertools import chain

    from .graph import parse_digraph_json, parse_digraph_text

    path = Path(path)
    try:
        with path.open() as lines:
            first = next((ln for ln in lines if ln.strip()), "")
            if first.lstrip().startswith("{"):
                d = parse_digraph_json(first + lines.read(), max_order)
            else:
                d = parse_digraph_text(chain([first], lines), max_order)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return d, {f"v{i + 1}": i for i in range(d.n)}


def _digraph_from_args(args) -> tuple[SimpleDigraph, dict[str, int]]:
    """The digraph of --family or --file and its labels; an empty --family
    counts as absent."""
    if args.family and args.file:
        raise ParseError("give either --family or --file, not both")
    if args.family:
        from .families import build_family

        return build_family(args.family, _max_order(args))
    if args.file:
        return _read_digraph(args.file, _max_order(args))
    raise ParseError("one of --family or --file is required")


def _resolve_vertex(spec: str, labels: dict[str, int], n: int) -> int:
    if spec in labels:
        return labels[spec]
    try:
        v = _int(spec)
    except ValueError as exc:
        raise ParseError(f"unknown vertex {spec!r}") from exc
    if not (0 <= v < n):
        raise ParseError(f"vertex index {v} out of range")
    return v


def _emit(text: str) -> None:
    if sys.stdout is None:  # fd 1 was closed at start: as if by its reader
        raise BrokenPipeError("stdout is closed")
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(data) -> str:
    import json

    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    from .counting import count

    d, _ = _digraph_from_args(args)
    value = count(d)
    if args.format == "json":
        _emit(_json({"count": value, "n": d.n}))
    else:
        _emit(str(value))
    return 0


def _cmd_dispositions(args) -> int:
    from .counting import enumerate_dispositions

    _at_least(args.cap, 0, "--cap")
    _at_most(args.cap, DISPOSITIONS_CAP_LIMIT, "--cap")
    d, _ = _digraph_from_args(args)
    dispositions = enumerate_dispositions(d, cap=args.cap)
    if args.format == "json":
        _emit(_json({"count": len(dispositions),
                     "dispositions": [list(f) for f in dispositions]}))
    else:
        for f in dispositions:
            _emit(" ".join(str(x) for x in f))
    return 0


def _cmd_companion(args) -> int:
    from .companion import companion_from_counters

    d, labels = _digraph_from_args(args)
    v = _resolve_vertex(args.vertex, labels, d.n)
    result = companion_from_counters(d, v, reverse=args.dual)
    if args.route == "recurrence":
        result = result._replace(counters=result.counters[:d.n])
    if args.format == "json":
        _emit(_json(result.to_json()))
    else:
        _emit(result.poly.pretty())
    return 0


def _cmd_ode(args) -> int:
    from .ode import (catalan_ode, laguerre_equation, laguerrean_reflected,
                      two_row_ode)

    chosen = [x for x in (args.catalan, args.tworow, args.staircase,
                          args.laguerre) if x is not None]
    if len(chosen) != 1:
        raise ParseError(
            "give exactly one of --catalan, --tworow, --staircase, --laguerre")
    if args.catalan is not None:
        _at_most(args.catalan, GRAM_SIZE_LIMIT, "--catalan")
        ode = catalan_ode(args.catalan, args.r)
    elif args.tworow is not None:
        try:
            n1, n2 = (_int(x) for x in args.tworow.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --tworow {args.tworow!r}") from exc
        if 0 <= n1 <= n2:  # a malformed pair is refused as such first
            _at_most(n1 + n2, 2 * GRAM_SIZE_LIMIT, "--tworow order")
        ode = two_row_ode(n1, n2, args.r)
    elif args.staircase is not None:
        from .companion import staircase_companion

        _at_most(args.staircase, STAIRCASE_ORDER_LIMIT, "--staircase")
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
    from .algebra import format_rational
    from .orthogonality import gram, laguerre_gram

    if (args.catalan is None) == (args.laguerre is None):
        raise ParseError("give exactly one of --catalan or --laguerre")
    if args.catalan is not None:
        from .companion import catalan_polynomial

        _at_least(args.catalan, 1, "--catalan")
        _at_most(args.catalan, GRAM_SIZE_LIMIT, "--catalan")
        polys = [catalan_polynomial(k) for k in range(1, args.catalan + 1)]
        labels = [f"C{k}" for k in range(1, args.catalan + 1)]
        matrix = gram(polys, flip_sign=True, labels=labels)
    else:
        _at_least(args.laguerre, 1, "--laguerre")
        _at_most(args.laguerre, GRAM_SIZE_LIMIT, "--laguerre")
        matrix = laguerre_gram(args.laguerre)
    if args.format == "json":
        _emit(_json({"labels": list(matrix.labels),
                     "entries": [[format_rational(x) for x in row]
                                 for row in matrix.entries]}))
    else:
        _emit(matrix.to_csv())
    return 0


def _cmd_nonstrict(args) -> int:
    from .families import build_family
    from .nonstrict import nonstrict_counts

    if not (args.family or args.file):
        raise ParseError("at least one --family or --file is required")
    _at_least(args.max_size, 1, "--max-size")
    _at_most(args.max_size, MAX_SIZE_LIMIT, "--max-size")
    cap = _max_order(args)
    sizes = range(1, args.max_size + 1)
    rows = [(family, nonstrict_counts(build_family(family, cap)[0], sizes))
            for family in args.family or []]
    rows += [(f"file:{path}", nonstrict_counts(_read_digraph(path, cap)[0],
                                               sizes))
             for path in args.file or []]
    if args.format == "json":
        _emit(_json({src: values for src, values in rows}))
    else:
        header = "digraph," + ",".join(f"i={i}" for i in range(1, args.max_size + 1))
        lines = [header]
        for src, values in rows:
            lines.append(src + "," + ",".join(str(v) for v in values))
        _emit("\n".join(lines))
    return 0


def _refuse_too_long(num: int | None = None, den: int = 1) -> None:
    """Refuse a series coefficient that failed to print, or num / den when,
    reduced, its numerator or denominator has too many digits."""
    # 0, no limit, as in CPython before 3.11
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if num is None or (limit and max(abs(num), den) // math.gcd(num, den)
                       >= 10 ** limit):
        raise SizeLimitError(
            f"a series coefficient has more than {limit} digits, too long "
            f"to print; lower --order")


def _refuse_power(base: int, exponent: int, den: int) -> None:
    """Refuse, from bit lengths, a coefficient at least |base|^exponent /
    den that no reduction makes short enough to print: on parameters of
    thousands of digits the exact check takes seconds."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 10^limit < 2^(4 limit)
    if limit and ((abs(base).bit_length() - 1) * exponent
                  >= den.bit_length() + 4 * limit):
        _refuse_too_long()


def _cmd_series(args) -> int:
    from .algebra import bessel_i_series, exp_series, format_rational
    from .nonstrict import (nonstrict_path_series,
                            nonstrict_path_series_fixed_size)

    order = args.order
    _at_least(order, 0, "--order")
    _at_most(order, SERIES_ORDER_LIMIT, "--order")
    kind, _, rest = args.kind.partition(":")
    fact = math.factorial(order)
    # each kind refuses before building when its last nonzero coefficient
    # cannot print
    try:
        if kind == "nspaths":
            _refuse_too_long(math.comb(max(2 * order - 1, 0), order), fact)
            series = nonstrict_path_series(order)
        elif kind == "nspath-size":
            j = _int(rest)
            if j >= 1:
                # C(j+order-1, order) / order! = j(j+1)...(j+order-1) / order!^2
                _refuse_power(j, order, fact * fact)
                _refuse_too_long(math.perm(j + order - 1, order), fact * fact)
            series = nonstrict_path_series_fixed_size(j, order)
        elif kind == "exp":
            c = _int(rest) if rest else 1
            _refuse_power(c, order, fact)
            _refuse_too_long(c ** order, fact)
            series = exp_series(c, order)
        elif kind == "bessel":
            m, k = (_int(x) for x in rest.split(","))
            if 0 <= m <= order:
                # the X^e coefficient, e = m + 2s, is k^e / (2^e s! (m+s)!)
                s = (order - m) // 2
                e = m + 2 * s
                den = 2 ** e * math.factorial(s) * math.factorial(m + s)
                _refuse_power(k, e, den)
                _refuse_too_long(k ** e, den)
            series = bessel_i_series(m, k, order)
        else:
            raise ParseError(f"unknown series kind {args.kind!r}")
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad series kind {args.kind!r}: {exc}") from exc
    try:
        coeffs = [format_rational(c) for c in series.coeffs]
    except ValueError:
        # CPython's guard on int-to-str conversion, not a malformed input
        _refuse_too_long()
    if args.format == "json":
        _emit(_json({"order": series.order, "coeffs": coeffs}))
    else:
        _emit(" ".join(coeffs))
    return 0


def _cmd_extremal(args) -> int:
    from .extremal import max_counter_search

    report = max_counter_search(args.order)
    _emit(_json(report.to_json()))
    return 0


def _cmd_families(args) -> int:
    from .counting import count
    from .families import build_family

    try:
        d, labels = build_family(args.spec, SPEC_ORDER_LIMIT)
    except SizeLimitError:
        raise SizeLimitError(f"--spec {args.spec} exceeds the cap of "
                             f"{SPEC_ORDER_LIMIT} vertices") from None
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
    from .ode import (Ode2, catalan_ode, laguerrean_reflected, reduce_to_QR,
                      two_row_ode)
    from .orthogonality import laguerre_inner

    poly = Polynomial.from_json

    def ode(triple) -> Ode2:
        return Ode2(*map(poly, triple))

    def checks():
        for i, expected in sorted(golden.GENERALIZED_ZIGZAG.items()):
            yield (f"generalized-zigzag i={i}",
                   generalized_zigzag(i, len(expected)) == expected)
        for n, coeffs in sorted(golden.CATALAN_POLYNOMIALS.items()):
            yield (f"catalan-polynomial n={n}",
                   catalan_polynomial(n) == poly(coeffs))
        for n, triple in sorted(golden.CATALAN_EQUATIONS.items()):
            yield f"catalan-equation n={n}", catalan_ode(n, 2) == ode(triple)
        yield ("two-row-2-3 polynomial",
               two_row_companion(2, 3, 2) == poly(golden.TWO_ROW_2_3_POLY))
        yield ("two-row-2-3 equation",
               two_row_ode(2, 3, 2) == ode(golden.TWO_ROW_2_3_EQUATION))
        for n, coeffs in sorted(golden.STAIRCASE_POLYNOMIALS.items()):
            yield (f"staircase-polynomial n={n}",
                   staircase_companion(n) == poly(coeffs))
        for n, expected in sorted(golden.STAIRCASE_G_TUPLES.items()):
            yield (f"staircase-g n={n}",
                   [format_rational(x) for x in staircase_data(n).g]
                   == expected)
        for n, pair in sorted(golden.STAIRCASE_QR.items()):
            yield (f"staircase-QR n={n}",
                   reduce_to_QR(staircase_companion(n).compose_neg())
                   == tuple(map(poly, pair)))
        for n, triple in sorted(golden.STAIRCASE_EQUATIONS.items()):
            yield (f"staircase-equation n={n}",
                   laguerrean_reflected(staircase_companion(n)) == ode(triple))
        cross = laguerre_inner(catalan_polynomial_r3(3).compose_neg(),
                               catalan_polynomial_r3(4).compose_neg())
        yield ("order-3 cross inner product",
               format_rational(cross) == golden.R3_CROSS_INNER_3_4)

    all_ok = True
    for name, ok in checks():
        _emit(f"{name}: {'ok' if ok else 'MISMATCH'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FAMILY_HELP = "family string such as staircase:7 or tworow:2,3"
_FILE_HELP = "digraph file (text edge list or JSON)"
_MAX_ORDER = ("--max-order", {"type": _int, "default": DEFAULT_MAX_ORDER,
                              "help": "refuse digraphs larger than this "
                                      f"(default {DEFAULT_MAX_ORDER})"})
_DIGRAPH = (("--family", {"help": _FAMILY_HELP}),
            ("--file", {"help": _FILE_HELP}),
            _MAX_ORDER)
_DIGRAPHS = (("--family", {"action": "append", "help": _FAMILY_HELP}),
             ("--file", {"action": "append", "help": _FILE_HELP}),
             _MAX_ORDER)


def _format(*choices: str) -> tuple[str, dict]:
    return ("--format", {"choices": choices, "default": choices[0]})


# subcommand name -> (help, options, handler), in --help order; each option
# is (flag, keyword arguments of add_argument), in --help order
COMMANDS = {
    "count": ("number of dispositions",
              (*_DIGRAPH, _format("pretty", "json")), _cmd_count),
    "dispositions": (
        "list every disposition",
        (*_DIGRAPH,
         ("--cap", {"type": _int, "default": 100_000,
                    "help": "refuse to enumerate more dispositions than "
                            "this"}),
         _format("pretty", "json")),
        _cmd_dispositions),
    "companion": (
        "companion polynomial at a vertex",
        (*_DIGRAPH,
         ("--vertex", {"required": True,
                       "help": "vertex label (v2, u1, ...) or 0-based "
                               "index"}),
         ("--dual", {"action": "store_true",
                     "help": "attach the path in reverse orientation"}),
         ("--route", {"choices": ("counters", "recurrence"),
                      "default": "counters"}),
         _format("pretty", "json")),
        _cmd_companion),
    "ode": (
        "differential equation families",
        (("--catalan", {"type": _int, "help": "equal-rows equation index"}),
         ("--tworow", {"help": "n1,n2 for the two-row equation"}),
         ("--staircase", {"type": _int,
                          "help": "zigzag companion equation index"}),
         ("--laguerre", {"type": _int, "help": "plain Laguerre equation"}),
         ("--r", {"type": _int, "choices": (2, 3), "default": 2,
                  "help": "attachment vertex for --catalan/--tworow"}),
         _format("pretty", "json")),
        _cmd_ode),
    "gram": (
        "Gram matrices under the exp(-x) weight",
        (("--catalan", {"type": _int,
                        "help": "first N Catalan polynomials, "
                                "sign-flipped"}),
         ("--laguerre", {"type": _int,
                         "help": "first N Laguerre polynomials"}),
         _format("csv", "json")),
        _cmd_gram),
    "nonstrict": (
        "non-strict counter table",
        (*_DIGRAPHS,
         ("--max-size", {"type": _int, "default": 5,
                         "help": "tabulate sizes 1..N"}),
         _format("csv", "json")),
        _cmd_nonstrict),
    "series": (
        "exact truncated power series",
        (("--kind", {"required": True,
                     "help": "nspaths | nspath-size:J | exp:C | "
                             "bessel:M,K"}),
         ("--order", {"type": _int, "default": 12}),
         _format("pretty", "json")),
        _cmd_series),
    "extremal": (
        "maximize the counter over connected row-grid digraphs",
        (("--order", {"type": _int, "required": True}),),
        _cmd_extremal),
    "families": (
        "build a named digraph family",
        (("--spec", {"required": True, "help": "family string"}),
         ("--max-order", {"type": _int, "default": DEFAULT_MAX_ORDER})),
        _cmd_families),
    "paper-tables": ("recompute the reference tables and diff against the "
                     "checked-in fixtures", (), _cmd_paper_tables),
}


def _parse(argv: list[str]):
    """What ``build_parser().parse_args(argv)`` returns, for a
    well-formed command line, without importing argparse; None otherwise.

    Well-formed means: a subcommand name, then flags each spelled out in
    full, a value after each flag that takes one, never starting with "-"
    and passing the flag's type and choices, no flag but an appended one
    given twice, and every required flag given.  Everything else (help,
    abbreviations, --flag=value, negative numbers, errors) is left to
    argparse, so its output cannot change.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, handler = COMMANDS[argv[0]]
    declared = {flag: (flag[2:].replace("-", "_"), spec)
                for flag, spec in options}
    values = {dest: spec.get("default", False if spec.get("action")
                              == "store_true" else None)
              for dest, spec in declared.values()}
    given = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in declared:
            return None
        dest, spec = declared[flag]
        action = spec.get("action")
        if action != "append" and flag in given:
            return None
        given.add(flag)
        if action == "store_true":
            values[dest] = True
            continue
        # a missing value reads as "-", which argparse must report
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if action == "append":
            values[dest] = (values[dest] or []) + [value]
        else:
            values[dest] = value
    if any(spec.get("required") and flag not in given
           for flag, spec in options):
        return None
    return SimpleNamespace(command=argv[0], func=handler, **values)


def build_parser() -> "argparse.ArgumentParser":
    """The CLI parser, for help, errors and whatever ``_parse`` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="displab",
        description="Exact counters, companion polynomials and differential "
                    "equations of directed multigraphs.",
        epilog="Rationals print as p/q.  Polynomial JSON lists coefficients "
               "lowest degree first; pretty output runs highest degree first.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        # invalid values are input errors, same as malformed syntax
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DisplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, OverflowError) as exc:
        # resources ran out inside a computation: refused, like a size cap
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 1


def run() -> int:
    """Entry point of the ``displab`` script and of ``python -m displab.cli``.

    Runs :func:`main` on the process's arguments and flushes stdout, then
    freezes the heap (``gc.freeze``): every object still alive moves to the
    collector's permanent generation, so the collections at interpreter
    shutdown skip it.  Output to a stdout closed by its reader, or to fd 1
    closed at start, ends the process with exit status 1 and nothing on
    stderr.  ``main`` itself has no process-wide effect, for callers that
    run it in-process.
    """
    try:
        code = main()
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: send what is still buffered, and the flush at
        # exit, to nowhere, as the Python docs do on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
