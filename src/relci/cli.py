"""Batch command line front end.

Subcommands take a JSON instance file (``-i``), dispatch to the library
and print a single JSON report to stdout.  All numbers in reports are
decimal strings (rationals as "p/q"), never native floats, and reports
are deterministic: identical input and flags give byte-identical bytes.

Instance file schema::

    {
      "bundle": {
        "rank": 4, "degree": 4, "base_genus": 0,
        "hn": [{"rank": 3, "degree": 3}, {"rank": 1, "degree": 1}],
        "split": [1, 1, 1, 1]
      },
      "ci": {"k": [3, 3], "y": [1, 2]}
    }

``hn`` and ``split`` are optional; a ``split`` list must be consistent
with (rank, degree) and induces the Harder-Narasimhan profile (which
must then agree with ``hn`` when both are present).  The bundle keeps
the split (``line_degrees``), and exit-3 messages print the failing
instance in this schema.

``-i -`` reads the JSON from standard input.  A section of the wrong
JSON type (say a list where an object belongs) is invalid input.

Work is bounded before any table is built: ``ci.k`` sums to at most
``MAX_K_SUM``, ``bundle.rank`` is at most ``MAX_RANK``, ``invariants -h``
and ``sweep --h-max`` are at most ``MAX_TWIST``, and ``oracle`` needs
2^c * C(h_max + r, r) <= ``MAX_ORACLE_WORK`` (its brute force visits all
2^c subsets at every twist).  ``example`` takes ``--r`` up to ``MAX_RANK``
and ``--a`` and ``--m`` up to ``MAX_K_SUM``.  ``verdict`` lists every
small-twist margin, so at rank 200 ``k = [10000]`` prints 10.6 MB, and
``sweep --h-max 10000`` up to 11.1 MB.  The rationals of a ``contact``
input are JSON integers or "p" / "p/q" strings of decimal digits.

Exit codes: 0 success, 2 invalid input, 3 internal exact-identity
failure, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .bundles import BundleOverCurve, ConeLabel, classify, cone
from .errors import InputError, InternalCheckError, integer, shown
from .exact import binom_trunc
from .invariants import (
    RelativeCI,
    alpha_invariant,
    canonical_class,
    canonical_top_power,
    ci_class,
    effectivity_violations,
    fibre_deg,
    h_top,
    positivity_margin,
    pushforward,
)
from .oracles import cross_check
from .verdicts import Orientation, build_example, h_sweep
from .verdicts import asymptotic_verdict, instability_verdict, slope_verdict, small_h_verdict

MAX_K_SUM = 10_000
MAX_RANK = 200
MAX_TWIST = 10_000
MAX_ORACLE_WORK = 200_000

# flags bounded before any work, by command: (flag, argparse dest, limit)
_FLAG_LIMITS = {
    "invariants": (("-h", "h", MAX_TWIST),),
    "sweep": (("--h-max", "h_max", MAX_TWIST),),
    "example": (("--r", "r", MAX_RANK), ("--a", "a", MAX_K_SUM), ("--m", "m", MAX_K_SUM)),
}
# no decimal point or exponent: the length of the text bounds the size of the number;
# compiled on first use by ``re``, since only ``contact`` reads rationals
_RATIONAL = r"[+-]?[0-9]+(/[0-9]+)?"
_SIGN_WORDS = ("zero", "positive", "negative")  # by sign: 0, 1, -1


def _sign_word(value: object) -> str:
    return _SIGN_WORDS[(value > 0) - (value < 0)]


def _int_flag(text: str) -> int:
    """``type=int`` for a flag, naming a long value that is not one by its size."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


def _num(value: int | Fraction) -> str:
    """A report number as a decimal string, "p/q" for a rational."""
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(
            f"a reported number has more than {sys.get_int_max_str_digits()} digits, "
            f"the interpreter's limit for decimal output"
        ) from exc


def _enc(value: object) -> object:
    """Encode report values: every number becomes a decimal string.

    Dicts, lists and numbers are matched by exact type first; strings, bools,
    str-Enums and None then pass through as is.
    """
    kind = type(value)
    if kind is dict:
        return {str(k): _enc(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_enc(v) for v in value]
    if kind is int or kind is Fraction:
        return _num(value)
    if isinstance(value, (bool, str)) or value is None:  # str subclasses: str-Enums
        return value
    raise TypeError(f"cannot encode {value!r} in a report")


def _rat(value: object, field: str) -> Fraction:
    if type(value) is not int and not (type(value) is str and re.fullmatch(_RATIONAL, value)):
        raise InputError(f"{field}: rationals must be integers or 'p/q' strings")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{field}: not a rational: {shown(value)}") from exc


def _shaped(value: object, kind: type, field: str) -> object:
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise InputError(f"{field} must be {noun}, got {shown(value)}")
    return value


def _read_json(path: str) -> object:
    """Read and decode a JSON input file; ``-`` reads standard input."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, encoding="utf-8") as file:
            return json.loads(file.read())
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise InputError(f"input file {path} is not valid JSON: {exc}") from exc


def instance_from_json(data: object) -> RelativeCI:
    """Decode an instance in the file schema above."""
    _shaped(data, dict, "instance file")
    try:
        braw = _shaped(data["bundle"], dict, "bundle")
        ciraw = _shaped(data["ci"], dict, "ci")
    except KeyError as exc:
        raise InputError(f"instance file missing section {exc.args[0]!r}") from exc
    rank = integer(braw.get("rank"), "bundle.rank")
    degree = integer(braw.get("degree"), "bundle.degree")
    genus = integer(braw.get("base_genus", 0), "bundle.base_genus")
    hn = None
    if braw.get("hn") is not None:
        blocks = [_shaped(b, dict, "bundle.hn block") for b in _shaped(braw["hn"], list, "bundle.hn")]
        hn = tuple(
            (integer(b.get("rank"), "bundle.hn.rank"), integer(b.get("degree"), "bundle.hn.degree"))
            for b in blocks
        )
    degs = None
    if braw.get("split") is not None:
        degs = [integer(a, "bundle.split") for a in _shaped(braw["split"], list, "bundle.split")]
        # before the rank limit and the bundle's own rank and genus checks;
        # BundleOverCurve.split rejects an empty list itself
        if degs and (len(degs), sum(degs)) != (rank, degree):
            raise InputError(
                f"bundle.split implies (rank, degree) = ({len(degs)}, {shown(sum(degs))}), "
                f"file says ({shown(rank)}, {shown(degree)})"
            )
    if rank > MAX_RANK:
        raise InputError(f"bundle.rank {shown(rank)} is above the limit {MAX_RANK}")
    if degs is None:
        bundle = BundleOverCurve(rank, degree, genus, hn)
    else:
        bundle = BundleOverCurve.split(degs, genus)
        if hn is not None and bundle.hn != hn:
            raise InputError("bundle.hn disagrees with the profile induced by bundle.split")
    k = tuple(integer(v, "ci.k") for v in _shaped(ciraw.get("k", []), list, "ci.k"))
    y = tuple(integer(v, "ci.y") for v in _shaped(ciraw.get("y", []), list, "ci.y"))
    if not k:
        raise InputError("ci.k must be a nonempty list")
    if sum(k) > MAX_K_SUM:
        raise InputError(f"ci.k sums to {shown(sum(k))}, above the limit {MAX_K_SUM}")
    return RelativeCI(bundle, k, y)


def instance_to_json(X: RelativeCI) -> dict:
    """The JSON form of an instance, as ``instance_from_json`` reads it back."""
    bundle = X.bundle
    return {
        "bundle": {
            "rank": bundle.rank,
            "degree": bundle.degree,
            "base_genus": bundle.base_genus,
            "hn": [{"rank": r, "degree": d} for r, d in bundle.hn] if bundle.hn else None,
            "split": list(bundle.line_degrees) if bundle.line_degrees else None,
        },
        "ci": {"k": list(X.k), "y": list(X.y)},
    }


def _contact_json(T) -> dict:  # a subvariety of ``contact``: an echoed input or the intersection
    return {"dim": T.dim, "deg": T.deg, "e_f": T.e_f}


def _warnings(X: RelativeCI) -> list[str]:
    return [
        f"hypersurface {i}: y/k = {Fraction(X.y[i - 1], X.k[i - 1])} exceeds the "
        f"top Harder-Narasimhan slope; no effective member exists"
        for i in effectivity_violations(X)
    ]


class _JsonText:
    """A report value given as its JSON text, which ``_emit`` writes as it is."""

    def __init__(self, text: str) -> None:
        self.text = text


def _emit(report: dict, pretty: bool) -> None:
    """Write the report compact, a ``_JsonText`` spliced in once; ``--pretty`` re-lays the text."""
    held = []  # written "\u0000" first, a string no report value contains

    def hold(value: _JsonText) -> str:
        held.append(value.text)
        return "\0"

    text = json.dumps(report, sort_keys=True, separators=(",", ":"), default=hold)
    text = text.replace('"\\u0000"', held[0], 1) if held else text
    # json.loads gives the report back: keys sorted, values strings, bools, nulls, lists, dicts
    sys.stdout.write((json.dumps(json.loads(text), indent=2) if pretty else text) + "\n")


# ---------------------------------------------------------------- commands
#
# A command returns the result of its report, already encoded (``_enc``;
# sweep margins as ``_JsonText``); ``main`` adds the echo (the instance
# it loaded, or the flags of ``example``) and the warnings.  ``contact``
# reads its own input and returns (echo, result).


def _cmd_invariants(X: RelativeCI, args: argparse.Namespace) -> dict:
    h = args.h
    pf = pushforward(X, h)
    canon = canonical_class(X)
    result = {
        "h": h,
        "h_top": h_top(X),
        "fibre_deg": fibre_deg(X),
        "rank": pf.rank,
        "deg": pf.degree,
        "alpha": alpha_invariant(X),
        "canonical": {**canon._asdict(), "general_type_fibres": canon.general_type_fibres},
        "kf_top": canonical_top_power(X),
    }
    if h >= 1:
        margin = positivity_margin(X, h)
        result["e_cleared"] = margin
        result["e_rational"] = Fraction(margin, pf.rank)
        result["sign"] = _sign_word(margin)
    return _enc(result)


def _cmd_verdict(X: RelativeCI, args: argparse.Namespace) -> dict:
    bundle = X.bundle
    cls = ci_class(X)
    cone_part: dict[str, object] = {"class": {"p": cls.p, "q": cls.q}}
    if bundle.has_hn:
        cone_part["region"] = classify(bundle, cls).value
        cone_part["thresholds"] = {
            label.value.lower(): cone(bundle, X.codim, label) for label in ConeLabel
        }
    else:
        a = alpha_invariant(X)  # a positive multiple of c*mu - sum_i y_i/k_i
        cone_part["bridge_membership"] = "Inside" if a > 0 else "Boundary" if a == 0 else "Outside"
        cone_part["note"] = "virtual slopes unavailable: bridge membership only"
    return {  # each verdict encoded as it comes: past the digit limit, exit before the next
        "small_h": _enc(small_h_verdict(X)._asdict()),
        "asymptotic": _enc(asymptotic_verdict(X)._asdict()),
        "slope": _enc(slope_verdict(X)._asdict()),
        "instability": _enc(instability_verdict(X)._asdict()),
        "cone": _enc(cone_part),
    }


def _cmd_cones(X: RelativeCI, args: argparse.Namespace) -> dict:
    bundle = X.bundle
    if not bundle.has_hn:
        raise InputError("cone description needs the Harder-Narasimhan profile (hn or split)")
    c = args.codim
    thresholds = {label: cone(bundle, c, label) for label in reversed(ConeLabel)}  # outermost first
    # encoded first: a threshold past the output limit is an exit 2, not a diagram
    rows = _enc([
        {"label": label.value, "threshold": t, "ray1": {"p": 0, "q": 1}, "ray2": {"p": 1, "q": -t}}
        for label, t in thresholds.items()
    ])
    if args.svg:
        from .svg import cone_diagram
        drawing = cone_diagram(c, thresholds, bundle.is_semistable)  # before the file opens
        try:
            with open(args.svg, "w", encoding="utf-8") as file:
                file.write(drawing)
        except OSError as exc:
            raise InputError(f"cannot write {args.svg}: {exc}") from exc
    return {
        "codim": _num(c),
        "cones": rows,
        "coincide": bundle.is_semistable,
        "svg": args.svg or None,
    }


def _cmd_sweep(X: RelativeCI, args: argparse.Namespace) -> dict:
    """The margins as compact ``json.dumps`` writes row dicts: no value needs escaping."""
    sweep = h_sweep(X, args.h_max)  # h_max >= 1: the array is never empty
    rows, words = enumerate(sweep.margins, 1), _SIGN_WORDS
    try:
        margins = _JsonText("[" + ",".join([
            f'{{"e_cleared":"{m}","h":"{h}","sign":"{words[(m > 0) - (m < 0)]}"}}'
            for h, m in rows
        ]) + "]")
    except ValueError:  # a margin past the digit limit: ``_num`` raises the exit 2
        _num(max(map(abs, sweep.margins)))
        raise
    return {
        "margins": margins,
        "stable_poly_coeffs": _enc(sweep.stable_poly),
        "sign_stable_from": _num(sweep.sign_stable_from),
        "eventual_sign": _sign_word(sweep.eventual_sign),
    }


def _cmd_oracle(X: RelativeCI, args: argparse.Namespace) -> dict:
    if X.bundle.line_degrees is None:
        raise InputError("oracle runs need a split bundle (bundle.split in the file)")
    h_max = args.h_max
    # from h_max = MAX_ORACLE_WORK on, 2^c * C(h_max + r, r) >= 2 * (h_max + r) is past it too
    work = 2**X.codim * binom_trunc(h_max + X.rank, X.rank) if h_max < MAX_ORACLE_WORK else None
    if work is None or work > MAX_ORACLE_WORK:
        raise InputError(
            f"oracle work 2^{X.codim} * C({shown(h_max)} + {X.rank}, {X.rank})"
            f"{'' if work is None else f' = {shown(work)}'} is above the limit {MAX_ORACLE_WORK}"
        )
    checks, mismatches = cross_check(X, h_max)
    return _enc({
        "h_max": h_max,
        "checks": checks,
        "mismatches": mismatches,
        "status": "all 4 oracle suites passed" if not mismatches else "oracle mismatch",
    })


def _cmd_contact(args: argparse.Namespace) -> tuple[object, dict]:
    from .contact import ContactInstance, WeightFiltration, contact_of_intersection, hm_test
    data = _shaped(_read_json(args.instance), dict, "contact input")
    try:
        weights = WeightFiltration(
            tuple(_rat(w, "weights") for w in _shaped(data["weights"], list, "weights"))
        )
        insts = {}
        for name in ("y", "z"):
            node = _shaped(data[name], dict, name)
            insts[name] = ContactInstance(
                ambient_n=weights.ambient_n,
                dim=integer(node.get("dim"), f"{name}.dim"),
                deg=integer(node.get("deg"), f"{name}.deg"),
                e_f=_rat(node.get("e_f"), f"{name}.e_f"),
            )
    except KeyError as exc:
        raise InputError(f"contact input missing field {exc.args[0]!r}") from exc
    cut = contact_of_intersection(insts["y"], insts["z"], weights)
    echo = {name: _contact_json(T) for name, T in insts.items()}
    echo["weights"] = list(weights.weights)
    return echo, _enc({
        "y_status": hm_test(insts["y"], weights).value,
        "z_status": hm_test(insts["z"], weights).value,
        "intersection": {**_contact_json(cut), "status": hm_test(cut, weights).value},
    })


def _cmd_example(args: argparse.Namespace) -> dict:
    X, report = build_example(args.a, args.r, args.c, args.m, args.orientation)
    result = instance_to_json(X)
    del result["bundle"]["base_genus"], result["bundle"]["split"]  # the family's: always 0 and null
    return _enc({**result, "verdict": report._asdict()})


# ------------------------------------------------------------------ parser


def _add_common(sp: argparse.ArgumentParser, instance: bool = True) -> None:
    sp.add_argument("--help", action="help", help="show this help message and exit")
    if instance:
        sp.add_argument("-i", "--instance", required=True, metavar="FILE",
                        help="JSON instance file")
    sp.add_argument("--pretty", action="store_true", help="indented JSON output")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="relci",
        description="exact invariants and verdicts for relative complete intersections",
        epilog=f"limits: the entries of ci.k in an instance file sum to at most "
               f"{MAX_K_SUM}; bundle.rank is at most {MAX_RANK}; "
               f"invariants -h and sweep --h-max are at most {MAX_TWIST}; oracle needs "
               f"2^c * C(h_max + r, r) <= {MAX_ORACLE_WORK} (c entries in ci.k, r the rank); "
               f"example --r is at most {MAX_RANK}; example --a and --m are at most {MAX_K_SUM}",
    )
    parser.add_argument("--version", action="version", version=f"relci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariants", add_help=False,
                        help="intersection numbers, pushforward data and margins")
    _add_common(sp)
    sp.add_argument("-h", dest="h", type=_int_flag, default=1, metavar="H",
                    help=f"tautological twist (default 1, at most {MAX_TWIST})")
    sp.set_defaults(func=_cmd_invariants)

    sp = sub.add_parser("verdict", add_help=False, help="all theorem-level verdicts")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verdict)

    sp = sub.add_parser("cones", add_help=False, help="cone rays and optional SVG diagram")
    _add_common(sp)
    sp.add_argument("-c", dest="codim", type=_int_flag, required=True, metavar="C",
                    help="cycle codimension")
    sp.add_argument("--svg", metavar="PATH", help="write a wedge diagram to PATH")
    sp.set_defaults(func=_cmd_cones)

    sp = sub.add_parser("sweep", add_help=False, help="margins over a twist range")
    _add_common(sp)
    sp.add_argument("--h-max", dest="h_max", type=_int_flag, default=12, metavar="N",
                    help=f"largest twist to report (default 12, at most {MAX_TWIST})")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("oracle", add_help=False,
                        help="brute-force cross-checks (needs a split bundle)")
    _add_common(sp)
    sp.add_argument("--h-max", dest="h_max", type=_int_flag, default=8, metavar="N",
                    help=f"largest twist to cross-check (default 8; 2^c * C(N + r, r) "
                         f"at most {MAX_ORACLE_WORK} for c entries in ci.k and rank r)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("contact", add_help=False,
                        help="degree-of-contact arithmetic (JSON in/out)")
    _add_common(sp)
    sp.set_defaults(func=_cmd_contact)

    sp = sub.add_parser("example", add_help=False,
                        help="build and validate the candidate unstable family")
    _add_common(sp, instance=False)
    sp.add_argument("--a", type=_int_flag, required=True,
                    help=f"top line-bundle degree (at most {MAX_K_SUM})")
    sp.add_argument("--r", type=_int_flag, required=True, help=f"bundle rank (at most {MAX_RANK})")
    sp.add_argument("--c", type=_int_flag, required=True, help="codimension")
    sp.add_argument("--m", type=_int_flag, required=True,
                    help=f"system multiplier (at most {MAX_K_SUM})")
    sp.add_argument(
        "--orientation",
        choices=[o.value for o in Orientation],
        default=Orientation.AS_WRITTEN.value,
        help="degree/twist reading of the linear system",
    )
    sp.set_defaults(func=_cmd_example)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    echo, warnings = None, []  # an exit 3 names the echo: the instance, or example's flags
    try:
        for flag, dest, limit in _FLAG_LIMITS.get(args.command, ()):
            if getattr(args, dest) > limit:
                raise InputError(f"{flag} {shown(getattr(args, dest))} is above the limit {limit}")
        if args.command == "contact":
            echo, result = args.func(args)
        elif args.command == "example":
            echo = {name: getattr(args, name) for name in ("a", "r", "c", "m", "orientation")}
            result = args.func(args)
        else:
            X = instance_from_json(_read_json(args.instance))
            echo = instance_to_json(X)
            result = args.func(X, args)
            warnings = _warnings(X)
        report = {
            "command": args.command,
            "input": _enc(echo),
            "result": result,
            "warnings": warnings,
            "tool": {"name": "relci", "version": __version__},
        }
    except InputError as exc:
        print(f"relci: invalid input: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        message = f"relci: internal check failed: {exc}"
        if echo is not None:
            noun = "flags" if args.command == "example" else "instance"
            message += f" for {noun} {json.dumps(echo)}"
        print(message, file=sys.stderr)
        return 3
    _emit(report, args.pretty)
    return 4 if result.get("mismatches") else 0  # only ``oracle`` reports mismatches


if __name__ == "__main__":
    sys.exit(main())
