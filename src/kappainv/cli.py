"""Command-line front end.

Subcommands: classify, kappa, polyhedron, discriminant, deform.  Each driver
returns one report, an ordered list of entries (json_key, json_value,
text_lines), and one renderer prints it as text or as JSON (--json); batch mode
prints the same entries as `== line` blocks or as JSON Lines.  Each output
field is built once, in its entry.  Rationals serialize as exact "p/q" strings
and the kappa terminal as "inf" | "-1" | "inconclusive".  Exit codes:
0 decided, 1 input error, 2 inconclusive, 3 deform without a presentation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from .deform import (default_tropical_weight, ghost_monomials,
                     initial_forms_weighted, lift_presentation)
from .errors import ConfigurationError, KappaInvError
from .kappa import KappaConfig, Terminal, compute_kappa
from .poly import Poly, VarContext, format_monomial, parse_polynomial, weierstrass_validate
from .polyhedron import check_dimension, projected_polyhedron
from .quasiord import classify, discriminant_z
from .ring import Field

JSON_LINE_KWARGS = {"separators": (",", ":"), "ensure_ascii": False}  # batch JSON Lines

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_PRESENTATION = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1 (input error), not 2 (inconclusive)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


class _DeformOnly(argparse.Action):
    """An option of deform given to another subcommand: a usage error naming it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"argument {option_string}: applies to deform only")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """The top parser and its subcommand table, name -> subcommand parser."""
    parser = _ArgumentParser(
        prog="kappainv",
        description="Exact classification of Weierstrass hypersurface singularities.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--char", type=int, default=0, metavar="P",
                        help="field characteristic, 0 or a prime (default 0)")
    common.add_argument("--ext", type=int, default=1, metavar="K",
                        help="extension degree k for GF(p^k) (default 1)")
    common.add_argument("--modulus", default=None, metavar="POLY",
                        help="comma-separated GF(p) coefficients c0,...,ck of the "
                             "monic modulus (required when --ext > 1)")
    common.add_argument("--vars", type=int, default=1, metavar="D", dest="d",
                        help="number of x-variables (default 1)")
    common.add_argument("--trunc", type=int, default=64, metavar="T",
                        help="truncation certificate for total x-degree (default 64)")
    common.add_argument("--budget", type=int, default=256, metavar="B",
                        help="vertex-elimination budget per stage (default 256)")
    common.add_argument("--depth", type=int, default=3, metavar="N",
                        help="rewrite depth of the binomialization search (default 3)")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("polynomial", nargs="?", default=None,
                        help="polynomial in x1..xd and z (see the input grammar)")
    for name in ("classify", "kappa", "polyhedron", "discriminant", "deform"):
        p = sub.add_parser(name, parents=[common])
        if name == "classify":
            p.add_argument("--batch", default=None, metavar="FILE",
                           help="classify one polynomial per line of FILE")
        if name == "deform":
            p.add_argument("--lambda", dest="lam", default=None, metavar="Q1,Q2,...",
                           help="positive rational functional for the initial-ideal weight "
                                "(default all ones)")
        else:  # known here only to say where it belongs
            p.add_argument("--lambda", action=_DeformOnly, help=argparse.SUPPRESS)
    return parser, sub.choices


def parse_known_args(argv):
    """build_parser().parse_known_args(argv), with the top parser skipped when
    argv starts with a subcommand.

    The top parser hands everything after a command in first place to that
    command's parser and sets `command`; this does the same directly.  Help,
    a missing or unknown command, or a leading option or `--` go to the top
    parser, with its messages.
    """
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_known_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    args.command = argv[0]
    return args, extras


# ---------------------------------------------------------------------------
# reports: one entry per output field, one renderer for text and JSON
# ---------------------------------------------------------------------------

def _render(report, as_json: bool, json_lines: bool = False) -> str:
    """The JSON object of the keyed entries, indented or as one JSON Line, or
    the text lines of all entries."""
    if as_json:
        value = {key: value for key, value, _ in report if key is not None}
        return json.dumps(value, **JSON_LINE_KWARGS) if json_lines else json_text(value)
    return "\n".join(line for _, _, lines in report for line in lines)


def json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, ensure_ascii=False), byte for byte.

    It takes str, bool, None, int, and lists, tuples and dicts with str keys
    of them; any other type raises TypeError.  json.dumps with an indent runs
    the pure-Python encoder; this writes the same text with the C string
    encoder.  `indent` is the newline and indentation before the value's
    closing bracket.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join([json_text(v, inner) for v in value])
                + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring(key) + ": " + json_text(v, inner)  # TypeError unless str
                 for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _tuple_str(strs) -> str:
    return "(" + ", ".join(strs) + ")"


def _kappa_entry(inv, d: int):
    lines = [f"kappa = {inv.as_string(d)}"]
    if len(inv.multiplicities) > 1:
        lines.append("stage multiplicities: " + " > ".join(str(m) for m in inv.multiplicities))
    value = {"vertices": [[str(c) for c in v] for v in inv.vertices],
             "terminal": inv.terminal.value,
             "multiplicities": list(inv.multiplicities)}
    return "kappa", value, lines


def _discriminant_entry(rep):
    mu = rep.monomial_unit
    if mu.status == "yes":
        exponent = [str(c) for c in mu.exponent]
        mu_text = f"yes, monomial exponent {_tuple_str(exponent)}"
    else:
        exponent, mu_text = [], mu.status
    disc = rep.disc.format()
    value = {"value": disc, "monomial_unit": {mu.status: exponent}, "exact": rep.exact}
    return "discriminant", value, [
        f"discriminant: {disc} ({'exact' if rep.exact else 'truncated'})",
        f"monomial_unit: {mu_text}"]


def _presentation_entry(presentation):
    generators = presentation.generator_strings()
    return "presentation", generators, ["presentation:"] + [f"  {s}" for s in generators]


def _diagnostics_entries(diagnostics) -> list:
    if not diagnostics:
        return []
    return [("diagnostics", list(diagnostics), [f"note: {diag}" for diag in diagnostics])]


def _normalized_generator_str(poly: Poly) -> str:
    items = poly.sorted_terms()
    if items and poly.ring.is_negative(items[0][1]):
        poly = poly.neg()
    return poly.format()


def _classification_report(result, d: int, truncation: int) -> list:
    """The report of a classification result, up to its certified truncation
    line; the caller places the truncation key and the diagnostics."""
    report = [_kappa_entry(result.kappa, d)]
    for key, value in (("teissier", result.teissier), ("quasi_ordinary", result.quasi_ordinary)):
        value = "inconclusive" if value is None else value
        report.append((key, value, [f"{key}: {value}"]))
    report.append(_discriminant_entry(result.discriminant))
    if result.presentation is not None:
        report.append(_presentation_entry(result.presentation))
        report.append((None, None, ["weights: " + "; ".join(
            f"{name} -> {_tuple_str(str(c) for c in vec)}"
            for name, vec in result.presentation.weights.items())]))
    report.append((None, None, [f"certified truncation: {truncation}"]))
    return report


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _build_field(args) -> Field:
    modulus = None
    if args.modulus:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            raise ConfigurationError(
                f"--modulus takes comma-separated integers, got {args.modulus!r}") from None
    return Field(args.char, args.ext, modulus)


def _build_config(args) -> KappaConfig:
    return KappaConfig(truncation=args.trunc, budget=args.budget, depth=args.depth)


def _parse_lambda(args, d: int):
    if args.lam is None:
        return (1,) * d
    try:
        return tuple(Fraction(c) for c in args.lam.split(","))
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(
            f"--lambda takes comma-separated rationals, got {args.lam!r}") from None


def _input_context(args) -> VarContext:
    check_dimension(args.d)  # before any d-long exponent is built
    return VarContext(args.d)


def _input_weierstrass(text: str, args, field: Field):
    f = parse_polynomial(text, _input_context(args), field).truncate(args.trunc)
    return weierstrass_validate(f)


# ---------------------------------------------------------------------------
# subcommand drivers: each returns (exit_code, report), where a report is an
# ordered list of entries (json_key, json_value, text_lines).  A key of None
# makes an entry text only; an entry without lines is JSON only.  A new output
# field is one new entry.
# ---------------------------------------------------------------------------

def _drive_classify(text, args, field, config):
    result = classify(_input_weierstrass(text, args, field), config)
    code = EXIT_OK if result.decided else EXIT_INCONCLUSIVE
    report = _classification_report(result, args.d, config.truncation)
    report.append(("certified_truncation", config.truncation, []))
    return code, report + _diagnostics_entries(result.diagnostics)


def _drive_kappa(text, args, field, config):
    result = compute_kappa(_input_weierstrass(text, args, field), config)
    report = [_kappa_entry(result.invariant, args.d)]
    if result.presentation is not None:
        report.append(_presentation_entry(result.presentation))
    report.append(("certified_truncation", config.truncation, []))
    code = (EXIT_INCONCLUSIVE if result.invariant.terminal is Terminal.INCONCLUSIVE
            else EXIT_OK)
    return code, report + _diagnostics_entries(result.diagnostics)


def _drive_polyhedron(text, args, field, config):
    P = projected_polyhedron(_input_weierstrass(text, args, field))
    vertices = [[str(c) for c in v] for v in P.vertices]
    if P.is_empty:
        lines = ["projected polyhedron: empty"]
    else:
        lines = ["projected polyhedron vertices:"] + [f"  {_tuple_str(v)}" for v in vertices]
    return EXIT_OK, [("vertices", vertices, lines),
                     ("certified_truncation", config.truncation, [])]


def _drive_discriminant(text, args, field, config):
    rep = discriminant_z(_input_weierstrass(text, args, field), config.truncation)
    code = EXIT_INCONCLUSIVE if rep.monomial_unit.status == "inconclusive" else EXIT_OK
    return code, [_discriminant_entry(rep), ("certified_truncation", config.truncation, [])]


def _drive_deform(text, args, field, config):
    result = classify(_input_weierstrass(text, args, field), config)
    if result.presentation is None or result.kappa.terminal is not Terminal.INFINITY:
        msg = "no overweight presentation: the kappa terminal is not infinity"
        return EXIT_NO_PRESENTATION, [("error", msg, [msg])]
    lift = lift_presentation(result.presentation)
    ghosts = ghost_monomials(lift)
    hyper = ghosts.hypersurface.format()
    lam = _parse_lambda(args, args.d)
    omega = default_tropical_weight(result.presentation, lam)
    ideal = initial_forms_weighted(lift, omega)
    lam, omega = [str(c) for c in lam], [str(c) for c in omega]
    ghost_list = [{"monomial": format_monomial(e, lift.ctx), "coeff": str(c)}
                  for e, c in ghosts.ghosts]
    generators = [_normalized_generator_str(g) for g in ideal.generators_initial]
    source = "kappa-derived"
    report = (_classification_report(result, args.d, config.truncation)
              + _diagnostics_entries(result.diagnostics))
    report.append((None, None, [f"prime: {lift.prime}", "lift generators:"]
                   + [f"  {g.format()}" for g in lift.generators()]))
    report.append(("hypersurface", hyper, [f"hypersurface over Z: {hyper}"]))
    report.append(("ghosts", ghost_list,
                   ["ghost monomials:" if ghost_list else "ghost monomials: none"]
                   + [f"  {g['monomial']}: {g['coeff']}" for g in ghost_list]))
    report.append(("initial_ideal",
                   {"weight_source": source, "lambda": lam, "omega": omega,
                    "generators": generators, "fiber_independent": ideal.fiber_independent},
                   [f"initial ideal ({source} weights, lambda = {_tuple_str(lam)}, "
                    f"omega = {_tuple_str(omega)}):"]
                   + [f"  {g}" for g in generators]
                   + [f"fiber independent: {ideal.fiber_independent}"]))
    report.append(("certified_truncation", config.truncation, []))
    return EXIT_OK, report


_DRIVERS = {
    "classify": _drive_classify,
    "kappa": _drive_kappa,
    "polyhedron": _drive_polyhedron,
    "discriminant": _drive_discriminant,
    "deform": _drive_deform,
}


def run_batch(args) -> int:
    """Classify one polynomial per line of args.batch; output keeps the input order.

    With --json the output is JSON Lines: one compact object per input line.
    An error in the flags (field, configuration, variable count) ends the
    run before any line is read.
    """
    field = _build_field(args)
    config = _build_config(args)
    _input_context(args)
    with open(args.batch, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KappaInvError(f"{args.batch} is not UTF-8: byte 0x{data[exc.start]:02x} "
                            f"at offset {exc.start}") from None
    # the lines of universal newlines, where "\r\n" adds a blank line dropped below
    lines = [ln.strip() for ln in text.replace("\r", "\n").split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    worst = EXIT_OK
    blocks = []
    for ln in lines:
        try:
            code, report = _drive_classify(ln, args, field, config)
        except KappaInvError as exc:
            code, report = EXIT_INPUT_ERROR, [("error", str(exc), [f"error: {exc}"])]
        out = _render(report, args.json, json_lines=True)
        blocks.append(out if args.json else f"== {ln}\n{out}")
        if code == EXIT_INPUT_ERROR:
            worst = EXIT_INPUT_ERROR
        elif code == EXIT_INCONCLUSIVE and worst != EXIT_INPUT_ERROR:
            worst = EXIT_INCONCLUSIVE
    return _emit("\n".join(blocks), worst)


def _emit(out: str, code: int) -> int:
    """Print out and return code; a reader that closed the pipe (`| head -1`)
    ends it quietly, with stdout on os.devnull for the flush at exit."""
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return code


def main(argv=None) -> int:
    args, extras = parse_known_args(sys.argv[1:] if argv is None else list(argv))
    # argparse reads a polynomial that starts with "-" and holds no space,
    # such as "-x1^3+z^2", as an unknown option; every option but -h starts
    # with two dashes, so a lone extra with one is the polynomial
    if len(extras) == 1 and args.polynomial is None and not extras[0].startswith("--"):
        args.polynomial = extras.pop()
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        if getattr(args, "batch", None) is not None:
            if args.polynomial is not None:
                print("error: --batch reads its polynomials from FILE; "
                      "drop the polynomial argument", file=sys.stderr)
                return EXIT_INPUT_ERROR
            return run_batch(args)
        if args.polynomial is None:
            print("error: a polynomial argument is required", file=sys.stderr)
            return EXIT_INPUT_ERROR
        field = _build_field(args)
        config = _build_config(args)
        code, report = _DRIVERS[args.command](args.polynomial, args, field, config)
        return _emit(_render(report, args.json), code)
    except KappaInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())
