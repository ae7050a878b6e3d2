"""Command-line front end.

Subcommands: classify, kappa, polyhedron, discriminant, deform.  Reports are
emitted as text or JSON (--json); rationals serialize as exact "p/q" strings
and the kappa terminal as "inf" | "-1" | "inconclusive".  Exit codes:
0 decided, 1 input error, 2 inconclusive, 3 deform without a presentation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .deform import (default_tropical_weight, ghost_monomials,
                     initial_forms_weighted, lift_presentation)
from .errors import ConfigurationError, KappaInvError
from .kappa import KappaConfig, Terminal, compute_kappa
from .poly import Poly, VarContext, format_monomial, parse_polynomial, weierstrass_validate
from .polyhedron import projected_polyhedron
from .quasiord import classify, discriminant_z
from .ring import Field

JSON_DUMP_KWARGS = {"indent": 2, "sort_keys": False, "ensure_ascii": False}

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_PRESENTATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1 (input error), not 2 (inconclusive)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


class _DeformOnly(argparse.Action):
    """An option of deform given to another subcommand: a usage error naming it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"argument {option_string}: applies to deform only")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(
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
    return parser


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _frac_str(q) -> str:
    return str(Fraction(q))


def _vertices_json(vertices) -> list:
    return [[_frac_str(c) for c in v] for v in vertices]


def _kappa_json(inv) -> dict:
    return {
        "vertices": _vertices_json(inv.vertices),
        "terminal": inv.terminal.value,
        "multiplicities": list(inv.multiplicities),
    }


def _tri_state(value):
    return "inconclusive" if value is None else value


def _monomial_unit_json(mu) -> dict:
    if mu.status == "yes":
        return {"yes": [str(c) for c in mu.exponent]}
    return {mu.status: []}


def _discriminant_json(rep) -> dict:
    return {
        "value": rep.disc.format(),
        "monomial_unit": _monomial_unit_json(rep.monomial_unit),
        "exact": rep.exact,
    }


def _normalized_generator_str(poly: Poly) -> str:
    items = poly.sorted_terms()
    if items and poly.ring.is_negative(items[0][1]):
        poly = poly.neg()
    return poly.format()


def _close_json(out: dict, presentation, certified_truncation, diagnostics) -> dict:
    if presentation is not None:
        out["presentation"] = presentation.generator_strings()
    out["certified_truncation"] = certified_truncation
    if diagnostics:
        out["diagnostics"] = list(diagnostics)
    return out


def _classification_json(report) -> dict:
    out = {"kappa": _kappa_json(report.kappa),
           "teissier": _tri_state(report.teissier),
           "quasi_ordinary": _tri_state(report.quasi_ordinary),
           "discriminant": _discriminant_json(report.discriminant)}
    return _close_json(out, report.presentation, report.certified_truncation,
                       report.diagnostics)


def _kappa_lines(inv, d: int) -> list:
    lines = [f"kappa = {inv.as_string(d)}"]
    if len(inv.multiplicities) > 1:
        lines.append("stage multiplicities: " + " > ".join(str(m) for m in inv.multiplicities))
    return lines


def _discriminant_lines(rep) -> list:
    mu = rep.monomial_unit
    mu_str = (f"yes, monomial exponent ({', '.join(str(c) for c in mu.exponent)})"
              if mu.status == "yes" else mu.status)
    return [f"discriminant: {rep.disc.format()} ({'exact' if rep.exact else 'truncated'})",
            f"monomial_unit: {mu_str}"]


def _presentation_lines(presentation) -> list:
    if presentation is None:
        return []
    return ["presentation:"] + [f"  {s}" for s in presentation.generator_strings()]


def _note_lines(diagnostics) -> list:
    return [f"note: {diag}" for diag in diagnostics]


def _classification_text(report, d: int) -> str:
    lines = _kappa_lines(report.kappa, d)
    lines.append(f"teissier: {_tri_state(report.teissier)}")
    lines.append(f"quasi_ordinary: {_tri_state(report.quasi_ordinary)}")
    lines.extend(_discriminant_lines(report.discriminant))
    lines.extend(_presentation_lines(report.presentation))
    if report.presentation is not None:
        lines.append("weights: " + "; ".join(
            f"{name} -> ({', '.join(str(c) for c in vec)})"
            for name, vec in report.presentation.weights.items()))
    lines.append(f"certified truncation: {report.certified_truncation}")
    lines.extend(_note_lines(report.diagnostics))
    return "\n".join(lines)


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
        return tuple(Fraction(1) for _ in range(d))
    try:
        return tuple(Fraction(c) for c in args.lam.split(","))
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(
            f"--lambda takes comma-separated rationals, got {args.lam!r}") from None


def _input_weierstrass(text: str, args, field: Field):
    ctx = VarContext(args.d)
    f = parse_polynomial(text, ctx, field).truncate(args.trunc)
    return weierstrass_validate(f)


# ---------------------------------------------------------------------------
# subcommand drivers: each returns (exit_code, payload_json, payload_text)
# ---------------------------------------------------------------------------

def _drive_classify(text, args, field, config):
    wf = _input_weierstrass(text, args, field)
    report = classify(wf, config)
    code = EXIT_OK if report.decided else EXIT_INCONCLUSIVE
    return code, _classification_json(report), _classification_text(report, args.d)


def _drive_kappa(text, args, field, config):
    wf = _input_weierstrass(text, args, field)
    result = compute_kappa(wf, config)
    out = _close_json({"kappa": _kappa_json(result.invariant)}, result.presentation,
                      config.truncation, result.diagnostics)
    lines = (_kappa_lines(result.invariant, args.d)
             + _presentation_lines(result.presentation)
             + _note_lines(result.diagnostics))
    code = (EXIT_INCONCLUSIVE if result.invariant.terminal is Terminal.INCONCLUSIVE
            else EXIT_OK)
    return code, out, "\n".join(lines)


def _drive_polyhedron(text, args, field, config):
    wf = _input_weierstrass(text, args, field)
    P = projected_polyhedron(wf)
    out = {"vertices": _vertices_json(P.vertices),
           "certified_truncation": config.truncation}
    if P.is_empty:
        txt = "projected polyhedron: empty"
    else:
        txt = "projected polyhedron vertices:\n" + "\n".join(
            "  (" + ", ".join(str(c) for c in v) + ")" for v in P.vertices)
    return EXIT_OK, out, txt


def _drive_discriminant(text, args, field, config):
    wf = _input_weierstrass(text, args, field)
    rep = discriminant_z(wf, config.truncation)
    out = {"discriminant": _discriminant_json(rep),
           "certified_truncation": config.truncation}
    code = EXIT_INCONCLUSIVE if rep.monomial_unit.status == "inconclusive" else EXIT_OK
    return code, out, "\n".join(_discriminant_lines(rep))


def _drive_deform(text, args, field, config):
    wf = _input_weierstrass(text, args, field)
    report = classify(wf, config)
    if report.presentation is None or report.kappa.terminal is not Terminal.INFINITY:
        msg = "no overweight presentation: the kappa terminal is not infinity"
        return EXIT_NO_PRESENTATION, {"error": msg}, msg
    lift = lift_presentation(report.presentation)
    ghosts = ghost_monomials(lift)
    hyper = ghosts.hypersurface
    lam = _parse_lambda(args, args.d)
    omega = default_tropical_weight(report.presentation, lam)
    ideal = initial_forms_weighted(lift, omega)
    out = _classification_json(report)
    out["hypersurface"] = hyper.format()
    out["ghosts"] = [{"monomial": format_monomial(e, lift.ctx), "coeff": str(c)}
                     for e, c in ghosts.ghosts]
    out["initial_ideal"] = {
        "weight_source": "kappa-derived",
        "lambda": [str(c) for c in lam],
        "omega": [str(c) for c in omega],
        "generators": [_normalized_generator_str(g) for g in ideal.generators_initial],
        "fiber_independent": ideal.fiber_independent,
    }
    out.pop("certified_truncation", None)
    out["certified_truncation"] = config.truncation
    lines = [_classification_text(report, args.d),
             f"prime: {lift.prime}",
             "lift generators:"]
    lines.extend(f"  {g.format()}" for g in lift.generators())
    lines.append(f"hypersurface over Z: {hyper.format()}")
    if ghosts.ghosts:
        lines.append("ghost monomials:")
        lines.extend(f"  {format_monomial(e, lift.ctx)}: {c}" for e, c in ghosts.ghosts)
    else:
        lines.append("ghost monomials: none")
    lines.append(f"initial ideal (kappa-derived weights, lambda = "
                 f"({', '.join(str(c) for c in lam)}), "
                 f"omega = ({', '.join(str(c) for c in omega)})):")
    lines.extend(f"  {_normalized_generator_str(g)}" for g in ideal.generators_initial)
    lines.append(f"fiber independent: {ideal.fiber_independent}")
    return EXIT_OK, out, "\n".join(lines)


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
    """
    field = _build_field(args)
    config = _build_config(args)
    with open(args.batch, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    worst = EXIT_OK
    blocks = []
    for ln in lines:
        try:
            code, payload, text = _drive_classify(ln, args, field, config)
        except KappaInvError as exc:
            code, payload, text = EXIT_INPUT_ERROR, {"error": str(exc)}, f"error: {exc}"
        if args.json:
            blocks.append(json.dumps(payload, separators=(",", ":"), ensure_ascii=False))
        else:
            blocks.append(f"== {ln}\n{text}")
        if code == EXIT_INPUT_ERROR:
            worst = EXIT_INPUT_ERROR
        elif code == EXIT_INCONCLUSIVE and worst != EXIT_INPUT_ERROR:
            worst = EXIT_INCONCLUSIVE
    print("\n".join(blocks))
    return worst


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        code, payload, text = _DRIVERS[args.command](args.polynomial, args, field, config)
        print(json.dumps(payload, **JSON_DUMP_KWARGS) if args.json else text)
        return code
    except KappaInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())
