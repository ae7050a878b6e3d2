"""The engine's records and the terms they share.

The input path hands the parser's dict to the Poly as it is, and truncation
returns the same Poly when it drops nothing, so the input's terms reach the
engine uncopied.  The first test runs each golden input and every 4th
benchmark case (seeds 7 and 13) down the path its command names and checks
that nothing changed the input's terms or certificate.  The others pin the
contract of the records: NamedTuples are immutable values, and the slots
classes give each instance its own list.
"""

import sys
from pathlib import Path

import pytest

import kappainv
from kappainv import (ClassificationReport, KappaConfig, Relation, VarContext, classify,
                      compute_kappa, default_tropical_weight, discriminant_z, ghost_monomials,
                      initial_forms_weighted, lift_presentation, parse_polynomial,
                      projected_polyhedron, weierstrass_validate)
from kappainv.cli import _build_field, _input_context, _parse_lambda, parse_known_args
from kappainv.errors import KappaInvError
from test_cli_golden import CASES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

NAMED_TUPLES = {"BinomialPower", "DiscriminantReport", "GhostReport", "InitialIdealReport",
                "IntegerLift", "KappaInvariant", "KappaResult", "MonomialUnitStatus",
                "OrthantPolyhedron", "OverweightPresentation", "PrepareResult",
                "WeierstrassPoly"}


def _inputs():
    """(id, argv) of every golden input with a polynomial and every 4th
    benchmark case at seeds 7 and 13."""
    for name, argv in CASES.items():
        if "--batch" not in argv:
            yield f"golden {name}", argv
    for seed in (7, 13):
        for wl in sorted(workloads.WORKLOADS):
            for case in workloads.build(wl, seed)[::4]:
                yield f"{wl} {seed} {case.id}", list(case.argv)


def _run_path(command, wf, args, config):
    """The engine calls of the command, as its `cli._drive_*` function makes them."""
    if command == "kappa":
        compute_kappa(wf, config)
    elif command == "polyhedron":
        projected_polyhedron(wf)
    elif command == "discriminant":
        discriminant_z(wf, config.truncation)
    else:
        result = classify(wf, config)
        if command == "deform" and result.presentation is not None:
            lift = lift_presentation(result.presentation)
            ghost_monomials(lift)
            omega = default_tropical_weight(result.presentation, _parse_lambda(args, args.d))
            initial_forms_weighted(lift, omega)


def _check_truncate(f, T):
    """truncate(T) is f exactly when T is None or every term lies below T;
    else a new Poly of the terms below T under the certificate min(trunc, T)."""
    d = f.ctx.d
    below = {e: c for e, c in f.terms.items() if sum(e[:d]) < T} if T is not None else f.terms
    g = f.truncate(T)
    if len(below) == len(f.terms):
        assert g is f
    else:
        assert g is not f and g.terms is not f.terms
        assert g.terms == below
        assert g.trunc == (T if f.trunc is None else min(f.trunc, T))


def test_the_engine_changes_no_input_terms():
    fields, runs = {}, 0
    for case_id, argv in _inputs():
        args, extras = parse_known_args(argv)
        assert not extras, case_id
        try:
            key = (args.char, args.ext, args.modulus)
            if key not in fields:
                fields[key] = _build_field(args)
            config = KappaConfig(args.trunc, args.budget)
            f = parse_polynomial(args.polynomial, _input_context(args), fields[key])
        except KappaInvError:
            continue  # a golden input error: nothing reaches the engine
        xdegrees = sorted({sum(e[:args.d]) for e in f.terms})
        for T in {None, 1, args.trunc, xdegrees[-1], xdegrees[-1] + 1}:
            _check_truncate(f, T)
        terms, trunc = dict(f.terms), f.trunc
        g = f.truncate(args.trunc)
        g_terms, g_trunc = dict(g.terms), g.trunc
        try:
            wf = weierstrass_validate(g)
        except KappaInvError:
            continue
        try:
            _run_path(args.command, wf, args, config)
        except KappaInvError:
            pass  # deform's no-weight error, say: the input must still be intact
        assert f.terms == terms and f.trunc == trunc, case_id
        assert g.terms == g_terms and g.trunc == g_trunc, case_id
        runs += 1
    assert runs > 200


def _named_tuple_types():
    found = {}
    for module in (kappainv.deform, kappainv.kappa, kappainv.poly, kappainv.polyhedron,
                   kappainv.quasiord):
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                    and obj.__module__ == module.__name__):
                found[name] = obj
    return found


def test_the_named_tuples_are_the_listed_records():
    assert set(_named_tuple_types()) == NAMED_TUPLES


@pytest.mark.parametrize("name", sorted(NAMED_TUPLES))
def test_a_named_tuple_is_an_immutable_value(name):
    cls = _named_tuple_types()[name]
    values = [("value", i) for i in range(len(cls._fields))]
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b)
    assert a != cls(*values[:-1], ("other", 0))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b


def test_engine_records_compare_by_value(F2):
    text = "z^8 + x1^12*x2^24 + x1^15*x2^30"
    wf = weierstrass_validate(parse_polynomial(text, VarContext(2), F2))
    first, second = compute_kappa(wf), compute_kappa(wf)
    assert first.invariant == second.invariant
    assert hash(first.invariant) == hash(second.invariant)
    assert first.presentation.final_head == second.presentation.final_head
    with pytest.raises(AttributeError):
        first.invariant.terminal = None


def test_each_relation_and_report_has_its_own_list(F2, QQ):
    ctx = VarContext(1)
    rels = [Relation("u1", "z", 2, F2.one, (3, 0), ctx, F2) for _ in range(2)]
    rels[0].corrections.append((F2.one, (4, 1)))
    assert rels[1].corrections == []
    wf = weierstrass_validate(parse_polynomial("z^2 - x1^3", ctx, QQ))
    rep = classify(wf)
    reports = [ClassificationReport(rep.kappa, rep.teissier, rep.quasi_ordinary,
                                    rep.discriminant, rep.presentation) for _ in range(2)]
    reports[0].diagnostics.append("note")
    assert reports[1].diagnostics == []
    assert classify(wf).diagnostics is not classify(wf).diagnostics


def test_slots_records_take_no_new_attributes(F2):
    ctx = VarContext(1)
    for record in (KappaConfig(), Relation("u1", "z", 2, F2.one, (3, 0), ctx, F2),
                   ClassificationReport(None, None, None, None, None)):
        with pytest.raises(AttributeError):
            record.extra = 1
