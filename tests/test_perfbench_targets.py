"""The traced benchmark run (perfbench/run.py --trace 1) wraps engine names
listed in perfbench/tracer.py; a rename or deletion must fail here, not
silently break the trace."""

import importlib
import importlib.util
from pathlib import Path

import kappainv
from conftest import mkw

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for home, attr, span in targets:
        owner = importlib.import_module(home)
        if "." in attr:
            # methods are patched on their class, so they must be defined there
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            assert meth in vars(cls), span
            # an override in a subclass would take calls the patched method never sees
            overrides = [sub.__name__ for sub in vars(owner).values()
                         if isinstance(sub, type) and issubclass(sub, cls) and sub is not cls
                         and meth in vars(sub)]
            assert not overrides, (span, overrides)
        else:
            assert callable(getattr(owner, attr, None)), span


def test_tracer_sees_the_engine_through_the_stage(F2):
    # the stage projection must look the hull up where the tracer patches it
    # (module globals), not bind it as a class attribute or default argument
    tr = load_tracer().Tracer()
    tr.install()
    try:
        tr.begin_case("three-stage")
        # the README's three-stage example in z + x1*x2^2: one elimination,
        # whose shrink check runs membership tests.  The package attribute is
        # looked up after install(), so the call goes through the wrapper.
        res = kappainv.compute_kappa(
            mkw("z^8 + x1^8*x2^16 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
        tr.end_case()
    finally:
        tr.uninstall()
    assert len(res.invariant.vertices) == 3
    for span in ("polyhedron.hull", "polyhedron.member", "kappa.binomialize"):
        assert tr.calls.get(span, 0) > 0, span
    # the observers read the wrapped functions' results: a change to their
    # shape must fail here, not zero a per-layer metric
    assert tr.counters["kappa.eliminations"] == 1
    assert tr.counters["kappa.stages"] == 3
    # one binomialization per vertex read: the eliminated one, then each
    # stage's sole vertex, every one a hit
    assert tr.counters["kappa.binomialize.hits"] == tr.calls["kappa.binomialize"] == 4


def test_classify_enters_each_discriminant_span_once(QQ):
    # (z - x1)^4 + x1^3*(z - x1)^2 + x1^4*(z - x1) + x1^5: classify translates
    # z once, then takes the discriminant of the prepared polynomial inside
    # its own span.  That has four z-powers, so the subresultant kernel runs
    # (a z-trinomial, such as the README's preparation example, takes the
    # closed form and enters no kernel span)
    tr = load_tracer().Tracer()
    tr.install()
    try:
        tr.begin_case("preparation")
        rep = kappainv.classify(mkw("z^4 - 4*x1*z^3 + 6*x1^2*z^2 + x1^3*z^2 - 4*x1^3*z"
                                    " - x1^4*z + x1^4 + x1^5", 1, QQ))
        names = [span[0] for span in tr.spans]
        parents = {span[0]: names[span[3]] if span[3] >= 0 else None for span in tr.spans}
        tr.end_case()
    finally:
        tr.uninstall()
    assert rep.discriminant.disc.format() == "12*x1^17 - 11*x1^16 + 256*x1^15"
    assert tr.counters["kappa.eliminations"] == 1
    assert tr.calls["quasiord.disc"] == tr.calls["quasiord.det"] == 1
    assert parents["quasiord.disc"] == "quasiord.classify"
    assert parents["quasiord.det"] == "quasiord.disc"
