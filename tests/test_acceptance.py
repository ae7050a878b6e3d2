"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 1-6 pin exact outputs of the worked examples; criterion 7 runs the
randomized property suites (>= 200 cases where randomization applies) with a
total runtime budget.
"""

import functools
import random
import time
from fractions import Fraction

import kappainv
import kappainv.kappa as kappa_mod
from kappainv import (BinomialPower, Field, KappaConfig, Poly, Terminal, VarContext,
                      back_substitute, classify, compute_kappa, default_tropical_weight,
                      eliminate_to_hypersurface, ghost_monomials, initial_forms_weighted,
                      lift_presentation, member, parse_polynomial, prepare_polyhedron,
                      substitute, verify_overweight, weierstrass_validate)
from kappainv.poly import format_monomial
from kappainv.ring import ZZ
from test_polyhedron import member_oracle
from conftest import (binomial_power_decompose, expand, graded_expand, mk, mkw, poly_pow,
                      stage_initial, variable, z_stage)


def F(a, b=1):
    return Fraction(a, b)


def timed(bound):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            assert elapsed < bound, f"runtime {elapsed:.2f}s exceeded {bound}s"
            print(f"PASS {fn.__name__} ({elapsed:.3f}s)")
        return wrapper
    return deco


F2 = Field.finite(2)
Q = Field.rationals()


@timed(1.0)
def test_criterion_1_cusp_kappa_exactness():
    report = classify(mkw("z^2 - x1^3", 1, F2))
    assert report.kappa.as_string(1) == "(3/2, inf)"
    assert report.kappa.vertices == ((F(3, 2),),)
    assert report.kappa.terminal is Terminal.INFINITY
    assert report.teissier is True
    assert report.quasi_ordinary is False
    assert report.discriminant.disc.is_zero()


@timed(1.0)
def test_criterion_2_two_vertex_kappa_and_discriminant():
    report = classify(mkw("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F2))
    assert report.kappa.terminal is Terminal.MINUS_ONE
    assert report.kappa.vertices == ()
    assert any("translation-minimal" in d for d in report.diagnostics)
    assert report.discriminant.disc == mk("x1^2*x2^2", 2, F2)
    assert report.discriminant.monomial_unit.status == "yes"
    assert report.discriminant.monomial_unit.exponent == (2, 2)
    assert report.quasi_ordinary is True and report.teissier is False


@timed(5.0)
def test_criterion_3_three_stage_example():
    res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2),
                        KappaConfig(truncation=64))
    inv = res.invariant
    assert inv.vertices == ((F(3, 2), F(3)), (F(15, 4), F(15, 2)), (F(63, 8), F(63, 4)))
    assert inv.terminal is Terminal.INFINITY
    assert res.presentation.generator_strings() == [
        "u1 - (z^2 - x1^3*x2^6)",
        "u2 - (u1^2 - x1^6*x2^12*z)",
        "u2^2 + x1^12*x2^24*u1",
    ]


@timed(1.0)
def test_criterion_4_ghost_monomials():
    res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
    lift = lift_presentation(res.presentation)
    hyper = eliminate_to_hypersurface(lift)
    ctx = lift.ctx

    def zz(text):
        q = parse_polynomial(text, ctx, Q)
        return Poly(ctx, ZZ, {e: int(c) for e, c in q.terms.items()})

    a, b, c = zz("x1^3*x2^6"), zz("x1^6*x2^12"), zz("x1^12*x2^24")
    z = variable(ctx, ZZ, "z")
    inner = z.mul(z).sub(a)
    s = inner.mul(inner).sub(b.mul(z))
    assert hyper == s.mul(s).add(c.mul(inner))
    ghosts = {format_monomial(e, ctx): v for e, v in ghost_monomials(lift).ghosts}
    assert ghosts["x1^12*x2^24*z^2"] == 2
    reduced = Poly(ctx, F2, {e: v % 2 for e, v in hyper.terms.items()})
    za = parse_polynomial("z^2 + x1^3*x2^6", ctx, F2)
    want = poly_pow(za, 4).add(parse_polynomial("x1^15*x2^30", ctx, F2))
    assert reduced == want


@timed(1.0)
def test_criterion_5_initial_ideal_fiber_independence():
    res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
    lift = lift_presentation(res.presentation)
    omega = default_tropical_weight(res.presentation, (1, 1))
    assert omega == (F(1), F(1), F(9, 2), F(45, 4), F(189, 8))
    expected = ["z^2 - x1^3*x2^6", "u1^2 - x1^6*x2^12*z", "u2^2 + x1^12*x2^24*u1"]
    for lam in [(1, 1), (1, 2)]:
        rep = initial_forms_weighted(lift, default_tropical_weight(res.presentation, lam))
        assert rep.fiber_independent
        for init, want_text in zip(rep.generators_initial, expected):
            want = parse_polynomial(want_text, lift.ctx, Q)
            want = Poly(lift.ctx, ZZ, {e: int(v) for e, v in want.terms.items()})
            assert init == want or init == want.neg()


@timed(1.0)
def test_criterion_6_char0_preparation():
    f = mk("z^2 - 2*x1*z + x1^2 - x1^3", 1, Q)
    prep = prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig())
    assert prep.eliminations == 1  # the strict-shrink assertion ran exactly once
    assert prep.polyhedron.vertices == ((F(3, 2),),)
    res = compute_kappa(weierstrass_validate(f))
    assert res.invariant.budget_used == 1
    assert res.invariant.as_string(1) == "(3/2, inf)"


# -- criterion 7: property suites ---------------------------------------------

FIXTURES = [
    ("z^2 - x1^3", 1, F2),
    ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2),
    ("z^4 + x1^6", 1, F2),
    ("z^3 - x1^4", 1, F2),
    ("z^4 + 3*x1^3*z^2 + x1^6", 1, Field.finite(5)),
    ("z^2 + 2*x1^3", 1, Field.finite(3)),
    ("z^2 - x1^3", 1, Q),
    ("z^2 - x1^3*x2", 2, Q),
]


def random_prepared_family(rng):
    """(z - s)^2 - x^(2k+1) over Q with s(0) = 0: terminal infinity after
    eliminating every monomial of s by a translation."""
    k = rng.randrange(1, 4)
    nterms = rng.randrange(1, 4)
    ctx = VarContext(1)
    s_terms = {}
    for _ in range(nterms):
        e = rng.randrange(1, 4)
        c = Fraction(rng.randrange(-3, 4))
        if c:
            s_terms[(e, 0)] = c
    s = Poly(ctx, Q, s_terms)
    z = variable(ctx, Q, "z")
    f = z.sub(s).mul(z.sub(s)).sub(parse_polynomial(f"x1^{2 * k + 7}", ctx, Q))
    return weierstrass_validate(f), len(s.terms)


@timed(60.0)
def test_criterion_7_property_suites(monkeypatch):
    rng = random.Random(20260808)

    # (a) LP membership against the Fourier-Motzkin oracle
    for _ in range(210):
        d = rng.randrange(1, 4)
        m = rng.randrange(1, 6)
        pts = [tuple(Fraction(rng.randrange(0, 17), rng.randrange(1, 9))
                     for _ in range(d)) for _ in range(m)]
        p = tuple(Fraction(rng.randrange(0, 17), rng.randrange(1, 9)) for _ in range(d))
        assert member(p, pts) == member_oracle(p, pts)

    # (b) re-expansion identity: randomized decompositions plus every
    # BinomialPower the engine constructs during the fixture runs, whose
    # expansion holds in the graded ring
    for _ in range(200):
        field = rng.choice([F2, Field.finite(5), Q])
        ctx = VarContext(1, ("z",))
        inner = rng.randrange(1, 4)
        power = rng.randrange(1, 4)
        coeff = (Fraction(rng.choice([1, -1, 2, -2])) if field.characteristic == 0
                 else field.element(rng.randrange(1, field.order)))
        tail = (rng.randrange(1, 4), 0)
        bp = BinomialPower("z", inner, power, coeff, tail)
        In = expand(bp, ctx, field)
        zdeg = max(e[1] for e in In.terms)
        if zdeg != inner * power:
            continue  # characteristic collapsed the top term; not a valid fixture
        got = binomial_power_decompose(In, "z")
        assert isinstance(got, BinomialPower)
        assert expand(got, ctx, field) == In
        assert got.power >= power

    # the engine's powers hold in the graded ring: each one's expansion,
    # reduced by the relations' leading binomials, is the initial form
    recorded = []
    original = kappa_mod.binomialize_modulo

    def recording(f, vertex, stage, relations):
        res = original(f, vertex, stage, relations)
        if isinstance(res[0], BinomialPower):
            recorded.append((res[0], stage_initial(stage, f, vertex), list(relations)))
        return res

    monkeypatch.setattr(kappa_mod, "binomialize_modulo", recording)

    # fixture runs drive (b, c, d, f) on every emitted presentation
    presentations = []
    for text, d, field in FIXTURES:
        wf = mkw(text, d, field)
        res = compute_kappa(wf)
        assert res.invariant.terminal is Terminal.INFINITY, text
        mults = res.invariant.multiplicities
        assert all(x > y for x, y in zip(mults, mults[1:]))        # (f)
        presentations.append((wf, res))
    # the reducible (z - x1*x2)(z + x1*x2): its sole vertex (1, 1) has
    # lattice order 1, and z^2 - x1^2*x2^2 is no square
    res = compute_kappa(mkw("z^2 - x1^2*x2^2", 2, Q))
    assert res.invariant.terminal is Terminal.INCONCLUSIVE
    assert res.presentation is None

    for _ in range(200):
        wf, expected_steps = random_prepared_family(rng)
        res = compute_kappa(wf)
        assert res.invariant.terminal is Terminal.INFINITY
        assert res.invariant.budget_used == expected_steps
        mults = res.invariant.multiplicities
        assert all(x > y for x, y in zip(mults, mults[1:]))        # (f)
        presentations.append((wf, res))

    monkeypatch.setattr(kappa_mod, "binomialize_modulo", original)
    assert len(recorded) >= 200
    assert any(relations for _, _, relations in recorded)
    for bp, In, relations in recorded:                              # (b)
        assert graded_expand(bp, In.ctx, In.ring, relations) == In

    for wf, res in presentations:
        pres = res.presentation
        ok, violations = verify_overweight(pres)                    # (d)
        assert ok, violations
        back = back_substitute(pres.final, pres.relations)          # (c)
        prepared = prepare_polyhedron(wf.poly, z_stage(wf.poly, wf.n), [], KappaConfig()).poly
        assert back == prepared

    # (e) resultant against the factored-form oracle
    from kappainv import discriminant_z
    for _ in range(200):
        field = rng.choice([Q, Field.finite(7)])
        ctx = VarContext(1)

        def series():
            # constant term omitted so the product satisfies f(0) = 0
            terms = {}
            for e in range(1, rng.randrange(1, 5) + 1):
                c = (Fraction(rng.randrange(-4, 5)) if field.characteristic == 0
                     else field.element(rng.randrange(field.order)))
                if not field.is_zero(c):
                    terms[(e, 0)] = c
            return Poly(ctx, field, terms)

        s1, s2 = series(), series()
        z = variable(ctx, field, "z")
        f = z.sub(s1).mul(z.sub(s2))
        rep = discriminant_z(weierstrass_validate(f))
        want = s1.sub(s2).mul(s1.sub(s2))
        assert rep.disc == want or rep.disc == want.neg()


def test_every_exported_name_resolves():
    # a name deleted from the package must leave __all__ with it
    missing = [name for name in kappainv.__all__ if not hasattr(kappainv, name)]
    assert missing == []
    assert len(set(kappainv.__all__)) == len(kappainv.__all__)
