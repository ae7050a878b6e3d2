from fractions import Fraction

import random

import pytest

from kappainv import (ConfigurationError, Field, Poly, UnsupportedLiftError, VarContext,
                      back_substitute, compute_kappa, default_tropical_weight,
                      eliminate_to_hypersurface, ghost_monomials, initial_forms_weighted,
                      lift_presentation, parse_polynomial)
from kappainv.deform import InitialIdealReport, IntegerLift, check_weight_vector
from kappainv.poly import format_monomial
from kappainv.ring import ZZ
from conftest import mkw, variable
from test_branches import MOD_P, reduced_mod_p


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def purely_inseparable(request):
    F2 = Field.finite(2)
    wf = mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2)
    res = compute_kappa(wf)
    return wf, res


def zz_poly(text, ctx):
    """Integer polynomial built through the parser over Q, then coerced to ZZ."""
    q = parse_polynomial(text, ctx, Field.rationals())
    return Poly(ctx, ZZ, {e: int(c) for e, c in q.terms.items()})


class TestLift:
    def test_three_generators(self, purely_inseparable):
        _, res = purely_inseparable
        lift = lift_presentation(res.presentation)
        ctx = lift.ctx
        assert lift.prime == 2
        gens = lift.generators()
        assert gens[0] == zz_poly("u1 - z^2 + x1^3*x2^6", ctx)
        assert gens[1] == zz_poly("u2 - u1^2 + x1^6*x2^12*z", ctx)
        assert gens[2] == zz_poly("u2^2 + x1^12*x2^24*u1", ctx)

    def test_reduction_mod_p_recovers_source(self, purely_inseparable):
        _, res = purely_inseparable
        F2 = Field.finite(2)
        lift = lift_presentation(res.presentation)
        for lifted, rel in zip(lift.relations, res.presentation.relations):
            rhs = lifted.rhs_poly(lift.ctx)
            reduced = Poly(lift.ctx, F2, {e: c % 2 for e, c in rhs.terms.items()})
            assert reduced == rel.rhs_poly(lift.ctx)
        reduced_final = Poly(lift.ctx, F2, {e: c % 2 for e, c in lift.final.terms.items()})
        assert reduced_final == res.presentation.final

    @pytest.mark.parametrize("source", [
        *[pytest.param(("readme", text, d), id=f"README {text}")
          for text, d in [("z^2 - x1^3", 1), ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2)]],
        *[pytest.param(("sweep", i), id=f"sweep {i:03d} p={p}")
          for i, (_, p) in enumerate(MOD_P)]])
    def test_lift_reduces_to_the_presentation(self, source):
        # every Teissier presentation of the README and of the tame sweep mod p
        if source[0] == "readme":
            p, pres = 2, compute_kappa(mkw(source[1], source[2], Field.finite(2))).presentation
        else:
            p, _, result = reduced_mod_p(source[1])
            pres = result.presentation
        Fp = Field.finite(p)
        lift = lift_presentation(pres)
        ctx = lift.ctx

        def reduce(h):
            return Poly(ctx, Fp, {e: c % p for e, c in h.terms.items()})

        gens = lift.generators()
        assert len(gens) == len(pres.relations) + 1
        for lifted, rel, gen in zip(lift.relations, pres.relations, gens):
            coeffs = [lifted.tail_coeff] + [c for c, _ in lifted.corrections]
            assert all(0 < c < p for c in coeffs)  # canonical lifts of nonzero values
            rhs = lifted.rhs_poly(ctx)
            assert reduce(rhs) == rel.rhs_poly(ctx)
            assert gen == variable(ctx, ZZ, rel.var).sub(rhs)
        assert gens[-1] == lift.final
        assert reduce(lift.final) == pres.final
        h = eliminate_to_hypersurface(lift)
        assert not any(h.uses_var(rel.var) for rel in pres.relations)
        assert reduce(h) == back_substitute(pres.final.in_context(ctx), pres.relations)

    def test_gf3_coefficient_lifts_canonically(self):
        F3 = Field.finite(3)
        res = compute_kappa(mkw("z^2 + 2*x1^3", 1, F3))
        lift = lift_presentation(res.presentation)
        # final equation z^2 + 2*x1^3 lifts coefficient-wise
        assert lift.final == zz_poly("z^2 + 2*x1^3", lift.ctx)

    def test_char0_presentation_rejected(self, QQ):
        res = compute_kappa(mkw("z^2 - x1^3", 1, QQ))
        with pytest.raises(UnsupportedLiftError):
            lift_presentation(res.presentation)


class TestEliminate:
    def test_worked_hypersurface(self, purely_inseparable):
        _, res = purely_inseparable
        lift = lift_presentation(res.presentation)
        got = eliminate_to_hypersurface(lift)
        ctx = lift.ctx
        # oracle: direct integer expansion of ((z^2-a)^2 - b z)^2 + c (z^2-a)
        a = zz_poly("x1^3*x2^6", ctx)
        b = zz_poly("x1^6*x2^12", ctx)
        c = zz_poly("x1^12*x2^24", ctx)
        z = variable(ctx, ZZ, "z")
        inner = z.mul(z).sub(a)
        s = inner.mul(inner).sub(b.mul(z))
        want = s.mul(s).add(c.mul(inner))
        assert got == want

    def test_empty_stack(self):
        F2 = Field.finite(2)
        res = compute_kappa(mkw("z^2 - x1^3", 1, F2))
        lift = lift_presentation(res.presentation)
        assert eliminate_to_hypersurface(lift) == lift.final

    def test_single_relation_square(self):
        # (z^2 - x1^3)^2 over GF(5) reaches an empty second-stage polyhedron;
        # the lift eliminates back to the full integer square
        F5 = Field.finite(5)
        res = compute_kappa(mkw("z^4 + 3*x1^3*z^2 + x1^6", 1, F5))
        lift = lift_presentation(res.presentation)
        got = eliminate_to_hypersurface(lift)
        assert got == zz_poly("z^4 - 2*x1^3*z^2 + x1^6", lift.ctx)


class TestGhosts:
    def test_worked_example_ghosts(self, purely_inseparable):
        _, res = purely_inseparable
        lift = lift_presentation(res.presentation)
        report = ghost_monomials(lift)
        named = {format_monomial(e, lift.ctx): c for e, c in report.ghosts}
        assert named["x1^12*x2^24*z^2"] == 2
        # the -2 b z (z^2 - a)^2 block contributes five more even coefficients
        assert named["x1^6*x2^12*z^5"] == -2
        assert named["x1^9*x2^18*z^3"] == 4
        assert named["x1^12*x2^24*z"] == -2
        assert all(c % 2 == 0 and c != 0 for c in named.values())
        assert len(named) == 7

    def test_mod_p_reduction_of_hypersurface(self, purely_inseparable):
        wf, res = purely_inseparable
        F2 = Field.finite(2)
        lift = lift_presentation(res.presentation)
        h = eliminate_to_hypersurface(lift)
        reduced = Poly(lift.ctx, F2, {e: c % 2 for e, c in h.terms.items()})
        assert reduced == wf.poly.in_context(lift.ctx)

    def test_trivial_presentation_has_no_ghosts(self):
        F2 = Field.finite(2)
        res = compute_kappa(mkw("z^2 - x1^3", 1, F2))
        report = ghost_monomials(lift_presentation(res.presentation))
        assert report.ghosts == []


class TestInitialIdeal:
    def test_kappa_derived_weights(self, purely_inseparable):
        _, res = purely_inseparable
        omega = default_tropical_weight(res.presentation, (1, 1))
        assert omega == (F(1), F(1), F(9, 2), F(45, 4), F(189, 8))

    def test_d1_weight(self):
        F2 = Field.finite(2)
        res = compute_kappa(mkw("z^2 - x1^3", 1, F2))
        assert default_tropical_weight(res.presentation, (1,)) == (F(1), F(3, 2))

    def test_positivity_required(self, purely_inseparable):
        _, res = purely_inseparable
        with pytest.raises(ConfigurationError):
            default_tropical_weight(res.presentation, (1, 0))

    def test_initial_generators_match_display(self, purely_inseparable):
        _, res = purely_inseparable
        lift = lift_presentation(res.presentation)
        for lam in [(1, 1), (1, 2)]:
            omega = default_tropical_weight(res.presentation, lam)
            rep = initial_forms_weighted(lift, omega)
            assert rep.fiber_independent
            assert rep.witness is None
            ctx = lift.ctx
            want = [zz_poly("-z^2 + x1^3*x2^6", ctx),
                    zz_poly("-u1^2 + x1^6*x2^12*z", ctx),
                    zz_poly("u2^2 + x1^12*x2^24*u1", ctx)]
            assert rep.generators_initial == want

    def test_explicit_weight_on_single_relation(self):
        # u1 = z^2 - x1^3 with omega = (1, 3/2, 4): the u1 term is heavy,
        # so the generator's initial form is the sign-reversed binomial
        F5 = Field.finite(5)
        res = compute_kappa(mkw("z^4 + 3*x1^3*z^2 + x1^6", 1, F5))
        lift = lift_presentation(res.presentation)
        rep = initial_forms_weighted(lift, (F(1), F(3, 2), F(4)))
        assert rep.generators_initial[0] == zz_poly("-z^2 + x1^3", lift.ctx)
        assert rep.generators_initial[1] == zz_poly("u1^2", lift.ctx)

    def test_relation_initial_is_head_binomial(self):
        # property: for kappa-derived weights the initial form of every
        # relation generator is exactly the (sign-reversed) head binomial
        F2 = Field.finite(2)
        fixtures = [("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, [(1, 1), (2, 1), (1, 3)]),
                    ("z^2 - x1^3", 1, [(1,), (3,)])]
        for text, d, lams in fixtures:
            res = compute_kappa(mkw(text, d, F2))
            lift = lift_presentation(res.presentation)
            for lam in lams:
                omega = default_tropical_weight(res.presentation, lam)
                rep = initial_forms_weighted(lift, omega)
                for init, lifted in zip(rep.generators_initial, lift.relations):
                    # rhs = head - tail (no corrections in these fixtures)
                    assert init == lifted.rhs_poly(lift.ctx).neg()

    def test_ghost_initial_term_breaks_independence(self):
        ctx = VarContext(1, ("z",))
        gen = zz_poly("2*z^2 - x1^3", ctx)
        lift = IntegerLift(2, [], gen, ctx)
        rep = initial_forms_weighted(lift, (F(3), F(2)))
        assert not rep.fiber_independent
        assert rep.witness is not None
        assert rep.witness[2] == 2

    def test_wrong_length_omega_rejected(self, purely_inseparable):
        _, res = purely_inseparable
        lift = lift_presentation(res.presentation)
        with pytest.raises(ConfigurationError):
            initial_forms_weighted(lift, (1, 1, 1))


def initial_forms_oracle(lift, omega):
    """initial_forms_weighted with each term's weight summed in Fractions."""
    omega = check_weight_vector(omega, lift.ctx)
    inits, fiber_independent, witness = [], True, None
    for gi, gen in enumerate(lift.generators()):
        best, kept = None, {}
        for e, c in gen.terms.items():
            w = sum(omega[i] * e[i] for i in range(len(e)))
            if best is None or w < best:
                best, kept = w, {e: c}
            elif w == best:
                kept[e] = c
        init = Poly(lift.ctx, ZZ, kept)
        inits.append(init)
        for e, c in init.sorted_terms():
            if c % lift.prime == 0:
                fiber_independent = False
                witness = witness or (gi, e, c)
    return InitialIdealReport(inits, fiber_independent, witness)


def tropical_weight_oracle(pres, lam):
    """default_tropical_weight with each <lambda, weight(v)> summed in Fractions."""
    lam = [Fraction(c) for c in lam]
    return tuple(lam) + tuple(sum(l * Fraction(c) for l, c in zip(lam, pres.weights[name]))
                              for name in pres.ctx.aux)


def test_int_weights_match_the_fraction_oracle():
    # the deform fixtures (the README presentations, the GF(5) square and the
    # tame sweep mod p) under seeded lambdas with denominators 1..7
    fixtures = [("z^2 - x1^3", 1, 2), ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, 2),
                ("z^4 + 3*x1^3*z^2 + x1^6", 1, 5)]
    presentations = [compute_kappa(mkw(text, d, Field.finite(p))).presentation
                     for text, d, p in fixtures]
    presentations += [reduced_mod_p(i)[2].presentation for i in range(0, len(MOD_P), 8)]
    rng = random.Random(2203)
    ties = witnesses = 0
    for pres in presentations:
        lift = lift_presentation(pres)
        for _ in range(6):
            lam = tuple(F(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(pres.ctx.d))
            omega = default_tropical_weight(pres, lam)
            assert omega == tropical_weight_oracle(pres, lam)
            # an integral weight is an int, so it prints as the Fraction did
            assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in omega)
            rep = initial_forms_weighted(lift, omega)
            assert rep == initial_forms_oracle(lift, omega)
            ties += sum(len(init.terms) > 1 for init in rep.generators_initial)
    ctx = VarContext(1, ("z",))
    ghost = IntegerLift(2, [], zz_poly("2*z^2 - x1^3 + 4*x1*z", ctx), ctx)
    for _ in range(20):
        omega = (F(rng.randint(1, 9), rng.randint(1, 7)), F(rng.randint(1, 9), rng.randint(1, 7)))
        rep = initial_forms_weighted(ghost, omega)
        assert rep == initial_forms_oracle(ghost, omega)
        witnesses += rep.witness is not None
    assert ties > 0 and witnesses > 0
