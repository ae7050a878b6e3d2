import random
from fractions import Fraction

import pytest

from kappainv import (ParseError, Poly, Relation, ValidationError, VarContext,
                      back_substitute, normal_form, parse_polynomial, power_substitute,
                      substitute, weierstrass_validate)
from kappainv.poly import exact_div
from conftest import mk, rand_poly, sample_relations


class TestParse:
    def test_simple(self, QQ):
        f = mk("z^2 - x1^3", 1, QQ)
        x1, z = "x1", "z"
        assert f.terms == {(0, 2): Fraction(1), (3, 0): Fraction(-1)}

    def test_char2_signs_collapse(self, F2):
        f = mk("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F2)
        assert len(f.terms) == 4
        assert all(c == 1 for c in f.terms.values())

    def test_unknown_variable_position(self, QQ):
        with pytest.raises(ParseError) as err:
            mk("z^2 - y", 1, QQ)
        assert err.value.position == 6

    def test_out_of_range_x(self, QQ):
        with pytest.raises(ParseError):
            mk("x3 + z", 2, QQ)

    def test_fraction_coefficients(self, QQ, F7, F2):
        f = mk("1/2*x1 + z", 1, QQ)
        assert f.terms[(1, 0)] == Fraction(1, 2)
        g = mk("1/2*x1", 1, F7)
        assert g.terms[(1, 0)] == 4  # inverse of 2 mod 7
        with pytest.raises(ParseError):
            mk("1/2*x1", 1, F2)

    def test_juxtaposition_rejected(self, QQ):
        with pytest.raises(ParseError):
            mk("2 x1", 1, QQ)

    def test_malformed_exponent(self, QQ):
        with pytest.raises(ParseError):
            mk("x1^", 1, QQ)

    def test_repeated_monomials_merge(self, QQ):
        assert mk("x1 + x1", 1, QQ).terms == {(1, 0): Fraction(2)}
        assert mk("x1 - x1", 1, QQ).is_zero()


class TestFormat:
    def test_round_trip_examples(self, QQ, F2):
        for text, d, field in [
            ("z^2 - x1^3", 1, QQ),
            ("z^2 - 2*x1*z + x1^2 - x1^3", 1, QQ),
            ("z^8 + x1^15*x2^30 + x1^12*x2^24", 2, F2),
            ("1/2*x1 + 3", 1, QQ),
        ]:
            f = mk(text, d, field)
            assert parse_polynomial(f.format(), f.ctx, field) == f

    def test_round_trip_randomized(self, QQ, F5):
        rng = random.Random(99)
        ctx = VarContext(2)
        for _ in range(200):
            field = rng.choice([QQ, F5])
            f = rand_poly(rng, ctx, field)
            assert parse_polynomial(f.format(), ctx, field) == f

    def test_canonical_order(self, F2):
        f = mk("x1*x2^3 + x1^3*x2 + x1*x2*z + z^2", 2, F2)
        assert f.format() == "z^2 + x1*x2*z + x1^3*x2 + x1*x2^3"

    def test_zero(self, QQ):
        assert Poly.zero(VarContext(1), QQ).format() == "0"


class TestSubstitute:
    def test_square_expansion(self, QQ):
        f = mk("z^2", 1, QQ)
        out = substitute(f, "z", mk("z - x1", 1, QQ))
        assert out == mk("z^2 - 2*x1*z + x1^2", 1, QQ)

    def test_depressed_transform(self, QQ):
        f = mk("z^2 - 2*x1*z + x1^2 - x1^3", 1, QQ)
        out = substitute(f, "z", mk("z + x1", 1, QQ))
        assert out == mk("z^2 - x1^3", 1, QQ)

    def test_truncation_certificate(self, QQ):
        ctx = VarContext(1)
        f = Poly.variable(ctx, QQ, "z")
        repl = mk("z + x1^100", 1, QQ)
        out = substitute(f, "z", repl, T=10)
        assert out == Poly.variable(ctx, QQ, "z")
        assert out.trunc == 10

    def test_homomorphism_property(self, QQ, F7):
        rng = random.Random(5)
        ctx = VarContext(1)
        for _ in range(200):
            field = rng.choice([QQ, F7])
            f = rand_poly(rng, ctx, field, nterms=3, maxexp=2)
            g = rand_poly(rng, ctx, field, nterms=3, maxexp=2)
            repl = rand_poly(rng, ctx, field, nterms=2, maxexp=2)
            T = 8
            lhs = substitute(f.mul(g), "z", repl, T=T)
            rhs = substitute(f, "z", repl, T=T).mul(substitute(g, "z", repl, T=T), T=T)
            assert lhs.truncate(T) == rhs.truncate(T)

    def test_certificates_never_increase(self, QQ):
        ctx = VarContext(1)
        base = mk("z^2 + x1", 1, QQ)
        f = Poly(ctx, QQ, base.terms, trunc=5)  # known only below x-degree 5
        g = mk("x1^2", 1, QQ)
        assert f.mul(g).trunc == 5
        assert f.add(g).trunc == 5
        assert substitute(f, "z", mk("z + x1", 1, QQ)).trunc == 5
        # truncating without dropping anything keeps exact knowledge exact
        assert base.truncate(5).trunc is None
        assert mk("x1^6", 1, QQ).truncate(5).trunc == 5


class TestExactDiv:
    def test_recovers_the_cofactor(self, QQ, F7):
        rng = random.Random(517)
        ctx = VarContext(2)
        for _ in range(100):
            field = rng.choice([QQ, F7])
            a = rand_poly(rng, ctx, field, nterms=5)
            b = rand_poly(rng, ctx, field, nterms=rng.choice([1, 3]))
            if b.is_zero():
                continue
            assert exact_div(a.mul(b), b) == a

    def test_rejects_a_non_divisor(self, QQ):
        with pytest.raises(ValueError):
            exact_div(mk("x1^2 + x2", 2, QQ), mk("x1", 2, QQ))
        with pytest.raises(ValueError):
            exact_div(mk("x1^2 + 1", 2, QQ), mk("x1 + 1", 2, QQ))


class TestPowerSubstitute:
    def test_char2_frobenius_collapse(self, F2):
        ctx = VarContext(2, ("z", "u1"))
        f = parse_polynomial("z^8 + x1^12*x2^24 + x1^15*x2^30", ctx, F2)
        repl = parse_polynomial("u1 + x1^3*x2^6", ctx, F2)
        out = power_substitute(f, "z", 2, repl)
        assert out == parse_polynomial("u1^4 + x1^15*x2^30", ctx, F2)

    def test_partial_power(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        f = parse_polynomial("z^3", ctx, QQ)
        out = power_substitute(f, "z", 2, parse_polynomial("u1", ctx, QQ))
        assert out == parse_polynomial("u1*z", ctx, QQ)

    def test_variable_absent(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        f = parse_polynomial("x1^4 + x1", ctx, QQ)
        assert power_substitute(f, "z", 2, parse_polynomial("u1", ctx, QQ)) == f


def first_relation(ctx, field):
    # u1 = z^2 - x1^3
    return Relation(var="u1", head_var="z", head_exp=2, tail_coeff=field.one,
                    tail_expo=(3, 0, 0), ctx=ctx, ring=field)


class TestNormalForm:
    def test_single_reduction(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        rel = first_relation(ctx, QQ)
        f = parse_polynomial("z^3", ctx, QQ)
        assert normal_form(f, [rel]) == parse_polynomial("z*u1 + x1^3*z", ctx, QQ)

    def test_already_reduced(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        rel = first_relation(ctx, QQ)
        f = parse_polynomial("z*u1 + x1^2", ctx, QQ)
        assert normal_form(f, [rel]) == f

    def test_double_reduction(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        rel = first_relation(ctx, QQ)
        f = parse_polynomial("z^4", ctx, QQ)
        assert normal_form(f, [rel]) == parse_polynomial("u1^2 + 2*x1^3*u1 + x1^6", ctx, QQ)

    def test_idempotent_and_round_trip(self, QQ, F5):
        rng = random.Random(11)
        ctx = VarContext(1, ("z", "u1"))
        for _ in range(100):
            field = rng.choice([QQ, F5])
            rel = first_relation(ctx, field)
            f = rand_poly(rng, ctx, field, nterms=4, maxexp=4)
            # keep the input u1-free so back substitution lands on f itself
            f = Poly(ctx, field,
                     {e[:2] + (0,): c for e, c in f.terms.items()})
            nf = normal_form(f, [rel])
            assert normal_form(nf, [rel]) == nf
            assert back_substitute(nf, [rel]) == f
        # non-unit tail coefficients and corrections, with f in a longer
        # context than the relation (a free u2 rides along)
        long_ctx = ctx.extend("u2")
        for _ in range(100):
            field = rng.choice([QQ, F5])
            rel = rng.choice(sample_relations(field))
            f = rand_poly(rng, long_ctx, field, nterms=4, maxexp=4)
            f = Poly(long_ctx, field,
                     {e[:2] + (0,) + e[3:]: c for e, c in f.terms.items()})
            nf = normal_form(f, [rel])
            assert nf.ctx == long_ctx
            assert nf.degree_in("z") < 2
            assert normal_form(nf, [rel]) == nf
            assert back_substitute(nf, [rel]) == f


class TestWeierstrass:
    def test_accepts_cusp(self, QQ):
        wf = weierstrass_validate(mk("z^2 - x1^3", 1, QQ))
        assert wf.n == 2

    def test_rejects_non_monic(self, QQ):
        with pytest.raises(ValidationError, match="monic"):
            weierstrass_validate(mk("2*z^2 - x1^3", 1, QQ))

    def test_rejects_nonzero_origin(self, QQ):
        with pytest.raises(ValidationError, match="f\\(0\\)"):
            weierstrass_validate(mk("z^2 - 1", 1, QQ))

    def test_rejects_u_variables(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        f = parse_polynomial("z^2 + u1*x1", ctx, QQ)
        with pytest.raises(ValidationError, match="u1"):
            weierstrass_validate(f)

    def test_rejects_mixed_leading_coefficient(self, QQ):
        with pytest.raises(ValidationError, match="monic"):
            weierstrass_validate(mk("z^2 + x1*z^2 + x1", 1, QQ))


class TestRelationDisplay:
    def test_structural_string_lifts_signs(self, F2):
        ctx = VarContext(2, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=F2.one,
                       tail_expo=(3, 6, 0, 0), ctx=ctx, ring=F2)
        assert rel.structural_str() == "u1 - (z^2 - x1^3*x2^6)"
        rel.corrections.append((F2.one, (4, 4, 0, 0)))
        assert rel.structural_str() == "u1 - (z^2 - x1^3*x2^6 - x1^4*x2^4)"

    def test_rhs_poly_char2(self, F2):
        ctx = VarContext(2, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=F2.one,
                       tail_expo=(3, 6, 0, 0), ctx=ctx, ring=F2)
        assert rel.rhs_poly() == parse_polynomial("z^2 + x1^3*x2^6", ctx, F2)
