import random
import re
import sys
from fractions import Fraction

import pytest

import kappainv.poly
from kappainv import (ZZ, BinomialPower, Field, ParseError, Poly, Relation, ValidationError,
                      VarContext, back_substitute, classify, normal_form, parse_polynomial,
                      power_substitute, substitute, weierstrass_validate)
from kappainv.poly import _min_trunc, _print_key, exact_div, translate
from conftest import (expand, lift_relation, lifted_structural_str, mk, oracle_generator,
                      oracle_replacement_poly, oracle_rhs_poly, poly_pow, rand_poly,
                      sample_relations, variable)


# ---------------------------------------------------------------------------
# test-only oracles: the schoolbook arithmetic the kernels replaced
# ---------------------------------------------------------------------------

def schoolbook_mul(f, g, T=None):
    """Every term pair through ring.add and ring.is_zero, rebuilt by Poly(...)."""
    ctx = f.ctx if f.ctx.is_extension_of(g.ctx) else g.ctx
    a, b = f.in_context(ctx), g.in_context(ctx)
    eff = _min_trunc(f.trunc, g.trunc, T)
    ring, d = f.ring, ctx.d
    out = {}
    dropped = False
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if eff is not None and sum(e1[:d]) + sum(e2[:d]) >= eff:
                dropped = True
                continue
            e = tuple(i + j for i, j in zip(e1, e2))
            s = ring.add(out.get(e, ring.zero), ring.mul(c1, c2))
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return Poly(ctx, ring, out, eff if dropped else _min_trunc(f.trunc, g.trunc))


def repeated_pow(f, n, T=None):
    """n schoolbook products, starting from 1."""
    out = Poly.one(f.ctx, f.ring)
    for _ in range(n):
        out = schoolbook_mul(out, f, T)
    return out


def schoolbook_power_substitute(f, name, k, replacement, T=None):
    """w^e -> w^(e mod k) * replacement^(e div k), each group times a running power from 1."""
    idx = f.ctx.var_index(name)
    groups = {}
    for e, c in f.terms.items():
        q, r = divmod(e[idx], k)
        groups.setdefault(q, {})[e[:idx] + (r,) + e[idx + 1:]] = c
    result = Poly.zero(f.ctx, f.ring, f.trunc if f.is_zero() else None)
    power, last = Poly.one(f.ctx, f.ring), 0
    for q in sorted(groups):
        for _ in range(q - last):
            power = schoolbook_mul(power, replacement, T)
        last = q
        part = Poly(f.ctx, f.ring, groups[q], f.trunc)
        result = result.add(schoolbook_mul(part, power, T), T)
    return result


def long_division(f, g):
    """Divide by the leading term of g until nothing is left; ValueError if g does not divide."""
    ring, key = f.ring, _print_key(f.ctx)
    lt_g = max(g.terms, key=key)
    rem, out = Poly(f.ctx, ring, f.terms), {}
    while not rem.is_zero():
        lt_r = max(rem.terms, key=key)
        diff = tuple(a - b for a, b in zip(lt_r, lt_g))
        if min(diff) < 0:
            raise ValueError("not exactly divisible")
        c = ring.div(rem.terms[lt_r], g.terms[lt_g])
        out[diff] = c
        rem = rem.sub(schoolbook_mul(g, Poly(f.ctx, ring, {diff: c})))
    return Poly(f.ctx, ring, out, _min_trunc(f.trunc, g.trunc))


def coeff_poly(rng, ctx, field, nterms=4, maxexp=3, trunc=None):
    """Up to nterms random terms; integer values in characteristic 0, so ZZ works too."""
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        expo = tuple(rng.randrange(0, maxexp + 1) for _ in range(ctx.nvars))
        terms[expo] = (field.from_int(rng.randrange(-5, 6)) if field.characteristic == 0
                       else field.element(rng.randrange(field.order)))
    return Poly(ctx, field, terms).truncate(trunc)


def assert_clean(p):
    assert all(type(e) is tuple and len(e) == p.ctx.nvars for e in p.terms)
    assert not any(p.ring.is_zero(c) for c in p.terms.values())


def assert_same(got, want):
    assert_clean(got)
    assert got.ctx == want.ctx and got.ring == want.ring
    assert got.terms == want.terms
    assert got.trunc == want.trunc


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


def string_rule_index(ctx, name):
    """var_index by the string rule alone: x<ASCII digits> is an x-variable,
    any other name a chain variable; None where the layout has none."""
    if re.fullmatch(r"x[0-9]+", name):
        i = int(name[1:])
        return i - 1 if 1 <= i <= ctx.d else None
    return ctx.d + ctx.aux.index(name) if name in ctx.aux else None


class TestVarIndex:
    """The names table answers as the string rule does, which stays the fallback."""

    def test_names_table_against_the_string_rule(self):
        layouts = [(d, aux) for d in (1, 2, 3, 8)
                   for aux in (("z",), ("z", "u1"), ("z", "u1", "u2", "u3"), ("z", "w"),
                               ("z", "x1"), ("z", "x9"), ("u01", "z"), ("z", "x\u00b2"))]
        for d, aux in layouts:
            ctx = VarContext(d, aux)
            names = ([f"x{i}" for i in range(1, 10)]
                     + ["x0", "x01", "x001", f"x{d + 1}", f"x0{d}", "z", "u1", "u01", "u2", "w",
                        "x", "u", "", "X1", "x1 ",
                        # str.isdigit accepts the superscript two, which
                        # int() refuses, and the Arabic-Indic one, which
                        # int() reads as 1: neither spells an x-variable
                        "x\u00b2", "x\u0661", "x1\u0661"])
            for name in names:
                want = string_rule_index(ctx, name)
                if want is None:
                    with pytest.raises(KeyError):
                        ctx.var_index(name)
                    assert not ctx.has_var(name)
                else:
                    assert ctx.var_index(name) == want, (d, aux, name)
                    assert ctx.has_var(name)

    def test_parsing_reads_the_table_then_the_rule(self, QQ):
        ctx = VarContext(2, ("z", "u1"))
        assert parse_polynomial("x01*x002^2 + u1*z", ctx, QQ) == parse_polynomial(
            "x1*x2^2 + z*u1", ctx, QQ)
        for text in ("x0 + z", "x3 + z", "u01 + z", "u2 + z"):
            with pytest.raises(ParseError, match="unknown variable"):
                parse_polynomial(text, ctx, QQ)
        # a chain name outside the grammar is never read as a variable
        odd = VarContext(1, ("z", "w"))
        assert odd.var_index("w") == 2
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("w + z", odd, QQ)


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
        f = variable(ctx, QQ, "z")
        repl = mk("z + x1^100", 1, QQ)
        out = substitute(f, "z", repl, T=10)
        assert out == variable(ctx, QQ, "z")
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


SWEEP_FIELDS = [Field.rationals(), ZZ, Field.finite(7), Field.finite(2, 2, (1, 1, 1))]


class TestKernelOracles:
    """Poly.mul, poly_pow, power_substitute and exact_div against the schoolbook oracles."""

    def operands(self, rng, ctx, field):
        T = rng.choice([None, None, 1, 2, 3, 5])
        f = coeff_poly(rng, ctx, field, trunc=rng.choice([None, None, 3, 6]))
        g = coeff_poly(rng, ctx, field, nterms=rng.choice([1, 2, 4]),
                       trunc=rng.choice([None, None, 4]))
        return f, g, T

    def test_mul(self):
        rng = random.Random(1010)
        ctx = VarContext(2)
        for _ in range(600):
            field = rng.choice(SWEEP_FIELDS)
            f, g, T = self.operands(rng, ctx, field)
            got, want = f.mul(g, T), schoolbook_mul(f, g, T)
            assert_same(got, want)
            # the kernel keeps the oracle's insertion order
            assert list(got.terms) == list(want.terms)

    def test_add(self):
        # the exact sum cut by hand: its nonzero terms below min(certificates,
        # T) in insertion order, under min(certificates), which tightens to
        # that cut only when a term is dropped
        rng = random.Random(1012)
        ctx = VarContext(2)
        dropped = 0
        for _ in range(600):
            field = rng.choice(SWEEP_FIELDS)
            f, g, T = self.operands(rng, ctx, field)
            exact = dict(f.terms)
            for e, c in g.terms.items():
                exact[e] = field.add(exact.get(e, field.zero), c)
            exact = {e: c for e, c in exact.items() if not field.is_zero(c)}
            cut = _min_trunc(f.trunc, g.trunc, T)
            kept = {e: c for e, c in exact.items() if cut is None or e[0] + e[1] < cut}
            tr = cut if len(kept) < len(exact) else _min_trunc(f.trunc, g.trunc)
            dropped += len(kept) < len(exact)
            got = f.add(g, T)
            assert_same(got, Poly(ctx, field, kept, tr))
            assert list(got.terms) == list(kept)
        assert dropped >= 100

    def test_mul_across_contexts(self, QQ):
        rng = random.Random(1011)
        short, long = VarContext(1), VarContext(1, ("z", "u1"))
        for _ in range(100):
            f = coeff_poly(rng, short, QQ)
            g = coeff_poly(rng, long, QQ, nterms=rng.choice([1, 3]))
            assert_same(f.mul(g), schoolbook_mul(f, g))
            assert_same(g.mul(f, 3), schoolbook_mul(g, f, 3))

    def test_cancellation_drops_terms(self, QQ, F7):
        for field in (QQ, F7):
            ctx = VarContext(1)
            f = Poly(ctx, field, {(1, 0): field.one, (0, 1): field.one})
            g = Poly(ctx, field, {(1, 0): field.one, (0, 1): field.neg(field.one)})
            got = f.mul(g)  # x1^2 - z^2: the cross terms cancel
            assert_same(got, schoolbook_mul(f, g))
            assert set(got.terms) == {(2, 0), (0, 2)}

    def test_pow(self):
        rng = random.Random(2020)
        ctx = VarContext(2)
        for _ in range(300):
            field = rng.choice(SWEEP_FIELDS)
            f, _, T = self.operands(rng, ctx, field)
            n = rng.randrange(0, 6)
            got, want = poly_pow(f, n, T), repeated_pow(f, n, T)
            assert_same(got, want)
            assert list(got.terms) == list(want.terms)

    def test_constant_power_forms_no_product(self, monkeypatch):
        # a constant's power is its coefficient's ring power, with the
        # repeated product's terms and certificate
        products = []
        real_mul = Poly.mul

        def mul(a, b, T=None):
            products.append((a, b))
            return real_mul(a, b, T)

        monkeypatch.setattr(Poly, "mul", mul)
        ctx = VarContext(2)
        for field in SWEEP_FIELDS:
            values = ([field.from_int(v) for v in (1, -1, 2, -3)] if field.characteristic == 0
                      else [field.element(i) for i in range(1, field.order)])
            if field != ZZ and field.characteristic == 0:
                values.append(field.div(field.from_int(3), field.from_int(-2)))
            for c in values:
                for trunc in (None, 1, 4):
                    f = Poly.constant(ctx, field, c, trunc)
                    for T in (None, 1, 3):
                        for n in range(1, 8):
                            got = poly_pow(f, n, T)
                            assert_same(got, repeated_pow(f, n, T))
        assert products == []

    def test_negative_power_raises(self, QQ):
        x = mk("x1 + z", 1, QQ)
        with pytest.raises(ValidationError):
            poly_pow(x, -1)
        assert poly_pow(x, 0) == Poly.one(x.ctx, QQ)

    def test_power_substitute(self):
        rng = random.Random(3030)
        ctx = VarContext(1, ("z", "u1"))
        for _ in range(300):
            field = rng.choice(SWEEP_FIELDS)
            f, repl, T = self.operands(rng, ctx, field)
            f = coeff_poly(rng, ctx, field, nterms=5, maxexp=5, trunc=f.trunc)
            k = rng.randrange(1, 4)
            got = power_substitute(f, "z", k, repl, T)
            want = schoolbook_power_substitute(f, "z", k, repl, T)
            assert_same(got, want)
            assert list(got.terms) == list(want.terms)

    def test_exact_div(self):
        rng = random.Random(4040)
        ctx = VarContext(2)
        for _ in range(300):
            field = rng.choice(SWEEP_FIELDS)
            a = coeff_poly(rng, ctx, field, nterms=5, trunc=rng.choice([None, 7]))
            b = coeff_poly(rng, ctx, field, nterms=rng.choice([1, 1, 3]))
            if b.is_zero():
                continue
            f = schoolbook_mul(a, b)
            assert_same(exact_div(f, b), long_division(f, b))
            assert exact_div(f, b) == a

    def test_exact_div_rejects_non_divisors(self, QQ):
        rng = random.Random(4041)
        ctx = VarContext(2)
        for field in SWEEP_FIELDS:
            mono = Poly(ctx, field, {(1, 1, 0): field.one})
            with pytest.raises(ValueError):
                exact_div(Poly(ctx, field, {(2, 1, 0): field.one, (0, 3, 1): field.one}), mono)
        for _ in range(100):
            f = coeff_poly(rng, ctx, QQ, nterms=4)
            g = coeff_poly(rng, ctx, QQ, nterms=rng.choice([1, 2]))
            if g.is_zero():
                continue
            try:
                want = long_division(f, g)
            except ValueError:
                with pytest.raises(ValueError):
                    exact_div(f, g)
            else:
                assert_same(exact_div(f, g), want)

    def test_zz_division_is_exact_or_raises(self):
        ctx = VarContext(1)
        f = Poly(ctx, ZZ, {(2, 0): 6, (1, 1): 4})
        assert exact_div(f, Poly(ctx, ZZ, {(1, 0): 2})).terms == {(1, 0): 3, (0, 1): 2}
        with pytest.raises(ZeroDivisionError):
            exact_div(f, Poly(ctx, ZZ, {(1, 0): 4}))

    @pytest.mark.parametrize("p", [0, 2, 3, 5])
    def test_binomial_expand_matches_repeated_products(self, p):
        field = Field.rationals() if p == 0 else Field.finite(p)
        rng = random.Random(5050 + p)
        ctx = VarContext(2, ("z", "u1"))
        powers = list(range(0, 8)) + ([p, 2 * p, p * p, 3 * p] if p else [9, 12])
        for power in powers:
            for _ in range(4):
                main_var = rng.choice(["z", "u1"])
                coeff = (field.from_int(rng.choice([-3, -1, 2, 5])) if p == 0
                         else field.element(rng.randrange(field.order)))
                tail = (rng.randrange(0, 4), rng.randrange(1, 4))
                if main_var == "u1":
                    tail += (rng.randrange(0, 3),)  # z may sit in the tail of a u1 head
                inner = rng.randrange(1, 4)
                bp = BinomialPower(main_var, inner, power, coeff, tail)
                base = Poly(ctx, field, {ctx.unit(main_var, inner): field.one,
                                         ctx.pad(tail): field.neg(coeff)})
                got = expand(bp, ctx, field)
                assert_same(got, repeated_pow(base, power))


class TestConstructor:
    def test_public_constructor_validates(self, QQ, F7):
        class Expo(tuple):
            pass

        ctx = VarContext(1)
        for field in (QQ, F7, ZZ):
            p = Poly(ctx, field, {Expo((1, 0)): field.one, (0, 1): field.zero,
                                  (2, 0): field.from_int(7 if field is F7 else 0)})
            assert p.terms == {(1, 0): field.one}
            assert_clean(p)
            assert all(type(e) is tuple for e in p.terms)


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


    def test_no_product_by_one_on_the_three_stage_example(self, F2, monkeypatch):
        # the monic top's group is the constant 1 in the descent and in back
        # substitution; it contributes the replacement's power as it is, and
        # the result starts from the first group, so no sum adds to zero
        products, sums = [], []
        real_mul, real_add = Poly.mul, Poly.add
        home = kappainv.poly.power_substitute.__code__

        def mul(a, b, T=None):
            if sys._getframe(1).f_code is home:
                products.append(a.is_one() or b.is_one())
            return real_mul(a, b, T)

        def add(a, b, T=None):
            if sys._getframe(1).f_code is home:
                sums.append(a.is_zero() or b.is_zero())
            return real_add(a, b, T)

        monkeypatch.setattr(Poly, "mul", mul)
        monkeypatch.setattr(Poly, "add", add)
        wf = weierstrass_validate(
            parse_polynomial("z^8 + x1^12*x2^24 + x1^15*x2^30", VarContext(2), F2))
        pres = classify(wf).presentation
        assert back_substitute(pres.final, pres.relations) == wf.poly
        assert products and not any(products)
        assert sums and not any(sums)


class TestTranslate:
    """translate against substitute(f, w, w + c*m, T): equal terms, equal certificate."""

    def test_matches_substitute(self):
        rng = random.Random(6060)
        ctx = VarContext(2, ("z", "u1"))
        zero_shift_drops = 0
        for _ in range(3000):
            field = rng.choice(SWEEP_FIELDS)
            main = rng.choice(["z", "u1"])
            other = ctx.var_index("u1" if main == "z" else "z")
            shift = [rng.choice([0, 0, 1, 2]) for _ in range(ctx.d)] + [0, 0]
            shift[other] = rng.choice([0, 0, 1])  # the other chain variable may ride along
            c = field.zero
            while field.is_zero(c):
                c = (field.from_int(rng.randrange(-5, 6)) if field.characteristic == 0
                     else field.element(rng.randrange(field.order)))
            f = coeff_poly(rng, ctx, field, nterms=5, maxexp=rng.choice([3, 5]),
                           trunc=rng.choice([None, None, 3, 6]))
            T = rng.choice([None, None, 1, 2, 3, 5])
            w = ctx.unit(main)
            want = substitute(f, main, Poly(ctx, field, {w: field.one, tuple(shift): c}), T)
            got = translate(f, main, c, tuple(shift), T)
            assert_same(got, want)
            if sum(shift[:ctx.d]) == 0 and got.trunc != f.trunc:
                zero_shift_drops += 1
        # a shift of x-degree 0 still drops f's own terms at or above T
        assert zero_shift_drops > 0

    def test_prefix_exponent_is_padded(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        f = parse_polynomial("u1^2 + x1*z*u1", ctx, QQ)
        got = translate(f, "u1", QQ.from_int(3), (2, 1))  # m = x1^2*z, stored without u1
        assert got == parse_polynomial(
            "u1^2 + 6*x1^2*z*u1 + 9*x1^4*z^2 + x1*z*u1 + 3*x1^3*z^2", ctx, QQ)

    def test_rejects_a_shift_in_the_main_variable(self, QQ):
        with pytest.raises(ValidationError):
            translate(mk("z^2", 1, QQ), "z", QQ.one, (1, 1))


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

    @pytest.mark.parametrize("text, field, power", [
        ("z^2 + z", "QQ", "z"),                # z*(1 + z), a smooth germ
        ("z^2 + z + x1", "F2", "z"),
        ("z^3 + x1*z^2 + z", "QQ", "z"),
        ("z^3 + x1*z^2 + z", "F2", "z"),
        ("z^3 - 2*z^2 + x1^2", "QQ", "z^2"),
        ("z^3 + z^2 + z + x1", "F2", "z"),     # the lowest unit coefficient is named
    ])
    def test_rejects_a_unit_z_coefficient(self, request, text, field, power):
        # a unit coefficient below the top puts a vertex at the origin
        with pytest.raises(ValidationError) as err:
            weierstrass_validate(mk(text, 1, request.getfixturevalue(field)))
        assert str(err.value) == (
            f"not a Weierstrass polynomial: the coefficient of {power} is a unit")

    def test_accepts_z_coefficients_vanishing_at_the_origin(self, QQ, F2):
        for field in (QQ, F2):
            assert weierstrass_validate(mk("z^2 + x1*z", 1, field)).n == 2
            assert weierstrass_validate(mk("z^3 + x1*z^2 + x2^3*z + x1^5", 2, field)).n == 3


class TestRelationDisplay:
    def test_structural_string_lifts_signs(self, F2):
        ctx = VarContext(2, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=F2.one,
                       tail_expo=(3, 6, 0, 0), ctx=ctx, ring=F2)
        assert rel.structural_str() == "u1 - (z^2 - x1^3*x2^6)"
        rel.corrections.append((F2.one, (4, 4, 0, 0)))
        assert rel.structural_str() == "u1 - (z^2 - x1^3*x2^6 - x1^4*x2^4)"

    def test_display_matches_the_lifted_rendering(self):
        # the display folds signs in characteristic 0 and prints them as
        # written over GF(q); the oracle renders through the integer lift
        rng = random.Random(17)
        fields = [Field.rationals(), Field.finite(2), Field.finite(3), Field.finite(5),
                  Field.finite(7), Field.finite(2, 2, (1, 1, 1)), Field.finite(3, 2, (1, 0, 1))]
        rationals = [Fraction(c) for c in (1, -1, 2, -3)] + [Fraction(1, 2), Fraction(-5, 3)]

        def coeff(field):
            if field.characteristic == 0:
                return rng.choice(rationals)
            return field.element(rng.randrange(1, field.order))  # nonzero

        seen = set()
        for _ in range(300):
            field = rng.choice(fields)
            d = rng.choice([1, 2])
            ctx = VarContext(d, ("z", "u1"))

            def mono():  # the length of the context before u1, or the x block only
                e = tuple(rng.randrange(0, 5) for _ in range(d + 1))
                return e if rng.random() < 0.7 else e[:d]

            rel = Relation(var="u1", head_var="z", head_exp=rng.randrange(2, 5),
                           tail_coeff=coeff(field), tail_expo=mono(), ctx=ctx, ring=field,
                           corrections=[(coeff(field), mono())
                                        for _ in range(rng.randrange(0, 4))])
            assert rel.structural_str() == lifted_structural_str(rel)
            c = rel.tail_coeff
            seen.add("unit" if c == field.one else "negative" if field.is_negative(c)
                     else "non-unit")
            if field.characteristic and field.extension_degree == 1:
                # over ZZ the lifted values in {1, ..., p-1} show as the field's do
                lifted = lift_relation(rel)
                assert lifted.structural_str() == lifted_structural_str(lifted)
                assert lifted.structural_str() == rel.structural_str()
                seen.add("lifted")
        assert seen == {"unit", "non-unit", "negative", "lifted"}
        # sample_relations' coefficients are all nonzero in these fields
        for field in fields[:1] + fields[3:5]:
            for rel in sample_relations(field):
                assert rel.structural_str() == lifted_structural_str(rel)
                if field.characteristic:
                    lifted = lift_relation(rel)
                    assert lifted.structural_str() == lifted_structural_str(lifted)

    def test_rhs_poly_char2(self, F2):
        ctx = VarContext(2, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=F2.one,
                       tail_expo=(3, 6, 0, 0), ctx=ctx, ring=F2)
        assert rel.rhs_poly() == parse_polynomial("z^2 + x1^3*x2^6", ctx, F2)


class TestRelationBuilders:
    def test_builders_match_the_poly_arithmetic(self):
        # rhs_poly, generator and replacement_poly, each one pass over the
        # structural pieces, against the Poly arithmetic they replaced: random
        # relations u1 = z^n - ... and u2 = u1^n - ..., with corrections that
        # repeat a monomial or cancel one another or the tail, over fields and
        # lifted to ZZ, in the relation's context and in a larger one
        rng = random.Random(32)
        fields = [Field.rationals(), Field.finite(2), Field.finite(3),
                  Field.finite(2, 2, (1, 1, 1)), Field.finite(3, 2, (1, 0, 1))]
        seen = set()
        for _ in range(400):
            field = rng.choice(fields)
            d = rng.choice([1, 2])
            var, head_var = rng.choice([("u1", "z"), ("u2", "u1")])
            ctx = VarContext(d, ("z", "u1", "u2")[:int(var[1]) + 1])
            width = ctx.var_index(head_var)  # the x block and the chain before the head

            def coeff():
                if field.characteristic == 0:
                    return Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3]))
                return field.element(rng.randrange(1, field.order))

            def mono():
                return tuple(rng.randrange(0, 3) for _ in range(width))

            tail_coeff, tail_expo = coeff(), mono()
            corrections = []
            for _ in range(rng.randrange(0, 5)):
                kind = rng.choice(["new", "repeat", "cancel"])
                placed = [(tail_coeff, tail_expo)] + corrections
                if kind == "new":
                    corrections.append((coeff(), mono()))
                elif kind == "repeat":
                    corrections.append((coeff(), rng.choice(placed)[1]))
                else:  # the negative of a piece already placed
                    c, m = rng.choice(placed)
                    corrections.append((field.neg(c), m))
                seen.add(kind)
            rel = Relation(var=var, head_var=head_var, head_exp=rng.randrange(2, 5),
                           tail_coeff=tail_coeff, tail_expo=tail_expo, ctx=ctx, ring=field,
                           corrections=corrections)
            rels = [rel]
            if field.characteristic and field.extension_degree == 1:
                rels.append(lift_relation(rel))
            for r in rels:
                for where in (None, ctx.extend("u9")):
                    for got, want in [(r.rhs_poly(where), oracle_rhs_poly(r, where)),
                                      (r.generator(where), oracle_generator(r, where)),
                                      (r.replacement_poly(where),
                                       oracle_replacement_poly(r, where))]:
                        assert got.ctx == want.ctx and got.terms == want.terms, (r, where)
                        assert got.trunc is None
                        assert all(not r.ring.is_zero(c) for c in got.terms.values())
                if len(r.rhs_poly().terms) < len(r.structural_pieces()):
                    seen.add("fewer terms")
                seen.add(r.ring)
        assert seen >= {"new", "repeat", "cancel", "fewer terms", ZZ, *fields}
