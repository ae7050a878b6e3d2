import random
from fractions import Fraction

import pytest

import kappainv.quasiord
from kappainv import (ZZ, ContractViolation, Field, KappaConfig, Poly, Terminal, VarContext,
                      WeierstrassPoly, classify, discriminant_z, is_monomial_times_unit,
                      weierstrass_validate)
from kappainv.poly import derivative
from kappainv.quasiord import MonomialUnitStatus, _z_coefficients
from conftest import mk, mkw


def rand_series(rng, ctx, field, deg):
    # constant term omitted so that products stay Weierstrass (f(0) = 0)
    terms = {}
    for e in range(1, deg + 2):
        c = (Fraction(rng.randrange(-4, 5)) if field.characteristic == 0
             else field.element(rng.randrange(field.order)))
        if not field.is_zero(c):
            terms[(e, 0)] = c
    return Poly(ctx, field, terms)


def rand_weierstrass(rng, field):
    """z^n, n in 2..5, plus 2-6 terms in 1-2 x-variables (exponents 0..4, coefficients +-1..3).

    A z-only term may carry a unit coefficient, so the result need not pass
    weierstrass_validate; discriminant_z needs only a monic polynomial.
    """
    d, n = rng.randint(1, 2), rng.randint(2, 5)
    terms = {(0,) * d + (n,): field.one}
    for _ in range(rng.randint(2, 6)):
        e = tuple(rng.randint(0, 4) for _ in range(d)) + (rng.randrange(n),)
        if any(e):  # keeps f(0) = 0
            terms[e] = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return WeierstrassPoly(Poly(VarContext(d), field, terms), n)


def sylvester_matrix(f, g):
    """The Sylvester matrix of (f, g) in z: deg g shifted rows of f's
    coefficients, then deg f shifted rows of g's."""
    fc, gc = _z_coefficients(f), _z_coefficients(g)
    n, m = len(fc) - 1, len(gc) - 1
    zero = Poly.zero(f.ctx, f.ring)
    rows = []
    for coeffs, count in ((fc, m), (gc, n)):
        for i in range(count):
            row = [zero] * (n + m)
            row[i:i + len(coeffs)] = coeffs
            rows.append(row)
    return rows


def sylvester_resultant(f):
    """Res_z(f, df/dz) by expanding the Sylvester determinant, Res(f, 0) = 0."""
    g = derivative(f, "z")
    if g.is_zero():
        return Poly.zero(f.ctx, f.ring)
    return det_by_minors(sylvester_matrix(f, g))


def binomial_resultant(n, a):
    """Res_z(z^n + a, n*z^(n-1)) = n^n * a^(n-1), for a free of z."""
    return a.pow_(n - 1).mul(Poly.constant(a.ctx, a.ring, a.ring.from_int(n ** n)))


def trinomial_resultant(n, b, a):
    """Res_z(f, f') for f = z^n + b*z^(n-1) + a, with b and a free of z.

    It is the product of f'(r) = r^(n-2) * (n*r + (n-1)*b) over the roots r
    of f.  The roots multiply to (-1)^n * a, and the product of n*r + (n-1)*b
    is (-n)^n * f(-(n-1)*b/n), so the resultant is
    a^(n-2) * ((-1)^(n-1) * (n-1)^(n-1) * b^n + n^n * a).
    """
    ctx, ring = a.ctx, a.ring
    inner = b.pow_(n).mul(
        Poly.constant(ctx, ring, ring.from_int((-1) ** (n - 1) * (n - 1) ** (n - 1))))
    return a.pow_(n - 2).mul(inner.add(a.mul(Poly.constant(ctx, ring, ring.from_int(n ** n)))))


def det_by_minors(rows):
    """Cofactor expansion down the columns, each minor computed once.

    A minor is fixed by the rows it keeps (its columns are the last ones),
    so a memo keyed by that row set turns the n! expansion into n * 2^n
    products.  It only adds and multiplies.
    """
    size = len(rows)
    zero = Poly.zero(rows[0][0].ctx, rows[0][0].ring)
    memo = {}

    def minor(keep):
        col = size - len(keep)
        if len(keep) == 1:
            return rows[keep[0]][col]
        if keep not in memo:
            total = zero
            for pos, i in enumerate(keep):
                entry = rows[i][col]
                if entry.is_zero():
                    continue
                piece = entry.mul(minor(keep[:pos] + keep[pos + 1:]))
                total = total.add(piece) if pos % 2 == 0 else total.sub(piece)
            memo[keep] = total
        return memo[keep]

    return minor(tuple(range(size)))


class TestDiscriminant:
    def test_char2_quasi_ordinary(self, F2):
        rep = discriminant_z(mkw("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F2))
        assert rep.disc == mk("x1^2*x2^2", 2, F2)
        assert rep.exact
        assert rep.monomial_unit.status == "yes"
        assert rep.monomial_unit.exponent == (2, 2)

    def test_char2_inseparable_zero(self, F2):
        rep = discriminant_z(mkw("z^2 - x1^3", 1, F2))
        assert rep.disc.is_zero()
        assert rep.monomial_unit.status == "no"

    def test_char0_cusp(self, QQ):
        rep = discriminant_z(mkw("z^2 - x1^3", 1, QQ))
        assert rep.disc == mk("-4*x1^3", 1, QQ)
        assert rep.monomial_unit.status == "yes"
        assert rep.monomial_unit.exponent == (3,)

    def test_inseparable_fixtures_vanish(self, F2):
        for text, d in [("z^2 - x1^3", 1), ("z^4 + x1^6", 1),
                        ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2),
                        ("z^4 + x1^3*z^2 + x1^5", 1)]:
            rep = discriminant_z(mkw(text, d, F2))
            assert rep.disc.is_zero()

    def test_factored_oracle_randomized(self, QQ, F7):
        rng = random.Random(404)
        checked = 0
        for _ in range(200):
            field = rng.choice([QQ, F7])
            ctx = VarContext(1)
            s1 = rand_series(rng, ctx, field, rng.randrange(0, 4))
            s2 = rand_series(rng, ctx, field, rng.randrange(0, 4))
            z = Poly.variable(ctx, field, "z")
            f = z.sub(s1).mul(z.sub(s2))
            from kappainv import weierstrass_validate
            rep = discriminant_z(weierstrass_validate(f))
            want = s1.sub(s2).mul(s1.sub(s2))
            assert rep.disc == want or rep.disc == want.neg()
            checked += 1
        assert checked == 200

    def test_truncated_matches_exact_then_truncated(self, QQ, F7):
        # the oracle expands the exact Sylvester determinant and only then
        # applies the certificate
        rng = random.Random(20260418)
        for _ in range(200):
            wf = rand_weierstrass(rng, rng.choice([QQ, F7]))
            T = rng.randint(1, 12)
            rep = discriminant_z(wf, T)
            exact = sylvester_resultant(wf.poly)
            trunc = wf.poly.truncate(T).trunc
            assert rep.disc == exact.truncate(trunc), (wf.poly.format(), T)
            assert rep.disc.trunc == trunc, (wf.poly.format(), T)
            assert rep.exact is (trunc is None)

    def test_matches_sylvester_oracle_on_7x7(self, QQ):
        # degree 4: the Sylvester matrix of (f, f') is 7x7
        wf = mkw("z^4 - 2*x1^3*z^2 + x1*z + x1^6", 1, QQ)
        f = wf.poly
        g = derivative(f, "z")
        rows = sylvester_matrix(f, g)
        assert len(rows) == 7
        assert discriminant_z(wf).disc == det_by_minors(rows)

    @pytest.mark.parametrize("text, p, fprime, want", [
        # f' = x1 is a nonzero constant in z: Res(f, c) = c^3
        ("z^3 + x1*z + x1^2", 3, "x1", "x1^3"),
        # f' = x1*z^2 drops the z-degree by two, so the first delta is 2
        ("z^4 + x1*z^3 + x1^3", 2, "x1*z^2", "x1^10"),
    ])
    def test_char_p_degree_drops(self, text, p, fprime, want):
        field = Field.finite(p)
        wf = mkw(text, 1, field)
        assert derivative(wf.poly, "z") == mk(fprime, 1, field)
        rep = discriminant_z(wf)
        assert rep.disc == mk(want, 1, field)
        assert rep.disc == sylvester_resultant(wf.poly)

    def test_factored_char_p_sweep(self):
        # f = prod (z - s_i) with distinct s_i and n = p or 2p, so that
        # deg f' < n - 1; the raw resultant is
        # (-1)^(n(n-1)/2) * prod_{i<j} (s_i - s_j)^2, sign included
        rng = random.Random(6061)
        ctx = VarContext(1)
        for p in (2, 3, 5):
            field = Field.finite(p)
            z = Poly.variable(ctx, field, "z")
            for n in (p, 2 * p):
                for _ in range(3):
                    roots = []
                    while len(roots) < n:
                        s = rand_series(rng, ctx, field, rng.randrange(0, 2))
                        if all(s != r for r in roots):
                            roots.append(s)
                    f = Poly.one(ctx, field)
                    for s in roots:
                        f = f.mul(z.sub(s))
                    want = Poly.one(ctx, field)
                    for i in range(n):
                        for j in range(i + 1, n):
                            diff = roots[i].sub(roots[j])
                            want = want.mul(diff).mul(diff)
                    if n * (n - 1) // 2 % 2:
                        want = want.neg()
                    assert derivative(f, "z").degree_in("z") < n - 1
                    assert discriminant_z(weierstrass_validate(f)).disc == want, f.format()

    def test_factored_char0_sign(self, QQ):
        rep = discriminant_z(mkw("z^3 - 6*x1*z^2 + 11*x1^2*z - 6*x1^3", 1, QQ))
        assert rep.disc == mk("-4*x1^6", 1, QQ)


class TestIntegerResultant:
    """Q inputs run on their own values: ints where integral, Fractions elsewhere."""

    def spy(self, monkeypatch):
        rings = []
        real = kappainv.quasiord.determinant

        def determinant(fc, gc):
            rings.append(fc[0].ring)
            return real(fc, gc)

        monkeypatch.setattr(kappainv.quasiord, "determinant", determinant)
        return rings

    @pytest.mark.parametrize("text, d, integral", [
        ("z^2 - x1^3", 1, True),
        ("z^4 - 2*x1^3*z^2 + x1*z + x1^6", 1, True),
        ("z^3 - 6*x1*z^2 + 11*x1^2*z - 6*x1^3", 1, True),
        ("z^3 - 1/2*x1^2*z - 1/3*x1^5", 1, False),
        ("z^4 + 2/3*x1*x2*z^2 - x1^3*z + 5*x2^7", 2, False),
    ])
    def test_q_inputs_match_the_sylvester_oracle(self, QQ, monkeypatch, text, d, integral):
        rings = self.spy(monkeypatch)
        wf = mkw(text, d, QQ)
        rep = discriminant_z(wf)
        assert rep.disc == sylvester_resultant(wf.poly)
        assert rings == [QQ]
        assert rep.disc.ring == QQ
        if integral:
            assert all(type(c) is int for c in rep.disc.terms.values())

    def test_seeded_sweep_over_q_and_gf7(self, QQ, F7, monkeypatch):
        rings = self.spy(monkeypatch)
        rng = random.Random(20261018)
        for i in range(120):
            field = [QQ, F7][i % 2]
            wf = rand_weierstrass(rng, field)
            if field is QQ and i % 4 == 0:
                # scale one non-leading coefficient to leave Z
                e = next(e for e in wf.poly.terms if e != wf.poly.ctx.unit("z", wf.n))
                terms = dict(wf.poly.terms)
                terms[e] = QQ.div(terms[e], 2)
                wf = WeierstrassPoly(Poly(wf.poly.ctx, QQ, terms), wf.n)
            T = rng.choice([None, rng.randint(1, 12)])
            rings.clear()
            rep = discriminant_z(wf, T)
            exact = sylvester_resultant(wf.poly)
            trunc = wf.poly.truncate(T).trunc
            assert rep.disc == exact.truncate(trunc), (wf.poly.format(), T)
            assert rep.disc.trunc == trunc
            if rings:  # no determinant when f' = 0
                assert rings == [field], wf.poly.format()


class TestSubresultantStart:
    """The sequence starts at g = h = 1 and divides or multiplies by no 1."""

    @pytest.mark.parametrize("text, d", [
        ("z^4 - 2*x1^3*z^2 + x1*z + x1^6", 1),
        ("z^3 + x1*x2*z + x2^5", 2),
    ])
    def test_monic_input_makes_no_division_or_product_by_one(self, QQ, F7, monkeypatch, text, d):
        by_one = []
        real_div, real_mul = kappainv.quasiord.exact_div, Poly.mul

        def is_one(p):
            return p.terms == {(0,) * p.ctx.nvars: p.ring.one}

        def exact_div(a, b):
            by_one.append(("exact_div", is_one(b)))
            return real_div(a, b)

        def mul(a, b, T=None):
            by_one.append(("mul", is_one(a) or is_one(b)))
            return real_mul(a, b, T)

        monkeypatch.setattr(kappainv.quasiord, "exact_div", exact_div)
        monkeypatch.setattr(Poly, "mul", mul)
        for field in (QQ, F7):
            wf = mkw(text, d, field)
            want = sylvester_resultant(wf.poly)
            by_one.clear()
            assert discriminant_z(wf).disc == want
            assert ("exact_div", False) in by_one
            assert ("exact_div", True) not in by_one and ("mul", True) not in by_one


    @pytest.mark.parametrize("text, d, oracle", [
        ("z^4 - 2*x1^3*z^2 + x1*z + x1^6", 1, None),
        ("z^3 + x1*x2*z + x2^5", 2, None),
        ("z^6 + x1*z^3 + x2^5", 2, None),  # the final lc^steps scaling meets zeros
        ("z^16 - 3*x1^5*x2^7", 2,
         lambda F: binomial_resultant(16, mk("-3*x1^5*x2^7", 2, F))),
        ("z^9 + x1*x2*z^8 - x1^10 - 2*x2^12", 2,
         lambda F: trinomial_resultant(9, mk("x1*x2", 2, F), mk("-x1^10 - 2*x2^12", 2, F))),
    ])
    def test_zero_coefficients_are_carried(self, QQ, F7, monkeypatch, text, d, oracle):
        # no product, sum or division is formed with a zero operand
        zero_operand = []
        real_div, real_mul, real_add = kappainv.quasiord.exact_div, Poly.mul, Poly.add

        def exact_div(a, b):
            zero_operand.append(a.is_zero() or b.is_zero())
            return real_div(a, b)

        def mul(a, b, T=None):
            zero_operand.append(a.is_zero() or b.is_zero())
            return real_mul(a, b, T)

        def add(a, b, T=None):
            zero_operand.append(a.is_zero() or b.is_zero())
            return real_add(a, b, T)

        for field in (QQ, F7):
            wf = mkw(text, d, field)
            want = sylvester_resultant(wf.poly) if oracle is None else oracle(field)
            monkeypatch.setattr(kappainv.quasiord, "exact_div", exact_div)
            monkeypatch.setattr(Poly, "mul", mul)
            monkeypatch.setattr(Poly, "add", add)
            zero_operand.clear()
            got = discriminant_z(wf).disc
            monkeypatch.undo()
            assert got == want
            assert zero_operand and not any(zero_operand)

    def test_constant_powers_form_no_product(self, QQ, F7, monkeypatch):
        # h^delta, h^(k-1) and the last subresultant's c^k raise a constant
        # by its coefficient: no Poly.mul runs inside a constant's power
        constant_powers, products, inside = [], [], []
        real_pow, real_mul = Poly.pow_, Poly.mul

        def pow_(p, n, T=None):
            inside.append(n > 1 and list(p.terms) == [(0,) * p.ctx.nvars])
            if inside[-1]:
                constant_powers.append(n)
            try:
                return real_pow(p, n, T)
            finally:
                inside.pop()

        def mul(a, b, T=None):
            if any(inside):
                products.append((a, b))
            return real_mul(a, b, T)

        for text, d in [("z^4 - 2*x1^3*z^2 + x1*z + x1^6", 1), ("z^3 + x1*x2*z + x2^5", 2),
                        ("z^6 + x1*z^3 + x2^5", 2), ("z^16 - 3*x1^5*x2^7", 2),
                        ("z^9 + x1*x2*z^8 - x1^10 - 2*x2^12", 2)]:
            for field in (QQ, F7):
                wf = mkw(text, d, field)
                want = sylvester_resultant(wf.poly)
                monkeypatch.setattr(Poly, "pow_", pow_)
                monkeypatch.setattr(Poly, "mul", mul)
                got = discriminant_z(wf).disc
                monkeypatch.undo()
                assert got == want
        assert constant_powers and products == []

    def test_the_last_h_is_not_formed(self, QQ, F7, monkeypatch):
        # two corners at n = 9: the last step has delta = n - 3 = 6 and ends
        # the sequence at B[0], which reads no h, so h = g^6 / h^5 (9 more
        # products) is not formed
        products = []
        real_mul = Poly.mul

        def mul(a, b, T=None):
            products.append((a, b))
            return real_mul(a, b, T)

        for field in (QQ, F7):
            wf = mkw("z^9 + x1*x2*z^8 - 2*x1^10 - 3*x2^12", 2, field)
            want = sylvester_resultant(wf.poly)
            products.clear()
            monkeypatch.setattr(Poly, "mul", mul)
            got = discriminant_z(wf).disc
            monkeypatch.undo()
            assert got == want
            assert len(products) == 29

    def test_binomial_sweep_against_the_closed_form(self, QQ, F5, F7):
        # the closed form itself, on two values worked by hand
        assert binomial_resultant(4, mk("-3*x1^5*x2^7", 2, QQ)) == mk("-6912*x1^15*x2^21", 2, QQ)
        assert binomial_resultant(5, mk("2*x1^3", 1, F7)) == mk("6*x1^12", 1, F7)
        rng = random.Random(1616)
        for _ in range(80):
            field = rng.choice([QQ, F5, F7])
            p = field.characteristic
            n = rng.choice([k for k in range(2, 17) if p == 0 or k % p])
            d = rng.randint(1, 2)
            ctx = VarContext(d)
            A = (0,)
            while not any(A):
                A = tuple(rng.randrange(0, 8) for _ in range(d))
            c = field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
            a = Poly(ctx, field, {A + (0,): field.neg(c)})
            wf = weierstrass_validate(a.add(Poly.monomial(ctx, field, ctx.unit("z", n))))
            report = discriminant_z(wf)
            assert report.exact and report.disc == binomial_resultant(n, a)


class TestMonomialUnit:
    def test_yes(self, F2):
        g = mk("x1^2*x2^2", 2, F2)
        mu = is_monomial_times_unit(g)
        assert mu.status == "yes" and mu.exponent == (2, 2)

    def test_zero_is_no(self, QQ):
        mu = is_monomial_times_unit(Poly.zero(VarContext(1), QQ))
        assert mu.status == "no"

    def test_coprime_support_is_no(self, QQ):
        mu = is_monomial_times_unit(mk("x1^3 + x2^3", 2, QQ))
        assert mu.status == "no"

    def test_unit_plus_tail(self, QQ):
        mu = is_monomial_times_unit(mk("1 + x1", 1, QQ))
        assert mu.status == "yes" and mu.exponent == (0,)

    def test_truncated_yes_downgrades(self, QQ):
        g = mk("x1^2 + x1^3", 1, QQ).truncate(4)
        g = Poly(g.ctx, g.ring, g.terms, trunc=4)
        assert is_monomial_times_unit(g).status == "inconclusive"

    def test_truncated_unit_stays_yes(self, QQ):
        g = Poly(VarContext(1), QQ, {(0, 0): Fraction(1), (2, 0): Fraction(1)}, trunc=4)
        assert is_monomial_times_unit(g).status == "yes"

    def test_truncated_no_is_definitive(self, QQ):
        g = Poly(VarContext(2), QQ,
                 {(3, 0, 0): Fraction(1), (0, 3, 0): Fraction(1)}, trunc=5)
        assert is_monomial_times_unit(g).status == "no"

    def test_truncated_zero_is_inconclusive(self, QQ):
        g = Poly.zero(VarContext(1), QQ, trunc=4)
        assert is_monomial_times_unit(g).status == "inconclusive"

    def test_rejects_z_terms(self, QQ):
        with pytest.raises(ContractViolation):
            is_monomial_times_unit(mk("z + x1", 1, QQ))


class TestClassify:
    def test_quasi_ordinary_not_teissier(self, F2):
        rep = classify(mkw("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F2))
        assert rep.quasi_ordinary is True
        assert rep.teissier is False
        assert rep.kappa.terminal is Terminal.MINUS_ONE

    def test_teissier_not_quasi_ordinary(self, F2):
        rep = classify(mkw("z^2 - x1^3", 1, F2))
        assert rep.teissier is True
        assert rep.quasi_ordinary is False

    def test_three_stage_example(self, F2):
        rep = classify(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
        assert rep.teissier is True
        assert rep.quasi_ordinary is False
        assert rep.presentation is not None

    def test_both_true_possible(self, F2):
        rep = classify(mkw("z^3 - x1^4", 1, F2))
        assert rep.teissier is True
        assert rep.quasi_ordinary is True

    def test_char0_cross_check_fixtures(self, QQ):
        # on irreducible inputs, terminal infinity iff the discriminant is a
        # unit times a monomial, verified instance by instance; the reducible
        # (z - x1*x2)(z + x1*x2) is quasi-ordinary, and its sole vertex
        # (1, 1), of lattice order 1, admits only the power 2, which
        # z^2 - x1^2*x2^2 is not: kappa is inconclusive, not inf
        cases = [
            ("z^2 - x1^3", 1, Terminal.INFINITY, True),
            ("z^2 - 2*x1*z + x1^2 - x1^3", 1, Terminal.INFINITY, True),
            ("z^2 - x1^2*x2^2", 2, Terminal.INCONCLUSIVE, True),
            ("z^2 - x1^3 - x2^3", 2, Terminal.MINUS_ONE, False),
            ("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, Terminal.MINUS_ONE, False),
        ]
        for text, d, terminal, qo in cases:
            rep = classify(mkw(text, d, QQ))
            assert rep.kappa.terminal is terminal, text
            assert rep.quasi_ordinary == qo, text

    def test_char0_cross_check_two_stage(self, QQ):
        # the inseparable-flavored input, read over Q, is a product of two
        # conjugate quartics: the second stage's vertex (15/4, 15/2) has
        # order 2 modulo Z^2 + Z*(3/2, 3), and the square it admits is
        # impossible over any extension (it would be a product of distinct
        # binomials), so the second stage is inconclusive; the discriminant
        # is still a unit times a monomial
        from kappainv import Poly, VarContext
        ctx = VarContext(2)
        a = mk("x1^3*x2^6", 2, QQ)
        z = Poly.variable(ctx, QQ, "z")
        f = z.mul(z).sub(a).pow_(4).sub(mk("x1^15*x2^30", 2, QQ))
        rep = classify(weierstrass_validate(f))
        assert rep.kappa.terminal is Terminal.INCONCLUSIVE
        assert rep.kappa.vertices == ((Fraction(3, 2), Fraction(3)),)
        assert rep.kappa.multiplicities == (8, 4)
        assert rep.teissier is None
        assert rep.quasi_ordinary is True
        assert rep.discriminant.monomial_unit.status == "yes"

    def test_inconclusive_propagates(self, F2):
        from kappainv import KappaConfig
        rep = classify(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2),
                       KappaConfig(truncation=2))
        assert rep.teissier is None
        assert not rep.decided

    # a truncated discriminant decides nothing when it vanishes below the
    # certificate, nor when its low monomial may fail to divide hidden terms
    @pytest.mark.parametrize("text, T", [
        ("z^3 - x1^2*x2^4", 4),
        ("z^4 + 4*x1^3*x2^2*z^2 + 3*x1*x2^3*z^2 + x1^3*x2^4*z + x1", 5),
    ])
    def test_truncated_zero_discriminant_is_inconclusive(self, QQ, text, T):
        from kappainv import KappaConfig
        rep = classify(mkw(text, 2, QQ), KappaConfig(truncation=T))
        # values mod x^T: 27*x1^4*x2^8 vanishes mod x^4 (3x3 matrix, cofactor
        # expansion); the second is Eisenstein in r = x1, and its
        # 16p^4r - 128p^2r^2 + 256r^3 is 256*x1^3 mod x^5 (7x7 matrix, Bareiss)
        assert rep.discriminant.disc.format() == {4: "0", 5: "256*x1^3"}[T]
        assert rep.discriminant.exact is False
        assert rep.discriminant.monomial_unit.status == "inconclusive"
        assert rep.quasi_ordinary is None


def translated_binomial(rng, field, d, n, high=None):
    """(z + s)^n - c*x^A, expanded: s has 1-3 terms of x-degree >= 1, A_i in 1..3n.

    With high, plus x1^high*z: at high = T - 1 a translation of z pushes
    part of that term to x-degree T, where the truncated input has none.
    """
    ctx = VarContext(d)
    shift = Poly.zero(ctx, field)
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 3) for _ in range(d))
        if any(e):
            c = field.from_int(rng.choice([-2, -1, 1, 2, 3]))
            shift = shift.add(Poly(ctx, field, {e + (0,): c}))
    A = tuple(rng.randint(1, 3 * n) for _ in range(d))
    tail = Poly(ctx, field, {A + (0,): field.from_int(rng.choice([-1, 1]))})
    f = Poly.variable(ctx, field, "z").add(shift).pow_(n).sub(tail)
    if high is not None:
        f = f.add(Poly(ctx, field, {(high,) + (0,) * (d - 1) + (1,): field.one}))
    return weierstrass_validate(f)


class TestClassifyDiscriminant:
    """classify takes the discriminant from the z stage's prepared polynomial;
    it must report what discriminant_z reports on the raw input."""

    @staticmethod
    def spy(monkeypatch):
        seen = []
        real = kappainv.quasiord.discriminant_z

        def recording(wf, T=None):
            seen.append(wf)
            return real(wf, T)

        monkeypatch.setattr(kappainv.quasiord, "discriminant_z", recording)
        return seen

    @staticmethod
    def assert_same_report(got, want):
        assert got.disc == want.disc
        assert got.disc.trunc == want.disc.trunc
        assert got.exact == want.exact
        assert got.monomial_unit == want.monomial_unit

    def test_translated_binomials_against_the_raw_input(self, monkeypatch):
        seen = self.spy(monkeypatch)
        rng = random.Random(2301)
        fields = [Field.rationals(), Field.finite(2), Field.finite(3), Field.finite(5)]
        prepared = exact = truncated = 0
        for field in fields:
            for d in (1, 2, 3):
                for T in (4, 8, 16, 64):
                    for high in (None, None, T - 1):
                        wf = translated_binomial(rng, field, d, rng.randint(2, 4), high)
                        rep = classify(wf, KappaConfig(truncation=T)).discriminant
                        raw = discriminant_z(wf, T)
                        self.assert_same_report(rep, raw)
                        f_T = wf.poly.truncate(T)
                        # T applies to the value only when the input reaches it
                        assert rep.disc == sylvester_resultant(f_T).truncate(f_T.trunc)
                        prepared += seen[-1].poly != f_T
                        exact += raw.exact
                        truncated += not raw.exact
        # the prepared polynomial stood in for the input, and both
        # certificates occurred
        assert prepared > 0 and exact > 0 and truncated > 0

    @pytest.mark.parametrize("text, d, p", [
        ("z^2 - x1^3", 1, 2), ("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, 2),
        ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, 2), ("z^2 - x1^3", 1, 0),
        ("z^2 - 2*x1*z + x1^2 - x1^3", 1, 0),
        ("z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9", 1, 0),
    ])
    def test_readme_examples(self, text, d, p):
        field = Field.rationals() if p == 0 else Field.finite(p)
        wf = mkw(text, d, field)
        self.assert_same_report(classify(wf).discriminant, discriminant_z(wf, 64))

    def test_a_translation_that_drops_a_term_falls_back_to_the_input(self, QQ, monkeypatch):
        # z -> z - x1 turns x1^63*z into x1^63*z - x1^64, and -x1^64 lies at
        # T = 64: the prepared discriminant would be the truncated -4*x1^3
        seen = self.spy(monkeypatch)
        wf = mkw("z^2 + 2*x1*z + x1^2 - x1^3 + x1^63*z", 1, QQ)
        rep = classify(wf).discriminant
        assert seen[0].poly == wf.poly and seen[0].poly.trunc is None
        assert rep.disc.format() == "-x1^126 - 4*x1^64 - 4*x1^3"
        assert rep.exact
        assert rep.monomial_unit == MonomialUnitStatus("yes", (3,))
        self.assert_same_report(rep, discriminant_z(wf, 64))
