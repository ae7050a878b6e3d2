import collections
import contextlib
import io
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kappainv.quasiord
from kappainv import (ZZ, ContractViolation, Field, KappaConfig, Poly, Terminal, VarContext,
                      WeierstrassPoly, classify, discriminant_z, is_monomial_times_unit,
                      weierstrass_validate)
from kappainv import cli
from kappainv.poly import derivative, exact_div
from kappainv.quasiord import MonomialUnitStatus, _div, _z_coefficients
from conftest import (guard_bits, mk, mkw, monomial, pack, poly_pow, repeated_pow, variable,
                      watch_key_bound)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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


def kernel_resultant(f):
    """Res_z(f, df/dz) by the subresultant kernel, whatever the shape of f
    (discriminant_z takes a z-trinomial in closed form); f' must be nonzero."""
    return kappainv.quasiord.determinant(_z_coefficients(f), _z_coefficients(derivative(f, "z")))


def binomial_resultant(n, a):
    """Res_z(z^n + a, n*z^(n-1)) = n^n * a^(n-1), for a free of z."""
    return poly_pow(a, n - 1).mul(Poly.constant(a.ctx, a.ring, a.ring.from_int(n ** n)))


def trinomial_resultant(n, b, a):
    """Res_z(f, f') for f = z^n + b*z^(n-1) + a, with b and a free of z.

    It is the product of f'(r) = r^(n-2) * (n*r + (n-1)*b) over the roots r
    of f.  The roots multiply to (-1)^n * a, and the product of n*r + (n-1)*b
    is (-n)^n * f(-(n-1)*b/n), so the resultant is
    a^(n-2) * ((-1)^(n-1) * (n-1)^(n-1) * b^n + n^n * a).
    """
    ctx, ring = a.ctx, a.ring
    inner = poly_pow(b, n).mul(
        Poly.constant(ctx, ring, ring.from_int((-1) ** (n - 1) * (n - 1) ** (n - 1))))
    return poly_pow(a, n - 2).mul(inner.add(a.mul(Poly.constant(ctx, ring, ring.from_int(n ** n)))))


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
            z = variable(ctx, field, "z")
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
            z = variable(ctx, field, "z")
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
        want = sylvester_resultant(wf.poly)
        kernel = kernel_resultant(wf.poly)
        assert rings == [QQ]
        for disc in (kernel, discriminant_z(wf).disc):
            assert disc == want
            assert disc.ring == QQ
            if integral:
                assert all(type(c) is int for c in disc.terms.values())

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
        real_div, real_mul = kappainv.quasiord._div, kappainv.quasiord._mul

        def is_one(p, ring):
            return p == {0: ring.one}

        def div(a, b, ring, guard):
            by_one.append(("div", is_one(b, ring)))
            return real_div(a, b, ring, guard)

        def mul(a, b, ring):
            by_one.append(("mul", is_one(a, ring) or is_one(b, ring)))
            return real_mul(a, b, ring)

        monkeypatch.setattr(kappainv.quasiord, "_div", div)
        monkeypatch.setattr(kappainv.quasiord, "_mul", mul)
        for field in (QQ, F7):
            wf = mkw(text, d, field)
            want = sylvester_resultant(wf.poly)
            by_one.clear()
            assert kernel_resultant(wf.poly) == want
            assert ("div", False) in by_one
            assert ("div", True) not in by_one and ("mul", True) not in by_one

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
        # no product, difference or division is formed with a zero operand
        zero_operand = []
        kernel = kappainv.quasiord
        real_div, real_mul, real_sub = kernel._div, kernel._mul, kernel._sub

        def div(a, b, ring, guard):
            zero_operand.append(not a or not b)
            return real_div(a, b, ring, guard)

        def mul(a, b, ring):
            zero_operand.append(not a or not b)
            return real_mul(a, b, ring)

        def sub(a, b, ring):
            zero_operand.append(not a or not b)
            return real_sub(a, b, ring)

        for field in (QQ, F7):
            wf = mkw(text, d, field)
            want = sylvester_resultant(wf.poly) if oracle is None else oracle(field)
            monkeypatch.setattr(kernel, "_div", div)
            monkeypatch.setattr(kernel, "_mul", mul)
            monkeypatch.setattr(kernel, "_sub", sub)
            zero_operand.clear()
            got = kernel_resultant(wf.poly)
            monkeypatch.undo()
            assert got == want
            assert zero_operand and not any(zero_operand)

    def test_constant_powers_form_no_product(self, QQ, F7, monkeypatch):
        # a power of one term (h^delta, h^(k-1), the last subresultant's c^k,
        # a monomial lc^steps) or of two terms (b^(k-1) in the closed form)
        # is formed in closed form: no _mul runs inside it
        sizes, products, inside = set(), [], []
        real_pow, real_mul = kappainv.quasiord._pow, kappainv.quasiord._mul

        def pow_(a, n, ring):
            inside.append(n > 1 and len(a) <= 2)
            if inside[-1]:
                sizes.add("constant" if list(a) == [0] else len(a))
            try:
                return real_pow(a, n, ring)
            finally:
                inside.pop()

        def mul(a, b, ring):
            if any(inside):
                products.append((a, b))
            return real_mul(a, b, ring)

        for text, d in [("z^4 - 2*x1^3*z^2 + x1*z + x1^6", 1), ("z^3 + x1*x2*z + x2^5", 2),
                        ("z^6 + x1*z^3 + x2^5", 2), ("z^16 - 3*x1^5*x2^7", 2),
                        ("z^9 + x1*x2*z^8 - x1^10 - 2*x2^12", 2)]:
            for field in (QQ, F7):
                wf = mkw(text, d, field)
                want = sylvester_resultant(wf.poly)
                monkeypatch.setattr(kappainv.quasiord, "_pow", pow_)
                monkeypatch.setattr(kappainv.quasiord, "_mul", mul)
                got = kernel_resultant(wf.poly), discriminant_z(wf).disc
                monkeypatch.undo()
                assert got == (want, want)
        assert sizes == {"constant", 1, 2} and products == []

    def test_the_last_h_is_not_formed(self, QQ, F7, monkeypatch):
        # two corners at n = 9: the last step has delta = n - 3 = 6 and ends
        # the sequence at B[0], which reads no h, so h = g^6 / h^5 (two more
        # powers, of exponents 6 and 5, and one more division) is not formed
        calls = []
        kernel = kappainv.quasiord
        real_mul, real_pow, real_div = kernel._mul, kernel._pow, kernel._div

        def mul(a, b, ring):
            calls.append("mul")
            return real_mul(a, b, ring)

        def pow_(a, n, ring):
            calls.append(n)
            return real_pow(a, n, ring)

        def div(a, b, ring, guard):
            calls.append("div")
            return real_div(a, b, ring, guard)

        for field in (QQ, F7):
            wf = mkw("z^9 + x1*x2*z^8 - 2*x1^10 - 3*x2^12", 2, field)
            want = sylvester_resultant(wf.poly)
            calls.clear()
            monkeypatch.setattr(kernel, "_mul", mul)
            monkeypatch.setattr(kernel, "_pow", pow_)
            monkeypatch.setattr(kernel, "_div", div)
            got = kernel_resultant(wf.poly)
            monkeypatch.undo()
            assert got == want
            assert calls.count("mul") == 24
            assert [c for c in calls if c != "mul"] == [1, "div", "div", 6, "div", 1]

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
            wf = weierstrass_validate(a.add(monomial(ctx, field, ctx.unit("z", n))))
            report = discriminant_z(wf)
            assert report.exact and report.disc == binomial_resultant(n, a)


# -- the packed kernel against the Poly-based sequence it replaced ---------------

def resultant_path(f: Poly) -> str:
    """The path discriminant_z takes on f: "closed" for z^n + a*z^k + b with
    n nonzero in the field, else "f' = 0" or "kernel"."""
    zidx = f.ctx.var_index("z")
    powers = {e[zidx] for e in f.terms}
    n = max(powers)
    if len(powers - {0, n}) <= 1 and not f.ring.is_zero(f.ring.from_int(n)):
        return "closed"
    return "f' = 0" if derivative(f, "z").is_zero() else "kernel"


def oracle_prem(A: list, B: list) -> list:
    """The pseudo-remainder of lc(B)^(deg A - deg B + 1) * A by B on Poly
    coefficients, leading zeros dropped."""
    lead = B[0]
    unit = lead.is_one()
    R = A
    steps = len(A) - len(B) + 1
    while len(R) >= len(B):
        top = R[0]
        tail = B[1:] if top.is_one() else [b if b.is_zero() else top.mul(b) for b in B[1:]]
        rest = R[1:] if unit else [r if r.is_zero() else lead.mul(r) for r in R[1:]]
        R = [r if t.is_zero() else t.neg() if r.is_zero() else r.sub(t)
             for r, t in zip(rest, tail)] + rest[len(tail):]
        steps -= 1
        while R and R[0].is_zero():
            R = R[1:]
    if steps > 0 and not unit:
        scale = poly_pow(lead, steps)
        R = [r if r.is_zero() else scale.mul(r) for r in R]
    return R


def oracle_determinant(fc: list, gc: list) -> Poly:
    """det Syl(f, g) by the subresultant sequence on Poly coefficients, with
    Poly.mul, poly_pow and exact_div: the runtime path before packing."""
    A, B = fc, gc
    g = h = None
    sign = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if len(A) % 2 == 0 and len(B) % 2 == 0:
            sign = -sign
        R = oracle_prem(A, B)
        if not R:
            return Poly.zero(fc[0].ctx, fc[0].ring)
        if g is not None:
            divisor = g.mul(poly_pow(h, delta))
            R = [r if r.is_zero() else exact_div(r, divisor) for r in R]
        A, B = B, R
        g = A[0]
        if delta == 1:
            h = g
        elif len(A) > 2 or len(B) > 1:
            gd = poly_pow(g, delta)
            h = gd if h is None else exact_div(gd, poly_pow(h, delta - 1))
    k = len(A) - 1
    bk = poly_pow(B[0], k)
    res = bk if h is None or k == 1 else exact_div(bk, poly_pow(h, k - 1))
    return res if sign > 0 else res.neg()


KERNEL_FIELDS = {
    "Q-int": Field.rationals(), "Q-fraction": Field.rationals(), "GF(7)": Field.finite(7),
    "GF(2^8)": Field.finite(2, 8, workloads.MODULI[(2, 8)]),
    "GF(5^4)": Field.finite(5, 4, workloads.MODULI[(5, 4)]),
}


def kernel_input(rng, name, d, n, shape):
    """A monic f of z-degree n in d x-variables over the named field.

    "dense": every z^k below n has a coefficient of one or two terms with
    exponents up to 1.  "corner": shaped like the benchmark's two-corner
    family, z^n + c*m*z^(n-1) + two z-free terms of degree up to n + 3.
    """
    field = KERNEL_FIELDS[name]

    def coeff():
        if name == "Q-int":
            return rng.choice([-3, -2, -1, 1, 2, 3])
        if name == "Q-fraction":
            return field.div(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4]))
        return field.element(rng.randrange(1, field.order))

    def mono(top, k):
        return tuple(rng.randint(0, top) for _ in range(d)) + (k,)

    terms = {(0,) * d + (n,): field.one}
    if shape == "dense":
        for k in range(n):
            for _ in range(rng.randint(1, 2)):
                terms[mono(1, k)] = coeff()
    else:
        terms[mono(1, n - 1)] = coeff()
        for _ in range(2):
            terms[mono(n + 3, 0)] = coeff()
    return Poly(VarContext(d), field, terms)


# the sequence on a dense f swells fast with n * d (about 0.3 s for kernel and
# oracle at n = 12, d = 1 over Q with fractions), so dense inputs stop at n * d = 10
def kernel_cases():
    rng = random.Random(20261020)
    for name in KERNEL_FIELDS:
        for d in (1, 2, 3):
            for n in range(2, 17):
                for shape in ("dense", "corner") if n * d <= 10 else ("corner",):
                    f = kernel_input(rng, name, d, n, shape)
                    g = derivative(f, "z")
                    if not g.is_zero():
                        yield f"{name} d={d} n={n} {shape}", f, g


class TestPackedKernel:
    """determinant on packed keys, against the Poly-based sequence and Sylvester."""

    def test_matches_the_oracle_and_sylvester(self, monkeypatch):
        seen = watch_key_bound(monkeypatch)
        checked = sylvester = 0
        for label, f, g in kernel_cases():
            fc, gc = _z_coefficients(f), _z_coefficients(g)
            got = kappainv.quasiord.determinant(fc, gc)
            assert got == oracle_determinant(fc, gc), label
            assert got.trunc is None and got.ring == f.ring
            if f.ring.characteristic == 0 and all(type(c) is int for c in f.terms.values()):
                assert all(type(c) is int for c in got.terms.values()), label
            if len(fc) + len(gc) <= 11:  # the Sylvester expansion grows as 2^size
                assert got == sylvester_resultant(f), label
                sylvester += 1
            checked += 1
        assert (checked, sylvester) == (300, 110) and seen["keys"] > 0

    def test_every_benchmark_determinant(self, monkeypatch):
        # every discriminant_z input the three workloads take at seeds 7 and
        # 13 against the Poly-based sequence, and the path each input takes
        inputs, kernel_calls = [], []
        real, real_det = kappainv.quasiord.discriminant_z, kappainv.quasiord.determinant

        def recording(wf, T=None):
            inputs.append((wf, T, real(wf, T)))
            return inputs[-1][2]

        def determinant(fc, gc):
            kernel_calls.append(len(fc))
            return real_det(fc, gc)

        for module in (cli, kappainv.quasiord):
            monkeypatch.setattr(module, "discriminant_z", recording)
        monkeypatch.setattr(kappainv.quasiord, "determinant", determinant)
        split = {}
        for seed in (7, 13):
            for name in sorted(workloads.WORKLOADS):
                inputs.clear()
                kernel_calls.clear()
                for case in workloads.build(name, seed):
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(list(case.argv))
                paths = {"closed": 0, "kernel": 0, "f' = 0": 0}
                for wf, T, rep in inputs:
                    f = wf.poly.truncate(T)
                    g = derivative(f, "z")
                    paths[resultant_path(f)] += 1
                    want = (Poly.zero(f.ctx, f.ring) if g.is_zero() else
                            oracle_determinant(_z_coefficients(f), _z_coefficients(g)))
                    assert rep.disc == want.truncate(f.trunc), (name, seed, f.format())
                assert len(kernel_calls) == paths["kernel"], (name, seed)
                split[name, seed] = paths
        monkeypatch.undo()
        for seed in (7, 13):
            # the kernel's one input is ref-two-vertex-gf2: n = 2 over GF(2)
            assert [split[name, seed] for name in ("towers", "discriminants", "field-roots")] == [
                {"closed": 165, "kernel": 1, "f' = 0": 58},
                {"closed": 113, "kernel": 1, "f' = 0": 2},
                {"closed": 109, "kernel": 1, "f' = 0": 2}]

    @pytest.mark.parametrize("num, den", [("x1^2 + x2", "x1"), ("x1^2 + 1", "x1 + 1")])
    def test_div_rejects_non_divisors(self, QQ, F7, num, den):
        for field in (QQ, F7):
            a, b = mk(num, 2, field), mk(den, 2, field)
            width = 3
            with pytest.raises(ValueError, match="not exactly divisible"):
                _div(pack(a, width), pack(b, width), field, guard_bits(width, 3))
            # the product is divided back exactly
            prod = pack(a.mul(b), width)
            assert _div(prod, pack(b, width), field, guard_bits(width, 3)) == pack(a, width)

# -- Swan's closed form for z-trinomials --------------------------------------------

SWAN_FIELDS = {
    "Q": Field.rationals(), "GF(2)": Field.finite(2), "GF(3)": Field.finite(3),
    "GF(5)": Field.finite(5), "GF(7)": Field.finite(7),
    "GF(4)": Field.finite(2, 2, (1, 1, 1)), "GF(9)": Field.finite(3, 2, (1, 0, 1)),
}
SHAPES = ("multi", "monomial", "zero")


def swan_input(rng, field, n, k, a_shape, b_shape):
    """z^n + a*z^k + b in one or two x-variables, a and b each "multi" (two
    or three terms), "monomial" or "zero".  Over Q every fourth input has a
    fractional coefficient.  The kernel, the oracle here, swells on two
    multi-term coefficients in two variables at large n, where the closed
    form does not, so above n = 8 those take one variable."""
    d = 1 if n > 8 and a_shape == b_shape == "multi" else rng.randint(1, 2)
    fraction = field.characteristic == 0 and rng.randrange(4) == 0

    def coeff():
        if field.characteristic == 0:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            return field.div(c, rng.choice([2, 3])) if fraction else c
        return field.element(rng.randrange(1, field.order))

    terms = {(0,) * d + (n,): field.one}
    for shape, zdeg in ((a_shape, k), (b_shape, 0)):
        count = {"multi": rng.randint(2, 3), "monomial": 1, "zero": 0}[shape]
        exponents = set()
        while len(exponents) < count:
            e = tuple(rng.randint(0, 3) for _ in range(d))
            if any(e):  # keeps f(0) = 0 and distinct terms
                exponents.add(e)
        terms.update((e + (zdeg,), coeff()) for e in exponents)
    return WeierstrassPoly(Poly(VarContext(d), field, terms), n)


def swan_cases():
    rng = random.Random(20261020)
    for name, field in SWAN_FIELDS.items():
        for n in range(2, 17):
            for k in range(1, n):
                a_shape, b_shape = rng.choice(SHAPES), rng.choice(SHAPES)
                wf = swan_input(rng, field, n, k, a_shape, b_shape)
                T = rng.choice([None, rng.randint(2, 6)])
                yield f"{name} n={n} k={k} a={a_shape} b={b_shape} T={T}", wf, k, T


class TestSwanClosedForm:
    """discriminant_z on z^n + a*z^k + b against the kernel and Sylvester."""

    def test_matches_the_kernel_and_sylvester(self, monkeypatch):
        kernel_calls = []
        real_det = kappainv.quasiord.determinant

        def determinant(fc, gc):
            kernel_calls.append(len(fc))
            return real_det(fc, gc)

        checked, sylvester, p_divides_n, gcd_above_1, truncated = 0, 0, 0, 0, 0
        for label, wf, k, T in swan_cases():
            f, field, n = wf.poly.truncate(T), wf.poly.ring, wf.n
            g = derivative(f, "z")
            want = Poly.zero(f.ctx, field) if g.is_zero() else real_det(
                _z_coefficients(f), _z_coefficients(g))
            monkeypatch.setattr(kappainv.quasiord, "determinant", determinant)
            kernel_calls.clear()
            rep = discriminant_z(wf, T)
            monkeypatch.undo()
            assert rep.disc == want.truncate(f.trunc), label
            assert rep.disc.trunc == f.trunc and rep.disc.ring == field, label
            p = field.characteristic
            if p and n % p == 0:  # n = 0 in the field: the kernel, unless f' = 0
                assert kernel_calls == ([] if g.is_zero() else [n + 1]), label
                p_divides_n += 1
            else:
                assert kernel_calls == [], label
            if p == 0 and all(type(c) is int for c in f.terms.values()):
                assert all(type(c) is int for c in rep.disc.terms.values()), label
            if n <= 6:  # the Sylvester expansion grows as 2^(2n - 1)
                assert rep.disc == sylvester_resultant(f).truncate(f.trunc), label
                sylvester += 1
            gcd_above_1 += math.gcd(n, k) > 1
            truncated += f.trunc is not None
            checked += 1
        assert (checked, sylvester) == (7 * 120, 7 * 15)
        assert p_divides_n > 200 and gcd_above_1 > 250 and truncated > 150

    def test_worked_values(self, QQ, F2, F7):
        # n = 3, k = 1: Res(z^3 + a*z + b, f') = 27*b^2 + 4*a^3, in every characteristic
        for field, want in ((QQ, "4*x1^6 + 27*x2^6"), (F7, "4*x1^6 + 6*x2^6"), (F2, "x2^6")):
            wf = mkw("z^3 + x1^2*z + x2^3", 2, field)
            assert discriminant_z(wf).disc == mk(want, 2, field)
        # g = gcd(6, 3) = 3, N = 2, K = 1: b^2 * (6^2*b - 3*3*a^2)^3 = 729 * b^2 * (4*b - a^2)^3
        wf = mkw("z^6 + x1*z^3 + x2^5", 2, QQ)
        want = mk("46656*x2^25 - 34992*x1^2*x2^20 + 8748*x1^4*x2^15 - 729*x1^6*x2^10", 2, QQ)
        assert discriminant_z(wf).disc == want == sylvester_resultant(wf.poly)
        # b = 0: z^k divides f, so z^2 does for k > 1, and k = 1 leaves
        # (-1)^(n-1) * (n-1)^(n-1) * a^n
        assert discriminant_z(mkw("z^5 + x1*z^2", 1, QQ)).disc.is_zero()
        assert discriminant_z(mkw("z^5 + x1*z", 1, QQ)).disc == mk("256*x1^5", 1, QQ)


class TestClosedPowers:
    """_pow on packed keys against the repeated product, in every field."""

    @staticmethod
    def base(rng, field, size):
        """A packed base of size terms in x1, x2 (a constant for size 0);
        over Q every third value is a Fraction, integral or not, so that
        bases mix value types."""
        ctx = VarContext(2)
        layout = kappainv.quasiord._layout(ctx.nvars, ctx.var_index("z"), 8)

        def coeff():
            if field.characteristic:
                return field.element(rng.randrange(1, field.order))
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            return Fraction(c, rng.choice([1, 2, 3])) if rng.randrange(3) == 0 else c

        exponents = {(0, 0, 0)} if size == 0 else set()
        while len(exponents) < size:
            exponents.add((rng.randint(0, 3), rng.randint(0, 3), 0))
        return kappainv.quasiord._pack({e: coeff() for e in exponents}, layout)

    def test_matches_the_repeated_product(self):
        rng = random.Random(3303)
        checked, dropped = collections.Counter(), 0
        for name, field in SWAN_FIELDS.items():
            p = field.characteristic
            for size in (0, 1, 2, 3, 4):
                for _ in range(16):
                    a = self.base(rng, field, size)
                    n = rng.randint(1, 3 * p + 2 if p else 12)
                    got = kappainv.quasiord._pow(a, n, field)
                    want = repeated_pow(a, n, field)
                    label = (name, a, n)
                    assert list(got.items()) == list(want.items()), label
                    assert [type(c) for c in got.values()] == [type(c) for c in want.values()], label
                    if p == 0 and all(type(c) is int for c in a.values()):
                        assert all(type(c) is int for c in got.values()), label
                    dropped += len(a) == 2 and len(got) < n + 1
                    checked[len(a)] += 1
        assert min(checked[k] for k in (1, 2, 3, 4)) >= 100 and dropped > 20

    def test_frobenius(self):
        # over GF(q), q = p^k: (c1*x^k1 + c2*x^k2)^p = c1^p*x^(p*k1) + c2^p*x^(p*k2)
        rng = random.Random(3304)
        for field in [F for F in SWAN_FIELDS.values() if F.characteristic]:
            p = field.characteristic
            for _ in range(8):
                a = self.base(rng, field, 2)
                (k1, c1), (k2, c2) = a.items()
                for n in (p, p * p):
                    want = {n * k1: field.pow_(c1, n), n * k2: field.pow_(c2, n)}
                    assert kappainv.quasiord._pow(a, n, field) == want == repeated_pow(a, n, field)


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
        z = variable(ctx, QQ, "z")
        f = poly_pow(z.mul(z).sub(a), 4).sub(mk("x1^15*x2^30", 2, QQ))
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
    f = poly_pow(variable(ctx, field, "z").add(shift), n).sub(tail)
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
