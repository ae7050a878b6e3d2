import itertools
import math
import random
from fractions import Fraction

import pytest

from kappainv import (BinomialPower, ConfigurationError, ContractViolation, EngineError,
                      Field, KappaConfig, Poly, Relation, Terminal, VarContext, back_substitute,
                      binomialize_modulo, compute_kappa, normal_form, parse_polynomial,
                      prepare_polyhedron, substitute, verify_overweight)
import conftest
import kappainv.kappa
import kappainv.poly
from kappainv.polyhedron import StageProjection
from kappainv.kappa import PrepStatus
from conftest import (apply_rewrite, binomial_power_decompose, binomialize_by_roots, divisors_desc,
                      expand, graded_expand, initial_form, leading_reduce, mk, mkw, on_lattice,
                      rand_poly, read_shape, sample_relations, search_binomialize, stage_initial,
                      stage_of, z_stage)
from test_branches import BRANCHES, lattice_orders


def F(a, b=1):
    return Fraction(a, b)


class TestInitialForm:
    def test_char0_double_root(self, QQ):
        f = mk("z^2 - 2*x1*z + x1^2 - x1^3", 1, QQ)
        In = initial_form(f, (F(1),), "z", 2, {})
        assert In == mk("z^2 - 2*x1*z + x1^2", 1, QQ)

    def test_char2_stage_zero(self, F2):
        f = mk("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2)
        In = initial_form(f, (F(3, 2), F(3)), "z", 8, {})
        assert In == mk("z^8 + x1^12*x2^24", 2, F2)

    def test_whole_polynomial(self, QQ):
        f = mk("z^2 - x1^3", 1, QQ)
        assert initial_form(f, (F(3, 2),), "z", 2, {}) == f

    def test_non_vertex_rejected(self, QQ):
        f = mk("z^2 - x1^3", 1, QQ)
        with pytest.raises(ContractViolation):
            initial_form(f, (F(1),), "z", 2, {})


class TestDecompose:
    def test_char2_frobenius_power(self, F2):
        In = mk("z^8 + x1^12*x2^24", 2, F2)
        bp = binomial_power_decompose(In, "z")
        assert isinstance(bp, BinomialPower)
        assert (bp.inner_exp, bp.power) == (2, 4)
        assert bp.coeff == 1
        assert bp.tail_expo[:2] == (3, 6)
        assert expand(bp, In.ctx, F2) == In

    def test_char0_square(self, QQ):
        In = mk("z^2 - 2*x1*z + x1^2", 1, QQ)
        bp = binomial_power_decompose(In, "z")
        assert (bp.inner_exp, bp.power) == (1, 2)
        assert bp.coeff == 1
        assert bp.tail_expo == (1, 0)

    def test_no_free_term_is_not_binomial(self, QQ):
        In = mk("z^2 + x1*z", 1, QQ)
        assert binomial_power_decompose(In, "z") is None

    def test_two_free_terms_is_not_binomial(self, QQ):
        In = mk("z^2 - x1^2 - x1^3", 1, QQ)
        # (3,) is not divisible by 2 and two w-free monomials never fit one tail
        assert binomial_power_decompose(In, "z") is None

    def test_negative_choice_of_root(self, QQ):
        In = mk("z^2 + 2*x1*z + x1^2", 1, QQ)
        bp = binomial_power_decompose(In, "z")
        assert (bp.inner_exp, bp.power, bp.coeff) == (1, 2, Fraction(-1))

    def test_field_extension_signal(self, F5):
        # full binomial grid, but (z - c*x1)^2 needs -2c = 1, so c = 2, and
        # c^2 = 4 != 2 in every extension of GF(5): no extension helps
        In = mk("z^2 + x1*z + 2*x1^2", 1, F5)
        assert binomial_power_decompose(In, "z") is None

    def test_missing_cross_term_in_odd_char_falls_through(self, F5):
        # without the x1*z slot the e=2 pattern is impossible in char 5,
        # so the maximal legitimate decomposition is e=1
        In = mk("z^2 + 3*x1^2", 1, F5)
        bp = binomial_power_decompose(In, "z")
        assert (bp.inner_exp, bp.power) == (2, 1)

    def test_field_extension_over_rationals(self, QQ):
        # the full grid, but the cross term forces c = -1/2 and c^2 = 1/4 != 2
        # over every extension of Q: two distinct factors, never a square
        In = mk("z^2 + x1*z + 2*x1^2", 1, QQ)
        assert binomial_power_decompose(In, "z") is None

    def test_char0_missing_cross_term_falls_through(self, QQ):
        # z^2 - 2x1^2 has no root in Q, and in char 0 the cross term would be
        # forced, so e=2 fails and e=1 matches instead
        In = mk("z^2 - 2*x1^2", 1, QQ)
        bp = binomial_power_decompose(In, "z")
        assert (bp.inner_exp, bp.power) == (2, 1)


def decompose_by_expansion(In, power):
    """The binomial power of In with the given power, by building each
    candidate's expansion and comparing Polys; None if none fits."""
    shape = read_shape(In, "z")
    if shape is None or shape.degree % power or any(v % power for v in shape.free_expo):
        return None
    tail = tuple(v // power for v in shape.free_expo)
    ring, gamma = In.ring, shape.free_coeff
    for c in ring.all_nth_roots(gamma if power % 2 == 0 else ring.neg(gamma), power):
        bp = BinomialPower("z", shape.degree // power, power, c, tail)
        if expand(bp, In.ctx, ring) == In:
            return bp
    return None


class TestInPlaceCheck:
    """binomialize_modulo checks the expected coefficients in place; the
    oracle expands every candidate of the lattice's power and compares it
    with the initial form."""

    def test_against_the_expansion(self, QQ, F2, F4, F5):
        rng = random.Random(2201)
        F3 = Field.finite(3)
        ctx = VarContext(2, ("z",))
        kinds = {}
        for _ in range(1500):
            field = rng.choice([QQ, F2, F3, F4, F5])
            power = rng.randrange(1, 10)
            inner = rng.randrange(1, 4)
            tail = (rng.randrange(0, 3), rng.randrange(1, 3), 0)
            coeff = (F(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2]))
                     if field.characteristic == 0 else field.element(rng.randrange(1, field.order)))
            terms = dict(expand(BinomialPower("z", inner, power, coeff, tail), ctx, field).terms)
            expected = [(tail[0] * j, tail[1] * j, inner * (power - j)) for j in range(power + 1)]
            # a vanishing C(power, j) leaves a hole in the expansion
            holes = [e for e in expected if e not in terms]
            inside = [e for e in terms if 0 < e[2] < inner * power]
            n = inner * power
            # at the lattice's power (inner = r) every term at the vertex has a
            # slot in the form, so a term added there fills a hole
            kind = rng.choice(["exact", "changed", "hole", "removed"])
            if kind == "changed" and inside:
                e = rng.choice(inside)
                terms[e] = field.add(terms[e], field.one)
                if field.is_zero(terms[e]):  # in GF(2) a change removes the term
                    del terms[e]
                    kind = "removed"
            elif kind == "hole" and holes:
                terms[rng.choice(holes)] = field.one
            elif kind == "removed" and inside:
                del terms[rng.choice(inside)]
            else:
                kind = "exact"
            f = Poly(ctx, field, terms)
            stage = z_stage(f, n)
            v = on_lattice(stage, tuple(F(t, inner) for t in tail[:2]))
            p = stage.power(v)
            want = p and decompose_by_expansion(stage_initial(stage, f, v), p)
            assert binomialize_modulo(f, v, stage, []) == (want, f), (field, terms)
            if p == power:
                kinds.setdefault(kind, set()).add(want is not None)
            if holes:
                kinds.setdefault("vanishing binomial", set()).add(field.characteristic)
        assert kinds["exact"] == {True}
        assert all(kinds[k] >= {False} for k in ("changed", "hole", "removed"))
        assert kinds["vanishing binomial"] == {2, 3, 5}

    def test_readme_examples_never_expand(self, monkeypatch):
        # the engine reads each coefficient where it is: a binomialization
        # builds neither an expansion nor the initial form it checks
        calls = []
        real = kappainv.kappa.binomialize_modulo

        def refuse(*args, **kw):
            raise AssertionError("a binomialization built a Poly")

        def guarded(*args):
            calls.append(args)
            with monkeypatch.context() as m:
                for name in ("__init__", "_of"):
                    m.setattr(Poly, name, refuse)
                return real(*args)

        monkeypatch.setattr(kappainv.kappa, "binomialize_modulo", guarded)
        F2 = Field.finite(2)
        results = [compute_kappa(mkw(text, d, F2)) for text, d in README_EXAMPLES]
        assert [r.invariant.terminal for r in results] == [Terminal.INFINITY, Terminal.MINUS_ONE,
                                                          Terminal.INFINITY]
        assert len(calls) >= 5

    def test_each_polynomial_is_grouped_once(self, monkeypatch):
        groups_of = {}  # id(f) -> (f, the groups object terms_by_point gave for it)
        calls = []
        group = StageProjection.terms_by_point

        def spy(stage, f):
            got = group(stage, f)
            calls.append(f)
            _, groups = groups_of.setdefault(id(f), (f, got[0]))
            assert groups is got[0], "a polynomial's terms were grouped again"
            return got

        monkeypatch.setattr(StageProjection, "terms_by_point", spy)
        F2 = Field.finite(2)
        for text, d in README_EXAMPLES:
            compute_kappa(mkw(text, d, F2))
        assert len(calls) > len(groups_of) > 3  # the polyhedron and initial forms share them


README_EXAMPLES = [("z^2 - x1^3", 1), ("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2),
                   ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2)]


def first_extension(p, m):
    """GF(p^m) over the first monic modulus, constant term first, that Field accepts."""
    for low in itertools.product(range(p), repeat=m):
        try:
            return Field.finite(p, m, low + (1,))
        except ConfigurationError:
            continue  # reducible over GF(p)
    raise AssertionError(f"no irreducible modulus of degree {m} over GF({p})")


class TestNoExtensionHelps:
    """Over GF(p), an initial form that is not a binomial power is not one
    over any GF(p^m) either: the least j0 > 0 with C(e, j0) nonzero mod p
    puts (-c)^j0 in GF(p), and x -> x^j0 is a bijection there."""

    def test_exhaustive_sweep(self):
        ctx = VarContext(1, ("z",))
        forms = 0
        seen = set()
        for p in (2, 3, 5, 7):
            base = Field.finite(p)
            extensions = [first_extension(p, m) for m in (2, 3, 4, 6) if p ** m <= 2 ** 16]
            for e in range(2, 5):
                # z^e + c_e*x1^e, c_e != 0, with any coefficients on z^(e-j)*x1^j
                for cs in itertools.product(range(p), repeat=e):
                    if cs[-1] == 0:
                        continue
                    terms = {(0, e): 1}
                    terms.update({(j, e - j): c for j, c in enumerate(cs, 1) if c})
                    want = None
                    for field in [base] + extensions:
                        res = binomial_power_decompose(Poly(ctx, field, terms), "z")
                        got = res if res is None else res.power
                        if want is None:
                            want = got
                        assert got == want, (p, field.extension_degree, terms)
                    seen.add(want)
                    forms += 1
        assert forms == 3106
        assert seen == {None, 1, 2, 3, 4}


class TestBinomializeModulo:
    def test_stage_one_rewrite(self, F2):
        # the tail x1^6*x2^12*z is the standard monomial of weight 2v, and its
        # square reduces through z^2 -> x1^3*x2^6 to the w-free term: the
        # power the rewrite search reached after one rewrite, with f as it is
        ctx = VarContext(2, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=F2.one,
                       tail_expo=(3, 6, 0, 0), ctx=ctx, ring=F2)
        f = parse_polynomial("u1^4 + x1^15*x2^30", ctx, F2)
        v = (F(15, 4), F(15, 2))
        stage = stage_of(ctx, "u1", 4, {"z": (F(3, 2), F(3))})
        outcome, f2 = binomialize_modulo(f, on_lattice(stage, v), stage, [rel])
        assert isinstance(outcome, BinomialPower)
        assert (outcome.inner_exp, outcome.power) == (2, 2)
        assert outcome.tail_expo == (6, 12, 1, 0)
        assert f2 is f
        searched = [search_binomialize(f, on_lattice(stage, v), stage, [rel], depth)
                    for depth in (0, 1)]
        assert searched[0] == (None, f)
        assert searched[1] == (outcome, parse_polynomial(
            "u1^4 + x1^12*x2^24*z^2 + x1^12*x2^24*u1", ctx, F2))

    def test_depth_zero_direct(self, F2):
        ctx = VarContext(2, ("z", "u1"))
        f = parse_polynomial("u1^4 + x1^12*x2^24*z^2", ctx, F2)
        v = (F(15, 4), F(15, 2))
        stage = stage_of(ctx, "u1", 4, {"z": (F(3, 2), F(3))})
        outcome, f2 = binomialize_modulo(f, on_lattice(stage, v), stage, [])
        assert isinstance(outcome, BinomialPower)
        assert f2 is f

    def test_a_term_off_the_form_is_refused(self, F2):
        # a polynomial out of normal form may hold, at the vertex, a term that
        # no slot of the form expects: here x1^12*x2^24*z^2 beside the w-free
        # x1^15*x2^30 of (u1^2 - x1^6*x2^12*z)^2 in characteristic 2
        ctx = VarContext(2, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=F2.one,
                       tail_expo=(3, 6, 0, 0), ctx=ctx, ring=F2)
        stage = stage_of(ctx, "u1", 4, {"z": (F(3, 2), F(3))})
        v = on_lattice(stage, (F(15, 4), F(15, 2)))
        f = parse_polynomial("u1^4 + x1^15*x2^30", ctx, F2)
        assert binomialize_modulo(f, v, stage, [rel])[0] is not None
        g = f.add(parse_polynomial("x1^12*x2^24*z^2", ctx, F2))
        assert binomialize_modulo(g, v, stage, [rel]) == (None, g)

    def test_no_applicable_rewrite(self, QQ):
        ctx = VarContext(1, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=QQ.one,
                       tail_expo=(3, 0, 0), ctx=ctx, ring=QQ)
        f = parse_polynomial("u1^2 + x1*z*u1", ctx, QQ)
        v = (F(2),)
        stage = stage_of(ctx, "u1", 2, {"z": (F(1),)})
        outcome, f2 = binomialize_modulo(f, on_lattice(stage, v), stage, [rel])
        assert outcome is None
        assert f2 is f

    def test_no_polynomial_is_built(self, QQ, monkeypatch):
        ctx = VarContext(1, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=QQ.one,
                       tail_expo=(1, 1, 0), ctx=ctx, ring=QQ)
        stage = stage_of(ctx, "u1", 6, {"z": (F(1),)})
        for text, vertex, grouped in [
                # order 5 does not divide the top exponent 6: no power, no read
                ("u1^6 + x1*z*u1", F(2, 5), False),
                # order 3: the one power 2, read from the groups in place, where
                # the rewrite search built the root's initial form and one
                # rewritten node's
                ("u1^6 + x1*z*u1^3", F(2, 3), True)]:
            f = parse_polynomial(text, ctx, QQ)
            read = []
            with monkeypatch.context() as m:
                for name in ("__init__", "_of"):
                    m.setattr(Poly, name, lambda *args, **kw: pytest.fail("a Poly was built"))
                m.setattr(StageProjection, "terms_by_point",
                          lambda stage, g, real=StageProjection.terms_by_point:
                          read.append(g) or real(stage, g))
                outcome, f2 = binomialize_modulo(f, on_lattice(stage, (vertex,)), stage, [rel])
            assert outcome is None
            assert f2 is f
            assert read == ([f] if grouped else [])

    def test_rewrite_keeps_the_class_modulo_the_relation(self, QQ, F5):
        # a rewrite adds a multiple of u1 - rhs, so eliminating u1 undoes it
        rng = random.Random(7)
        ctx = VarContext(1, ("z", "u1", "u2"))
        rewritten = 0
        for _ in range(80):
            field = rng.choice([QQ, F5])
            rel = rng.choice(sample_relations(field))
            f = rand_poly(rng, ctx, field, nterms=5, maxexp=4)
            tail = ctx.pad(rel.tail_expo)
            for e in f.terms:
                if all(a >= b for a, b in zip(e, tail)):
                    g = apply_rewrite(f, e, rel, None)
                    assert back_substitute(g, [rel]) == back_substitute(f, [rel])
                    # the term's tail is gone; corrections on the tail's
                    # monomial put back -coeff * (their sum) / c at e
                    on_tail = field.zero
                    for ck, mk_ in rel.corrections:
                        if ctx.pad(mk_) == tail:
                            on_tail = field.add(on_tail, ck)
                    left = field.neg(field.div(field.mul(f.terms[e], on_tail), rel.tail_coeff))
                    assert g.terms.get(e, field.zero) == left
                    rewritten += 1
        assert rewritten >= 50


class TestOneCandidate:
    """binomialize_modulo takes its one candidate c from the coefficient at
    j0, the least j > 0 with C(p, j) nonzero in the field, by one root of
    degree j0; the oracle tries every root of the w-free coefficient.

    Seeded inputs at powers divisible by the characteristic, with heavier
    terms beside the vertex: (w^inner - c*t)^p in the graded ring, and the
    same with one coefficient perturbed (a zero one made nonzero too) or
    missing, at the z stage with no relation and at the u1 stage of the
    relation u1 = z^2 - k*x1^3, where t^j reduces to kappa_j * s_j; there,
    also with t^2 unreduced beside its slot, a term off the form.
    """

    FIELDS = [(Field.rationals(), (2, 4, 6)), (Field.finite(2), (4,)),
              (Field.finite(3), (6, 9)), (Field.finite(5), (5, 10)),
              (Field.finite(2, 2, (1, 1, 1)), (2, 4)), (Field.finite(3, 2, (1, 0, 1)), (3, 6))]

    @staticmethod
    def nonzero(rng, field):
        if field.characteristic == 0:
            return F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
        return field.element(rng.randrange(1, field.order))

    def stages(self, rng, field, inner, power):
        """(stage, relations, int vertex, tail t) at the z stage and the u1 stage."""
        n = inner * power
        ctx = VarContext(2, ("z",))
        a = (2 * rng.randrange(3) + 1, rng.randrange(4))  # odd: order inner at a / inner
        stage = stage_of(ctx, "z", n, {})
        yield stage, [], on_lattice(stage, tuple(F(c, inner) for c in a)), a + (0,)
        ctx = VarContext(1, ("z", "u1"))
        rel = Relation(var="u1", head_var="z", head_exp=2, tail_coeff=self.nonzero(rng, field),
                       tail_expo=(3, 0), ctx=ctx, ring=field)
        stage = stage_of(ctx, "u1", n, {"z": (F(3, 2),)})
        a = rng.randrange(4)  # t = x1^a * z weighs a + 3/2
        yield stage, [rel], on_lattice(stage, (F(2 * a + 3, 2 * inner),)), (a, 1, 0)

    def test_matches_the_root_enumeration(self, monkeypatch):
        rng = random.Random(3535)
        degrees = []
        real_roots = Field.all_nth_roots
        monkeypatch.setattr(Field, "all_nth_roots",
                            lambda field, a, n: degrees.append(n) or real_roots(field, a, n))
        seen, cases = set(), 0
        for field, powers in self.FIELDS:
            q = field.characteristic
            for power, inner in itertools.product(powers, (1, 2)):
                j0 = 1
                while q and power % (j0 * q) == 0:
                    j0 *= q
                for stage, rels, v, t in self.stages(rng, field, inner, power):
                    ctx, main = stage.ctx, stage.main_var
                    bp = BinomialPower(main, inner, power, self.nonzero(rng, field), t)
                    base = dict(graded_expand(bp, ctx, field, rels).terms)
                    for e in rng.sample(sorted(base), 2):  # heavier: one more x1
                        base[(e[0] + 1,) + e[1:]] = self.nonzero(rng, field)
                    slots = [leading_reduce(tuple(j * c for c in t[:-1]) + (inner * (power - j),),
                                            field.one, rels, ctx, field)[0]
                             for j in range(1, power + 1)]
                    variants = [("power", 0, base)]
                    for j, e in enumerate(slots, 1):
                        bumped = field.add(base.get(e, field.zero), self.nonzero(rng, field))
                        variants.append(("perturbed", j, {**base, e: bumped}))
                        if e in base:
                            variants.append(("missing", j, {k: c for k, c in base.items()
                                                            if k != e}))
                    if rels:  # off the form: t^2 unreduced, at the vertex beside its slot
                        e = tuple(2 * c for c in t[:-1]) + (inner * (power - 2),)
                        variants.append(("extra", 2, {**base, e: self.nonzero(rng, field)}))
                    for kind, j, terms in variants:
                        f = Poly(ctx, field, {e: c for e, c in terms.items()
                                              if not field.is_zero(c)})
                        degrees.clear()
                        got, g = binomialize_modulo(f, v, stage, rels)
                        assert degrees in ([], [j0])
                        want = binomialize_by_roots(f, v, stage, rels)
                        assert g is f
                        assert got == want, (field, power, inner, main, kind, j)
                        if kind == "power":
                            assert got == bp
                        seen.add((kind, got is not None, j == j0))
                        cases += 1
        assert cases >= 350
        assert {("power", True, False), ("perturbed", False, True),
                ("perturbed", False, False), ("missing", False, True),
                ("missing", False, False), ("extra", False, False)} <= seen


class TestPowerFilter:
    """With no rewrite to run, binomialize_modulo tries the lattice's power only.

    The oracle is binomial_power_decompose, the full divisor walk.  Every
    power it finds has r | inner, for r the vertex's order modulo Z^d; the
    engine finds the same where inner = r, and (None, f) where inner > r.
    """

    def case(self, rng, ctx, field):
        """A binomial power, perturbed or not, plus terms above its vertex."""
        n = rng.randrange(1, 17)
        power = rng.choice([p for p in range(1, n + 1) if n % p == 0])
        tail = tuple(rng.randrange(1, 4) * rng.choice([1, 2, 3, 4, 6]) for _ in range(2))
        coeff = (Fraction(rng.choice([1, -1, 2, -3])) if field.characteristic == 0
                 else field.element(rng.randrange(1, field.order)))
        bp = BinomialPower("z", n // power, power, coeff, tail)
        terms = dict(expand(bp, ctx, field).terms)
        top, free = ctx.unit("z", n), ctx.pad(tuple(t * power for t in tail))
        inner = [e for e in terms if e not in (top, free)]
        move = rng.randrange(5)
        if move == 1 and inner:  # drop a cross term
            del terms[rng.choice(inner)]
        elif move == 2:  # the w-free coefficient need not be a power any more
            terms[free] = field.mul(terms[free], field.from_int(rng.choice([2, 3, 5])))
        elif move == 3 and n > 1:  # a cross term at the vertex, on or off the grid
            k = rng.randrange(1, n)
            if all(v * k % n == 0 for v in free):
                terms[tuple(v * k // n for v in free[:2]) + (n - k, 0)] = field.one
        elif move == 4 and inner:  # no w-free term: not a binomial power
            del terms[free]
        f = Poly(ctx, field, terms)
        higher = {tuple(v + 1 for v in free[:2]) + (0, 0): field.one}
        if n > 1:
            higher[tuple(v + 2 for v in free[:2]) + (n - 1, 0)] = field.one
        f = f.add(Poly(ctx, field, higher))
        return f, n, tuple(Fraction(v, n) for v in free[:2])

    def test_matches_the_full_divisor_walk(self, QQ, F2, F5, F4):
        rng = random.Random(1414)
        ctx = VarContext(2, ("z", "u1"))
        seen = set()
        for _ in range(400):
            field = rng.choice([QQ, F2, F5, F4])
            f, n, v = self.case(rng, ctx, field)
            try:
                want = binomial_power_decompose(initial_form(f, v, "z", n, {}), "z")
            except ContractViolation:
                continue  # without its w-free term the point may not be a vertex
            r = math.lcm(*(c.denominator for c in v))
            if want is not None:
                assert want.inner_exp % r == 0
                if want.inner_exp > r:
                    seen.add("inner > r")
                    want = None
            rel = Relation(var="u1", head_var="z", head_exp=1, tail_coeff=field.one,
                           tail_expo=(1, 1, 0), ctx=ctx, ring=field)
            for relations in ([], [rel]):
                stage = z_stage(f, n)
                outcome, f2 = binomialize_modulo(f, on_lattice(stage, v), stage, relations)
                assert outcome == want
                assert f2 is f
            seen.add(type(want).__name__)
        assert seen == {"BinomialPower", "NoneType", "inner > r"}

    @pytest.mark.parametrize("text, d, field", [
        ("z^2 + x1*x2*z + 2*x1^2*x2^2", 2, "QQ"),
        ("z^2 + x1*z + 2*x1^2", 1, "F5"),
    ])
    def test_field_extension_required(self, request, text, d, field):
        # the full binomial grid with no fitting root: no extension has one
        f = mk(text, d, request.getfixturevalue(field))
        v = tuple(F(1) for _ in range(d))
        want = binomial_power_decompose(initial_form(f, v, "z", 2, {}), "z")
        assert want is None
        stage = z_stage(f, 2)
        assert binomialize_modulo(f, on_lattice(stage, v), stage, []) == (want, f)

    def test_non_monic_raises_as_the_walk_does(self, QQ):
        f = mk("2*z^2 + x1^3", 1, QQ)
        with pytest.raises(ContractViolation, match="not monic in the main variable"):
            binomial_power_decompose(stage_initial(z_stage(f, 2), f, (3,)), "z")
        with pytest.raises(ContractViolation, match="not monic in the main variable"):
            binomialize_modulo(f, (3,), z_stage(f, 2), [])

    def test_one_decomposition_for_a_coprime_tail(self, QQ, monkeypatch):
        # the vertex (7/12, 11/12) has order 12 modulo Z^2: only the power 1 is
        # tried, and at j0 = 1 the candidate is a quotient, with no root taken
        calls = []
        real = Field.all_nth_roots

        def counting(field, a, power):
            calls.append(power)
            return real(field, a, power)

        monkeypatch.setattr(Field, "all_nth_roots", counting)
        wf = mkw("z^12 - 5*x1^7*x2^11", 2, QQ)
        stage = z_stage(wf.poly, 12)
        outcome, _ = binomialize_modulo(wf.poly, on_lattice(stage, (F(7, 12), F(11, 12))), stage,
                                        [])
        assert (outcome.inner_exp, outcome.power) == (12, 1)
        assert calls == []
        assert compute_kappa(wf).invariant.as_string(2) == "((7/12, 11/12), inf)"
        assert calls == []


def stage_order(stage, vertex):
    """The order of an int vertex of the stage modulo Z^d + the chain weights."""
    D, S = stage.chain.D, stage.scale
    chain = [tuple(Fraction(c, D) for c in w) for w in stage.chain.weights]
    return lattice_orders(chain + [tuple(Fraction(c, S) for c in vertex)])[-1]


class TestShapeFilterWithRelations:
    """With relations, the graded check against the rewrite search.

    The oracle is the search at every divisor, to depth 8; the calls are
    the engine's own calls with relations on multi-stage inputs, and seeded
    perturbations of them, taken to normal form as the engine's
    polynomials are.  Every power the oracle finds has r | inner, for r the
    vertex's order modulo the stage's lattice (lattice_orders over the
    chain weights).  Where inner = r the engine finds the same power with
    the standard tail: the oracle's tail t' reduces by the relations'
    leading binomials to kappa * t, so c = c' * kappa.  Where inner > r, or
    the oracle finds none, the engine finds none.
    """

    INPUTS = [("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, "F2"),
              ("z^4 - 2*x1^3*z^2 - 4*x1^5*z + x1^6 - x1^7", 1, "QQ"),
              ("z^4 + x1^6", 1, "F2"),
              ("z^4 - 2*x1^3*z^2 + x1^6 - x1^7", 1, "F5")]

    def engine_calls(self, request, monkeypatch):
        """Every binomialize_modulo call with relations while computing kappa of INPUTS."""
        calls = []
        real = kappainv.kappa.binomialize_modulo

        def recording(f, vertex, stage, relations):
            if relations:
                calls.append((f, tuple(vertex), stage, list(relations)))
            return real(f, vertex, stage, relations)

        with monkeypatch.context() as m:
            m.setattr(kappainv.kappa, "binomialize_modulo", recording)
            for text, d, field in self.INPUTS:
                compute_kappa(mkw(text, d, request.getfixturevalue(field)))
        return calls

    @staticmethod
    def perturbed(rng, f, top):
        """f, or f with one term below the top rescaled, dropped or shifted, or a non-monic top."""
        ring, terms = f.ring, dict(f.terms)
        below = [e for e in terms if e != top]
        move = rng.randrange(5)
        if move == 1 and below and ring.order != 2:
            e = rng.choice(below)
            terms[e] = ring.mul(terms[e], ring.from_int(rng.choice([2, 3, -1])))
        elif move == 2 and below:
            del terms[rng.choice(below)]
        elif move == 3 and below:
            e = list(rng.choice(below))
            e[rng.randrange(len(e))] += 1
            if tuple(e) != top:
                terms[tuple(e)] = ring.one
        elif move == 4 and ring.order != 2:
            terms[top] = ring.from_int(2)
        return Poly(f.ctx, ring, {e: c for e, c in terms.items() if not ring.is_zero(c)},
                    f.trunc)

    def test_matches_the_unfiltered_search(self, request, monkeypatch):
        rng = random.Random(1515)
        calls = self.engine_calls(request, monkeypatch)
        assert len(calls) >= 4
        seen = set()
        for f, vertex, stage, relations in calls:
            for _ in range(40):
                g = normal_form(self.perturbed(rng, f, stage.top), relations)
                try:
                    want, found_on = search_binomialize(g, vertex, stage, relations, 8,
                                                        powers=divisors_desc(stage.top_exp))
                except ContractViolation:
                    if stage.power(vertex) is None:
                        assert binomialize_modulo(g, vertex, stage, relations) == (None, g)
                    else:
                        with pytest.raises(ContractViolation, match="not monic"):
                            binomialize_modulo(g, vertex, stage, relations)
                    seen.add("non-monic")
                    continue
                r = stage_order(stage, vertex)
                if want is not None:
                    assert want.inner_exp % r == 0
                    if want.inner_exp > r:
                        seen.add("inner > r")
                        want = None
                got, g2 = binomialize_modulo(g, vertex, stage, relations)
                assert g2 is g
                if want is None:
                    assert got is None
                    seen.add("NoneType")
                    continue
                tail, kappa = leading_reduce(want.tail_expo, g.ring.one, relations, g.ctx, g.ring)
                assert got == BinomialPower(want.main_var, want.inner_exp, want.power,
                                            g.ring.mul(want.coeff, kappa), tail)
                seen.add("rewritten" if found_on is not g else "BinomialPower")
        assert {"rewritten", "BinomialPower", "NoneType", "non-monic", "inner > r"} <= seen

    def test_fewer_decompositions(self, request, monkeypatch):
        calls = self.engine_calls(request, monkeypatch)
        decompositions, roots = [0], []
        real_decompose, real_roots = conftest.decompose_at, Field.all_nth_roots

        def counting(*args):
            decompositions[0] += 1
            return real_decompose(*args)

        monkeypatch.setattr(conftest, "decompose_at", counting)
        for call in calls:
            search_binomialize(*call, 3, powers=divisors_desc(call[2].top_exp))
        monkeypatch.setattr(Field, "all_nth_roots",
                            lambda field, a, n: roots.append(n) or real_roots(field, a, n))
        hits = [isinstance(binomialize_modulo(*call)[0], BinomialPower) for call in calls]
        # four calls: one at each later stage of the three-stage example, and
        # one at the second stage of each char-0 and GF(5) input.  The search
        # at every divisor, to depth 3, makes 21 literal checks; the engine
        # extracts at most one root per call, of degree j0, the least j > 0
        # with C(power, j) nonzero in the field, and only when j0 > 1: 2 at
        # power 2 over GF(2), else 1 here, where the candidate is a quotient.
        # The GF(5) stage, u1^2 - x1^7, has power 2 and no square: the cross
        # term -2c * x1^2*z*u1, at j0 = 1, is missing, so it ends early
        assert len(calls) == 4
        assert decompositions == [21]
        assert (roots, hits) == ([2], [True, True, True, False])


class TestLevelCancels:
    """The descent leaves nothing at the stage's level.

    The check reads f's initial form as (w^inner - c*t)^p in the graded
    ring; the next stage substitutes w^inner -> u + c*t + corrections and
    takes the normal form.  With u weighted at inner * v, the level top * v
    must then hold exactly u^p, and every other term must be strictly
    heavier: the graded expansion cancels exactly, and what normal_form
    adds beyond the leading binomials is heavier.
    """

    TOWERS = pytest.mark.parametrize("text, T", [
        ("z^8 + x1^12*x2^24 + x1^15*x2^30", 64),
        ("z^16 + x1^24*x2^48 + x1^30*x2^60 + x1^63*x2^126", 256)])

    @TOWERS
    def test_at_every_stage(self, F2, monkeypatch, text, T):
        # a descent's normal_form call is the one whose f does not yet hold
        # the new relation's variable: preparation's calls all hold theirs
        substituted = []

        def nf(f, relations, T=None):
            out = normal_form(f, relations, T)
            if relations and not f.uses_var(relations[-1].var):
                rel = relations[-1]
                substituted.append((rel.head_var, rel.head_exp, out))
            return out

        monkeypatch.setattr(kappainv.kappa, "normal_form", nf)
        res = compute_kappa(mkw(text, 2, F2), KappaConfig(truncation=T))
        assert res.invariant.terminal is Terminal.INFINITY
        weights = res.presentation.weights
        mults = res.invariant.multiplicities
        assert len(substituted) == len(mults) - 2
        for i, (main, inner, g) in enumerate(substituted):
            u, power = f"u{i + 1}", mults[i + 1]
            w = {**weights, u: tuple(inner * c for c in weights[main])}
            level = tuple(mults[i] * c for c in weights[main])
            at_level, d = {}, g.ctx.d
            for e, c in g.terms.items():
                wt = tuple(sum(k * w[g.ctx.var_name(j)][a] if j >= d else k * (j == a)
                               for j, k in enumerate(e)) for a in range(d))
                if wt == level:
                    at_level[e] = c
                else:
                    assert all(a >= b for a, b in zip(wt, level)), (main, e)
            assert at_level == {g.ctx.unit(u, power): F2.one}, main

    @TOWERS
    def test_the_descent_rewrites_through_normal_form_alone(self, F2, monkeypatch, text, T):
        # every power_substitute call a run makes comes from inside normal_form
        calls, depth = [], [0]
        real_ps, real_nf = kappainv.poly.power_substitute, kappainv.kappa.normal_form

        def ps(*args, **kwargs):
            calls.append(depth[0])
            return real_ps(*args, **kwargs)

        def nf(*args, **kwargs):
            depth[0] += 1
            try:
                return real_nf(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(kappainv.poly, "power_substitute", ps)
        monkeypatch.setattr(kappainv.kappa, "normal_form", nf)
        res = compute_kappa(mkw(text, 2, F2), KappaConfig(truncation=T))
        assert res.invariant.terminal is Terminal.INFINITY
        assert not hasattr(kappainv.kappa, "power_substitute")
        assert calls and all(calls), calls


class TestOneBinomializationPerVertex:
    """Each vertex is binomialized once in its stage: preparation keeps each
    outcome through later eliminations, and the stage reuses it."""

    @pytest.mark.parametrize("text, d, field, kappa", [
        # the later stages read their powers in the graded ring
        pytest.param("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, "F2",
                     "((3/2, 3), (15/4, 15/2), (63/8, 63/4), inf)", id="F2 three stages"),
        pytest.param("z^2 + x1^3", 1, "F2", "(3/2, inf)", id="F2 cusp"),
        pytest.param("z^12 - 5*x1^7*x2^11", 2, "QQ", "((7/12, 11/12), inf)", id="QQ one stage"),
        # sweep branch 029: its z stage binomializes the sole vertex before
        # the eliminations that follow
        pytest.param(BRANCHES[29].polynomial().format(), 2, "QQ",
                     "((1/3, 2/3), (2, 5/2), inf)", id="branch 029"),
    ])
    def test_no_pair_twice(self, request, monkeypatch, text, d, field, kappa):
        calls = []
        real = kappainv.kappa.binomialize_modulo

        def recording(f, vertex, stage, relations):
            calls.append((f, stage, tuple(vertex)))
            return real(f, vertex, stage, relations)

        monkeypatch.setattr(kappainv.kappa, "binomialize_modulo", recording)
        res = compute_kappa(mkw(text, d, request.getfixturevalue(field)))
        assert res.invariant.as_string(d) == kappa
        assert res.invariant.terminal is Terminal.INFINITY
        for i, (f, stage, v) in enumerate(calls):
            assert not any(g is f and w == v for g, _, w in calls[:i])
            assert not any(s is stage and w == v for _, s, w in calls[:i])


class TestPrepare:
    def test_one_elimination(self, QQ):
        f = mk("z^2 - 2*x1*z + x1^2 - x1^3", 1, QQ)
        res = prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig())
        assert res.status is PrepStatus.PREPARED
        assert res.eliminations == 1
        assert res.polyhedron.vertices == ((F(3, 2),),)
        assert res.poly == mk("z^2 - x1^3", 1, QQ)

    def test_already_prepared(self, F2):
        f = mk("z^2 - x1^3", 1, F2)
        res = prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig())
        assert res.status is PrepStatus.PREPARED
        assert res.eliminations == 0

    def test_two_eliminations(self, QQ):
        f = mk("z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9", 1, QQ)
        # oracle: a single translation by x1 + x1^2 lands on z^2 - x1^9
        shifted = substitute(f, "z", mk("z + x1 + x1^2", 1, QQ))
        assert shifted == mk("z^2 - x1^9", 1, QQ)
        res = prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig())
        assert res.status is PrepStatus.PREPARED
        assert res.eliminations == 2
        assert res.polyhedron.vertices == ((F(9, 2),),)

    def test_one_polyhedron_per_polynomial(self, QQ, monkeypatch):
        built = []
        polyhedron = StageProjection.polyhedron

        def counting(stage, g):
            built.append(g)
            return polyhedron(stage, g)

        monkeypatch.setattr(StageProjection, "polyhedron", counting)
        f = mk("z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9", 1, QQ)
        res = prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig())
        assert res.eliminations == 2
        assert len(built) == 1 + res.eliminations

    def test_translates_without_substitute(self, QQ, F2, monkeypatch):
        # each elimination is one binomial-theorem translate, never a
        # generic substitute; the second input translates u1 by x1^4*z
        translated = []
        real_translate = kappainv.kappa.translate

        def spy(f, name, *rest):
            translated.append(name)
            return real_translate(f, name, *rest)

        def refuse(*args):
            raise AssertionError("a translation went through substitute")

        monkeypatch.setattr(kappainv.kappa, "translate", spy)
        for module in (kappainv.poly, kappainv.kappa):
            monkeypatch.setattr(module, "substitute", refuse, raising=False)
        f = mk("z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9", 1, QQ)
        assert prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig()).eliminations == 2
        res = compute_kappa(mkw("z^4 + x1^8*z^2 + x1^13*z + x1^6", 1, F2))
        assert res.invariant.as_string(1) == "(3/2, 29/4, inf)"
        assert translated == ["z", "z", "u1"]
        # preparation records the u1 translation on the relation defining u1
        assert res.presentation.relations[0].corrections == [(F2.one, (4, 1, 0))]

    def test_a_vertex_that_stays_raises(self, QQ, monkeypatch):
        # a translation that leaves f as it is keeps the solved vertex, so
        # the polyhedron does not shrink strictly
        monkeypatch.setattr(kappainv.kappa, "translate", lambda f, *rest: f)
        f = mk("z^2 - 2*x1*z + x1^2 - x1^3", 1, QQ)
        with pytest.raises(EngineError) as raised:
            prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig())
        assert str(raised.value) == "vertex elimination failed to strictly shrink the polyhedron"

    def test_budget_exhaustion(self, QQ):
        f = mk("z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9", 1, QQ)
        res = prepare_polyhedron(f, z_stage(f, 2), [], KappaConfig(budget=1))
        assert res.status is PrepStatus.INCONCLUSIVE
        assert res.eliminations == 1


class TestComputeKappa:
    def test_cusp_char2(self, F2):
        res = compute_kappa(mkw("z^2 - x1^3", 1, F2))
        assert res.invariant.as_string(1) == "(3/2, inf)"
        assert res.invariant.terminal is Terminal.INFINITY

    def test_two_vertex_char2(self, F2):
        res = compute_kappa(mkw("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F2))
        assert res.invariant.terminal is Terminal.MINUS_ONE
        assert res.invariant.vertices == ()
        assert res.presentation is None
        assert any("translation-minimal" in d for d in res.diagnostics)

    def test_three_stage_char2(self, F2):
        res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
        inv = res.invariant
        assert inv.vertices == ((F(3, 2), F(3)), (F(15, 4), F(15, 2)), (F(63, 8), F(63, 4)))
        assert inv.terminal is Terminal.INFINITY
        assert inv.multiplicities == (8, 4, 2, 1)
        assert res.presentation.generator_strings() == [
            "u1 - (z^2 - x1^3*x2^6)",
            "u2 - (u1^2 - x1^6*x2^12*z)",
            "u2^2 + x1^12*x2^24*u1",
        ]

    def test_each_stage_point_computed_once(self, F2, monkeypatch):
        # every (stage, exponent) int point is computed once, though the
        # stage's polynomials ask for some of them again: the second stage's
        # translation keeps most of its source's exponents
        computed, asked = [], []
        scaled_point, point = StageProjection.scaled_point, StageProjection.point

        def counting_scaled_point(stage, e):
            computed.append((stage, e))  # the stage is kept alive here, so ids stay distinct
            return scaled_point(stage, e)

        def counting_point(stage, e):
            asked.append(e)
            return point(stage, e)

        monkeypatch.setattr(StageProjection, "scaled_point", counting_scaled_point)
        monkeypatch.setattr(StageProjection, "point", counting_point)
        res = compute_kappa(mkw("z^4 + x1^8*z^2 + x1^13*z + x1^6", 1, F2))
        assert res.invariant.budget_used == 1
        keys = [(id(stage), e) for stage, e in computed]
        assert len(keys) == len(set(keys))
        assert len(asked) > len(computed)

    def test_char0_prepared_cusp(self, QQ):
        res = compute_kappa(mkw("z^2 - 2*x1*z + x1^2 - x1^3", 1, QQ))
        assert res.invariant.as_string(1) == "(3/2, inf)"
        assert res.invariant.budget_used == 1

    def test_repeated_factor_empty_stage(self, F2):
        # (z^2 + x1^3)^2 in characteristic 2
        res = compute_kappa(mkw("z^4 + x1^6", 1, F2))
        assert res.invariant.vertices == ((F(3, 2),),)
        assert res.invariant.terminal is Terminal.INFINITY
        assert res.presentation.final.format() == "u1^2"

    def test_pure_power(self, QQ):
        res = compute_kappa(mkw("z^3", 1, QQ))
        assert res.invariant.terminal is Terminal.INFINITY
        assert res.invariant.vertices == ()

    def test_truncation_inconclusive(self, F2):
        res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2),
                            KappaConfig(truncation=2))
        assert res.invariant.terminal is Terminal.INCONCLUSIVE

    def test_budget_inconclusive(self, QQ):
        res = compute_kappa(mkw("z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9", 1, QQ),
                            KappaConfig(budget=1))
        assert res.invariant.terminal is Terminal.INCONCLUSIVE

    def test_not_binomial_diagnostic(self, QQ):
        # z^2 - x1^2 - x1^3 = (z - s)(z + s) for the unit series s: the sole
        # vertex 1 is in Z, order 1, so only the power 2 fits, and its
        # initial form z^2 - x1^2 is no square (it is (z^2 - x1^2)^1, inner 2)
        res = compute_kappa(mkw("z^2 - x1^2 - x1^3", 1, QQ))
        assert res.invariant.terminal is Terminal.INCONCLUSIVE
        assert res.invariant.vertices == ()
        assert res.diagnostics == [
            "initial form not a binomial power; input may be reducible"]

    def test_reducible_with_shared_vertex_flags(self, QQ):
        # z^2 - 2 x1 z + x1^2 - x1^2 = z^2 - 2 x1 z: not Weierstrass-friendly;
        # use z^2 + x1*z + x1^2 instead: single vertex, three terms, no binomial
        res = compute_kappa(mkw("z^2 + x1*z + x1^2", 1, QQ))
        assert res.invariant.terminal is Terminal.INCONCLUSIVE
        assert any("binomial" in d for d in res.diagnostics)

    def test_field_extension_inconclusive(self, F5):
        # no extension of GF(5) makes this initial form a square (see
        # TestDecompose), so it gets the not-binomial note
        res = compute_kappa(mkw("z^2 + x1*z + 2*x1^2", 1, F5))
        assert res.invariant.terminal is Terminal.INCONCLUSIVE
        assert res.diagnostics == [
            "initial form not a binomial power; input may be reducible"]


FIXTURES_INF = [
    ("z^2 - x1^3", 1, 2),
    ("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, 2),
    ("z^4 + x1^6", 1, 2),
    ("z^3 - x1^4", 1, 2),
    ("z^2 - x1^3", 1, 0),
    ("z^2 - 2*x1*z + x1^2 - x1^3", 1, 0),
    ("z^4 - 2*x1^3*z^2 + x1^6", 1, 5),
]


def run_fixture(entry):
    from kappainv import Field
    text, d, char = entry
    field = Field.rationals() if char == 0 else Field.finite(char)
    return compute_kappa(mkw(text, d, field))


class TestEngineProperties:
    def test_descending_multiplicities(self):
        for entry in FIXTURES_INF:
            inv = run_fixture(entry).invariant
            assert inv.terminal is Terminal.INFINITY
            mults = inv.multiplicities
            assert all(a > b for a, b in zip(mults, mults[1:]))

    def test_presentation_round_trip(self):
        from kappainv import Field
        for text, d, char in FIXTURES_INF:
            field = Field.rationals() if char == 0 else Field.finite(char)
            wf = mkw(text, d, field)
            res = compute_kappa(wf)
            pres = res.presentation
            back = back_substitute(pres.final, pres.relations)
            # translations of z shift the input before the relations see it;
            # undo them through the recorded eliminations is not needed here
            # because every fixture's final stage consumed the prepared form
            prepared = prepare_polyhedron(wf.poly, z_stage(wf.poly, wf.n), [], KappaConfig()).poly
            assert back == prepared

    def test_overweight_self_check(self):
        for entry in FIXTURES_INF:
            res = run_fixture(entry)
            ok, violations = verify_overweight(res.presentation)
            assert ok, violations

    def test_binomial_reexpansion_identity(self, F2, QQ):
        samples = [
            (mk("z^8 + x1^12*x2^24", 2, F2), "z", F2),
            (mk("z^2 - 2*x1*z + x1^2", 1, QQ), "z", QQ),
            (mk("z^4 + x1^6", 1, F2), "z", F2),
        ]
        for In, var, field in samples:
            bp = binomial_power_decompose(In, var)
            assert isinstance(bp, BinomialPower)
            assert expand(bp, In.ctx, field) == In


class TestDegreeSixteenTower:
    def test_non_quadratic_inner_head(self, F2):
        # (z^2 + x^3)^8 + x^27 in characteristic 2: the second stage
        # decomposes as (u1^4 + x^12 z)^2, whose tail squared reduces through
        # z^2 -> x^3 to x^27, so the inner exponent is 4 and the multiplicity
        # chain skips: 16 > 8 > 2 > 1
        wf = mkw("z^16 + x1^24 + x1^27", 1, F2)
        f = wf.poly
        res = compute_kappa(wf)
        from fractions import Fraction as Fr
        assert res.invariant.vertices == ((Fr(3, 2),), (Fr(27, 8),), (Fr(219, 16),))
        assert res.invariant.multiplicities == (16, 8, 2, 1)
        assert res.invariant.inner_exponents == (2, 4, 2)
        assert res.presentation.generator_strings() == [
            "u1 - (z^2 - x1^3)",
            "u2 - (u1^4 - x1^12*z)",
            "u2^2 + x1^24*u1",
        ]
        assert back_substitute(res.presentation.final, res.presentation.relations) == f


class TestStageOneTranslation:
    def test_correction_recorded_on_relation(self, F2):
        # engineered so the second stage needs one translation: the relation
        # accumulates the solving term x1^4*z and the final tail sits at 29/4
        res = compute_kappa(mkw("z^4 + x1^8*z^2 + x1^13*z + x1^6", 1, F2))
        assert res.invariant.as_string(1) == "(3/2, 29/4, inf)"
        assert res.invariant.budget_used == 1
        assert res.presentation.generator_strings() == [
            "u1 - (z^2 - x1^3 - x1^4*z)",
            "u1^2 + x1^13*z",
        ]
        ok, violations = verify_overweight(res.presentation)
        assert ok, violations
        f = mkw("z^4 + x1^8*z^2 + x1^13*z + x1^6", 1, F2).poly
        assert back_substitute(res.presentation.final, res.presentation.relations) == f

    def test_lift_of_corrected_relation(self, F2):
        from kappainv import Poly, ghost_monomials, lift_presentation
        from kappainv.poly import format_monomial
        res = compute_kappa(mkw("z^4 + x1^8*z^2 + x1^13*z + x1^6", 1, F2))
        lift = lift_presentation(res.presentation)
        report = ghost_monomials(lift)
        named = {format_monomial(e, lift.ctx): c for e, c in report.ghosts}
        assert named == {"x1^4*z^3": -2, "x1^3*z^2": -2, "x1^7*z": 2}
        reduced = Poly(lift.ctx, F2,
                       {e: c % 2 for e, c in report.hypersurface.terms.items()})
        assert reduced == mkw("z^4 + x1^8*z^2 + x1^13*z + x1^6", 1, F2).poly


class TestTranslationThenNormalForm:
    def test_correction_visible_to_immediate_normal_form(self, F2):
        # regression: the translated polynomial carries a head power that is
        # normalized right away, so the relation must already record the
        # solving term; a stale rhs drifts the germ by exactly that term
        wf = mkw("z^6 + x1^6*z^5 + x1^4", 1, F2)
        res = compute_kappa(wf, KappaConfig(truncation=48, budget=48))
        assert res.invariant.terminal is Terminal.INFINITY
        assert res.invariant.multiplicities == (6, 2, 1)
        pres = res.presentation
        assert back_substitute(pres.final, pres.relations) == wf.poly
        ok, violations = verify_overweight(pres)
        assert ok, violations


class TestDeterminism:
    def test_repeated_runs_are_identical(self, F2):
        wf = mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2)
        runs = [compute_kappa(wf) for _ in range(3)]
        strings = {r.invariant.as_string(2) for r in runs}
        assert len(strings) == 1
        lines = {tuple(r.presentation.generator_strings()) for r in runs}
        assert len(lines) == 1

    def test_extension_field_run(self, F4):
        res = compute_kappa(mkw("z^2 - x1^3", 1, F4))
        assert res.invariant.as_string(1) == "(3/2, inf)"

    def test_extension_coefficient_translation(self, F4):
        # z^2 + a*x^2 over GF(4) is (z + (a+1)x)^2: the solving coefficient
        # lives outside the prime field, and one translation empties the
        # polyhedron entirely
        from kappainv import Poly, weierstrass_validate
        ctx = VarContext(1)
        gen = F4.element(2)
        f = Poly(ctx, F4, {(0, 2): F4.one, (2, 0): gen})
        res = compute_kappa(weierstrass_validate(f))
        assert res.invariant.terminal is Terminal.INFINITY
        assert res.invariant.vertices == ()
        assert res.invariant.budget_used == 1


class TestVerifyOverweight:
    def test_three_stage_presentation_passes(self, F2):
        res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
        ok, violations = verify_overweight(res.presentation)
        assert ok and violations == []

    def test_injected_light_monomial_fails(self, F2):
        res = compute_kappa(mkw("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, F2))
        pres = res.presentation
        pres.relations[0].corrections.append((F2.one, (1, 0, 0, 0)))
        pres.relations[1].corrections.append((F2.one, (0, 1, 0, 0)))
        ok, violations = verify_overweight(pres)
        assert not ok
        # weights print as the CLI prints vertices
        assert violations == [
            "relation u1: x1 has weight (1, 0), not above the head level (3, 6)",
            "relation u2: x2 has weight (0, 1), not above the head level (15/2, 15)"]
        for rel in pres.relations:
            rel.corrections.pop()

    def test_zero_tails_pass(self, F2):
        res = compute_kappa(mkw("z^2 - x1^3", 1, F2))
        ok, violations = verify_overweight(res.presentation)
        assert ok and violations == []
