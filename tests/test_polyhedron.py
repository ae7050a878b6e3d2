import math
import random
from fractions import Fraction

import pytest

import kappainv.polyhedron
from kappainv import (ConfigurationError, ContractViolation, KappaConfig, Poly, VarContext,
                      hull_vertices, member, parse_polynomial, polyhedron_leq,
                      prepare_polyhedron, projected_polyhedron, weighted_projected_polyhedron)
from kappainv.polyhedron import StageProjection
from conftest import mk, mkw, on_lattice
from test_branches import lattice_orders


def F(a, b=1):
    return Fraction(a, b)


# -- independent Fourier-Motzkin oracle --------------------------------------

def _primitive(cs, r):
    """The int row divided by the gcd of its entries, so equal inequalities compare equal."""
    g = math.gcd(*cs, r)
    return (tuple(c // g for c in cs), r // g) if g > 1 else (cs, r)


def _int_row(cs, r):
    vals = [Fraction(c) for c in (*cs, r)]
    scale = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (scale // v.denominator) for v in vals]
    return _primitive(tuple(ints[:-1]), ints[-1])


def fm_feasible(ineqs, nvars):
    """Feasibility of sum(c_i x_i) <= rhs systems by variable elimination.

    Rows are primitive int vectors kept as dict keys, so the duplicates that
    elimination produces are merged as they appear, and a derived row
    0 <= r with r < 0 ends the run at once.  Each step eliminates the
    variable that adds the fewest rows (pos * neg - pos - neg), which keeps
    tied, Pareto-heavy systems small.  Each row keeps the inclusion-minimal
    sets of input rows it is combined from; after k eliminations a
    combination of more than k + 1 input rows is implied by the others and
    is not formed (Chernikov's rule; Kohler 1967).
    """
    work = {}

    def add(row, h):
        hs = work.setdefault(row, [])
        if not any(e <= h for e in hs):
            hs[:] = [e for e in hs if not h <= e] + [h]

    for i, (cs, r) in enumerate(ineqs):
        add(_int_row(cs, r), frozenset([i]))

    def growth(v):
        pos = sum(1 for cs, _ in work if cs[v] > 0)
        neg = sum(1 for cs, _ in work if cs[v] < 0)
        return pos * neg - pos - neg

    left = set(range(nvars))
    while left:
        v = min(left, key=lambda u: (growth(u), u))
        left.remove(v)
        step = nvars - len(left)
        pos = [(row, hs) for row, hs in work.items() if row[0][v] > 0]
        neg = [(row, hs) for row, hs in work.items() if row[0][v] < 0]
        work = {row: hs for row, hs in work.items() if row[0][v] == 0}
        for (cp, rp), hps in pos:
            for (cn, rn), hns in neg:
                hs = [hp | hn for hp in hps for hn in hns if len(hp | hn) <= step + 1]
                if not hs:
                    continue
                a, b = cp[v], -cn[v]
                row = _primitive(tuple(a * x + b * y for x, y in zip(cn, cp)), a * rn + b * rp)
                if row[1] < 0 and not any(row[0]):
                    return False
                for h in hs:
                    add(row, h)
    return all(r >= 0 for _, r in work)


def member_oracle(p, points):
    if not points:
        return False
    m, d = len(points), len(p)
    ineqs = []
    for i in range(m):
        ineqs.append((tuple(-1 if j == i else 0 for j in range(m)), 0))
    ineqs.append((tuple(1 for _ in range(m)), 1))
    ineqs.append((tuple(-1 for _ in range(m)), -1))
    for c in range(d):
        ineqs.append((tuple(points[i][c] for i in range(m)), p[c]))
    return fm_feasible(ineqs, m)


def hull_oracle(points):
    """Sorted distinct points q with q outside the oracle hull of the others."""
    pts = sorted(set(points))
    return tuple(q for q in pts if not member_oracle(q, [s for s in pts if s != q]))


def pareto_heavy(rng, d, m):
    """m points in Q^d: random ones, duplicates, dominated copies and segment points."""
    def rand_pt():
        # a coarse grid, so that coordinates tie and faces of the orthant hull appear
        return tuple(Fraction(rng.randrange(0, 7), rng.randrange(1, 3)) for _ in range(d))
    pts = [rand_pt()]
    while len(pts) < m:
        a, b = rng.choice(pts), rng.choice(pts)
        kind = rng.randrange(4)
        if kind == 0:
            pts.append(a)
        elif kind == 1:
            pts.append(tuple(c + Fraction(rng.randrange(0, 3), rng.randrange(1, 3)) for c in a))
        elif kind == 2:
            t = Fraction(rng.randrange(1, 4), 4)
            pts.append(tuple(t * x + (1 - t) * y for x, y in zip(a, b)))
        else:
            pts.append(rand_pt())
    return pts


class TestDominanceShortcuts:
    """The dominance tests in member and hull_vertices against the Fourier-Motzkin oracle."""

    def test_member_sweep(self):
        rng = random.Random(41)
        for d in range(1, 5):
            for m in range(1, 9):
                for _ in range(3):
                    pts = pareto_heavy(rng, d, m)
                    a, b = rng.choice(pts), rng.choice(pts)
                    mid = tuple((x + y) / 2 for x, y in zip(a, b))
                    below = tuple(c - Fraction(1, 8) if r == 0 else c for r, c in enumerate(mid))
                    for p in pareto_heavy(rng, d, 2) + [a, mid, below]:
                        assert member(p, pts) == member_oracle(p, pts)

    def test_hull_sweep(self):
        rng = random.Random(43)
        for d in range(1, 5):
            for m in range(1, 9):
                for _ in range(3):
                    pts = pareto_heavy(rng, d, m)
                    assert hull_vertices(pts, d).vertices == hull_oracle(pts)

    def test_int_points_keep_their_type(self):
        # the same values as ints, as Fractions and mixed give the same vertices;
        # int coordinates come back as ints
        rng = random.Random(45)
        for d in range(1, 5):
            for m in range(1, 9):
                for _ in range(3):
                    pts = pareto_heavy(rng, d, m)
                    scale = math.lcm(*(c.denominator for pt in pts for c in pt))
                    ints = [tuple(int(c * scale) for c in pt) for pt in pts]
                    fracs = [tuple(map(Fraction, pt)) for pt in ints]
                    mixed = [tuple(rng.choice([int, Fraction])(c) for c in pt) for pt in ints]
                    want = hull_vertices(fracs, d).vertices
                    assert want == hull_oracle(ints)
                    got = hull_vertices(ints, d).vertices
                    assert got == want
                    assert all(type(c) is int for v in got for c in v)
                    assert hull_vertices(mixed, d).vertices == want
                    for p in ints[:2] + [tuple(c + rng.randrange(-2, 2) for c in ints[-1])]:
                        assert member(p, ints) == member(p, fracs) == member_oracle(p, ints)

    def test_dimension_one_never_runs_the_simplex(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the simplex ran at d = 1")

        monkeypatch.setattr(kappainv.polyhedron, "_phase_one_feasible", refuse)
        rng = random.Random(47)
        for m in range(1, 9):
            pts = pareto_heavy(rng, 1, m)
            assert hull_vertices(pts, 1).vertices == (min(pts),)
            for p in pareto_heavy(rng, 1, 4):
                assert member(p, pts) == (p[0] >= min(pts)[0])


class _RowWrites(list):
    """A tableau that counts row assignments: a pivot rewrites every row but the pivot row."""

    writes = 0

    def __setitem__(self, i, row):
        self.writes += 1
        super().__setitem__(i, row)


class TestSimplex:
    """The integer-preserving simplex that decides what the dominance tests leave open."""

    def test_simplex_sweep_against_oracle(self, monkeypatch):
        runs = []
        simplex = kappainv.polyhedron._phase_one_feasible

        def spy(tab, nstruct):
            assert all(type(v) is int for row in tab for v in row)
            counted = _RowWrites(tab)
            feasible = simplex(counted, nstruct)
            runs.append((counted.writes // (len(tab) - 1), feasible))
            return feasible

        monkeypatch.setattr(kappainv.polyhedron, "_phase_one_feasible", spy)
        rng = random.Random(53)
        for d in range(2, 7):
            for m in range(2, 15):
                spread = [tuple(Fraction(rng.randrange(0, 13), rng.randrange(1, 13))
                                for _ in range(d)) for _ in range(m)]
                for pts in (spread, pareto_heavy(rng, d, m)):
                    for k in (2, 3, 4):
                        # a convex combination of k generators, then nudged below in one coordinate
                        w = [rng.randrange(1, 13) for _ in range(k)]
                        chosen = [rng.choice(pts) for _ in range(k)]
                        mid = tuple(sum(wi * s[r] for wi, s in zip(w, chosen)) / sum(w)
                                    for r in range(d))
                        low = rng.randrange(d)
                        below = tuple(c - Fraction(1, rng.randrange(2, 13)) if r == low else c
                                      for r, c in enumerate(mid))
                        for p in (mid, below):
                            assert member(p, pts) == member_oracle(p, pts), (p, pts)
        assert len(runs) >= 200
        assert sum(1 for _, feasible in runs if feasible) >= 50
        assert sum(1 for _, feasible in runs if not feasible) >= 50
        assert sum(1 for pivots, _ in runs if pivots > 1) >= 100

    def test_negative_coordinates(self):
        # a negative right-hand side is negated before the artificial start
        rng = random.Random(59)
        for _ in range(400):
            d, m = rng.randrange(2, 4), rng.randrange(2, 6)
            pts = [tuple(Fraction(rng.randrange(-8, 9), rng.randrange(1, 4)) for _ in range(d))
                   for _ in range(m)]
            p = tuple(Fraction(rng.randrange(-8, 9), rng.randrange(1, 4)) for _ in range(d))
            assert member(p, pts) == member_oracle(p, pts), (p, pts)


class TestMember:
    def test_midpoint(self):
        assert member((F(1), F(1)), [(F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))])

    def test_domination(self):
        assert member((F(2), F(2)), [(F(1), F(0))])

    def test_origin_outside(self):
        assert not member((F(0), F(0)), [(F(1), F(0)), (F(0), F(1))])

    def test_empty_generator_set(self):
        assert not member((F(1),), [])

    def test_against_fourier_motzkin_oracle(self):
        rng = random.Random(31)
        agree = 0
        for _ in range(220):
            d = rng.randrange(1, 4)
            m = rng.randrange(1, 6)
            pts = [tuple(Fraction(rng.randrange(0, 17), rng.randrange(1, 9))
                         for _ in range(d)) for _ in range(m)]
            p = tuple(Fraction(rng.randrange(0, 17), rng.randrange(1, 9)) for _ in range(d))
            got = member(p, pts)
            want = member_oracle(p, pts)
            assert got == want
            agree += 1
        assert agree == 220


class TestHull:
    def test_midpoint_removed(self):
        P = hull_vertices([(F(1), F(1)), (F(3, 2), F(1, 2)), (F(1, 2), F(3, 2))], 2)
        assert P.vertices == ((F(1, 2), F(3, 2)), (F(3, 2), F(1, 2)))

    def test_dominated_removed(self):
        P = hull_vertices([(F(1), F(0)), (F(0), F(1)), (F(2), F(2))], 2)
        assert P.vertices == ((F(0), F(1)), (F(1), F(0)))

    def test_single_point(self):
        P = hull_vertices([(F(3, 2),)], 1)
        assert P.vertices == ((F(3, 2),),)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            hull_vertices([(1, 2)], 1)
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            hull_vertices([(1, 2), (3, 4, 5)], 2)

    def test_minimality_property(self):
        rng = random.Random(17)
        for _ in range(60):
            d = rng.randrange(1, 4)
            pts = [tuple(Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
                         for _ in range(d)) for _ in range(rng.randrange(1, 6))]
            P = hull_vertices(pts, d)
            for v in P.vertices:
                others = [w for w in P.vertices if w != v]
                assert not member(v, others)
            # every input point is inside the hull
            for q in pts:
                assert member(q, P.vertices)

    def test_idempotent_and_order_independent(self):
        rng = random.Random(23)
        for _ in range(60):
            d = rng.randrange(1, 4)
            pts = [tuple(Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
                         for _ in range(d)) for _ in range(rng.randrange(1, 6))]
            P = hull_vertices(pts, d)
            assert hull_vertices(P.vertices, d).vertices == P.vertices
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert hull_vertices(shuffled, d).vertices == P.vertices


class TestSegment:
    """Membership against exactly two generators, decided in closed form."""

    def test_closed_form_against_the_oracle(self, monkeypatch):
        decided = []
        segment = kappainv.polyhedron._segment_meets

        def spy(p, a, b):
            assert all(type(c) is int for c in (*p, *a, *b))
            decided.append(segment(p, a, b))
            return decided[-1]

        def refuse(*args):
            raise AssertionError("the simplex ran on two generators")

        monkeypatch.setattr(kappainv.polyhedron, "_segment_meets", spy)
        monkeypatch.setattr(kappainv.polyhedron, "_phase_one_feasible", refuse)
        rng = random.Random(61)
        kinds = set()
        for n in range(900):
            d = rng.randrange(1, 6)
            a = tuple(rng.randrange(-6, 7) for _ in range(d))
            b = tuple(rng.randrange(-6, 7) for _ in range(d))
            if n % 3 == 0:
                b = a
            elif n % 3 == 1:  # one coordinate where a_r == b_r
                r = rng.randrange(d)
                b = b[:r] + (a[r],) + b[r + 1:]
            t = Fraction(rng.randrange(0, 9), 8)
            p = tuple(t * x + (1 - t) * y + Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
                      for x, y in zip(a, b))
            want = member_oracle(p, [a, b])
            # the same point and segment as ints, as Fractions and mixed
            scale = math.lcm(*(c.denominator for c in p))
            ints = [tuple(int(c * scale) for c in q) for q in (p, a, b)]
            fracs = [tuple(map(Fraction, q)) for q in (p, a, b)]
            mixed = [tuple(c.numerator if c.denominator == 1 and rng.random() < 0.5 else c
                           for c in q) for q in fracs]
            assert kappainv.polyhedron._segment_meets(*ints) == want, (p, a, b)
            for q, *ab in (ints, fracs, mixed):
                assert member(q, ab) == want, (q, ab)
            kinds.add((a == b, any(x == y for x, y in zip(a, b)), min(a + b) < 0))
        assert len(decided) >= 600
        assert sum(decided) >= 150 and len(decided) - sum(decided) >= 150
        assert {(True, True, True), (False, True, True), (False, False, True)} <= kinds


TWENTY_THREE = [(0, 24, 24), (3, 24, 21), (4, 24, 20), (6, 24, 18), (8, 24, 16), (9, 21, 21),
                (9, 24, 15), (12, 20, 20), (12, 21, 18), (12, 24, 12), (15, 21, 15),
                (16, 20, 16), (18, 18, 18), (18, 21, 12), (20, 20, 12), (21, 18, 15),
                (24, 16, 16), (24, 18, 12), (27, 15, 15), (28, 16, 12), (30, 15, 12),
                (36, 12, 12), (39, 42, 42)]


def lattice_points(rng, d, m):
    """m int points: coarse grid points with ties and duplicates, and points
    inside the segments between them."""
    pts = [tuple(4 * rng.randrange(0, 4) for _ in range(d))]
    while len(pts) < m:
        a, b = rng.choice(pts), rng.choice(pts)
        t = rng.randrange(0, 5)
        pts.append(rng.choice([tuple(4 * rng.randrange(0, 4) for _ in range(d)), a,
                               tuple((t * x + (4 - t) * y) // 4 for x, y in zip(a, b))]))
    return pts


class TestHullCertificates:
    """hull_vertices keeps each cyclic lex minimum with no test, and tests the
    other Pareto minima against those certified vertices first."""

    def test_certified_vertices_are_oracle_vertices(self):
        rng = random.Random(67)
        ties = 0
        for d in range(1, 6):
            for m in range(1, 10):
                for _ in range(3):
                    for pts in (pareto_heavy(rng, d, m), lattice_points(rng, d, m)):
                        certified = kappainv.polyhedron._lex_minima(pts, d)
                        vertices = hull_oracle(pts)
                        assert certified and all(q in vertices for q in certified), pts
                        # a coordinate's minimum reached by two points: the order breaks the tie
                        ties += any(sum(q[r] == min(s[r] for s in pts) for q in set(pts)) > 1
                                    for r in range(d))
        assert ties >= 80

    def test_hull_against_the_oracle(self):
        rng = random.Random(71)
        uncertified = 0
        for d in range(2, 6):
            for m in range(2, 12):
                for _ in range(4):
                    spread = [tuple(rng.randrange(0, 13) for _ in range(d)) for _ in range(m)]
                    for pts in (spread, pareto_heavy(rng, d, m), lattice_points(rng, d, m)):
                        got = hull_vertices(pts, d).vertices
                        assert got == hull_oracle(pts), pts
                        uncertified += len(got) > len(kappainv.polyhedron._lex_minima(pts, d))
        assert uncertified >= 90  # vertices that only the test against all the others keeps

    def test_twenty_three_points_run_on_the_certified_vertices(self, monkeypatch):
        # the first z-stage hull of the towers case translated-classify-p0-d3-n4-t3-s1:
        # 22 Pareto minima, of which the 3 cyclic lex minima are the vertices; of
        # the other 19, 15 lie above a segment between two of them, and each of
        # the 4 inside the triangle takes one simplex run over those 3 generators
        # and the 3 slack columns
        runs = []
        simplex = kappainv.polyhedron._phase_one_feasible

        def spy(tab, nstruct):
            runs.append(nstruct)
            return simplex(tab, nstruct)

        monkeypatch.setattr(kappainv.polyhedron, "_phase_one_feasible", spy)
        P = hull_vertices(TWENTY_THREE, 3)
        assert P.vertices == ((0, 24, 24), (12, 24, 12), (36, 12, 12))
        assert runs == [3 + 3] * 4


class TestEdgeCertificates:
    """hull_vertices tests each uncertified Pareto minimum against the segments
    between two certified vertices before any simplex; _above_an_edge must
    never remove a vertex."""

    def test_no_vertex_lies_above_an_edge(self):
        rng = random.Random(2205)
        accepted = 0
        for d in range(1, 6):
            for m in range(2, 12):
                for _ in range(4):
                    for pts in (pareto_heavy(rng, d, m), lattice_points(rng, d, m)):
                        distinct = sorted(set(pts))
                        vertices = hull_oracle(pts)
                        for q in distinct:
                            others = [s for s in distinct if s != q]
                            above = kappainv.polyhedron._above_an_edge(q, others)
                            assert not (above and q in vertices), (q, pts)
                            accepted += above
        assert accepted >= 500

    def test_two_certified_vertices_take_no_member_call(self, monkeypatch):
        # with two certified vertices the segment between them is the whole test
        calls = []
        test = kappainv.polyhedron.member
        monkeypatch.setattr(kappainv.polyhedron, "member",
                            lambda p, pts: calls.append(len(pts)) or test(p, pts))
        P = hull_vertices([(0, 4), (1, 3), (2, 2), (4, 0), (1, 4), (3, 1)], 2)
        assert P.vertices == ((0, 4), (4, 0))
        assert calls == []


class TestProjected:
    def test_cusp(self, F2):
        P = projected_polyhedron(mkw("z^2 - x1^3", 1, F2))
        assert P.vertices == ((F(3, 2),),)

    def test_two_vertices_example(self, F2):
        P = projected_polyhedron(mkw("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F2))
        assert P.vertices == ((F(1, 2), F(3, 2)), (F(3, 2), F(1, 2)))

    def test_pure_power_is_empty(self, QQ):
        P = projected_polyhedron(mkw("z^3", 1, QQ))
        assert P.is_empty

    def test_support_only_dependence(self, F7):
        base = projected_polyhedron(mkw("z^2 - x1*x2*z - x1^3*x2 - x1*x2^3", 2, F7))
        scaled = projected_polyhedron(mkw("z^2 - 3*x1*x2*z - 2*x1^3*x2 - 6*x1*x2^3", 2, F7))
        assert base.vertices == scaled.vertices


class TestWeighted:
    def test_single_stage_one_point(self, F2):
        f = mk("u1^4 + x1^15*x2^30", 2, F2, aux=("z", "u1"))
        P = weighted_projected_polyhedron(f, "u1", 4, {"z": (F(3, 2), F(3))})
        assert P.vertices == ((F(15, 4), F(15, 2)),)

    def test_dominated_chain_term(self, F2):
        f = mk("u1^4 + x1^12*x2^24*z^2 + x1^12*x2^24*u1", 2, F2, aux=("z", "u1"))
        P = weighted_projected_polyhedron(f, "u1", 4, {"z": (F(3, 2), F(3))})
        assert P.vertices == ((F(15, 4), F(15, 2)),)

    def test_pure_power_empty(self, QQ):
        f = mk("u1^3", 1, QQ, aux=("z", "u1"))
        P = weighted_projected_polyhedron(f, "u1", 3, {"z": (F(1),)})
        assert P.is_empty


class TestInclusion:
    def test_examples(self):
        P32 = hull_vertices([(F(3, 2),)], 1)
        P1 = hull_vertices([(F(1),)], 1)
        empty = hull_vertices([], 1)
        assert polyhedron_leq(P32, P1)
        assert not polyhedron_leq(P1, P32)
        assert polyhedron_leq(empty, P32)
        assert polyhedron_leq(empty, empty)


def test_dimension_bound_enforced():
    from kappainv import ConfigurationError
    import pytest as _pytest
    with _pytest.raises(ConfigurationError):
        hull_vertices([tuple(F(1) for _ in range(9))], 9)


def term_point(expo, d: int, main_idx: int, top_exp: int, aux_weights):
    """The weighted point (A + sum_j e_j * w_j) / (top_exp - e_main) of one term, in Fractions.

    aux_weights maps absolute variable index -> weight vector for every
    auxiliary variable other than the main one.  This is the stage's
    former runtime path, kept as the oracle for its int points.
    """
    den = top_exp - expo[main_idx]
    num = [Fraction(expo[i]) for i in range(d)]
    for i in range(d, len(expo)):
        if i == main_idx or expo[i] == 0:
            continue
        w = aux_weights.get(i)
        if w is None:
            raise ConfigurationError(
                f"missing weight for occurring auxiliary variable at index {i}")
        for c in range(d):
            num[c] += expo[i] * Fraction(w[c])
    return tuple(c / den for c in num)


class TestStageProjection:
    """The stage's int points against term_point and hull_vertices on raw terms."""

    AUX = ("z", "u1", "u2", "u3")

    @staticmethod
    def oracle(f, main, top_exp, weights):
        """(polyhedron, initial form at a vertex) from term_point on every term, no memo."""
        ctx = f.ctx
        midx, top = ctx.var_index(main), ctx.unit(main, top_exp)
        aux = {ctx.var_index(name): vec for name, vec in weights.items()}
        points = {e: term_point(e, ctx.d, midx, top_exp, aux) for e in f.terms if e != top}
        P = hull_vertices(list(points.values()), ctx.d)

        def initial(v):
            return Poly(ctx, f.ring, {e: c for e, c in f.terms.items()
                                      if e == top or points[e] == v})
        return P, initial

    def test_memo_matches_the_raw_oracle(self, QQ, F2, F5):
        rng = random.Random(1202)
        reused = missing = 0
        # top exponents 1-16, then one stage whose scale lcm(1..43) is large
        for trial, top_exp in enumerate([rng.randint(1, 16) for _ in range(90)] + [43]):
            field = [QQ, F2, F5][trial % 3]
            d, k = rng.randint(1, 3), rng.randint(1, 3)
            ctx = VarContext(d, self.AUX[:k + 1])
            main = self.AUX[k]
            weights = {name: tuple(F(rng.randint(0, 12), rng.randint(1, 7)) for _ in range(d))
                       for name in self.AUX[:k]}
            # now and then a stage lacks one weight, and terms in that variable raise
            if trial % 7 == 3:
                del weights[rng.choice(self.AUX[:k])]
            stage = StageProjection(ctx, main, top_exp, weights)
            # the stage's polynomials draw from one pool of exponents, as the
            # engine's rewrites and translations do
            pool = [tuple(rng.randint(0, 3) for _ in range(d + k)) + (rng.randrange(top_exp),)
                    for _ in range(8)]
            asked = 0
            for _ in range(4):
                terms = {ctx.unit(main, top_exp): field.one}
                for e in rng.sample(pool, rng.randint(1, 5)):
                    c = field.from_int(rng.randint(1, 4))
                    if not field.is_zero(c):
                        terms[e] = c
                f = Poly(ctx, field, terms)
                try:
                    P, initial = self.oracle(f, main, top_exp, weights)
                except ConfigurationError as exc:
                    with pytest.raises(ConfigurationError, match=str(exc)):
                        stage.polyhedron(f)
                    missing += 1
                    continue
                got = stage.polyhedron(f)
                assert got.vertices == tuple(on_lattice(stage, v) for v in P.vertices)
                assert all(type(c) is int for v in got.vertices for c in v)
                assert stage.unscale(got) == P
                assert all(type(c) is Fraction for v in stage.unscale(got).vertices for c in v)
                for v in P.vertices:
                    assert stage.initial(f, on_lattice(stage, v)) == initial(v)
                asked += (len(f.terms) - 1) * (1 + len(P.vertices))
            assert len(stage.points) <= len(pool)
            reused += asked - len(stage.points)
        assert reused > 0
        assert missing > 0

    def test_off_grid_vertex_has_no_terms(self, QQ):
        # 13/24 is off the stage's 1/S grid (S = 2 * lcm(1, 2, 3) = 12): S * 13/24
        # is 13/2, no int, though it rounds down to S * 1/2: only the top is kept
        ctx = VarContext(1, ("z", "u1"))
        stage = StageProjection(ctx, "u1", 3, {"z": (F(1, 2),)})
        f = parse_polynomial("u1^3 + x1*u1 + z*u1^2", ctx, QQ)
        assert stage.polyhedron(f).vertices == ((6,),)
        assert stage.unscale(stage.polyhedron(f)).vertices == ((F(1, 2),),)
        assert stage.initial(f, (6,)) == f
        off_grid = on_lattice(stage, (F(13, 24),))
        assert off_grid == (F(13, 2),)
        assert stage.initial(f, off_grid) == parse_polynomial("u1^3", ctx, QQ)

    def test_checks_are_kept(self, QQ):
        ctx = VarContext(2, ("z", "u1", "u2"))
        stage = StageProjection(ctx, "u2", 3, {"z": (F(1), F(2)), "u1": (F(3), F(1, 2))})
        ok = parse_polynomial("u2^3 + x1*z*u2 + x2^2*u1", ctx, QQ)
        assert stage.polyhedron(ok).vertices  # fills the memo first
        for text in ("2*u2^3 + x1*z*u2", "u2^2 + x1*z"):
            with pytest.raises(ContractViolation, match="not monic"):
                stage.polyhedron(parse_polynomial(text, ctx, QQ))
        for text in ("u2^3 + x1*u2^4", "u2^3 + x1*u2^3"):
            with pytest.raises(ContractViolation, match="exceeds the monic degree"):
                stage.polyhedron(parse_polynomial(text, ctx, QQ))
        short = StageProjection(ctx, "u2", 3, {"z": (F(1), F(2))})
        f = parse_polynomial("u2^3 + x2^2*u1", ctx, QQ)
        with pytest.raises(ConfigurationError, match="missing weight"):
            short.polyhedron(f)
        with pytest.raises(ConfigurationError, match="missing weight"):
            short.initial(f, (F(1), F(2)))
        with pytest.raises(ConfigurationError, match="missing weight"):
            prepare_polyhedron(f, short, [], KappaConfig())


class TestStagePower:
    """StageProjection.power against lattice_orders, the branch sweep's walk
    over the residues mod Z^d in Fractions: top_exp // r for the vertex's
    order r modulo Z^d + the chain weights, or None when r does not divide
    top_exp."""

    AUX = ("z", "u1", "u2", "u3")

    def power(self, chain, vertex, top_exp):
        """(StageProjection.power, the lattice_orders answer) for a Fraction vertex."""
        k, d = len(chain), len(vertex)
        ctx = VarContext(d, self.AUX[:k + 1])
        stage = StageProjection(ctx, self.AUX[k], top_exp, dict(zip(self.AUX, chain)))
        v = on_lattice(stage, vertex)
        assert all(type(c) is int for c in v), "off the stage's grid: never a vertex"
        r = lattice_orders(list(chain) + [vertex])[-1]
        return stage.power(v), (None if top_exp % r else top_exp // r), r

    @pytest.mark.parametrize("chain, vertex, top_exp, want", [
        ((), (F(3, 2),), 4, 2),                                    # r = 2
        ((), (F(2, 5),), 6, None),                                 # r = 5 does not divide 6
        ((), (F(1, 7), F(1, 8)), 8, None),                         # r = 56 exceeds 8
        (((F(3, 2), F(3)),), (F(15, 4), F(15, 2)), 4, 2),          # the README tower
        (((F(3, 2), F(3)), (F(15, 4), F(15, 2))), (F(63, 8), F(63, 4)), 2, 1),
        (((F(3, 2),),), (F(27, 8),), 8, 2),                        # r = 4, inner 4
        (((F(1, 2), F(0)), (F(0), F(1, 3))), (F(1, 2), F(1, 3)), 6, 6),  # in the lattice
    ])
    def test_known_orders(self, chain, vertex, top_exp, want):
        got, oracle, _ = self.power(chain, vertex, top_exp)
        assert got == oracle == want

    def test_seeded_chains(self):
        rng = random.Random(2501)
        kinds = set()
        for _ in range(300):
            d, k = rng.randint(1, 3), rng.randint(0, 3)
            # a weight has one denominator, as a stage vertex over the lattice
            # before it; the chain's orders multiply to at most 16, as the
            # inner exponents of a degree-16 tower do
            chain = []
            while len(chain) < k:
                q = rng.randint(2, 8)
                w = tuple(F(rng.randint(0, 3 * q), q) for _ in range(d))
                if math.prod(lattice_orders(chain + [w])) <= 16:
                    chain.append(w)
            # top exponents from 8 up put every denominator 2-8 on the stage's grid
            top_exp = rng.randint(8, 16)
            vertex = tuple(F(rng.randint(0, 24), rng.randint(2, 8)) for _ in range(d))
            got, want, r = self.power(chain, vertex, top_exp)
            assert got == want, (chain, vertex, top_exp)
            kinds.add("divides" if want else "exceeds" if r > top_exp else "does not divide")
        assert kinds == {"divides", "exceeds", "does not divide"}
