"""Exact rational geometry of orthant polyhedra conv(S) + R_{>=0}^d.

Inside a kappa stage every point and every polyhedron's vertex is an int
tuple: the stage's weighted points scaled by one common denominator S,
fixed when the stage is built.  Only what leaves the stage is divided by S
into Fractions.

A polyhedron is stored by its minimal vertex set.  Membership of a point in
conv(S) + R_{>=0}^d is decided in tiers, each exact: inside when p
dominates a generator; outside when a coordinate of p is below its minimum
over S; against exactly two generators, by intersecting the intervals of
the segment parameter in closed form; else by an integer-preserving
phase-one simplex with Bland's rule, whose objective row is pivoted like a
row.  Points are scaled to ints once (not at all when they are ints
already), and fraction-free pivots keep them ints, so there are no
tolerances, no cycling and no Fractions in the LP.  Instances are tiny
(d <= 8, a handful of generators), which makes the dense tableau the
simplest correct choice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, ContractViolation
from .poly import Poly, WeierstrassPoly

MAX_DIMENSION = 8


@dataclass(frozen=True)
class OrthantPolyhedron:
    """conv(vertices) + R_{>=0}^d with a minimal, lex-sorted vertex tuple."""

    d: int
    vertices: tuple

    @property
    def is_empty(self) -> bool:
        return not self.vertices


def member(p, points) -> bool:
    """Whether p lies in conv(points) + R_{>=0}^d.

    Feasibility of: lambda >= 0, sum(lambda) = 1, sum(lambda_i s_i) <= p
    componentwise, decided by dominance tests, then on ints (scaled once
    unless every coordinate already is one) by the closed form for two
    generators or the exact phase-one simplex.
    """
    points = list(points)
    if not points:
        return False
    d = len(p)
    for s in points:
        if len(s) != d:
            raise ContractViolation("dimension mismatch in membership test")
    if any(all(a <= b for a, b in zip(s, p)) for s in points):
        return True
    if any(p[r] < min(s[r] for s in points) for r in range(d)):
        return False
    if any(type(c) is not int for s in (p, *points) for c in s):
        scale = math.lcm(*(c.denominator for s in (p, *points) for c in s))
        p, *points = [[c.numerator * (scale // c.denominator) for c in s] for s in (p, *points)]
    if len(points) == 2:
        return _segment_meets(p, *points)
    # int rows [A | slack | b]: d coordinate rows, each with b >= 0 for the
    # artificial start, then convexity
    rows = []
    for r in range(d):
        row = [s[r] for s in points] + [int(c == r) for c in range(d)] + [p[r]]
        rows.append(row if row[-1] >= 0 else [-v for v in row])
    rows.append([1] * len(points) + [0] * d + [1])
    return _phase_one_feasible(rows, len(points) + d)


def _segment_meets(p, a, b) -> bool:
    """Whether t*a + (1 - t)*b <= p for some t in [0, 1], for int points.

    Coordinate r reads t*(a_r - b_r) <= p_r - b_r: an upper bound on t where
    a_r > b_r, a lower bound where a_r < b_r, and no bound (or no t) where
    they are equal.  The bounds are int fractions with positive
    denominators, starting from [0, 1], compared by cross-multiplication.
    """
    lo, lo_den, hi, hi_den = 0, 1, 1, 1
    for ar, br, pr in zip(a, b, p):
        c, e = ar - br, pr - br
        if c > 0:
            if e * hi_den < hi * c:
                hi, hi_den = e, c
        elif c < 0:
            if e * lo_den < lo * c:
                lo, lo_den = -e, -c
        elif e < 0:
            return False
    return lo * hi_den <= hi * lo_den


def _phase_one_feasible(tab, nstruct) -> bool:
    """Whether A x = b has a solution x >= 0, for an int tableau [A | b], b >= 0.

    Phase one starts from the artificial basis; artificial r has basis index
    nstruct + r, and its column is never stored, since it never re-enters.
    Edmonds-Bareiss pivots keep tab equal to den times the true tableau, with
    den > 0 the previous pivot, so every division is exact (Bareiss, Math.
    Comp. 1968; as in Avis' lrs).  The objective row, the sum of the rows
    whose basic variable is artificial, is pivoted like a row.  Bland's rule
    rules out cycling.
    """
    basis = [nstruct + r for r in range(len(tab))]
    obj = [sum(col) for col in zip(*tab)]
    den = 1
    while True:
        # reduced cost of column j is -obj[j] / den: enter the first negative
        entering = next((j for j in range(nstruct) if obj[j] > 0), None)
        if entering is None:
            return obj[-1] == 0
        # some artificial row has a positive entry, so the ratio test finds a row
        leaving = None
        for r, row in enumerate(tab):
            a = row[entering]
            if a > 0 and (leaving is None or (row[-1] * tab[leaving][entering], basis[r])
                          < (tab[leaving][-1] * a, basis[leaving])):
                leaving = r
        prow = tab[leaving]
        piv = prow[entering]
        for r, row in enumerate(tab):
            if r != leaving:
                f = row[entering]
                tab[r] = [(v * piv - f * w) // den for v, w in zip(row, prow)]
        f = obj[entering]
        obj = [(v * piv - f * w) // den for v, w in zip(obj, prow)]
        basis[leaving] = entering
        den = piv


def check_dimension(d: int) -> None:
    """Refuse more x-variables than the hull and membership LPs are bounded for."""
    if d > MAX_DIMENSION:
        raise ConfigurationError(f"dimension {d} exceeds the configured bound {MAX_DIMENSION}")


def hull_vertices(points, d: int) -> OrthantPolyhedron:
    """Minimal V with conv(V) + orthant = conv(points) + orthant.

    A generator is a vertex exactly when it is not a member of the hull of
    the others, so a single removal pass is canonical.  It runs on the Pareto
    minima only, since a point that weakly dominates a distinct (lex-smaller)
    point is no vertex (Kung, Luccio and Preparata, JACM 1975).  The
    lexicographic minimum under each cyclic order of the coordinates is a
    vertex with no test.  Every other point is tested first against each
    segment between two certified vertices, in closed form; then, when
    there are three or more, against the hull of all of them; and only then
    against all the other points.  Coordinates are kept as given, so int
    points give int vertices and membership among them needs no scaling.
    """
    check_dimension(d)
    kept = []
    for q in sorted({tuple(pt) for pt in points}):
        if len(q) != d:
            raise ContractViolation(f"dimension mismatch: {q} has not {d} coordinates")
        if not any(all(a <= b for a, b in zip(s, q)) for s in kept):
            kept.append(q)
    certified = _lex_minima(kept, d)
    i = 0
    while i < len(kept):
        q = kept[i]
        if q not in certified and (
                _above_an_edge(q, certified)
                or (len(certified) > 2 and member(q, certified))
                or (len(kept) - 1 > len(certified) and member(q, kept[:i] + kept[i + 1:]))):
            kept.pop(i)
        else:
            i += 1
    return OrthantPolyhedron(d, tuple(kept))


def _above_an_edge(q, vertices) -> bool:
    """Whether q lies in segment(a, b) + R_{>=0}^d for two of the given points."""
    return any(_segment_meets(q, a, b) for a, b in itertools.combinations(vertices, 2))


def _lex_minima(points, d: int) -> list:
    """The least point under each cyclic order of the d coordinates, sorted.

    Each is a vertex of conv(points) + R_{>=0}^d: a combination of points
    that lies below it can only use points equal to it.
    """
    if not points:
        return []
    return sorted({min(points, key=lambda q: q[r:] + q[:r]) for r in range(d)})


def polyhedron_leq(P: OrthantPolyhedron, Q: OrthantPolyhedron) -> bool:
    """P subset of Q, tested vertex by vertex."""
    if P.d != Q.d:
        raise ContractViolation("dimension mismatch")
    return all(member(v, Q.vertices) for v in P.vertices)


class StageProjection:
    """The weighted projection of one kappa stage, on integers.

    Holds the stage's context, main variable index, monic top monomial and
    auxiliary weights (absolute variable index -> weight vector), and one
    scale S = lcm(weight denominators) * lcm(1..top_exp), fixed here.  The
    point (A + sum_j e_j * w_j) / (top_exp - e_main) of a term, times S, is
    an int tuple; it is memoized by exponent, so every polynomial of the
    stage shares it.  A polynomial's terms below the monic top are grouped
    by point once (terms_by_point), and the last polynomial's groups are
    kept by identity, which is safe because a Poly's terms never change:
    polyhedron() takes the hull of the distinct points, and the terms at a
    vertex are one lookup.  Inside the stage every polyhedron and vertex
    stays on this S-scaled int lattice: polyhedron() returns int vertices,
    power() takes one as it comes, and standard_monomial() an int weight.
    unscale() makes the Fraction vertices of what leaves the stage.  Only
    polynomials in the stage's context may be passed.
    """

    def __init__(self, ctx, main_var: str, top_exp: int, weights: dict):
        self.ctx, self.main_var, self.top_exp = ctx, main_var, top_exp
        self.midx = ctx.var_index(main_var)
        self.top = ctx.unit(main_var, top_exp)
        # S times each weight is an int, and S times each point, since every
        # denominator top_exp - e_main divides lcm(1..top_exp)
        den = math.lcm(*(c.denominator for vec in weights.values() for c in vec))
        self.scale = S = den * math.lcm(*range(1, top_exp + 1))
        self.aux = {ctx.var_index(name): tuple(c.numerator * (S // c.denominator) for c in vec)
                    for name, vec in weights.items()}
        self.points = {}
        self._grouped = None, {}, False  # (polynomial, its groups, a term above the top)

    @functools.cached_property
    def levels(self) -> list:
        """S times the lattices Z^d + Z * w_1 + ... + Z * w_k mod S, k = 0, 1, ...,
        for the weights in chain order: each weight adds the cosets of its
        multiples below its order."""
        S, levels = self.scale, [{(0,) * self.ctx.d}]
        for w in self.aux.values():
            below = levels[-1]
            order = next(m for m in itertools.count(1) if tuple(m * c % S for c in w) in below)
            levels.append({tuple((a + j * c) % S for a, c in zip(r, w))
                           for r in below for j in range(order)})
        return levels

    def standard_monomial(self, weight):
        """The exponent of x^a times the chain variables, each below its order,
        whose weight is the int weight given (S times a weighted point); None
        when weight is off the lattice or a would be negative.  Distinct such
        monomials have distinct weights, and the exponents are read top-down:
        the last chain variable's is the least b with weight - b * w in the
        level below."""
        S, e, rest = self.scale, [0] * self.ctx.nvars, tuple(weight)
        if tuple(c % S for c in rest) not in self.levels[-1]:
            return None
        for (i, w), below in zip(reversed(self.aux.items()), reversed(self.levels[:-1])):
            b = next(b for b in itertools.count()
                     if tuple((c - b * x) % S for c, x in zip(rest, w)) in below)
            e[i], rest = b, tuple(c - b * x for c, x in zip(rest, w))
        if any(c < 0 for c in rest):
            return None
        e[:self.ctx.d] = (c // S for c in rest)
        return tuple(e)

    def point(self, e):
        """S times the weighted point of the term with exponent e, memoized."""
        pt = self.points.get(e)
        if pt is None:
            pt = self.points[e] = self.scaled_point(e)
        return pt

    def scaled_point(self, e):
        """S times the weighted point of a term below the monic top, as ints."""
        d, S = self.ctx.d, self.scale
        num = [S * a for a in e[:d]]
        for i in range(d, len(e)):
            if i == self.midx or e[i] == 0:
                continue
            w = self.aux.get(i)
            if w is None:
                raise ConfigurationError(
                    f"missing weight for occurring auxiliary variable at index {i}")
            for c in range(d):
                num[c] += e[i] * w[c]
        den = self.top_exp - e[self.midx]
        return tuple(c // den for c in num)

    def terms_by_point(self, f: Poly):
        """f's terms below the top degree grouped by point, and whether a term
        other than the top lies at or above the top degree; read once per
        polynomial.  Checks nothing else: polyhedron() raises on what it
        refuses."""
        last, groups, above = self._grouped
        if f is last:
            return groups, above
        midx, top_exp, top, point = self.midx, self.top_exp, self.top, self.point
        groups, above = {}, False
        for e, c in f.terms.items():
            if e[midx] < top_exp:
                pt = point(e)
                group = groups.get(pt)
                if group is None:
                    groups[pt] = {e: c}
                else:
                    group[e] = c
            elif e != top:
                above = True
        self._grouped = f, groups, above
        return groups, above

    def power(self, vertex):
        """top_exp // r for the int vertex's order r modulo the lattice; None unless r | top_exp."""
        S = self.scale
        r = next(r for r in itertools.count(1) if tuple(r * c % S for c in vertex) in self.levels[-1])
        return None if self.top_exp % r else self.top_exp // r

    def polyhedron(self, f: Poly) -> OrthantPolyhedron:
        """Hull of the points of all terms below the monic top, on the stage's lattice."""
        if f.terms.get(self.top) != f.ring.one:
            raise ContractViolation(f"not monic of degree {self.top_exp} in {self.main_var}")
        groups, above = self.terms_by_point(f)
        if above:
            raise ContractViolation(f"term exceeds the monic degree in {self.main_var}")
        return hull_vertices(list(groups), self.ctx.d)

    def unscale(self, P: OrthantPolyhedron) -> OrthantPolyhedron:
        """P with every vertex divided by S: the weighted polyhedron, in Fractions."""
        S = self.scale
        return OrthantPolyhedron(P.d, tuple(tuple(Fraction(c, S) for c in v) for v in P.vertices))


def weighted_projected_polyhedron(f: Poly, main_var: str, top_exp: int,
                                  weights: dict) -> OrthantPolyhedron:
    """Hull of the weighted points of all terms below the monic top.

    weights maps auxiliary variable names (z, u1, ...) other than main_var
    to their weight vectors in Q_{>=0}^d.
    """
    stage = StageProjection(f.ctx, main_var, top_exp, weights)
    return stage.unscale(stage.polyhedron(f))


def projected_polyhedron(f: WeierstrassPoly) -> OrthantPolyhedron:
    """Hull of A/(n - b) over the non-monic terms x^A z^b of f."""
    return weighted_projected_polyhedron(f.poly, "z", f.n, {})
