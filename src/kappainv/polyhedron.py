"""Exact rational geometry of orthant polyhedra conv(S) + R_{>=0}^d.

A kappa run weighs its variables in one ChainLattice, as ints over one
denominator D.  Inside a stage every point and every polyhedron's vertex is
an int tuple over S = D * lcm(1..top_exp), fixed when the stage is built.
Only what leaves the stage is divided by S into Fractions.

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
from fractions import Fraction
from operator import le
from typing import NamedTuple

from .errors import ConfigurationError, ContractViolation
from .poly import Poly, WeierstrassPoly

MAX_DIMENSION = 8


class OrthantPolyhedron(NamedTuple):
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
    if any(all(map(le, s, p)) for s in points):
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
    vertex with no test, so at most two Pareto minima are returned as they
    are: two incomparable points are each the least under a cyclic order
    that starts at a coordinate where it is the smaller.  Every other point
    is tested first against each segment between two certified vertices, in
    closed form; then, when there are three or more, against the hull of
    all of them; and only then against all the other points.  Coordinates
    are kept as given, so int points give int vertices and membership among
    them needs no scaling.
    """
    check_dimension(d)
    kept = []
    for q in sorted({tuple(pt) for pt in points}):
        if len(q) != d:
            raise ContractViolation(f"dimension mismatch: {q} has not {d} coordinates")
        if not any(all(map(le, s, q)) for s in kept):
            kept.append(q)
    if len(kept) <= 2:
        return OrthantPolyhedron(d, tuple(kept))
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


class ChainLattice:
    """The lattice Z^d + Z*w_z + Z*w_u1 + ... of one kappa run, on ints: one
    denominator D, the weights D*w of z, u1, ... in chain order (None for a
    variable with none), and the residues mod D of the lattice, each mapped
    to the chain exponents below their orders that reach it.  extend() makes
    a new chain, so a stage keeps its answers.  The methods read int vectors
    over D*m, as a stage's S = D * lcm(1..top_exp) gives them."""

    def __init__(self, d: int, D: int = 1, weights: tuple = (), below: ChainLattice = None):
        self.d, self.D, self.weights, self.below = d, D, weights, below

    def extend(self, weight) -> ChainLattice:
        """The chain with one more variable, weighing weight (ints or Fractions) or nothing."""
        D = math.lcm(self.D, *(c.denominator for c in weight or ()))
        k, w = D // self.D, weight and tuple(c.numerator * (D // c.denominator) for c in weight)
        return ChainLattice(self.d, D, tuple(v and tuple(k * c for c in v) for v in self.weights)
                            + (w,), self)

    @functools.cached_property
    def residues(self) -> dict:
        """The chain below's residues translated by j times the last weight, for
        each j below its order, with j appended to their exponents; made once."""
        below = self.below
        if below is None:
            return {(0,) * self.d: ()}
        # a variable with no weight adds the coset of 0 alone
        w, D = self.weights[-1] or (0,) * self.d, self.D
        k = D // below.D
        js = range(below.order(w, k))
        return {tuple((k * a + j * c) % D for a, c in zip(r, w)): b + (j,)
                for r, b in below.residues.items() for j in js}

    def order(self, v, m: int) -> int:
        """The least r > 0 with r*v/(D*m) in the lattice, a multiple of the
        least r0 with r0*v/m integral."""
        r0 = m // math.gcd(m, *v)
        u, D, residues = [r0 * c // m for c in v], self.D, self.residues
        return r0 * next(t for t in itertools.count(1) if tuple(t * c % D for c in u) in residues)

    def weight_of(self, e, skip: int = -1) -> list:
        """D times the weight of the monomial with exponent e, leaving out index skip."""
        d, weights = self.d, self.weights
        num = [self.D * a for a in e[:d]]
        for i in range(d, len(e)):
            if e[i] and i != skip:
                w = weights[i - d] if i - d < len(weights) else None
                if w is None:
                    raise ConfigurationError(
                        f"missing weight for occurring auxiliary variable at index {i}")
                for c in range(d):
                    num[c] += e[i] * w[c]
        return num

    def standard_monomial(self, weight, m: int):
        """The exponent of x^a times the chain variables, each below its order,
        of weight weight / (D*m); None when there is none.  Distinct such
        monomials have distinct weights, so the residue names the chain's."""
        if any(c % m for c in weight):
            return None
        rest = [c // m for c in weight]
        b = self.residues.get(tuple(c % self.D for c in rest))
        if b is None:
            return None
        for bj, w in zip(b, self.weights):
            if bj:
                rest = [c - bj * x for c, x in zip(rest, w)]
        return None if min(rest) < 0 else tuple(c // self.D for c in rest) + b


class StageProjection:
    """The weighted projection of one kappa stage, on integers.

    Holds the stage's context, main variable index, monic top monomial and
    the chain lattice of the variables before the main one; S = D *
    lcm(1..top_exp) for the chain's D.  S times the point (A + sum_j e_j *
    w_j) / (top_exp - e_main) of a term is an int tuple, as top_exp - e_main
    divides lcm(1..top_exp); it is memoized by exponent for every polynomial
    of the stage.  A polynomial's terms below the monic top are grouped by
    point once (terms_by_point), and the last polynomial's groups are kept
    by identity, which is safe because a Poly's terms never change:
    polyhedron() takes the hull of the distinct points, and the terms at a
    vertex are one lookup.  Every polyhedron, vertex and weight inside the
    stage stays over S; unscale() makes the Fraction vertices of what
    leaves it.  Only polynomials in the stage's context may be passed.
    """

    def __init__(self, ctx, main_var: str, top_exp: int, chain: ChainLattice):
        self.ctx, self.main_var, self.top_exp, self.chain = ctx, main_var, top_exp, chain
        self.midx = ctx.var_index(main_var)
        self.top = ctx.unit(main_var, top_exp)
        self.factor = math.lcm(*range(1, top_exp + 1))
        self.scale = chain.D * self.factor
        self.points = {}
        self._grouped = None, {}, False  # (polynomial, its groups, a term above the top)

    def standard_monomial(self, weight):
        """ChainLattice.standard_monomial of an int weight over S, in the stage's context."""
        e = self.chain.standard_monomial(weight, self.factor)
        return None if e is None else self.ctx.pad(e)

    def point(self, e):
        """S times the weighted point of the term with exponent e, memoized."""
        pt = self.points.get(e)
        if pt is None:
            pt = self.points[e] = self.scaled_point(e)
        return pt

    def scaled_point(self, e):
        """S times the weighted point of a term below the monic top, as ints."""
        m, den = self.factor, self.top_exp - e[self.midx]
        return tuple(m * c // den for c in self.chain.weight_of(e, self.midx))

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
        r = self.chain.order(vertex, self.factor)
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

    weights maps the names of the auxiliary variables before main_var (z,
    u1, ...) to their weight vectors in Q_{>=0}^d.
    """
    ctx, chain = f.ctx, ChainLattice(f.ctx.d)
    for name in ctx.aux[:ctx.var_index(main_var) - ctx.d]:
        chain = chain.extend(weights.get(name))
    stage = StageProjection(ctx, main_var, top_exp, chain)
    return stage.unscale(stage.polyhedron(f))


def projected_polyhedron(f: WeierstrassPoly) -> OrthantPolyhedron:
    """Hull of A/(n - b) over the non-monic terms x^A z^b of f."""
    return weighted_projected_polyhedron(f.poly, "z", f.n, {})
