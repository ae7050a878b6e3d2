"""Exact rational geometry of orthant polyhedra conv(S) + R_{>=0}^d.

A polyhedron is stored by its minimal vertex set.  Membership of a point in
conv(S) + R_{>=0}^d is decided first by exact dominance tests (inside when
p dominates a generator, outside when a coordinate of p is below its minimum
over S), then by an integer-preserving phase-one simplex with Bland's
rule: the rows are scaled to ints once, and fraction-free pivots keep them
ints, so there are no tolerances, no cycling and no Fractions in the LP.
Instances are tiny (d <= 8, a handful of generators), which makes the dense
tableau the simplest correct choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, ContractViolation, EmptyPolyhedronError
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
    componentwise, decided by dominance tests, then exact phase-one simplex.
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
    scale = math.lcm(*(c.denominator for s in (p, *points) for c in s))

    def ints(cs):
        return [c.numerator * (scale // c.denominator) for c in cs]

    # int rows [A | slack | b]: d coordinate rows scaled by the common
    # denominator, each with b >= 0 for the artificial start, then convexity
    rows = []
    for r in range(d):
        row = ints([s[r] for s in points]) + [int(c == r) for c in range(d)] + ints([p[r]])
        rows.append(row if row[-1] >= 0 else [-v for v in row])
    rows.append([1] * len(points) + [0] * d + [1])
    return _phase_one_feasible(rows, len(points) + d)


def _phase_one_feasible(tab, nstruct) -> bool:
    """Whether A x = b has a solution x >= 0, for an int tableau [A | b], b >= 0.

    Phase one starts from the artificial basis; artificial r has basis index
    nstruct + r, and its column is never stored, since it never re-enters.
    Edmonds-Bareiss pivots keep tab equal to den times the true tableau, with
    den > 0 the previous pivot, so every division is exact (Bareiss, Math.
    Comp. 1968; as in Avis' lrs).  Bland's rule rules out cycling.
    """
    basis = [nstruct + r for r in range(len(tab))]
    den = 1
    while True:
        arts = [row for row, b in zip(tab, basis) if b >= nstruct]
        # reduced cost of column j is -sum(arts[.][j]) / den: enter the first negative
        entering = next((j for j in range(nstruct) if sum(row[j] for row in arts) > 0), None)
        if entering is None:
            return sum(row[-1] for row in arts) == 0
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
    point is no vertex (Kung, Luccio and Preparata, JACM 1975).
    """
    check_dimension(d)
    kept = []
    for q in sorted({tuple(Fraction(c) for c in pt) for pt in points}):
        if len(q) != d:
            raise ContractViolation(f"dimension mismatch: {q} has not {d} coordinates")
        if not any(all(a <= b for a, b in zip(s, q)) for s in kept):
            kept.append(q)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if rest and member(kept[i], rest):
            kept.pop(i)
        else:
            i += 1
    return OrthantPolyhedron(d, tuple(kept))


def lex_min_vertex(P: OrthantPolyhedron):
    if P.is_empty:
        raise EmptyPolyhedronError("the empty polyhedron has no vertices")
    return P.vertices[0]


def polyhedron_leq(P: OrthantPolyhedron, Q: OrthantPolyhedron) -> bool:
    """P subset of Q, tested vertex by vertex."""
    if P.d != Q.d:
        raise ContractViolation("dimension mismatch")
    return all(member(v, Q.vertices) for v in P.vertices)


def term_point(expo, d: int, main_idx: int, top_exp: int, aux_weights):
    """Weighted point (A + sum_j e_j * w_j) / (top_exp - e_main) of one term.

    aux_weights maps absolute variable index -> weight vector for every
    auxiliary variable other than the main one; returns None for the monic
    top slot (denominator zero is the caller's contract to exclude).
    """
    den = top_exp - expo[main_idx]
    if den <= 0:
        return None
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


def weighted_projected_polyhedron(f: Poly, main_var: str, top_exp: int,
                                  weights: dict) -> OrthantPolyhedron:
    """Hull of the weighted points of all terms below the monic top.

    weights maps auxiliary variable names (z, u1, ...) other than main_var
    to their weight vectors in Q_{>=0}^d.
    """
    ctx = f.ctx
    d = ctx.d
    midx = ctx.var_index(main_var)
    top = ctx.unit(main_var, top_exp)
    if f.terms.get(top) != f.ring.one:
        raise ContractViolation(f"not monic of degree {top_exp} in {main_var}")
    aux_weights = {}
    for name, vec in weights.items():
        aux_weights[ctx.var_index(name)] = vec
    pts = []
    for e in f.terms:
        if e[midx] >= top_exp:
            if e != top:
                raise ContractViolation(f"term exceeds the monic degree in {main_var}")
            continue
        pts.append(term_point(e, d, midx, top_exp, aux_weights))
    return hull_vertices(pts, d)


def projected_polyhedron(f: WeierstrassPoly) -> OrthantPolyhedron:
    """Hull of A/(n - b) over the non-monic terms x^A z^b of f."""
    return weighted_projected_polyhedron(f.poly, "z", f.n, {})
