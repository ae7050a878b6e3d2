"""Exact rational geometry of orthant polyhedra conv(S) + R_{>=0}^d.

A polyhedron is stored by its minimal vertex set.  Membership of a point in
conv(S) + R_{>=0}^d is decided first by exact dominance tests (inside when
p dominates a generator, outside when a coordinate of p is below its minimum
over S), then by exact phase-one simplex over Fractions with Bland's rule,
so there are no tolerances and no cycling.  Instances are tiny (d <= 8, a
handful of generators), which makes the dense tableau the simplest correct
choice.
"""

from __future__ import annotations

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
    m = len(points)
    # rows: d coordinate rows (with slack) plus the convexity row
    nstruct = m + d
    rows = []
    rhs = []
    for r in range(d):
        row = [Fraction(points[i][r]) for i in range(m)]
        row += [Fraction(1) if c == r else Fraction(0) for c in range(d)]
        rows.append(row)
        rhs.append(Fraction(p[r]))
    rows.append([Fraction(1)] * m + [Fraction(0)] * d)
    rhs.append(Fraction(1))
    return _phase_one_feasible(rows, rhs, nstruct)


def _phase_one_feasible(rows, rhs, nstruct) -> bool:
    nrows = len(rows)
    width = nstruct + nrows + 1  # structurals, artificials, rhs
    tab = []
    for r in range(nrows):
        art = [Fraction(1) if c == r else Fraction(0) for c in range(nrows)]
        tab.append(rows[r] + art + [rhs[r]])
    basis = [nstruct + r for r in range(nrows)]

    def reduced_cost(col):
        # artificial cost 1, structural cost 0; basis always has cost pattern below
        z = Fraction(0)
        for r in range(nrows):
            if basis[r] >= nstruct:
                z += tab[r][col]
        cost = Fraction(1) if col >= nstruct else Fraction(0)
        return cost - z

    while True:
        entering = None
        for j in range(nstruct):  # artificials never re-enter
            if reduced_cost(j) < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(nrows):
            a = tab[r][entering]
            if a > 0:
                ratio = tab[r][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise ContractViolation("phase-one simplex became unbounded")
        piv = tab[leaving][entering]
        tab[leaving] = [v / piv for v in tab[leaving]]
        for r in range(nrows):
            if r != leaving and tab[r][entering] != 0:
                factor = tab[r][entering]
                tab[r] = [v - factor * w for v, w in zip(tab[r], tab[leaving])]
        basis[leaving] = entering
    infeasibility = sum((tab[r][width - 1] for r in range(nrows) if basis[r] >= nstruct),
                        Fraction(0))
    return infeasibility == 0


def hull_vertices(points, d: int) -> OrthantPolyhedron:
    """Minimal V with conv(V) + orthant = conv(points) + orthant.

    A generator is a vertex exactly when it is not a member of the hull of
    the others, so a single removal pass is canonical.  It runs on the Pareto
    minima only, since a point that weakly dominates a distinct (lex-smaller)
    point is no vertex (Kung, Luccio and Preparata, JACM 1975).
    """
    if d > MAX_DIMENSION:
        raise ConfigurationError(f"dimension {d} exceeds the configured bound {MAX_DIMENSION}")
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
