"""Discriminants, the monomial-times-unit test, and the combined classifier.

The discriminant is the raw Sylvester resultant Res_z(f, df/dz) with no
sign or leading-coefficient normalization; the quasi-ordinary condition
(a unit times a monomial) is insensitive to that choice.  Res(f, 0) = 0 by
convention, which covers the purely inseparable case in characteristic p.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ContractViolation
from .kappa import (KappaConfig, KappaResult, Terminal, compute_kappa)
from .poly import Poly, WeierstrassPoly, derivative, exact_div

# Cofactor expansion up to this size, Bareiss above.  On the benchmark's
# Sylvester matrices (size 2n - 1) cofactor is faster at size 5 (0.18 ms
# against 1.0 ms on field-roots) and Bareiss at sizes 7 and 9 (12 ms against
# 97 ms on towers, 8.2 ms against 41 ms on field-roots); only the very sparse
# matrices of the discriminants workload favour cofactor above 6.
_COFACTOR_MAX_DIM = 6


@dataclass(frozen=True)
class MonomialUnitStatus:
    status: str           # "yes" | "no" | "inconclusive"
    exponent: tuple = None


@dataclass
class DiscriminantReport:
    disc: Poly
    exact: bool
    monomial_unit: MonomialUnitStatus


def _z_coefficients(f: Poly, n: int) -> list:
    """Coefficient polynomials [c_n, ..., c_0] of f as a polynomial in z."""
    ctx = f.ctx
    zidx = ctx.var_index("z")
    buckets = {}
    for e, c in f.terms.items():
        e2 = list(e)
        k = e2[zidx]
        e2[zidx] = 0
        buckets.setdefault(k, {})[tuple(e2)] = c
    return [Poly(ctx, f.ring, buckets.get(k, {}), f.trunc) for k in range(n, -1, -1)]


def sylvester_matrix(f: Poly, g: Poly, n: int, m: int) -> list:
    """The (n+m) x (n+m) Sylvester matrix of (f, g) as polynomials in z."""
    fc = _z_coefficients(f, n)
    gc = _z_coefficients(g, m)
    size = n + m
    zero = Poly.zero(f.ctx, f.ring)
    rows = []
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(fc):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(gc):
            row[i + j] = c
        rows.append(row)
    return rows


def _det_cofactor(rows) -> Poly:
    size = len(rows)
    if size == 1:
        return rows[0][0]
    some = rows[0][0]
    ring = some.ring
    ctx = some.ctx
    total = Poly.zero(ctx, ring)
    for i in range(size):
        entry = rows[i][0]
        if entry.is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        piece = entry.mul(_det_cofactor(minor))
        total = total.add(piece) if i % 2 == 0 else total.sub(piece)
    return total


def _det_bareiss(rows) -> Poly:
    """Fraction-free elimination (Bareiss); on exact entries every division is exact."""
    size = len(rows)
    M = [list(r) for r in rows]
    some = M[0][0]
    ring = some.ring
    ctx = some.ctx
    one = Poly.one(ctx, ring)
    prev = one
    sign = 1
    for k in range(size - 1):
        if M[k][k].is_zero():
            swap = next((i for i in range(k + 1, size) if not M[i][k].is_zero()), None)
            if swap is None:
                return Poly.zero(ctx, ring)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = M[i][j].mul(M[k][k]).sub(M[i][k].mul(M[k][j]))
                M[i][j] = exact_div(num, prev)
            M[i][k] = Poly.zero(ctx, ring)
        prev = M[k][k]
    det = M[size - 1][size - 1]
    return det if sign > 0 else det.neg()


def determinant(rows) -> Poly:
    """The determinant; entries with a certificate T give it modulo x^T.

    Cofactor expansion (small sizes) only adds and multiplies, so it is valid
    on truncated entries as they are.  Bareiss divides, which is exact only
    on exact polynomials: it runs on the stored entries with their
    certificates dropped, and the smallest certificate T is applied once to
    the result.  That is sound because det(A mod x^T) = det(A) mod x^T when
    no entry has a negative exponent.
    """
    if not rows:
        raise ContractViolation("empty matrix")
    if len(rows) <= _COFACTOR_MAX_DIM:
        return _det_cofactor(rows)
    T = min((e.trunc for r in rows for e in r if e.trunc is not None), default=None)
    det = _det_bareiss([[Poly(e.ctx, e.ring, e.terms) for e in r] for r in rows])
    # the result carries T even when no term of the exact det reaches it
    return Poly(det.ctx, det.ring, det.truncate(T).terms, T)


def discriminant_z(wf: WeierstrassPoly, T=None) -> DiscriminantReport:
    """Res_z(f, df/dz) as the Sylvester determinant, with Res(f, 0) = 0."""
    f = wf.poly if T is None else wf.poly.truncate(T)
    g = derivative(f, "z")
    if g.is_zero():
        disc = Poly.zero(f.ctx, f.ring, f.trunc)
    else:
        disc = determinant(sylvester_matrix(f, g, wf.n, g.degree_in("z")))
    return DiscriminantReport(disc, disc.trunc is None, is_monomial_times_unit(disc))


def is_monomial_times_unit(g: Poly) -> MonomialUnitStatus:
    """Whether some term of g divides every term of g.

    The candidate is the componentwise minimum of the support; a hidden term
    beyond a truncation certificate can never be the divisor (its x-degree
    would be both >= T and <= that of stored terms), so NO answers for a
    nonzero g are definitive even for truncated input, while a nonzero YES
    downgrades to inconclusive when g is not exact.  A truncated zero is
    inconclusive: every term of g may lie beyond the certificate.  g is
    exact when it carries no certificate.
    """
    exact = g.trunc is None
    for i in range(g.ctx.d, g.ctx.nvars):
        if any(e[i] for e in g.terms):
            raise ContractViolation("monomial-times-unit test applies to x-only polynomials")
    if g.is_zero():
        return MonomialUnitStatus("no" if exact else "inconclusive")
    support = list(g.terms)
    low = tuple(min(e[i] for e in support) for i in range(g.ctx.nvars))
    if low not in g.terms:
        return MonomialUnitStatus("no")
    # sanity: the cofactor g / x^low has a unit constant term by construction
    assert not g.ring.is_zero(g.terms[low])
    if exact or all(v == 0 for v in low):
        return MonomialUnitStatus("yes", low[:g.ctx.d])
    return MonomialUnitStatus("inconclusive")


@dataclass
class ClassificationReport:
    kappa: object
    teissier: object          # True | False | None (inconclusive)
    quasi_ordinary: object    # True | False | None
    discriminant: DiscriminantReport
    presentation: object      # OverweightPresentation | None
    certified_truncation: int
    diagnostics: list = dc_field(default_factory=list)

    @property
    def decided(self) -> bool:
        return self.teissier is not None and self.quasi_ordinary is not None


def classify(wf: WeierstrassPoly, config: KappaConfig = None) -> ClassificationReport:
    """Compute the invariant and the discriminant condition side by side."""
    config = config or KappaConfig()
    result: KappaResult = compute_kappa(wf, config)
    disc = discriminant_z(wf, config.truncation)
    if result.invariant.terminal is Terminal.INFINITY:
        teissier = True
    elif result.invariant.terminal is Terminal.MINUS_ONE:
        teissier = False
    else:
        teissier = None
    mu = disc.monomial_unit.status
    quasi_ordinary = True if mu == "yes" else False if mu == "no" else None
    return ClassificationReport(
        kappa=result.invariant,
        teissier=teissier,
        quasi_ordinary=quasi_ordinary,
        discriminant=disc,
        presentation=result.presentation,
        certified_truncation=config.truncation,
        diagnostics=list(result.diagnostics),
    )
