"""Discriminants, the monomial-times-unit test, and the combined classifier.

The discriminant is the raw resultant Res_z(f, df/dz) = det Syl(f, df/dz),
with no sign or leading-coefficient normalization; the quasi-ordinary
condition (a unit times a monomial) is insensitive to that choice.  It is
computed by the subresultant pseudo-remainder sequence in z over the
polynomial ring in x, about deg f pseudo-divisions.  Res(f, 0) = 0 by
convention, which covers the purely inseparable case in characteristic p.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ContractViolation
from .kappa import (KappaConfig, KappaResult, Terminal, compute_kappa)
from .poly import Poly, WeierstrassPoly, derivative, exact_div


@dataclass(frozen=True)
class MonomialUnitStatus:
    status: str           # "yes" | "no" | "inconclusive"
    exponent: tuple = None


@dataclass
class DiscriminantReport:
    disc: Poly
    exact: bool
    monomial_unit: MonomialUnitStatus


def _z_coefficients(f: Poly) -> list:
    """Coefficients [c_m, ..., c_0] of f in z, m its true z-degree, as exact polynomials."""
    ctx = f.ctx
    zidx = ctx.var_index("z")
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(e[zidx], {})[e[:zidx] + (0,) + e[zidx + 1:]] = c
    return [Poly._of(ctx, f.ring, buckets.get(k, {}), None) for k in range(max(buckets), -1, -1)]


def _prem(A: list, B: list) -> list:
    """The pseudo-remainder of lc(B)^(deg A - deg B + 1) * A by B, leading zeros dropped.

    No product by a leading coefficient equal to 1 is formed, and a zero
    coefficient is carried as it is: no product, difference or scaling has a
    zero operand.
    """
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
        scale = lead.pow_(steps)
        R = [r if r.is_zero() else scale.mul(r) for r in R]
    return R


def determinant(fc: list, gc: list) -> Poly:
    """det Syl(f, g), the raw resultant Res_z(f, g), for deg f > deg g >= 0.

    fc and gc are the exact z-coefficient lists of f and g, leading one first
    and nonzero.  Subresultant pseudo-remainder sequence (Brown and Traub
    1971; Cohen, Algorithm 3.3.7): every division by g * h^delta and by h^k
    is exact in the polynomial ring of the coefficients.  g and h start at
    1 (None here), so the first step divides by nothing.  Zero coefficients
    are carried as they are, never multiplied, subtracted or divided.
    """
    A, B = fc, gc
    g = h = None
    sign = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if len(A) % 2 == 0 and len(B) % 2 == 0:  # both degrees odd
            sign = -sign
        R = _prem(A, B)
        if not R:
            return Poly.zero(fc[0].ctx, fc[0].ring)
        if g is not None:
            divisor = g.mul(h.pow_(delta))
            R = [r if r.is_zero() else exact_div(r, divisor) for r in R]
        A, B = B, R
        g = A[0]
        if delta == 1:
            h = g
        elif len(A) > 2 or len(B) > 1:  # else the sequence ends at B[0], and h is not read
            h = g.pow_(delta) if h is None else exact_div(g.pow_(delta), h.pow_(delta - 1))
    # B is a nonzero constant c: the last subresultant is c^deg(A) / h^(deg(A) - 1)
    k = len(A) - 1
    res = B[0].pow_(k) if h is None or k == 1 else exact_div(B[0].pow_(k), h.pow_(k - 1))
    return res if sign > 0 else res.neg()


def discriminant_z(wf: WeierstrassPoly, T=None) -> DiscriminantReport:
    """Res_z(f, df/dz) = det Syl(f, df/dz), with Res(f, 0) = 0.

    The resultant runs on the stored coefficients as exact polynomials and
    the certificate T of the truncated input is applied once to the result.
    That is sound because the resultant is an integer polynomial in the
    coefficients, so Res(f mod x^T, g mod x^T) = Res(f, g) mod x^T.  Over Q
    an integral value is an int, so a Q input with integer coefficients
    runs on ints throughout: every subresultant division is exact.
    """
    f = wf.poly if T is None else wf.poly.truncate(T)
    g = derivative(f, "z")
    disc = Poly.zero(f.ctx, f.ring) if g.is_zero() else determinant(
        _z_coefficients(f), _z_coefficients(g))
    # the result carries the certificate even when no term of it reaches T
    disc = Poly._of(f.ctx, f.ring, disc.truncate(f.trunc).terms, f.trunc)
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
    # sanity: the quotient g / x^low has a unit constant term by construction
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
    diagnostics: list = dc_field(default_factory=list)

    @property
    def decided(self) -> bool:
        return self.teissier is not None and self.quasi_ordinary is not None


def classify(wf: WeierstrassPoly, config: KappaConfig = None) -> ClassificationReport:
    """Compute the invariant and the discriminant condition side by side.

    The discriminant is taken from compute_kappa's disc_input: the z stage's
    prepared f(z + h), often much sparser than the input, when its
    certificate is that of the truncated input.  For monic f with roots
    alpha_i, g(z) = f(z + h) is monic with roots alpha_i - h, so
    Res(g, g') = prod g'(alpha_i - h) = prod f'(alpha_i) = Res(f, f')
    exactly, with no change of sign.  Both certificates None: nothing was
    dropped and the results agree term for term.  Both T: they agree mod
    x^T, and discriminant_z applies T once.  A translation that dropped a
    term the input kept makes them differ, and then disc_input is the input.
    """
    config = config or KappaConfig()
    result: KappaResult = compute_kappa(wf, config)
    disc = discriminant_z(result.disc_input)
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
        diagnostics=list(result.diagnostics),
    )
