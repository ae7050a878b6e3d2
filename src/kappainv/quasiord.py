"""Discriminants, the monomial-times-unit test, and the combined classifier.

The discriminant is the raw resultant Res_z(f, df/dz) = det Syl(f, df/dz),
with no sign or leading-coefficient normalization; the quasi-ordinary
condition (a unit times a monomial) is insensitive to that choice.  Res(f, 0)
= 0 by convention, which covers the purely inseparable case in
characteristic p.

A z-trinomial f = z^n + a*z^k + b, a and b free of z and n nonzero in the
field, takes it in closed form (Swan, Pacific J. Math. 12, 1962, an identity
over Z, so valid in every characteristic): with g = gcd(n, k), N = n/g and
K = k/g,

    Res_z(f, f') = b^(k-1) * (n^N * b^(N-K) - (-1)^N * (n-k)^(N-K) * k^K * a^N)^g,

and a binomial (a = 0) gives n^n * b^(n-1).  Every other f runs the
subresultant pseudo-remainder sequence in z over the polynomial ring in x,
about deg f pseudo-divisions.

Both run on packed monomials (Monagan and Pearce, CASC 2007): a coefficient
maps one int key per term, the total degree over x1, x2, ... in W-bit fields
under guard bits, to its value; a monomial product is one int addition, and
int order is graded.  A power of one term is its key times n and its value
to the n, a power of two terms the binomial theorem's n + 1 terms, both with
no product; a base of more terms is multiplied n - 1 times.  Either way a
power forms the keys and values the repeated product would.

In the sequence each subresultant coefficient, g and h is a Sylvester minor
of total degree <= (2m - 1) * D0 (m = deg f, D0 the largest total degree of
a coefficient), so every undivided pseudo-remainder, power and divisor stays
<= (m + 2)(2m - 1) * D0 < 2^W.  Every power and product the closed form
takes has total degree <= (k - 1 + n) * D0, so it bounds them by
(n + k) * D0 (k = 0 for a binomial).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from operator import lshift
from typing import NamedTuple

from .errors import ContractViolation
from .kappa import (KappaConfig, KappaResult, Terminal, compute_kappa)
from .poly import Poly, WeierstrassPoly, derivative


class MonomialUnitStatus(NamedTuple):
    status: str           # "yes" | "no" | "inconclusive"
    exponent: tuple = None


class DiscriminantReport(NamedTuple):
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


def _neg(a: dict, ring) -> dict:
    return {k: ring.neg(c) for k, c in a.items()}


def _sub(a: dict, b: dict, ring) -> dict:
    out, sub, zero = dict(a), ring.sub, ring.zero
    for k, c in b.items():
        s = out[k] = sub(out.get(k, zero), c)
        if ring.is_zero(s):
            del out[k]
    return out


def _mul(a: dict, b: dict, ring) -> dict:
    """a * b: the product of two monomials is the sum of their keys."""
    rmul, radd, is_zero = ring.mul, ring.add, ring.is_zero
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k)
            if s is None:
                out[k] = rmul(ca, cb)  # over a domain, nonzero
            elif is_zero(s := radd(s, rmul(ca, cb))):
                del out[k]
            else:
                out[k] = s
    return out


def _pow(a: dict, n: int, ring) -> dict:
    """a^n for n >= 1, with no product for one or two terms.

    One term c at key k gives c^n at n * k.  Two terms give the binomial
    theorem: C(n, j) * c1^j * c2^(n-j) at j * k1 + (n-j) * k2, j from n down
    as the repeated product inserts them, and no term where C(n, j) is 0 in
    the field.  A coefficient is raised only to a positive power, so over Q
    each value keeps the type the repeated product gives it.  Three or more
    terms take n - 1 products.
    """
    if len(a) == 1:
        (k, c), = a.items()
        return {k * n: ring.pow_(c, n)}
    if len(a) == 2:
        (k1, c1), (k2, c2) = a.items()
        out = {}
        for j in range(n, -1, -1):
            c = ring.from_int(comb(n, j))
            if not ring.is_zero(c):
                if j:
                    c = ring.mul(c, ring.pow_(c1, j))
                if j < n:
                    c = ring.mul(c, ring.pow_(c2, n - j))
                out[j * k1 + (n - j) * k2] = c
        return out
    out = a
    for _ in range(n - 1):
        out = _mul(out, a, ring)
    return out


def _div(a: dict, b: dict, ring, guard: int) -> dict:
    """a / b, exact, or ValueError: (k | guard) - kb subtracts every field
    at once, and a field of kb above k's clears that field's guard bit."""
    kb = max(b)
    cb, rmul, rsub, rdiv, zero = b[kb], ring.mul, ring.sub, ring.div, ring.zero
    rem, out = dict(a), {}
    if len(b) == 1:  # a monomial divides term by term
        for k, c in a.items():
            q = (k | guard) - kb
            if q & guard != guard:
                raise ValueError("not exactly divisible")
            out[q ^ guard] = rdiv(c, cb)
        return out
    while rem:
        kr = max(rem)  # the leading term: int order is the graded order
        q = (kr | guard) - kb
        if q & guard != guard:
            raise ValueError("not exactly divisible")
        q ^= guard
        c = out[q] = rdiv(rem[kr], cb)
        for kg, cg in b.items():  # rem -= c * x^q * b; its leading term cancels
            s = rem[kg + q] = rsub(rem.get(kg + q, zero), rmul(c, cg))
            if ring.is_zero(s):
                del rem[kg + q]
    return out


def _prem(A: list, B: list, ring) -> list:
    """The pseudo-remainder of lc(B)^(deg A - deg B + 1) * A by B, leading zeros dropped.

    No product by a leading coefficient equal to 1 is formed, and a zero
    coefficient ({}) is carried as it is: no product, difference or scaling
    has a zero operand.
    """
    one, lead = {0: ring.one}, B[0]
    unit = lead == one
    R = A
    steps = len(A) - len(B) + 1
    while len(R) >= len(B):
        top = R[0]
        tail = B[1:] if top == one else [b and _mul(top, b, ring) for b in B[1:]]
        rest = R[1:] if unit else [r and _mul(lead, r, ring) for r in R[1:]]
        R = [r if not t else _neg(t, ring) if not r else _sub(r, t, ring)
             for r, t in zip(rest, tail)] + rest[len(tail):]
        steps -= 1
        while R and not R[0]:
            R = R[1:]
    if steps > 0 and not unit:
        scale = _pow(lead, steps, ring)
        R = [r and _mul(scale, r, ring) for r in R]
    return R


@lru_cache(maxsize=None)
def _layout(nvars: int, zidx: int, width: int) -> tuple:
    """The packed-key layout of width-bit fields: (offsets, top, guard, zkey, mask).

    The total degree takes the top field, at bit `top`, and x1, x2, ... the
    fields under it in turn, each under a guard bit.  z's offset lies above
    every key, so a z-free exponent packs and unpacks z as 0; zkey is what z
    adds to a packed key, so a term of z-degree j packs to its key less j * zkey.
    """
    shift, top = width + 1, (width + 1) * (nvars - 1)
    offsets = [top - shift * (i + (i < zidx)) for i in range(nvars)]
    offsets[zidx] = top + shift
    guard = int(("1" + "0" * width) * nvars, 2)  # the bit above each field
    return tuple(offsets), top, guard, (1 << (top + shift)) + (1 << top), (1 << width) - 1


def _pack(terms: dict, layout: tuple, zdeg: int = 0) -> dict:
    """terms, each of z-degree zdeg, on packed keys with z dropped."""
    offsets, top, _, zkey, _ = layout
    drop = zdeg * zkey
    return {sum(map(lshift, e, offsets), sum(e) << top) - drop: c for e, c in terms.items()}


def _unpack(a: dict, layout: tuple, ctx, ring) -> Poly:
    """The packed a as an exact Poly, z at 0."""
    offsets, mask = layout[0], layout[4]
    return Poly._of(ctx, ring, {tuple(key >> o & mask for o in offsets): c
                                for key, c in a.items()}, None)


def _swan_resultant(f: Poly):
    """Res_z(f, df/dz) in closed form for f = z^n + a*z^k + b, with a and b
    free of z and n nonzero in the field; None for any other f.

    Swan's formula, as the module notes give it, packed straight from f's
    terms.
    """
    ctx, ring = f.ctx, f.ring
    zidx = ctx.var_index("z")
    parts = {}
    for e, c in f.terms.items():
        parts.setdefault(e[zidx], {})[e] = c
    n = max(parts, default=0)
    if ring.is_zero(ring.from_int(n)):
        return None
    lead, b = parts.pop(n), parts.pop(0, {})
    if len(parts) > 1 or list(lead.values()) != [ring.one] or sum(next(iter(lead))) != n:
        return None
    k, a = parts.popitem() if parts else (0, {})
    d0 = max([sum(e) for e in b] + [sum(e) - k for e in a], default=0)
    layout = _layout(ctx.nvars, zidx, ((n + k) * d0).bit_length())
    A, B = _pack(a, layout, k), _pack(b, layout)
    rpow, from_int = ring.pow_, ring.from_int
    if not A:
        res = {0: ring.one} if n == 1 else B and _mul(
            {0: rpow(from_int(n), n)}, _pow(B, n - 1, ring), ring)
    else:
        g = gcd(n, k)
        N, K = n // g, k // g
        inner = B and _mul({0: rpow(from_int(n), N)}, _pow(B, N - K, ring), ring)
        c = from_int((-1) ** N * (n - k) ** (N - K) * k ** K)
        if not ring.is_zero(c):
            inner = _sub(inner, _mul({0: c}, _pow(A, N, ring), ring), ring)
        res = _pow(inner, g, ring) if g > 1 and inner else inner
        if k > 1 and res:
            res = _mul(_pow(B, k - 1, ring), res, ring)
    return _unpack(res, layout, ctx, ring)


def determinant(fc: list, gc: list) -> Poly:
    """det Syl(f, g), the raw resultant Res_z(f, g), for deg f > deg g >= 0.

    fc and gc are the exact z-coefficient lists of f and g, leading one first
    and nonzero.  Subresultant pseudo-remainder sequence (Brown and Traub
    1971; Cohen, Algorithm 3.3.7): every division by g * h^delta and by h^k
    is exact in the polynomial ring of the coefficients.  g and h start at
    1 (None here), so the first step divides by nothing.  Zero coefficients
    are carried as they are, never multiplied, subtracted or divided.  Keys
    are packed as the module notes say, W the bit length of the bound.
    """
    ctx, ring, coeffs = fc[0].ctx, fc[0].ring, fc + gc
    d0 = max([sum(e) for p in coeffs for e in p.terms])  # a coefficient has no z
    layout = _layout(ctx.nvars, ctx.var_index("z"),
                     ((len(fc) + 1) * (2 * len(fc) - 3) * d0).bit_length())
    guard = layout[2]
    A, B = ([p.terms and _pack(p.terms, layout) for p in ps] for ps in (fc, gc))
    g, h, sign = None, None, 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if len(A) % 2 == 0 and len(B) % 2 == 0:  # both degrees odd
            sign = -sign
        R = _prem(A, B, ring)
        if not R:
            return Poly.zero(ctx, ring)
        if g is not None:
            divisor = _mul(g, _pow(h, delta, ring), ring)
            R = [r and _div(r, divisor, ring, guard) for r in R]
        A, B = B, R
        g = A[0]
        if delta == 1:
            h = g
        elif len(A) > 2 or len(B) > 1:  # else the sequence ends at B[0], and h is not read
            h = _pow(g, delta, ring) if h is None else _div(
                _pow(g, delta, ring), _pow(h, delta - 1, ring), ring, guard)
    # B is a nonzero constant c: the last subresultant is c^deg(A) / h^(deg(A) - 1)
    k = len(A) - 1
    res = _pow(B[0], k, ring) if h is None or k == 1 else _div(
        _pow(B[0], k, ring), _pow(h, k - 1, ring), ring, guard)
    return _unpack(res if sign > 0 else _neg(res, ring), layout, ctx, ring)


def discriminant_z(wf: WeierstrassPoly, T=None) -> DiscriminantReport:
    """Res_z(f, df/dz) = det Syl(f, df/dz), with Res(f, 0) = 0.

    A z-trinomial f with deg f nonzero in the field takes Swan's closed form,
    every other f the subresultant sequence (determinant).  Either runs on
    the stored coefficients as exact polynomials, and the certificate T of
    the truncated input is applied once to the result.  That is sound
    because the resultant is an integer polynomial in the coefficients, so
    Res(f mod x^T, g mod x^T) = Res(f, g) mod x^T.  Over Q an integral value
    is an int, so a Q input with integer coefficients runs on ints
    throughout: the closed form only multiplies, and every subresultant
    division is exact.
    """
    f = wf.poly if T is None else wf.poly.truncate(T)
    disc = _swan_resultant(f)
    if disc is None:
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


class ClassificationReport:
    """kappa is the KappaInvariant; teissier and quasi_ordinary are True,
    False or None (inconclusive); presentation is the OverweightPresentation
    or None; diagnostics is a list of its own for each report."""

    __slots__ = ("kappa", "teissier", "quasi_ordinary", "discriminant", "presentation",
                 "diagnostics")

    def __init__(self, kappa, teissier, quasi_ordinary, discriminant: DiscriminantReport,
                 presentation, diagnostics: list = None):
        self.kappa, self.teissier, self.quasi_ordinary = kappa, teissier, quasi_ordinary
        self.discriminant, self.presentation = discriminant, presentation
        self.diagnostics = [] if diagnostics is None else diagnostics

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
