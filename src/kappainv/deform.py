"""Integer lifts of overweight presentations and their fiber comparison.

Each lifted relation is the engine's Relation over ZZ: the same head, tail
and corrections with their structural signs (head minus tail minus
corrections), the prime-field coefficients lifted canonically into
{0, ..., p-1}; the final equation lifts coefficient-wise.  Reducing every
coefficient mod p recovers the source presentation, while over the
integers the eliminated hypersurface generally acquires ghost monomials:
terms whose coefficient is a nonzero multiple of p.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigurationError, UnsupportedLiftError
from .kappa import OverweightPresentation
from .poly import Poly, Relation, VarContext, back_substitute
from .ring import ZZ, lift_coeff


class IntegerLift(NamedTuple):
    prime: int
    relations: list          # Relation over ZZ, chain order
    final: Poly              # over ZZ, coefficient-wise canonical lift
    ctx: VarContext

    def generators(self) -> list:
        return [rel.generator(self.ctx) for rel in self.relations] + [self.final]


class GhostReport(NamedTuple):
    ghosts: list             # [(exponent tuple, integer coefficient)], canonical order
    hypersurface: Poly       # the eliminated equation over ZZ


class InitialIdealReport(NamedTuple):
    generators_initial: list  # initial form of each generator, over ZZ, unnormalized
    fiber_independent: bool
    witness: object           # (generator index, exponent, coeff) or None


def _lift_poly(f: Poly, field) -> Poly:
    terms = {e: lift_coeff(field, c) for e, c in f.terms.items()}
    return Poly(f.ctx, ZZ, terms)


def lift_presentation(pres: OverweightPresentation) -> IntegerLift:
    """Structural integer lift of a presentation over a prime field."""
    field = pres.ring
    if field.characteristic == 0:
        raise UnsupportedLiftError("the presentation is already in characteristic 0")
    ctx = pres.ctx
    lifted = [Relation(rel.var, rel.head_var, rel.head_exp, lift_coeff(field, rel.tail_coeff),
                       rel.tail_expo, ctx, ZZ,
                       [(lift_coeff(field, c), m) for c, m in rel.corrections])
              for rel in pres.relations]
    final = _lift_poly(pres.final, field)
    return IntegerLift(field.characteristic, lifted, final, ctx)


def eliminate_to_hypersurface(lift: IntegerLift) -> Poly:
    """Substitute each relation rhs for its variable, innermost first; exact over ZZ."""
    return back_substitute(lift.final, lift.relations)


def ghost_monomials(lift: IntegerLift) -> GhostReport:
    """Monomials of the eliminated hypersurface with coefficient in pZ \\ {0}."""
    h = eliminate_to_hypersurface(lift)
    p = lift.prime
    ghosts = [(e, c) for e, c in h.sorted_terms() if c % p == 0]
    assert all(c != 0 and c % p == 0 for _, c in ghosts)
    return GhostReport(ghosts, h)


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def check_weight_vector(omega, ctx: VarContext) -> tuple:
    omega = tuple(map(_exact, omega))
    if len(omega) != ctx.nvars:
        raise ConfigurationError(
            f"weight vector has {len(omega)} components, expected {ctx.nvars}")
    if any(c <= 0 for c in omega):
        raise ConfigurationError("weight vector components must be strictly positive")
    return omega


def initial_forms_weighted(lift: IntegerLift, omega) -> InitialIdealReport:
    """Minimal-weight parts of every generator, with the unit-coefficient test.

    The fibers agree exactly when every retained coefficient is a unit mod p:
    then the mod-p and characteristic-0 initial ideals share their support.
    """
    omega = check_weight_vector(omega, lift.ctx)
    # omega times the lcm of its denominators orders the terms alike, on ints
    scale = math.lcm(*(c.denominator for c in omega))
    weights = [c.numerator * (scale // c.denominator) for c in omega]
    p = lift.prime
    inits = []
    fiber_independent = True
    witness = None
    for gi, gen in enumerate(lift.generators()):
        best = None
        kept = {}
        for e, c in gen.terms.items():
            w = sum(map(operator.mul, weights, e))
            if best is None or w < best:
                best = w
                kept = {e: c}
            elif w == best:
                kept[e] = c
        init = Poly(lift.ctx, ZZ, kept)
        inits.append(init)
        for e, c in init.sorted_terms():
            if c % p == 0:
                fiber_independent = False
                if witness is None:
                    witness = (gi, e, c)
    return InitialIdealReport(inits, fiber_independent, witness)


def check_lambda(lam, d: int) -> tuple:
    """lambda with exact components, once it has d of them, each positive."""
    lam = tuple(map(_exact, lam))
    if len(lam) != d:
        raise ConfigurationError(f"lambda has {len(lam)} components, expected {d}")
    if any(c <= 0 for c in lam):
        raise ConfigurationError("lambda must be strictly positive componentwise")
    return lam


def default_tropical_weight(pres: OverweightPresentation, lam) -> tuple:
    """Kappa-derived candidate weight: omega_x = lambda, omega_v = <lambda, weight(v)>.

    Each omega_v is one sum of ints over L * D, for the denominators L of
    lambda and D of the chain; initial_forms_weighted checks the whole vector.
    """
    ctx, chain = pres.ctx, pres.chain
    lam = check_lambda(lam, ctx.d)
    L = math.lcm(*(c.denominator for c in lam))
    lam_num, den = [c.numerator * (L // c.denominator) for c in lam], L * chain.D
    omega = list(lam)
    for name, w in zip(ctx.aux, chain.weights):  # one weight or None per variable
        if w is None:
            raise ConfigurationError(f"presentation assigns no weight to {name}")
        num = sum(map(operator.mul, lam_num, w))
        omega.append(num // den if num % den == 0 else Fraction(num, den))
    return tuple(omega)
