from fractions import Fraction

import pytest

from kappainv import (ZZ, ContractViolation, Field, Poly, Relation,
                      UnsupportedLiftError, VarContext, lift_coeff, parse_polynomial,
                      weierstrass_validate)
from kappainv.kappa import _decompose_at, _read_shape
from kappainv.poly import format_signed_terms
from kappainv.polyhedron import StageProjection
from kappainv.ring import is_prime


@pytest.fixture(scope="session")
def F2():
    return Field.finite(2)


@pytest.fixture(scope="session")
def F5():
    return Field.finite(5)


@pytest.fixture(scope="session")
def F7():
    return Field.finite(7)


@pytest.fixture(scope="session")
def QQ():
    return Field.rationals()


@pytest.fixture(scope="session")
def F4():
    return Field.finite(2, 2, (1, 1, 1))  # GF(4) = GF(2)[a]/(a^2 + a + 1)


def mk(text, d, field, aux=("z",)):
    """Parse a polynomial in a fresh context."""
    return parse_polynomial(text, VarContext(d, aux), field)


def mkw(text, d, field):
    """Parse and validate a Weierstrass polynomial."""
    return weierstrass_validate(mk(text, d, field))


def z_stage(f, n):
    """The first kappa stage of f: main variable z, top exponent n, no weights."""
    return StageProjection(f.ctx, "z", n, {})


def on_lattice(stage, vertex):
    """S times a weighted vertex: the int vertex the stage works with.

    A coordinate off the stage's 1/S grid stays a Fraction, which no int
    point equals.
    """
    scaled = [Fraction(c) * stage.scale for c in vertex]
    return tuple(c.numerator if c.denominator == 1 else c for c in scaled)


def rand_poly(rng, ctx, field, nterms=4, maxexp=3):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        expo = tuple(rng.randrange(0, maxexp + 1) for _ in range(ctx.nvars))
        if field.characteristic == 0:
            c = Fraction(rng.randrange(-5, 6))
        else:
            c = field.element(rng.randrange(field.order))
        if not field.is_zero(c):
            terms[expo] = c
    return Poly(ctx, field, terms)


def sample_relations(field):
    """Relations u1 = z^2 - c*x1^3 - corrections in the context (x1, z, u1).

    The tail exponent has the length of the context before u1, as the engine
    stores it.  The variants: a unit tail coefficient, a non-unit one, and
    corrections of mixed lengths, one of them on the tail's monomial.
    """
    ctx = VarContext(1, ("z", "u1"))
    c = field.from_int

    def rel(coeff, corrections=()):
        return Relation(var="u1", head_var="z", head_exp=2, tail_coeff=coeff,
                        tail_expo=(3, 0), ctx=ctx, ring=field,
                        corrections=list(corrections))

    return [rel(field.one), rel(c(2)),
            rel(c(3), [(c(2), (4,)), (field.from_fraction(1, 3), (3, 0)), (c(4), (2, 1))])]


# -- oracles: former runtime helpers with no runtime caller ----------------------

def reduce_coeff(n, p):
    """Reduction of an integer into GF(p)."""
    assert is_prime(p)
    return n % p


def initial_form(f, vertex, main_var, top_exp, weights):
    """Monic top plus every term whose weighted point equals the given vertex."""
    stage = StageProjection(f.ctx, main_var, top_exp, weights)
    v = on_lattice(stage, vertex)
    if v not in stage.polyhedron(f).vertices:
        raise ContractViolation(f"{vertex} is not a vertex of the projected polyhedron")
    return stage.initial(f, v)


def divisors_desc(n):
    """The divisors of n, largest first: the powers the oracles below walk."""
    return [e for e in range(n, 0, -1) if n % e == 0]


def binomial_power_decompose(In, main_var):
    """Maximal-power binomial decomposition of a vertex initial form.

    The shape is read once, then every divisor of the main degree is tried
    in decreasing order; the first full expansion match wins, and
    None means no power matches.
    """
    midx = In.ctx.var_index(main_var)
    if not any(e[midx] for e in In.terms):
        raise ContractViolation("main variable does not occur")
    shape = _read_shape(In, main_var)
    for power in divisors_desc(shape.degree) if shape else ():
        res = _decompose_at(In, shape, power, main_var)
        if res is not None:
            return res
    return None


def lifted_structural_str(rel):
    """A relation's display through the canonical integer lift of its coefficients.

    Prime-field coefficients are shown as their lifts into {0, ..., p-1}
    with the structural signs applied over Z; where lift_coeff has no
    canonical lift (GF(p^k), k > 1), the structural signs are literal.
    """
    ring = rel.ring
    view = ZZ if ring.characteristic > 0 else ring
    pieces = []
    try:
        for sign, c, mono in rel.structural_pieces():
            v = lift_coeff(ring, c) if ring.characteristic > 0 else c
            v = v if sign > 0 else view.neg(v)
            if not view.is_zero(v):
                pieces.append((v, mono))
    except UnsupportedLiftError:
        segs = []
        for i, (sign, c, mono) in enumerate(rel.structural_pieces()):
            body = format_signed_terms([(c, mono)], rel.ctx, ring)
            segs.append(body if i == 0 else ("- " if sign < 0 else "+ ") + body)
        return f"{rel.var} - ({' '.join(segs)})"
    return f"{rel.var} - ({format_signed_terms(pieces, rel.ctx, view)})"
