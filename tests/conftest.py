from fractions import Fraction

import pytest

from kappainv import Field, Poly, Relation, VarContext, parse_polynomial, weierstrass_validate


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
