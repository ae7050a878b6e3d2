import operator
from fractions import Fraction
from typing import NamedTuple

import pytest

import kappainv.quasiord as quasiord
from kappainv import (ZZ, BinomialPower, ContractViolation, Field, Poly, Relation,
                      UnsupportedLiftError, ValidationError, VarContext, lift_coeff,
                      parse_polynomial, weierstrass_validate)
from kappainv.poly import format_signed_terms
from kappainv.polyhedron import ChainLattice, StageProjection
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


def variable(ctx, ring, name):
    """The polynomial that is the one variable name of ctx."""
    return Poly(ctx, ring, {ctx.unit(name): ring.one})


def monomial(ctx, ring, expo, coeff=None):
    """coeff * x^expo, coeff 1 by default."""
    return Poly(ctx, ring, {tuple(expo): ring.one if coeff is None else coeff})


def poly_pow(f, n, T=None):
    """f^n truncated at T, by n - 1 products; a constant's power is its
    coefficient's, with no products."""
    if n < 0:
        raise ValidationError("a polynomial power must be >= 0")
    if n == 0:
        return Poly.one(f.ctx, f.ring)
    out = f.truncate(T)
    zero = (0,) * f.ctx.nvars
    if len(out.terms) == 1 and zero in out.terms:
        return Poly._of(f.ctx, f.ring, {zero: f.ring.pow_(out.terms[zero], n)}, out.trunc)
    for _ in range(n - 1):
        out = out.mul(f, T)
    return out


def z_stage(f, n):
    """The first kappa stage of f: main variable z, top exponent n, no weights."""
    return StageProjection(f.ctx, "z", n, ChainLattice(f.ctx.d))


def stage_of(ctx, main_var, top_exp, weights):
    """The stage whose chain weighs the variables before main_var as the dict
    of names says, with no weight for a name it lacks, as
    weighted_projected_polyhedron builds it."""
    chain = ChainLattice(ctx.d)
    for name in ctx.aux[:ctx.var_index(main_var) - ctx.d]:
        chain = chain.extend(weights.get(name))
    return StageProjection(ctx, main_var, top_exp, chain)


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


def stage_initial(stage, f, vertex):
    """Monic top plus every term whose point equals vertex, an int vertex of the
    stage: one lookup in the stage's groups."""
    groups, _ = stage.terms_by_point(f)
    terms = dict(groups.get(vertex, ()))
    top = f.terms.get(stage.top)
    if top is not None:
        terms[stage.top] = top
    return Poly(f.ctx, f.ring, terms, f.trunc)


def initial_form(f, vertex, main_var, top_exp, weights):
    """Monic top plus every term whose weighted point equals the given vertex."""
    stage = stage_of(f.ctx, main_var, top_exp, weights)
    v = on_lattice(stage, vertex)
    if v not in stage.polyhedron(f).vertices:
        raise ContractViolation(f"{vertex} is not a vertex of the projected polyhedron")
    return stage_initial(stage, f, v)


def binomialize_by_roots(f, vertex, stage, relations):
    """The binomial power f's initial form at the int vertex is modulo the
    relations, or None: binomialize_modulo as it was before one coefficient
    fixed the candidate.  Every solution c of c^p * kappa_p = (-1)^p times
    the w-free coefficient is tried in turn, each against all p + 1
    coefficients and the count of terms at the vertex."""
    vertex, ring = tuple(vertex), f.ring
    power = stage.power(vertex)
    if power is None:
        return None
    if f.terms.get(stage.top) != ring.one:
        raise ContractViolation("initial form is not monic in the main variable")
    inner = stage.top_exp // power
    t = stage.standard_monomial(tuple(inner * c for c in vertex))
    at = stage.terms_by_point(f)[0].get(vertex)
    if t is None or at is None:
        return None
    ctx, w = f.ctx, stage.midx
    expected, s, kappa = [], [0] * len(t), ring.one
    for j in range(1, power + 1):
        s = [a + b for a, b in zip(s, t)]
        for rel in reversed(list(relations)):
            i, tail = ctx.var_index(rel.head_var), ctx.pad(rel.tail_expo)
            while s[i] >= rel.head_exp:
                s[i] -= rel.head_exp
                s = [a + b for a, b in zip(s, tail)]
                kappa = ring.mul(kappa, rel.tail_coeff)
        expected.append((tuple(s[:w]) + (inner * (power - j),) + tuple(s[w + 1:]), kappa))
    free, kappa_p = expected[-1]
    gamma = at.get(free)
    if gamma is None:
        return None
    gamma = ring.div(gamma if power % 2 == 0 else ring.neg(gamma), kappa_p)
    for c in ring.all_nth_roots(gamma, power):
        m, mj, binom, nonzero = ring.neg(c), ring.one, 1, 0
        for j, (e, kappa_j) in enumerate(expected, 1):
            binom, mj = binom * (power - j + 1) // j, ring.mul(mj, m)
            want = ring.mul(ring.from_int(binom), ring.mul(mj, kappa_j))
            if at.get(e, ring.zero) != want:
                break
            nonzero += not ring.is_zero(want)
        else:
            if nonzero == len(at):
                return BinomialPower(stage.main_var, inner, power, c, t)
    return None


def divisors_desc(n):
    """The divisors of n, largest first: the powers the oracles below walk."""
    return [e for e in range(n, 0, -1) if n % e == 0]


def expand(bp, ctx, ring):
    """The binomial theorem: sum_j C(n, j) * (-coeff)^j * w^(inner*(n-j)) * tail^j."""
    n, w = bp.power, ctx.var_index(bp.main_var)
    tail, m = ctx.pad(bp.tail_expo), ring.neg(bp.coeff)
    terms, binom, mj = {}, 1, ring.one
    for j in range(n + 1):
        c = ring.mul(ring.from_int(binom), mj)
        if not ring.is_zero(c):
            e = [t * j for t in tail]
            e[w] += bp.inner_exp * (n - j)
            terms[tuple(e)] = c
        binom, mj = binom * (n - j) // (j + 1), ring.mul(mj, m)
    return Poly(ctx, ring, terms)


def leading_reduce(e, coeff, relations, ctx, ring):
    """coeff * x^e reduced by the relations' leading binomials, u_(k-1)^(n_k)
    -> c_k * tail_k, from the last relation down: (exponent, coefficient)."""
    e = list(e)
    for rel in reversed(list(relations)):
        i = ctx.var_index(rel.head_var)
        q, e[i] = divmod(e[i], rel.head_exp)
        e = [a + q * b for a, b in zip(e, ctx.pad(rel.tail_expo))]
        for _ in range(q):
            coeff = ring.mul(coeff, rel.tail_coeff)
    return tuple(e), coeff


def graded_expand(bp, ctx, ring, relations):
    """expand(bp) in the graded ring: every term reduced by leading_reduce."""
    terms = {}
    for e, c in expand(bp, ctx, ring).terms.items():
        e, c = leading_reduce(e, c, relations, ctx, ring)
        terms[e] = ring.add(terms.get(e, ring.zero), c)
    return Poly(ctx, ring, terms)


class Shape(NamedTuple):
    """What a binomial power needs of an initial form, read once per node."""

    degree: int        # N, the degree in the main variable
    free_expo: tuple   # exponent of the single main-variable-free term
    free_coeff: object


def read_shape(In, main_var):
    """In's shape, or None when In is one term or has no single term free of
    the main variable (no power fits it then).  A non-monic In raises."""
    if len(In.terms) <= 1:
        return None
    midx = In.ctx.var_index(main_var)
    N = max(e[midx] for e in In.terms)
    if N < 1 or In.terms.get(In.ctx.unit(main_var, N)) != In.ring.one:
        raise ContractViolation("initial form is not monic in the main variable")
    wfree = [(e, c) for e, c in In.terms.items() if e[midx] == 0]
    if len(wfree) != 1:
        return None
    (gexpo, gamma), = wfree
    return Shape(N, gexpo, gamma)


def decompose_at(In, shape, power, main_var):
    """Read In literally as (w^(N/power) - c*tail)^power, tail the w-free
    exponent divided by power; None if the shape or no root fits.

    c runs over the solutions of c^power = (-1)^power * free_coeff; each
    expected coefficient is read in place, and the nonzero ones counted
    against len(In.terms).
    """
    if shape.degree % power or any(v % power for v in shape.free_expo):
        return None
    tail = tuple(v // power for v in shape.free_expo)
    inner, gamma, ring, terms = shape.degree // power, shape.free_coeff, In.ring, In.terms
    roots = ring.all_nth_roots(gamma if power % 2 == 0 else ring.neg(gamma), power)
    w = In.ctx.var_index(main_var)
    step = tail[:w] + (-inner,) + tail[w + 1:]
    expos = [In.ctx.unit(main_var, shape.degree)]
    for _ in range(power):
        expos.append(tuple(map(operator.add, expos[-1], step)))
    for c in roots:
        m, mj, binom, nonzero = ring.neg(c), ring.one, 1, 0
        for j, e in enumerate(expos):
            want = ring.mul(ring.from_int(binom), mj)
            if terms.get(e, ring.zero) != want:
                break
            nonzero += not ring.is_zero(want)
            binom, mj = binom * (power - j) // (j + 1), ring.mul(mj, m)
        else:
            if nonzero == len(terms):
                return BinomialPower(main_var, inner, power, c, tail)
    return None


def apply_rewrite(f, expo, rel, T):
    """Replace one term's tail divisor through the relation, exactly.

    The relation reads u = w^n - c * tail - corrections, so c * tail = w^n -
    u - corrections: the term coeff * x^expo gains -coeff/c * x^(expo-tail)
    * (u - rhs), a multiple of the relation's generator.  The result is not
    normal-formed: the upward move is what makes a literal binomial show.
    """
    ctx, ring = f.ctx, f.ring
    rest = tuple(a - b for a, b in zip(expo, ctx.pad(rel.tail_expo)))
    scale = ring.neg(ring.div(f.terms[expo], rel.tail_coeff))
    return f.add(rel.generator(ctx).mul(monomial(ctx, ring, rest, scale)), T)


def search_binomialize(f, vertex, stage, relations, depth=8, T=None, powers=None):
    """The rewrite search that binomialization once was: (outcome, g) at the
    first of f and its upward rewrites, depth-first to the given depth,
    whose initial form at the vertex is literally a binomial power; (None, f)
    if there is none.  powers are the powers tried at every node, largest
    first: by default the one the lattice admits.  Its cost grows
    exponentially with the depth."""
    vertex = tuple(vertex)
    if powers is None:
        powers = [p for p in [stage.power(vertex)] if p]

    def search(g, power, depth):
        In = stage_initial(stage, g, vertex)
        shape = read_shape(In, stage.main_var)
        if shape is not None:
            res = decompose_at(In, shape, power, stage.main_var)
            if res is not None:
                return res, g
        if depth <= 0 or not relations:
            return None
        ordered = [e for e, _ in In.sorted_terms() if e != stage.top]
        for rel in reversed(list(relations)):
            tail = g.ctx.pad(rel.tail_expo)
            for expo in ordered:
                if all(a >= b for a, b in zip(expo, tail)):
                    found = search(apply_rewrite(g, expo, rel, T), power, depth - 1)
                    if found is not None:
                        return found
        return None

    for power in powers:
        found = search(f, power, depth)
        if found is not None:
            return found
    return None, f


def binomial_power_decompose(In, main_var):
    """Maximal-power binomial decomposition of a vertex initial form.

    The shape is read once, then every divisor of the main degree is tried
    in decreasing order; the first full expansion match wins, and
    None means no power matches.
    """
    midx = In.ctx.var_index(main_var)
    if not any(e[midx] for e in In.terms):
        raise ContractViolation("main variable does not occur")
    shape = read_shape(In, main_var)
    for power in divisors_desc(shape.degree) if shape else ():
        res = decompose_at(In, shape, power, main_var)
        if res is not None:
            return res
    return None


def oracle_rhs_poly(rel, ctx=None):
    """w^head_exp - tail - corrections, one ring.sub per piece."""
    ctx = ctx or rel.ctx
    ring = rel.ring
    terms = {ctx.unit(rel.head_var, rel.head_exp): ring.one}
    for coeff, mono in [(rel.tail_coeff, rel.tail_expo)] + list(rel.corrections):
        key = ctx.pad(mono)
        s = ring.sub(terms.get(key, ring.zero), coeff)
        if ring.is_zero(s):
            terms.pop(key, None)
        else:
            terms[key] = s
    return Poly(ctx, ring, terms)


def oracle_generator(rel, ctx=None):
    """u_j - rhs, by Poly arithmetic."""
    ctx = ctx or rel.ctx
    return variable(ctx, rel.ring, rel.var).sub(oracle_rhs_poly(rel, ctx))


def oracle_replacement_poly(rel, ctx=None):
    """generator + w^head_exp, by Poly arithmetic."""
    ctx = ctx or rel.ctx
    head = monomial(ctx, rel.ring, ctx.unit(rel.head_var, rel.head_exp))
    return oracle_generator(rel, ctx).add(head)


def lift_relation(rel):
    """The relation over ZZ, its prime-field coefficients lifted into {0, ..., p-1}."""
    def lift(c):
        return lift_coeff(rel.ring, c)

    return Relation(rel.var, rel.head_var, rel.head_exp, lift(rel.tail_coeff), rel.tail_expo,
                    rel.ctx, ZZ, [(lift(c), m) for c, m in rel.corrections])


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


# -- the discriminant kernel's packed keys ----------------------------------------

def key_bound(fc, gc):
    """(bound, W) for determinant(fc, gc): every total degree the subresultant
    sequence forms is at most (m + 2)(2m - 1) * D0, and W is its bit length."""
    m = len(fc) - 1
    bound = (m + 2) * (2 * m - 1) * max(sum(e) for p in fc + gc for e in p.terms)
    return bound, bound.bit_length()


def swan_key_bound(f):
    """(bound, W) for the closed form on f = z^n + a*z^k + b (k = 0 when a = 0):
    every total degree it forms is at most (n + k) * D0, D0 the largest total
    x-degree of a term of a or b, and W is its bit length."""
    zidx = f.ctx.var_index("z")
    n = max(e[zidx] for e in f.terms)
    k = max([e[zidx] for e in f.terms if 0 < e[zidx] < n], default=0)
    bound = (n + k) * max([sum(e) - e[zidx] for e in f.terms if e[zidx] < n], default=0)
    return bound, bound.bit_length()


def pack(p, width):
    """p as determinant packs it: the total degree in the top field, then the
    exponents of x1, x2, ... (z left out), each field W bits under a guard bit."""
    zidx = p.ctx.var_index("z")
    out = {}
    for e, c in p.terms.items():
        key = sum(e)
        for i, v in enumerate(e):
            if i != zidx:
                key = key << (width + 1) | v
        out[key] = c
    return out


def guard_bits(width, nfields):
    return sum(1 << ((width + 1) * i + width) for i in range(nfields))


def repeated_pow(a, n, ring):
    """a^n for n >= 1 on packed keys by n - 1 products with quasiord._mul:
    the oracle for the closed forms of quasiord._pow."""
    out = a
    for _ in range(n - 1):
        out = quasiord._mul(out, a, ring)
    return out


def watch_key_bound(monkeypatch):
    """Wrap the kernel's determinant, its closed form, _mul and _pow: every
    key a product or power forms must have each field, guard bit included,
    within the documented bound of the call it belongs to, and a top field
    equal to the sum of the others.  Returns a dict whose "keys" counts the
    keys checked and whose "closed" and "kernel" count the calls of each path."""
    seen = {"keys": 0, "closed": 0, "kernel": 0}
    real_det, real_swan = quasiord.determinant, quasiord._swan_resultant
    real_mul, real_pow = quasiord._mul, quasiord._pow

    def determinant(fc, gc):
        seen["bound"], seen["width"] = key_bound(fc, gc)
        seen["nfields"] = fc[0].ctx.nvars
        seen["kernel"] += 1
        return real_det(fc, gc)

    def swan_resultant(f):
        seen["bound"], seen["width"] = swan_key_bound(f)
        seen["nfields"] = f.ctx.nvars
        out = real_swan(f)
        seen["closed"] += out is not None
        return out

    def check(out):
        step, n = seen["width"] + 1, seen["nfields"]
        for key in out:
            fields = [key >> (step * i) & ((1 << step) - 1) for i in range(n)]
            assert key >> (step * n) == 0 and max(fields) <= seen["bound"], (key, seen)
            assert fields[-1] == sum(fields[:-1])
        seen["keys"] += len(out)
        return out

    monkeypatch.setattr(quasiord, "determinant", determinant)
    monkeypatch.setattr(quasiord, "_swan_resultant", swan_resultant)
    monkeypatch.setattr(quasiord, "_mul", lambda a, b, ring: check(real_mul(a, b, ring)))
    monkeypatch.setattr(quasiord, "_pow", lambda a, n, ring: check(real_pow(a, n, ring)))
    return seen
