"""The kappa classification engine.

Stage by stage, the engine minimizes the (weighted) projected polyhedron of
the working polynomial under translations of the top chain variable,
records the single remaining vertex, decomposes the initial form there as
the one binomial power its lattice order admits (rewriting modulo the
relation stack if need be), and descends by a fresh chain variable for the
binomial.  The multiplicities strictly descend, so the run ends with
multiplicity one (terminal infinity, with an overweight presentation), an
empty polyhedron (also infinity), a multi-vertex polyhedron (terminal -1,
translation-minimal), or inconclusive: no such power, or resources exhausted.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from .errors import ConfigurationError, ContractViolation, EngineError
from .poly import (Poly, Relation, VarContext, WeierstrassPoly, format_monomial,
                   normal_form, power_substitute, translate)
from .polyhedron import OrthantPolyhedron, StageProjection, polyhedron_leq

_PREPARE_FUEL = 4096


class Terminal(enum.Enum):
    INFINITY = "inf"
    MINUS_ONE = "-1"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BinomialPower:
    """(main_var^inner_exp - coeff * x^tail_expo)^power, tail free of main_var."""

    main_var: str
    inner_exp: int
    power: int
    coeff: object
    tail_expo: tuple

    def expand(self, ctx: VarContext, ring) -> Poly:
        """The binomial theorem: sum_j C(n, j) * (-coeff)^j * w^(inner*(n-j)) * tail^j.

        The engine never builds it: _decompose_at checks these terms in place.
        """
        n, w = self.power, ctx.var_index(self.main_var)
        tail, m = ctx.pad(self.tail_expo), ring.neg(self.coeff)
        terms, binom, mj = {}, 1, ring.one
        for j in range(n + 1):
            c = ring.mul(ring.from_int(binom), mj)
            if not ring.is_zero(c):
                e = [t * j for t in tail]
                e[w] += self.inner_exp * (n - j)
                terms[tuple(e)] = c
            binom, mj = binom * (n - j) // (j + 1), ring.mul(mj, m)
        return Poly._of(ctx, ring, terms, None)


@dataclass(frozen=True)
class KappaInvariant:
    """The vertex string with its terminal symbol and resource accounting."""

    vertices: tuple
    terminal: Terminal
    budget_used: int
    multiplicities: tuple   # (n, e1, e2, ...)
    inner_exponents: tuple  # (n1, n2, ...)

    def as_string(self, d: int) -> str:
        parts = []
        for v in self.vertices:
            if d == 1:
                parts.append(str(v[0]))
            else:
                parts.append("(" + ", ".join(str(c) for c in v) + ")")
        parts.append(self.terminal.value)
        return "(" + ", ".join(parts) + ")"


@dataclass
class OverweightPresentation:
    """Relation stack plus final equation, with per-variable weight vectors.

    weights maps every variable to a vector in Q^d: x_i to the i-th unit
    vector, z and the chain variables to the recorded vertices.
    """

    relations: tuple
    final: Poly
    final_head: object  # BinomialPower or None (empty-polyhedron terminal)
    weights: dict
    ctx: VarContext
    ring: object

    def weight_of(self, expo) -> tuple:
        d = self.ctx.d
        total = list(expo[:d])
        for i in range(d, len(expo)):
            if expo[i] == 0:
                continue
            name = self.ctx.var_name(i)
            vec = self.weights.get(name)
            if vec is None:
                raise ConfigurationError(f"no weight assigned to {name}")
            for c in range(d):
                total[c] += expo[i] * vec[c]
        return tuple(total)

    def generator_strings(self) -> list:
        lines = [rel.structural_str() for rel in self.relations]
        lines.append(self.final.format())
        return lines


@dataclass
class KappaConfig:
    truncation: int = 64
    budget: int = 256
    depth: int = 3

    def __post_init__(self):
        if self.truncation < 1 or self.budget < 1 or self.depth < 0:
            raise ConfigurationError("truncation and budget must be >= 1, depth >= 0")


class PrepStatus(enum.Enum):
    PREPARED = "prepared"
    INCONCLUSIVE = "inconclusive"


@dataclass
class PrepareResult:
    poly: Poly
    polyhedron: OrthantPolyhedron
    status: PrepStatus
    eliminations: int
    diagnostics: list = dc_field(default_factory=list)
    decomposition: tuple = None  # (outcome, poly) at a prepared polyhedron's sole vertex


@dataclass
class KappaResult:
    invariant: KappaInvariant
    presentation: object  # OverweightPresentation or None
    diagnostics: list
    # a polynomial with the input's discriminant: the z stage's prepared
    # f(z + h) when its certificate is the truncated input's, else that input
    disc_input: WeierstrassPoly


# ---------------------------------------------------------------------------
# binomial power recognition
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    """What a binomial power needs of an initial form, read once per node."""

    degree: int        # N, the degree in the main variable
    free_expo: tuple   # exponent of the single main-variable-free term
    free_coeff: object


def _read_shape(In: Poly, main_var: str):
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
    return _Shape(N, gexpo, gamma)


def _decompose_at(In: Poly, shape: _Shape, power: int, main_var: str):
    """Read In as (w^(N/power) - c*tail)^power; None if the shape or no root fits.

    shape is _read_shape(In).  c runs over the solutions of c^power =
    (-1)^power * free_coeff in the coefficient field: over Q and finite
    fields an extension never adds one that fits, since the least j0 > 0
    with C(power, j0) nonzero in the field puts (-c)^j0 in the field, and
    these fields are perfect.  A root fits when In holds C(power, j) *
    (-c)^j at w^(inner*(power-j)) * tail^j for every j, and no other term:
    each coefficient is checked in place, and the count of nonzero ones
    against len(In.terms), so no expansion is built.  BinomialPower.expand
    is the same statement as a Poly.
    """
    if shape.degree % power or any(v % power for v in shape.free_expo):
        return None
    tail = tuple(v // power for v in shape.free_expo)
    inner, gamma, ring, terms = shape.degree // power, shape.free_coeff, In.ring, In.terms
    roots = ring.all_nth_roots(gamma if power % 2 == 0 else ring.neg(gamma), power)
    if not roots:
        return None
    # the exponent of w^(inner*(power-j)) * tail^j for j = 0..power
    w = In.ctx.var_index(main_var)
    step = tail[:w] + (-inner,) + tail[w + 1:]
    expos = [In.ctx.unit(main_var, shape.degree)]
    for _ in range(power):
        expos.append(tuple(map(operator.add, expos[-1], step)))
    zero, mul, from_int, is_zero = ring.zero, ring.mul, ring.from_int, ring.is_zero
    for c in roots:
        m, mj, binom, nonzero = ring.neg(c), ring.one, 1, 0
        for j, e in enumerate(expos):
            want = mul(from_int(binom), mj)
            if terms.get(e, zero) != want:
                break
            nonzero += not is_zero(want)
            binom, mj = binom * (power - j) // (j + 1), mul(mj, m)
        else:
            if nonzero == len(terms):
                return BinomialPower(main_var, inner, power, c, tail)
    return None


# ---------------------------------------------------------------------------
# binomialization modulo the relation stack
# ---------------------------------------------------------------------------

def _apply_rewrite(f: Poly, expo: tuple, rel: Relation, T) -> Poly:
    """Replace one term's tail_j divisor through relation j, exactly.

    Relation j reads u_j = rhs_j = w^{n_j} - c_j * tail_j - sum(corrections),
    so c_j * tail_j = w^{n_j} - u_j - sum(corrections).  Substituting that in
    the term coeff*x^expo adds -coeff/c_j * x^(expo-tail) * (u_j - rhs_j) to
    f: the working polynomial changes by a multiple of the relation generator
    only.  The result is deliberately NOT normal-formed: the upward rewrite
    (head powers at their bound) is what makes the binomial shape visible,
    and normalizing here would cancel the move.
    """
    ctx = f.ctx
    ring = f.ring
    rest = tuple(a - b for a, b in zip(expo, ctx.pad(rel.tail_expo)))
    scale = ring.neg(ring.div(f.terms[expo], rel.tail_coeff))
    return f.add(rel.generator(ctx).mul(Poly.monomial(ctx, ring, rest, scale)), T)


def _search_at_power(f, vertex, stage, relations, power, depth, T):
    """(outcome, poly) at the first of f and its rewrites, depth-first, whose
    initial form is the given power; None if there is none."""
    In = stage.initial(f, vertex)
    shape = _read_shape(In, stage.main_var)
    if shape is not None:
        res = _decompose_at(In, shape, power, stage.main_var)
        if res is not None:
            return res, f
    if depth <= 0 or not relations:
        return None
    ctx = f.ctx
    ordered = [e for e, _ in In.sorted_terms() if e != stage.top]
    for rel in reversed(list(relations)):
        tail = ctx.pad(rel.tail_expo)
        for expo in ordered:
            if all(a >= b for a, b in zip(expo, tail)):
                found = _search_at_power(_apply_rewrite(f, expo, rel, T), vertex, stage,
                                         relations, power, depth - 1, T)
                if found is not None:
                    return found
    return None


def binomialize_modulo(f: Poly, vertex, stage: StageProjection, relations, depth: int = 3, T=None):
    """Binomial-power form of the initial form at a vertex of the stage, modulo relations.

    The vertex is on the stage's int lattice, as StageProjection.polyhedron
    gives it (S times the weighted vertex).  Returns (outcome, poly):
    outcome is a BinomialPower in the stage's main variable (with poly
    rewritten along the successful chain of relation moves, heavier residue
    kept) or None, no power (with poly the input f).  Only the power of
    StageProjection.power is searched for, to the given depth: a tail has
    weight inner * vertex, in the stage's lattice, so the vertex's order r
    there divides inner at every node.  No power with inner > r is tried.
    """
    vertex = tuple(vertex)
    power = stage.power(vertex)
    found = power and _search_at_power(f, vertex, stage, relations, power, depth, T)
    return found or (None, f)


# ---------------------------------------------------------------------------
# preparation (solvable-vertex elimination)
# ---------------------------------------------------------------------------

def prepare_polyhedron(f: Poly, stage: StageProjection, relations,
                       config: KappaConfig) -> PrepareResult:
    """Eliminate solvable vertices of the stage by translating its main variable.

    A vertex is solvable when its (binomialized) initial form is a power of
    a binomial linear in the main variable; the translation by the solving
    term strictly shrinks the polyhedron, which is asserted.  Each
    translation is recorded on the relation that defines the main variable
    (none at the z stage).  A prepared polyhedron with one vertex comes with
    that vertex's binomialization of the returned polynomial, reused when it
    was made on that very polynomial.  Vertices stay on the stage's int
    lattice throughout; only the returned polyhedron is unscaled to Fractions.
    """
    T = config.truncation
    eliminations = 0
    diagnostics = []
    processed = set()
    decomposed = {}  # vertex -> (polynomial, (outcome, poly)) of its last binomialization
    defining = next((rel for rel in relations if rel.var == stage.main_var), None)
    P = stage.polyhedron(f)
    for _ in range(_PREPARE_FUEL):
        for v in P.vertices:
            if v in processed:
                continue
            outcome, f2 = binomialize_modulo(f, v, stage, relations, config.depth, T)
            decomposed[v] = f, (outcome, f2)
            if outcome is None:
                processed.add(v)
                continue
            if outcome.inner_exp > 1:
                processed.add(v)
                if f2 is not f:
                    f = f2
                    P = stage.polyhedron(f)
                    break
                continue
            # solvable: translate by the solving term
            if eliminations >= config.budget:
                diagnostics.append(f"elimination budget ({config.budget}) exhausted")
                return PrepareResult(f, stage.unscale(P), PrepStatus.INCONCLUSIVE, eliminations,
                                     diagnostics)
            before = P if f2 is f else stage.polyhedron(f2)
            f = translate(f2, stage.main_var, outcome.coeff, outcome.tail_expo, T)
            # the translation redefines the main variable, so its relation
            # must record the solving term before any head power is rewritten
            # through it
            if defining is not None:
                defining.corrections.append((outcome.coeff, tuple(outcome.tail_expo)))
            f = normal_form(f, relations, T)
            P = stage.polyhedron(f)
            if not polyhedron_leq(P, before) or polyhedron_leq(before, P):
                raise EngineError("vertex elimination failed to strictly shrink the polyhedron")
            eliminations += 1
            break
        else:
            decomposition = None
            if len(P.vertices) == 1:
                v = P.vertices[0]
                made_on, decomposition = decomposed[v]
                if made_on is not f:  # f was rewritten or translated since
                    decomposition = binomialize_modulo(f, v, stage, relations, config.depth, T)
            return PrepareResult(f, stage.unscale(P), PrepStatus.PREPARED, eliminations,
                                 diagnostics, decomposition)
    raise EngineError("preparation did not stabilize within its fuel bound")


# ---------------------------------------------------------------------------
# the full construction
# ---------------------------------------------------------------------------

def _unit_weights(d: int) -> dict:
    return {f"x{i + 1}": tuple(1 if j == i else 0 for j in range(d)) for i in range(d)}


def compute_kappa(wf: WeierstrassPoly, config: KappaConfig = None) -> KappaResult:
    """Run the staged construction and assemble the invariant.

    The input is assumed irreducible; a non-binomial initial form at a
    single-vertex stage is reported as inconclusive with a diagnostic rather
    than guessed at.
    """
    config = config or KappaConfig()
    T = config.truncation
    f = wf.poly.truncate(T)
    ring = f.ring
    diagnostics = []
    relations = []
    weights = {}
    vertices = []
    mults = [wf.n]
    inner = []
    main = "z"
    top_exp = wf.n
    budget_used = 0
    terminal = final_head = None

    while True:
        stage = StageProjection(f.ctx, main, top_exp, weights)
        prep = prepare_polyhedron(f, stage, relations, config)
        if main == "z":
            disc_input = WeierstrassPoly(prep.poly if prep.poly.trunc == f.trunc else f, wf.n)
        f = prep.poly
        budget_used += prep.eliminations
        diagnostics.extend(prep.diagnostics)
        if prep.status is PrepStatus.INCONCLUSIVE:
            terminal = Terminal.INCONCLUSIVE
            break
        P = prep.polyhedron
        if P.is_empty:
            if f.trunc is not None:
                diagnostics.append(
                    f"no terms below the truncation certificate (T = {f.trunc}); "
                    "the empty polyhedron cannot be certified")
                terminal = Terminal.INCONCLUSIVE
                break
            terminal = Terminal.INFINITY
            if main != "z":
                # assign the head level so downstream weight vectors stay defined
                last = relations[-1]
                weights[main] = _vec_scale(last.head_exp, weights[last.head_var])
            break
        if len(P.vertices) > 1:
            diagnostics.append(
                f"prepared polyhedron has {len(P.vertices)} vertices "
                "(translation-minimal preparation)")
            terminal = Terminal.MINUS_ONE
            break
        v = P.vertices[0]
        outcome, f = prep.decomposition
        if outcome is None:
            diagnostics.append("initial form not a binomial power; input may be reducible")
            terminal = Terminal.INCONCLUSIVE
            break
        bp = outcome
        if bp.inner_exp * bp.power != top_exp:
            raise EngineError("binomial degrees do not multiply to the stage multiplicity")
        if bp.inner_exp == 1:
            raise EngineError("solvable vertex survived preparation")
        vertices.append(v)
        inner.append(bp.inner_exp)
        mults.append(bp.power)
        if mults[-1] >= mults[-2]:
            raise EngineError("stage multiplicities failed to descend strictly")
        weights[main] = v
        if bp.power == 1:
            terminal, final_head = Terminal.INFINITY, bp
            break
        # descend: introduce the next chain variable for the binomial head
        newvar = f"u{len(relations) + 1}"
        ctx = f.ctx.extend(newvar)
        f = f.in_context(ctx)
        rel = Relation(var=newvar, head_var=main, head_exp=bp.inner_exp,
                       tail_coeff=bp.coeff, tail_expo=bp.tail_expo, ctx=ctx, ring=ring)
        relations.append(rel)
        f = power_substitute(f, main, bp.inner_exp, rel.replacement_poly(), T)
        f = normal_form(f, relations, T)
        main = newvar
        top_exp = bp.power

    invariant = KappaInvariant(tuple(vertices), terminal, budget_used,
                               tuple(mults), tuple(inner))
    presentation = None
    if terminal is Terminal.INFINITY:
        presentation = OverweightPresentation(
            tuple(relations), f, final_head, {**_unit_weights(f.ctx.d), **weights},
            f.ctx, ring)
        ok, violations = verify_overweight(presentation)
        if not ok:
            raise EngineError(f"emitted presentation failed its overweight self-check: {violations}")
    return KappaResult(invariant, presentation, diagnostics, disc_input)


# ---------------------------------------------------------------------------
# overweight verification
# ---------------------------------------------------------------------------

def _vec_scale(k: int, vec) -> tuple:
    return tuple(k * c for c in vec)

def _strictly_larger(a, b) -> bool:
    """Strictly larger in the componentwise product order: >= everywhere, somewhere >."""
    return all(x >= y for x, y in zip(a, b)) and a != b


def verify_overweight(pres: OverweightPresentation):
    """Check the head-weight ties and that every tail monomial is strictly heavier.

    Returns (ok, violations); violations name the offending monomials.
    """
    violations = []
    ctx = pres.ctx

    def check_block(label, head_var, head_exp, tail_coeff_expo, h_monomials):
        v = pres.weights.get(head_var)
        if v is None:
            violations.append(f"{label}: no weight for head variable {head_var}")
            return
        level = _vec_scale(head_exp, v)
        if tail_coeff_expo is not None:
            w = pres.weight_of(tail_coeff_expo)
            if w != level:
                violations.append(
                    f"{label}: tail {format_monomial(tail_coeff_expo, ctx)} has weight {w}, "
                    f"head level is {level}")
        for mono in h_monomials:
            w = pres.weight_of(mono)
            if not _strictly_larger(w, level):
                violations.append(
                    f"{label}: {format_monomial(mono, ctx)} has weight {w}, "
                    f"not above the head level {level}")

    for rel in pres.relations:
        check_block(f"relation {rel.var}", rel.head_var, rel.head_exp,
                    ctx.pad(rel.tail_expo), [ctx.pad(m) for _, m in rel.corrections])

    if pres.final_head is not None:
        bp = pres.final_head
        head = ctx.unit(bp.main_var, bp.inner_exp)
        tail = ctx.pad(bp.tail_expo)
        h_monos = [e for e in pres.final.terms if e not in (head, tail)]
        check_block("final equation", bp.main_var, bp.inner_exp, tail, h_monos)
    return (not violations), violations
