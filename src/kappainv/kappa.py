"""The kappa classification engine.

Stage by stage, the engine minimizes the (weighted) projected polyhedron of
the working polynomial under translations of the top chain variable,
records the single remaining vertex, reads the initial form there as the
one binomial power its lattice order admits, in the graded ring of the
relation stack's leading binomials, and descends by a fresh chain variable
for the binomial.  The working polynomial is always in normal form.  The
multiplicities strictly descend, so the run ends with multiplicity one
(terminal infinity, with an overweight presentation), an empty polyhedron
(also infinity), a multi-vertex polyhedron (terminal -1,
translation-minimal), or inconclusive: no such power, or resources exhausted.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import ConfigurationError, ContractViolation, EngineError
from .poly import (Poly, Relation, VarContext, WeierstrassPoly, format_monomial,
                   normal_form, translate)
from .polyhedron import (ChainLattice, OrthantPolyhedron, StageProjection, member,
                         polyhedron_leq)


class Terminal(enum.Enum):
    INFINITY = "inf"
    MINUS_ONE = "-1"
    INCONCLUSIVE = "inconclusive"


class BinomialPower(NamedTuple):
    """(main_var^inner_exp - coeff * x^tail_expo)^power, tail free of main_var."""

    main_var: str
    inner_exp: int
    power: int
    coeff: object
    tail_expo: tuple  # a standard monomial


class KappaInvariant(NamedTuple):
    """The vertex string with its terminal symbol and resource accounting."""

    vertices: tuple
    terminal: Terminal
    budget_used: int
    multiplicities: tuple  # (n, e1, e2, ...)

    @property
    def inner_exponents(self) -> tuple:
        """(n1, n2, ...): n_i = e_(i-1) / e_i, the inner exponent of the stage
        whose top degree is e_(i-1) (e_0 = n) and whose power is e_i."""
        m = self.multiplicities
        return tuple(a // b for a, b in zip(m, m[1:]))

    def as_string(self, d: int) -> str:
        parts = []
        for v in self.vertices:
            if d == 1:
                parts.append(str(v[0]))
            else:
                parts.append("(" + ", ".join(str(c) for c in v) + ")")
        parts.append(self.terminal.value)
        return "(" + ", ".join(parts) + ")"


class OverweightPresentation(NamedTuple):
    """Relation stack plus final equation, with the run's chain lattice.

    The chain weighs z and the chain variables by the recorded vertices;
    weights names every weight vector in Q^d, x_i's the i-th unit vector.
    """

    relations: tuple
    final: Poly
    final_head: object  # BinomialPower or None (empty-polyhedron terminal)
    chain: ChainLattice
    ctx: VarContext
    ring: object

    @property
    def weights(self) -> dict:
        d, D = self.ctx.d, self.chain.D
        named = {f"x{i + 1}": tuple(int(i == j) for j in range(d)) for i in range(d)}
        named.update((self.ctx.var_name(d + j), tuple(Fraction(c, D) for c in w))
                      for j, w in enumerate(self.chain.weights) if w is not None)
        return named

    def generator_strings(self) -> list:
        lines = [rel.structural_str() for rel in self.relations]
        lines.append(self.final.format())
        return lines


class KappaConfig:
    """truncation is the x-degree T at which terms are dropped; budget is the
    most eliminations one stage's preparation may make, and its only bound."""

    __slots__ = ("truncation", "budget")

    def __init__(self, truncation: int = 64, budget: int = 256):
        for name, value in (("truncation", truncation), ("budget", budget)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        self.truncation, self.budget = truncation, budget


class PrepStatus(enum.Enum):
    PREPARED = "prepared"
    INCONCLUSIVE = "inconclusive"


class PrepareResult(NamedTuple):
    poly: Poly
    polyhedron: OrthantPolyhedron
    status: PrepStatus
    eliminations: int
    diagnostics: list
    decomposition: object = None  # the BinomialPower or None at a prepared sole vertex


class KappaResult(NamedTuple):
    invariant: KappaInvariant
    presentation: object  # OverweightPresentation or None
    diagnostics: list
    # a polynomial with the input's discriminant: the z stage's prepared
    # f(z + h) when its certificate is the truncated input's, else that input
    disc_input: WeierstrassPoly


# ---------------------------------------------------------------------------
# binomial powers in the graded ring
# ---------------------------------------------------------------------------

def binomialize_modulo(f: Poly, vertex, stage: StageProjection, relations):
    """The binomial power that f's initial form at a vertex of the stage is,
    modulo the relations; (outcome, f) with outcome a BinomialPower in the
    stage's main variable w, or None when there is none.

    The vertex is on the stage's int lattice, as StageProjection.polyhedron
    gives it (S times the weighted vertex).  The one power is p =
    StageProjection.power, so inner = r, the vertex's order modulo the
    stage's lattice.  f is in normal form: every chain variable but w is
    below its relation's head exponent, so its terms are standard monomials
    times powers of w, and distinct standard monomials have distinct
    weights.  Modulo the relations, and up to heavier terms, each relation
    is its leading binomial u_(k-1)^(n_k) = c_k * tail_k: this graded ring
    is the toric one that a Teissier singularity deforms (Teissier, Fields
    Inst. Commun. 33, 2003; Gonzalez Perez, Ann. Inst. Fourier 53, 2003).
    The tail t is the standard monomial of weight inner * vertex, and those
    binomials reduce t^j, top down, to kappa_j * s_j.  So the initial form
    is (w^inner - c*t)^p there exactly when it holds C(p, j) * (-c)^j *
    kappa_j at w^(inner*(p-j)) * s_j for j = 0..p, and no other term.  The
    coefficient at j0, the least j > 0 with C(p, j) nonzero in the field (1
    in characteristic 0 or when the characteristic q does not divide p,
    else q^(v_q(p)) by Lucas' theorem), fixes (-c)^j0 and so the one
    candidate c: its j0-th root is unique, since Frobenius is a bijection
    on a finite field, and a root is taken only when j0 > 1 (at j0 = 1,
    -c is the quotient itself).  No extension of Q or a finite field adds
    another c that fits, as (-c)^j0 lies in the field and these fields are
    perfect.  Each coefficient is read in place (a kappa_j of one adds no
    product), and the count of the nonzero ones is checked against the
    terms at the vertex, so no initial form or expansion is built.  A
    non-monic f raises.
    """
    vertex, ring = tuple(vertex), f.ring
    power = stage.power(vertex)
    if power is None:
        return None, f
    if f.terms.get(stage.top) != ring.one:
        raise ContractViolation("initial form is not monic in the main variable")
    inner = stage.top_exp // power
    t = stage.standard_monomial(tuple(inner * c for c in vertex))
    at = stage.terms_by_point(f)[0].get(vertex)
    if t is None or at is None:
        return None, f
    # (exponent of w^(inner*(power-j)) * s_j, kappa_j) for j = 1..power, with
    # kappa_j * s_j = kappa_(j-1) * s_(j-1) * t reduced by each binomial
    # u_(k-1)^(n_k) -> c_k * tail_k, from the last relation down
    ctx, w = f.ctx, stage.midx
    binomials = [(ctx.var_index(rel.head_var), rel.head_exp, ctx.pad(rel.tail_expo),
                  rel.tail_coeff) for rel in reversed(relations)]
    expected, s, kappa = [], [0] * len(t), ring.one
    for j in range(1, power + 1):
        s = [a + b for a, b in zip(s, t)]
        for i, n_k, tail, c_k in binomials:
            while s[i] >= n_k:
                s[i] -= n_k
                s = [a + b for a, b in zip(s, tail)]
                kappa = ring.mul(kappa, c_k)
        e = s.copy()
        e[w] = inner * (power - j)
        expected.append((tuple(e), kappa))
    # the least j0 > 0 with C(power, j0) nonzero in the field: 1, or p^(v_p(power))
    j0, char = 1, ring.characteristic
    while char and power % (j0 * char) == 0:
        j0 *= char
    e0, kappa0 = expected[j0 - 1]
    a0 = at.get(e0)
    if a0 is None:
        return None, f
    zero, one, mul, from_int, is_zero = ring.zero, ring.one, ring.mul, ring.from_int, ring.is_zero
    m = ring.div(a0, mul(from_int(comb(power, j0)), kappa0))  # (-c)^j0
    if j0 > 1:  # at j0 = 1 the root is m itself
        m, = ring.all_nth_roots(m, j0)
    c, mj, binom, nonzero = ring.neg(m), one, 1, 0
    for j, (e, kappa_j) in enumerate(expected, 1):
        binom, mj = binom * (power - j + 1) // j, mul(mj, m)
        want = mul(from_int(binom), mj if kappa_j is one else mul(mj, kappa_j))
        if at.get(e, zero) != want:
            return None, f
        nonzero += not is_zero(want)
    if nonzero == len(at):
        return BinomialPower(stage.main_var, inner, power, c, t), f
    return None, f


# ---------------------------------------------------------------------------
# preparation (solvable-vertex elimination)
# ---------------------------------------------------------------------------

def prepare_polyhedron(f: Poly, stage: StageProjection, relations,
                       config: KappaConfig) -> PrepareResult:
    """Eliminate solvable vertices of the stage by translating its main variable.

    A vertex is solvable when its initial form is, in the graded ring, a
    power of a binomial linear in the main variable; the translation by the
    solving term strictly shrinks the polyhedron, which is asserted by two
    tests: the new polyhedron lies in the old one, and the solved vertex,
    which the old one holds, is not in the new one.  Each
    translation is recorded on the relation that defines the main variable
    (none at the z stage), and its result is taken to normal form, so every
    polynomial the stage reads is in normal form.  Vertices stay on the
    stage's int lattice throughout; only the returned polyhedron is unscaled
    to Fractions.  Each round either returns or makes one elimination
    counted against config.budget, so at most budget + 1 rounds run.

    Each vertex is binomialized once: outcomes maps each vertex found not
    solvable to its binomialization, which stays valid, as
    binomialize_modulo reads only the terms at its vertex and an
    elimination changes none at another vertex v.  A term w^m * s (w the
    main variable, N its top exponent, W the chain's weight) sits at
    W(s)/(N - m).  Solving v' by w -> w + c*t, W(t) = v', turns it into
    w^(m-j) * s * t^j at (W(s) + j*v')/(N - m + j): its old point, v', or
    strictly between them.  normal_form rewrites a head power into its
    relation's tail, of equal weight, and heavier terms, so from the term's
    point p into p + Q_{>=0}^d; the relation of w adds a w, moving p away
    from its head level, which every point of the stage lies above.  No
    vertex lies strictly between two points or strictly above one, and f
    has no term at x-degree min(f.trunc, T) or more for either step to
    drop, so v keeps its terms and stays a vertex.
    """
    T = config.truncation
    eliminations = 0
    diagnostics = []
    outcomes = {}  # vertex -> its binomialization, for each vertex found not solvable
    defining = next((rel for rel in relations if rel.var == stage.main_var), None)
    P = stage.polyhedron(f)
    while True:
        for v in P.vertices:
            if v in outcomes:
                continue
            outcome = binomialize_modulo(f, v, stage, relations)[0]
            if outcome is None or outcome.inner_exp > 1:
                outcomes[v] = outcome
                continue
            # solvable: translate by the solving term
            if eliminations >= config.budget:
                diagnostics.append(f"elimination budget ({config.budget}) exhausted")
                return PrepareResult(f, stage.unscale(P), PrepStatus.INCONCLUSIVE, eliminations,
                                     diagnostics)
            before = P
            f = translate(f, stage.main_var, outcome.coeff, outcome.tail_expo, T)
            # the translation redefines the main variable, so its relation
            # must record the solving term before any head power is rewritten
            # through it
            if defining is not None:
                defining.corrections.append((outcome.coeff, tuple(outcome.tail_expo)))
            f = normal_form(f, relations, T)
            P = stage.polyhedron(f)
            if not polyhedron_leq(P, before) or member(v, P.vertices):
                raise EngineError("vertex elimination failed to strictly shrink the polyhedron")
            eliminations += 1
            break
        else:
            decomposition = outcomes[P.vertices[0]] if len(P.vertices) == 1 else None
            return PrepareResult(f, stage.unscale(P), PrepStatus.PREPARED, eliminations,
                                 diagnostics, decomposition)


# ---------------------------------------------------------------------------
# the full construction
# ---------------------------------------------------------------------------

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
    chain = ChainLattice(f.ctx.d)
    vertices = []
    mults = [wf.n]
    main = "z"
    top_exp = wf.n
    budget_used = 0
    terminal = final_head = None

    while True:
        stage = StageProjection(f.ctx, main, top_exp, chain)
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
            # the head level weighs the main variable (z, at the z stage, gets no weight)
            chain = chain.extend(tuple(relations[-1].head_exp * c for c in vertices[-1])
                                 if relations else None)
            break
        if len(P.vertices) > 1:
            diagnostics.append(
                f"prepared polyhedron has {len(P.vertices)} vertices "
                "(translation-minimal preparation)")
            terminal = Terminal.MINUS_ONE
            break
        v = P.vertices[0]
        bp = prep.decomposition
        if bp is None:
            diagnostics.append("initial form not a binomial power; input may be reducible")
            terminal = Terminal.INCONCLUSIVE
            break
        if bp.inner_exp * bp.power != top_exp:
            raise EngineError("binomial degrees do not multiply to the stage multiplicity")
        if bp.inner_exp == 1:
            raise EngineError("solvable vertex survived preparation")
        vertices.append(v)
        mults.append(bp.power)
        if mults[-1] >= mults[-2]:
            raise EngineError("stage multiplicities failed to descend strictly")
        chain = chain.extend(v)
        if bp.power == 1:
            terminal, final_head = Terminal.INFINITY, bp
            break
        # descend: introduce the next chain variable for the binomial head
        newvar = f"u{len(relations) + 1}"
        ctx = f.ctx.extend(newvar)
        f = f.in_context(ctx)
        relations.append(Relation(var=newvar, head_var=main, head_exp=bp.inner_exp,
                                  tail_coeff=bp.coeff, tail_expo=bp.tail_expo, ctx=ctx,
                                  ring=ring))
        # f is normal for the earlier relations: the first rewrite is the new head's
        f = normal_form(f, relations, T)
        main = newvar
        top_exp = bp.power

    invariant = KappaInvariant(tuple(vertices), terminal, budget_used, tuple(mults))
    presentation = None
    if terminal is Terminal.INFINITY:
        presentation = OverweightPresentation(tuple(relations), f, final_head, chain, f.ctx, ring)
        ok, violations = verify_overweight(presentation)
        if not ok:
            raise EngineError(f"emitted presentation failed its overweight self-check: {violations}")
    return KappaResult(invariant, presentation, diagnostics, disc_input)


# ---------------------------------------------------------------------------
# overweight verification
# ---------------------------------------------------------------------------

def verify_overweight(pres: OverweightPresentation):
    """Check the head-weight ties and that every tail monomial is strictly heavier.

    Returns (ok, violations); violations name the offending monomials and
    print weights as the CLI prints vertices.
    """
    violations = []
    ctx, chain = pres.ctx, pres.chain

    def shown(w):
        return "(" + ", ".join(str(Fraction(c, chain.D)) for c in w) + ")"

    def check_block(label, head, tail, h_monomials):
        level, w = chain.weight_of(head), chain.weight_of(tail)
        if w != level:
            violations.append(f"{label}: tail {format_monomial(tail, ctx)} has weight "
                              f"{shown(w)}, head level is {shown(level)}")
        for mono in h_monomials:
            w = chain.weight_of(mono)
            if w == level or any(a < b for a, b in zip(w, level)):
                violations.append(f"{label}: {format_monomial(mono, ctx)} has weight "
                                  f"{shown(w)}, not above the head level {shown(level)}")

    for rel in pres.relations:
        (_, _, head), (_, _, tail), *rest = rel.structural_pieces(ctx)
        check_block(f"relation {rel.var}", head, tail, [m for _, _, m in rest])

    bp = pres.final_head
    if bp is not None:
        head, tail = ctx.unit(bp.main_var, bp.inner_exp), ctx.pad(bp.tail_expo)
        check_block("final equation", head, tail,
                    [e for e in pres.final.terms if e not in (head, tail)])
    return (not violations), violations
