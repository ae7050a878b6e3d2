"""Known answers for benchmark cases, kept independent of the engine.

Every expected verdict here follows from how a case is built (a translated
binomial, a product of branches, a polynomial with two pure powers), or is a
value verified by hand in the README, the acceptance tests or the ROADMAP.
Nothing in this module imports kappainv: the polynomial arithmetic below is a
small dict-of-monomials implementation used only to write inputs, to state
the prepared polynomial of a construction and to read the `deform`
hypersurface back.

`self_check()` evaluates the construction formulas on the hand-verified
inputs and compares them with the literal values, so a bug in a formula
cannot pass for a bug in the engine.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

DEFAULT_TRUNC = 64  # the CLI's --trunc default


# ---------------------------------------------------------------------------
# sparse polynomials in x1..xd, z: {(a1, ..., ad, b): coeff}
# coefficients are Fractions (p == 0) or ints reduced mod p
# ---------------------------------------------------------------------------

def _clean(terms: dict, p: int) -> dict:
    if p:
        terms = {e: c % p for e, c in terms.items()}
    return {e: c for e, c in terms.items() if c}


def padd(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return _clean(out, p)


def pscale(f: dict, c, p: int) -> dict:
    return _clean({e: v * c for e, v in f.items()}, p)


def pmul(f: dict, g: dict, p: int) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out, p)


def ppow(f: dict, n: int, d: int, p: int) -> dict:
    out = {(0,) * (d + 1): 1}
    for _ in range(n):
        out = pmul(out, f, p)
    return out


def monomial(expo, coeff, d: int) -> dict:
    """coeff * x^expo * z^b for expo = (a1, ..., ad[, b])."""
    e = tuple(expo) + (0,) * (d + 1 - len(expo))
    return {e: coeff} if coeff else {}


def zvar(d: int) -> dict:
    return {(0,) * d + (1,): 1}


def _print_order(e):
    # z-degree first, then the x-exponent tuple, both descending (the CLI's order)
    return (e[-1], e[:-1])


def format_poly(f: dict, p: int) -> str:
    """Render in the CLI input grammar; GF(p) values print as 0..p-1."""
    d = len(next(iter(f))) - 1
    pieces = []
    for e in sorted(f, key=_print_order, reverse=True):
        c = Fraction(f[e])
        neg = c < 0 and not p
        mag = -c if neg else c
        names = [f"x{i + 1}" for i in range(d)] + ["z"]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        cstr = str(mag)
        body = mono if (mono and cstr == "1") else (f"{cstr}*{mono}" if mono else cstr)
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_poly(text: str, d: int, p: int) -> dict:
    """Read a CLI-printed polynomial with integer or p/q coefficients in x1..xd, z."""
    out = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read polynomial at {text[pos:]!r}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(1)
        expo = [0] * (d + 1)
        for factor in m.group(2).strip().split("*"):
            name, _, power = factor.partition("^")
            if name == "z":
                expo[d] += int(power or 1)
            elif name.startswith("x"):
                expo[int(name[1:]) - 1] += int(power or 1)
            else:
                coeff *= Fraction(name)
        e = tuple(expo)
        out[e] = out.get(e, 0) + sign * coeff
    return _clean(out, 0) if not p else _clean(
        {e: int(c.numerator) * pow(c.denominator, -1, p) for e, c in out.items()}, p)


def below(f: dict, T: int) -> dict:
    """The terms of total x-degree < T: what a truncation certificate T vouches for."""
    return {e: c for e, c in f.items() if sum(e[:-1]) < T}


def frac_str(q) -> str:
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

@dataclass
class Expect:
    """The verdicts a case must produce, from its construction.

    vertices:  exact kappa vertex strings, or None when only the terminal
               and multiplicities are known
    terminal:  "inf" or "-1"; None with never_inf for reducible inputs,
               where any definitive terminal other than inf is correct
    teissier, qo: the true verdicts; qo_exponent the monomial exponent of a
               quasi-ordinary discriminant when it is known
    prepared:  the prepared polynomial: below the truncation certificate, a
               one-stage presentation must equal it, and a `deform`
               hypersurface must reduce to it mod p
    """

    teissier: bool
    qo: bool
    vertices: tuple = None
    terminal: str = None
    never_inf: bool = False
    multiplicities: tuple = None
    qo_exponent: tuple = None
    prepared: dict = None
    presentation: tuple = None


@dataclass
class Case:
    id: str
    argv: list
    expect: Expect
    defect: str = None  # ROADMAP item whose open defect makes this case wrong today


@dataclass
class Verdict:
    """Per-case score: each reported verdict is correct, wrong or inconclusive."""

    statuses: dict = field(default_factory=dict)
    malformed: str = None

    @property
    def wrong(self) -> bool:
        return "wrong" in self.statuses.values()

    @property
    def solved(self) -> bool:
        return self.malformed is None and all(s == "correct" for s in self.statuses.values())


def translated_binomial(n: int, A: tuple, shift: dict, p: int, coeff=1):
    """(z - s)^n - coeff*x^A with gcd(n, A) = 1 and s(0) = 0.

    The points of (z - s)^n are averages of the exponents of s, so the terms
    of s not above A/n are vertices in turn and are translated away; what
    remains, (z - s_heavy)^n - coeff*x^A, is the prepared polynomial.  Its one
    vertex A/n has the initial form z^n - coeff*x^A, a binomial with inner
    exponent n, so kappa = (A/n, inf).  The discriminant is translation
    invariant, +-n^n coeff^(n-1) x^((n-1)A): a monomial times a unit unless p
    divides n, where f' = 0 and it vanishes.
    """
    d = len(A)
    assert gcd(n, *A) == 1 and all(e[-1] == 0 and any(e[:-1]) for e in shift)
    f = padd(ppow(padd(zvar(d), pscale(shift, -1, p), p), n, d, p), monomial(A, -coeff, d), p)
    # a term of s at or above A/n is never a vertex, so it is never translated away
    heavy = {e: c for e, c in shift.items() if all(n * ei >= ai for ei, ai in zip(e, A))}
    prepared = padd(ppow(padd(zvar(d), pscale(heavy, -1, p), p), n, d, p),
                    monomial(A, -coeff, d), p)
    separable = p == 0 or n % p != 0
    expect = Expect(
        teissier=True, qo=separable,
        vertices=(tuple(frac_str(Fraction(a, n)) for a in A),), terminal="inf",
        multiplicities=(n, 1),
        qo_exponent=tuple(str((n - 1) * a) for a in A) if separable else None,
        prepared=prepared)
    return f, expect


def split_branches(n: int) -> tuple:
    """z^n - x1^n - x1^(n+1) = prod over n-th roots of unity w of (z - w*x1*(1+x1)^(1/n)).

    Over Q it has n distinct branches, so no kappa terminal may be inf and it
    is not Teissier.  Its discriminant is x1^(n(n-1)) times a unit.
    """
    f = padd(ppow(zvar(1), n, 1, 0), padd(monomial((n,), -1, 1), monomial((n + 1,), -1, 1), 0), 0)
    return f, Expect(teissier=False, qo=True, never_inf=True,
                     qo_exponent=(str(n * (n - 1)),))


def two_corner(n: int, p: int, c1=1, c2=1) -> tuple:
    """z^n + x1*x2*z^(n-1) - c1*x1^(n+1) - c2*x2^(n+3), p not dividing n c1 c2.

    The point (1, 1) of x1*x2*z^(n-1) lies above the segment joining
    ((n+1)/n, 0) and (0, (n+3)/n), so the projected polyhedron has those two
    vertices; their initial forms z^n - c*x^A have inner exponent n > 1, so
    neither is solvable and the terminal is -1.  Restricted to x2 = 0 the
    discriminant is +-n^n c1^(n-1) x1^((n+1)(n-1)) != 0, and to x1 = 0 it is
    +-n^n c2^(n-1) x2^((n+3)(n-1)) != 0; a monomial times a unit with both
    restrictions nonzero would be a unit, but it vanishes at 0.  Not
    quasi-ordinary.
    """
    assert p == 0 or (n * c1 * c2) % p
    f = padd(ppow(zvar(2), n, 2, p), monomial((1, 1, n - 1), 1, 2), p)
    f = padd(f, padd(monomial((n + 1, 0), -c1, 2), monomial((0, n + 3), -c2, 2), p), p)
    return f, Expect(teissier=False, qo=False, vertices=(), terminal="-1",
                     multiplicities=(n,))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _tri(value, truth) -> str:
    if value == "inconclusive":
        return "inconclusive"
    return "correct" if value is truth else "wrong"


def score(case: Case, code: int, stdout: str) -> Verdict:
    """Compare one case's CLI JSON report with its known answer."""
    exp = case.expect
    out = Verdict()
    try:
        doc = json.loads(stdout)
    except ValueError:
        out.malformed = "output is not JSON"
        return out
    deform = case.argv[0] == "deform"
    if deform and code == 3:
        # no presentation: the engine decided the terminal is not inf
        out.statuses["kappa"] = "correct" if exp.never_inf else "wrong"
        return out
    try:
        kappa, teissier, qo = doc["kappa"], doc["teissier"], doc["quasi_ordinary"]
        mu = doc["discriminant"]["monomial_unit"]
    except (KeyError, TypeError):
        out.malformed = "report lacks kappa, teissier, quasi_ordinary or discriminant"
        return out
    decided = teissier != "inconclusive" and qo != "inconclusive"
    if code != (0 if deform or decided else 2):
        out.malformed = f"exit code {code} does not match the report"
        return out

    terminal = kappa["terminal"]
    if terminal == "inconclusive":
        out.statuses["kappa"] = "inconclusive"
    elif exp.never_inf:
        out.statuses["kappa"] = "wrong" if terminal == "inf" else "correct"
    else:
        ok = terminal == exp.terminal
        if exp.vertices is not None:
            ok = ok and tuple(tuple(v) for v in kappa["vertices"]) == exp.vertices
        if exp.multiplicities is not None:
            ok = ok and tuple(kappa["multiplicities"]) == exp.multiplicities
        out.statuses["kappa"] = "correct" if ok else "wrong"
    out.statuses["teissier"] = _tri(teissier, exp.teissier)
    qo_status = _tri(qo, exp.qo)
    if qo_status == "correct" and qo and exp.qo_exponent is not None:
        if tuple(mu.get("yes", ())) != exp.qo_exponent:
            qo_status = "wrong"
    out.statuses["quasi_ordinary"] = qo_status

    if terminal != "inf":
        return out
    pres = tuple(doc.get("presentation", ()))
    if exp.presentation is not None:
        out.statuses["presentation"] = "correct" if pres == exp.presentation else "wrong"
    if exp.prepared is None:
        return out
    argv = case.argv
    p = int(argv[argv.index("--char") + 1])
    T = int(argv[argv.index("--trunc") + 1]) if "--trunc" in argv else DEFAULT_TRUNC
    d = len(next(iter(exp.prepared))) - 1
    prepared = below(exp.prepared, T)
    try:
        if len(pres) == 1:
            out.statuses["presentation"] = (
                "correct" if below(parse_poly(pres[0], d, p), T) == prepared else "wrong")
        if deform:
            hyper = below(parse_poly(doc["hypersurface"], d, p), T)
            out.statuses["hypersurface"] = "correct" if hyper == prepared else "wrong"
    except (KeyError, ValueError) as exc:
        out.malformed = f"unreadable presentation or hypersurface: {exc}"
    return out


# ---------------------------------------------------------------------------
# self-check against hand-verified values
# ---------------------------------------------------------------------------

def self_check() -> list:
    """Construction formulas vs literal values from README, tests and ROADMAP.

    Returns a list of disagreements (empty when the oracle is consistent).
    """
    problems = []

    def same(label, got, want):
        if got != want:
            problems.append(f"{label}: oracle gives {got!r}, hand-verified {want!r}")

    def parsed(text, d, p):
        return parse_poly(text, d, p)

    # acceptance criterion 6 (and the README cusp): (z - x1)^2 - x1^3 over Q
    f, e = translated_binomial(2, (3,), {(1, 0): 1}, 0)
    same("criterion 6 input", f, parsed("z^2 - 2*x1*z + x1^2 - x1^3", 1, 0))
    same("criterion 6 kappa", (e.vertices, e.terminal), ((("3/2",),), "inf"))
    # tests/test_quasiord.py: disc(z^2 - x1^3) = -4*x1^3 over Q, exponent (3,)
    _, e = translated_binomial(2, (3,), {}, 0)
    same("char-0 cusp exponent", (e.qo, e.qo_exponent), (True, ("3",)))
    # acceptance criterion 1: z^2 - x1^3 over GF(2) is (3/2, inf), not QO
    f, e = translated_binomial(2, (3,), {}, 2)
    same("criterion 1 input", f, parsed("z^2 - x1^3", 1, 2))
    same("criterion 1 verdicts", (e.vertices, e.teissier, e.qo),
         ((("3/2",),), True, False))
    # acceptance fixture: z^2 + 2*x1^3 over GF(3) ends in inf
    f, e = translated_binomial(2, (3,), {}, 3)
    same("GF(3) fixture input", f, parsed("z^2 + 2*x1^3", 1, 3))
    same("GF(3) fixture terminal", e.terminal, "inf")
    # ROADMAP item 1: z^3 - x1^2*x2^4 is quasi-ordinary, disc 27*x1^4*x2^8
    _, e = translated_binomial(3, (2, 4), {}, 0)
    same("item 1 exponent", (e.qo, e.qo_exponent), (True, ("4", "8")))
    # acceptance criterion 4: the lifted hypersurface of the 3-stage example
    # reduces mod 2 to (z^2 + x1^3*x2^6)^4 + x1^15*x2^30, i.e. to the input
    za = parsed("z^2 + x1^3*x2^6", 2, 2)
    want = padd(ppow(za, 4, 2, 2), parsed("x1^15*x2^30", 2, 2), 2)
    same("criterion 4 reduction", parsed("z^8 + x1^12*x2^24 + x1^15*x2^30", 2, 2), want)
    # acceptance criterion 2: the two-vertex example over GF(2) ends in -1;
    # the two-corner rule predicts -1 for every polyhedron with two vertices
    f, e = two_corner(3, 0)
    same("two-corner input", format_poly(f, 0), "z^3 + x1*x2*z^2 - x1^4 - x2^6")
    same("two-corner terminal", (e.vertices, e.terminal), ((), "-1"))
    # ROADMAP item 5: z^4 - x1^4 - x1^5 has four branches
    f, e = split_branches(4)
    same("item 5 input", f, parsed("z^4 - x1^4 - x1^5", 1, 0))
    same("item 5 verdict", (e.never_inf, e.teissier), (True, False))
    # the GF(p) reduction used by the hypersurface check
    same("mod-p reading", parse_poly("z^2 + 1*x1^3 - 4*x1^5", 1, 2),
         {(0, 2): 1, (3, 0): 1})
    return problems
