"""Seeded case generators for the three workloads.

Each workload is a fixed skeleton of slots (family, field, degree); the seed
picks exponents and coefficients inside each slot.  Costs therefore vary
little from seed to seed, while the inputs themselves differ.  Every
case is one `kappainv` CLI call with `--json` and carries its known answer
(see oracle.py).

Every workload also starts each pass with the same four reference cases: the
README's worked examples, whose answers were verified by hand.  They cost a
few milliseconds, and the three-stage `deform` among them runs the layers
(relation rewriting, substitution, lifting) that the other cases of
`discriminants` and `field-roots` never reach, so every layer shows in every
trace.
"""

from __future__ import annotations

import random
from dataclasses import replace
from math import gcd

from oracle import (Case, Expect, format_poly, parse_poly, split_branches,
                    translated_binomial, two_corner)

# ascending GF(p) coefficients of the Conway polynomial of each extension
MODULI = {
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (3, 8): (2, 2, 2, 0, 1, 2, 0, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (5, 5): (3, 4, 0, 0, 0, 1),
    (7, 4): (3, 4, 5, 0, 1),
}

# per-case wall-time limit in seconds; a case over it counts as an error
TIME_LIMIT_S = {"towers": 5.0, "discriminants": 10.0, "field-roots": 10.0}


def _argv(cmd, p, d, f, k=1, trunc=None):
    argv = [cmd, "--char", str(p), "--vars", str(d)]
    if k > 1:
        argv += ["--ext", str(k), "--modulus", ",".join(map(str, MODULI[(p, k)]))]
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    return argv + ["--json", f if isinstance(f, str) else format_poly(f, p)]


def _coeff(rng, p):
    # over Q only the sign varies: larger coefficients would change the cost
    # of the exact arithmetic from seed to seed
    return rng.choice((1, -1)) if p == 0 else rng.randrange(1, p)


def _coprime_exponent(rng, n, d, lo, hi):
    while True:
        A = tuple(rng.randint(lo, hi) for _ in range(d))
        if gcd(n, *A) == 1:
            return A


def _shift(shape, rng, d, terms, p):
    """The translation s: terms monomials c*x^e with 1 <= |e|, e_i <= 3.

    The exponents come from `shape`, the coefficients from `rng`.
    """
    exponents = set()
    while len(exponents) < terms:
        e = tuple(shape.randint(0, 3) for _ in range(d))
        if any(e):
            exponents.add(e + (0,))
    return {e: _coeff(rng, p) for e in sorted(exponents)}


def reference_cases():
    """README and acceptance-test examples with their hand-verified answers."""
    three_stage = "z^8 + x1^12*x2^24 + x1^15*x2^30"
    cusp, cusp_exp = translated_binomial(2, (3,), {}, 2)
    prep, prep_exp = translated_binomial(2, (3,), {(1, 0): 1}, 0)
    return [
        Case("ref-cusp-gf2", _argv("classify", 2, 1, cusp), cusp_exp),
        Case("ref-two-vertex-gf2",
             _argv("classify", 2, 2, "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"),
             Expect(teissier=False, qo=True, vertices=(), terminal="-1",
                    multiplicities=(2,), qo_exponent=("2", "2"))),
        Case("ref-three-stage-gf2", _argv("deform", 2, 2, three_stage),
             Expect(teissier=True, qo=False,
                    vertices=(("3/2", "3"), ("15/4", "15/2"), ("63/8", "63/4")),
                    terminal="inf", multiplicities=(8, 4, 2, 1),
                    presentation=("u1 - (z^2 - x1^3*x2^6)", "u2 - (u1^2 - x1^6*x2^12*z)",
                                  "u2^2 + x1^12*x2^24*u1"),
                    prepared=parse_poly(three_stage, 2, 2))),
        Case("ref-preparation-q", _argv("classify", 0, 1, prep), prep_exp),
    ]


def towers(rng):
    """Teissier-by-construction inputs: chain towers and translated binomials."""
    cases = reference_cases()
    four_stage = "z^16 + x1^24*x2^48 + x1^30*x2^60 + x1^63*x2^126"
    # every exponent is even, so f' = 0 in characteristic 2: not quasi-ordinary;
    # each of the four stages halves the multiplicity
    tower = Expect(teissier=True, qo=False, terminal="inf", multiplicities=(16, 8, 4, 2, 1))
    cases.append(Case("four-stage-classify", _argv("classify", 2, 2, four_stage, trunc=256),
                      tower))
    cases.append(Case("four-stage-deform", _argv("deform", 2, 2, four_stage, trunc=256),
                      replace(tower, prepared=parse_poly(four_stage, 2, 2))))
    for n in (2, 4):
        f, exp = split_branches(n)
        cases.append(Case(f"split-branches-n{n}", _argv("classify", 0, 1, f), exp,
                          defect="ROADMAP item 5 (reducible inputs classified as Teissier)"))
    for p, cmd in ((0, "classify"), (2, "deform"), (3, "deform"), (5, "deform")):
        for sweep in range(2):
            for d in (1, 2, 3):
                for n in (2, 3, 4):
                    for terms in (1, 2, 3):
                        # The work of a slot hardly depends on the seed: the
                        # exponents of s are fixed per slot, and A_i > 3n puts
                        # every term of s below A/n, so all are translated away.
                        # The seed picks A and the coefficients.
                        shape = random.Random(f"towers:{sweep}:{d}:{n}:{terms}")
                        A = _coprime_exponent(rng, n, d, 3 * n + 1, 4 * n)
                        s = _shift(shape, rng, d, terms, p)
                        f, exp = translated_binomial(n, A, s, p)
                        cases.append(Case(f"translated-{cmd}-p{p}-d{d}-n{n}-t{terms}-s{sweep}",
                                          _argv(cmd, p, d, f), exp))
    return cases


def discriminants(rng):
    """High z-degree, few terms: the Sylvester determinant dominates."""
    cases = reference_cases()
    for p in (0, 7):
        for n in range(8, 17):
            if p and n % p == 0:
                continue
            f, exp = two_corner(n, p, _coeff(rng, p), _coeff(rng, p))
            cases.append(Case(f"two-corner-p{p}-n{n}", _argv("classify", p, 2, f), exp))
    defect = "ROADMAP item 1 (truncated discriminant reported as an exact zero)"
    f, exp = translated_binomial(3, (2, 4), {}, 0)
    exp.prepared = None  # the certificate T = 4 hides every x-term
    cases.append(Case("item1-binomial-trunc4", _argv("classify", 0, 2, f, trunc=4), exp,
                      defect=defect))
    # irreducible (Eisenstein in x1); the single vertex (1/4, 0) carries z^4 + x1;
    # the ROADMAP computes the discriminant as 256*x1^3 + ..., exponent (3, 0)
    cases.append(Case(
        "item1-eisenstein-trunc5",
        _argv("classify", 0, 2, "z^4 + 4*x1^3*x2^2*z^2 + 3*x1*x2^3*z^2 + x1^3*x2^4*z + x1",
              trunc=5),
        Expect(teissier=True, qo=True, vertices=(("1/4", "0"),), terminal="inf",
               multiplicities=(4, 1), qo_exponent=("3", "0")),
        defect=defect))
    # n = 4..12 in five sweeps, and n = 16 four times: that block of similar
    # cases holds the 90th percentile, which would otherwise fall in a gap
    # between two corner cases
    for sweep in range(5):
        for p in (0, 7):
            for n in [*range(4, 13), 16] if sweep < 4 else range(4, 13):
                if p and n % p == 0:
                    continue
                A = _coprime_exponent(rng, n, 2, 1, 2 * n)
                f, exp = translated_binomial(n, A, {}, p, coeff=_coeff(rng, p))
                cases.append(Case(f"pure-power-p{p}-n{n}-s{sweep}", _argv("classify", p, 2, f),
                                  exp))
    return cases


# Cases per pass for each extension field.  The cost of a case grows with q,
# so the large fields get few slots.  The counts put the median inside the
# cluster of GF(5^4) translations and the 90th percentile inside the cluster
# of GF(5^5) translations, so neither quantile sits in a gap between fields.
FIELD_SLOTS = {(2, 8): 30, (5, 4): 26, (2, 10): 10, (3, 6): 10, (5, 5): 22, (7, 4): 6,
               (2, 12): 2, (3, 8): 2}


def field_roots(rng):
    """classify over GF(p^k), q = 2^8 .. 3^8: root extraction enumerates the field.

    The input grammar has no symbol for a generator of GF(p^k), so the
    coefficients c are nonzero elements of the prime field; root extraction
    still enumerates all q elements.
    """
    cases = reference_cases()
    for (p, k), slots in FIELD_SLOTS.items():
        degrees = [n for n in (3, 4, 5) if n % p]
        for slot in range(slots):
            n = degrees[slot % len(degrees)]
            m = _coprime_exponent(rng, n, 1, n + 1, 4 * n)[0]
            c = rng.randrange(1, p)
            if slot % 2 == 0:
                # z^n + c*x1^m
                f, exp = translated_binomial(n, (m,), {}, p, coeff=p - c)
                name = "binomial"
            else:
                # (z - c*x1^a)^n - x1^m with a < m/n, so the translation is needed
                a = rng.randint(1, (m - 1) // n)
                f, exp = translated_binomial(n, (m,), {(a, 0): c}, p)
                name = "translated"
            cases.append(Case(f"{name}-gf{p}^{k}-n{n}-{slot}", _argv("classify", p, 1, f, k=k),
                              exp))
    return cases


WORKLOADS = {"towers": towers, "discriminants": discriminants, "field-roots": field_roots}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def fields(cases) -> list:
    """(p, k, modulus) of every field the cases use, for set-up."""
    out = set()
    for case in cases:
        argv = case.argv
        p = int(argv[argv.index("--char") + 1])
        k = int(argv[argv.index("--ext") + 1]) if "--ext" in argv else 1
        out.add((p, k, MODULI.get((p, k))))
    return sorted(out, key=lambda f: (f[0], f[1]))
