"""Known-answer quasi-ordinary branches in characteristic 0.

An oracle for the kappa engine that is independent of the benchmark's
towers, from the classical theory of quasi-ordinary branches (Lipman 1988;
Gonzalez Perez, J. Inst. Math. Jussieu 2003).  A branch is a fractional
power series zeta = sum c_i x^lambda_i with characteristic exponents
lambda_1 < ... < lambda_g (componentwise), each outside the lattice M_{i-1}
spanned by Z^d and the ones before, plus at most one higher term inside
that lattice.  f is the product of the distinct conjugates of zeta, the
substitutions x_j^(1/N) -> w^(k_j) x_j^(1/N) with w a primitive N-th root
of unity, computed exactly in Z[t]/Phi_N(t).  With no engine code involved:

- the kappa vertices are gamma_1 = lambda_1, gamma_{i+1} = n_i gamma_i +
  lambda_{i+1} - lambda_i;
- the inner exponents n_i are the orders [M_i : M_{i-1}], and the
  multiplicities are n / (n_1 ... n_i), with n = n_1 ... n_g;
- the terminal is inf, and f is Teissier and quasi-ordinary;
- the discriminant is a unit times x^E, E = sum over ordered pairs a != b of
  conjugates of lambda_{i(a, b)}, the first exponent where they differ.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

from kappainv import (QQ, Field, KappaConfig, Poly, Terminal, VarContext, classify,
                      compute_kappa, substitute, weierstrass_validate)
from conftest import mk

SEED = 20250202
SWEEP = 192


# -- exact cyclotomic arithmetic ------------------------------------------------

def _divide_exact(num: list, den: list) -> list:
    """num / den over Z, both coefficient lists lowest degree first, den monic."""
    num, quot = list(num), [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = num[k + len(den) - 1]
        for j, b in enumerate(den):
            num[k + j] -= c * b
    assert not any(num), "inexact division"
    return quot


def cyclotomic(N: int) -> list:
    """Phi_N, from t^N - 1 by dividing out Phi_d for every proper divisor d."""
    phi = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            phi = _divide_exact(phi, cyclotomic(d))
    return phi


def _reduce(vec: list, phi: list) -> list:
    """vec (an element of Z[t]/(t^N - 1)) modulo Phi_N, lowest degree first."""
    vec, m = list(vec), len(phi) - 1
    for k in range(len(vec) - 1, m - 1, -1):
        c = vec[k]
        if c:
            for j, b in enumerate(phi):
                vec[k - m + j] -= c * b
    return vec[:m]


# -- branches -----------------------------------------------------------------

def _frac_mod1(v) -> tuple:
    return tuple(c - math.floor(c) for c in v)


def lattice_orders(lambdas) -> list:
    """n_i = [M_i : M_{i-1}], from the residues mod Z^d of M_{i-1}."""
    d = len(lambdas[0])
    residues, orders = {(Fraction(0),) * d}, []
    for lam in lambdas:
        m = 1
        while _frac_mod1(tuple(m * c for c in lam)) not in residues:
            m += 1
        residues = {_frac_mod1(tuple(s + j * c for s, c in zip(r, lam)))
                    for r in residues for j in range(m)}
        orders.append(m)
    return orders


@dataclass(frozen=True)
class Branch:
    lambdas: tuple        # characteristic exponents, tuples of Fractions
    coeffs: tuple         # their nonzero integer coefficients
    extra: tuple = ()     # ((exponent, coeff),) with the exponent in the lattice

    @property
    def d(self) -> int:
        return len(self.lambdas[0])

    @property
    def name(self) -> str:
        terms = [(lam, c) for lam, c in zip(self.lambdas, self.coeffs)] + list(self.extra)
        return " + ".join(f"{c}*x^({','.join(str(v) for v in lam)})" for lam, c in terms)

    def conjugates(self):
        """(N, [character exponents of each distinct conjugate, one per term])."""
        terms = [lam for lam in self.lambdas] + [lam for lam, _ in self.extra]
        N = math.lcm(*(c.denominator for lam in terms for c in lam))
        seen = {}
        for k in product(range(N), repeat=self.d):
            chars = tuple(int(sum(kj * c for kj, c in zip(k, lam)) * N) % N for lam in terms)
            seen.setdefault(chars, None)
        return N, list(seen)

    def polynomial(self) -> Poly:
        """prod over the conjugates of (z - zeta_a), exactly, as a Poly over Q in x1..xd, z."""
        N, conjugates = self.conjugates()
        terms = list(zip(self.lambdas, self.coeffs)) + list(self.extra)
        nums = [tuple(int(c * N) for c in lam) for lam, _ in terms]
        zero = (0,) * self.d
        # coefficient of z^k: {exponent numerators over N: vector in Z[t]/(t^N - 1)}
        P = [{zero: [1] + [0] * (N - 1)}]
        for chars in conjugates:
            out = [{} for _ in range(len(P) + 1)]
            for k, series in enumerate(P):
                for E, vec in series.items():
                    acc = out[k + 1].setdefault(E, [0] * N)
                    for i in range(N):
                        acc[i] += vec[i]
                    for num, (_, c), j in zip(nums, terms, chars):
                        acc = out[k].setdefault(tuple(a + b for a, b in zip(E, num)), [0] * N)
                        for i in range(N):
                            acc[(i + j) % N] -= c * vec[i]
            P = out
        phi = cyclotomic(N)
        poly = {}
        for k, series in enumerate(P):
            for E, vec in series.items():
                red = _reduce(vec, phi)
                if any(red):
                    assert not any(red[1:]), "coefficient outside Z"
                    assert all(e % N == 0 for e in E), "exponent outside Z^d"
                    poly[tuple(e // N for e in E) + (k,)] = Fraction(red[0])
        return Poly(VarContext(self.d), QQ, poly)

    def expected(self) -> dict:
        orders = lattice_orders(self.lambdas)
        n = math.prod(orders)
        gammas = [self.lambdas[0]]
        for i in range(1, len(self.lambdas)):
            gammas.append(tuple(orders[i - 1] * g + b - a for g, a, b in
                                zip(gammas[-1], self.lambdas[i - 1], self.lambdas[i])))
        mults, m = [n], n
        for o in orders:
            m //= o
            mults.append(m)
        _, conjugates = self.conjugates()
        g = len(self.lambdas)
        disc = [Fraction(0)] * self.d
        for a in conjugates:
            for b in conjugates:
                if a != b:
                    i = next(i for i in range(g) if a[i] != b[i])
                    disc = [s + c for s, c in zip(disc, self.lambdas[i])]
        assert all(c.denominator == 1 for c in disc)
        return {"vertices": tuple(gammas), "inner": tuple(orders), "mults": tuple(mults),
                "disc": tuple(int(c) for c in disc), "n": n}


def random_branch(rng, shape=None) -> Branch:
    """d in {1, 2}, g <= 3 and n <= 8, by rejection, so small n are the most
    common, or the given shape (d, g); exponent steps of at most 1 with
    denominators 2, 3, 4 or 8 keep f below the default truncation 64."""
    while True:
        d, g = shape or (rng.choice([1, 2]), rng.choice([1, 2, 3]))
        lambdas, n, prev = [], 1, (Fraction(0),) * d
        for _ in range(g):
            q = rng.choice([2, 3, 4, 8])
            step = tuple(Fraction(rng.randint(0, q), q) for _ in range(d))
            lam = tuple(a + b for a, b in zip(prev, step))
            if not any(step):
                break
            n_i = lattice_orders(lambdas + [lam])[-1]
            if n_i == 1 or n * n_i > 8:
                break
            lambdas.append(lam)
            n, prev = n * n_i, lam
        else:
            coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in lambdas)
            extra = ()
            if rng.random() < 0.4:
                base = rng.choice(lambdas)
                r = rng.randrange(d)
                extra = ((tuple(c + (j == r) for j, c in enumerate(base)),
                          rng.choice([-2, -1, 1, 2])),)
            return Branch(tuple(lambdas), coeffs, extra)


def F(a, b=1):
    return Fraction(a, b)


# the hand-checked examples, the inputs an earlier draw of the sweep found,
# then the seeded sweep, in which g = 3 (so n = 8) is rare, and a few more
# with g = 3
HAND = [
    Branch(((F(3, 2),), (F(7, 4),)), (1, 1)),
    Branch(((F(3, 2), F(1, 2)), (F(7, 4), F(3, 4))), (1, 1)),
]
FOUND = [
    Branch(((F(1), F(1, 2)), (F(5, 2), F(3, 2)), (F(15, 4), F(5, 2))), (-2, 1, 1),
           (((F(15, 4), F(7, 2)), 1),)),
]
_rng = random.Random(SEED)
BRANCHES = (HAND + FOUND + [random_branch(_rng) for _ in range(SWEEP)]
            + [random_branch(_rng, (d, 3)) for d in (1, 2) for _ in range(4)])

# each classification gets this many seconds; the sweep's slowest right
# answer within it takes about 0.4 s
LIMIT_S = 1

# inputs the engine misses, by name: (the exception it fails with, why)
KNOWN = {
    FOUND[0].name: (
        TimeoutError, "kappa is right, but discriminant_z takes about 75 s on this "
        "79-term degree-8 f: the subresultant coefficients swell to thousands of "
        "terms, and exact_div scans the remainder for its leading term at every step"),
}


def slow_discriminant(b: Branch) -> bool:
    """d = 2 and g = 3 with a higher term: f has 61 to 90 terms, and its
    discriminant takes from about 1 s to 75 s (without the higher term, f has
    25 to 29 terms and takes at most 0.2 s).  Their kappa is checked; their
    discriminant only on FOUND[0], a strict xfail that pins the cost."""
    return b.d == 2 and len(b.lambdas) == 3 and bool(b.extra)


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _params():
    out = []
    for i, b in enumerate(BRANCHES):
        marks = ()
        if b.name in KNOWN:
            raises, reason = KNOWN[b.name]
            marks = pytest.mark.xfail(strict=True, raises=raises, reason=reason)
        out.append(pytest.param(b, id=f"{i:03d} {b.name}", marks=marks))
    return out


def test_hand_checked_polynomial():
    assert HAND[0].polynomial() == mk("z^4 - 2*x1^3*z^2 - 4*x1^5*z + x1^6 - x1^7", 1, QQ)
    assert HAND[1].expected()["vertices"] == ((F(3, 2), F(1, 2)), (F(13, 4), F(5, 4)))
    assert HAND[1].expected()["inner"] == (2, 2)
    assert HAND[0].expected()["disc"] == (19,)


def test_sweep_covers_the_shapes():
    shapes = {(b.d, len(b.lambdas)) for b in BRANCHES}
    assert shapes == {(d, g) for d in (1, 2) for g in (1, 2, 3)}
    assert any(b.extra for b in BRANCHES)
    assert max(b.expected()["n"] for b in BRANCHES) == 8


@pytest.mark.parametrize("branch", _params())
def test_known_answer(branch):
    want = branch.expected()
    wf = weierstrass_validate(branch.polynomial())
    assert wf.n == want["n"]
    inv = compute_kappa(wf).invariant
    assert inv.vertices == want["vertices"]
    assert inv.inner_exponents == want["inner"]
    assert inv.multiplicities == want["mults"]
    assert inv.terminal is Terminal.INFINITY
    if slow_discriminant(branch) and branch.name not in KNOWN:
        pytest.xfail("discriminant_z takes over 1 s here; see slow_discriminant")
    with time_limit(LIMIT_S):
        rep = classify(wf)
    assert rep.kappa == inv
    assert rep.teissier is True and rep.quasi_ordinary is True
    assert rep.discriminant.monomial_unit.exponent == want["disc"]


def mirror_product(branch: Branch):
    """f(z) * (-1)^n * f(-z), the branch times the branch of -zeta, or None
    when the two are one branch and the product is f^2."""
    f = branch.polynomial()
    n = branch.expected()["n"]
    mirror = substitute(f, "z", Poly.variable(f.ctx, QQ, "z").neg())
    mirror = mirror if n % 2 == 0 else mirror.neg()
    return None if mirror == f else f.mul(mirror)


def test_mirror_products_are_never_inf():
    # two distinct branches make a reducible f, which has no overweight
    # presentation: the lattice gives each stage's power, so no stage can
    # settle on a larger inner exponent and end in inf
    products = 0
    for branch in BRANCHES:
        if branch.expected()["n"] > 4:
            continue
        g = mirror_product(branch)
        if g is not None:
            res = compute_kappa(weierstrass_validate(g))
            assert res.invariant.terminal is not Terminal.INFINITY, branch.name
            products += 1
    assert products == 30


# -- the sweep mod p ------------------------------------------------------------
#
# f has integer coefficients, so it reduces mod every prime.  The reduction
# is tame when p divides neither N (the lcm of the exponents' denominators;
# every prime factor of the degree n divides N) nor any coefficient of zeta.  Each branch is reduced once,
# at a tame prime in {2, 3, 5, 7} drawn by seed (2 is tame only when N is
# odd).  That a tame reduction keeps the char-0 kappa and discriminant
# exponent is measured on these branches, not proven; the wild reductions
# have no oracle yet.

def tame_primes(b: Branch) -> list:
    N, _ = b.conjugates()
    coeffs = list(b.coeffs) + [c for _, c in b.extra]
    return [p for p in (2, 3, 5, 7) if N % p and all(c % p for c in coeffs)]


_prime_rng = random.Random(SEED)
MOD_P = [(b, _prime_rng.choice(tame_primes(b))) for b in BRANCHES]


@functools.cache
def reduced_mod_p(index: int):
    """(p, the Weierstrass reduction of MOD_P[index] over GF(p), its kappa result)."""
    branch, p = MOD_P[index]
    field = Field.finite(p)
    f = branch.polynomial()
    wf = weierstrass_validate(
        Poly(f.ctx, field, {e: field.from_int(int(c)) for e, c in f.terms.items()}))
    return p, wf, compute_kappa(wf)


def test_sweep_mod_p_covers_every_prime():
    assert {p for _, p in MOD_P} == {2, 3, 5, 7}


@pytest.mark.parametrize("index", [
    pytest.param(i, id=f"{i:03d} p={p} {b.name}") for i, (b, p) in enumerate(MOD_P)])
def test_tame_reduction_keeps_the_answer(index):
    branch = MOD_P[index][0]
    want = branch.expected()
    _, wf, result = reduced_mod_p(index)
    assert wf.n == want["n"]
    inv = result.invariant
    assert inv.vertices == want["vertices"]
    assert inv.inner_exponents == want["inner"]
    assert inv.multiplicities == want["mults"]
    assert inv.terminal is Terminal.INFINITY
    if slow_discriminant(branch):
        return  # kappa only, as in the char-0 sweep
    with time_limit(LIMIT_S):
        rep = classify(wf)
    assert rep.quasi_ordinary is True
    assert rep.discriminant.monomial_unit.exponent == want["disc"]


# -- the rewrite depth ------------------------------------------------------------
#
# A shallow rewrite search may stop a stage early, but must not give another
# definitive kappa: at depths 0-2, kappa equals the deep answer or is
# inconclusive on the vertices found so far.  The deep answer is depth 8 for
# the README tower and the benchmark's four-stage tower, and the known answer
# for a seeded slice of the sweep, over Q and reduced mod p (depth 8 is no
# reference there: a g = 3 branch of the slice raises at depth 5 and runs
# for minutes at depth 6).

DEPTH_TOWERS = [pytest.param(text, T, id=name) for name, text, T in [
    ("readme-tower", "z^8 + x1^12*x2^24 + x1^15*x2^30", 64),
    ("four-stage-tower", "z^16 + x1^24*x2^48 + x1^30*x2^60 + x1^63*x2^126", 256)]]
DEPTH_SLICE = random.Random(SEED + 5).sample(range(len(BRANCHES)), 24)

# inputs that a shallow search gives another definitive kappa, by name
SHALLOW = {
    "2*x^(1/2,1/2) + 2*x^(3/2,1) + 2*x^(2,7/4) + -2*x^(5/2,1)": (
        "at depth 0 the third stage's solvable vertices need a rewrite to show, so "
        "preparation stops at two vertices and reports -1 where depth 1 gives inf"),
}


def assert_depth_keeps(wf, T, vertices):
    inconclusive = 0
    for depth in (0, 1, 2):
        inv = compute_kappa(wf, KappaConfig(truncation=T, depth=depth)).invariant
        if inv.terminal is Terminal.INCONCLUSIVE:
            assert inv.vertices == vertices[:len(inv.vertices)], depth
            inconclusive += 1
        else:
            assert (inv.vertices, inv.terminal) == (vertices, Terminal.INFINITY), depth
    return inconclusive


@pytest.mark.parametrize("text, T", DEPTH_TOWERS)
def test_depth_keeps_the_tower_kappa(text, T):
    wf = weierstrass_validate(mk(text, 2, Field.finite(2)))
    deep = compute_kappa(wf, KappaConfig(truncation=T, depth=8)).invariant
    assert deep.terminal is Terminal.INFINITY
    assert assert_depth_keeps(wf, T, deep.vertices) >= 1  # depth 0 stops at stage 2


def _depth_params():
    out = []
    for i in DEPTH_SLICE:
        b, p = MOD_P[i]
        marks = ()
        if b.name in SHALLOW:
            marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=SHALLOW[b.name])
        out += [pytest.param(i, q, id=f"{i:03d} p={q} {b.name}", marks=marks) for q in (0, p)]
    return out


@pytest.mark.parametrize("index, p", _depth_params())
def test_depth_keeps_the_branch_kappa(index, p):
    branch = BRANCHES[index]
    wf = reduced_mod_p(index)[1] if p else weierstrass_validate(branch.polynomial())
    assert_depth_keeps(wf, 64, branch.expected()["vertices"])
