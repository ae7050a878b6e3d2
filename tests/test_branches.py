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
import io
import json
import math
import random
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import kappainv.kappa as kappa_mod
import kappainv.quasiord as quasiord
from kappainv import (QQ, BinomialPower, Field, KappaConfig, Poly, Terminal, VarContext,
                      back_substitute, classify, cli, compute_kappa, discriminant_z,
                      is_monomial_times_unit, substitute, weierstrass_validate)
from kappainv.poly import derivative
from kappainv.quasiord import MonomialUnitStatus, _z_coefficients
from conftest import (leading_reduce, mk, poly_pow, search_binomialize, variable,
                      watch_key_bound)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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


def kappa_disc_exponent(vertices, multiplicities, d: int) -> tuple:
    """The discriminant exponent E that kappa alone predicts for a branch.

    The vertices gamma_i and inner exponents n_i = m_(i-1) / m_i give the
    characteristic exponents, lambda_1 = gamma_1 and lambda_(i+1) = lambda_i
    + gamma_(i+1) - n_i gamma_i (the inverse of Branch.expected), and then
    E = sum_i n (n_i - 1) (n_(i+1) ... n_g) lambda_i, with n_(i+1) ... n_g =
    m_i (Lipman; Gonzalez Perez, J. Inst. Math. Jussieu 2003).
    """
    n, E, lam = multiplicities[0], [Fraction(0)] * d, None
    for i, gamma in enumerate(vertices):
        n_i, m_i = multiplicities[i] // multiplicities[i + 1], multiplicities[i + 1]
        if lam is None:
            lam = tuple(gamma)
        else:
            n_prev = multiplicities[i - 1] // multiplicities[i]
            lam = tuple(a + g - n_prev * h for a, g, h in zip(lam, gamma, vertices[i - 1]))
        E = [s + n * (n_i - 1) * m_i * c for s, c in zip(E, lam)]
    assert all(c.denominator == 1 for c in E)
    return tuple(int(c) for c in E)


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
        TimeoutError, "kappa is right, but discriminant_z takes about 13 s on this "
        "79-term degree-8 f: the subresultant coefficients swell to thousands of "
        "terms, so even on packed monomials the term count keeps it far over 1 s"),
}


def slow_discriminant(b: Branch) -> bool:
    """d = 2 and g = 3 with a higher term: f has 61 to 90 terms, and its
    discriminant takes from about 1.5 s to 13 s (without the higher term, f
    has 25 to 29 terms and takes under 0.05 s).  Their kappa is checked;
    their discriminant only on FOUND[0], a strict xfail that pins the cost."""
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
    assert kappa_disc_exponent(inv.vertices, inv.multiplicities, branch.d) == want["disc"]


def test_packed_keys_stay_within_the_bound(monkeypatch):
    # the discriminant of every branch of the sweep, over Q and reduced mod
    # p, but the slow ones, by discriminant_z (the closed form on a
    # z-trinomial) and by the subresultant kernel on the same f: every key a
    # product forms keeps each field within (n + k) * D0 in the closed form
    # and within (m + 2)(2m - 1) * D0 in the kernel
    seen = watch_key_bound(monkeypatch)
    for index, (branch, _) in enumerate(MOD_P):
        if slow_discriminant(branch):
            continue
        exponent = branch.expected()["disc"]
        for wf in (weierstrass_validate(branch.polynomial()), reduced_mod_p(index)[1]):
            rep = discriminant_z(wf)
            assert rep.monomial_unit.exponent == exponent, branch.name
            kernel = quasiord.determinant(_z_coefficients(wf.poly),
                                          _z_coefficients(derivative(wf.poly, "z")))
            assert kernel == rep.disc, branch.name
    # 170 of the 200 branches are z-trinomials, over Q and mod p: the other
    # 30 take the kernel inside discriminant_z as well
    assert seen["keys"] > 0 and (seen["closed"], seen["kernel"]) == (2 * 170, 2 * (200 + 30))


def mirror_product(branch: Branch):
    """f(z) * (-1)^n * f(-z), the branch times the branch of -zeta, or None
    when the two are one branch and the product is f^2."""
    f = branch.polynomial()
    n = branch.expected()["n"]
    mirror = substitute(f, "z", variable(f.ctx, QQ, "z").neg())
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


def mod_p(branch: Branch, p: int):
    """The Weierstrass polynomial of the branch reduced over GF(p)."""
    field, f = Field.finite(p), branch.polynomial()
    return weierstrass_validate(
        Poly(f.ctx, field, {e: field.from_int(int(c)) for e, c in f.terms.items()}))


@functools.cache
def reduced_mod_p(index: int):
    """(p, the Weierstrass reduction of MOD_P[index] over GF(p), its kappa result)."""
    branch, p = MOD_P[index]
    wf = mod_p(branch, p)
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
    assert rep.discriminant.monomial_unit.exponent == kappa_disc_exponent(
        inv.vertices, inv.multiplicities, branch.d)
    assert rep.discriminant.monomial_unit.exponent == want["disc"]


# -- binomial powers without a search ------------------------------------------
#
# A stage reads its binomial power in the graded ring, in one pass, with no
# depth to choose.  The rewrite search it replaced stopped early at depths
# 0-2 on the README tower and on some of the sweep: it reported -1 on branch
# 201 at depth 0, and on branch 196 it raised at depth 5 and ran for minutes
# at depth 6.  Each tower must give the answer that search gave at depth 8,
# and each branch of a seeded slice of the sweep, over Q and reduced mod p,
# its known answer, within LIMIT_S.

DEPTH_TOWERS = [pytest.param(text, T, vertices, id=name) for name, text, T, vertices in [
    ("readme-tower", "z^8 + x1^12*x2^24 + x1^15*x2^30", 64,
     ((F(3, 2), F(3)), (F(15, 4), F(15, 2)), (F(63, 8), F(63, 4)))),
    ("four-stage-tower", "z^16 + x1^24*x2^48 + x1^30*x2^60 + x1^63*x2^126", 256,
     ((F(3, 2), F(3)), (F(15, 4), F(15, 2)), (F(63, 8), F(63, 4)), (F(735, 16), F(735, 8))))]]
DEPTH_SLICE = random.Random(SEED + 5).sample(range(len(BRANCHES)), 24)


def assert_known_kappa(wf, T, vertices):
    with time_limit(LIMIT_S):
        inv = compute_kappa(wf, KappaConfig(truncation=T)).invariant
    assert (inv.vertices, inv.terminal) == (vertices, Terminal.INFINITY)


@pytest.mark.parametrize("text, T, vertices", DEPTH_TOWERS)
def test_depth_keeps_the_tower_kappa(text, T, vertices):
    assert_known_kappa(weierstrass_validate(mk(text, 2, Field.finite(2))), T, vertices)


@pytest.mark.parametrize("index, p", [
    pytest.param(i, q, id=f"{i:03d} p={q} {MOD_P[i][0].name}")
    for i in DEPTH_SLICE for q in (0, MOD_P[i][1])])
def test_depth_keeps_the_branch_kappa(index, p):
    branch = BRANCHES[index]
    wf = reduced_mod_p(index)[1] if p else weierstrass_validate(branch.polynomial())
    assert_known_kappa(wf, 64, branch.expected()["vertices"])


def test_graded_check_matches_the_search(monkeypatch):
    # every binomialization the engine makes on the sweep, over Q and mod p,
    # and on the benchmark's towers, against the rewrite search to depth 8:
    # where the search finds a power, the check finds the same one, its tail
    # t' reduced to the standard kappa * t (so c = c' * kappa); where the
    # search finds none, neither does the check
    inputs = [wf for index, (branch, _) in enumerate(MOD_P)
              for wf in (weierstrass_validate(branch.polynomial()), reduced_mod_p(index)[1])]
    calls = []
    real = kappa_mod.binomialize_modulo

    def recording(f, vertex, stage, relations):
        res = real(f, vertex, stage, relations)
        calls.append((f, vertex, stage, list(relations), res))
        return res

    monkeypatch.setattr(kappa_mod, "binomialize_modulo", recording)
    for wf in inputs:
        compute_kappa(wf)
    with contextlib.redirect_stdout(io.StringIO()):
        for case in workloads.build("towers", 7):
            cli.main(list(case.argv))
    seen = set()
    for f, vertex, stage, relations, (got, poly) in calls:
        assert poly is f
        want, found_on = search_binomialize(f, vertex, stage, relations, 8, T=f.trunc)
        if want is None:
            assert got is None
            seen.add("none")
            continue
        tail, kappa = leading_reduce(want.tail_expo, f.ring.one, relations, f.ctx, f.ring)
        assert got == BinomialPower(want.main_var, want.inner_exp, want.power,
                                    f.ring.mul(want.coeff, kappa), tail)
        seen.add("after a rewrite" if found_on is not f else "direct")
    assert seen == {"none", "direct", "after a rewrite"}
    assert len(calls) > 1200


def test_presentation_weights_come_from_the_vertices(monkeypatch):
    # every presentation of the sweep, over Q and mod p, and of the seed-7
    # towers weighs x_i by the i-th unit vector, z by gamma_1 and u_j by
    # gamma_(j+1); after an empty terminal the last variable, which no
    # vertex weighs, gets its relation's head level n_g * gamma_g; the
    # repeated factors (z^2 + x1^3)^2 over GF(2) and GF(5) and (z + x1)^2
    # over GF(2) end that way, the last at the z stage
    results = [compute_kappa(weierstrass_validate(b.polynomial())) for b in BRANCHES]
    results += [reduced_mod_p(index)[2] for index in range(len(MOD_P))]
    results += [compute_kappa(weierstrass_validate(mk(text, 1, Field.finite(p))))
                for text, p in [("z^4 + x1^6", 2), ("z^4 + 2*x1^3*z^2 + x1^6", 5),
                                ("z^2 + x1^2", 2)]]
    real = kappa_mod.compute_kappa

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    for module in (cli, sys.modules["kappainv.quasiord"]):
        monkeypatch.setattr(module, "compute_kappa", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        for case in workloads.build("towers", 7):
            cli.main(list(case.argv))
    assert len(results) > 2 * len(BRANCHES) + 3
    ends = set()
    for res in results:
        pres, inv = res.presentation, res.invariant
        if pres is None:
            continue
        d, aux = pres.ctx.d, pres.ctx.aux
        want = {f"x{i + 1}": tuple(int(i == j) for j in range(d)) for i in range(d)}
        want.update(zip(aux, inv.vertices))
        if pres.final_head is None and inv.vertices:
            want[aux[-1]] = tuple(inv.inner_exponents[-1] * c for c in inv.vertices[-1])
        assert pres.weights == want
        ends.add("head" if pres.final_head else "empty" if inv.vertices else "empty z stage")
    assert ends == {"head", "empty", "empty z stage"}


# -- kappa predicts the discriminant on the benchmark --------------------------
#
# classify reaches its two verdicts through code the two sides do not share:
# kappa through the polyhedra and binomial powers, quasi-ordinary through the
# subresultant.  On a Teissier output in characteristic 0, or in
# characteristic p not dividing n, the discriminant exponent must be the E
# that kappa predicts.  A wild output (p | n) may differ: z^2 + x1^5*z + x1^3
# over GF(2) has kappa (3/2, inf) and discriminant x1^10.  An output whose
# truncated discriminant leaves quasi-ordinary inconclusive has no exponent.



@pytest.mark.parametrize("seed", [7, 13])
def test_kappa_predicts_the_benchmark_discriminants(seed):
    tame = wild = 0
    for name in sorted(workloads.WORKLOADS):
        for case in workloads.build(name, seed):
            argv = case.argv
            if argv[0] != "classify":
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(list(argv))
            rep = json.loads(out.getvalue())
            if rep["teissier"] is not True or rep["quasi_ordinary"] == "inconclusive":
                continue
            p, d = (int(argv[argv.index(flag) + 1]) for flag in ("--char", "--vars"))
            kappa = rep["kappa"]
            if p and kappa["multiplicities"][0] % p == 0:
                wild += 1
                continue
            vertices = [tuple(Fraction(c) for c in v) for v in kappa["vertices"]]
            E = kappa_disc_exponent(vertices, kappa["multiplicities"], d)
            assert rep["discriminant"]["monomial_unit"] == {"yes": [str(c) for c in E]}, case.id
            tame += 1
    assert (tame, wild) == (258, 4)


# -- each chain variable's valuation, from a resultant -------------------------
#
# A chain variable y of a presentation, written in x and z by back
# substitution as Y, has the weight w(y) as its valuation on the branch:
# Res_z(f, Y) = prod over the roots zeta_a of f of Y(zeta_a), each factor of
# x-order w(y), so for d = 1 the resultant has x-order n * w(y) in any
# characteristic, and for d >= 2 in characteristic 0, where each factor is a
# monomial times a unit, it is x^(n * w(y)) times a unit.  Only an exact
# presentation is checked, and only the variables a vertex weighs: the head
# level after an empty terminal is left out.  A truncated presentation can
# fail it (see the pinned case below), so a truncation certificate is
# still to come.

def resultant_z(f, Y, n):
    """Res_z(f, Y) for monic f of z-degree n; Y^n when Y is free of z."""
    if not Y.uses_var("z"):
        return poly_pow(Y, n)
    return quasiord.determinant(_z_coefficients(f), _z_coefficients(Y))


def chain_resultants(res):
    """(y, n * w(y), Res_z(f, Y)) for each chain variable y a vertex weighs,
    f the run's disc_input in the presentation's context."""
    pres, n = res.presentation, res.disc_input.n
    ctx, ring = pres.ctx, pres.ring
    f = res.disc_input.poly.in_context(ctx)
    names = ctx.aux if pres.final_head is not None else ctx.aux[:-1]
    for y in names:
        Y = back_substitute(Poly(ctx, ring, {ctx.unit(y): ring.one}), pres.relations)
        yield y, tuple(n * c for c in pres.weights[y]), resultant_z(f, Y, n)


def check_chain_valuations(res) -> bool:
    """Assert the valuations on an exact presentation; False when it is truncated."""
    pres = res.presentation
    if pres.final.trunc is not None or res.disc_input.poly.trunc is not None:
        return False
    for y, want, R in chain_resultants(res):
        if pres.ctx.d == 1:
            assert (min(e[0] for e in R.terms),) == want, y
        elif pres.ring.characteristic == 0:
            assert is_monomial_times_unit(R) == MonomialUnitStatus("yes", want), y
    return True


def test_resultants_give_each_chain_variable_its_weight(monkeypatch):
    # the sweep over Q; its d = 1 branches reduced mod 2, 3, 5 and 7 that end
    # in inf, wild ones included; the classify and deform cases of the
    # benchmark at seeds 7 and 13 with d = 1 or characteristic 0 that end in
    # inf, two of which are truncated
    for branch in BRANCHES:
        assert check_chain_valuations(compute_kappa(weierstrass_validate(branch.polynomial())))
    reductions = 0
    for branch in BRANCHES:
        if branch.d != 1:
            continue
        for p in (2, 3, 5, 7):
            res = compute_kappa(mod_p(branch, p))
            if res.invariant.terminal is Terminal.INFINITY:
                assert check_chain_valuations(res), branch.name
                reductions += 1
    assert reductions == 264
    results, real = [], quasiord.compute_kappa

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(quasiord, "compute_kappa", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        for seed in (7, 13):
            for name in sorted(workloads.WORKLOADS):
                for case in workloads.build(name, seed):
                    if case.argv[0] in ("classify", "deform"):
                        cli.main(list(case.argv))
    checked = [check_chain_valuations(res) for res in results
               if res.presentation is not None
               and (res.presentation.ctx.d == 1 or res.presentation.ring.characteristic == 0)]
    assert (checked.count(True), checked.count(False)) == (542, 2)


def branch_101_mod_2():
    """Sweep branch 101 reduced mod 2, whose u1 stage makes about T/2 eliminations."""
    wf = mod_p(BRANCHES[101], 2)
    assert wf.poly == mk("z^4 + x2^2 + x1^4*x2^2 + x1^4*x2^3", 2, Field.finite(2))
    return wf


@pytest.mark.parametrize("T", [32, 64])
def test_a_truncated_presentation_misses_a_valuation(T):
    # branch 101 reduced mod 2: the input is exact, but the final equation
    # holds a certificate at T, and Res_z(f, U_1) holds x1^(2T-4)*x2^6, a
    # term the truncation left, beside x1^12*x2^7 = x^(n * w(u1))
    res = compute_kappa(branch_101_mod_2(), KappaConfig(truncation=T))
    assert res.presentation.final.trunc == T and res.disc_input.poly.trunc is None
    (_, _, _), (y, want, R) = chain_resultants(res)
    ctx = res.presentation.ctx
    assert (y, want) == ("u1", (12, 7))
    stray, expected = ctx.pad((2 * T - 4, 6)), ctx.pad((12, 7))
    assert stray in R.terms and expected in R.terms


def test_the_budget_alone_ends_preparation():
    # branch 101 mod 2 at T = 64: its u1 stage needs 30 eliminations, so
    # every smaller budget ends there, having used all of itself, and any
    # larger one finds the second vertex
    wf = branch_101_mod_2()
    for budget in range(1, 30):
        res = compute_kappa(wf, KappaConfig(truncation=64, budget=budget))
        assert res.invariant.as_string(2) == "((0, 1/2), inconclusive)"
        assert res.invariant.budget_used == budget
        assert res.diagnostics == [f"elimination budget ({budget}) exhausted"]
    for budget in (30, 256):
        res = compute_kappa(wf, KappaConfig(truncation=64, budget=budget))
        assert res.invariant.as_string(2) == "((0, 1/2), (3, 7/4), inf)"
        assert res.invariant.budget_used == 30


def test_prepared_vertices_match_a_fresh_binomialization(monkeypatch):
    # preparation binomializes each vertex once and keeps the outcome through
    # later eliminations; on every prepared result, each vertex binomialized
    # afresh on the returned polynomial is not solvable, and the sole
    # vertex's outcome is the returned decomposition, also where it was made
    # on a polynomial that an elimination has replaced since: on the sweep
    # over Q, its d = 1 branches reduced mod 2, 3, 5 and 7, and the seed-7
    # classify and deform cases of the benchmark
    prepare, binomialize = kappa_mod.prepare_polyhedron, kappa_mod.binomialize_modulo
    made_on = {}  # (stage, vertex) -> the polynomial its last binomialization read
    counts = {"vertices": 0, "sole": 0, "kept": 0}

    def recording(f, vertex, stage, relations):
        made_on[stage, vertex] = f
        return binomialize(f, vertex, stage, relations)

    def checking(f, stage, relations, config):
        res = prepare(f, stage, relations, config)
        if res.status is kappa_mod.PrepStatus.PREPARED:
            vertices = stage.polyhedron(res.poly).vertices
            for v in vertices:
                fresh = binomialize(res.poly, v, stage, relations)[0]
                assert fresh is None or fresh.inner_exp > 1
                counts["vertices"] += 1
            if len(vertices) == 1:
                assert fresh == res.decomposition
                counts["sole"] += 1
                counts["kept"] += made_on[stage, vertices[0]] is not res.poly
        return res

    monkeypatch.setattr(kappa_mod, "binomialize_modulo", recording)
    monkeypatch.setattr(kappa_mod, "prepare_polyhedron", checking)
    for branch in BRANCHES:
        compute_kappa(weierstrass_validate(branch.polynomial()))
        for p in (2, 3, 5, 7) if branch.d == 1 else ():
            compute_kappa(mod_p(branch, p))
    with contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(workloads.WORKLOADS):
            for case in workloads.build(name, 7):
                if case.argv[0] in ("classify", "deform"):
                    cli.main(list(case.argv))
    assert counts == {"vertices": 1034, "sole": 994, "kept": 5}
