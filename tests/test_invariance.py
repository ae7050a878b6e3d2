"""Invariance as an oracle where no construction gives the answer.

Kappa is an invariant of f in its x-coordinates, at every stage, in every
characteristic: a permutation of x1..xd permutes each vertex the same way,
and unit scalings x_i -> c_i*x_i, z -> c*z (with f made monic again) keep
every vertex.  Neither map needs a known answer, so both also check the wild
reductions of the sweep, where p divides N or a coefficient and no
construction predicts kappa.  Each pair is compared only when both verdicts
are definitive, at a truncation above every term of both inputs.
"""

import random

import pytest

from kappainv import QQ, Field, KappaConfig, Poly, Terminal, compute_kappa, weierstrass_validate
from test_branches import BRANCHES, SEED, mod_p

SLICE = random.Random(SEED + 15).sample(range(len(BRANCHES)), 32)
RATIONAL_UNITS = [QQ.from_fraction(a, b) for a, b in [(-1, 1), (2, 1), (-3, 1), (1, 2), (-2, 3)]]


def swap_x(f: Poly) -> Poly:
    """f with x1 and x2 exchanged."""
    return Poly(f.ctx, f.ring, {(e[1], e[0]) + e[2:]: c for e, c in f.terms.items()})


def scale(f: Poly, n: int, units) -> Poly:
    """f(c_1*x_1, ..., c_d*x_d, c*z) / c^n, for units = (c_1, ..., c_d, c)."""
    ring = f.ring
    monic = ring.inv(ring.pow_(units[-1], n))
    out = {}
    for e, c in f.terms.items():
        for u, k in zip(units, e):
            c = ring.mul(c, ring.pow_(u, k))
        out[e] = ring.mul(c, monic)
    return Poly(f.ctx, ring, out)


def kappa(wf, T):
    """(vertices, terminal, multiplicities), or None when inconclusive."""
    inv = compute_kappa(wf, KappaConfig(truncation=T)).invariant
    if inv.terminal is Terminal.INCONCLUSIVE:
        return None
    return inv.vertices, inv.terminal, inv.multiplicities


def inputs():
    """Each branch of the slice over Q and reduced mod 2, 3, 5 and 7."""
    for index in SLICE:
        branch = BRANCHES[index]
        yield f"{index:03d} Q", weierstrass_validate(branch.polynomial())
        for p in (2, 3, 5, 7):
            yield f"{index:03d} p={p}", mod_p(branch, p)


def units_of(rng, ring, count):
    if ring.characteristic == 0:
        return [rng.choice(RATIONAL_UNITS) for _ in range(count)]
    return [ring.element(rng.randrange(1, ring.order)) for _ in range(count)]


@pytest.mark.parametrize("name, wf", [pytest.param(*item, id=item[0]) for item in inputs()])
def test_swaps_and_scalings_keep_kappa(name, wf):
    rng = random.Random(f"{SEED} {name}")
    f, n, d = wf.poly, wf.n, wf.poly.ctx.d
    # (image, the map it makes of each vertex)
    images = [(scale(f, n, units_of(rng, f.ring, d + 1)), lambda v: v)]
    if d == 2:
        images.append((swap_x(f), lambda v: (v[1], v[0])))
    T = 1 + max(sum(e[:d]) for g in [f] + [g for g, _ in images] for e in g.terms)
    want = kappa(wf, T)
    for image, vertex_map in images:
        got = kappa(weierstrass_validate(image), T)
        if want is not None and got is not None:
            got = (tuple(map(vertex_map, got[0])),) + got[1:]
            assert got == want, (name, image.format())
