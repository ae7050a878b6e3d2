import ast
import importlib
import operator
import random
import re
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from kappainv import ConfigurationError, Field, UnsupportedLiftError, lift_coeff
from kappainv import ring
from kappainv.ring import ZZ, integer_nth_root
from conftest import reduce_coeff

SRC = Path(__file__).resolve().parents[1] / "src" / "kappainv"
sys.path.insert(0, str(SRC.parents[1] / "perfbench"))

import workloads  # noqa: E402

# Reference arithmetic: schoolbook products over GF(p) and enumeration of the
# whole field.  It shares nothing with the log/antilog tables under test; it
# computes on the base-p digits of an element's enumeration index, which are
# the coefficients of its residue, constant first.


def to_digits(field, i):
    p = field.characteristic
    return [i // p ** j % p for j in range(field.extension_degree)]


def from_digits(field, digits):
    return sum(c * field.characteristic ** j for j, c in enumerate(digits))


def schoolbook_mul(field, a, b):
    """a*b as a polynomial product over GF(p), reduced by the monic modulus."""
    p, k, m = field.characteristic, field.extension_degree, field.modulus
    if k == 1:
        return a * b % p
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(to_digits(field, a)):
        for j, y in enumerate(to_digits(field, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        for i in range(k + 1):  # subtract c * x^(d-k) * m, clearing degree d
            prod[d - k + i] = (prod[d - k + i] - c * m[i]) % p
    return from_digits(field, prod[:k])


def schoolbook_pow(field, a, n):
    out = field.one
    for _ in range(n):
        out = schoolbook_mul(field, out, a)
    return out


def elements(field):
    return [field.element(i) for i in range(field.order)]


def exhaustive_roots(field, a, n):
    return [c for c in elements(field) if schoolbook_pow(field, c, n) == a]


def multiplicative_order(field, a):
    acc, k = a, 1
    while acc != field.one:
        acc, k = schoolbook_mul(field, acc, a), k + 1
    return k


# (p, k, modulus) where x is not primitive, so the generator search has to go past it
NON_PRIMITIVE_MODULI = [
    (3, 2, (1, 0, 1)),        # GF(9), x has order 4
    (2, 4, (1, 1, 1, 1, 1)),  # GF(16), x has order 5
]
ORACLE_FIELDS = [
    (2, 2, (1, 1, 1)),        # GF(4)
    (2, 3, (1, 1, 0, 1)),     # GF(8)
    (3, 2, (2, 2, 1)),        # GF(9)
    (5, 2, (2, 4, 1)),        # GF(25)
    (7, 1, None),
] + NON_PRIMITIVE_MODULI


@pytest.fixture(params=ORACLE_FIELDS, ids=lambda f: f"GF({f[0]}^{f[1]})-{f[2]}")
def oracle_field(request):
    return Field.finite(*request.param)


class TestNthRoot:
    def test_gf2_square_root_of_one(self, F2):
        assert F2.all_nth_roots(1, 2)[0] == 1

    def test_gf7_cube_root_of_six(self, F7):
        # oracle: exhaustive search over GF(7)
        assert exhaustive_roots(F7, 6, 3) == [3, 5, 6]
        assert F7.all_nth_roots(6, 3)[0] == 3
        assert F7.pow_(3, 3) == 6

    def test_gf5_two_has_no_square_root(self, F5):
        assert {F5.pow_(c, 2) for c in range(5)} == {0, 1, 4}
        assert F5.all_nth_roots(2, 2) == []

    def test_rational_roots(self, QQ):
        # the real root matching the sign of a (odd n), the positive one first (even n)
        assert QQ.all_nth_roots(Fraction(8, 27), 3)[0] == Fraction(2, 3)
        assert QQ.all_nth_roots(Fraction(-8), 3)[0] == Fraction(-2)
        assert QQ.all_nth_roots(Fraction(4), 2)[0] == Fraction(2)
        assert QQ.all_nth_roots(Fraction(-4), 2) == []
        assert QQ.all_nth_roots(Fraction(2), 2) == []

    def test_root_power_identity_randomized(self, F7, F5, F4):
        rng = random.Random(20240811)
        for _ in range(200):
            field = rng.choice([F7, F5, F4])
            a = field.element(rng.randrange(field.order))
            n = rng.randrange(1, 7)
            for root in field.all_nth_roots(a, n):
                assert field.pow_(root, n) == a
            assert field.all_nth_roots(a, n) == exhaustive_roots(field, a, n)

    def test_extension_degree_search(self, F5):
        # squares mod 5 miss 2, but GF(25) has all square roots
        assert F5.root_extension_degree(2, 2) == 2

    def test_root_degree_must_be_positive(self, F4, QQ):
        for field, a in ((F4, F4.one), (QQ, QQ.one)):
            with pytest.raises(ValueError):
                field.all_nth_roots(a, 0)

    def test_gf_2_16_roots_of_unity(self):
        t0 = time.perf_counter()
        F = Field.finite(2, 16, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,))
        roots = F.all_nth_roots(F.one, 3)  # builds the 2^16-element tables
        elapsed = time.perf_counter() - t0
        # 2^16 - 1 = 3 * 5 * 17 * 257: exactly three cube roots of unity
        assert len(roots) == 3 and roots[0] == F.one
        assert all(schoolbook_pow(F, c, 3) == F.one for c in roots)
        assert roots == sorted(roots)
        assert elapsed < 2.0, f"GF(2^16) root extraction took {elapsed:.2f}s"


class TestRationalValues:
    """Q values are ints where integral and Fractions elsewhere, never floats.

    The oracle is plain Fraction arithmetic; every operation is checked for
    its value and its type on random values that mix both kinds, zero
    included.
    """

    # every root of a value with |numerator|, denominator <= 12 is one of these
    CANDIDATES = sorted({Fraction(p, q) for p in range(-12, 13) for q in range(1, 13)},
                        reverse=True)

    @staticmethod
    def canonical(v) -> bool:
        """Whether v is an int exactly when it is integral."""
        return type(v) is (int if Fraction(v).denominator == 1 else Fraction)

    @staticmethod
    def sample(rng):
        num, den = rng.randrange(-12, 13), rng.randrange(1, 13)
        return rng.choice([num, Fraction(num), Fraction(num, den)])

    def test_against_fraction_arithmetic(self, QQ):
        rng = random.Random(20261019)
        for _ in range(2000):
            a, b = self.sample(rng), self.sample(rng)
            fa, fb = Fraction(a), Fraction(b)
            n = rng.randrange(6)
            for got, want in ((QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                              (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa),
                              (QQ.pow_(a, n), fa ** n)):
                assert got == want and type(got) in (int, Fraction), (a, b, n)
            assert (QQ.is_zero(a), QQ.is_negative(a)) == (fa == 0, fa < 0)
            if fb:
                assert QQ.div(a, b) == fa / fb and self.canonical(QQ.div(a, b)), (a, b)
                assert QQ.inv(b) == 1 / fb and self.canonical(QQ.inv(b)), b
            num, den = rng.randrange(-40, 41), rng.randrange(1, 13)
            got = QQ.from_fraction(num, den)
            assert got == Fraction(num, den) and self.canonical(got), (num, den)
        assert type(QQ.from_int(5)) is int and type(QQ.zero) is int and type(QQ.one) is int

    def test_roots_against_search(self, QQ):
        rng = random.Random(20261020)
        for _ in range(300):
            n = rng.randrange(1, 6)
            r = self.sample(rng)
            for a in (QQ.pow_(r, n), self.sample(rng)):
                got = QQ.all_nth_roots(a, n)
                assert got == [c for c in self.CANDIDATES if c ** n == a], (a, n)
                assert all(self.canonical(c) for c in got), (a, n)

    def test_division_by_zero_raises(self, QQ):
        for call in (lambda: QQ.inv(0), lambda: QQ.inv(Fraction(0)), lambda: QQ.div(3, 0),
                     lambda: QQ.div(Fraction(2, 3), 0), lambda: QQ.from_fraction(1, 0)):
            with pytest.raises(ZeroDivisionError):
                call()


def test_engine_has_no_true_division():
    # an int / int quotient is a float; the engine divides by ring.div only
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert SRC.is_dir() and found == []


def test_engine_patterns_compile_on_python_3_10():
    # requires-python is >=3.10, and possessive repeats and atomic groups are
    # 3.11 syntax: no module-level pattern of the package may hold one
    parser = pytest.importorskip("re._parser")  # 3.11+; 3.10 cannot compile them
    from re._constants import ATOMIC_GROUP, POSSESSIVE_REPEAT

    def opcodes(item):
        if isinstance(item, parser.SubPattern):
            for op, av in item.data:
                yield op
                yield from opcodes(av)
        elif isinstance(item, (list, tuple)):
            for x in item:
                yield from opcodes(x)

    banned = {ATOMIC_GROUP, POSSESSIVE_REPEAT}
    assert banned <= set(opcodes(parser.parse(r"(?>a)\s*+")))  # the walk sees both
    found, patterns = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(f"kappainv.{path.stem}".removesuffix(".__init__"))
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                patterns += 1
                if banned & set(opcodes(parser.parse(value.pattern, value.flags))):
                    found.append(f"{path.name}:{name}")
    assert patterns >= 4 and found == []


def test_parse_errors_come_from_one_walk():
    # parse_polynomial builds every polynomial; a ParseError is constructed
    # only by the walk that names it, poly._parse_error
    inside, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            walk = (path.name == "poly.py" and isinstance(top, ast.FunctionDef)
                    and top.name == "_parse_error")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "ParseError" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    if walk:
                        inside += 1
                    else:
                        found.append(f"{path.name}:{node.lineno}")
    assert inside >= 1 and found == []


def test_engine_imports_no_dataclasses():
    # the engine's records are NamedTuples or __slots__ classes: a fresh
    # import creates every class, and a dataclass costs about ten times a
    # NamedTuple to create (ROADMAP "Measurement notes", set-up)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert SRC.is_dir() and found == []


class TestAgainstEnumeration:
    """Seeded differential tests of the table arithmetic against the reference."""

    def test_non_primitive_moduli_are_covered(self):
        for p, k, m in NON_PRIMITIVE_MODULI:
            F = Field.finite(p, k, m)
            assert multiplicative_order(F, F.element(p)) < F.order - 1

    def test_mul_inv_pow(self, oracle_field):
        F = oracle_field
        rng = random.Random(F.order)
        for _ in range(150):
            a, b = (F.element(rng.randrange(F.order)) for _ in range(2))
            n = rng.randrange(0, 2 * F.order)
            assert F.mul(a, b) == schoolbook_mul(F, a, b)
            assert F.pow_(a, n) == schoolbook_pow(F, a, n)
            if not F.is_zero(a):
                inverses = [c for c in elements(F) if schoolbook_mul(F, a, c) == F.one]
                assert [F.inv(a)] == inverses

    def test_add_sub_neg(self, oracle_field):
        F = oracle_field
        p, q = F.characteristic, F.order

        def digitwise(a, b, sign):
            pairs = zip(to_digits(F, a), to_digits(F, b))
            return from_digits(F, [(x + sign * y) % p for x, y in pairs])

        rng = random.Random(F.order + 3)
        pairs = [(F.element(rng.randrange(q)), F.element(rng.randrange(q))) for _ in range(150)]
        # sums that vanish hit the Zech table's sentinel: a + (-a), and 1 + (p - 1)
        pairs += [(a, digitwise(0, a, -1)) for a in range(q)] + [(1, p - 1), (p - 1, 1)]
        for a, b in pairs:
            assert F.add(a, b) == digitwise(a, b, 1)
            assert F.sub(a, b) == digitwise(a, b, -1)
            assert F.neg(b) == digitwise(0, b, -1)

    def test_element_reduces_its_index(self, oracle_field):
        F = oracle_field
        q = F.order
        assert [F.element(i) for i in (q, q + 1, 3 * q + 2, -1, -q - 2)] == [0, 1, 2, q - 1, q - 2]

    def test_roots(self, oracle_field):
        F = oracle_field
        rng = random.Random(F.order + 1)
        for _ in range(60):
            a = F.element(rng.randrange(F.order))
            n = rng.randrange(1, 2 * F.order)
            roots = exhaustive_roots(F, a, n)
            assert F.all_nth_roots(a, n) == roots

    def test_root_extension_degree(self, oracle_field):
        F = oracle_field
        q = F.order
        rng = random.Random(F.order + 2)
        for _ in range(60):
            a = F.element(rng.randrange(1, q))
            n = rng.randrange(1, 3 * q)
            d = multiplicative_order(F, a)
            # an n-th root of a lies in GF(q^j) iff d divides (q^j - 1) / gcd(n, q^j - 1)
            want = next(j for j in range(1, 65)
                        if ((q ** j - 1) // gcd(n, q ** j - 1)) % d == 0)
            assert F.root_extension_degree(a, n) == want
            assert (want == 1) == bool(exhaustive_roots(F, a, n))


class TestLiftReduce:
    def test_lift_examples(self, F2, F7):
        assert lift_coeff(F2, 1) == 1
        assert lift_coeff(F7, 5) == 5
        assert lift_coeff(F7, 0) == 0

    def test_lift_rejects_extensions(self, F4, QQ):
        with pytest.raises(UnsupportedLiftError):
            lift_coeff(F4, 3)  # a + 1
        with pytest.raises(UnsupportedLiftError):
            lift_coeff(QQ, Fraction(1))

    def test_reduce_examples(self):
        assert reduce_coeff(15, 7) == 1
        assert reduce_coeff(-1, 2) == 1
        assert reduce_coeff(4, 2) == 0

    def test_reduce_after_lift_is_identity(self, F7):
        for a in range(7):
            assert reduce_coeff(lift_coeff(F7, a), 7) == a


class TestFieldAxioms:
    def test_ring_axioms_randomized(self, F7, F4, QQ):
        rng = random.Random(7)
        for _ in range(200):
            field = rng.choice([F7, F4, QQ])
            if field.characteristic == 0:
                sample = lambda: Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
            else:
                sample = lambda: field.element(rng.randrange(field.order))
            a, b, c = sample(), sample(), sample()
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one

    def test_gf4_has_cube_roots_of_unity(self, F4):
        ones = [c for i in range(4) if F4.pow_(c := F4.element(i), 3) == F4.one]
        assert len(ones) == 3


class TestValidation:
    def test_characteristic_must_be_prime(self):
        with pytest.raises(ConfigurationError):
            Field.finite(6)

    def test_extension_needs_modulus(self):
        with pytest.raises(ConfigurationError):
            Field.finite(2, 2)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ConfigurationError):
            Field.finite(2, 2, (1, 0, 1))  # t^2 + 1 = (t + 1)^2 over GF(2)

    def test_cached_irreducibility_verdict_repeats(self):
        # the verdict is cached per modulus; a cached "reducible" still raises
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="reducible"):
                Field.finite(3, 2, (2, 0, 1))  # t^2 + 2 = (t + 1)(t + 2) over GF(3)
        assert Field.finite(3, 2, (1, 0, 1)).modulus == Field.finite(3, 2, (1, 0, 1)).modulus

    def test_desk_scale_bound(self):
        with pytest.raises(ConfigurationError):
            Field.finite(2, 17, tuple([1] + [0] * 16 + [1]))

    def test_desk_scale_bound_comes_before_slow_checks(self, monkeypatch):
        # trial division takes sqrt(p) steps and p ** k grows with k: a field
        # beyond the bound is rejected without either
        is_prime = ring.is_prime

        def small_is_prime(n):
            assert n <= 1 << 16, f"is_prime({n}) called above the bound"
            return is_prime(n)

        class Characteristic(int):
            def __pow__(self, k):
                raise AssertionError(f"{int(self)} ** {k} computed")

        monkeypatch.setattr(ring, "is_prime", small_is_prime)
        for p, k, modulus in ((100000000000031, 1, None), (Characteristic(3), 30_000_000, (1, 1))):
            with pytest.raises(ConfigurationError, match="exceeds the desk-scale bound 2"):
                Field(p, k, modulus)


def test_integer_nth_root():
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(28, 3) is None
    assert integer_nth_root(10 ** 30, 5) == 10 ** 6
    assert ZZ.div(12, 3) == 4


def test_extension_coefficient_formatting(F4):
    # non-subfield values always carry parentheses: they render inside products
    a = F4.element(2)        # the generator
    assert F4.format_coeff(a) == "(a)"
    assert F4.format_coeff(F4.add(a, F4.one)) == "(a + 1)"
    assert F4.format_coeff(F4.one) == "1"
    assert F4.format_coeff(F4.zero) == "0"


def general_walk(p, k, modulus):
    """The log tables by the Horner product by g at every step, for any g."""
    q = p ** k
    tests = [(q - 1) // r for r in ring._prime_factors(q - 1)]
    low = [(-c) % p for c in modulus[:k]]
    one = [1] + [0] * (k - 1)
    weights = [p ** i for i in range(k)]
    g = next(d for d in ([i // w % p for w in weights] for i in range(p, q))
             if all(ring._ext_pow(d, e, low, p) != one for e in tests))
    return ring._fill(p, q, one, lambda v: ring._ext_mul(v, g, low, p),
                      lambda v: sum(map(operator.mul, v, weights)))


class TestShiftWalk:
    """The tables of a field whose x is primitive come from the shift walk."""

    @staticmethod
    def x_primitive_moduli(rng, p, k, count):
        """count seeded monic irreducible moduli of degree k over GF(p) with x primitive."""
        q = p ** k
        tests = [(q - 1) // r for r in ring._prime_factors(q - 1)]
        x, one, found = [0, 1] + [0] * (k - 2), [1] + [0] * (k - 1), set()
        while len(found) < count:
            m = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            low = [(-c) % p for c in m[:k]]
            if ring._is_irreducible(m, p) and all(ring._ext_pow(x, e, low, p) != one
                                                  for e in tests):
                found.add(m)
        return sorted(found)

    def test_benchmark_fields_match_the_general_walk(self):
        built = {f for name in workloads.WORKLOADS for seed in (7, 13)
                 for f in workloads.fields(workloads.build(name, seed)) if f[1] > 1}
        assert {p for p, _, _ in built} == {2, 3, 5, 7}
        for p, k, m in built:
            assert ring._log_tables(p, k, m) == general_walk(p, k, m), (p, k, m)

    def test_seeded_odd_moduli_match_the_general_walk(self, monkeypatch):
        rng = random.Random(2207)
        products = []
        mul = ring._ext_mul
        monkeypatch.setattr(ring, "_ext_mul", lambda *a: products.append(1) or mul(*a))
        # GF(9) has only 2 primitive quadratic moduli, phi(8)/2
        for p, k, count in ((3, 2, 2), (3, 3, 3), (3, 4, 3), (3, 5, 3), (3, 6, 3),
                            (5, 2, 3), (5, 3, 3), (5, 4, 3), (7, 2, 3), (7, 3, 3)):
            for m in self.x_primitive_moduli(rng, p, k, count):
                products.clear()
                got = ring._log_tables(p, k, m)
                # only the generator test, one power of x per prime factor of
                # q - 1, multiplies; the walk's q - 1 steps shift
                q = p ** k
                assert len(products) <= 2 * len(ring._prime_factors(q - 1)) * q.bit_length() < q
                assert got == general_walk(p, k, m), (p, k, m)
