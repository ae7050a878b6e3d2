"""Exact coefficient arithmetic over Q, GF(p^k) and Z.

Coefficient values are plain Python objects interpreted by a ring object:
for Q an int where integral and a Fraction elsewhere, int for Z, and for
GF(q) the element's enumeration index, an int in 0..q-1.  Q and Z compute
with Python's own operators; a Q quotient with denominator 1 becomes an int
again.  No floating point is used anywhere.

Finite fields are desk scale (q = p^k at most 2^16).  Element i is the
residue whose base-p digits are those of i, so a GF(p) value is the residue
itself and the constant term of a GF(p^k) value is its index mod p.  Every
nonzero element is a power g^L of the field's smallest primitive element g,
and three tables on indices make every operation a lookup: log and exp map
indices to exponents L and back (discrete logarithms, Lidl and Niederreiter,
*Finite Fields*, ch. 2), and the Zech table holds zech[L] = log(1 + g^L), so
that g^a + g^b = g^(a + zech[b - a]).  With them, n-th roots solve
n*L = log a (mod q-1), and the multiplicative order of a is
(q-1)/gcd(log a, q-1).  The tables are built the first time a field needs
them and shared by every equal field.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .errors import ConfigurationError, KappaInvError, UnsupportedLiftError

_MAX_FIELD_ORDER = 1 << 16
# fields whose tables stay cached; the GF(2^16) tables take 384 KiB
_CACHED_TABLES = 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def integer_nth_root(m: int, n: int):
    """Exact integer n-th root of m >= 0, or None if m is not a perfect power."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m in (0, 1) or n == 1:
        return m
    x = 1 << ((m.bit_length() + n - 1) // n + 1)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == m else None


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), little-endian coefficient lists
# ---------------------------------------------------------------------------

def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pdivmod(a, b, p):
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = (a[-1] * inv_lead) % p
        d = len(a) - len(b)
        q[d] = c
        for i, bi in enumerate(b):
            a[d + i] = (a[d + i] - c * bi) % p
        _ptrim(a)
    return _ptrim(q), a


def _ext_mul(u, v, low, p):
    """u*v for length-k residues, by Horner's rule over the digits of v.

    Each step is acc <- x*acc + v[j]*u, where x^k = sum low[i]*x^i.
    """
    acc = [0] * len(u)
    for c in reversed(_ptrim(list(v))):
        top = acc[-1]
        acc = [(s + top * r + c * b) % p for s, r, b in zip([0] + acc[:-1], low, u)]
    return acc


def _ext_pow(v, e, low, p):
    out = [1] + [0] * (len(v) - 1)
    while e:
        if e & 1:
            out = _ext_mul(out, v, low, p)
        v = _ext_mul(v, v, low, p)
        e >>= 1
    return out


def _prime_factors(n: int) -> list:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _fill(p: int, q: int, start, step, index):
    """Tables from the walk start, step(start), ... over the q-1 powers of g;
    index(v) is the enumeration index of the walk value v."""
    m = q - 1
    # unsigned 16-bit entries hold every index and exponent, as q <= _MAX_FIELD_ORDER
    exp = array("H", [0]) * m
    log = array("H", [m]) * q  # log[0] keeps m, which zech reads where 1 + g^L = 0
    v = start
    for L in range(m):
        i = index(v)
        exp[L] = i
        log[i] = L
        v = step(v)
    # 1 + g^L adds one to the constant digit of the index of g^L
    zech = array("H", (log[i + 1 if (i + 1) % p else i + 1 - p] for i in exp))
    return log, exp, zech


@lru_cache(maxsize=_CACHED_TABLES)
def _log_tables(p: int, k: int, modulus):
    """(log, exp, zech) for GF(p^k) on enumeration indices.

    exp[L] is the index of g^L for the smallest primitive element g, and
    log[exp[L]] = L.  zech[L] is log(1 + g^L), or q-1 where 1 + g^L = 0;
    log[0] is q-1 as well.  g is primitive when g^((q-1)/r) != 1 for every
    prime r dividing q-1.  When g is x, each step of the walk is a shift:
    x*v moves the digits of v up one place and adds the top digit times the
    reduced modulus (x^k = sum low[i]*x^i), on the bits of the index when
    p = 2 and on the digit list otherwise.  Any other g takes the general
    Horner product by g.
    """
    q = p ** k
    tests = [(q - 1) // r for r in _prime_factors(q - 1)]
    if k == 1:
        g = next(c for c in range(1, q) if all(pow(c, e, p) != 1 for e in tests))
        return _fill(p, q, 1, lambda v: v * g % p, int)
    low = [(-c) % p for c in modulus[:k]]
    one = [1] + [0] * (k - 1)
    weights = [p ** i for i in range(k)]
    # the prime subfield (indices below p) has no primitive element when k > 1
    g = next(d for d in ([i // w % p for w in weights] for i in range(p, q))
             if all(_ext_pow(d, e, low, p) != one for e in tests))
    x = [0, 1] + [0] * (k - 2)
    if p == 2 and g == x:
        # x*v shifts the bits of v's index and reduces by the modulus
        bits = sum(c << j for j, c in enumerate(modulus))
        return _fill(p, q, 1, lambda i: (i << 1) ^ bits if i >> (k - 1) else i << 1, int)

    def shift(v):
        """x*v: the digits move up one place, plus the top digit times x^k."""
        t = v[-1]
        return [(s + t * r) % p for s, r in zip([0] + v[:-1], low)] if t else [0] + v[:-1]

    step = shift if g == x else (lambda v: _ext_mul(v, g, low, p))
    return _fill(p, q, one, step, lambda v: sum(map(operator.mul, v, weights)))


class Field:
    """A coefficient field: Q when characteristic is 0, else GF(p^k).

    Doubles as the field specification: the characteristic, extension
    degree and (for k > 1) the monic irreducible modulus over GF(p) are
    validated at construction.  Field(...) returns a RationalField or a
    FiniteField; each kind supplies its own arithmetic, and construction,
    identity and root extraction live here.
    """

    def __new__(cls, characteristic: int = 0, extension_degree: int = 1, modulus=None):
        return object.__new__(FiniteField if characteristic else RationalField)

    def __init__(self, characteristic: int = 0, extension_degree: int = 1, modulus=None):
        p, k = characteristic, extension_degree
        if p == 0:
            if k != 1 or modulus is not None:
                raise ConfigurationError("characteristic 0 admits no extension data")
        else:
            # above the bound is_prime would take sqrt(p) steps; a prime p >= 2
            # exceeds it for every k > 16, so p ** k is computed for k <= 16 only
            if p <= _MAX_FIELD_ORDER and not is_prime(p):
                raise ConfigurationError(f"characteristic {p} is not prime")
            if k < 1:
                raise ConfigurationError("extension degree must be positive")
            if k > 16 or p ** k > _MAX_FIELD_ORDER:
                raise ConfigurationError(f"field order {p}^{k} exceeds the desk-scale bound 2^16")
            if k == 1:
                if modulus is not None:
                    raise ConfigurationError("prime fields take no modulus")
            else:
                if modulus is None:
                    raise ConfigurationError(f"GF({p}^{k}) requires a degree-{k} modulus")
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise ConfigurationError("modulus must be monic of degree k")
                if not _is_irreducible(modulus, p):
                    raise ConfigurationError("modulus is reducible over GF(p)")
        self.characteristic = p
        self.extension_degree = k
        self.modulus = modulus
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rationals(cls) -> "Field":
        return cls(0)

    @classmethod
    def finite(cls, p: int, k: int = 1, modulus=None) -> "Field":
        return cls(p, k, modulus)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.characteristic == other.characteristic
                and self.extension_degree == other.extension_degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.characteristic, self.extension_degree, self.modulus))

    # -- arithmetic shared by both kinds -----------------------------------

    def from_fraction(self, num: int, den: int):
        d = self.from_int(den)
        if self.is_zero(d):
            raise ZeroDivisionError(f"{den} is not invertible in {self!r}")
        return self.div(self.from_int(num), d)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- roots ---------------------------------------------------------------

    def all_nth_roots(self, a, n: int) -> list:
        """Every c in the field with c**n == a, in enumeration order (Q: positive first)."""
        if n < 1:
            raise ValueError("root degree must be positive")
        if self.characteristic == 0:
            return _rational_roots(a, n)
        if not a:
            return [0]
        log, exp, _ = self._tables
        m = len(exp)
        g = gcd(n, m)
        la = log[a]
        if la % g:
            return []
        # n*L = la (mod m) has one solution L0 modulo m/g and g solutions modulo m
        period = m // g
        l0 = (la // g) * pow(n // g, -1, period) % period
        return sorted(exp[l0 + j * period] for j in range(g))

    def root_extension_degree(self, a, n: int, bound: int = 64) -> int:
        """Smallest k' with an n-th root of a in GF(q^k'), by order arithmetic.

        Over Q the exact minimal degree would need irreducibility analysis of
        x^n - a; the generic bound n (the degree of the root's extension always
        divides n) is returned instead.
        """
        if self.characteristic == 0:
            return n
        if not a:
            return 1
        q = self.order
        log, exp, _ = self._tables
        d = len(exp) // gcd(log[a], len(exp))  # the order of a
        for kk in range(1, bound + 1):
            big = q ** kk - 1
            if (big // gcd(n, big)) % d == 0:
                return kk
        raise ConfigurationError("no root found within the extension search bound")


class _Operators:
    """Exact arithmetic by Python's operators, on int and Fraction values."""

    is_zero = staticmethod(operator.not_)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    pow_ = staticmethod(operator.pow)  # a**n for n >= 0 (0**0 is 1)
    abs_value = staticmethod(abs)

    @staticmethod
    def format_coeff(a) -> str:
        try:
            return str(a)
        except ValueError:  # beyond the interpreter's int-to-string digit limit
            raise KappaInvError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                                "decimal digits, the limit for printing an integer") from None

    @staticmethod
    def is_negative(a) -> bool:
        """Whether the canonical rendering of a carries a leading minus."""
        return a < 0


class RationalField(_Operators, Field):
    """Q, on int values where integral and Fraction values elsewhere."""

    order = None
    from_int = staticmethod(int)

    def __repr__(self):
        return "QQ"

    def element(self, index: int):
        raise ConfigurationError("enumeration order is defined for finite fields only")

    @staticmethod
    def div(a, b):
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    @classmethod
    def inv(cls, a):
        return cls.div(1, a)


class FiniteField(Field):
    """GF(p^k) on enumeration indices; every operation is a table lookup.

    Exponents are summed without reduction: they stay inside (-(q-1), q-1),
    where a negative array index already counts from the end, that is mod q-1.
    """

    def __repr__(self):
        if self.extension_degree == 1:
            return f"GF({self.characteristic})"
        return f"GF({self.characteristic}^{self.extension_degree})"

    @property
    def order(self):
        return self.characteristic ** self.extension_degree

    @cached_property
    def _tables(self):
        return _log_tables(self.characteristic, self.extension_degree, self.modulus)

    def from_int(self, n: int):
        return n % self.characteristic

    def element(self, index: int):
        """The index-th element in enumeration order (0, 1, ..., q-1)."""
        return index % self.order

    is_zero = staticmethod(operator.not_)

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log, exp, zech = self._tables
        la = log[a]
        z = zech[log[b] - la]  # a + b = a * (1 + b/a)
        return exp[la + z - len(exp)] if z < len(exp) else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if not a:
            return 0
        log, exp, _ = self._tables
        return exp[log[a] + log[self.characteristic - 1] - len(exp)]  # a * (-1)

    def mul(self, a, b):
        if not (a and b):
            return 0
        log, exp, _ = self._tables
        return exp[log[a] + log[b] - len(exp)]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        log, exp, _ = self._tables
        return exp[-log[a]]

    def pow_(self, a, n: int):
        """a**n for n >= 0 (0**0 is 1)."""
        if not a:
            return 0 if n else 1
        log, exp, _ = self._tables
        return exp[log[a] * n % len(exp)]

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def is_negative(a) -> bool:
        return False

    @staticmethod
    def abs_value(a):
        return a

    def format_coeff(self, a) -> str:
        p = self.characteristic
        if a < p:
            return str(a)  # prime-subfield value
        parts, i = [], 0
        while a:  # the digits of a, constant first
            a, c = divmod(a, p)
            if c and i == 0:
                parts.append(str(c))
            elif c:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}a" if i == 1 else f"{head}a^{i}")
            i += 1
        return "(" + " + ".join(reversed(parts)) + ")"


def _rational_roots(a, n: int) -> list:
    if a == 0:
        return [0]
    if a < 0 and n % 2 == 0:
        return []
    num = integer_nth_root(abs(a.numerator), n)
    den = integer_nth_root(a.denominator, n)
    if num is None or den is None:
        return []
    r = num if den == 1 else Fraction(num, den)
    if n % 2 == 1:
        return [r if a > 0 else -r]
    return [r, -r]


@lru_cache(maxsize=_CACHED_TABLES)
def _is_irreducible(modulus: tuple, p: int) -> bool:
    """Exhaustive factor search; the candidate divisors are desk scale by construction.

    Cached, so each modulus is tested once per process.
    """
    k = len(modulus) - 1
    if k <= 0:
        return False
    for deg in range(1, k // 2 + 1):
        for idx in range(p ** deg):
            digits = []
            t = idx
            for _ in range(deg):
                digits.append(t % p)
                t //= p
            cand = digits + [1]
            _, rem = _pdivmod(list(modulus), cand, p)
            if not rem:
                return False
    return True


class IntegerRing(_Operators):
    """Arbitrary-precision integers with the same operation surface as Field."""

    characteristic = 0
    extension_degree = 1
    zero = 0
    one = 1
    from_int = staticmethod(int)

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    @staticmethod
    def div(a, b):
        q, r = divmod(a, b)
        if r:
            raise ZeroDivisionError(f"{a} is not divisible by {b} in ZZ")
        return q


ZZ = IntegerRing()
QQ = Field.rationals()


def lift_coeff(field: Field, a) -> int:
    """Canonical integer lift of a prime-field value into {0, ..., p-1}."""
    if field.characteristic == 0:
        raise UnsupportedLiftError("lift is defined for prime fields, not characteristic 0")
    if field.extension_degree != 1:
        raise UnsupportedLiftError(
            f"lift of GF({field.characteristic}^{field.extension_degree}) values is unsupported; "
            "only prime fields lift canonically")
    return int(a)
