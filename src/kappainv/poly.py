"""Multivariate polynomials and truncated power series in x1..xd, z, u1, u2, ...

Terms live in a fixed positional layout: the x block first, then the
auxiliary chain (z, u1, u2, ...) in creation order.  The public Poly(...)
constructor validates its input: it tuples every exponent and drops zero
coefficients.  Arithmetic results go through the trusted Poly._of, which
stores a dict already keyed by tuples and free of zeros as it is, without a
copy; such a dict must not change afterwards.  A polynomial may carry
a truncation certificate T meaning "terms of total x-degree >= T are
unknown"; every stored term then has x-degree < T and certificates only
ever tighten under arithmetic.  A certificate of None means the value is
exact.

The module also owns the relation stack used by the classification engine:
each Relation defines a new variable u_j as a binomial head minus a list of
correction monomials, and normal_form rewrites head powers downward so the
tower degree bounds hold.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field as dc_field

from .errors import EngineError, ParseError, UnsupportedLiftError, ValidationError
from .ring import ZZ, lift_coeff

_NORMAL_FORM_FUEL = 512


class VarContext:
    """Variable layout: d x-variables plus an ordered auxiliary chain."""

    __slots__ = ("d", "aux")

    def __init__(self, d: int, aux=("z",)):
        if d < 1:
            raise ValidationError("at least one x-variable is required")
        aux = tuple(aux)
        if len(set(aux)) != len(aux):
            raise ValidationError("auxiliary variable names must be unique")
        self.d = d
        self.aux = aux

    @property
    def nvars(self) -> int:
        return self.d + len(self.aux)

    def names(self):
        return [f"x{i + 1}" for i in range(self.d)] + list(self.aux)

    def var_index(self, name: str) -> int:
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:])
            if 1 <= i <= self.d:
                return i - 1
            raise KeyError(name)
        try:
            return self.d + self.aux.index(name)
        except ValueError:
            raise KeyError(name) from None

    def var_name(self, index: int) -> str:
        if index < self.d:
            return f"x{index + 1}"
        return self.aux[index - self.d]

    def has_var(self, name: str) -> bool:
        try:
            self.var_index(name)
            return True
        except KeyError:
            return False

    def pad(self, expo) -> tuple:
        """An exponent from a prefix context, padded with zeros to this layout."""
        return tuple(expo) + (0,) * (self.nvars - len(expo))

    def unit(self, name: str, k: int = 1) -> tuple:
        """The exponent of name^k."""
        idx = self.var_index(name)
        return tuple(k if i == idx else 0 for i in range(self.nvars))

    def extend(self, name: str) -> "VarContext":
        if self.has_var(name):
            raise ValidationError(f"variable {name} already exists")
        return VarContext(self.d, self.aux + (name,))

    def is_extension_of(self, other: "VarContext") -> bool:
        return self.d == other.d and self.aux[:len(other.aux)] == other.aux

    def __eq__(self, other):
        return isinstance(other, VarContext) and self.d == other.d and self.aux == other.aux

    def __hash__(self):
        return hash((self.d, self.aux))

    def __repr__(self):
        return f"VarContext(d={self.d}, aux={self.aux})"


def _common_ctx(f: "Poly", g: "Poly") -> VarContext:
    if f.ctx is g.ctx or f.ctx == g.ctx:
        return f.ctx
    if f.ctx.is_extension_of(g.ctx):
        return f.ctx
    if g.ctx.is_extension_of(f.ctx):
        return g.ctx
    raise ValidationError("incompatible variable contexts")


def _min_trunc(*ts):
    out = None
    for t in ts:
        if t is not None and (out is None or t < out):
            out = t
    return out


class Poly:
    """A sparse polynomial over a coefficient ring, with optional truncation."""

    __slots__ = ("ctx", "ring", "terms", "trunc")

    def __init__(self, ctx: VarContext, ring, terms=None, trunc=None):
        self.ctx = ctx
        self.ring = ring
        self.trunc = trunc
        clean = {}
        if terms:
            for expo, c in terms.items():
                if not ring.is_zero(c):
                    clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def _of(cls, ctx: VarContext, ring, terms: dict, trunc) -> "Poly":
        """A Poly on terms keyed by tuples and free of zeros, stored as given."""
        out = object.__new__(cls)
        out.ctx, out.ring, out.terms, out.trunc = ctx, ring, terms, trunc
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx, ring, trunc=None):
        return cls(ctx, ring, {}, trunc)

    @classmethod
    def constant(cls, ctx, ring, value, trunc=None):
        return cls(ctx, ring, {(0,) * ctx.nvars: value}, trunc)

    @classmethod
    def one(cls, ctx, ring):
        return cls.constant(ctx, ring, ring.one)

    @classmethod
    def variable(cls, ctx, ring, name: str):
        return cls(ctx, ring, {ctx.unit(name): ring.one})

    @classmethod
    def monomial(cls, ctx, ring, expo, coeff=None):
        return cls(ctx, ring, {tuple(expo): ring.one if coeff is None else coeff})

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, name: str) -> int:
        idx = self.ctx.var_index(name)
        return max((e[idx] for e in self.terms), default=0)

    def uses_var(self, name: str) -> bool:
        if not self.ctx.has_var(name):
            return False
        idx = self.ctx.var_index(name)
        return any(e[idx] for e in self.terms)

    def constant_coeff(self):
        return self.terms.get((0,) * self.ctx.nvars, self.ring.zero)

    def in_context(self, ctx: VarContext) -> "Poly":
        if ctx is self.ctx or ctx == self.ctx:
            return self
        if not ctx.is_extension_of(self.ctx):
            raise ValidationError("cannot reinterpret polynomial in an unrelated context")
        pad = (0,) * (ctx.nvars - self.ctx.nvars)
        return Poly._of(ctx, self.ring, {e + pad: c for e, c in self.terms.items()},
                        self.trunc)

    # -- arithmetic -------------------------------------------------------------

    def neg(self) -> "Poly":
        neg = self.ring.neg
        return Poly._of(self.ctx, self.ring, {e: neg(c) for e, c in self.terms.items()},
                        self.trunc)

    def add(self, other: "Poly", T=None) -> "Poly":
        ctx = _common_ctx(self, other)
        a, b = self.in_context(ctx), other.in_context(ctx)
        eff = _min_trunc(self.trunc, other.trunc, T)
        out = dict(a.terms)
        ring = self.ring
        for e, c in b.terms.items():
            s = ring.add(out.get(e, ring.zero), c)
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        dropped = False
        if eff is not None:
            d = ctx.d
            for e in [e for e in out if sum(e[:d]) >= eff]:
                del out[e]
                dropped = True
        tr = eff if dropped else _min_trunc(self.trunc, other.trunc)
        return Poly._of(ctx, ring, out, tr)

    def sub(self, other: "Poly", T=None) -> "Poly":
        return self.add(other.neg(), T)

    def mul_monomial(self, expo, coeff=None) -> "Poly":
        ring = self.ring
        coeff = ring.one if coeff is None else coeff
        expo = tuple(expo)
        out = {}
        for e, c in self.terms.items():
            out[tuple(a + b for a, b in zip(e, expo))] = ring.mul(c, coeff)
        return Poly(self.ctx, ring, out, self.trunc)

    def mul(self, other: "Poly", T=None) -> "Poly":
        ctx = _common_ctx(self, other)
        a, b = self.in_context(ctx), other.in_context(ctx)
        tr = _min_trunc(self.trunc, other.trunc)
        eff = _min_trunc(tr, T)
        rmul, radd, is_zero = self.ring.mul, self.ring.add, self.ring.is_zero
        add, d = operator.add, ctx.d
        bitems = list(b.terms.items())
        if eff is not None:
            bx = [sum(e[:d]) for e in b.terms]
        out = {}
        dropped = False
        for e1, c1 in a.terms.items():
            items = bitems
            if eff is not None:
                room = eff - sum(e1[:d])
                items = [item for item, x in zip(bitems, bx) if x < room]
                dropped = dropped or len(items) < len(bitems)
            for e2, c2 in items:
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = rmul(c1, c2)  # over a domain, nonzero
                else:
                    s = radd(s, rmul(c1, c2))
                    if is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
        return Poly._of(ctx, self.ring, out, eff if dropped else tr)

    def pow_(self, n: int, T=None) -> "Poly":
        if n < 0:
            raise ValidationError("a polynomial power must be >= 0")
        if n == 0:
            return Poly.one(self.ctx, self.ring)
        out = self.truncate(T)
        for _ in range(n - 1):
            out = out.mul(self, T)
        return out

    def truncate(self, T) -> "Poly":
        if T is None:
            return self
        d = self.ctx.d
        kept = {e: c for e, c in self.terms.items() if sum(e[:d]) < T}
        dropped = len(kept) != len(self.terms)
        tr = _min_trunc(self.trunc, T) if dropped else self.trunc
        return Poly._of(self.ctx, self.ring, kept, tr)

    # -- equality (mathematical; certificates are metadata) ---------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring != other.ring:
            return False
        try:
            ctx = _common_ctx(self, other)
        except ValidationError:
            return False
        return self.in_context(ctx).terms == other.in_context(ctx).terms

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    # -- rendering ----------------------------------------------------------------

    def sorted_terms(self):
        key = _print_key(self.ctx)
        return sorted(self.terms.items(), key=lambda item: key(item[0]), reverse=True)

    def format(self) -> str:
        if not self.terms:
            return "0"
        pieces = [(c, e) for e, c in self.sorted_terms()]
        return format_signed_terms(pieces, self.ctx, self.ring)

    def __repr__(self):
        t = "" if self.trunc is None else f" + O(x^{self.trunc})"
        return f"<{self.format()}{t} over {self.ring!r}>"


def _print_key(ctx: VarContext):
    d = ctx.d

    def key(expo):
        return (tuple(reversed(expo[d:])), expo[:d])

    return key


def format_monomial(expo, ctx: VarContext) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 0:
            continue
        name = ctx.var_name(i)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_signed_terms(pieces, ctx: VarContext, ring) -> str:
    """Render (coefficient, exponent) pairs, pulling signs out of Q/Z coefficients."""
    out = []
    for i, (c, expo) in enumerate(pieces):
        neg = ring.is_negative(c)
        mag = ring.abs_value(c)
        mono = format_monomial(expo, ctx)
        cstr = ring.format_coeff(mag)
        if mono and cstr == "1":
            body = mono
        elif mono:
            body = f"{cstr}*{mono}"
        else:
            body = cstr
        if i == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z]\w*)|([+\-*^/])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), pos))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VarContext, ring):
        self.text = text
        self.ctx = ctx
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Poly:
        terms = {}
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        elif kind == "end":
            raise ParseError("empty polynomial", pos)
        self._term(terms, sign)
        while True:
            kind, val, pos = self.peek()
            if kind == "end":
                break
            if kind == "op" and val in "+-":
                self.take()
                self._term(terms, 1 if val == "+" else -1)
            else:
                raise ParseError(f"expected '+' or '-', found {val!r}", pos)
        return Poly(self.ctx, self.ring, terms)

    def _term(self, terms, sign: int):
        ring = self.ring
        kind, val, pos = self.peek()
        if kind == "int":
            coeff = self._coeff()
        elif kind == "name":
            coeff = ring.one
        else:
            raise ParseError("expected a coefficient or a variable", pos)
        expo = [0] * self.ctx.nvars
        if kind == "name":
            self._factor(expo)
        while True:
            k, v, p = self.peek()
            if k == "op" and v == "*":
                self.take()
                self._factor(expo)
            else:
                break
        if sign < 0:
            coeff = ring.neg(coeff)
        key = tuple(expo)
        s = ring.add(terms.get(key, ring.zero), coeff)
        if ring.is_zero(s):
            terms.pop(key, None)
        else:
            terms[key] = s

    def _coeff(self):
        kind, val, pos = self.take()
        num = int(val)
        k, v, p = self.peek()
        if k == "op" and v == "/":
            self.take()
            k2, v2, p2 = self.peek()
            if k2 != "int":
                raise ParseError("expected a denominator after '/'", p2)
            self.take()
            den = int(v2)
            if den == 0:
                raise ParseError("zero denominator", p2)
            try:
                return self.ring.from_fraction(num, den)
            except ZeroDivisionError:
                raise ParseError(f"{den} has no inverse in {self.ring!r}", p) from None
        return self.ring.from_int(num)

    def _factor(self, expo):
        kind, val, pos = self.take()
        if kind != "name":
            raise ParseError("expected a variable", pos)
        if not re.fullmatch(r"x[0-9]+|z|u[0-9]+", val):
            raise ParseError(f"unknown variable {val!r}", pos)
        try:
            idx = self.ctx.var_index(val)
        except KeyError:
            raise ParseError(f"unknown variable {val!r}", pos) from None
        power = 1
        k, v, p = self.peek()
        if k == "op" and v == "^":
            self.take()
            k2, v2, p2 = self.peek()
            if k2 != "int":
                raise ParseError("malformed exponent", p2)
            self.take()
            power = int(v2)
        expo[idx] += power


def parse_polynomial(text: str, ctx: VarContext, ring) -> Poly:
    """Parse the input grammar into a canonical Poly.

    Grammar: expr := ['-'] term (('+'|'-') term)*;
    term := coeff ('*' factor)* | factor ('*' factor)*;
    factor := var ['^' nat]; var := 'x'nat | 'z' | 'u'nat;
    coeff := int | int '/' nat.  Juxtaposition is not multiplication.
    """
    return _Parser(text, ctx, ring).parse()


# ---------------------------------------------------------------------------
# substitution and normal forms
# ---------------------------------------------------------------------------

def substitute(f: Poly, name: str, replacement: Poly, T=None) -> Poly:
    """Replace a variable by a polynomial, expand exactly, truncate at T."""
    return power_substitute(f, name, 1, replacement, T)


def power_substitute(f: Poly, name: str, k: int, replacement: Poly, T=None) -> Poly:
    """Rewrite w^e as w^(e mod k) * replacement^(e div k); the result has w-degree < k."""
    if k < 1:
        raise ValidationError("power must be positive")
    ctx = _common_ctx(f, replacement)
    f = f.in_context(ctx)
    replacement = replacement.in_context(ctx)
    idx = ctx.var_index(name)
    groups: dict[int, dict] = {}
    for e, c in f.terms.items():
        q, r = divmod(e[idx], k)
        rest = list(e)
        rest[idx] = r
        groups.setdefault(q, {})[tuple(rest)] = c
    result = Poly.zero(ctx, f.ring, f.trunc if f.is_zero() else None)
    power, last = replacement.truncate(T), 1
    for q in sorted(groups):
        part = Poly._of(ctx, f.ring, groups[q], f.trunc)
        if q:  # the w-free group (q = 0) is added as it is
            for _ in range(q - last):
                power = power.mul(replacement, T)
            last = q
            part = part.mul(power, T)
        result = result.add(part, T)
    return result


def exact_div(f: Poly, g: Poly) -> Poly:
    """Exact polynomial division; raises ValueError when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ctx = _common_ctx(f, g)
    f = f.in_context(ctx)
    g = g.in_context(ctx)
    ring = f.ring
    trunc = _min_trunc(f.trunc, g.trunc)
    sub, add = operator.sub, operator.add
    if len(g.terms) == 1:  # a monomial divides term by term
        (lt_g, cg), = g.terms.items()
        out = {}
        for e, c in f.terms.items():
            diff = tuple(map(sub, e, lt_g))
            if min(diff) < 0:
                raise ValueError("not exactly divisible")
            out[diff] = ring.div(c, cg)
        return Poly._of(ctx, ring, out, trunc)
    key = _print_key(ctx)
    lt_g = max(g.terms, key=key)
    cg = g.terms[lt_g]
    rem = dict(f.terms)
    out = {}
    while rem:
        lt_r = max(rem, key=key)
        diff = tuple(map(sub, lt_r, lt_g))
        if min(diff) < 0:
            raise ValueError("not exactly divisible")
        c = ring.div(rem[lt_r], cg)
        out[diff] = c
        # rem -= c * x^diff * g, in place; the leading term cancels exactly
        for eg, ceg in g.terms.items():
            e = tuple(map(add, eg, diff))
            s = ring.sub(rem.get(e, ring.zero), ring.mul(c, ceg))
            if ring.is_zero(s):
                rem.pop(e, None)
            else:
                rem[e] = s
    return Poly._of(ctx, ring, out, trunc)


def derivative(f: Poly, name: str) -> Poly:
    idx = f.ctx.var_index(name)
    ring = f.ring
    out = {}
    for e, c in f.terms.items():
        k = e[idx]
        if k == 0:
            continue
        scaled = ring.mul(c, ring.from_int(k))
        if ring.is_zero(scaled):
            continue
        e2 = list(e)
        e2[idx] = k - 1
        key = tuple(e2)
        s = ring.add(out.get(key, ring.zero), scaled)
        if ring.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return Poly(f.ctx, ring, out, f.trunc)


# ---------------------------------------------------------------------------
# Weierstrass wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassPoly:
    """A polynomial accepted by weierstrass_validate: monic in z, f(0) = 0, no u's."""

    poly: Poly
    n: int


def weierstrass_validate(f: Poly) -> WeierstrassPoly:
    ctx = f.ctx
    for name in ctx.aux:
        if name != "z" and f.uses_var(name):
            raise ValidationError(f"contains auxiliary variable {name} beyond z")
    n = f.degree_in("z")
    if n < 1:
        raise ValidationError("z-degree must be at least 1")
    zidx = ctx.var_index("z")
    top = ctx.unit("z", n)
    for e, c in f.terms.items():
        if e[zidx] == n and e != top:
            raise ValidationError("not monic in z: the z-leading coefficient is not 1")
    if f.terms.get(top) != f.ring.one:
        raise ValidationError("not monic in z: the z-leading coefficient is not 1")
    if not f.ring.is_zero(f.constant_coeff()):
        raise ValidationError("f(0) != 0")
    return WeierstrassPoly(f, n)


# ---------------------------------------------------------------------------
# relation stack
# ---------------------------------------------------------------------------

@dataclass
class Relation:
    """u_j = w^head_exp - tail_coeff * x^tail_expo - sum(corrections).

    The head variable w is the previous chain variable (z for the first
    relation).  Corrections accumulate while solvable vertices of the
    enclosing stage are eliminated by translations of u_j.
    """

    var: str
    head_var: str
    head_exp: int
    tail_coeff: object
    tail_expo: tuple
    ctx: VarContext
    ring: object
    corrections: list = dc_field(default_factory=list)

    def rhs_poly(self, ctx=None) -> Poly:
        ctx = ctx or self.ctx
        ring = self.ring
        terms = {ctx.unit(self.head_var, self.head_exp): ring.one}
        for coeff, mono in [(self.tail_coeff, self.tail_expo)] + list(self.corrections):
            key = ctx.pad(mono)
            s = ring.sub(terms.get(key, ring.zero), coeff)
            if ring.is_zero(s):
                terms.pop(key, None)
            else:
                terms[key] = s
        return Poly(ctx, ring, terms)

    def replacement_poly(self, ctx=None) -> Poly:
        """w^head_exp as u_j + w^head_exp - rhs = u_j + tail + corrections (downward rewriting)."""
        ctx = ctx or self.ctx
        ring = self.ring
        u_plus_head = {ctx.unit(self.var): ring.one,
                       ctx.unit(self.head_var, self.head_exp): ring.one}
        return Poly(ctx, ring, u_plus_head).sub(self.rhs_poly(ctx))

    def structural_pieces(self):
        """Signed pieces of the rhs: [(+1, head), (-1, c, tail), (-1, c_k, m_k), ...]."""
        ctx = self.ctx
        pieces = [(1, self.ring.one, ctx.unit(self.head_var, self.head_exp))]
        pieces.append((-1, self.tail_coeff, ctx.pad(self.tail_expo)))
        for coeff, mono in self.corrections:
            pieces.append((-1, coeff, ctx.pad(mono)))
        return pieces

    def structural_str(self) -> str:
        """Canonical display "u1 - (z^2 - x1^3*x2^6 - ...)" with structural signs.

        Prime-field coefficients are shown through their canonical integer
        lift so the binomial minus sign stays visible in every characteristic;
        where lift_coeff has no canonical lift, the structural signs are literal.
        """
        ring = self.ring
        view = ZZ if ring.characteristic > 0 else ring
        pieces = []
        try:
            for sign, c, mono in self.structural_pieces():
                v = lift_coeff(ring, c) if ring.characteristic > 0 else c
                v = v if sign > 0 else view.neg(v)
                if not view.is_zero(v):
                    pieces.append((v, mono))
        except UnsupportedLiftError:
            segs = []
            for i, (sign, c, mono) in enumerate(self.structural_pieces()):
                body = format_signed_terms([(c, mono)], self.ctx, ring)
                segs.append(body if i == 0 else ("- " if sign < 0 else "+ ") + body)
            return f"{self.var} - ({' '.join(segs)})"
        return f"{self.var} - ({format_signed_terms(pieces, self.ctx, view)})"


def normal_form(f: Poly, relations, T=None) -> Poly:
    """Rewrite head powers downward until every bounded variable sits below its bound.

    Relation j bounds its head variable at head_exp; rewriting replaces
    w^head_exp by u_j + tail + corrections, so equality modulo the relation
    ideal is preserved up to the truncation certificate.
    """
    if not relations:
        return f
    for _ in range(_NORMAL_FORM_FUEL):
        changed = False
        for rel in relations:
            if not f.ctx.has_var(rel.head_var):
                continue
            idx = f.ctx.var_index(rel.head_var)
            if any(e[idx] >= rel.head_exp for e in f.terms):
                f = power_substitute(f, rel.head_var, rel.head_exp,
                                     rel.replacement_poly(f.ctx), T)
                changed = True
        if not changed:
            return f
    raise EngineError("normal form did not stabilize within the rewrite fuel")


def back_substitute(f: Poly, relations, T=None) -> Poly:
    """Eliminate the chain variables by substituting each relation rhs, top down."""
    for rel in reversed(list(relations)):
        if f.ctx.has_var(rel.var):
            f = substitute(f, rel.var, rel.rhs_poly(f.ctx), T)
    return f
