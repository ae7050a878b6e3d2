"""Multivariate polynomials and truncated power series in x1..xd, z, u1, u2, ...

Terms live in a fixed positional layout: the x block first, then the
auxiliary chain (z, u1, u2, ...) in creation order.  The public Poly(...)
constructor validates its input: it tuples every exponent and drops zero
coefficients.  Arithmetic results and the parser's terms go through the
trusted Poly._of, which stores a dict already keyed by tuples and free of
zeros as it is, without a copy; such a dict must not change afterwards, so
truncate returns the same Poly when it drops nothing.  A polynomial may carry
a truncation certificate T meaning "terms of total x-degree >= T are
unknown"; every stored term then has x-degree < T and certificates only
ever tighten under arithmetic.  A certificate of None means the value is
exact.

The module also owns the relation stack used by the classification engine
and by the integer lift: each Relation defines a new variable u_j as a
binomial head minus a list of correction monomials, over the engine's field
or, lifted, over Z.  Its signed pieces are the one layout that builds the
rhs (which back_substitute puts for u_j, eliminating a stack in either
ring), the generator u_j - rhs of the lift's ideal, the replacement of the
downward rewriting in normal_form (which keeps the tower degree bounds) and
the display.
"""

from __future__ import annotations

import operator
import re
import sys
from functools import lru_cache
from typing import NamedTuple, NoReturn

from .errors import EngineError, ParseError, ValidationError

_NORMAL_FORM_FUEL = 512


class VarContext:
    """Variable layout: d x-variables plus an ordered auxiliary chain.

    names maps every variable name the input grammar can spell that this
    layout holds (x1..xd and the chain names z, u1, ...) to its index, so
    parse_polynomial and var_index read a name with one lookup; var_names
    is every variable's name in layout order, for printing.  Both are built
    once per layout and shared by its contexts, so neither may change.
    """

    __slots__ = ("d", "aux", "names", "var_names")

    def __init__(self, d: int, aux=("z",)):
        if d < 1:
            raise ValidationError("at least one x-variable is required")
        aux = tuple(aux)
        if len(set(aux)) != len(aux):
            raise ValidationError("auxiliary variable names must be unique")
        self.d = d
        self.aux = aux
        self.names, self.var_names = _name_tables(d, aux)

    @property
    def nvars(self) -> int:
        return self.d + len(self.aux)

    def var_index(self, name: str) -> int:
        """The index of a variable, by the names table and else by the string
        rule: x<ASCII digits> is the x-variable of that number (x01 is x1),
        any other name a chain variable; KeyError when the layout has none."""
        i = self.names.get(name)
        if i is not None:
            return i
        if name.startswith("x") and name[1:].isascii() and name[1:].isdigit():
            i = int(name[1:])
            if 1 <= i <= self.d:
                return i - 1
            raise KeyError(name)
        try:
            return self.d + self.aux.index(name)
        except ValueError:
            raise KeyError(name) from None

    def var_name(self, index: int) -> str:
        return self.var_names[index]

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
        e = [0] * self.nvars
        e[self.var_index(name)] = k
        return tuple(e)

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


@lru_cache(maxsize=256)
def _name_tables(d: int, aux: tuple):
    """VarContext's (names, var_names) of the layout (d, aux)."""
    x_names = tuple(f"x{i + 1}" for i in range(d))
    # a chain name of the form x<digits> is never the chain variable: the
    # string rule of var_index reads it as an x-variable
    names = {name: d + j for j, name in enumerate(aux)
             if _VARIABLE_RE.fullmatch(name) and name[0] != "x"}
    names.update(zip(x_names, range(d)))
    return names, x_names + aux


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

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.constant_coeff() == self.ring.one

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
        out = dict(a.terms)
        ring = self.ring
        for e, c in b.terms.items():
            s = ring.add(out.get(e, ring.zero), c)
            if ring.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        tr = _min_trunc(self.trunc, other.trunc)
        return Poly._of(ctx, ring, out, tr).truncate(_min_trunc(tr, T))

    def sub(self, other: "Poly", T=None) -> "Poly":
        return self.add(other.neg(), T)

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

    def truncate(self, T) -> "Poly":
        """The terms of x-degree below T, under the certificate min(trunc, T);
        self when no term is dropped, as a Poly's terms never change."""
        d = self.ctx.d
        if T is None or all(sum(e[:d]) < T for e in self.terms):
            return self
        kept = {e: c for e, c in self.terms.items() if sum(e[:d]) < T}
        return Poly._of(self.ctx, self.ring, kept, _min_trunc(self.trunc, T))

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
        terms = self.terms
        return [(e, terms[e]) for e in sorted(terms, key=_print_key(self.ctx), reverse=True)]

    def format(self) -> str:
        if not self.terms:
            return "0"
        pieces = [(c, e) for e, c in self.sorted_terms()]
        return format_signed_terms(pieces, self.ctx, self.ring)

    def __repr__(self):
        t = "" if self.trunc is None else f" + O(x^{self.trunc})"
        return f"<{self.format()}{t} over {self.ring!r}>"


def _print_key(ctx: VarContext):
    """The print order's key of an exponent: the chain block from its last
    variable down, then the x block."""
    d = ctx.d
    return lambda expo: (expo[:d - 1:-1], expo[:d])


def format_monomial(expo, ctx: VarContext) -> str:
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in zip(ctx.var_names, expo) if e])


def format_signed_terms(pieces, ctx: VarContext, ring) -> str:
    """Render (coefficient, exponent) pairs, pulling signs out of Q/Z coefficients."""
    out = []
    is_negative, abs_value, format_coeff = ring.is_negative, ring.abs_value, ring.format_coeff
    for i, (c, expo) in enumerate(pieces):
        neg = is_negative(c)
        mono = format_monomial(expo, ctx)
        cstr = format_coeff(abs_value(c))
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

_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z]\w*)|([+\-*^/])|(\S)")  # int, name, op, other
_VARIABLE_RE = re.compile(r"x[0-9]+|z|u[0-9]+")
_END = ("", "", "", "")  # the token after the last one
# the grammar, with whitespace between tokens; it never puts two word tokens
# (int, name) side by side, so a text it matches tokenizes as _TOKEN_RE does
_INT, _NAME = r"\d+", r"[a-zA-Z]\w*"
_FACTOR = rf"{_NAME}(?:\s*\^\s*{_INT})?"
_TERM = rf"(?:{_INT}(?:\s*/\s*{_INT})?|{_FACTOR})(?:\s*\*\s*{_FACTOR})*"
_GRAMMAR_RE = re.compile(rf"\s*(?:-\s*)?{_TERM}(?:\s*[+-]\s*{_TERM})*\s*")
_SIGN_RE = re.compile("([+-])")


def parse_polynomial(text: str, ctx: VarContext, ring) -> Poly:
    """Parse the input grammar into a canonical Poly.

    Grammar: expr := ['-'] term (('+'|'-') term)*;
    term := coeff ('*' factor)* | factor ('*' factor)*;
    factor := var ['^' nat]; var := 'x'nat | 'z' | 'u'nat;
    coeff := int | int '/' nat.  Juxtaposition is not multiplication.
    The one reader: a text that one match of _GRAMMAR_RE accepts is read by
    splitting, with no tokens: whitespace dropped (str.isspace is the regex
    whitespace class), terms split at their signs, factors at '*', exponents
    at '^', names looked up in ctx.names and else by the grammar's name rule
    (x01 is x1); terms are added in text order and a zero sum dropped.  A
    text it cannot read (no match, an int past the digit limit, a
    denominator with no inverse, an unknown name) raises the ParseError that
    _parse_error names.
    """
    if not _GRAMMAR_RE.fullmatch(text):
        _parse_error(text, ctx, ring)
    pieces = _SIGN_RE.split("".join(text.split()))
    if pieces[0]:
        pieces.insert(0, "+")
    else:  # a leading '-'
        del pieces[0]
    terms, nvars, names = {}, ctx.nvars, ctx.names
    zero, one, add, is_zero = ring.zero, ring.one, ring.add, ring.is_zero
    try:
        for sign, term in zip(pieces[::2], pieces[1::2]):
            factors = term.split("*")
            first = factors[0]
            if first[0].isalpha():  # a name; an int starts with a digit
                coeff = one
            else:
                num, _, den = first.partition("/")
                coeff = (ring.from_fraction(int(num), int(den)) if den
                         else ring.from_int(int(num)))
                del factors[0]
            expo = [0] * nvars
            for factor in factors:
                name, _, k = factor.partition("^")
                idx = names.get(name)
                if idx is None:  # spelled another way (x01), or unknown
                    idx = _grammar_index(ctx, name)
                expo[idx] += int(k) if k else 1
            if sign == "-":
                coeff = ring.neg(coeff)
            key = tuple(expo)
            s = add(terms.get(key, zero), coeff)
            if is_zero(s):
                terms.pop(key, None)
            else:
                terms[key] = s
        return Poly._of(ctx, ring, terms, None)
    except (KeyError, ValueError, ZeroDivisionError):
        pass  # an unknown name, an int past the digit limit, no inverse
    _parse_error(text, ctx, ring)


def _grammar_index(ctx: VarContext, name: str) -> int:
    """The index of a name by the grammar's name rule: ctx.var_index of a
    name _VARIABLE_RE spells; KeyError for any other."""
    if not _VARIABLE_RE.fullmatch(name):
        raise KeyError(name)
    return ctx.var_index(name)


def _parse_error(text: str, ctx: VarContext, ring) -> NoReturn:
    """Raise the ParseError of a text parse_polynomial cannot read: the
    first error of a walk over its tokens, with its message and position.
    An unexpected character anywhere is reported before any grammar error;
    then the walk checks, term by term in text order, the grammar, each int
    against the digit limit, each denominator for an inverse and each name,
    but builds no coefficient, exponent or term.  Finding no error is a bug
    of the reader, an EngineError.
    """
    tokens = _TOKEN_RE.findall(text)  # skips whitespace, exactly where \S fails

    def error(message, i) -> ParseError:
        """The error at token i; positions are found only here, by one rescan."""
        starts = [m.start() for m in _TOKEN_RE.finditer(text)]
        return ParseError(message, starts[i] if i < len(starts) else len(text))

    def literal(i, missing=None) -> int:
        """The int at token i; missing is the message when token i is none."""
        if not tokens[i][0]:
            raise error(missing, i)
        try:
            return int(tokens[i][0])
        except ValueError:  # beyond the interpreter's int-to-string digit limit
            raise error(f"integer literal longer than {sys.get_int_max_str_digits()} "
                        "digits", i) from None

    for i, tok in enumerate(tokens):
        if tok[3]:
            raise error(f"unexpected character {tok[3]!r}", i)
    if not tokens:
        raise error("empty polynomial", 0)
    tokens.append(_END)
    i = 1 if tokens[0][2] == "-" else 0
    while True:
        if tokens[i][0]:
            literal(i)
            i += 1
            if tokens[i][2] == "/":
                den = literal(i + 1, "expected a denominator after '/'")
                if den == 0:
                    raise error("zero denominator", i + 1)
                if ring.is_zero(ring.from_int(den)):
                    raise error(f"{den} has no inverse in {ring!r}", i)
                i += 2
            more = tokens[i][2] == "*"
            i += more
        elif tokens[i][1]:
            more = True
        else:
            raise error("expected a coefficient or a variable", i)
        while more:
            name = tokens[i][1]
            if not name:
                raise error("expected a variable", i)
            try:
                _grammar_index(ctx, name)
            except KeyError:
                raise error(f"unknown variable {name!r}", i) from None
            i += 1
            if tokens[i][2] == "^":
                literal(i + 1, "malformed exponent")
                i += 2
            more = tokens[i][2] == "*"
            i += more
        sign = tokens[i][2]
        if sign == "+" or sign == "-":
            i += 1
        elif tokens[i] == _END:
            raise EngineError(f"parse_polynomial refused {text!r}, which has no parse error")
        else:
            raise error(f"expected '+' or '-', found {''.join(tokens[i])!r}", i)


# ---------------------------------------------------------------------------
# substitution and normal forms
# ---------------------------------------------------------------------------

def substitute(f: Poly, name: str, replacement: Poly, T=None) -> Poly:
    """Replace a variable by a polynomial, expand exactly, truncate at T."""
    return power_substitute(f, name, 1, replacement, T)


def power_substitute(f: Poly, name: str, k: int, replacement: Poly, T=None) -> Poly:
    """Rewrite w^e as w^(e mod k) * replacement^(e div k); the result has w-degree < k.

    A group equal to 1 (the monic top's) contributes the replacement's power
    as it is.
    """
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
    result = None
    power, last = replacement.truncate(T), 1
    for q in sorted(groups):
        part = Poly._of(ctx, f.ring, groups[q], f.trunc)
        if q:  # the w-free group (q = 0) is added as it is
            for _ in range(q - last):
                power = power.mul(replacement, T)
            last = q
            part = power if part.is_one() else part.mul(power, T)
        if result is not None:
            result = result.add(part, T)
            continue
        # the result starts from the first group under f's certificate, so a
        # power taken as it is drops its terms at or above f.trunc
        tr = _min_trunc(f.trunc, part.trunc)
        result = Poly._of(ctx, f.ring, part.terms, tr).truncate(_min_trunc(tr, T))
    return Poly.zero(ctx, f.ring, f.trunc) if result is None else result


def translate(f: Poly, name: str, coeff, expo, T=None) -> Poly:
    """f(w + coeff * m) for the monomial m with exponent expo, free of w.

    The binomial theorem expands each term into one dict: a term c * w^k * r
    gives C(k, j) * coeff^j * c * w^(k - j) * r * m^j for j = 0..k, and
    terms of x-degree at least min(f.trunc, T) are never formed.  The j = 0
    image is the term itself, so only terms holding w get a binomial row.
    The result and its certificate are those of substitute(f, w, w + coeff
    * m, T) for a nonzero coeff: the certificate tightens to min(f.trunc,
    T) exactly when some term has x-degree plus k times that of m at least
    that bound.
    """
    ctx, ring = f.ctx, f.ring
    idx, d = ctx.var_index(name), ctx.d
    shift = ctx.pad(expo)
    if shift[idx]:
        raise ValidationError(f"the shift monomial contains {name}")
    step = shift[:idx] + (-1,) + shift[idx + 1:]
    a = sum(shift[:d])
    bound = _min_trunc(f.trunc, T)
    rmul, radd, is_zero, add = ring.mul, ring.add, ring.is_zero, operator.add
    out = {}  # the j = 0 images, the terms kept, go in first: they are distinct
    shifted = []  # (e, c, k, the last j whose term has x-degree x + j*a below the bound)
    dropped = False
    for e, c in f.terms.items():
        k, x = e[idx], sum(e[:d])
        jmax = k
        if bound is not None and x + k * a >= bound:
            dropped = True
            if x >= bound:
                continue
            jmax = min(k, (bound - 1 - x) // a)  # a > 0 here
        out[e] = c
        if jmax:
            shifted.append((e, c, k, jmax))
    rows = {}  # k -> [C(k, j) * coeff^j for j = 1..k]
    for e, c, k, jmax in shifted:
        row = rows.get(k)
        if row is None:
            row, binom, power = [], 1, ring.one
            for j in range(1, k + 1):
                binom, power = binom * (k - j + 1) // j, rmul(power, coeff)
                row.append(rmul(ring.from_int(binom), power))
            rows[k] = row
        ej = e
        for cj in row[:jmax]:
            ej = tuple(map(add, ej, step))
            if is_zero(cj):
                continue
            t = rmul(c, cj)
            s = out.get(ej)
            if s is None:
                out[ej] = t  # over a domain, nonzero
            else:
                s = radd(s, t)
                if is_zero(s):
                    del out[ej]
                else:
                    out[ej] = s
    return Poly._of(ctx, ring, out, bound if dropped else f.trunc)


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
    """The partial derivative in name; distinct terms give distinct terms."""
    idx = f.ctx.var_index(name)
    ring = f.ring
    out = {}
    for e, c in f.terms.items():
        k = e[idx]
        if k:
            scaled = ring.mul(c, ring.from_int(k))
            if not ring.is_zero(scaled):
                out[e[:idx] + (k - 1,) + e[idx + 1:]] = scaled
    return Poly._of(f.ctx, ring, out, f.trunc)


# ---------------------------------------------------------------------------
# Weierstrass wrapper
# ---------------------------------------------------------------------------

class WeierstrassPoly(NamedTuple):
    """A polynomial accepted by weierstrass_validate: monic in z, every other
    z-coefficient vanishing at the origin, no u's."""

    poly: Poly
    n: int


def weierstrass_validate(f: Poly) -> WeierstrassPoly:
    """f as a WeierstrassPoly, or the first ValidationError of: a chain
    variable beyond z, z-degree 0, not monic in z, f(0) != 0, a unit
    z-coefficient.  The z-degree, the terms at it and the z-powers of the
    x-free terms are read in one pass over the terms."""
    ctx = f.ctx
    for name in ctx.aux:
        if name != "z" and f.uses_var(name):
            raise ValidationError(f"contains auxiliary variable {name} beyond z")
    zidx, d = ctx.var_index("z"), ctx.d
    n = at_n = 0  # the z-degree and the count of terms at it
    low = None  # the least z-power of an x-free term
    for e in f.terms:
        k = e[zidx]
        if k > n:
            n, at_n = k, 1
        elif k == n:
            at_n += 1
        if (low is None or k < low) and not any(e[:d]):
            low = k
    if n < 1:
        raise ValidationError("z-degree must be at least 1")
    top = ctx.unit("z", n)
    if at_n != 1 or f.terms.get(top) != f.ring.one:
        raise ValidationError("not monic in z: the z-leading coefficient is not 1")
    # the terms are free of zeros, so an x-free term of z-power 0 is f(0) != 0
    if low == 0:
        raise ValidationError("f(0) != 0")
    # a unit z-coefficient below the top puts a vertex at the origin, where no
    # binomial power fits
    if low < n:
        raise ValidationError("not a Weierstrass polynomial: the coefficient of "
                              f"{format_monomial(ctx.unit('z', low), ctx)} is a unit")
    return WeierstrassPoly(f, n)


# ---------------------------------------------------------------------------
# relation stack
# ---------------------------------------------------------------------------

class Relation:
    """u_j = w^head_exp - tail_coeff * x^tail_expo - sum(corrections).

    The head variable w is the previous chain variable (z for the first
    relation).  Corrections accumulate while solvable vertices of the
    enclosing stage are eliminated by translations of u_j, so corrections
    is a list of its own for each relation.  ring is the engine's field, or
    ZZ for a relation of the integer lift.
    """

    __slots__ = ("var", "head_var", "head_exp", "tail_coeff", "tail_expo", "ctx", "ring",
                 "corrections")

    def __init__(self, var: str, head_var: str, head_exp: int, tail_coeff, tail_expo: tuple,
                 ctx: VarContext, ring, corrections: list = None):
        self.var, self.head_var, self.head_exp = var, head_var, head_exp
        self.tail_coeff, self.tail_expo, self.ctx, self.ring = tail_coeff, tail_expo, ctx, ring
        self.corrections = [] if corrections is None else corrections

    def structural_pieces(self, ctx=None):
        """The one layout, padded to ctx: [(+1, 1, head), (-1, c, tail), (-1, c_k, m_k), ...]."""
        ctx = ctx or self.ctx
        return ([(1, self.ring.one, ctx.unit(self.head_var, self.head_exp)),
                 (-1, self.tail_coeff, ctx.pad(self.tail_expo))]
                + [(-1, c, ctx.pad(m)) for c, m in self.corrections])

    def _signed_sum(self, ctx, var, head, rest) -> Poly:
        """var * u_j + head * (head piece) + rest * (other pieces), in one dict
        pass over the signed pieces; var is 0 or 1, head and rest -1, 0 or 1."""
        ctx = ctx or self.ctx
        ring = self.ring
        terms = {ctx.unit(self.var): ring.one} if var else {}
        for i, (sign, c, mono) in enumerate(self.structural_pieces(ctx)):
            sign *= rest if i else head
            if sign:
                s = terms.get(mono, ring.zero)
                s = ring.add(s, c) if sign > 0 else ring.sub(s, c)
                if ring.is_zero(s):
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
        return Poly._of(ctx, ring, terms, None)

    def rhs_poly(self, ctx=None) -> Poly:
        """w^head_exp - tail - corrections."""
        return self._signed_sum(ctx, 0, 1, 1)

    def generator(self, ctx=None) -> Poly:
        """u_j - rhs, the relation's generator of the ideal."""
        return self._signed_sum(ctx, 1, -1, -1)

    def replacement_poly(self, ctx=None) -> Poly:
        """w^head_exp as u_j + w^head_exp - rhs = u_j + tail + corrections (downward rewriting)."""
        return self._signed_sum(ctx, 1, 0, -1)

    def structural_str(self) -> str:
        """Canonical display "u1 - (z^2 - x1^3*x2^6 - ...)": each piece after the
        head shows "+ |c|" when c is a negative Q or Z value, else "- |c|"."""
        ring = self.ring
        (_, _, head), *rest = self.structural_pieces()
        segs = [format_monomial(head, self.ctx)]
        for _, c, mono in rest:
            body = format_signed_terms([(ring.abs_value(c), mono)], self.ctx, ring)
            segs.append(("+ " if ring.is_negative(c) else "- ") + body)
        return f"{self.var} - ({' '.join(segs)})"


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
