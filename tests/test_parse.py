"""The input grammar: parse_polynomial against the tokenizer and recursive-descent
parser it replaced, and every ParseError message pinned with its position."""

import random
import re
import sys
from pathlib import Path

import pytest

from kappainv import Field, ParseError, Poly, VarContext, cli, parse_polynomial, poly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# test-only oracle: the tokenizer pass and parser class parse_polynomial replaced
# ---------------------------------------------------------------------------

_ORACLE_TOKEN_RE = re.compile(r"(\d+)|([a-zA-Z]\w*)|([+\-*^/])")
_ORACLE_VARIABLE_RE = re.compile(r"x[0-9]+|z|u[0-9]+")


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _ORACLE_TOKEN_RE.match(text, pos)
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


class _OracleParser:
    def __init__(self, text, ctx, ring):
        self.ctx = ctx
        self.ring = ring
        self.tokens = _oracle_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
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

    def _term(self, terms, sign):
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
        if not _ORACLE_VARIABLE_RE.fullmatch(val):
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


def parse_oracle(text, ctx, ring):
    return _OracleParser(text, ctx, ring).parse()


# ---------------------------------------------------------------------------
# differential test
# ---------------------------------------------------------------------------

# grammar pieces, plus whitespace, Unicode digits and names, and characters
# outside the grammar, so that today's Unicode behaviour cannot drift silently
FRAGMENTS = ["z", "x1", "x2", "x3", "x0", "x01", "u1", "u2", "y", "xz", "0", "1", "2", "3",
             "12", "1/2", "2/3", "/", "*", "^", "+", "-", " ", "  ", "\t", "\n", "\x1c",
             "　", "_", "é", "x_1", "x１", "٣", "x1٣", "(", ")", ".", "2x1"]


# whitespace between the tokens of a long valid text: str.isspace, ASCII and not
SPACES = ["", " ", "  ", "\t", "\n", "\x1c", "\xa0", "\u2003", "\u3000"]


def _valid_text(rng, long=False):
    """A polynomial in the grammar over x1, x2, z, u1; a long one has up to 40
    terms, x3 too, whitespace between its tokens and no zero denominator."""
    names = ["x1", "x2", "x3", "z", "u1"] if long else ["x1", "x2", "z", "u1"]

    def op(symbol):
        return rng.choice(SPACES) + symbol + rng.choice(SPACES) if long else symbol

    terms = []
    for _ in range(rng.randrange(1, 41 if long else 5)):
        factors = [f"{rng.choice(names)}"
                   + (op("^") + str(rng.randrange(0, 12)) if rng.random() < 0.6 else "")
                   for _ in range(rng.randrange(0, 4))]
        if not factors or rng.random() < 0.4:
            num = str(rng.randrange(0, 30))
            factors.insert(0, num + (op("/") + str(rng.randrange(1 if long else 0, 6))
                                     if rng.random() < 0.2 else ""))
        terms.append(op("*").join(factors))
    text = terms[0]
    for t in terms[1:]:
        text += (op(rng.choice("+-")) if long else rng.choice([" + ", " - ", "+", "-"])) + t
    return (op("-") if rng.random() < 0.2 else "") + text


def _edited(rng, text):
    """text with up to three fragment insertions, deletions or replacements."""
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + rng.randrange(1, 3):]
        else:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + 1:]
    return text


def _outcome(parse, text, ctx, ring):
    try:
        f = parse(text, ctx, ring)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "ok", list(f.terms.items()), f.trunc


def test_matches_the_oracle_parser():
    """About 10k seeded strings: the same terms in the same order, or the same
    message at the same position."""
    rng = random.Random(2020)
    fields = [Field.rationals(), Field.finite(2), Field.finite(5),
              Field.finite(2, 2, (1, 1, 1))]
    contexts = [VarContext(2, ("z", "u1")), VarContext(1)]
    seen = set()
    for n in range(10_000):
        mode = n % 3
        if mode == 0:
            text = _valid_text(rng)
        elif mode == 1:
            text = _edited(rng, _valid_text(rng))
        else:
            text = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randrange(0, 8)))
        ctx, ring = rng.choice(contexts), rng.choice(fields)
        want = _outcome(parse_oracle, text, ctx, ring)
        assert _outcome(parse_polynomial, text, ctx, ring) == want, (text, ctx, ring)
        seen.add(want[0] if want[0] == "ok" else want[1])
    # long texts over three x-variables, valid and edited
    ctx, long_ok = VarContext(3, ("z", "u1")), 0
    for n in range(600):
        text = _valid_text(rng, long=True)
        if n % 2:
            text = _edited(rng, text)
        ring = rng.choice(fields)
        want = _outcome(parse_oracle, text, ctx, ring)
        assert _outcome(parse_polynomial, text, ctx, ring) == want, (text, ctx, ring)
        long_ok += want[0] == "ok" and len(text) >= 300
    # the corpus reaches every outcome of a short input
    for start in ["ok", "empty polynomial", "unexpected character", "expected a variable",
                  "malformed exponent", "zero denominator", "unknown variable",
                  "expected a denominator after '/'", "expected a coefficient or a variable",
                  "expected '+' or '-', found", "2 has no inverse"]:
        assert any(s.startswith(start) for s in seen), start
    assert long_ok >= 40


def _corpus():
    """(text, ctx, field) of every benchmark input at seeds 7 and 13 and of
    every golden CLI input."""
    from test_cli_golden import BATCH_LINES, CASES
    argvs = [case.argv for name in workloads.WORKLOADS for seed in (7, 13)
             for case in workloads.build(name, seed)]
    for argv in [*argvs, *CASES.values()]:
        args, extras = cli.parse_known_args(list(argv))
        field, ctx = cli._build_field(args), VarContext(args.d)
        if getattr(args, "batch", None) is not None:
            for line in BATCH_LINES.splitlines():
                if line and not line.startswith("#"):
                    yield line, ctx, field
        else:
            yield (extras or [args.polynomial])[0], ctx, field


def test_valid_text_takes_the_split_path(monkeypatch):
    """Every valid input of the benchmark and the goldens, and x-names spelled
    with leading zeros, parse with no token walk, to the oracle's terms: a
    pattern edit that sends valid text to the walk would keep every answer
    and lose the split's speed."""
    QQ = Field.rationals()
    spelled = [("x01*x002^2 + u1*z", VarContext(2, ("z", "u1")), QQ),
               ("z^2 - x01^3", VarContext(1), QQ)]
    inputs = [*_corpus(), *spelled]
    wants = [_outcome(parse_oracle, *item) for item in inputs]
    assert all(want[0] == "ok" for want in wants[-len(spelled):])

    def no_walk(text, ctx, ring):
        raise AssertionError(f"token walk on {text!r}")

    monkeypatch.setattr(poly, "_parse_error", no_walk)
    valid = [(item, want) for item, want in zip(inputs, wants) if want[0] == "ok"]
    for item, want in valid:
        assert _outcome(parse_polynomial, *item) == want, item
    assert len(valid) >= 900 and max(len(text) for (text, _, _), _ in valid) > 700


# ---------------------------------------------------------------------------
# every message, pinned once with its position
# ---------------------------------------------------------------------------

LONG = "9" * 5000  # beyond the interpreter's default digit limit of 4300
TOO_LONG = f"integer literal longer than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("text, field, message, position", [
    ("z^2 + (x1)", "Q", "unexpected character '('", 6),
    ("z^2 + 2*x1 + é", "Q", "unexpected character 'é'", 13),
    ("x1^ + z$", "Q", "unexpected character '$'", 7),  # before the grammar error at 4
    ("", "Q", "empty polynomial", 0),
    (" \t\x1c ", "Q", "empty polynomial", 4),
    ("2 x1", "Q", "expected '+' or '-', found 'x1'", 2),
    ("x1^2^3", "Q", "expected '+' or '-', found '^'", 4),
    ("z^2 + ", "Q", "expected a coefficient or a variable", 6),
    ("z^2 + *x1", "Q", "expected a coefficient or a variable", 6),
    ("1/x1", "Q", "expected a denominator after '/'", 2),
    ("z + 1/0*x1", "Q", "zero denominator", 6),
    ("z + 1/2*x1", "GF2", "2 has no inverse in GF(2)", 5),
    ("z + 2*3", "Q", "expected a variable", 6),
    ("z^2 - x1*", "Q", "expected a variable", 9),
    ("z^2 - y", "Q", "unknown variable 'y'", 6),
    ("z + x3", "Q", "unknown variable 'x3'", 4),
    ("z + x_1", "Q", "unknown variable 'x_1'", 4),
    ("z + x１", "Q", "unknown variable 'x１'", 4),
    ("x1^", "Q", "malformed exponent", 3),
    ("x1^-2", "Q", "malformed exponent", 3),
    pytest.param(f"z^2 + {LONG}*x1", "Q", TOO_LONG, 6,
                 id="long-coefficient"),
    pytest.param(f"z^2 + 1/{LONG}*x1", "Q", TOO_LONG, 8,
                 id="long-denominator"),
    pytest.param(f"z^{LONG} + x1", "Q", TOO_LONG, 2,
                 id="long-exponent"),
])
def test_error_message_and_position(text, field, message, position):
    ring = Field.finite(2) if field == "GF2" else Field.rationals()
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, VarContext(2), ring)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position
