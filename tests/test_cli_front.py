"""The CLI front end against the library calls it stands in for.

`cli.json_text` against `json.dumps(value, indent=2, ensure_ascii=False)`,
the writer of the `--json` report before it: on the golden outputs, on every
report of two benchmark passes and on seeded random values.  And
`cli.parse_known_args` against the top parser's `parse_known_args`, on the
golden and benchmark argvs and on argvs that end in help or a usage error.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from kappainv import cli
from test_cli_golden import _all_runs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

JSON_DUMP_KWARGS = {"indent": 2, "ensure_ascii": False}  # the oracle's arguments
SEEDS = (7, 13)


def oracle(value) -> str:
    return json.dumps(value, **JSON_DUMP_KWARGS)


def benchmark_argvs():
    return [list(case.argv) for name in sorted(workloads.WORKLOADS) for seed in SEEDS
            for case in workloads.build(name, seed)]


def quiet(call, *args):
    """call(*args) with stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return call(*args)


class TestJsonText:
    CHARS = ['"', "\\", "/", "\x00", "\x08", "\t", "\n", "\x0c", "\r", "\x1f", "\x7f",
             "\u2028", "\u2029", "\u00e9", "\u00df", "\u221e", "\u6f22", "\U0001d11e",
             "\U0001f600", "a", "z", "0", " ", "^", "*"]

    def random_value(self, rng, depth):
        kind = rng.randrange(9 if depth < 4 else 6)
        if kind == 0:
            return "".join(rng.choice(self.CHARS) for _ in range(rng.randrange(9)))
        if kind == 1:
            return rng.choice([True, False])
        if kind == 2:
            return None
        if kind == 3:
            return rng.choice([0, 1, -1, rng.randrange(-10**6, 10**6),
                               rng.choice([1, -1]) * rng.randrange(2**64, 2**200)])
        if kind in (4, 5):  # a scalar that reads like another: "1", "true", "null"
            return rng.choice(["1", "-0", "true", "null", "", "[]", "{}"])
        size = rng.choice([0, 0, 1, 2, 3, 4])
        items = [self.random_value(rng, depth + 1) for _ in range(size)]
        if kind == 6:
            return items
        if kind == 7:
            return tuple(items)
        keys = ["".join(rng.choice(self.CHARS) for _ in range(rng.randrange(4)))
                for _ in items]
        return dict(zip(keys, items))

    def test_seeded_values_against_the_oracle(self):
        rng = random.Random(24)
        values = [self.random_value(rng, rng.randrange(4)) for _ in range(2000)]
        # every shape the oracle treats apart shows up, inside another value too
        flat = json.dumps(values)
        for piece in ("[[]", "[{}", ", []", ", {}", "true", "false", "null", "\\u2028"):
            assert piece in flat, piece
        assert any(type(v) is tuple and v for v in values)
        assert any(isinstance(v, int) and abs(v) >= 2**64 for v in values)
        for value in values:
            assert cli.json_text(value) == oracle(value), value

    def test_golden_json_outputs(self):
        golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text("utf-8"))
        indented = 0
        for name, run in golden.items():
            if not name.endswith(" --json") or not run["stdout"]:
                continue  # a text run, or an input error
            if name.startswith("batch"):  # JSON Lines, compact: the values only
                for line in run["stdout"].splitlines():
                    value = json.loads(line)
                    assert cli.json_text(value) == oracle(value)
            else:
                value = json.loads(run["stdout"])
                assert cli.json_text(value) + "\n" == run["stdout"] == oracle(value) + "\n"
                indented += 1
        assert indented >= 10

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_every_report_of_two_benchmark_passes(self, monkeypatch, name):
        reports = []
        writer = cli.json_text

        def spy(value, *indent):
            if not indent:  # the report itself, not a value inside it
                reports.append(value)
            return writer(value, *indent)

        monkeypatch.setattr(cli, "json_text", spy)
        cases = [case for seed in SEEDS for case in workloads.build(name, seed)]
        for case in cases:
            quiet(cli.main, list(case.argv))
        assert len(reports) == len(cases)
        for value in reports:
            assert writer(value) == oracle(value)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", object(), {1: "a"},
                                       ["a", {"b": 0.5}], {"a": [None, {None: 1}]}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli.json_text(value)


POLY = "z^2 - x1^3"
ARGVS = [
    ["classify", "-h"], ["deform", "--help"], ["-h"], ["--help"],
    ["classify", "--tr", "5", POLY], ["classify", "--js", POLY], ["classify", "--trunc=5", POLY],
    ["deform", "--lam", "1,2", POLY], ["classify", "--b", "1", POLY],
    ["classify", "--", "-x1^3+z^2"], ["classify", "-x1^3+z^2"], ["classify", "--", POLY],
    ["classify", "--bogus", POLY], ["classify", "--bogus", "-x1^3+z^2"],
    ["classify", "--lambda", "1,2", POLY], ["kappa", "--lambda", "a,b", POLY],
    ["classify", "--char", "abc", POLY], ["classify", "--vars"], ["classify", POLY, "z^3"],
    ["classify"], ["deform", "--lambda", "1/2,3", "--json", POLY],
    ["--json", "classify", POLY], ["frobnicate", POLY], ["Classify", POLY], [],
    ["--", "classify", POLY], ["--", "classify", "--json", POLY],
]


class TestParseKnownArgs:
    @staticmethod
    def outcome(parse, argv):
        """The namespace and extras, or the exit code, with what was printed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args, extras = parse(list(argv))
                result = ("parsed", vars(args), extras)
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result + (out.getvalue(), err.getvalue())

    def check(self, argvs):
        top = cli.build_parser()
        for argv in argvs:
            assert (self.outcome(cli.parse_known_args, argv)
                    == self.outcome(top.parse_known_args, argv)), argv

    def test_golden_and_benchmark_argvs(self):
        argvs = [list(argv) for _, argv in _all_runs()] + benchmark_argvs()
        assert len(argvs) > 900
        self.check(argvs)

    def test_help_abbreviations_and_usage_errors(self):
        self.check(ARGVS)

    def test_a_command_in_first_place_skips_the_top_parser(self, monkeypatch):
        def top_parser_used(*args):
            raise AssertionError("the top parser ran")
        monkeypatch.setattr(cli.build_parser(), "parse_known_args", top_parser_used)
        args, extras = cli.parse_known_args(["deform", "--json", POLY])
        assert (args.command, args.json, args.polynomial, extras) == ("deform", True, POLY, [])
        with pytest.raises(AssertionError):
            cli.parse_known_args(["--json", "deform", POLY])
