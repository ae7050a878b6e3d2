import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from kappainv.cli import main
from test_cli_front import JSON_DUMP_KWARGS
from test_parse import _edited

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_module(argv, stdout=subprocess.PIPE):
    """`python -m kappainv ...` in a child that imports this checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kappainv", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def run_module_into_a_closed_pipe(argv):
    """run_module with stdout on a pipe whose read end is closed first."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_module(argv, stdout=write_end)
    finally:
        os.close(write_end)


class TestClassify:
    def test_quasi_ordinary_example(self, capsys):
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "2",
                                 "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"])
        assert code == 0
        assert "teissier: False" in out
        assert "quasi_ordinary: True" in out
        assert "kappa = (-1)" in out

    def test_cusp_example(self, capsys):
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "1", "z^2 - x1^3"])
        assert code == 0
        assert "kappa = (3/2, inf)" in out
        assert "teissier: True" in out

    def test_shallow_depth_is_inconclusive(self, capsys):
        # at depth 0 the second stage cannot reach its square: its vertex
        # (15/4, 15/2) has order 2 modulo Z^2 + Z*(3/2, 3), so u1^4 must be
        # read as (u1^2 - ...)^2, which takes one rewrite; the first stage stays
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "2", "--depth", "0",
                                 "z^8 + x1^12*x2^24 + x1^15*x2^30"])
        assert code == 2
        assert out.splitlines()[:3] == ["kappa = ((3/2, 3), inconclusive)",
                                        "stage multiplicities: 8 > 4",
                                        "teissier: inconclusive"]
        assert "note: initial form not a binomial power; input may be reducible" in out

    def test_truncation_inconclusive_exit_code(self, capsys):
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "2", "--trunc", "2",
                                 "z^8 + x1^12*x2^24 + x1^15*x2^30"])
        assert code == 2
        assert "inconclusive" in out

    def test_parse_error_exit_code(self, capsys):
        code = main(["classify", "--char", "0", "--vars", "1", "z^2 - y"])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown variable" in err

    def test_validation_error_exit_code(self, capsys):
        code = main(["classify", "--char", "0", "--vars", "1", "z^2 - 1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "f(0)" in err

    def test_missing_polynomial(self, capsys):
        code = main(["classify", "--char", "2", "--vars", "1"])
        assert code == 1


class TestJson:
    def test_schema_keys_and_values(self, capsys):
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "2", "--json",
                                 "z^8 + x1^12*x2^24 + x1^15*x2^30"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"]["vertices"] == [["3/2", "3"], ["15/4", "15/2"], ["63/8", "63/4"]]
        assert doc["kappa"]["terminal"] == "inf"
        assert doc["teissier"] is True
        assert doc["quasi_ordinary"] is False
        assert doc["presentation"] == [
            "u1 - (z^2 - x1^3*x2^6)",
            "u2 - (u1^2 - x1^6*x2^12*z)",
            "u2^2 + x1^12*x2^24*u1",
        ]
        assert doc["certified_truncation"] == 64

    def test_round_trip_is_byte_identical(self, capsys):
        _, out = run(capsys, ["classify", "--char", "2", "--vars", "2", "--json",
                              "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"])
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), **JSON_DUMP_KWARGS) == text

    def test_monomial_unit_yes_shape(self, capsys):
        _, out = run(capsys, ["classify", "--char", "2", "--vars", "2", "--json",
                              "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"])
        doc = json.loads(out)
        assert doc["discriminant"]["monomial_unit"] == {"yes": ["2", "2"]}

    def test_text_and_json_report_the_same_content(self, capsys):
        args = ["classify", "--char", "2", "--vars", "2",
                "z^8 + x1^12*x2^24 + x1^15*x2^30"]
        _, text_out = run(capsys, args)
        _, json_out = run(capsys, args + ["--json"])
        doc = json.loads(json_out)
        d = len(doc["kappa"]["vertices"][0])
        # every mathematical datum in the JSON shows up in the text report
        assert f"teissier: {doc['teissier']}" in text_out
        assert f"quasi_ordinary: {doc['quasi_ordinary']}" in text_out
        for line in doc["presentation"]:
            assert line in text_out
        for vertex in doc["kappa"]["vertices"]:
            assert "(" + ", ".join(vertex) + ")" in text_out
        assert doc["discriminant"]["value"] in text_out


class TestOtherCommands:
    def test_kappa_command(self, capsys):
        code, out = run(capsys, ["kappa", "--char", "2", "--vars", "1", "z^2 - x1^3"])
        assert code == 0
        assert "kappa = (3/2, inf)" in out

    def test_polyhedron_command(self, capsys):
        code, out = run(capsys, ["polyhedron", "--char", "2", "--vars", "2",
                                 "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"])
        assert code == 0
        assert "(1/2, 3/2)" in out and "(3/2, 1/2)" in out

    def test_discriminant_command_json(self, capsys):
        code, out = run(capsys, ["discriminant", "--char", "0", "--vars", "1", "--json",
                                 "z^2 - x1^3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["discriminant"]["value"] == "-4*x1^3"
        assert doc["discriminant"]["monomial_unit"] == {"yes": ["3"]}

    def test_deform_command(self, capsys):
        code, out = run(capsys, ["deform", "--char", "2", "--vars", "2", "--json",
                                 "z^8 + x1^12*x2^24 + x1^15*x2^30"])
        assert code == 0
        doc = json.loads(out)
        ghosts = {g["monomial"]: g["coeff"] for g in doc["ghosts"]}
        assert ghosts["x1^12*x2^24*z^2"] == "2"
        assert doc["initial_ideal"]["fiber_independent"] is True
        assert doc["initial_ideal"]["generators"] == [
            "z^2 - x1^3*x2^6",
            "u1^2 - x1^6*x2^12*z",
            "u2^2 + x1^12*x2^24*u1",
        ]

    def test_deform_without_presentation(self, capsys):
        code = main(["deform", "--char", "2", "--vars", "2",
                     "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"])
        assert code == 3
        assert "no overweight presentation" in capsys.readouterr().out

    def test_deform_trivial_stack(self, capsys):
        code, out = run(capsys, ["deform", "--char", "2", "--vars", "1", "z^2 - x1^3"])
        assert code == 0
        assert "ghost monomials: none" in out

    def test_deform_rejects_characteristic_zero(self, capsys):
        code = main(["deform", "--char", "0", "--vars", "1", "z^2 - x1^3"])
        assert code == 1
        assert "characteristic 0" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = run_module(["classify", "--char", "2", "--vars", "1", "z^2 - x1^3"])
        assert proc.returncode == 0
        assert "kappa = (3/2, inf)" in proc.stdout

    def test_extension_field_flags(self, capsys):
        code, out = run(capsys, ["kappa", "--char", "2", "--ext", "2",
                                 "--modulus", "1,1,1", "--vars", "1", "z^2 - x1^3"])
        assert code == 0
        assert "kappa = (3/2, inf)" in out

    def test_budget_flag_forces_inconclusive(self, capsys):
        code, out = run(capsys, ["classify", "--char", "0", "--vars", "1", "--budget", "1",
                                 "z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9"])
        assert code == 2
        assert "budget" in out


class TestNotWeierstrass:
    """A unit z-coefficient below the monic top is an input error (exit 1) in
    every subcommand; a z-coefficient vanishing at the origin is accepted."""

    @pytest.mark.parametrize("command", ["classify", "kappa", "polyhedron", "discriminant",
                                         "deform"])
    @pytest.mark.parametrize("char, text", [("0", "z^2 + z"), ("2", "z^2 + z + x1"),
                                            ("0", "z^3 + x1*z^2 + z"),
                                            ("2", "z^3 + x1*z^2 + z")])
    def test_unit_coefficient_exits_1(self, capsys, command, char, text):
        code = main([command, "--char", char, text])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: not a Weierstrass polynomial: "
                                "the coefficient of z is a unit\n")

    @pytest.mark.parametrize("char", ["0", "2"])
    def test_vanishing_coefficient_is_accepted(self, capsys, char):
        code, out = run(capsys, ["classify", "--char", char, "z^2 + x1*z"])
        assert code == 2
        assert "initial form not a binomial power" in out

    def test_batch_reports_the_line(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 + z\nz^2 - x1^3\n")
        code, out = run(capsys, ["classify", "--char", "2", "--json", "--batch", str(batch)])
        assert code == 1
        docs = [json.loads(line) for line in out.splitlines()]
        assert docs[0] == {"error": "not a Weierstrass polynomial: "
                                    "the coefficient of z is a unit"}
        assert docs[1]["kappa"]["terminal"] == "inf"


class TestBatch:
    def test_order_and_exit_codes(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 - x1^3\nz^3 - x1^4\n")
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "1",
                                 "--batch", str(batch)])
        assert code == 0
        first = out.index("z^2 - x1^3")
        second = out.index("z^3 - x1^4")
        assert first < second

    def test_batch_json_lines(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 - x1^3\nbad ^ input\n")
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "1", "--json",
                                 "--batch", str(batch)])
        assert code == 1  # the malformed line dominates the exit code
        assert "error" in out
        docs = [json.loads(line) for line in out.splitlines()]  # JSON Lines: one object a line
        assert len(docs) == 2
        assert docs[0]["kappa"]["terminal"] == "inf"
        assert list(docs[1]) == ["error"]

    def test_batch_rejects_a_polynomial_argument(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 - x1^3\n")
        code = main(["classify", "--char", "2", "--batch", str(batch), "z^3 - x1^4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "--batch" in captured.err
        assert captured.out == ""
        assert main(["classify", "--char", "2", "--batch", "", "z^3 - x1^4"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("data, error", [
        (b"z^2 - x1^3\n\xff\n", "byte 0xff at offset 11"),
        (b"z^2 - x1^3\n" * 1000 + b"z^2 - x1^\xc33\n", "byte 0xc3 at offset 11009"),
    ], ids=["second-line", "past-the-first-read"])
    def test_a_file_that_is_not_utf8_is_one_error_line(self, capsys, tmp_path, mode,
                                                       data, error):
        batch = tmp_path / "inputs.txt"
        batch.write_bytes(data)
        code = main(["classify", *mode, "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {batch} is not UTF-8: {error}\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_line_ends(self, capsys, tmp_path, mode):
        # universal newlines: "\r\n" and a lone "\r" end a line as "\n" does
        batch = tmp_path / "inputs.txt"
        batch.write_bytes(b"# cusps\nz^2 - x1^3\nz^3 - x1^4\n\n z^4 + x1^6 \n")
        code, want = run(capsys, ["classify", *mode, "--batch", str(batch)])
        batch.write_bytes(b"# cusps\r\nz^2 - x1^3\rz^3 - x1^4\r\n\r z^4 + x1^6 ")
        assert run(capsys, ["classify", *mode, "--batch", str(batch)]) == (code, want)
        assert want.count("kappa") == 3

    def test_batch_inconclusive_exit(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 - x1^3\n")
        code, _ = run(capsys, ["classify", "--char", "2", "--vars", "1",
                               "--trunc", "1", "--batch", str(batch)])
        assert code == 2


class TestNoFieldExtensionNote:
    """Verdicts that moved when the field-extension outcome went away: over Q
    and finite fields no extension makes an initial form a binomial power."""

    def test_two_vertex_preparation_goes_on(self, capsys):
        # the vertex (1, 0) carries z^2 + x1*z + 2*x1^2, not a square over any
        # extension of GF(5); preparation passes it as it passes any other
        code, out = run(capsys, ["kappa", "--char", "5", "--vars", "2",
                                 "z^2 + x1*z + 2*x1^2 + x2^3"])
        assert code == 0
        assert out == ("kappa = (-1)\n"
                       "note: prepared polyhedron has 2 vertices "
                       "(translation-minimal preparation)\n")

    def test_two_distinct_factors_over_the_rationals(self, capsys):
        # (z - (1+i)*x1^3)(z - (1-i)*x1^3): two distinct factors over every extension
        code, out = run(capsys, ["classify", "--vars", "1", "z^2 - 2*x1^3*z + 2*x1^6"])
        assert code == 2
        assert "kappa = (inconclusive)\n" in out
        assert "note: initial form not a binomial power; input may be reducible\n" in out
        assert "extension" not in out


class TestClosedPipe:
    """`kappainv ... | head -1`: a reader that closed the pipe gets no error
    line, and the exit code is the command's own."""

    @pytest.mark.parametrize("argv, code", [
        (["classify", "--char", "2", "--vars", "1", "z^2 - x1^3"], 0),
        (["classify", "--char", "5", "--vars", "1", "z^2 + x1*z + 2*x1^2"], 2),
    ])
    def test_single_command(self, argv, code):
        proc = run_module_into_a_closed_pipe(argv)
        assert proc.stderr == ""
        assert proc.returncode == code

    def test_batch(self, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 - x1^3\nz^2 + x1*z + 2*x1^2\n")
        proc = run_module_into_a_closed_pipe(["classify", "--char", "5", "--vars", "1",
                                              "--batch", str(batch)])
        assert proc.stderr == ""
        assert proc.returncode == 2


class TestDimensionBound:
    @pytest.mark.parametrize("command", ["classify", "kappa", "polyhedron", "discriminant",
                                         "deform"])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_vars_above_the_bound_exits_1_before_parsing(self, capsys, monkeypatch,
                                                         command, mode):
        def parse_spy(*args):
            raise AssertionError("the polynomial was parsed")
        monkeypatch.setattr("kappainv.cli.parse_polynomial", parse_spy)
        code = main([command, "--char", "2", "--vars", "9", *mode, "z^2 - x1^3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: dimension 9 exceeds the configured bound 8\n"
        assert captured.out == ""

    def test_vars_at_the_bound_is_accepted(self, capsys):
        code, out = run(capsys, ["classify", "--char", "2", "--vars", "8", "z^2 - x1^3"])
        assert code == 0
        assert "kappa = ((3/2, 0, 0, 0, 0, 0, 0, 0), inf)" in out

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize("lines", ["z^2 - x1^3\nz^3 - x1^4\n", None],
                             ids=["two-lines", "no-file"])
    def test_batch_reports_the_bound_once(self, capsys, tmp_path, mode, lines):
        # None: no batch file at all, so the bound is checked before it is opened
        batch = tmp_path / "inputs.txt"
        if lines is not None:
            batch.write_text(lines)
        code = main(["classify", "--char", "2", "--vars", "9", *mode, "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: dimension 9 exceeds the configured bound 8\n"
        assert captured.out == ""

    def test_batch_without_x_variables_errs_once(self, capsys, tmp_path):
        batch = tmp_path / "inputs.txt"
        batch.write_text("z^2 - x1^3\nz^3 - x1^4\n")
        code = main(["classify", "--vars", "0", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: at least one x-variable is required\n"
        assert captured.out == ""


class TestMalformedFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["kappa", "--char", "2", "--ext", "2", "--modulus", "1,a,1", "z^2 - x1^3"],
         "--modulus"),
        (["deform", "--char", "2", "--lambda", "abc", "z^2 - x1^3"], "--lambda"),
        (["deform", "--char", "2", "--lambda", "1/0", "z^2 - x1^3"], "--lambda"),
    ])
    def test_error_line_instead_of_traceback(self, argv, flag):
        proc = run_module(argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert flag in proc.stderr
        assert "Traceback" not in proc.stderr


class TestUsageErrors:
    """Usage errors exit 1 (input error), never 2, the inconclusive code."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--char", "abc", "z^2 - x1^3"],
        ["classify", "--bogus", "z^2 - x1^3"],
        ["classify", "--vars", "2", "--lambda", "a,b", "z^2 - x1^3"],  # deform-only flag
        ["frobnicate", "z^2 - x1^3"],
        [],
    ])
    def test_usage_error_exits_1(self, argv):
        proc = run_module(argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: kappainv")
        assert "error:" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["classify", "kappa", "polyhedron", "discriminant"])
    def test_lambda_outside_deform_names_the_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--vars", "2", "--lambda", "a,b", "z^2 - x1^3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: kappainv {command} ")
        assert f"kappainv {command}: error: argument --lambda: applies to deform only" in err
        assert "z^2 - x1^3" not in err

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_polynomial_with_a_leading_minus_and_no_space(self, capsys, flags):
        # argparse reads "-x1^3+z^2" as an unknown option; it is the polynomial
        code = main(["classify", *flags, "-x1^3+z^2"])
        got = capsys.readouterr()
        assert code == main(["classify", *flags, "--", "-x1^3+z^2"]) == 0
        assert got == capsys.readouterr()
        assert got.err == "" and "3/2" in got.out

    @pytest.mark.parametrize("polynomial", ["z^2 - x1^3", "-x1^3+z^2"])
    def test_unknown_option_is_still_a_usage_error(self, capsys, polynomial):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bogus", polynomial])
        assert exc.value.code == 1
        unrecognized = "--bogus" if " " in polynomial else f"--bogus {polynomial}"
        assert capsys.readouterr() == ("", (
            "usage: kappainv [-h] {classify,kappa,polyhedron,discriminant,deform} ...\n"
            f"kappainv: error: unrecognized arguments: {unrecognized}\n"))

    def test_help_exits_0(self):
        proc = run_module(["classify", "-h"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: kappainv classify")
        assert "--lambda" not in proc.stdout
        assert "--lambda" in run_module(["deform", "-h"]).stdout


class TestNeverRaises:
    """Every input ends in an exit code, never in a traceback."""

    FIELDS = [["--char", "0"], ["--char", "2"], ["--char", "3"], ["--char", "5"],
              ["--char", "2", "--ext", "2", "--modulus", "1,1,1"]]
    COMMANDS = ["classify", "kappa", "polyhedron", "discriminant", "deform"]
    LONG = "9" * 5000
    REPROS = [f"z^2 + {LONG}*x1", f"z^{LONG} + x1", "z^1400 + x1"]

    @staticmethod
    def weierstrass_text(rng, d):
        """z^n plus a few terms c * x^a * z^k with k < n and a nonzero."""
        n = rng.randrange(2, 7)
        text = f"z^{n}"
        for _ in range(rng.randrange(1, 4)):
            xs = "*".join(f"x{i + 1}^{rng.randrange(1, 6)}" for i in range(d)
                          if i == 0 or rng.random() < 0.5)
            k = rng.randrange(n)
            zs = "" if k == 0 else "*z" if k == 1 else f"*z^{k}"
            text += f" {rng.choice('+-')} {rng.randrange(1, 4)}*{xs}{zs}"
        return text

    @pytest.mark.parametrize("command", ["classify", "discriminant"])
    @pytest.mark.parametrize("repro", REPROS, ids=["long-coefficient", "long-exponent",
                                                   "long-discriminant"])
    def test_a_too_long_integer_is_one_error_line(self, capsys, command, repro):
        assert main([command, repro]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{sys.get_int_max_str_digits()}" in captured.err

    def test_seeded_inputs_exit_0_to_3(self, tmp_path):
        rng = random.Random(500)
        texts = []
        for n in range(496):
            text = self.weierstrass_text(rng, rng.randrange(1, 3))
            texts.append(_edited(rng, text) if n % 2 else text)
        texts += self.REPROS
        calls = []
        for n, text in enumerate(texts):
            calls.append([self.COMMANDS[n % 5], "--vars", "2", *rng.choice(self.FIELDS), text])
        for k in range(6):
            batch = tmp_path / f"batch{k}.txt"
            batch.write_text("\n".join(rng.sample(texts, 8) + self.REPROS) + "\n")
            calls.append(["classify", "--vars", "2", *rng.choice(self.FIELDS),
                          *(["--json"] if k % 2 else []), "--batch", str(batch)])
        assert len(calls) >= 500
        for argv in calls:
            assert main(argv) in (0, 1, 2, 3), argv
