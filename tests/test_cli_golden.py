"""Golden CLI output: stdout, stderr and exit code of every subcommand, in text
and --json mode, compared byte for byte with tests/cli_golden.json; the README's
JSON report is one of these outputs.

An intended output change rewrites the data file with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in its change record which outputs moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from kappainv.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

THREE_STAGE = "z^8 + x1^12*x2^24 + x1^15*x2^30"
QUASI_ORDINARY = "z^2 - x1*x2*z - x1^3*x2 - x1*x2^3"

# a comment line, a blank line and a malformed line among valid inputs
BATCH_LINES = "# cusps\nz^2 - x1^3\n\nbad ^ input\nz^3 - x1^4\nz^4 + x1^6\n"
BATCH_FILE = "<batch file>"

CASES = {
    "classify-inf": ["classify", "--char", "2", "--vars", "2", THREE_STAGE],
    "classify-minus-one": ["classify", "--char", "2", "--vars", "2", QUASI_ORDINARY],
    "classify-truncation-inconclusive": ["classify", "--char", "2", "--vars", "2",
                                         "--trunc", "2", THREE_STAGE],
    "classify-budget-inconclusive": [
        "classify", "--char", "0", "--vars", "1", "--budget", "1",
        "z^2 - 2*x1*z - 2*x1^2*z + x1^2 + 2*x1^3 + x1^4 - x1^9"],
    "classify-field-extension-inconclusive": ["classify", "--char", "5", "--vars", "1",
                                              "z^2 + x1*z + 2*x1^2"],
    "kappa-gf4": ["kappa", "--char", "2", "--ext", "2", "--modulus", "1,1,1",
                  "--vars", "2", THREE_STAGE],
    "polyhedron": ["polyhedron", "--char", "2", "--vars", "2", QUASI_ORDINARY],
    "polyhedron-empty": ["polyhedron", "--char", "2", "--vars", "1", "z^2"],
    "discriminant-exact": ["discriminant", "--char", "0", "--vars", "1", "z^2 - x1^3"],
    "discriminant-truncated": ["discriminant", "--char", "0", "--vars", "2", "--trunc", "5",
                               "z^4 + 4*x1^3*x2^2*z^2 + 3*x1*x2^3*z^2 + x1^3*x2^4*z + x1"],
    "deform": ["deform", "--char", "2", "--vars", "2", THREE_STAGE],
    "deform-lambda": ["deform", "--char", "2", "--vars", "2", "--lambda", "1/2,3", THREE_STAGE],
    "deform-no-presentation": ["deform", "--char", "2", "--vars", "2", QUASI_ORDINARY],
    "batch": ["classify", "--char", "2", "--vars", "1", "--batch", BATCH_FILE],
}
# more x-variables than the polyhedron bound allows: an input error
for _command in ("classify", "kappa", "polyhedron", "deform"):
    CASES[f"{_command}-vars-9"] = [_command, "--char", "2", "--vars", "9", "z^2 - x1^3"]


def _all_runs():
    for name, argv in CASES.items():
        yield name, argv
        yield f"{name} --json", argv + ["--json"]


def capture(argv, batch_path):
    argv = [batch_path if a == BATCH_FILE else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def batch_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "inputs.txt"
    path.write_text(BATCH_LINES, encoding="utf-8")
    return str(path)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(name for name, _ in _all_runs())


@pytest.mark.parametrize("name, argv", list(_all_runs()), ids=[n for n, _ in _all_runs()])
def test_output_is_byte_identical(golden, batch_path, name, argv):
    assert capture(argv, batch_path) == golden[name]


def test_readme_json_report_is_the_real_output(golden):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### JSON report"):]
    block = section[section.index("```json\n") + len("```json\n"):section.index("```\n\n")]
    assert block == golden["classify-inf --json"]["stdout"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inputs.txt"
        path.write_text(BATCH_LINES, encoding="utf-8")
        runs = {name: capture(argv, str(path)) for name, argv in _all_runs()}
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.exit(0)
