"""Known-answer smoke test: every 4th benchmark case of each workload (seed 7)
through the CLI, scored by the benchmark's own oracle.

It reads perfbench/ and changes nothing there.  A case may be wrong only when
it names the known defect that makes it wrong today.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from kappainv import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_fourth_case_scores(name):
    problems = []
    cases = workloads.build(name, 7)[::4]
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
        if code == 1:
            problems.append(f"{case.id}: exit 1 on valid input: {err.getvalue().strip()}")
            continue
        verdict = oracle.score(case, code, out.getvalue())
        if verdict.malformed:
            problems.append(f"{case.id}: {verdict.malformed}")
        elif verdict.wrong and not case.defect:
            problems.append(f"{case.id}: wrong verdict {verdict.statuses}")
    assert cases
    assert not problems, problems
