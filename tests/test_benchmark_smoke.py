"""Known-answer smoke test: every 4th benchmark case of each workload (seed 7)
through the CLI, scored by the benchmark's own oracle.

It reads perfbench/ and changes nothing there.  A case may be wrong only when
it names the known defect that makes it wrong today.  The cases' stdout is
hashed as perfbench/run.py hashes its first pass and must match the digest
recorded here: an intended output change updates the digest and says why.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from kappainv import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

DIGESTS = {
    "discriminants": "cc86c610a86f2909cc21b72c3c0690e23da739695a16a3337b052b3e1744acf6",
    "field-roots": "e16e5d40489ceaecd1d9f5df5ab75fa1763a568cd710fb018db8eff984eb8eb8",
    "towers": "ca4791c71dd2030614d70252e05753e23686bda3327df49f7aeec26f98d8427c",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_fourth_case_scores(name):
    problems = []
    digest = hashlib.sha256()
    cases = workloads.build(name, 7)[::4]
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
        digest.update(f"{case.id}\n{out.getvalue()}\n".encode())
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
    assert digest.hexdigest() == DIGESTS[name]
