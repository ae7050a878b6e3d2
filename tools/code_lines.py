"""Count the lines of each module of src/kappainv: all lines (as `wc -l`)
and code lines, the physical lines holding a token other than a comment, a
newline or a docstring (a string expression statement).

    python3 tools/code_lines.py [FILE ...]

With no FILE it counts src/kappainv/*.py of this checkout.
"""

import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
_STATEMENT_START = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)


def code_lines(source: str) -> int:
    lines = set()
    prev = tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        t = tok.type
        if t in _SKIPPED:
            if t in _STATEMENT_START:
                prev = t
            continue
        if t == tokenize.STRING and prev in _STATEMENT_START:
            prev = t  # a docstring / string statement
            continue
        prev = t
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> None:
    paths = [Path(p) for p in argv] or sorted(
        (Path(__file__).resolve().parents[1] / "src" / "kappainv").glob("*.py"))
    total_wc = total_code = 0
    print(f"{'wc -l':>7} {'code':>7}  module")
    for path in paths:
        source = path.read_text(encoding="utf-8")
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:>7} {code:>7}  {path.name}")
    print(f"{total_wc:>7} {total_code:>7}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
