"""Every executable line of `src/oscount` runs under the tier-1 suite.

    PYTHONPATH=src python tests/check_line_coverage.py

Runs the suite in process under `sys.settrace` (about 2 min, so the name
keeps it out of the suite) and names each unreached line that the
allow-list does not name, and each entry that no unreached line matches.
The lines are those of the modules' code objects (`co_lines`), a set that
CI checks on Python 3.11.  Bodies of `if TYPE_CHECKING:` blocks never run.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {  # (module, stripped line): why only a subprocess test reaches it
    ("cli", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): "closed stdout",
    ("cli", "return 1"): "after the closed-stdout dup2",
    ("cli", "sys.exit(main())"): "`python -m oscount.cli`",
}


def executable_lines(source: str) -> set[int]:
    lines, stack = set(), [compile(source, "", "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def main() -> int:
    files = {str(path): path for path in (ROOT / "src" / "oscount").glob("*.py")}
    reached = set()

    def line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    sys.settrace(lambda frame, *_: line if frame.f_code.co_filename in files else None)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    if status:
        print(f"the suite failed (pytest exit {status})")
        return 1
    allowance, failures, total, unreached = Counter(ALLOWED.keys()), [], 0, 0
    for name, path in sorted(files.items()):
        text = path.read_text()
        lines = executable_lines(text)
        total += len(lines)
        for n in sorted(lines - {n for f, n in reached if f == name}):
            key, unreached = (path.stem, text.splitlines()[n - 1].strip()), unreached + 1
            if allowance[key]:
                allowance[key] -= 1
            else:
                failures.append(f"not reached: {path.relative_to(ROOT)}:{n}: {key[1]}")
    failures += [f"allowed but reached or gone: {m}: {t}" for (m, t), k in allowance.items() if k]
    print(*failures, f"{total - unreached} of {total} executable lines reached", sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
