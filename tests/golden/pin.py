"""The golden corpus: one JSON file per command, beside this script, holding
its argv, exit code, stdout and stderr.

    PYTHONPATH=src python tests/golden/pin.py              # rewrite every file
    python tests/golden/pin.py --installed NAME [NAME ...]  # check `oscount` on PATH

The first form runs every command of COMMANDS in process through `cli.main`
and rewrites the files (removing any that no command names);
`tests/test_golden.py` runs them the same way and compares.  The second runs
the named files' commands with the `oscount` console script on PATH, so a
packaging fault such as a stale `data/` file shows as a difference.

`$DATA` in an argv stands for the package's data directory and `$TMP` for a
scratch directory that the commands share, run in file-name order (the
`catalan --out` file is the `cone` input) after INPUTS are written into it;
in the output each path is written back as its placeholder.  Timing is masked: `timing_seconds` and
selftest's `in X.Xs`.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# test_every_public_function_is_entered_by_a_command runs these, in this
# order (`catalan --out` writes the `cone` input), and checks each exit code
# against its file: together they enter every public function
PUBLIC_NAMES_GUARD = [
    ["analyze", "$DATA/q8d8.arr", "--oracle", "nbc", "--json"],
    ["analyze", "$DATA/q8d8.arr", "--oracle", "ff"],
    ["catalan", "--type", "A2", "--n", "2"],
    ["catalan", "--type", "A2", "--n", "2", "--affine", "--out", "$TMP/affine.arr"],
    ["cone", "$TMP/affine.arr", "--json"],
    ["count", "--catalog", "q8d8", "--json"],
    ["count", "--catalog", "g4"],
    ["count", "--catalog", "wreath:A2:2", "--oracle", "nbc"],
    ["count", "--catalog", "wreath:A3:2", "--flat-cap", "100", "--json"],
    ["count", "--catalog", "q8d8", "--oracle", "ff"],
    ["count", "--arrangement", "$DATA/q8d8.arr", "--weyl-order", "32"],
    ["wreath-formula", "--type", "D4", "--n", "3", "--json"],
    ["group", "analyze", "$DATA/q8d8.grp"],
    ["group", "analyze", "$DATA/g4.grp", "--json"],
    ["selftest"],
    ["selftest", "--json"],
]
# the inputs that neither the data directory nor an earlier command provides
INPUTS = {
    "braid3.arr": "field rational\ndim 3\nhyperplane 1 -1 0\nhyperplane 1 0 -1\nhyperplane 0 1 -1\n",
}
_CATALOG = [
    ["count", "--catalog", name, *oracle, *json_flag]
    for name in ("q8d8", "g4", "wreath:A2:2", "wreath:A3:2", "wreath:D4:2")
    for oracle in (["--oracle", "nbc"], ["--oracle", "ff"], [])
    for json_flag in ([], ["--json"])
]
COMMANDS = [
    *PUBLIC_NAMES_GUARD,
    *(argv for argv in _CATALOG if argv not in PUBLIC_NAMES_GUARD),
    # D5:2 has no oracle rows: each takes seconds
    ["count", "--catalog", "wreath:D5:2"],
    ["count", "--catalog", "wreath:D5:2", "--json"],
    ["analyze", "$DATA/g4.arr"],
    ["analyze", "$DATA/q8d8.arr", "--oracle", "ff", "--json"],
    ["analyze", "$TMP/braid3.arr", "--oracle", "ff", "--json"],
    ["group", "analyze", "$DATA/q8d8.grp", "--json"],
    ["group", "analyze", "$DATA/g4.grp"],
    ["selftest", "--skip", "ff", "--json"],
    # exit 1: invalid input
    ["count"],
    ["count", "--catalog", "nope"],
    ["count", "--catalog", "wreath:A2"],
    ["count", "--catalog", "wreath:A2:x"],
    ["count", "--catalog", "q8d8", "--arrangement", "$DATA/q8d8.arr"],
    ["count", "--catalog", "g4", "--weyl-order", "5"],
    ["count", "--arrangement", "$DATA/q8d8.arr"],
    ["count", "--arrangement", "$DATA/q8d8.arr", "--weyl-order", "0"],
    # exit 2: each cap, and its partial work with --json
    ["analyze", "$DATA/q8d8.arr", "--flat-cap", "10"],
    ["count", "--catalog", "wreath:D4:2", "--flat-cap", "2687", "--json"],
    ["count", "--catalog", "q8d8", "--flat-cap", "567", "--json"],
    ["count", "--catalog", "q8d8", "--oracle", "nbc", "--subset-cap", "100", "--json"],
    ["count", "--catalog", "q8d8", "--oracle", "ff", "--ff-cap", "1000", "--json"],
    ["group", "analyze", "$DATA/q8d8.grp", "--group-cap", "10", "--json"],
    # exit 3: 2592 is not divisible by 7
    ["count", "--arrangement", "$DATA/q8d8.arr", "--weyl-order", "7"],
]

_TIMING = [
    (re.compile(r'"timing_seconds": [0-9.e+-]+'), '"timing_seconds": "masked"'),
    (re.compile(r" skipped in [0-9.]+s$", re.M), " skipped in X.Xs"),
]


def name(argv: list[str]) -> str:
    """The file stem of a command: its words, each run of other characters a dash."""
    words = " ".join(argv).replace("$DATA/", "").replace("$TMP/", "")
    return re.sub(r"[^A-Za-z0-9]+", "-", words).strip("-")


def mask(text: str, places: dict[str, str]) -> list[str]:
    """The output's lines, each path written back as its placeholder and the
    timing masked."""
    for placeholder, path in places.items():
        text = text.replace(path, placeholder)
    for pattern, replacement in _TIMING:
        text = pattern.sub(replacement, text)
    return text.split("\n")


def document(argv: list[str], code: int, out: str, err: str, places: dict[str, str]) -> dict:
    return {"argv": argv, "exit": code, "stdout": mask(out, places), "stderr": mask(err, places)}


def run(argv: list[str], tmp: Path) -> dict:
    """The command's document, run in process through `cli.main`."""
    import oscount
    from oscount import cli

    places = {"$DATA": str(Path(oscount.__file__).parent / "data"), "$TMP": str(tmp)}
    real = [arg.replace("$DATA", places["$DATA"]).replace("$TMP", places["$TMP"]) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    return document(argv, code, out.getvalue(), err.getvalue(), places)


def write_inputs(tmp: Path) -> None:
    for file, text in INPUTS.items():
        (tmp / file).write_text(text, encoding="utf-8")


def files() -> list[Path]:
    return sorted(HERE.glob("*.json"))


def load(stem: str) -> dict:
    """The document pinned in the file `stem`.json."""
    return json.loads((HERE / f"{stem}.json").read_text(encoding="utf-8"))


def diff(expected: dict, got: dict) -> str:
    """The lines of the two documents that differ, as a unified diff."""
    a, b = (json.dumps(d, indent=1).splitlines() for d in (expected, got))
    return "\n".join(difflib.unified_diff(a, b, "golden", "now", lineterm=""))


def rewrite() -> int:
    stems = {name(argv) for argv in COMMANDS}
    if len(stems) != len(COMMANDS):
        print("two commands share a file name")
        return 1
    for path in files():
        if path.stem not in stems:
            path.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for argv in sorted(COMMANDS, key=name):
            text = json.dumps(run(argv, Path(tmp)), indent=1, ensure_ascii=False) + "\n"
            (HERE / f"{name(argv)}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(COMMANDS)} files")
    return 0


def check_installed(names: list[str]) -> int:
    """Run each named file's command (no placeholders) as `oscount ...` and
    print the difference from its file; 1 when any differs."""
    failed = 0
    for stem in names:
        expected = load(stem)
        argv = expected["argv"]
        proc = subprocess.run(["oscount", *argv], capture_output=True, text=True)
        got = document(argv, proc.returncode, proc.stdout, proc.stderr, {})
        if got != expected:
            print(f"{stem}: differs\n{diff(expected, got)}")
            failed = 1
        else:
            print(f"{stem}: same")
    return failed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--installed"]:
        sys.exit(check_installed(sys.argv[2:]))
    sys.exit(rewrite())
