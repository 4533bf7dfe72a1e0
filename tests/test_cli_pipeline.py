"""The CLI's shared analysis pipeline: one lattice build per command, cap
validation and the import cost of the CLI.  What each command prints is
pinned by the golden corpus (`tests/test_golden.py`)."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from golden import pin

import oscount
from oscount import arrangement, cli, counting, groups
from oscount.fileio import parse_arrangement_file


@pytest.fixture
def braid3_file(tmp_path):
    pin.write_inputs(tmp_path)
    return str(tmp_path / "braid3.arr")


def _json_doc(capsys, argv) -> dict:
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc.pop("timing_seconds"), float)
    return doc


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--catalog", "g4", "--oracle", "nbc", "--json"],
        ["analyze", "$TMP/braid3.arr", "--oracle", "ff", "--json"],
        ["count", "--catalog", "wreath:D4:2", "--json"],
        ["analyze", "$DATA/q8d8.arr", "--oracle", "ff", "--json"],
        ["group", "analyze", "$DATA/g4.grp", "--json"],
        ["group", "analyze", "$DATA/q8d8.grp", "--json"],
    ],
    ids=["count", "analyze", "count-d4-2", "analyze-q8d8-ff", "group", "group-q8d8"],
)
def test_json_document_is_pinned(tmp_path, argv):
    # the document is its golden file's, line by line, so this also pins the key order
    pin.write_inputs(tmp_path)
    assert pin.run(argv, tmp_path) == pin.load(pin.name(argv))


def test_count_and_analyze_build_the_lattice_once(capsys, braid3_file, monkeypatch):
    calls = []
    real = arrangement.intersection_lattice

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(counting, "intersection_lattice", counted)
    monkeypatch.setattr(arrangement, "intersection_lattice", counted)
    # both inputs are real, so the region count runs too
    for argv in (["count", "--catalog", "wreath:A1:2"], ["analyze", braid3_file]):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--catalog", "g4", "--flat-cap"],
        ["count", "--catalog", "g4", "--subset-cap"],
        ["group", "analyze", str(resources.files("oscount.data") / "g4.grp"), "--group-cap"],
        ["count", "--catalog", "g4", "--ff-cap"],
    ],
    ids=lambda argv: f"flag-{argv[-1]}",
)
def test_cap_below_one_is_invalid_input(capsys, argv):
    assert cli.main([*argv, "0"]) == 1
    assert "must be >= 1" in capsys.readouterr().err


Q8D8_ARR = str(resources.files("oscount.data") / "q8d8.arr")
Q8D8_GRP = str(resources.files("oscount.data") / "q8d8.grp")


@pytest.mark.parametrize(
    "argv, needed, unneeded",
    [
        (
            ["group", "analyze", Q8D8_GRP, "--json"],
            ["oscount.groups"],
            ["oscount.arrangement", "oscount.matroid", "oscount.rootdata"],
        ),
        (
            ["count", "--arrangement", Q8D8_ARR, "--weyl-order", "32", "--oracle", "nbc", "--json"],
            ["oscount.arrangement", "oscount.matroid"],
            ["oscount.groups", "oscount.rootdata", "oscount.linalg"],
        ),
        (
            ["analyze", Q8D8_ARR, "--oracle", "ff", "--json"],
            ["oscount.arrangement", "oscount.matroid"],
            ["oscount.groups", "oscount.rootdata", "oscount.linalg"],
        ),
        (
            ["wreath-formula", "--type", "A1", "--n", "2", "--json"],
            ["oscount.rootdata"],
            [
                "oscount.arrangement",
                "oscount.fields",
                "oscount.counting",
                "fractions",
            ],
        ),
        (
            ["count", "--catalog", "q8d8", "--json"],
            ["oscount.arrangement", "oscount.counting"],
            ["oscount.groups", "oscount.linalg"],
        ),
        (
            ["count", "--catalog", "g4"],
            ["oscount.arrangement", "oscount.counting"],
            ["oscount.groups", "oscount.linalg"],
        ),
    ],
    ids=["group-analyze", "count-nbc", "analyze-ff", "wreath-formula", "count-q8d8", "count-g4"],
)
def test_a_command_imports_only_what_it_runs(argv, needed, unneeded):
    # a fresh interpreter runs the command, then reports which of the named
    # modules it loaded; no command loads dataclasses, inspect or numpy
    src = str(Path(oscount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    names = needed + unneeded + ["dataclasses", "inspect", "numpy"]
    code = (
        "import sys; from oscount import cli; code = cli.main(sys.argv[2:]); "
        "print(' '.join(m for m in sys.argv[1].split(',') if m in sys.modules)); "
        "sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, ",".join(names), *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == needed


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--catalog", "g4", "--json"], ""),
        (["--catalog", "g4"], ""),
        (
            ["--catalog", "wreath:A3:2", "--flat-cap", "100", "--json"],
            "error: flat cap 100 exceeded at codimension 2\n",
        ),
    ],
    ids=["json", "text", "capped-json"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv, message):
    # the capped run reports its cap on stderr, then fails to print its partial work
    src = str(Path(oscount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oscount.cli", "count", *argv],
            env=env,
            stdout=write,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (1, message)


def test_selftest_fails_a_tampered_count_under_python_O():
    # -O strips assert statements, so a check written as one would pass
    src = str(Path(oscount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from oscount import cli, counting\n"
        "real = counting.catalog\n"
        "def tampered(name):\n"
        "    entry = real(name)\n"
        "    if entry.name == 'q8d8':\n"
        "        entry.expected['count'] += 1\n"
        "    return entry\n"
        "counting.catalog = tampered\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["selftest", "--skip", "ff", "--skip", "nbc", "--json"]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    doc = json.loads(proc.stdout)
    failed = [(c["name"], c["detail"]) for c in doc["checks"] if c["status"] == "FAIL"]
    assert failed == [
        ("q8d8 arrangement + count 82", "catalog q8d8: computed count 81 != published 82")
    ]


def test_the_one_copy_of_the_weyl_order_is_checked_twice(capsys, monkeypatch):
    # count --catalog divides by entry.weyl_order and checks the published
    # count; selftest also compares it with the group route's |W|
    real = counting.catalog
    doubled = {"q8d8": 64, "g4": 6}

    def tampered(name):
        entry = real(name)
        return entry._replace(weyl_order=doubled.get(entry.name, entry.weyl_order))

    monkeypatch.setattr(counting, "catalog", tampered)
    assert cli.main(["selftest", "--skip", "ff", "--skip", "nbc", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    failed = [(c["name"], c["detail"]) for c in doc["checks"] if c["status"] == "FAIL"]
    assert failed == [
        (
            "q8d8 arrangement + count 81",
            "OS dimension 2592 is not divisible by |W| = 64; wrong Weyl order or wrong arrangement",
        ),
        ("q8d8 group pipeline", "|W| = 32"),
        ("g4 arrangement + count 2", "catalog g4: computed count 1 != published 2"),
        ("g4 group pipeline", "|W| = 3"),
    ]
    assert cli.main(["count", "--catalog", "q8d8"]) == 3
    assert cli.main(["count", "--catalog", "g4"]) == 3
    assert "computed count 1 != published 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, message",
    [
        ("q8d8", "catalog q8d8: computed Poincare t^1 coefficient 22 != published 21"),
        ("g4", "catalog g4: computed Poincare t^1 coefficient 4 != published 3"),
        (
            "wreath:D4:2",
            "catalog wreath:d4:2: computed Poincare t^1 coefficient 38 != published 37",
        ),
    ],
)
def test_count_catalog_fails_a_fault_that_keeps_pi_at_one(capsys, monkeypatch, name, message):
    # pi_1 + 1 and pi_2 - 1 keep pi(1), so the count alone cannot see it
    real = counting.poincare_polynomial

    def swapped(lattice):
        c = list(real(lattice))
        c[1], c[2] = c[1] + 1, c[2] - 1
        return tuple(c)

    monkeypatch.setattr(counting, "poincare_polynomial", swapped)
    assert cli.main(["count", "--catalog", name]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ff_oracle_runs_with_numpy_unimportable():
    src = str(Path(oscount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    code = (
        "import sys; sys.modules['numpy'] = None; from oscount import cli; "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    data = str(Path(oscount.__file__).parent / "data")
    argv = ["analyze", "$DATA/q8d8.arr", "--oracle", "ff", "--json"]
    real = [a.replace("$DATA", data) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", code, *real], env=env, capture_output=True, text=True
    )
    got = pin.document(argv, proc.returncode, proc.stdout, proc.stderr, {"$DATA": data})
    assert got == pin.load(pin.name(argv))


def test_output_does_not_depend_on_the_hash_seed():
    src = str(Path(oscount.__file__).resolve().parents[1])
    grp = str(resources.files("oscount.data") / "g4.grp")

    def outputs(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        runs = []
        for argv in (["count", "--catalog", "q8d8", "--oracle", "ff"], ["group", "analyze", grp]):
            proc = subprocess.run(
                [sys.executable, "-m", "oscount.cli", *argv, "--json"],
                env=env, capture_output=True, text=True,
            )
            doc = json.loads(proc.stdout)
            assert isinstance(doc.pop("timing_seconds"), float)
            runs.append((proc.returncode, json.dumps(doc), proc.stderr))
        return runs

    assert outputs("0") == outputs("12345")


@pytest.mark.parametrize("verb", ["count", "analyze"])
def test_ff_oracle_reuses_the_exact_lattice(capsys, braid3_file, monkeypatch, verb):
    calls = []
    real = arrangement.intersection_lattice

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(counting, "intersection_lattice", counted)
    monkeypatch.setattr(arrangement, "intersection_lattice", counted)
    argv = ["count", "--catalog", "wreath:A1:2"] if verb == "count" else ["analyze", braid3_file]
    assert cli.main(argv + ["--oracle", "ff"]) == 0
    assert len(calls) == 1


def test_cap_error_reports_partial_work_as_json(capsys):
    q8d8 = str(resources.files("oscount.data") / "q8d8.arr")
    argv = ["count", "--arrangement", q8d8, "--weyl-order", "32", "--flat-cap", "567"]
    message = "flat cap 567 exceeded at codimension 5"
    assert cli.main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "error": message,
        "partial": {"flats_per_level": [1, 21, 130, 270, 145]},
    }
    assert err == f"error: {message}\n"
    # without --json, and for a cap error with no partial work, stdout stays empty
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # q = 2 is bad for wreath:A1:2 (its good primes are 3 and 5), and 3^2 > 8
    ff_capped = ["count", "--catalog", "wreath:A1:2", "--oracle", "ff", "--ff-cap", "8"]
    message = "found only 0 good primes with q^l <= cap 8"
    assert cli.main(ff_capped + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": message, "partial": {"good_primes": [], "last_q": 3}}
    assert err == f"error: {message}\n"


def test_group_cap_error_reports_completed_layers(capsys, tmp_path):
    # diag(zeta, zeta^-1) over Q(zeta_60), cyclic of order 60: one element
    # per layer until the cap
    zeta, inverse = "(0,1" + ",0" * 14 + ")", "(0,-1,0,0,0,1,0,1,0,1,0,0,0,-1,0,-1)"
    zero = "(0" + ",0" * 15 + ")"
    cyclic = tmp_path / "cyclic60.grp"
    cyclic.write_text(
        "field cyclotomic 60\ndim 2\nsymplectic_form\n0 1\n-1 0\n"
        f"generator\n{zeta} {zero}\n{zero} {inverse}\n"
    )
    message = "group enumeration cap 50 exceeded"
    argv = ["group", "analyze", str(cyclic), "--group-cap", "50", "--json"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": message, "partial": {"elements_per_layer": [1] * 50}}
    assert err == f"error: {message}\n"


def test_group_analyze_computes_each_invariant_once(capsys, monkeypatch):
    calls = []
    for name in ("symplectic_reflections", "minimal_parabolics"):
        real = getattr(groups, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(groups, name, counted)
    g4 = str(resources.files("oscount.data") / "g4.grp")
    assert cli.main(["group", "analyze", g4, "--json"]) == 0
    assert sorted(calls) == ["minimal_parabolics", "symplectic_reflections"]


def test_1100_concurrent_lines(capsys, tmp_path):
    # every line meets every other only at the origin: the lattice is
    # [1, 1100, 1], and a build that reduced every pair of lines took 5.5 s
    lines = [f"hyperplane 1 {k}" for k in range(1100)]
    path = tmp_path / "lines.arr"
    path.write_text("\n".join(["field rational", "dim 2", *lines]) + "\n")
    doc = _json_doc(capsys, ["analyze", str(path), "--oracle", "nbc", "--json"])
    assert doc["flats_per_level"] == [1, 1100, 1]
    assert doc["oracle_results"] == {
        "oracle": "nbc",
        "nbc_betti": [1, 1100, 1099],
        "agrees": True,
    }
    lines = parse_arrangement_file(str(path))
    start = time.perf_counter()
    assert arrangement.intersection_lattice(lines).flats_per_level() == [1, 1100, 1]
    assert time.perf_counter() - start < 2
