"""The CLI's shared analysis pipeline: pinned JSON documents, one lattice
build per command, cap validation and the import cost of the CLI."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import oscount
from oscount import arrangement, cli, counting, groups
from oscount.fileio import parse_arrangement_file
from oscount.polynomial import IntegerPolynomial

CAPS = {"flat_cap": 2000000, "subset_cap": 2000000, "group_cap": 200000, "ff_cap": 100000000}

BRAID3 = "field rational\ndim 3\nhyperplane 1 -1 0\nhyperplane 1 0 -1\nhyperplane 0 1 -1\n"

COUNT_G4_NBC = {
    "command": "count",
    "num_hyperplanes": 3,
    "ambient_dim": 2,
    "rank": 2,
    "char_poly": {"coefficients": [2, -3, 1], "text": "t^2 - 3*t + 2"},
    "poincare_poly": {"coefficients": [1, 3, 2], "text": "2*t^2 + 3*t + 1"},
    "os_dimension": 6,
    "weyl_order": 3,
    "resolution_count": 2,
    "flats_per_level": [1, 3, 1],
    "moebius_checksum": [1, -3, 2],
    "oracle_results": {"oracle": "nbc", "nbc_betti": [1, 3, 2], "agrees": True},
    "caps": CAPS,
}

ANALYZE_BRAID3_FF = {
    "command": "analyze",
    "field": {"kind": "rational", "conductor": 1, "degree": 1},
    "ambient_dim": 3,
    "central": True,
    "num_hyperplanes": 3,
    "hyperplanes": ["1 -1 0 0", "1 0 -1 0", "0 1 -1 0"],
    "rank": 2,
    "char_poly": {"coefficients": [0, 2, -3, 1], "text": "t^3 - 3*t^2 + 2*t"},
    "poincare_poly": {"coefficients": [1, 3, 2], "text": "2*t^2 + 3*t + 1"},
    "os_dimension": 6,
    "flats_per_level": [1, 3, 1],
    "moebius_checksum": [1, -3, 2],
    "regions": 6,
    "bounded_regions": 0,
    "oracle_results": {
        "oracle": "ff",
        "finite_field": [
            {"q": 2, "count": 0, "chi": 0, "agrees": True},
            {"q": 3, "count": 6, "chi": 6, "agrees": True},
        ],
        "agrees": True,
    },
    "caps": CAPS,
}

COUNT_D4_2 = {
    "command": "count",
    "num_hyperplanes": 37,
    "ambient_dim": 5,
    "rank": 5,
    "char_poly": {
        "coefficients": [-6237, 9081, -3326, 518, -37, 1],
        "text": "t^5 - 37*t^4 + 518*t^3 - 3326*t^2 + 9081*t - 6237",
    },
    "poincare_poly": {
        "coefficients": [1, 37, 518, 3326, 9081, 6237],
        "text": "6237*t^5 + 9081*t^4 + 3326*t^3 + 518*t^2 + 37*t + 1",
    },
    "os_dimension": 19200,
    "weyl_order": 384,
    "resolution_count": 50,
    "flats_per_level": [1, 37, 382, 1258, 1009, 1],
    "moebius_checksum": [1, -37, 518, -3326, 9081, -6237],
    "regions": 19200,
    "bounded_regions": 0,
    "caps": CAPS,
}

ANALYZE_Q8D8_FF = {
    "command": "analyze",
    "field": {"kind": "rational", "conductor": 1, "degree": 1},
    "ambient_dim": 5,
    "central": True,
    "num_hyperplanes": 21,
    "hyperplanes": [
        "1 1 1 1 1 0", "1 1 1 1 -1 0", "1 1 1 -1 1 0", "1 1 1 -1 -1 0",
        "1 1 -1 1 1 0", "1 1 -1 1 -1 0", "1 1 -1 -1 1 0", "1 1 -1 -1 -1 0",
        "1 -1 1 1 1 0", "1 -1 1 1 -1 0", "1 -1 1 -1 1 0", "1 -1 1 -1 -1 0",
        "1 -1 -1 1 1 0", "1 -1 -1 1 -1 0", "1 -1 -1 -1 1 0", "1 -1 -1 -1 -1 0",
        "1 0 0 0 0 0", "0 1 0 0 0 0", "0 0 1 0 0 0", "0 0 0 1 0 0", "0 0 0 0 1 0",
    ],
    "rank": 5,
    "char_poly": {
        "coefficients": [-625, 1125, -650, 170, -21, 1],
        "text": "t^5 - 21*t^4 + 170*t^3 - 650*t^2 + 1125*t - 625",
    },
    "poincare_poly": {
        "coefficients": [1, 21, 170, 650, 1125, 625],
        "text": "625*t^5 + 1125*t^4 + 650*t^3 + 170*t^2 + 21*t + 1",
    },
    "os_dimension": 2592,
    "flats_per_level": [1, 21, 130, 270, 145, 1],
    "moebius_checksum": [1, -21, 170, -650, 1125, -625],
    "regions": 2592,
    "bounded_regions": 0,
    "oracle_results": {
        "oracle": "ff",
        "finite_field": [
            {"q": 5, "count": 0, "chi": 0, "agrees": True},
            {"q": 7, "count": 96, "chi": 96, "agrees": True},
        ],
        "agrees": True,
    },
    "caps": CAPS,
}

GROUP_G4 = {
    "command": "group analyze",
    "field": {"kind": "cyclotomic", "conductor": 3, "degree": 2},
    "dim": 4,
    "order": 24,
    "num_reflection_classes": 2,
    "reflection_class_sizes": [4, 4],
    "parabolic_classes": [
        {
            "subgroup_order": 3,
            "kleinian_label": "A2",
            "num_conjugates": 4,
            "normalizer_order": 6,
            "xi_order": 2,
            "xi_class_action_trivial": True,
            "orbit_count": 2,
        }
    ],
    "zeta_bijection": {
        "num_reflection_classes": 2,
        "num_parabolic_orbits": 2,
        "matching": [
            {"parabolic": 0, "orbit": 0, "reflection_class": 0},
            {"parabolic": 0, "orbit": 1, "reflection_class": 1},
        ],
        "bijective": True,
    },
    "namikawa_weyl": {"factors": [["A2", 3]], "total_order": 3},
    "caps": CAPS,
}


# q8d8's five parabolic classes are alike: Z/2 with two conjugates each
Q8D8_PARABOLIC = {
    "subgroup_order": 2,
    "kleinian_label": "A1",
    "num_conjugates": 2,
    "normalizer_order": 16,
    "xi_order": 8,
    "xi_class_action_trivial": True,
    "orbit_count": 1,
}

GROUP_Q8D8 = {
    "command": "group analyze",
    "field": {"kind": "cyclotomic", "conductor": 4, "degree": 2},
    "dim": 4,
    "order": 32,
    "num_reflection_classes": 5,
    "reflection_class_sizes": [2, 2, 2, 2, 2],
    "parabolic_classes": [Q8D8_PARABOLIC] * 5,
    "zeta_bijection": {
        "num_reflection_classes": 5,
        "num_parabolic_orbits": 5,
        "matching": [
            {"parabolic": 0, "orbit": 0, "reflection_class": 0},
            {"parabolic": 1, "orbit": 0, "reflection_class": 1},
            {"parabolic": 2, "orbit": 0, "reflection_class": 2},
            {"parabolic": 3, "orbit": 0, "reflection_class": 3},
            {"parabolic": 4, "orbit": 0, "reflection_class": 4},
        ],
        "bijective": True,
    },
    "namikawa_weyl": {"factors": [["A1", 2]] * 5, "total_order": 32},
    "caps": CAPS,
}


@pytest.fixture
def braid3_file(tmp_path):
    path = tmp_path / "braid3.arr"
    path.write_text(BRAID3)
    return str(path)


def _json_doc(capsys, argv) -> dict:
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc.pop("timing_seconds"), float)
    return doc


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "--catalog", "g4", "--oracle", "nbc", "--json"], COUNT_G4_NBC),
        (["analyze", "BRAID3", "--oracle", "ff", "--json"], ANALYZE_BRAID3_FF),
        (["count", "--catalog", "wreath:D4:2", "--json"], COUNT_D4_2),
        (
            ["analyze", str(resources.files("oscount.data") / "q8d8.arr"), "--oracle", "ff"]
            + ["--json"],
            ANALYZE_Q8D8_FF,
        ),
        (
            ["group", "analyze", str(resources.files("oscount.data") / "g4.grp"), "--json"],
            GROUP_G4,
        ),
        (
            ["group", "analyze", str(resources.files("oscount.data") / "q8d8.grp"), "--json"],
            GROUP_Q8D8,
        ),
    ],
    ids=["count", "analyze", "count-d4-2", "analyze-q8d8-ff", "group", "group-q8d8"],
)
def test_json_document_is_pinned(capsys, braid3_file, argv, expected):
    argv = [braid3_file if a == "BRAID3" else a for a in argv]
    # json.dumps keeps insertion order, so this also pins the key order
    assert json.dumps(_json_doc(capsys, argv)) == json.dumps(expected)


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
                "oscount.polynomial",
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
        c = list(real(lattice).coefficients)
        c[1], c[2] = c[1] + 1, c[2] - 1
        return IntegerPolynomial(c)

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
    path = str(resources.files("oscount.data") / "q8d8.arr")
    argv = ["analyze", path, "--oracle", "ff", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert isinstance(doc.pop("timing_seconds"), float)
    assert json.dumps(doc) == json.dumps(ANALYZE_Q8D8_FF)


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
    q8d8 = str(resources.files("oscount.data") / "q8d8.grp")
    argv = ["group", "analyze", q8d8, "--group-cap", "10"]
    message = "group enumeration cap 10 exceeded"
    assert cli.main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    # the identity, then the 4 elements one generator away; the next layer overflows
    assert json.loads(out) == {"error": message, "partial": {"elements_per_layer": [1, 4]}}
    assert err == f"error: {message}\n"
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
