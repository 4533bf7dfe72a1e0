import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from conftest import fraction_coords, group_text, identity, quaternion_group, wreath2

from oscount import cli, counting, groups, matroid
from oscount.arrangement import MAX_BOUND_BITS
from oscount.counting import catalog
from oscount.errors import InvalidInputError
from oscount.fields import MAX_CONDUCTOR, cyclotomic_field, rational_field
from oscount.fileio import (
    MAX_DIM,
    parse_arrangement_file,
    parse_arrangement_text,
    parse_group_text,
    serialize_arrangement,
)
from oscount.groups import MatrixGroup


def data_path(name: str) -> str:
    return str(resources.files("oscount.data") / name)


# The 16 sign hyperplanes x1 +- x2 +- x3 +- x4 +- x5 = 0, then the 5
# coordinate hyperplanes, in the order the nbc walk and the subset cap use.
Q8D8_NORMALS = [
    (1, 1, 1, 1, 1), (1, 1, 1, 1, -1), (1, 1, 1, -1, 1), (1, 1, 1, -1, -1),
    (1, 1, -1, 1, 1), (1, 1, -1, 1, -1), (1, 1, -1, -1, 1), (1, 1, -1, -1, -1),
    (1, -1, 1, 1, 1), (1, -1, 1, 1, -1), (1, -1, 1, -1, 1), (1, -1, 1, -1, -1),
    (1, -1, -1, 1, 1), (1, -1, -1, 1, -1), (1, -1, -1, -1, 1), (1, -1, -1, -1, -1),
    (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
]


def test_shipped_q8d8_file():
    arr = parse_arrangement_file(data_path("q8d8.arr"))
    assert len(arr.hyperplanes) == 21
    assert arr.ambient_dim == 5
    assert arr.field.is_rational
    assert arr.central
    normals = [tuple(fraction_coords(x)[0] for x in h.normal) for h in arr.hyperplanes]
    assert normals == Q8D8_NORMALS
    assert arr.hyperplanes == catalog("q8d8").arrangement.hyperplanes


def test_g4_file_from_spec_rows():
    text = """# comment
field cyclotomic 3
dim 2
hyperplane (1,0) (1,0)
hyperplane (0,1) (-1,-1)
hyperplane (-1,-1) (0,1)
"""
    arr = parse_arrangement_text(text)
    g4 = catalog("g4").arrangement
    assert (arr.field.conductor, arr.ambient_dim) == (g4.field.conductor, g4.ambient_dim)
    assert {h.row() for h in arr.hyperplanes} == {h.row() for h in g4.hyperplanes}


def test_empty_hyperplane_list_is_valid():
    arr = parse_arrangement_text("field rational\ndim 3\n")
    assert len(arr.hyperplanes) == 0 and arr.ambient_dim == 3


def test_round_trip_stability():
    for name in ("q8d8", "g4"):
        arr = catalog(name).arrangement
        text = serialize_arrangement(arr)
        again = parse_arrangement_text(text)
        assert again.hyperplanes == arr.hyperplanes
        assert serialize_arrangement(again) == text


def test_malformed_line_reports_line_number():
    with pytest.raises(InvalidInputError, match="line 3"):
        parse_arrangement_text("field rational\ndim 2\nhyperplane 1 junk\n")
    with pytest.raises(InvalidInputError, match="line 1"):
        parse_arrangement_text("frobnicate\n")
    with pytest.raises(InvalidInputError, match="line 1"):
        parse_arrangement_text("field\n")
    with pytest.raises(InvalidInputError, match="line 4: hyperplane 1: bad rational token '1/0'"):
        parse_arrangement_text("field rational\ndim 2\n\nhyperplane 1/0 1\n")


def test_wrong_coefficient_count_names_hyperplane():
    with pytest.raises(InvalidInputError, match="hyperplane 2"):
        parse_arrangement_text("field rational\ndim 2\nhyperplane 1 0\nhyperplane 1\n")


def test_group_file_errors():
    with pytest.raises(InvalidInputError, match="symplectic_form"):
        parse_group_text("field rational\ndim 2\ngenerator\n1 0\n0 1\n")
    with pytest.raises(InvalidInputError, match="rows"):
        parse_group_text(
            "field rational\ndim 2\nsymplectic_form\n0 1\n-1 0\ngenerator\n1 0\n"
        )
    with pytest.raises(InvalidInputError, match="line 1"):
        parse_group_text("field\n")


def test_cli_count_catalog(capsys):
    assert cli.main(["count", "--catalog", "g4"]) == 0
    out = capsys.readouterr().out
    assert "resolution count: 2" in out


def test_cli_count_json_structure(capsys):
    assert cli.main(["count", "--catalog", "wreath:A1:2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["os_dimension"] == 8
    assert doc["weyl_order"] == 4
    assert doc["resolution_count"] == 2
    assert doc["poincare_poly"]["coefficients"] == [1, 4, 3]


def test_cli_analyze_with_oracles(capsys, tmp_path):
    path = tmp_path / "g4.arr"
    path.write_text(serialize_arrangement(catalog("g4").arrangement))
    assert cli.main(["analyze", str(path), "--oracle", "nbc", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["os_dimension"] == 6
    assert doc["oracle_results"]["nbc_betti"] == [1, 3, 2]
    assert "regions" not in doc  # non-real arrangement


def test_cli_analyze_ff_oracle(capsys, tmp_path):
    path = tmp_path / "braid.arr"
    path.write_text(
        "field rational\ndim 3\nhyperplane 1 -1 0\nhyperplane 1 0 -1\nhyperplane 0 1 -1\n"
    )
    assert cli.main(["analyze", str(path), "--oracle", "ff", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_results"]["agrees"] is True


@pytest.mark.parametrize("oracle", ["nbc", "ff"])
def test_cli_analyze_with_no_hyperplanes(capsys, tmp_path, oracle):
    # chi = t^3; the ff oracle counts every point of F_q^3
    path = tmp_path / "empty.arr"
    path.write_text("field rational\ndim 3\n")
    assert cli.main(["analyze", str(path), "--oracle", oracle, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["char_poly"] == {"coefficients": [0, 0, 0, 1], "text": "t^3"}
    assert doc["oracle_results"]["agrees"] is True


def test_a_disagreeing_nbc_oracle_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(matroid, "nbc_betti", lambda *args: [1, 21, 170, 650, 1125, 626])
    assert cli.main(["count", "--catalog", "q8d8", "--oracle", "nbc"]) == 3
    assert capsys.readouterr().err == (
        "error: nbc oracle [1, 21, 170, 650, 1125, 626] "
        "!= Poincare coefficients [1, 21, 170, 650, 1125, 625]\n"
    )


def test_a_disagreeing_finite_field_oracle_exits_3(capsys, monkeypatch):
    real = matroid.finite_field_count
    monkeypatch.setattr(matroid, "finite_field_count", lambda *args: real(*args) + 1)
    assert cli.main(["count", "--catalog", "q8d8", "--oracle", "ff"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: finite-field oracle disagrees: [{'q': ")
    assert "'agrees': False" in err


def test_cli_ff_oracle_takes_coefficients_beyond_64_bits(capsys, tmp_path):
    # three distinct lines through 0 in the plane: chi = (t - 1)(t - 2); the
    # coefficient 10^30 + 1 does not fit a machine word before reduction mod q
    path = tmp_path / "wide.arr"
    path.write_text(
        "field rational\ndim 2\nhyperplane 1 0\nhyperplane 0 1\n"
        "hyperplane 1 1000000000000000000000000000001\n"
    )
    assert cli.main(["analyze", str(path), "--oracle", "ff", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["oracle_results"]["finite_field"]
    assert results
    for r in results:
        assert r["count"] == r["chi"] == (r["q"] - 1) * (r["q"] - 2)


def test_cli_json_is_deterministic_except_timing(capsys):
    def run():
        assert cli.main(["count", "--catalog", "g4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timing_seconds")
        return json.dumps(doc, sort_keys=False)

    assert run() == run()


def test_cli_exit_code_invalid_input(capsys):
    assert cli.main(["count", "--catalog", "nope"]) == 1
    assert cli.main(["analyze", "/nonexistent/file.arr"]) == 1
    assert cli.main(["count", "--arrangement", "/nonexistent.arr"]) == 1


def test_help_exits_0_with_usage_on_stdout(capsys):
    # argparse ends --help with SystemExit(0), which `cli.main` lets through
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oscount.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ")


def test_count_catalog_refuses_every_wreath_n_below_2_with_one_message(capsys):
    assert cli.main(["count", "--catalog", "wreath:A1:0"]) == 1
    assert capsys.readouterr() == (
        "", "error: catalog 'wreath:a1:0': the wreath entries need n >= 2\n"
    )
    assert cli.main(["count", "--catalog", "wreath:A1:1", "--json"]) == 1
    assert capsys.readouterr().err == (
        "error: catalog 'wreath:a1:1': the wreath entries need n >= 2; "
        "for n = 1 run `oscount wreath-formula --type A1 --n 1`\n"
    )


def test_catalan_with_n_0_exits_1(capsys):
    assert cli.main(["catalan", "--type", "A2", "--n", "0"]) == 1
    assert capsys.readouterr() == ("", "error: wreath parameter n must be >= 1\n")


@pytest.mark.parametrize(
    "command, suffix, data",
    [
        (["analyze"], ".arr", b"\x00\xff\xfe"),
        (["analyze"], ".arr", "field rational\ndim 1\nhyperplane 1 # \u00e9\n".encode("latin-1")),
        (["cone"], ".arr", b"\x00\xff\xfe"),
        (["group", "analyze"], ".grp", b"\x00\xff\xfe"),
    ],
    ids=["analyze-binary", "analyze-latin1", "cone-binary", "group-analyze-binary"],
)
def test_non_utf8_file_is_unreadable_input(capsys, tmp_path, command, suffix, data):
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(data)
    assert cli.main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and f" file {path}: " in err
    assert err.count("error:") == 1 and err.count("\n") == 1


def test_conductor_above_the_limit_is_refused_before_any_work(capsys, tmp_path):
    # Phi_N for N = 99999999 would take a recursion over its divisors
    path = tmp_path / "big.arr"
    path.write_text("field cyclotomic 99999999\ndim 1\nhyperplane (1)\n")
    start = time.perf_counter()
    assert cli.main(["analyze", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: line 1: conductor 99999999 exceeds the limit {MAX_CONDUCTOR}\n"
    )
    with pytest.raises(InvalidInputError, match="exceeds the limit"):
        cyclotomic_field(MAX_CONDUCTOR + 1)


def test_lattice_prime_above_the_bit_limit_is_a_cap(capsys, tmp_path):
    # a Hadamard bound of about 6,000 bits: the prime search alone would run
    # for minutes, so the limit is checked before it
    path = tmp_path / "big.arr"
    a, b, c = 10**600 + 7, 10**599 + 3, 7 * 10**598 + 1
    path.write_text(
        f"field rational\ndim 2\nhyperplane {a} {b}\nhyperplane {b} {c}\nhyperplane {c} {a}\n"
    )
    start = time.perf_counter()
    assert cli.main(["analyze", str(path), "--json"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    bits = json.loads(out)["partial"]["bound_bits"]
    assert bits > 5_900
    assert err == (
        f"error: the lattice prime must exceed a {bits}-bit bound; the limit is "
        f"{MAX_BOUND_BITS} bits\n"
    )


def test_exponent_token_is_refused_before_it_is_expanded(capsys, tmp_path):
    # Fraction would expand 1e10000000 into a ten-million-digit integer
    path = tmp_path / "exp.arr"
    path.write_text("field rational\ndim 2\n\nhyperplane 1e10000000 1\n")
    start = time.perf_counter()
    assert cli.main(["analyze", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: line 4: hyperplane 1: bad rational token '1e10000000': "
        "exponent notation is not allowed\n"
    )
    for text in (
        "field cyclotomic 3\ndim 1\nhyperplane (1,2E5)\n",
        "field rational\ndim 1\nhyperplane 1 = 1e5\n",
    ):
        with pytest.raises(InvalidInputError, match="line 3: .*exponent notation"):
            parse_arrangement_text(text)
    with pytest.raises(InvalidInputError, match="line 4: .*exponent notation"):
        parse_group_text("field rational\ndim 2\nsymplectic_form\n0 1e3\n-1 0\n")


def test_decimal_and_digit_group_tokens_are_refused(capsys, tmp_path):
    # Fraction reads 0.5 as 1/2 and 1_000 as 1000; the token syntax is p or p/q
    path = tmp_path / "dec.arr"
    for normal, bad in (("0.5 1", "0.5"), ("1 1_000", "1_000")):
        path.write_text(f"field rational\ndim 2\n\nhyperplane {normal}\n")
        assert cli.main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: line 4: hyperplane 1: bad rational token '{bad}': "
            "expected an integer p or a fraction p/q\n"
        )
    for text in (
        "field cyclotomic 3\ndim 1\nhyperplane (1,0.5)\n",
        "field rational\ndim 1\nhyperplane 1 = 1_000\n",
    ):
        with pytest.raises(InvalidInputError, match="line 3: .*expected an integer"):
            parse_arrangement_text(text)
    with pytest.raises(InvalidInputError, match="line 4: .*expected an integer"):
        parse_group_text("field rational\ndim 2\nsymplectic_form\n0 1.0\n-1 0\n")


def test_zero_denominator_token_is_refused_by_name(capsys, tmp_path):
    path = tmp_path / "zero.arr"
    for text, message in (
        ("field rational\ndim 2\n\nhyperplane 1/0 1\n", "bad rational token '1/0'"),
        ("field cyclotomic 3\ndim 1\n\nhyperplane (1/0,1)\n", "bad cyclotomic token '(1/0,1)'"),
    ):
        path.write_text(text)
        assert cli.main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: line 4: hyperplane 1: {message}: zero denominator\n"
        )


def test_dimension_above_the_limit_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "big.arr"
    path.write_text("field rational\ndim 99999999999\n")
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: line 2: dimension 99999999999 exceeds the limit {MAX_DIM}\n"
    )
    with pytest.raises(InvalidInputError, match="line 2: dimension"):
        parse_group_text("field rational\ndim 99999999999\n")


def test_negative_dimension_is_refused_with_its_line(capsys, tmp_path):
    path = tmp_path / "neg.arr"
    path.write_text("field rational\ndim -2\n")
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 2: dimension must be >= 0, got -2\n"
    with pytest.raises(InvalidInputError, match="^line 3: dimension must be >= 0, got -2$"):
        parse_group_text("field rational\n\ndim -2\nsymplectic_form\n")


def test_group_dimension_must_be_positive_and_even_on_its_line(capsys, tmp_path):
    for dim in (0, 3):
        path = tmp_path / f"dim{dim}.grp"
        path.write_text(f"field rational\ndim {dim}\nsymplectic_form\n")
        assert cli.main(["group", "analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: line 2: symplectic dimension must be a positive even number, got {dim}\n"
        )
    # an arrangement may still live in dimension 0
    assert parse_arrangement_text("field rational\ndim 0\n").ambient_dim == 0
    # a group made in the library is refused by its form
    odd = identity(rational_field(), 3)
    with pytest.raises(InvalidInputError, match="^symplectic dimension must be a positive even"):
        MatrixGroup([], odd)


def test_infinite_order_generator_is_invalid_input(capsys, tmp_path):
    # unipotent and hyperbolic generators of Sp(2, Z): L = 12 for dim 2 over Q
    for rows in ("1 1\n0 1", "2 1\n1 1"):
        path = tmp_path / "infinite.grp"
        path.write_text(f"field rational\ndim 2\nsymplectic_form\n0 1\n-1 0\ngenerator\n{rows}\n")
        start = time.perf_counter()
        assert cli.main(["group", "analyze", str(path), "--json"]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "",
            "error: generator 0 has infinite order: its 12th power is not 1\n",
        )


@pytest.mark.parametrize(
    "field, generators, message",
    [
        # SL(2, Z) from elements of orders 4 and 6: each passes the L-test
        (
            "rational",
            ("0 -1\n1 0", "0 -1\n1 1"),
            "the group is infinite: a product of 5 generators has trace 3, "
            "which is not a sum of 2 roots of unity",
        ),
        # hyperbolic, with L above the group cap over Q(zeta_60)
        (
            "cyclotomic 60",
            ("2 1\n1 1",),
            "generator 0 has infinite order: it has trace (3" + ",0" * 15 + "), "
            "which is not a sum of 2 roots of unity",
        ),
        # unipotent, with L above the cap and trace 2: it passes both tests
        # and is refused after them, since (g - 1)^2 = 0 and g != 1
        (
            "cyclotomic 60",
            ("1 1\n0 1",),
            "generator 0 has infinite order: it is unipotent and not 1",
        ),
    ],
)
def test_infinite_group_is_refused_by_the_trace_test(capsys, tmp_path, field, generators, message):
    path = tmp_path / "infinite.grp"
    gens = "".join(f"generator\n{rows}\n" for rows in generators)
    path.write_text(f"field {field}\ndim 2\nsymplectic_form\n0 1\n-1 0\n{gens}")
    start = time.perf_counter()
    assert cli.main(["group", "analyze", str(path), "--json"]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", data_path("g4.arr"), "--flat-cap", "0"],
        ["catalan", "--type", "A1", "--n", "2", "--ff-cap", "0"],
        ["wreath-formula", "--type", "A1", "--n", "2", "--group-cap", "-5"],
        ["group", "analyze", data_path("g4.grp"), "--flat-cap", "5"],
        ["group", "analyze", data_path("g4.grp"), "--subset-cap", "5"],
        ["group", "analyze", data_path("g4.grp"), "--ff-cap", "5"],
        ["analyze", data_path("g4.arr"), "--group-cap", "5"],
        ["count", "--catalog", "g4", "--group-cap", "5"],
    ],
)
def test_cap_flags_are_refused_where_no_cap_is_read(capsys, argv):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_unexpected_exception_is_one_line_and_exit_3(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(counting, "count_resolutions", broken)
    monkeypatch.delenv("OSCOUNT_DEBUG", raising=False)
    assert cli.main(["count", "--catalog", "g4"]) == 3
    assert capsys.readouterr().err == "error: internal error: RuntimeError('boom')\n"
    monkeypatch.setenv("OSCOUNT_DEBUG", "1")
    assert cli.main(["count", "--catalog", "g4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "in broken" in err
    assert err.endswith("error: internal error: RuntimeError('boom')\n")


def test_cli_exit_code_cap(capsys, tmp_path):
    path = tmp_path / "q8.arr"
    path.write_text(serialize_arrangement(catalog("q8d8").arrangement))
    assert cli.main(["analyze", str(path), "--flat-cap", "10"]) == 2


def test_cli_exit_code_inconsistency(capsys, tmp_path):
    path = tmp_path / "q8.arr"
    path.write_text(serialize_arrangement(catalog("q8d8").arrangement))
    # wrong Weyl order: 2592 is not divisible by 7
    assert cli.main(["count", "--arrangement", str(path), "--weyl-order", "7"]) == 3


def test_weyl_order_beside_a_catalog_entry_is_refused(capsys):
    # a catalog entry carries its own Weyl order
    assert cli.main(["count", "--catalog", "g4", "--weyl-order", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: give --weyl-order with --arrangement, not with --catalog\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--catalog", "q8d8", "--arrangement", "q8d8.arr"],
         "give either --catalog or --arrangement, not both"),
        ([], "count needs --catalog NAME or --arrangement FILE"),
        (["--arrangement", "q8d8.arr", "--weyl-order", "0"], "Weyl order must be >= 1"),
        (["--catalog", "wreath:A2"],
         "bad wreath catalog name 'wreath:a2'; expected wreath:<type>:<n>"),
        (["--catalog", "wreath:A2:x"], "bad wreath parameter in 'wreath:a2:x'"),
    ],
    ids=["both-sources", "no-source", "weyl-order-0", "wreath-without-n", "wreath-bad-n"],
)
def test_count_flag_errors_exit_1(capsys, argv, message):
    argv = [data_path(a) if a.endswith(".arr") else a for a in argv]
    assert cli.main(["count", *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


GROUP_PM1 = "field rational\ndim 2\nsymplectic_form\n0 1\n-1 0\ngenerator\n-1 0\n0 -1\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("group analyze", "field rational\ndim 2\nsymplectic_form\n0 1\n1 0\ngenerator\n1 0\n0 1\n",
         "symplectic form is not antisymmetric"),
        ("group analyze", "field rational\ndim 2\nsymplectic_form\n0 0\n0 0\ngenerator\n1 0\n0 1\n",
         "symplectic form is degenerate"),
        ("analyze", "field cyclotomic x\ndim 2\n", "line 1: bad conductor 'x'"),
        ("analyze", "field rational\ndim 2 3\n", "line 2: expected `dim L`"),
        ("analyze", "field rational\ndim 2\nhyperplane 1 0 = 1 2\n",
         "line 3: hyperplane 1: expected one offset after `=`"),
        # a second `field`, `dim` or `symplectic_form` is refused, not applied
        ("group analyze", GROUP_PM1 + "symplectic_form\n0 0\n0 0\n",
         "line 9: repeated `symplectic_form` directive"),
        ("group analyze", GROUP_PM1 + "field cyclotomic 4\n", "line 9: repeated `field` directive"),
        ("group analyze", "field rational\ndim 2\ndim 4\n", "line 3: repeated `dim` directive"),
        ("analyze", "field rational\ndim 3\nhyperplane 1 0 0\ndim 2\n",
         "line 4: repeated `dim` directive"),
        ("analyze", "field rational\n# comment\nfield rational\ndim 1\n",
         "line 3: repeated `field` directive"),
        ("group analyze", "generator\n1 0\n0 1\n",
         "line 1: `field` and `dim` must precede matrix blocks"),
        ("analyze", "field rational\ndim 2\nhyperplane 0 0\n", "line 3: hyperplane 1 has a zero normal"),
        ("analyze", "field rational\ndim 2\nhyperplane 1 0\n\nhyperplane 0 0 = 1\n",
         "line 5: hyperplane 2 has a zero normal"),
    ],
    ids=["form-not-antisymmetric", "form-degenerate", "conductor-x", "dim-two-tokens",
         "two-offsets", "repeated-group-form", "repeated-group-field", "repeated-group-dim",
         "repeated-arrangement-dim", "repeated-arrangement-field", "group-generator-first",
         "zero-normal", "zero-normal-with-offset"],
)
def test_file_errors_exit_1(capsys, tmp_path, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    assert cli.main([*command.split(), str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_count_arrangement_with_weyl_order(capsys, tmp_path):
    path = tmp_path / "q8.arr"
    path.write_text(serialize_arrangement(catalog("q8d8").arrangement))
    assert cli.main(["count", "--arrangement", str(path), "--weyl-order", "32", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resolution_count"] == 81


def test_cli_cone_round_trip(capsys, tmp_path):
    src = tmp_path / "aff.arr"
    src.write_text("field rational\ndim 1\nhyperplane 1\nhyperplane 1 = -1\nhyperplane 1 = 1\n")
    out = tmp_path / "coned.arr"
    assert cli.main(["cone", str(src), "--out", str(out)]) == 0
    coned = parse_arrangement_file(str(out))
    assert coned.central and len(coned.hyperplanes) == 4


def test_unwritable_out_path_is_invalid_input(capsys, tmp_path):
    missing = tmp_path / "no" / "x.arr"
    assert cli.main(["catalan", "--type", "A2", "--n", "2", "--out", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")
    src = tmp_path / "aff.arr"
    src.write_text("field rational\ndim 1\nhyperplane 1 = 1\n")
    assert cli.main(["cone", str(src), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def test_cli_catalan_emit(capsys, tmp_path):
    out = tmp_path / "cat.arr"
    assert cli.main(["catalan", "--type", "A2", "--n", "2", "--out", str(out)]) == 0
    arr = parse_arrangement_file(str(out))
    assert len(arr.hyperplanes) == 10


def test_cli_wreath_formula(capsys):
    assert cli.main(["wreath-formula", "--type", "A3", "--n", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 14


def test_cli_catalan_json_mode(capsys):
    assert cli.main(["catalan", "--type", "A1", "--n", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_hyperplanes"] == 4
    assert parse_arrangement_text(doc["arrangement_text"]).central


def test_cli_cap_environment_variable_is_not_read(capsys, monkeypatch):
    # caps are flags only; a flat cap of 10 would stop the q8d8 lattice
    argv = ["analyze", data_path("q8d8.arr")]
    monkeypatch.delenv("OSCOUNT_FLAT_CAP", raising=False)
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("OSCOUNT_FLAT_CAP", "10")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain


def test_cli_group_analyze(capsys):
    assert cli.main(["group", "analyze", data_path("q8d8.grp"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 32
    assert doc["num_reflection_classes"] == 5
    assert doc["zeta_bijection"]["bijective"] is True
    assert doc["namikawa_weyl"]["total_order"] == 32


def test_cli_group_analyze_g4(capsys):
    assert cli.main(["group", "analyze", data_path("g4.grp"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 24
    assert doc["namikawa_weyl"]["total_order"] == 3


def test_cli_group_analyze_wreath_q8_is_undetermined(capsys, tmp_path):
    # S2 wr Q8: the Q8 parabolic is D4 with |Xi| = 8, a label with diagram
    # automorphisms, so the class data cannot fix its folding
    path = tmp_path / "s2q8.grp"
    path.write_text(group_text(wreath2(quaternion_group())), encoding="utf-8")
    assert cli.main(["group", "analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 128
    assert doc["zeta_bijection"]["bijective"] is True
    assert doc["namikawa_weyl"] is None
    assert "label D4 and |Xi| = 8" in doc["namikawa_weyl_note"]
    assert cli.main(["group", "analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("Namikawa Weyl order: undetermined (parabolic class with label D4")


def test_cli_group_analyze_exits_3_when_the_zeta_bijection_fails(capsys, monkeypatch):
    real = groups.verify_zeta_bijection
    monkeypatch.setattr(
        groups, "verify_zeta_bijection", lambda *args: {**real(*args), "bijective": False}
    )
    assert cli.main(["group", "analyze", data_path("g4.grp"), "--json"]) == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # the document is still printed
    assert doc["order"] == 24 and doc["zeta_bijection"]["bijective"] is False
    assert captured.err.splitlines() == [
        "error: reflection classes and parabolic orbits are not in bijection"
    ]


def test_selftest_skip_ff(capsys):
    assert cli.main(["selftest", "--skip", "ff", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["skipped"] == 4
    skipped = [c["name"] for c in doc["checks"] if c["status"] == "SKIP"]
    assert skipped == [
        f"finite-field oracle ({name})"
        for name in ("q8d8", "wreath:a1:2", "wreath:a1:3", "wreath:a2:2")
    ]
    assert len(doc["checks"]) == 14


def test_selftest_exits_2_when_every_failure_is_a_cap(capsys, monkeypatch):
    argv = ["selftest", "--skip", "nbc", "--skip", "ff", "--flat-cap", "10"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    failed = [line.split("  FAIL  ") for line in out.splitlines() if "  FAIL  " in line]
    assert [(name.rstrip(), detail) for name, detail in failed] == [
        ("q8d8 arrangement + count 81", "flat cap 10 exceeded at codimension 1"),
        ("wreath two-route (A2, n=2)", "flat cap 10 exceeded at codimension 1"),
        ("wreath two-route (A3, n=2)", "flat cap 10 exceeded at codimension 1"),
    ]
    assert "\n5 passed, 3 failed, 6 skipped in " in out and err == ""
    # g4 fits under the cap, so its tampered count still fails the run
    real = counting.catalog

    def tampered(name):
        entry = real(name)
        return entry._replace(expected={**entry.expected, "count": 3}) if name == "g4" else entry

    monkeypatch.setattr(counting, "catalog", tampered)
    assert cli.main([*argv, "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert [c["detail"] for c in doc["checks"] if c["status"] == "FAIL"][1] == (
        "catalog g4: computed count 2 != published 3"
    )


def test_selftest_detects_tampered_catalog(capsys, monkeypatch):
    # negative control: flip one sign in the q8d8 arrangement
    real_catalog = counting.catalog

    def tampered(name):
        entry = real_catalog(name)
        if name == "q8d8":
            from oscount.arrangement import build_arrangement
            from oscount.fields import rational_field

            f = rational_field()
            planes = list(entry.arrangement.hyperplanes)
            first = planes[0]
            bad_normal = (first.normal[0], -first.normal[1]) + first.normal[2:]
            planes[0] = (bad_normal, first.offset)
            rest = [(h.normal, h.offset) for h in planes[1:]]
            entry = entry._replace(arrangement=build_arrangement(f, 5, [planes[0]] + rest))
        return entry

    monkeypatch.setattr(counting, "catalog", tampered)
    assert cli.main(["selftest", "--skip", "ff", "--skip", "nbc", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] >= 1
    bad = [c for c in doc["checks"] if c["status"] == "FAIL"]
    assert any(
        "Poincare" in c["detail"] or "count" in c["detail"] or "divisible" in c["detail"]
        for c in bad
    )
