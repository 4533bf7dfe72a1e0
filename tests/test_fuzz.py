"""Fuzzed inputs: the parsers and the CLI fail only in the documented ways.

Every property runs a fixed number of examples from a fixed seed, so a
failure reproduces on every run.
"""

import contextlib
import io

from hypothesis import given, seed, settings, strategies as st

from oscount import cli
from oscount.arrangement import build_arrangement
from oscount.errors import InvalidInputError
from oscount.fields import cyclotomic_field, rational_field
from oscount.fileio import parse_arrangement_text, parse_group_text, serialize_arrangement

SEED = 20261018
FUZZ = settings(max_examples=150, deadline=2000, database=None)

# Scalar tokens, mostly well-formed, and lines built from them: most texts
# get past the header and reach the scalar parser and the builders.
GOOD = ["0", "1", "-1", "2", "1/2", "-2/3", "(1,0)", "(0,1)", "(-1,-1)", "(1/2,1)"]
BAD = ["1/0", "0.5", "1e9", "1E-9", "=", "#", "x", "(", ")", "(1,2,3)", "(1", "(1/0,0)"]
TOKEN = st.one_of(st.sampled_from(GOOD), st.sampled_from(GOOD), st.sampled_from(BAD))
PAIR = st.lists(TOKEN, min_size=2, max_size=2).map(" ".join)
ROW = st.one_of(PAIR, st.lists(TOKEN, min_size=1, max_size=4).map(" ".join))
HEADER = st.sampled_from(
    ["field rational\ndim 2", "field cyclotomic 3\ndim 2", "field cyclotomic 4\ndim 2"]
)
ANY_LINE = st.one_of(
    ROW,
    st.sampled_from(["field rational", "field cyclotomic 3", "field cyclotomic 0", "dim 2"]),
    st.sampled_from(["dim -1", "dim 1001", "dim x", "field cyclotomic 99999999", "field"]),
    st.sampled_from(["symplectic_form", "generator", "hyperplane"]),
)


def texts(body):
    """Arbitrary text, lines of any kind, or (twice as often) a valid
    header then `body`."""
    headed = st.tuples(HEADER, body).map(lambda parts: "\n".join([parts[0], *parts[1]]))
    lines = st.lists(ANY_LINE, max_size=10).map("\n".join)
    return st.one_of(st.text(max_size=200), lines, headed, headed)


ARRANGEMENT_BODY = st.lists(ROW.map("hyperplane ".__add__), max_size=8)
BLOCK = st.tuples(
    st.sampled_from(["symplectic_form", "generator", "generator"]),
    st.one_of(st.lists(PAIR, min_size=2, max_size=2), st.lists(ROW, max_size=3)),
).map(lambda block: [block[0], *block[1]])
GROUP_BODY = st.tuples(
    st.sampled_from([["symplectic_form", "0 1", "-1 0"], []]), st.lists(BLOCK, max_size=4)
).map(lambda parts: parts[0] + [line for block in parts[1] for line in block])


@seed(SEED)
@FUZZ
@given(texts(ARRANGEMENT_BODY))
def test_arrangement_parser_accepts_or_refuses_with_invalid_input(text):
    try:
        parse_arrangement_text(text)
    except InvalidInputError:
        pass


@seed(SEED)
@FUZZ
@given(texts(GROUP_BODY))
def test_group_parser_accepts_or_refuses_with_invalid_input(text):
    try:
        parse_group_text(text)
    except InvalidInputError:
        pass


@st.composite
def small_arrangements(draw):
    """Arrangements with dim <= 3 and at most 6 hyperplanes, over Q or
    Q(zeta_3), central or affine."""
    field = draw(st.sampled_from([rational_field(), cyclotomic_field(3)]))
    dim = draw(st.integers(min_value=1, max_value=3))
    ints = st.integers(min_value=-3, max_value=3)

    def scalar():
        return field.from_rational(draw(ints)) + field.from_rational(draw(ints)) * field.zeta()

    raw = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        normal = tuple(scalar() for _ in range(dim))
        if any(not x.is_zero() for x in normal):
            offset = scalar() if draw(st.booleans()) else field.zero()
            raw.append((normal, offset))
    return build_arrangement(field, dim, raw)


@seed(SEED)
@FUZZ
@given(small_arrangements())
def test_serialize_then_parse_round_trips(arrangement):
    text = serialize_arrangement(arrangement)
    again = parse_arrangement_text(text)
    assert again.field == arrangement.field
    assert again.ambient_dim == arrangement.ambient_dim
    assert again.hyperplanes == arrangement.hyperplanes
    assert serialize_arrangement(again) == text


@seed(SEED)
@settings(max_examples=60, deadline=5000, database=None)
@given(small_arrangements())
def test_analyze_exits_in_the_documented_range(tmp_path_factory, arrangement):
    path = tmp_path_factory.mktemp("fuzz") / "a.arr"
    path.write_text(serialize_arrangement(arrangement))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(path)])
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in out.getvalue() + err.getvalue()
