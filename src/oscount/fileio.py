"""Text formats for arrangements and matrix groups.

One directive per line, `#` starts a comment.  Arrangements:

    field rational | field cyclotomic N
    dim L
    hyperplane c1 c2 ... cL          (central)
    hyperplane c1 c2 ... cL = c0     (affine)

Groups:

    field ... / dim 2n
    symplectic_form   followed by 2n rows of 2n scalar tokens
    generator         followed by 2n rows, repeated per generator

Scalar tokens use the syntax of the exact-arithmetic layer: `p/q`, `p`,
or `(a0,a1,...)`.  `field`, `dim` and `symplectic_form` appear once each.
A group's matrices are tuples of row tuples, checked by `MatrixGroup`.
Arrangements round-trip: serialize(parse(f)) parses to an equal object.

Limits, checked before anything is allocated: `dim` is between 0 and
MAX_DIM (a group's `dim` also positive and even), and the conductor N is at
most `fields.MAX_CONDUCTOR`.

The two formats share only the line and scalar syntax, so each parser
imports its own layer (`arrangement` or `groups`) when it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InvalidInputError
from .fields import FieldDescriptor, cyclotomic_field, parse_scalar, rational_field

if TYPE_CHECKING:
    from .arrangement import Arrangement
    from .groups import MatrixGroup

__all__ = [
    "parse_arrangement_text",
    "parse_arrangement_file",
    "serialize_arrangement",
    "parse_group_text",
    "parse_group_file",
    "MAX_DIM",
]

MAX_DIM = 1000


def _read_file(path: str, kind: str) -> str:
    """A file that cannot be opened or is not UTF-8 is invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {kind} file {path}: {exc}") from None


def _logical_lines(text: str):
    """(line_number, tokens) for nonblank, noncomment lines; a second
    `field`, `dim` or `symplectic_form` directive is refused."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if tokens := raw.split("#", 1)[0].split():
            if tokens[0] in seen:
                raise InvalidInputError(f"line {lineno}: repeated `{tokens[0]}` directive")
            if tokens[0] in ("field", "dim", "symplectic_form"):
                seen.add(tokens[0])
            yield lineno, tokens


def _parse_field_directive(tokens: list[str], lineno: int) -> FieldDescriptor:
    if tokens[1:] == ["rational"]:
        return rational_field()
    if len(tokens) == 3 and tokens[1] == "cyclotomic":
        try:
            n = int(tokens[2])
        except ValueError:
            raise InvalidInputError(f"line {lineno}: bad conductor {tokens[2]!r}") from None
        try:
            return cyclotomic_field(n)
        except InvalidInputError as exc:
            raise InvalidInputError(f"line {lineno}: {exc}") from None
    raise InvalidInputError(
        f"line {lineno}: expected `field rational` or `field cyclotomic N`"
    )


def _parse_dim(tokens: list[str], lineno: int, form: str) -> int:
    if len(tokens) != 2:
        raise InvalidInputError(f"line {lineno}: expected `{form}`")
    try:
        dim = int(tokens[1])
    except ValueError:
        raise InvalidInputError(f"line {lineno}: bad dimension {tokens[1]!r}") from None
    if dim < 0:
        raise InvalidInputError(f"line {lineno}: dimension must be >= 0, got {dim}")
    if dim > MAX_DIM:
        raise InvalidInputError(
            f"line {lineno}: dimension {dim} exceeds the limit {MAX_DIM}"
        )
    return dim


def parse_arrangement_text(text: str) -> Arrangement:
    from .arrangement import build_arrangement

    field: FieldDescriptor | None = None
    dim: int | None = None
    raw = []
    count = 0
    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if head == "field":
            field = _parse_field_directive(tokens, lineno)
        elif head == "dim":
            dim = _parse_dim(tokens, lineno, "dim L")
        elif head == "hyperplane":
            if field is None or dim is None:
                raise InvalidInputError(
                    f"line {lineno}: `field` and `dim` must precede hyperplanes"
                )
            count += 1
            body = tokens[1:]
            if "=" in body:
                eq = body.index("=")
                coeff_tokens, rest = body[:eq], body[eq + 1 :]
                if len(rest) != 1:
                    raise InvalidInputError(
                        f"line {lineno}: hyperplane {count}: expected one offset after `=`"
                    )
            else:
                coeff_tokens, rest = body, []
            if len(coeff_tokens) != dim:
                raise InvalidInputError(
                    f"line {lineno}: hyperplane {count} has {len(coeff_tokens)} "
                    f"coefficients; dim is {dim}"
                )
            try:
                normal = tuple(parse_scalar(tok, field) for tok in coeff_tokens)
                offset = parse_scalar(rest[0], field) if rest else field.zero()
            except InvalidInputError as exc:
                raise InvalidInputError(f"line {lineno}: hyperplane {count}: {exc}") from None
            raw.append((normal, offset))
        else:
            raise InvalidInputError(f"line {lineno}: unknown directive {head!r}")
    if field is None or dim is None:
        raise InvalidInputError("missing `field` or `dim` directive")
    return build_arrangement(field, dim, raw)


def parse_arrangement_file(path: str) -> Arrangement:
    return parse_arrangement_text(_read_file(path, "arrangement"))


def serialize_arrangement(arrangement: Arrangement) -> str:
    field = arrangement.field
    directive = "field rational" if field.is_rational else f"field cyclotomic {field.conductor}"
    lines = [directive, f"dim {arrangement.ambient_dim}"]
    for h in arrangement.hyperplanes:
        body = " ".join(str(x) for x in h.normal)
        if h.offset.is_zero():
            lines.append(f"hyperplane {body}")
        else:
            lines.append(f"hyperplane {body} = {h.offset}")
    return "\n".join(lines) + "\n"


def parse_group_text(text: str) -> MatrixGroup:
    from .groups import MatrixGroup

    field: FieldDescriptor | None = None
    dim: int | None = None
    blocks: list[tuple[str, list]] = []  # ("form" or "generator", its rows so far)

    def check_last_block(lineno: int):
        if blocks and len(blocks[-1][1]) != dim:
            kind, rows = blocks[-1]
            raise InvalidInputError(
                f"line {lineno}: {kind} block has {len(rows)} rows; expected {dim}"
            )

    lineno = 0
    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if head == "field":
            field = _parse_field_directive(tokens, lineno)
        elif head == "dim":
            dim = _parse_dim(tokens, lineno, "dim 2n")
            if dim == 0 or dim % 2:
                raise InvalidInputError(
                    f"line {lineno}: symplectic dimension must be a positive even number, "
                    f"got {dim}"
                )
        elif head in ("symplectic_form", "generator"):
            check_last_block(lineno)
            if field is None or dim is None:
                raise InvalidInputError(
                    f"line {lineno}: `field` and `dim` must precede matrix blocks"
                )
            blocks.append(("form" if head == "symplectic_form" else "generator", []))
        else:
            if not blocks or len(blocks[-1][1]) == dim:
                raise InvalidInputError(f"line {lineno}: unexpected row outside a matrix block")
            if len(tokens) != dim:
                raise InvalidInputError(
                    f"line {lineno}: matrix row has {len(tokens)} entries; expected {dim}"
                )
            try:
                blocks[-1][1].append(tuple(parse_scalar(tok, field) for tok in tokens))
            except InvalidInputError as exc:
                raise InvalidInputError(f"line {lineno}: {exc}") from None
    check_last_block(lineno)
    if field is None or dim is None:
        raise InvalidInputError("missing `field` or `dim` directive")
    forms = [tuple(rows) for kind, rows in blocks if kind == "form"]
    if not forms:
        raise InvalidInputError("missing `symplectic_form` block")
    generators = [tuple(rows) for kind, rows in blocks if kind == "generator"]
    if not generators:
        raise InvalidInputError("missing `generator` blocks")
    return MatrixGroup(generators, forms[0])


def parse_group_file(path: str) -> MatrixGroup:
    return parse_group_text(_read_file(path, "group"))
