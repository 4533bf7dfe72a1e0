"""Command-line interface: it parses arguments and formats what the library
computes (`counting`, `groups.analyze_group`, `rootdata`, `selftest`).

Commands: analyze, cone, catalan, count, wreath-formula, group, selftest.
Exit codes: 0 success, 1 invalid input or a closed stdout, 2 computation
cap exceeded, 3 internal/oracle inconsistency, or a `count --catalog` value
that differs from the published one (`counting.check_published`).  Every
command has a --json mode emitting a single document with stable key order
(the timing field excepted from determinism guarantees).

Caps are set by flags only, and a command takes only the caps it reads:
analyze and count the flat, subset and ff caps, group analyze the group
cap, selftest all four.  Any other failure is one `error: internal error:
...` line and exit code 3; OSCOUNT_DEBUG=1, the one environment variable
read, adds its traceback.

Startup: a command imports only the modules it runs, inside its handler, so
`group analyze` loads no arrangement code, `count` no group code (with
--catalog too), `wreath-formula` only `rootdata`, and no module imports
`dataclasses` (or, through it, `inspect`).  At module level this file
imports the standard library and `errors` alone.
The traceback module is imported only when OSCOUNT_DEBUG asks for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import (
    DEFAULT_FF_CAP,
    DEFAULT_FLAT_CAP,
    DEFAULT_GROUP_CAP,
    DEFAULT_SUBSET_CAP,
    InvalidInputError,
    MathematicalInconsistencyError,
    OscountError,
)

__all__ = ["main"]

# flag -> default, help text
_CAPS = {
    "--flat-cap": (DEFAULT_FLAT_CAP, "intersection-lattice flat cap"),
    "--subset-cap": (DEFAULT_SUBSET_CAP, "cap on nbc sets visited"),
    "--group-cap": (DEFAULT_GROUP_CAP, "group enumeration cap"),
    "--ff-cap": (DEFAULT_FF_CAP, "finite-field enumeration cap on q^l"),
}
_ARRANGEMENT_CAPS = ("--flat-cap", "--subset-cap", "--ff-cap")


def _add_common(parser: argparse.ArgumentParser, caps=()):
    """--json, and the flags of the caps the command reads."""
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    for flag in caps:
        default, text = _CAPS[flag]
        parser.add_argument(flag, type=int, default=default, help=f"{text} (default {default})")


def _caps(args) -> dict:
    """Each cap from its flag, or its default where the command has no such
    flag, so `caps` lists all four; a cap below 1 is invalid input."""
    caps = {}
    for flag, (default, _) in _CAPS.items():
        name = flag[2:].replace("-", "_")
        value = getattr(args, name, default)
        if value < 1:
            raise InvalidInputError(f"{flag} must be >= 1, got {value}")
        caps[name] = value
    return caps


def _poly_doc(coeffs: tuple[int, ...]) -> dict:
    """Ascending coefficients and the text, highest power first: `2*t^2 - 3*t + 1`."""
    text = ""
    for k in range(len(coeffs) - 1, -1, -1):
        if c := coeffs[k]:
            power = "" if k == 0 else "t" if k == 1 else f"t^{k}"
            term = power if abs(c) == 1 and k else f"{abs(c)}*{power}".rstrip("*")
            sign = (" - " if c < 0 else " + ") if text else ("-" if c < 0 else "")
            text += sign + term
    return {"coefficients": list(coeffs), "text": text or "0"}


def _field_doc(field) -> dict:
    return {"kind": field.kind, "conductor": field.conductor, "degree": field.degree}


def _arrangement_head(command: str, arrangement) -> dict:
    return {
        "command": command,
        "field": _field_doc(arrangement.field),
        "ambient_dim": arrangement.ambient_dim,
        "central": arrangement.central,
        "num_hyperplanes": len(arrangement.hyperplanes),
    }


def _emit(doc: dict, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in human_lines:
            print(line)


def _report_doc(head: dict, report, oracle: str, caps, t0: float) -> dict:
    """The JSON document of `count` and `analyze`: the command's own head
    fields, the report, the oracle results, the caps and the timing."""
    doc = {
        **head,
        "rank": report.rank,
        "char_poly": _poly_doc(report.char_poly),
        "poincare_poly": _poly_doc(report.poincare_poly),
        "os_dimension": report.os_dimension,
    }
    if report.resolution_count is not None:
        doc["weyl_order"] = report.weyl_order
        doc["resolution_count"] = report.resolution_count
    doc["flats_per_level"] = report.lattice.flats_per_level()
    doc["moebius_checksum"] = report.lattice.whitney_numbers()
    if report.regions is not None:
        doc["regions"] = report.regions
        doc["bounded_regions"] = report.bounded_regions
    if oracle != "none":
        from .counting import run_oracle

        doc["oracle_results"] = run_oracle(report, oracle, caps)
    doc["caps"] = caps
    doc["timing_seconds"] = round(time.perf_counter() - t0, 6)
    return doc


def _cmd_analyze(args) -> int:
    from .counting import analyze_arrangement
    from .fileio import parse_arrangement_file

    caps = _caps(args)
    arrangement = parse_arrangement_file(args.file)
    t0 = time.perf_counter()
    head = _arrangement_head("analyze", arrangement)
    # broken-circuit data downstream depends on this order
    head["hyperplanes"] = [str(h) for h in arrangement.hyperplanes]
    report = analyze_arrangement(arrangement, caps["flat_cap"])
    doc = _report_doc(head, report, args.oracle, caps, t0)
    lines = [
        f"arrangement: {args.file}",
        f"field: {doc['field']['kind']} (conductor {doc['field']['conductor']})",
        f"ambient dimension: {doc['ambient_dim']}   central: {doc['central']}",
        f"hyperplanes: {doc['num_hyperplanes']}   rank: {doc['rank']}",
        f"characteristic polynomial: {doc['char_poly']['text']}",
        f"Poincare polynomial: {doc['poincare_poly']['text']}",
        f"OS dimension: {doc['os_dimension']}",
        f"flats per level: {doc['flats_per_level']}",
        f"Moebius checksum: {doc['moebius_checksum']}",
    ]
    if "regions" in doc:
        lines.append(f"regions: {doc['regions']}   bounded: {doc['bounded_regions']}")
    if "oracle_results" in doc:
        lines.append(f"oracle: {json.dumps(doc['oracle_results'])}")
    _emit(doc, args.json, lines)
    return 0


def _emit_arrangement(arrangement, args, command: str, extra: dict | None = None) -> int:
    from .fileio import serialize_arrangement

    text = serialize_arrangement(arrangement)
    doc = _arrangement_head(command, arrangement)
    doc["arrangement_text"] = text
    if extra:
        doc.update(extra)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.out}: {exc}") from None
        doc["out"] = args.out
        _emit(doc, args.json, [f"wrote {doc['num_hyperplanes']} hyperplanes to {args.out}"])
    elif args.json:
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cone(args) -> int:
    from .arrangement import cone
    from .fileio import parse_arrangement_file

    arrangement = parse_arrangement_file(args.file)
    return _emit_arrangement(cone(arrangement), args, "cone")


def _cmd_catalan(args) -> int:
    from .rootdata import (
        CatalanSpec,
        affine_catalan,
        catalan_arrangement,
        parse_type_label,
        weyl_data,
    )

    letter, rank = parse_type_label(args.type)
    wdata = weyl_data(letter, rank)
    spec = CatalanSpec(wdata, args.n)
    arrangement = affine_catalan(spec) if args.affine else catalan_arrangement(spec)
    return _emit_arrangement(
        arrangement, args, "catalan", extra={"realization": wdata.realization}
    )


def _count_lines(doc: dict) -> list[str]:
    lines = [
        f"hyperplanes: {doc['num_hyperplanes']}   rank: {doc['rank']}",
        f"characteristic polynomial: {doc['char_poly']['text']}",
        f"Poincare polynomial: {doc['poincare_poly']['text']}",
        f"OS dimension: {doc['os_dimension']}",
        f"Namikawa Weyl order: {doc['weyl_order']}",
        f"resolution count: {doc['resolution_count']}",
    ]
    if "regions" in doc:
        lines.append(
            f"regions: {doc['regions']} = |W| * count = "
            f"{doc['weyl_order']} * {doc['resolution_count']}"
        )
    if "oracle_results" in doc:
        lines.append(f"oracle: {json.dumps(doc['oracle_results'])}")
    return lines


def _cmd_count(args) -> int:
    from .counting import catalog, check_published, count_resolutions
    from .fileio import parse_arrangement_file

    caps = _caps(args)
    t0 = time.perf_counter()
    if args.catalog and args.arrangement:
        raise InvalidInputError("give either --catalog or --arrangement, not both")
    if args.catalog:
        if args.weyl_order is not None:
            raise InvalidInputError("give --weyl-order with --arrangement, not with --catalog")
        entry = catalog(args.catalog)
        report = count_resolutions(entry.arrangement, entry.weyl_order, caps["flat_cap"])
        check_published(entry, report)
    elif args.arrangement:
        if args.weyl_order is None:
            raise InvalidInputError("--arrangement requires --weyl-order K")
        arrangement = parse_arrangement_file(args.arrangement)
        report = count_resolutions(arrangement, args.weyl_order, caps["flat_cap"])
    else:
        raise InvalidInputError("count needs --catalog NAME or --arrangement FILE")
    arrangement = report.lattice.arrangement
    head = {
        "command": "count",
        "num_hyperplanes": len(arrangement.hyperplanes),
        "ambient_dim": arrangement.ambient_dim,
    }
    doc = _report_doc(head, report, args.oracle, caps, t0)
    _emit(doc, args.json, _count_lines(doc))
    return 0


def _cmd_wreath_formula(args) -> int:
    from .rootdata import parse_type_label, weyl_data, wreath_count_closed_form

    letter, rank = parse_type_label(args.type)
    wdata = weyl_data(letter, rank)
    value = wreath_count_closed_form(wdata, args.n)
    doc = {
        "command": "wreath-formula",
        "type": wdata.full_label,
        "n": args.n,
        "exponents": list(wdata.exponents),
        "coxeter_number": wdata.coxeter_number,
        "weyl_order": wdata.weyl_order,
        "realization": wdata.realization,
        "count": value,
    }
    _emit(doc, args.json, [f"({wdata.full_label}, n={args.n}): {value} resolutions"])
    return 0


def _cmd_group_analyze(args) -> int:
    from .fileio import parse_group_file
    from .groups import analyze_group

    caps = _caps(args)
    t0 = time.perf_counter()
    group = parse_group_file(args.file)
    reflections, parabolics, zeta_report, weyl, note = analyze_group(group, caps["group_cap"])
    ok = zeta_report["bijective"]
    doc = {
        "command": "group analyze",
        "field": _field_doc(group.field),
        "dim": group.dim,
        "order": group.order,
        "num_reflection_classes": len(reflections),
        "reflection_class_sizes": [len(c.members) for c in reflections],
        "parabolic_classes": [
            {
                "subgroup_order": len(p.subgroup),
                "kleinian_label": p.kleinian_label,
                "num_conjugates": p.num_conjugates,
                "normalizer_order": p.normalizer_order,
                "xi_order": p.xi_order,
                "xi_class_action_trivial": p.class_action_trivial,
                "orbit_count": len(p.orbits),
            }
            for p in parabolics
        ],
        "zeta_bijection": zeta_report,
    }
    if weyl is None:
        doc["namikawa_weyl"] = None
        doc["namikawa_weyl_note"] = note
    else:
        doc["namikawa_weyl"] = {
            "factors": [list(f) for f in weyl.factors],
            "total_order": weyl.total_order,
        }
    doc["caps"] = caps
    doc["timing_seconds"] = round(time.perf_counter() - t0, 6)
    if not ok:
        _emit(doc, args.json, [])
        raise MathematicalInconsistencyError(
            "reflection classes and parabolic orbits are not in bijection"
        )
    lines = [
        f"group: {args.file}",
        f"order: {doc['order']}   dim: {doc['dim']}",
        f"reflection classes (dim of the class-function space): {doc['num_reflection_classes']}",
        f"class sizes: {doc['reflection_class_sizes']}",
    ]
    for k, p in enumerate(doc["parabolic_classes"]):
        lines.append(
            f"parabolic class {k}: |H|={p['subgroup_order']} label={p['kleinian_label']} "
            f"conjugates={p['num_conjugates']} |Xi|={p['xi_order']} "
            f"class-action trivial={p['xi_class_action_trivial']} orbits={p['orbit_count']}"
        )
    lines.append(f"orbit/class bijection: {ok}")
    if doc.get("namikawa_weyl"):
        lines.append(
            f"Namikawa Weyl order: {doc['namikawa_weyl']['total_order']} "
            f"(factors {doc['namikawa_weyl']['factors']})"
        )
    else:
        lines.append(f"Namikawa Weyl order: undetermined ({doc.get('namikawa_weyl_note')})")
    _emit(doc, args.json, lines)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(_caps(args), set(args.skip or []), args.json)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscount",
        description=(
            "Exact counting of symplectic quotient resolutions via hyperplane "
            "arrangement invariants"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="arrangement invariants from a file")
    p.add_argument("file")
    p.add_argument("--oracle", choices=["nbc", "ff", "none"], default="none")
    _add_common(p, _ARRANGEMENT_CAPS)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cone", help="cone an affine arrangement file")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("catalan", help="emit a Catalan-type arrangement")
    p.add_argument("--type", required=True, help="ADE label, e.g. A2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--affine", action="store_true", help="emit the affine arrangement")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_catalan)

    p = sub.add_parser("count", help="count resolutions")
    p.add_argument("--catalog", default=None, help="a shipped entry or wreath:TYPE:N")
    p.add_argument("--arrangement", default=None, help="arrangement file")
    p.add_argument("--weyl-order", type=int, default=None)
    p.add_argument("--oracle", choices=["nbc", "ff", "none"], default="none")
    _add_common(p, _ARRANGEMENT_CAPS)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("wreath-formula", help="closed-form wreath count")
    p.add_argument("--type", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_wreath_formula)

    p = sub.add_parser("group", help="matrix group commands")
    gsub = p.add_subparsers(dest="group_verb", required=True)
    g = gsub.add_parser("analyze", help="analyze a group file")
    g.add_argument("file")
    _add_common(g, ("--group-cap",))
    g.set_defaults(func=_cmd_group_analyze)

    p = sub.add_parser("selftest", help="run every catalog check")
    p.add_argument(
        "--skip",
        action="append",
        choices=["nbc", "ff"],
        help="skip an oracle family (repeatable)",
    )
    _add_common(p, _CAPS)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        if exc.code == 0:
            raise
        return 1
    try:
        try:
            code = args.func(args)
        except OscountError as exc:
            print(f"error: {exc}", file=sys.stderr)
            partial = getattr(exc, "partial", None)
            if args.json and partial:
                # how far a capped computation got, for callers that read stdout
                print(json.dumps({"error": str(exc), "partial": partial}, indent=2))
            code = exc.exit_code
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary: no raw traceback
        if os.environ.get("OSCOUNT_DEBUG") == "1":
            import traceback

            traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
