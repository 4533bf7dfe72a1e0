"""`oscount selftest`: every catalog check, a plain client of the library
pipelines that `count`, `analyze` and `group analyze` run.

The CLI imports this module only for the `selftest` command, so no other
command compiles the checks.  A count row runs `counting.check_published`,
as `count --catalog` does; a group row parses the entry's `.grp` file.  A failed check raises
MathematicalInconsistencyError, never `assert`, which `python -O` drops.
"""

from __future__ import annotations

import json
import time

from .errors import MathematicalInconsistencyError, OscountError

__all__ = ["run_selftest"]


def run_selftest(caps: dict, skip: set[str], as_json: bool) -> int:
    """Print every check's row (or one JSON document); exit code 0 when
    none failed, else 3."""
    t0 = time.perf_counter()
    rows = list(_checks(caps, skip))
    elapsed = time.perf_counter() - t0
    doc = {
        "command": "selftest",
        "checks": [{"name": n, "status": s, "detail": d} for n, s, d in rows],
        "passed": sum(1 for _, s, _ in rows if s == "PASS"),
        "failed": sum(1 for _, s, _ in rows if s == "FAIL"),
        "skipped": sum(1 for _, s, _ in rows if s == "SKIP"),
        "timing_seconds": round(elapsed, 6),
    }
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(n) for n, _, _ in rows)
        for name, status, detail in rows:
            print(f"{name:<{width}}  {status:<4}  {detail}")
        print(
            f"\n{doc['passed']} passed, {doc['failed']} failed, "
            f"{doc['skipped']} skipped in {elapsed:.1f}s"
        )
    return 0 if doc["failed"] == 0 else 3


def _require(holds: bool, message: str):
    if not holds:
        raise MathematicalInconsistencyError(message)


def _checks(caps, skip: set[str]):
    """Yield (name, status, detail) rows; status in PASS/FAIL/SKIP.  Every
    expected number comes from the catalog entry under test."""
    from .arrangement import cone, deletion_restriction
    from .counting import _SHIPPED, analyze_arrangement, catalog, check_published
    from .counting import count_resolutions, run_oracle
    from .fileio import parse_group_file
    from .groups import analyze_group
    from .matroid import nbc_betti
    from .polynomial import IntegerPolynomial
    from .rootdata import CatalanSpec, affine_catalan, parse_type_label, weyl_data

    def check(name, fn, *args):
        try:
            return (name, "PASS", fn(*args))
        except OscountError as exc:
            return (name, "FAIL", str(exc))

    def count_check(entry):
        report = count_resolutions(entry.arrangement, entry.weyl_order, caps["flat_cap"])
        check_published(entry, report)
        return f"count {report.resolution_count}, OS dim {report.os_dimension}"

    def nbc_check(entry):
        betti = nbc_betti(entry.arrangement, caps["subset_cap"])
        _require(tuple(betti) == entry.expected["poincare"], f"nbc {betti}")
        return f"betti {betti}"

    def group_check(entry):
        e, group = entry.expected, parse_group_file(entry.group_file)
        reflections, parabolics, zeta_report, weyl, note = analyze_group(group, caps["group_cap"])
        _require(group.order == e["group_order"], f"order {group.order}")
        r = len(reflections)
        _require(r == e["reflection_classes"], f"r = {r}")
        labels = tuple(p.kleinian_label for p in parabolics)
        _require(labels == e["parabolic_labels"], f"labels {labels}")
        _require(all(p.class_action_trivial for p in parabolics), "Xi acts nontrivially")
        _require(zeta_report["bijective"], "zeta bijection failed")
        _require(weyl is not None, note)
        _require(weyl.total_order == entry.weyl_order, f"|W| = {weyl.total_order}")
        return f"order {group.order}, r={r}, |W| = {weyl.total_order}"

    for name in _SHIPPED:
        entry = catalog(name)
        yield check(f"{name} arrangement + count {entry.expected['count']}", count_check, entry)
        if "nbc" in skip:
            yield (f"{name} nbc oracle", "SKIP", "--skip nbc")
        else:
            yield check(f"{name} nbc oracle", nbc_check, entry)
        yield check(f"{name} group pipeline", group_check, entry)

    # a wreath entry's expected count is the closed form: the second route
    for label, n in (("A1", 2), ("A1", 3), ("A2", 2), ("A3", 2)):
        entry = catalog(f"wreath:{label}:{n}")
        yield check(f"wreath two-route ({label}, n={n})", count_check, entry)

    def ff_check(entry):
        report = analyze_arrangement(entry.arrangement, caps["flat_cap"])
        results = run_oracle(report, "ff", caps)
        return f"q={[c['q'] for c in results['finite_field']]} agree with chi"

    for name in ("q8d8", "wreath:a1:2", "wreath:a1:3", "wreath:a2:2"):
        if "ff" in skip:
            yield (f"finite-field oracle ({name})", "SKIP", "--skip ff")
        else:
            yield check(f"finite-field oracle ({name})", ff_check, catalog(name))

    def cone_check():
        for label, n in (("A1", 2), ("A2", 2)):
            letter, rank = parse_type_label(label)
            aff = affine_catalan(CatalanSpec(weyl_data(letter, rank), n))
            pi_aff = analyze_arrangement(aff, caps["flat_cap"]).poincare_poly
            pi_cone = analyze_arrangement(cone(aff), caps["flat_cap"]).poincare_poly
            cone_ok = pi_cone == IntegerPolynomial((1, 1)) * pi_aff
            _require(cone_ok, f"cone identity fails for {label} n={n}")
        return "pi(cA, t) = (1+t) pi(A, t)"

    yield check("cone identity on affine families", cone_check)

    def delres_check():
        for name in ("g4", "wreath:a1:2"):
            arrangement = catalog(name).arrangement
            chi = analyze_arrangement(arrangement, caps["flat_cap"]).char_poly
            for h in range(len(arrangement.hyperplanes)):
                deleted, restricted = deletion_restriction(arrangement, h)
                chi_d = analyze_arrangement(deleted, caps["flat_cap"]).char_poly
                chi_r = analyze_arrangement(restricted, caps["flat_cap"]).char_poly
                _require(chi == chi_d - chi_r, f"deletion-restriction fails at h={h}")
        return "chi(A) = chi(A') - chi(A'') for every h"

    yield check("deletion-restriction identity", delres_check)
