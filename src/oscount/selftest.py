"""`oscount selftest`: every catalog check, run through the same pipeline
as `count`, `analyze` and `group analyze`.

The CLI imports this module only for the `selftest` command and passes in
its own report builders (`group_doc`, `run_oracles`), so no other command
compiles the checks and this module never imports `oscount.cli`.
"""

from __future__ import annotations

import json
import time

from .errors import OscountError

__all__ = ["run_selftest"]


def run_selftest(caps: dict, skip: set[str], as_json: bool, group_doc, run_oracles) -> int:
    """Print every check's row (or one JSON document); exit code 0 when
    none failed, else 3."""
    t0 = time.perf_counter()
    rows = list(_checks(caps, skip, group_doc, run_oracles))
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


def _checks(caps, skip: set[str], group_doc, run_oracles):
    """Yield (name, status, detail) rows; status in PASS/FAIL/SKIP.  Every
    expected number comes from the catalog entry under test."""
    from .arrangement import cone, deletion_restriction
    from .counting import analyze_arrangement, catalog, count_resolutions, wreath_count_closed_form
    from .matroid import nbc_betti
    from .polynomial import IntegerPolynomial
    from .rootdata import (
        CatalanSpec,
        affine_catalan,
        catalan_arrangement,
        parse_type_label,
        weyl_data,
    )

    def check(name, fn, *args):
        try:
            return (name, "PASS", fn(*args))
        except (OscountError, AssertionError) as exc:
            return (name, "FAIL", str(exc))

    def count_check(entry):
        e = entry.expected
        report = count_resolutions(entry.arrangement, entry.weyl_data, caps["flat_cap"])
        if "poincare" in e:
            assert report.poincare_poly.coefficients == e["poincare"], (
                f"Poincare {report.poincare_poly.coefficients} != {e['poincare']}"
            )
        assert report.os_dimension == e["os_dimension"], (
            f"pi(1) = {report.os_dimension} != {e['os_dimension']}"
        )
        assert report.resolution_count == e["count"], f"count {report.resolution_count}"
        if "regions" in e:
            assert report.regions == e["regions"], f"regions {report.regions}"
        return f"count {report.resolution_count}, OS dim {report.os_dimension}"

    def nbc_check(entry):
        betti = nbc_betti(entry.arrangement, caps["subset_cap"])
        assert tuple(betti) == entry.expected["poincare"], f"nbc {betti}"
        return f"betti {betti}"

    def group_check(entry):
        e = entry.expected
        doc, bijective = group_doc(entry.group, caps)
        assert doc["order"] == e["group_order"], f"order {doc['order']}"
        r = doc["num_reflection_classes"]
        assert r == e["reflection_classes"], f"r = {r}"
        labels = tuple(p["kleinian_label"] for p in doc["parabolic_classes"])
        assert labels == e["parabolic_labels"], f"labels {labels}"
        assert all(p["xi_class_action_trivial"] for p in doc["parabolic_classes"])
        assert bijective, "zeta bijection failed"
        weyl = doc["namikawa_weyl"]
        assert weyl is not None, doc.get("namikawa_weyl_note")
        assert weyl["total_order"] == e["weyl_order"], f"|W| = {weyl['total_order']}"
        return f"order {doc['order']}, r={r}, |W| = {weyl['total_order']}"

    for name in ("q8d8", "g4"):
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

    def n1_check():
        for label in ("A1", "A2", "A3", "D4", "D5", "E6", "E7", "E8"):
            letter, rank = parse_type_label(label)
            assert wreath_count_closed_form(weyl_data(letter, rank), 1) == 1, label
        return "closed form (*, n=1) = 1"

    yield check("n=1 degeneracy (closed form)", n1_check)

    def ff_check(entry):
        report = analyze_arrangement(entry.arrangement, caps["flat_cap"])
        results = run_oracles(report, "ff", caps)
        return f"q={[c['q'] for c in results['finite_field']]} agree with chi"

    if "ff" in skip:
        yield ("finite-field oracle", "SKIP", "--skip ff")
    else:
        for name in ("q8d8", "wreath:a1:2", "wreath:a1:3", "wreath:a2:2"):
            yield check(f"finite-field oracle ({name})", ff_check, catalog(name))

    def cone_check():
        for label, n in (("A1", 2), ("A2", 2)):
            letter, rank = parse_type_label(label)
            spec = CatalanSpec(weyl_data(letter, rank), n)
            aff = affine_catalan(spec)
            pi_aff = analyze_arrangement(aff, caps["flat_cap"]).poincare_poly
            coned = cone(aff)
            assert coned.same_hyperplanes(catalan_arrangement(spec))
            pi_cone = analyze_arrangement(coned, caps["flat_cap"]).poincare_poly
            assert pi_cone == IntegerPolynomial((1, 1)) * pi_aff, (
                f"cone identity fails for {label} n={n}"
            )
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
                assert chi == chi_d - chi_r, f"deletion-restriction fails at h={h}"
        return "chi(A) = chi(A') - chi(A'') for every h"

    yield check("deletion-restriction identity", delres_check)
