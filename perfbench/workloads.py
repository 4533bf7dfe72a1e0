"""Workload inputs, operations and independent reference values.

Each workload is a list of CLI operations.  The seed permutes the hyperplane
order of every generated `.arr` file: the answers do not depend on that
order, but the lattice and nbc traversal order does, so runs are compared
only at equal seeds.

The reference values are closed forms coded here, not read from
`oscount.catalog(...).expected` or `wreath_count_closed_form`, so that a
check never depends on the code it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# --- independent references -------------------------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def factored_poincare(roots) -> list[int]:
    """prod_i (1 + b_i t), lowest degree first."""
    out = [1]
    for b in roots:
        out = poly_mul(out, [1, b])
    return out


def chi_from_poincare(pi: list[int], q: int) -> int:
    """chi(q) = sum_k (-1)^k b_k q^(l-k) for an essential central arrangement
    of rank l = deg pi."""
    ell = len(pi) - 1
    return sum((-1) ** k * b * q ** (ell - k) for k, b in enumerate(pi))


def wreath_closed_form(h: int, exponents, n: int) -> int:
    """prod_i ((n-1) h + e_i + 1) / (e_i + 1) for the wreath family."""
    value = math.prod(Fraction((n - 1) * h + e + 1, e + 1) for e in exponents)
    if value.denominator != 1:
        raise ValueError(f"closed form {value} is not an integer")
    return int(value)


# q8d8: the published Poincare polynomial of the order-32 group's arrangement.
Q8D8_POINCARE = [1, 21, 170, 650, 1125, 625]
Q8D8_WEYL = 2**5  # five A1 parabolic classes
Q8D8_COUNT = 81

# D4 (Coxeter number 6, exponents 1, 3, 3, 5), n = 2: the coned Catalan
# arrangement has pi = (1 + t) prod_i (1 + ((n-1) h + e_i) t) (Athanasiadis).
D4_H, D4_EXPONENTS, WREATH_N = 6, (1, 3, 3, 5), 2
D4_WEYL = 2 * (2**3 * math.factorial(4))  # A1 factor times |W(D4)| = 192
D4_POINCARE = factored_poincare([1] + [(WREATH_N - 1) * D4_H + e for e in D4_EXPONENTS])
D4_COUNT = wreath_closed_form(D4_H, D4_EXPONENTS, WREATH_N)

# G(4,1,4) over Q(zeta_4): Orlik-Solomon, pi = prod (1 + b_i t) with
# coexponents b_i = 1, m+1, 2m+1, 3m+1 for m = 4.
G414_POINCARE = factored_poincare([1, 5, 9, 13])
# g4 (order-24 group): three lines through the origin of C^2.
G4_POINCARE = factored_poincare([1, 2])
G4_WEYL = 3
G4_COUNT = 2

# setup_s probe: the closed form for (A1, n = 2), h = 2, exponent 1.
A1_N2_COUNT = wreath_closed_form(2, (1,), 2)


# --- checks --------------------------------------------------------------


def _get(doc: dict, path: str):
    for key in path.split("."):
        doc = doc[key]
    return doc


def _expect(pairs: dict) -> Callable[[dict], list[str]]:
    """A check comparing dotted paths of the JSON document to references."""

    def check(doc: dict) -> list[str]:
        bad = []
        for path, want in pairs.items():
            try:
                got = _get(doc, path)
            except (KeyError, TypeError):
                bad.append(f"{path}: missing")
                continue
            if got != want:
                bad.append(f"{path}: {got!r} != reference {want!r}")
        return bad

    return check


def _all(*checks) -> Callable[[dict], list[str]]:
    return lambda doc: [msg for c in checks for msg in c(doc)]


def _ff_agrees_with_reference(pi: list[int]) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        rows = doc.get("oracle_results", {}).get("finite_field", [])
        if not rows:
            return ["oracle_results.finite_field: missing"]
        return [
            f"finite field q={r['q']}: count {r['count']} != chi(q) {chi_from_poincare(pi, r['q'])}"
            for r in rows
            if r["count"] != chi_from_poincare(pi, r["q"])
        ]

    return check


def _labels(want: list[str]) -> Callable[[dict], list[str]]:
    def check(doc: dict) -> list[str]:
        got = [p["kleinian_label"] for p in doc.get("parabolic_classes", [])]
        return [] if got == want else [f"parabolic labels {got} != reference {want}"]

    return check


# --- operations ----------------------------------------------------------


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


SETUP_OP = Op(
    "setup",
    ("wreath-formula", "--type", "A1", "--n", "2", "--json"),
    _expect({"count": A1_N2_COUNT}),
)


def _count_checks(pi: list[int], weyl: int, count: int, real: bool, nbc: bool):
    os_dim = sum(pi)
    pairs = {
        "poincare_poly.coefficients": pi,
        "os_dimension": os_dim,
        "weyl_order": weyl,
        "resolution_count": count,
    }
    if real:
        pairs["regions"] = os_dim
    if nbc:
        pairs["oracle_results.nbc_betti"] = pi
        pairs["oracle_results.agrees"] = True
    return _expect(pairs)


def q8d8_ops(work: Path) -> list[Op]:
    arr = str(work / "Q.arr")
    return [
        Op(
            "count-nbc",
            ("count", "--arrangement", arr, "--weyl-order", str(Q8D8_WEYL), "--oracle", "nbc", "--json"),
            _count_checks(Q8D8_POINCARE, Q8D8_WEYL, Q8D8_COUNT, real=True, nbc=True),
        ),
        Op(
            "analyze-ff",
            ("analyze", arr, "--oracle", "ff", "--json"),
            _all(
                _expect({"poincare_poly.coefficients": Q8D8_POINCARE, "oracle_results.agrees": True}),
                _ff_agrees_with_reference(Q8D8_POINCARE),
            ),
        ),
        Op(
            "group-q8d8",
            ("group", "analyze", "src/oscount/data/q8d8.grp", "--json"),
            _all(
                _expect({"order": 32, "num_reflection_classes": 5, "namikawa_weyl.total_order": Q8D8_WEYL}),
                _labels(["A1"] * 5),
            ),
        ),
    ]


def wreath_ops(work: Path) -> list[Op]:
    return [
        Op(
            "count-D4-2",
            ("count", "--arrangement", str(work / "D.arr"), "--weyl-order", str(D4_WEYL), "--json"),
            _all(
                _count_checks(D4_POINCARE, D4_WEYL, D4_COUNT, real=True, nbc=False),
                _expect({"num_hyperplanes": 37}),
            ),
        ),
    ]


def cyclotomic_ops(work: Path) -> list[Op]:
    return [
        Op(
            "analyze-G414",
            ("analyze", str(work / "G.arr"), "--oracle", "nbc", "--json"),
            _expect(
                {
                    "poincare_poly.coefficients": G414_POINCARE,
                    "os_dimension": sum(G414_POINCARE),
                    "num_hyperplanes": 28,
                    "oracle_results.nbc_betti": G414_POINCARE,
                    "oracle_results.agrees": True,
                }
            ),
        ),
        Op(
            "count-g4",
            ("count", "--arrangement", "src/oscount/data/g4.arr", "--weyl-order", str(G4_WEYL), "--oracle", "nbc", "--json"),
            _count_checks(G4_POINCARE, G4_WEYL, G4_COUNT, real=False, nbc=True),
        ),
        Op(
            "group-g4",
            ("group", "analyze", "src/oscount/data/g4.grp", "--json"),
            _expect({"order": 24, "num_reflection_classes": 2, "namikawa_weyl.total_order": G4_WEYL}),
        ),
    ]


# --- seeded input generation (not timed) ------------------------------------


def _write_permuted(path: Path, arrangement, rng: random.Random):
    from oscount import build_arrangement
    from oscount.fileio import serialize_arrangement

    planes = list(arrangement.hyperplanes)
    rng.shuffle(planes)
    permuted = build_arrangement(arrangement.field, arrangement.ambient_dim, planes)
    path.write_text(serialize_arrangement(permuted), encoding="utf-8")


def write_q8d8(root: Path, work: Path, rng: random.Random):
    from oscount.fileio import parse_arrangement_file

    _write_permuted(work / "Q.arr", parse_arrangement_file(str(root / "src/oscount/data/q8d8.arr")), rng)


def write_wreath(root: Path, work: Path, rng: random.Random):
    from oscount import CatalanSpec, catalan_arrangement, weyl_data

    _write_permuted(work / "D.arr", catalan_arrangement(CatalanSpec(weyl_data("D", 4), WREATH_N)), rng)


def write_cyclotomic(root: Path, work: Path, rng: random.Random):
    """The reflection arrangement of G(4,1,4): x_i = 0 and x_i = zeta^k x_j."""
    from oscount import build_arrangement, cyclotomic_field

    field = cyclotomic_field(4)
    zero, one, zeta = field.zero(), field.one(), field.zeta()
    dim = 4
    raw = [(tuple(one if j == i else zero for j in range(dim)), zero) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            power = one
            for _ in range(4):
                normal = [zero] * dim
                normal[i], normal[j] = one, -power
                raw.append((tuple(normal), zero))
                power = power * zeta
    _write_permuted(work / "G.arr", build_arrangement(field, dim, raw), rng)


@dataclass(frozen=True)
class Workload:
    write_inputs: Callable[[Path, Path, random.Random], None]
    ops: Callable[[Path], list[Op]]
    # the generated file whose rows and field the fields/linalg rates use
    micro_input: str


WORKLOADS = {
    "q8d8": Workload(write_q8d8, q8d8_ops, "Q.arr"),
    "wreath-D4-2": Workload(write_wreath, wreath_ops, "D.arr"),
    "cyclotomic": Workload(write_cyclotomic, cyclotomic_ops, "G.arr"),
}
