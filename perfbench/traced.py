"""Child side of the traced run: one CLI operation with layer spans.

    python3 perfbench/traced.py SPANS_FILE -- <oscount CLI arguments>
    python3 perfbench/traced.py --micro ARR_FILE

The first form imports `oscount.cli`, wraps the public functions of each
module at every name their callers bind (for example both
`oscount.cli.intersection_lattice` and `oscount.counting.intersection_lattice`),
runs `oscount.cli.main(argv)` and exits with its code.  Spans (name, start,
end, parent, facts about the call) are kept in memory and written to
SPANS_FILE as JSON when the operation ends.  Nothing under `src/` changes.

The second form prints the rate of `Scalar.__mul__` and `linalg.reduce_row`
calls on the rows and field of one arrangement file, as JSON.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# Span name -> the functions it covers.  Each is wrapped in every oscount
# module that binds it, so nested calls (region_count calling
# characteristic_polynomial, say) become child spans.
LAYER_FUNCTIONS = {
    "arrangement.lattice": ("intersection_lattice",),
    "arrangement.invariants": (
        "characteristic_polynomial",
        "poincare_polynomial",
        "essential_rank",
        "region_count",
    ),
    "counting.count": ("count_resolutions",),
    "matroid.good_primes": ("find_good_primes",),
    "matroid.nbc": ("nbc_betti",),
    "matroid.ff_count": ("finite_field_count",),
    "groups.reflections": ("symplectic_reflections",),
    "groups.parabolics": ("minimal_parabolics",),
    "groups.zeta": ("verify_zeta_bijection",),
    "fileio.parse": ("parse_arrangement_file", "parse_group_file"),
}
MODULES = ("cli", "counting", "arrangement", "matroid", "groups", "fileio")

# Facts recorded with a span, from the call's arguments and result.
FACTS = {
    "arrangement.lattice": lambda args, result: {"flats": result.num_flats()},
    "matroid.nbc": lambda args, result: {"nbc_sets": sum(result)},
    "matroid.good_primes": lambda args, result: {"good_primes": list(result)},
    "matroid.ff_count": lambda args, result: {"points": args[1] ** args[0].ambient_dim},
    "groups.enumerate": lambda args, result: {"order": len(result)},
    "fileio.parse": lambda args, result: {"bytes": os.path.getsize(args[0])},
}


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            facts = FACTS.get(name)
            if facts is not None:
                # The tracer must not change the program's behaviour, so a
                # fact it cannot read is reported, never raised.
                try:
                    span["facts"] = facts(args, result)
                except Exception as exc:  # noqa: BLE001
                    span["facts_error"] = repr(exc)
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every binding of the layer functions; return the names found nowhere."""
    modules = [importlib.import_module(f"oscount.{m}") for m in MODULES]
    missing = []
    for name, functions in LAYER_FUNCTIONS.items():
        for fn_name in functions:
            found = False
            for module in modules:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    setattr(module, fn_name, recorder.wrap(name, fn))
                    found = True
            if not found:
                missing.append(fn_name)
    groups = sys.modules["oscount.groups"]
    matrix_group = getattr(groups, "MatrixGroup", None)
    if matrix_group is not None and hasattr(matrix_group, "enumerate_elements"):
        matrix_group.enumerate_elements = recorder.wrap(
            "groups.enumerate", matrix_group.enumerate_elements
        )
    else:
        missing.append("MatrixGroup.enumerate_elements")
    return missing


def run_traced(spans_file: str, argv: list[str]) -> int:
    recorder = Recorder()
    start = time.perf_counter()
    import oscount.cli

    recorder.spans.append(
        {"name": "cli.import", "parent": None, "start": start, "end": time.perf_counter()}
    )
    missing = install(recorder)
    try:
        code = oscount.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)
    return code


def _rate(fn, min_seconds: float = 0.5) -> float:
    """Calls of `fn` per second; `fn()` makes `fn.calls` calls."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += fn.calls
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return calls / elapsed


def micro(arr_file: str) -> dict:
    from oscount.fileio import parse_arrangement_file
    from oscount.linalg import reduce_row, rref_rows

    arrangement = parse_arrangement_file(arr_file)
    rows = [h.row() for h in arrangement.hyperplanes]
    scalars = [x for row in rows for x in row]
    pairs = list(zip(scalars, scalars[1:] + scalars[:1]))

    def mul():
        for a, b in pairs:
            a * b

    mul.calls = len(pairs)
    # Reduce every row against the rref of the first l-1 rows: fewer than l
    # rows leave most reductions nonzero, so they do the full work.
    pivot_rows, pivots = rref_rows(rows[: arrangement.ambient_dim - 1])

    def reduce():
        for row in rows:
            reduce_row(row, pivot_rows, pivots)

    reduce.calls = len(rows)
    return {"fields.mul_per_s": _rate(mul), "linalg.reduce_row_per_s": _rate(reduce)}


if __name__ == "__main__":
    if sys.argv[1] == "--micro":
        print(json.dumps(micro(sys.argv[2])))
        sys.exit(0)
    spans_file, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced.py SPANS_FILE -- ARGS... | traced.py --micro ARR_FILE")
    sys.exit(run_traced(spans_file, cli_argv))
