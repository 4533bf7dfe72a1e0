"""Tracing must not change what the program computes.

    python3 -m pytest perfbench/tests/check_tracing.py

For every operation of every workload, the traced run's JSON equals the
untraced JSON in every field except `timing_seconds`, and the layer self
times plus `cli.self_s` account for the traced wall time.  It runs every
operation twice, about 90 s on a 2-core machine, so the file name keeps it
out of the default `test_*.py` collection of the repository's suite.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

SELF_TIMES = [m for m in run.LAYER_METRICS if m.endswith("_s") and m != "counting.count_s"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_json_equals_untraced_json(name, tmp_path):
    workload = WORKLOADS[name]
    workload.write_inputs(run.ROOT, tmp_path, random.Random(1))
    runner = run.Runner(tmp_path, deadline=time.perf_counter() + 600)
    for op in workload.ops(tmp_path):
        plain = runner.run_op(op)
        traced = runner.run_op(op, traced=True, same_as=plain.doc)
        assert plain.errors == [] and traced.errors == [], (op.name, plain.errors, traced.errors)
        assert run._untimed(traced.doc) == run._untimed(plain.doc)
        assert {s["name"] for s in traced.spans} > {"cli.import"}, op.name

        layers = run.layer_metrics([traced])
        assert layers["cli.self_s"] >= 0
        assert math.isclose(sum(layers[m] for m in SELF_TIMES), traced.wall, rel_tol=1e-9)
