"""Smoke test of the benchmark at tiny sizes, traced and untraced.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``;
it is not part of the tier-1 suite, whose testpaths is ``tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run.run(workload, seed=3, seconds=0.2, trace=trace, small=True)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("per_layer" if trace else "end_to_end")
    assert {m: e["unit"] for m, e in result["metrics"].items()} == units
    assert all(math.isfinite(e["value"]) for e in result["metrics"].values())
    if not trace:
        assert all(e["value"] > 0 for e in result["metrics"].values())
        return
    info = out["record"]["run"]
    assert info["min_self_s"] >= 0.0
    # The wall time outside every root span is the loop's own bookkeeping.
    assert 0.0 <= info["gap_s"] <= 0.25 * info["wall_s"]
    path = run.OUT / f"spans-{workload}.npz"
    _check_span_nesting(path)
    _check_roots(path, workload, info["calls"])


#: Root spans each top-level call opens, by workload.
ROOTS = {
    "bounds_extremal": ["cli.main"],
    "bounds_raw": ["cli.main"],
    "scan_slice": ["cli.main"],
    "measure_reports": ["symplectic.to_standard_form", "symplectic.spectrum",
                        "negativity.negativity_report", "gaussian_em.minimize_m"],
}


def _check_roots(path: Path, workload: str, calls: int) -> None:
    """Each traced top-level call opens exactly the expected root spans, in
    order, and no span carries an item id older than its parent's (a bounds
    command spans as many items as it draws states)."""
    with np.load(path) as spans:
        names, name_id = spans["names"], spans["name_id"]
        parent, item = spans["parent"], spans["item"]
    roots = [str(names[i]) for i in name_id[parent < 0]]
    assert roots == ROOTS[workload] * calls
    child = parent >= 0
    assert np.all(item[child] >= item[parent[child]])
    assert np.all(np.diff(item[parent < 0]) >= 0)


def _check_span_nesting(path: Path) -> None:
    """Children lie inside their parent and do not overlap one another, so
    subtracting their summed durations is subtracting what they cover."""
    with np.load(path) as spans:
        start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert start.size and np.all(end >= start)
    child = parent >= 0
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])
    order = np.lexsort((start, parent))
    same = parent[order][1:] == parent[order][:-1]
    assert np.all(start[order][1:][same] >= end[order][:-1][same])


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_slice", "--seed", "5",
         "--seconds", "0.3", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_fails_without_the_program():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bounds_raw", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
