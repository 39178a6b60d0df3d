"""End-to-end and per-layer benchmark of twomode.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench_workloads.py): bounds_extremal, bounds_raw, scan_slice,
measure_reports.  Each run is one process and one thread.  It builds its
inputs from --seed, makes one untimed warm-up call, then repeats top-level
calls for --seconds and checks every output afterwards.

--trace 0 reports the end-to-end metrics: throughput (items per second:
states, grid cells or reports), latency percentiles of the top-level calls
(one twomode bounds or scan command, or one report), the median time for a
fresh process to import twomode and finish the first item, and the peak
resident memory.  Times are scaled to a nominal host speed by reference
probes between calls (speed.py); the record also gives them as measured.
--trace 1 spends a third of the time untraced and the rest with spans
around each module's public functions, and reports calls and self time per
function, each layer's share of the traced wall time and the tracing
overhead.  Spans of the last traced run of each workload are
kept in .bench_out/spans-<workload>.npz.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric by name and unit
and a record of the inputs, output digests and gate details.
perfbench/baseline.json holds these figures for the commit the benchmark
was first run on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("bounds_extremal", "bounds_raw", "scan_slice", "measure_reports")
#: Fresh processes started per run to time set-up; their median is reported.
SETUP_REPEATS = 9
#: Least time between two probes of the host's speed in a timed loop.
PROBE_EVERY_S = 0.05
#: Share of a traced run spent untraced, as the base of the overhead ratio.
UNTRACED_SHARE = 1.0 / 3.0

END_TO_END = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_TIMED_FUNCTIONS = (
    "gaussian_em.minimize_m", "extremal.build_state", "extremal.ordering_compare",
    "extremal.m_opt_gmems", "extremal.m_opt_glems", "symplectic.to_standard_form",
    "symplectic.spectrum", "negativity.negativity_report",
)
PER_LAYER = {
    **{f"{name}.{stat}": unit for name in _TIMED_FUNCTIONS
       for stat, unit in (("calls", "1/item"), ("self_us", "us"))},
    "gaussian_em.path_general": "1/item",
    "gaussian_em.path_symmetric": "1/item",
    "gaussian_em.path_separable": "1/item",
    "gaussian_em.extrema_found.mean": "count",
    "bounds.sample.self_us": "us",
    "bounds.sample.accept_ratio": "ratio",
    "bounds.experiment.self_us": "us",
    "extremal.scan.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    **{f"share.{layer}": "ratio" for layer in
       ("symplectic", "negativity", "gaussian_em", "extremal", "bounds", "cli", "untraced")},
}


def load_package() -> None:
    """Import twomode from this checkout's src/, never from elsewhere."""
    package = SRC / "twomode"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no twomode package at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import twomode

    if Path(twomode.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported twomode from {twomode.__file__}, not {package}")


@dataclass
class Loop:
    """Outcome of one timed loop."""

    wall: array      # seconds per top-level call
    scaled: array    # the same at nominal host speed (see speed.py)
    items: int
    next_call: int


def timed_loop(workload, seconds: float, first_call: int, tracer=None) -> Loop:
    """Closed loop of top-level calls for ``seconds``.  The host's speed is
    probed before the first call, whenever PROBE_EVERY_S has passed, and
    after the last call; probes and bookkeeping are outside the call times."""
    wall = array("d")
    segment = array("i")
    probes = [speed.probe(0.0)]
    items = 0
    k = first_call
    last_probe = time.perf_counter()
    deadline = last_probe + seconds
    while True:
        since = time.perf_counter() - last_probe
        if since >= PROBE_EVERY_S:
            probes.append(speed.probe(since))
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.item = items
        t0 = time.perf_counter()
        items += workload.call(k)
        t1 = time.perf_counter()
        wall.append(t1 - t0)
        segment.append(len(probes) - 1)
        workload.after_call(k)
        k += 1
        if t1 >= deadline:
            break
    probes.append(speed.probe(time.perf_counter() - last_probe))
    scaled = array("d", (t * speed.scale(probes[s], probes[s + 1])
                         for t, s in zip(wall, segment)))
    return Loop(wall, scaled, items, k)


def setup_seconds(workload, run_dir: str) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to the end of the
    workload's first item, at nominal host speed and as measured."""
    if hasattr(workload, "cold_argv"):
        probe = ["cli", *workload.cold_argv()]
    else:
        probe = ["measure", workload.input_path]
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.probe(wall[-1] if wall else 0.0)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), str(SRC), *probe],
            cwd=run_dir, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr}")
        wall.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(wall[-1] * speed.scale(before, speed.probe(wall[-1])))
    return statistics.median(scaled), statistics.median(wall)


def percentile_ms(latencies, q: int) -> float:
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    loop = timed_loop(workload, seconds, 1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "throughput": loop.items / sum(loop.scaled),
        "latency_p50_ms": percentile_ms(loop.scaled, 50),
        "latency_p99_ms": percentile_ms(loop.scaled, 99),
        "peak_rss_mb": rss_mb,
    }
    info = {"calls": len(loop.wall), "items": loop.items,
            "wall_throughput": loop.items / sum(loop.wall),
            "wall_latency_p50_ms": percentile_ms(loop.wall, 50),
            "wall_latency_p99_ms": percentile_ms(loop.wall, 99)}
    return values, info


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from bench_trace import Tracer, summarize

    base = timed_loop(workload, seconds * UNTRACED_SHARE, 1)
    tracer = Tracer()
    with tracer.installed():
        traced = timed_loop(workload, seconds * (1.0 - UNTRACED_SHARE), base.next_call, tracer)
    wall = sum(traced.wall)
    items = traced.items
    tracer.write(str(spans_path))
    summary = summarize(tracer, wall)
    by_name = summary["by_name"]

    def stat(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0)

    def per_call(name: str, scale: float) -> float:
        calls = stat(name, "calls")
        return scale * stat(name, "self_s") / calls if calls else 0.0

    values = {}
    for name in _TIMED_FUNCTIONS:
        values[f"{name}.calls"] = stat(name, "calls") / items
        values[f"{name}.self_us"] = per_call(name, 1e6)
    minimize_calls = stat("gaussian_em.minimize_m", "calls")
    for path, count in tracer.paths().items():
        values[f"gaussian_em.path_{path}"] = count / items
    values["gaussian_em.extrema_found.mean"] = (
        sum(result.extrema_found for *_, result in tracer.minimized) / minimize_calls
        if minimize_calls else 0.0)
    values["bounds.sample.self_us"] = (
        1e6 * stat("bounds.sample", "self_s") / tracer.accepted if tracer.accepted else 0.0)
    values["bounds.sample.accept_ratio"] = (
        tracer.accepted / tracer.draws if tracer.draws else 0.0)
    values["bounds.experiment.self_us"] = per_call("bounds.experiment", 1e6)
    values["extremal.scan.self_ms"] = per_call("extremal.scan", 1e3)
    values["cli.main.self_ms"] = per_call("cli.main", 1e3)
    written = getattr(workload, "output_bytes", [])[-len(traced.wall):]
    values["cli.output_bytes"] = statistics.mean(written) if written else 0.0
    values["trace.overhead_ratio"] = ((sum(traced.scaled) / items)
                                      / (sum(base.scaled) / base.items))
    for layer, seconds_in in summary["layer_s"].items():
        values[f"share.{layer}"] = seconds_in / wall
    values["share.untraced"] = summary["gap_s"] / wall
    info = {"calls": len(traced.wall), "items": items, "spans": summary["spans"],
            "self_total_s": summary["self_total_s"], "gap_s": summary["gap_s"],
            "wall_s": wall, "min_self_s": summary["min_self_s"]}
    return values, info


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result object and the run record."""
    import bench_workloads

    OUT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workload = bench_workloads.make(name, seed, run_dir, small=small)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            workload.call(0)
            workload.after_call(0)
            if trace:
                values, info = per_layer(workload, seconds, OUT / f"spans-{name}.npz")
            else:
                values, info = end_to_end(workload, seconds)
        attempted, failed, gate = workload.gate()
        if not trace:
            values["setup_s"], info["wall_setup_s"] = setup_seconds(workload, run_dir)
        units = PER_LAYER if trace else END_TO_END
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "inputs": workload.inputs(), "run": info, "gate": gate,
                  "error_rate": failed / attempted}
        if hasattr(workload, "record"):
            record.update(workload.record())
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
        }
        return {"result": result, "record": record}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # One CPU for the whole run, set-up probes included, so that the speed
    # probes time the CPU the measured code runs on: the host slows each
    # vCPU independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_package()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = out["result"], out["record"]
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} items failed)")
    print("record " + json.dumps(record, default=str))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
