"""Cold-start times of the ``twomode`` commands, next to the bare interpreter.

Usage, from the root of a checkout:

    python tools/cold_start.py

Times, in fresh processes, ``twomode measure --squeezed-r 1``, ``measure
FILE.json``, ``scan --resolution 2`` and ``bounds --samples 1`` (run as
``python -m twomode.cli``), next to ``python -c pass`` and ``python -c
"import numpy"``.  Each time is wall clock from starting the process to its
exit, best and median of 7, with the commands interleaved round by round.
The package runs from a temporary copy of this checkout's
``src/``: once with no bytecode cache (no ``__pycache__``, and
``PYTHONDONTWRITEBYTECODE=1``, so every import compiles its module) and
once with a cache that ``compileall`` wrote first.  Each command's entry
also says whether it imported NumPy (read from ``-X importtime``).  The
process is pinned to one CPU, which its children inherit.  Prints one JSON
object.
"""

from __future__ import annotations

import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REPEATS = 7
STATE = {"cm": [[2.0, 0.3, 1.1, 0.0], [0.3, 2.0, 0.0, -1.0],
                [1.1, 0.0, 2.0, 0.3], [0.0, -1.0, 0.3, 2.0]]}


def commands(work: Path) -> dict[str, list[str]]:
    cli = ["-m", "twomode.cli"]
    return {
        "python -c pass": ["-c", "pass"],
        "python -c 'import numpy'": ["-c", "import numpy"],
        "measure --squeezed-r 1": [*cli, "measure", "--squeezed-r", "1"],
        "measure FILE.json": [*cli, "measure", str(work / "state.json")],
        "scan --resolution 2": [*cli, "scan", "--fixed-a", "5", "--b-range", "1", "5",
                                "--g-range", "1", "9", "--resolution", "2",
                                "--grid", str(work / "grid.csv"),
                                "--boundary", str(work / "boundary.csv")],
        "bounds --samples 1": [*cli, "bounds", "--samples", "1", "--seed", "1",
                               "--points", str(work / "points.csv"),
                               "--curves", str(work / "curves.csv")],
    }


def prepare(work: Path) -> dict:
    """Copy ``src/`` (without bytecode) and the JSON state into ``work``;
    returns the environment the commands run in."""
    src = work / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    (work / "state.json").write_text(json.dumps(STATE))
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def run(args: list[str], env: dict, work: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"cold_start: {args} exited {proc.returncode}: {proc.stderr}")
    return proc


def imports_numpy(args: list[str], env: dict, work: Path) -> bool:
    err = run(["-X", "importtime", *args], env, work).stderr
    return any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in err.splitlines())


def timings(cmds: dict[str, list[str]], env: dict, work: Path) -> dict:
    seconds = {label: [] for label in cmds}
    for _ in range(REPEATS):
        for label, args in cmds.items():
            t0 = time.perf_counter()
            run(args, env, work)
            seconds[label].append(time.perf_counter() - t0)
    return {label: {"best_s": round(min(ts), 4), "median_s": round(statistics.median(ts), 4),
                    "imports_numpy": imports_numpy(cmds[label], env, work)}
            for label, ts in seconds.items()}


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        work = Path(tmp)
        env = prepare(work)
        cmds = commands(work)
        no_cache = timings(cmds, env, work)
        compileall.compile_dir(work / "src", quiet=1)
        cache = timings(cmds, env, work)
    import numpy

    print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                      "cpus": os.cpu_count(), "repeats": REPEATS,
                      "no_bytecode_cache": no_cache, "bytecode_cache": cache}, indent=2))


if __name__ == "__main__":
    main()
