"""Smoke test of ``tools/code_lines.py``: it counts the package's modules
and prints their total."""

import re
import subprocess
import sys
from pathlib import Path

import twomode

ROOT = Path(__file__).resolve().parents[1]


def test_prints_each_module_and_a_total():
    package = Path(twomode.__file__).resolve().parent
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(package)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *modules, total = proc.stdout.splitlines()
    counts = [int(line.split()[0]) for line in modules]
    assert len(counts) == len(list(package.rglob("*.py"))) and min(counts) > 0
    assert re.fullmatch(r"\d+ total", total) and int(total.split()[0]) == sum(counts)
