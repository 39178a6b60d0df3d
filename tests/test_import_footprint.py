"""What a fresh interpreter loads for ``import twomode`` and ``twomode measure``.

Each test runs its code in a new Python process, since the test session has
imported every module already.  ``bounds`` and ``extremal`` import NumPy and
serve only the bound experiments, the extremal families and the scans, so
the package resolves their names on first use, and a single-state report
from a matrix, a file or stdin runs on Python floats alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twomode

SRC = str(Path(twomode.__file__).resolve().parents[1])
LAZY_MODULES = ["numpy", "twomode.bounds", "twomode.extremal", "twomode.cli"]
STATE = {"cm": [[2.0, 0.3, 1.1, 0.0], [0.3, 2.0, 0.0, -1.0],
                [1.1, 0.0, 2.0, 0.3], [0.0, -1.0, 0.3, 2.0]]}


def run_python(code: str, *args: str, stdin: str = "") -> str:
    """stdout of ``python -c code args`` with this checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_numpy_nor_the_experiments():
    loaded = json.loads(run_python(
        "import json, sys, twomode\n"
        f"print(json.dumps([name for name in {LAZY_MODULES!r} if name in sys.modules]))"))
    assert loaded == []


@pytest.mark.parametrize("source", ["--squeezed-r", "file", "stdin"])
def test_measure_never_imports_numpy(tmp_path, source):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(STATE))
    args = {"--squeezed-r": ["--squeezed-r", "1"], "file": [str(path)], "stdin": ["-"]}[source]
    out = run_python(
        "import contextlib, io, json, sys\n"
        "from twomode.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "    code = main(['measure', *sys.argv[1:]])\n"
        "print(json.dumps([code, json.loads(report.getvalue()), 'numpy' in sys.modules]))",
        *args, stdin=json.dumps(STATE))
    code, report, numpy_loaded = json.loads(out)
    assert code == 0 and "gaussian_em" in report
    assert not numpy_loaded


def test_every_public_name_resolves_on_first_use():
    out = run_python(
        "import json, types, twomode\n"
        "missing = [name for name in twomode.__all__ if not hasattr(twomode, name)]\n"
        "namespace = {}\n"
        "exec('from twomode import *', namespace)\n"
        "unbound = sorted(set(twomode.__all__) - set(namespace))\n"
        "print(json.dumps([missing, unbound, isinstance(twomode.negativity, types.FunctionType),\n"
        "                  twomode.negativity is namespace['negativity']]))")
    missing, unbound, is_function, same = json.loads(out)
    assert missing == [] and unbound == []
    assert is_function and same
    assert set(twomode._LAZY) <= set(dir(twomode))
