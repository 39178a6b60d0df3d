"""Smoke test of ``tools/cold_start.py``: each command it times runs and
exits 0.  No timing is taken."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cold_start.py"


def test_every_timed_command_exits_0(tmp_path):
    spec = importlib.util.spec_from_file_location("cold_start", TOOL)
    cold_start = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cold_start)
    env = cold_start.prepare(tmp_path)
    for args in cold_start.commands(tmp_path).values():
        assert cold_start.run(args, env, tmp_path).returncode == 0
