"""The benchmark tracer's patch list against the package's names.

``perfbench/bench_trace.py`` replaces functions of ``twomode`` at the sites
the benchmark workloads reach them through.  A renamed or removed name makes
``Tracer.installed`` fail with a KeyError, which otherwise only the slow
benchmark smoke test would show.
"""

import importlib
from pathlib import Path

from twomode import bounds, cli, extremal, gaussian_em, symplectic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the package re-exports a function named ``negativity`` over the submodule
OWNERS = (bounds, cli, extremal, gaussian_em, symplectic,
          importlib.import_module("twomode.negativity"), symplectic.StandardForm)


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def _changed(before):
    return {(owner.__name__, name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items() if saved.get(name) is not value}


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_trace = importlib.import_module("bench_trace")
    before = _snapshot()
    with bench_trace.Tracer().installed():
        patched = _changed(before)
    assert ("twomode.bounds", "minimize_m") in patched
    assert ("twomode.gaussian_em", "minimize_m") in patched
    assert not _changed(before)
    assert [set(vars(owner)) for owner in OWNERS] == [set(saved) for saved in before]
