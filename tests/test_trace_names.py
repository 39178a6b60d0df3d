"""The benchmark harness against the package's names.

``perfbench/bench_trace.py`` replaces functions of ``twomode`` at the sites
the benchmark workloads reach them through.  A renamed or removed name makes
``Tracer.installed`` fail with a KeyError, which otherwise only the slow
benchmark smoke test would show.  The workloads import ``gamma_from_theta``
and ``m_theta``, and the tracer's path count calls ``is_symmetric(rtol)``
with ``negativity.SYMMETRY_RTOL``; importing the one and classifying a
traced call with the other fail here on such a name too.
"""

import importlib
from pathlib import Path

from twomode import StandardForm, bounds, cli, extremal, gaussian_em, symplectic

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
    assert ("twomode.bounds", "build_state") in patched
    assert ("twomode.bounds", "StandardForm") in patched
    assert ("twomode.gaussian_em", "minimize_m") in patched
    assert not _changed(before)
    assert [set(vars(owner)) for owner in OWNERS] == [set(saved) for saved in before]


def test_workloads_import_and_tracer_counts_paths(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("bench_workloads")
    tracer = importlib.import_module("bench_trace").Tracer()
    with tracer.installed():
        gaussian_em.minimize_m(StandardForm(2.0, 2.0, 1.5, -1.5))
    assert tracer.paths() == {"general": 0, "symmetric": 1, "separable": 0}
