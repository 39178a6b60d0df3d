"""Span tracing for the traced benchmark run.

Spans are recorded from the benchmark's side only: the public functions of
each ``twomode`` module are replaced, at every site the workloads reach them
through, by wrappers that open a span around the original call.  Spans stay
in memory (name, start, end, parent span, item id) until the run ends; self
times are derived from them afterwards.  Nothing here is active during the
untraced run, whose end-to-end metrics are therefore free of tracing cost.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from time import perf_counter

import numpy as np

from twomode import bounds, cli, extremal, gaussian_em, symplectic
from twomode.gaussian_em import GemResult
from twomode.negativity import SYMMETRY_RTOL

# The package re-exports a function named ``negativity`` that shadows the
# submodule attribute, so the module is taken from the import system.
negativity = importlib.import_module("twomode.negativity")

#: Layers are the package's modules; every span name starts with one of them.
LAYERS = ("symplectic", "negativity", "gaussian_em", "extremal", "bounds", "cli")

_SEPARABLE_RESULT = GemResult(1.0, 0.0, 1.0, 0.0, 1)


class Tracer:
    """In-memory span store for one traced run (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.items = array("q")
        self._stack: list[int] = []
        #: Item id stamped on every span opened from now on.
        self.item = 0
        self.draws = 0
        self.accepted = 0
        #: (standard form, symmetric_shortcut, GemResult) of each minimize_m call.
        self.minimized: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # -- wrappers that also count what the call did ------------------------

    def _minimize_m(self, fn):
        traced = self.wrap("gaussian_em.minimize_m", fn)

        def minimize_m(sf, *args, **kwargs):
            result = traced(sf, *args, **kwargs)
            self.minimized.append((sf, kwargs.get("symmetric_shortcut", True), result))
            return result

        return minimize_m

    def paths(self) -> dict[str, int]:
        """Which branch of minimize_m each call took, classified after the
        run so the tracer adds no program calls to the timed region."""
        counts = {"general": 0, "symmetric": 0, "separable": 0}
        for sf, shortcut, result in self.minimized:
            if result == _SEPARABLE_RESULT:
                counts["separable"] += 1
            elif shortcut and sf.is_symmetric(SYMMETRY_RTOL):
                counts["symmetric"] += 1
            else:
                counts["general"] += 1
        return counts

    def _iter_samples(self, fn):
        name_id = self.name_id("bounds.sample")

        def iter_samples(cfg):
            stream = fn(cfg)
            base = self.item
            for index in range(cfg.count + 1):
                self.item = base + index
                idx = self.open(name_id)
                try:
                    sample = next(stream)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.accepted += 1
                yield sample

        return iter_samples

    def _counting(self, fn, name: str | None = None):
        inner = self.wrap(name, fn) if name else fn

        def counted(*args, **kwargs):
            self.draws += 1
            return inner(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Replace the public functions at their import sites; restore on exit."""
        build_state = self.wrap("extremal.build_state", extremal.build_state)
        to_standard_form = self.wrap("symplectic.to_standard_form", symplectic.to_standard_form)
        negativity_report = self.wrap("negativity.negativity_report",
                                      negativity.negativity_report)
        minimize_m = self._minimize_m(gaussian_em.minimize_m)
        patches = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (symplectic, "to_standard_form", to_standard_form),
            (cli, "to_standard_form", to_standard_form),
            (symplectic.StandardForm, "spectrum",
             self.wrap("symplectic.spectrum", symplectic.StandardForm.spectrum)),
            (negativity, "negativity_report", negativity_report),
            (cli, "negativity_report", negativity_report),
            (gaussian_em, "minimize_m", minimize_m),
            (bounds, "minimize_m", minimize_m),
            (cli, "minimize_m", minimize_m),
            (extremal, "build_state", build_state),
            (extremal, "ordering_compare",
             self.wrap("extremal.ordering_compare", extremal.ordering_compare)),
            (extremal, "m_opt_gmems", self.wrap("extremal.m_opt_gmems", extremal.m_opt_gmems)),
            (extremal, "m_opt_glems", self.wrap("extremal.m_opt_glems", extremal.m_opt_glems)),
            (extremal, "scan_ordering_slice",
             self.wrap("extremal.scan", extremal.scan_ordering_slice)),
            (bounds, "bound_experiment",
             self.wrap("bounds.experiment", bounds.bound_experiment)),
            (bounds, "iter_samples", self._iter_samples(bounds.iter_samples)),
            # The sampler's draws: build_state in extremal mode, the
            # StandardForm constructor in raw mode.
            (bounds, "build_state", self._counting(extremal.build_state, "extremal.build_state")),
            (bounds, "StandardForm", self._counting(bounds.StandardForm)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "item": np.frombuffer(self.items, dtype=np.int64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    On one thread, children of a span are disjoint and lie inside it, so
    their summed durations are the part of the parent they cover.
    """
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-name calls and self time, self time per layer, and the untraced
    gap: the part of ``wall_s`` outside every root span."""
    spans = tracer.arrays()
    own = self_times(spans)
    dur = spans["end"] - spans["start"]
    roots = spans["parent"] < 0
    by_name = {}
    for name_id, name in enumerate(tracer.names):
        mask = spans["name_id"] == name_id
        by_name[name] = {"calls": int(mask.sum()), "self_s": float(own[mask].sum())}
    layers = {layer: 0.0 for layer in LAYERS}
    for name, stats in by_name.items():
        layers[name.split(".")[0]] += stats["self_s"]
    gap = wall_s - float(dur[roots].sum())
    return {
        "by_name": by_name,
        "layer_s": layers,
        "gap_s": gap,
        "wall_s": wall_s,
        "self_total_s": float(own.sum()),
        "min_self_s": float(own.min()) if own.size else 0.0,
        "spans": int(own.size),
    }
