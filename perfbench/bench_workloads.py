"""The benchmark's four workloads: inputs, one top-level call, correctness gate.

Every workload is a closed loop of top-level calls made one after another
from a single thread.  ``call(k)`` is the timed unit; ``after_call(k)`` does
the untimed bookkeeping (hashing outputs); ``gate()`` checks all outputs
after the timed region and returns (items attempted, items failed, details).
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import math
import os
from array import array

import numpy as np

from twomode import bounds, cli, extremal, gaussian_em, symplectic
from twomode.errors import TwoModeError
from twomode.extremal import ExtremalParams
from twomode.gaussian_em import gamma_from_theta, m_theta

# The package re-exports a function named ``negativity`` that shadows the
# submodule attribute, so the module is taken from the import system.
negativity = importlib.import_module("twomode.negativity")

S_MAX = 20.0
#: States per ``twomode bounds`` command.  Real experiments draw thousands
#: (the README's example draws 50,000), so the per-command cost of argument
#: parsing and of the fixed-size curves CSV is spread as it is for users:
#: about 8 ms, under 1% of a command here (2-vCPU Xeon 2.1 GHz VM).
#: Raw mode costs about five times as much per state, so it draws fewer and
#: a run holds about as many commands, the samples of the latency
#: percentiles, as in extremal mode.
EXTREMAL_STATES = 4000
RAW_STATES = 1000
#: Leading states of each bounds command whose rows the oracles re-derive.
ORACLE_STATES = 32
#: Dense angular grid of acceptance criterion 8.
DENSE_GRID = np.linspace(0.0, 2.0 * math.pi, 7200, endpoint=False)
GRID_TOL = 1e-9
RIM_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-8
#: On the g = 2|d| + 1 edge, m_opt_gmems takes the square root of a factor
#: that vanishes there, so its rounding grows to about sqrt(machine eps)
#: (1.9e-8 relative seen at resolution 60).  Edge cells get this slack; the
#: worst difference on each side is recorded on every run.
EDGE_CLOSED_FORM_RTOL = 1e-7
BOUNDARY_GAP_TOL = 1e-5
#: Invariant route vs |i Omega sigma| eigenvalue route; the eigenvalue
#: route itself is only good to about 1e-8 relative on pure states.
SPECTRUM_RTOL = 1e-8

SCAN_WINDOW = ["--fixed-a", "5", "--b-range", "1", "5", "--g-range", "1", "9"]
ALL_REGIMES = {r.value for r in extremal.Regime}

MEASURE_KINDS = ("separable", "symmetric", "pure", "near_separable", "general")


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _CliWorkload:
    """Shared bookkeeping for workloads that run ``twomode.cli.main``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.exit_codes: list[int] = []
        self.output_bytes: list[int] = []
        self.digests: dict[str, set[str]] = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def _run(self, argv: list[str]) -> None:
        self.exit_codes.append(cli.main(argv))

    def _hash_outputs(self, files: dict[str, str]) -> None:
        """Record the size and sha256 of each output file under its label."""
        total = 0
        for label, name in files.items():
            path = self._path(name)
            if os.path.exists(path):
                total += os.path.getsize(path)
                self.digests.setdefault(label, set()).add(sha256_of(path))
        self.output_bytes.append(total)

    def record(self) -> dict:
        return {
            "csv_sha256": {label: sorted(d)[0] for label, d in sorted(self.digests.items())},
            "csv_not_byte_identical_across_repeats": sorted(
                label for label, d in self.digests.items() if len(d) > 1
            ),
        }


class BoundsWorkload(_CliWorkload):
    """``twomode bounds`` in-process.

    Every command reruns one experiment: ``states`` states drawn from the
    workload seed, so its CSVs should be byte-identical from command to
    command and from commit to commit.
    """

    def __init__(self, name: str, mode: str, states: int, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.name = name
        self.mode = mode
        self.states = states
        self.seed = seed
        #: Per command: rows written, ceiling violations, and the first
        #: ORACLE_STATES rows, which the oracles re-derive.
        self.outputs: list[tuple[int, int, list[dict]]] = []

    def inputs(self) -> dict:
        return {"command": "twomode bounds", "mode": self.mode, "s_max": S_MAX,
                "states_per_command": self.states, "sampler_seed": self.seed,
                "oracle_states": ORACLE_STATES}

    def argv(self, states: int) -> list[str]:
        return ["bounds", "--samples", str(states), "--seed", str(self.seed),
                "--s-max", repr(S_MAX), "--mode", self.mode,
                "--points", self._path("bound_points.csv"),
                "--curves", self._path("bound_curves.csv"),
                "--summary", self._path("summary.json")]

    def cold_argv(self) -> list[str]:
        return self.argv(1)

    def call(self, k: int) -> int:
        self._run(self.argv(self.states))
        return self.states

    def after_call(self, k: int) -> None:
        self._hash_outputs({name: name for name in ("bound_points.csv", "bound_curves.csv")})
        path = self._path("bound_points.csv")
        rows = _read_rows(path) if self.exit_codes[-1] == 0 and os.path.exists(path) else []
        violations = sum(r["violates_42"] != "0" for r in rows)
        self.outputs.append((len(rows), violations, rows[:ORACLE_STATES]))

    def gate(self) -> tuple[int, int, dict]:
        worst = {"grid_excess": -math.inf, "rim_rel": 0.0, "ceiling_excess": -math.inf,
                 "spectrum_rel": 0.0, "ceiling_violations": 0}
        cfg = bounds.SamplerConfig(seed=self.seed, count=ORACLE_STATES, s_max=S_MAX,
                                   mode=self.mode)
        oracles = [self._oracle(sample, worst) for sample in bounds.iter_samples(cfg)]
        attempted = failed = 0
        for written, violations, rows in self.outputs:
            attempted += self.states
            worst["ceiling_violations"] += violations
            failed += violations + self.states - written
            failed += sum(not self._row_ok(row, oracle, worst)
                          for row, oracle in zip(rows, oracles))
        return attempted, failed, worst

    @staticmethod
    def _oracle(sample, worst: dict) -> dict:
        """Re-derive one state's minimum and check it against the dense-grid
        and rim-geometry oracles and the proven ceiling."""
        sf = sample.standard_form
        gem = gaussian_em.minimize_m(sf)
        ceiling_excess = gem.nu_tilde_opt - sf.spectrum().nu_tilde_minus
        ordered = sf.sign_ordered()
        grid_excess = gem.m_opt - float(np.min(m_theta(ordered, DENSE_GRID)))
        rim = gamma_from_theta(ordered, gem.theta_opt).single_mode_determinant()
        rim_rel = abs(rim - gem.m_opt) / gem.m_opt
        worst["grid_excess"] = max(worst["grid_excess"], grid_excess)
        worst["rim_rel"] = max(worst["rim_rel"], rim_rel)
        worst["ceiling_excess"] = max(worst["ceiling_excess"], ceiling_excess)
        return {
            "state": (sample.index, sample.s, sample.d, sample.g, sample.lam),
            "nu_tilde_sigma": symplectic.spectrum_via_eigenvalues(sf.to_matrix()).nu_tilde_minus,
            "nu_tilde_opt": gem.nu_tilde_opt,
            "ok": (ceiling_excess <= bounds.VIOLATION_TOL
                   and grid_excess <= GRID_TOL and rim_rel <= RIM_RTOL),
        }

    @staticmethod
    def _row_ok(row: dict, oracle: dict, worst: dict) -> bool:
        """The CSV row belongs to the oracle's state, its nu_tilde_sigma
        matches the eigenvalue route, and its nu_tilde_opt is the oracle's."""
        written = (int(row["index"]), float(row["s"]), float(row["d"]),
                   float(row["g"]), float(row["lambda"]))
        same_state = all(x == y or (math.isnan(x) and math.isnan(y))
                         for x, y in zip(oracle["state"], written))
        nu_oracle = oracle["nu_tilde_sigma"]
        nu_rel = abs(float(row["nu_tilde_sigma"]) - nu_oracle) / max(1.0, nu_oracle)
        worst["spectrum_rel"] = max(worst["spectrum_rel"], nu_rel)
        return (oracle["ok"] and same_state and nu_rel <= SPECTRUM_RTOL
                and float(row["nu_tilde_opt"]) == oracle["nu_tilde_opt"])


class ScanWorkload(_CliWorkload):
    """``twomode scan`` over the fixed-a window of acceptance criterion 5."""

    name = "scan_slice"
    oracle_cells = 32

    def __init__(self, resolution: int, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.resolution = resolution
        self.seed = seed

    def inputs(self) -> dict:
        return {"command": "twomode scan " + " ".join(SCAN_WINDOW),
                "resolution": self.resolution, "oracle_cells": self.oracle_cells}

    def argv(self, resolution: int) -> list[str]:
        return ["scan", *SCAN_WINDOW, "--resolution", str(resolution),
                "--grid", self._path("ordering_grid.csv"),
                "--boundary", self._path("ordering_boundary.csv")]

    def cold_argv(self) -> list[str]:
        return self.argv(2)

    def call(self, k: int) -> int:
        self._run(self.argv(self.resolution))
        return self.resolution ** 2

    def after_call(self, k: int) -> None:
        self._hash_outputs({name: name for name in ("ordering_grid.csv", "ordering_boundary.csv")})

    def gate(self) -> tuple[int, int, dict]:
        cells = self.resolution ** 2
        runs = len(self.exit_codes)
        ok_runs = sum(code == 0 for code in self.exit_codes)
        failed = cells * (runs - ok_runs)
        grid = _read_rows(self._path("ordering_grid.csv"))
        boundary = _read_rows(self._path("ordering_boundary.csv"))
        regimes = {r["regime"] for r in grid}
        worst_gap = 0.0
        bad_points = 0
        for p in boundary:
            s, d, g = float(p["s"]), float(p["d"]), float(p["g_boundary"])
            gap = abs(extremal.m_opt_gmems(s=s, d=d, g=g) - extremal.m_opt_glems(s=s, d=d, g=g))
            worst_gap = max(worst_gap, gap)
            bad_points += not gap < BOUNDARY_GAP_TOL
        worst_rel, bad_cells = self._oracle_cells(grid)
        if len(grid) != cells or regimes != ALL_REGIMES:
            bad = cells
        else:
            bad = min(cells, bad_points + bad_cells)
        failed += ok_runs * bad
        details = {"regimes": sorted(regimes), "boundary_points": len(boundary),
                   "max_boundary_gap": worst_gap, "max_closed_form_rel": worst_rel}
        return cells * runs, failed, details

    def _oracle_cells(self, grid: list[dict]) -> tuple[dict, int]:
        """Closed forms on a seed-chosen subsample of entangled cells against
        the minimizer on the built state; returns the worst relative
        differences (interior and g = 2|d| + 1 edge) and the failing cells."""
        entangled = [r for r in grid if r["regime"] in
                     ("ordering_preserved", "ordering_inverted", "coexistence")]
        worst = {"interior": 0.0, "edge": 0.0}
        if not entangled:
            return worst, 0
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(entangled), size=min(self.oracle_cells, len(entangled)),
                           replace=False)
        bad = 0
        for i in sorted(picks):
            row = entangled[i]
            s, d, g = float(row["s"]), float(row["d"]), float(row["g"])
            m_g, m_l = float(row["m_gmems"]), float(row["m_glems"])
            checks = [(1.0, m_g)]
            if row["regime"] == "coexistence":
                ok = m_l == 1.0
            else:
                ok = (m_g >= m_l) == (row["regime"] == "ordering_preserved")
                checks.append((-1.0, m_l))
            edge = abs(g - (2.0 * abs(d) + 1.0)) <= 1e-12
            side, rtol = ("edge", EDGE_CLOSED_FORM_RTOL) if edge else ("interior", CLOSED_FORM_RTOL)
            for lam, closed in checks:
                oracle = gaussian_em.minimize_m(
                    extremal.build_state(ExtremalParams(s, d, g, lam))).m_opt
                rel = abs(closed - oracle) / oracle
                worst[side] = max(worst[side], rel)
                ok = ok and rel <= rtol
            bad += not ok
        return worst, bad


# -- measure_reports -------------------------------------------------------


def _pt_nu_and_physical(a, b, cp, cm) -> tuple[float, bool]:
    """nu_tilde_minus and physicality of a standard form, computed here
    rather than by the package so the inputs do not move with it."""
    det_sigma = (a * b - cp * cp) * (a * b - cm * cm)
    quad = a * a + b * b
    physical = (a * b > cp * cp and a * b > cm * cm and det_sigma >= 1.0
                and quad + 2.0 * cp * cm <= 1.0 + det_sigma)
    delta_t = quad - 2.0 * cp * cm
    disc = max(delta_t * delta_t - 4.0 * det_sigma, 0.0)
    hi_sq = 0.5 * (delta_t + math.sqrt(disc))
    return math.sqrt(det_sigma / hi_sq) if hi_sq > 0 else math.nan, physical


def _standard_form(kind: str, rng: np.random.Generator) -> tuple[float, ...]:
    if kind == "pure":
        r = rng.uniform(0.05, 1.5)
        return math.cosh(2 * r), math.cosh(2 * r), math.sinh(2 * r), -math.sinh(2 * r)
    while True:
        a = rng.uniform(1.0, S_MAX)
        b = a if kind == "symmetric" else rng.uniform(1.0, S_MAX)
        cp = rng.uniform(0.0, math.sqrt(a * b - 1.0))
        cm = rng.uniform(-cp, cp)
        nu, physical = _pt_nu_and_physical(a, b, cp, cm)
        if not physical:
            continue
        if kind == "separable":
            if nu > 1.0 + 1e-6:
                return a, b, cp, cm
        elif nu < 1.0 - 1e-3:
            if kind != "near_separable":
                return a, b, cp, cm
            # Scale the correlations back towards the product state until
            # nu_tilde_minus sits just below 1; convex mixing keeps it physical.
            target = 1.0 - 10.0 ** rng.uniform(-9.0, -4.0)
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _pt_nu_and_physical(a, b, mid * cp, mid * cm)[0] < target:
                    hi = mid
                else:
                    lo = mid
            return a, b, hi * cp, hi * cm


def _local_symplectic(rng: np.random.Generator) -> np.ndarray:
    out = np.zeros((4, 4))
    for block in (slice(0, 2), slice(2, 4)):
        phi, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
        r = rng.uniform(-0.75, 0.75)
        rot1 = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        rot2 = np.array([[math.cos(psi), -math.sin(psi)], [math.sin(psi), math.cos(psi)]])
        out[block, block] = rot1 @ np.diag([math.exp(r), math.exp(-r)]) @ rot2
    return out


def generate_measure_inputs(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw 4x4 covariance matrices: a standard form of a random kind seen
    through a random local symplectic transform.  Depends on the seed only."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    kinds = rng.integers(0, len(MEASURE_KINDS), size=count)
    mats = np.empty((count, 4, 4))
    for i, kind in enumerate(kinds):
        a, b, cp, cm = _standard_form(MEASURE_KINDS[kind], rng)
        sigma = np.array([[a, 0, cp, 0], [0, a, 0, cm], [cp, 0, b, 0], [0, cm, 0, b]])
        s = _local_symplectic(rng)
        m = s @ sigma @ s.T
        mats[i] = 0.5 * (m + m.T)
    return mats, kinds


class MeasureWorkload:
    """Per input, the library calls ``twomode measure`` makes."""

    name = "measure_reports"

    def __init__(self, pool: int, seed: int, out_dir: str):
        self.seed = seed
        self.input_path = os.path.join(out_dir, "measure_inputs.npz")
        mats, kinds = generate_measure_inputs(seed, pool)
        np.savez(self.input_path, matrices=mats, kinds=kinds)
        with np.load(self.input_path) as stored:
            self.matrices = list(stored["matrices"])
            self.kinds = stored["kinds"]
        self.nu = array("d")
        self.errors: list[tuple[int, str]] = []

    def inputs(self) -> dict:
        return {"calls": ["to_standard_form", "StandardForm.spectrum",
                          "negativity_report", "minimize_m"],
                "pool": len(self.matrices), "kinds": list(MEASURE_KINDS)}

    def call(self, k: int) -> int:
        cm = self.matrices[k % len(self.matrices)]
        try:
            sf = symplectic.to_standard_form(cm)
            nu = sf.spectrum().nu_tilde_minus
            negativity.negativity_report(sf)
            gaussian_em.minimize_m(sf)
        except TwoModeError as exc:
            self.errors.append((k, str(exc)))
            nu = math.nan
        self.nu.append(nu)
        return 1

    def after_call(self, k: int) -> None:
        pass

    def gate(self) -> tuple[int, int, dict]:
        n = len(self.nu)
        pool = len(self.matrices)
        oracle = np.array([symplectic.spectrum_via_eigenvalues(m).nu_tilde_minus
                           for m in self.matrices[:min(n, pool)]])
        got = np.array(self.nu)
        want = oracle[np.arange(n) % pool]
        rel = np.abs(got - want) / np.maximum(1.0, want)
        bad = ~(rel <= SPECTRUM_RTOL)
        # Each failing input by (seed, pool index) so it can be replayed with
        # generate_measure_inputs(seed, pool)[0][index].
        failing = sorted(set((np.flatnonzero(bad) % pool).tolist()))
        details = {"max_spectrum_rel": float(np.nanmax(rel)) if n > len(self.errors) else 0.0,
                   "exceptions": self.errors[:5],
                   "failing_inputs": [
                       {"seed": self.seed, "index": i, "kind": MEASURE_KINDS[self.kinds[i]],
                        "nu_tilde_minus": float(got[i]), "oracle": float(oracle[i]),
                        "rel": float(rel[i])} for i in failing[:5]]}
        return n, int(bad.sum()), details

    def record(self) -> dict:
        counts = np.bincount(self.kinds, minlength=len(MEASURE_KINDS))
        return {"input_kind_shares": {k: float(c) / len(self.kinds)
                                      for k, c in zip(MEASURE_KINDS, counts)}}


def make(name: str, seed: int, out_dir: str, small: bool = False):
    """Workload by name; ``small`` shrinks each call for the smoke test."""
    if name == "bounds_extremal":
        return BoundsWorkload(name, "extremal_params", 4 if small else EXTREMAL_STATES,
                              seed, out_dir)
    if name == "bounds_raw":
        return BoundsWorkload(name, "raw_standard_form", 4 if small else RAW_STATES,
                              seed, out_dir)
    if name == "scan_slice":
        return ScanWorkload(12 if small else 60, seed, out_dir)
    if name == "measure_reports":
        return MeasureWorkload(64 if small else 4096, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")

