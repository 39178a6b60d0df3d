"""Bound curves tying Gaussian measures to negativities, and the
random-state experiments probing them.

At fixed nu_tilde_minus of the mixed state, the optimal pure-state
eigenvalue nu_tilde_opt is sandwiched: it never exceeds nu_tilde_minus
(a theorem, saturated by symmetric states) and never drops below
(1 - sqrt(1 - nu^2)) / nu (proven for the extremal families, conjectured in
general, saturated by maximal-negativity-at-fixed-marginals states of
diverging local mixedness).  The experiment here draws reproducible random
entangled states, minimizes each one, and counts violations of either
curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, SamplingError, TwoModeError
from .extremal import ExtremalParams, build_state
from .gaussian_em import NEAR_SEPARABLE_TOL, minimize_m
from .negativity import h_function, log_negativity
from .symplectic import StandardForm

#: Slack on the proven upper-curve inequality before a sample counts as a
#: violation.
VIOLATION_TOL = 1e-9

_MAX_REJECTIONS = 1_000_000


def nu_opt_upper(nu_tilde_sigma: float) -> float:
    """Ceiling for the optimal pure-state eigenvalue: nu itself."""
    nu = float(nu_tilde_sigma)
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu_tilde_sigma must lie in (0, 1], got {nu!r}")
    return nu


def nu_opt_lower(nu_tilde_sigma: float) -> float:
    """Floor for the optimal pure-state eigenvalue:
    (1 - sqrt(1 - nu^2)) / nu, evaluated as nu / (1 + sqrt(1 - nu^2))."""
    nu = float(nu_tilde_sigma)
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu_tilde_sigma must lie in (0, 1], got {nu!r}")
    return nu / (1.0 + math.sqrt(max(0.0, (1.0 - nu) * (1.0 + nu))))


def geof_bounds(log_neg: float, log_base=2) -> tuple[float, float]:
    """Rigorous floor and conjectured ceiling for the Gaussian entanglement
    of formation at fixed logarithmic negativity E > 0:
    (h(base^-E), h of the lower-curve image of base^-E)."""
    e_n = float(log_neg)
    if not e_n > 0.0:
        raise DomainError(f"log negativity must be positive, got {e_n!r}")
    # h_function rejects any base other than 2 and "e"
    nu = 2.0 ** (-e_n) if log_base == 2 else math.exp(-e_n)
    return h_function(nu, log_base), h_function(nu_opt_lower(nu), log_base)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    count: int
    s_max: float = 20.0
    mode: str = "extremal_params"

    def validate(self) -> None:
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count!r}")
        if not self.s_max > 1.0:
            raise DomainError(f"s_max must exceed 1, got {self.s_max!r}")
        if self.mode not in ("extremal_params", "raw_standard_form"):
            raise DomainError(f"unknown sampler mode {self.mode!r}")


@dataclass(frozen=True)
class Sample:
    index: int
    standard_form: StandardForm
    s: float
    d: float
    g: float
    lam: float


@dataclass(frozen=True)
class BoundPoint:
    index: int
    s: float
    d: float
    g: float
    lam: float
    nu_tilde_sigma: float
    nu_tilde_opt: float
    log_neg: float
    geof: float
    violates_42: bool
    violates_46: bool


@dataclass(frozen=True)
class ExperimentResult:
    points: list[BoundPoint]
    violations_upper: int
    violations_lower: int
    failures: list[tuple[int, str]]
    min_upper_slack: float
    min_m_max_slack: float


def _rng_for(seed: int, index: int) -> np.random.Generator:
    # One independent substream per sample index: parallel evaluation (or a
    # resumed run) regenerates identical states.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# A draw returns the fields of a Sample after its index, or None on rejection.
_Draw = tuple[StandardForm, float, float, float, float]


def _draw_extremal(rng: np.random.Generator, s_max: float) -> _Draw | None:
    s = rng.uniform(1.0, s_max)
    d = rng.uniform(-(s - 1.0), s - 1.0)
    lam = rng.uniform(-1.0, 1.0)
    g_lo = 2.0 * abs(d) + 1.0
    g_hi = 2.0 * s - 1.0
    if g_hi - g_lo <= 1e-9:
        return None
    g = rng.uniform(g_lo, g_hi)
    try:
        sf = build_state(ExtremalParams(s, d, g, lam))
    except TwoModeError:
        return None
    if not sf.spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL:
        return None
    return sf, s, d, g, lam


def _draw_raw(rng: np.random.Generator, s_max: float) -> _Draw | None:
    a = rng.uniform(1.0, s_max)
    b = rng.uniform(1.0, s_max)
    c_cap = math.sqrt(max(a * b - 1.0, 0.0))
    if c_cap <= 0.0:
        return None
    cp = rng.uniform(0.0, c_cap)
    cm = rng.uniform(-cp, 0.0)
    sf = StandardForm(a, b, cp, cm)
    if not sf.is_physical():
        return None
    if not sf.spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL:
        return None
    return sf, 0.5 * (a + b), 0.5 * (a - b), math.sqrt(sf.invariants().det_sigma), math.nan


def iter_samples(cfg: SamplerConfig) -> Iterator[Sample]:
    """Reproducible stream of entangled standard forms with their draw
    parameters.

    In ``extremal_params`` mode, (s, d, lambda) are uniform over their
    constraint ranges and g is uniform over the entangled window at those
    values (realized by rejection from the proposal window
    (2|d| + 1, 2s - 1), which contains it); ``raw_standard_form`` mode
    rejection-samples correlation boxes directly.
    """
    cfg.validate()
    draw = _draw_extremal if cfg.mode == "extremal_params" else _draw_raw
    for index in range(cfg.count):
        rng = _rng_for(cfg.seed, index)
        for _ in range(_MAX_REJECTIONS):
            fields = draw(rng, cfg.s_max)
            if fields is not None:
                yield Sample(index, *fields)
                break
        else:
            raise SamplingError(
                f"no acceptable state after {_MAX_REJECTIONS} rejections at index {index}"
            )


def bound_experiment(cfg: SamplerConfig, log_base=2) -> ExperimentResult:
    """Minimize every sampled state and test both bound curves.

    Upper-curve violations (nu_tilde_opt > nu_tilde_sigma + tol) falsify a
    theorem, so they should always count zero; lower-curve violations would
    be a genuine counterexample to the conjectured floor and are reported
    rather than raised.  Per-sample numerical failures are excluded from
    the counts and listed separately.
    """
    points: list[BoundPoint] = []
    failures: list[tuple[int, str]] = []
    violations_upper = 0
    violations_lower = 0
    min_upper_slack = math.inf
    min_m_max_slack = math.inf
    for sample in iter_samples(cfg):
        try:
            nu_sigma = sample.standard_form.spectrum().nu_tilde_minus
            gem = minimize_m(sample.standard_form, log_base=log_base)
        except TwoModeError as exc:
            failures.append((sample.index, str(exc)))
            continue
        violates_upper = gem.nu_tilde_opt > nu_opt_upper(nu_sigma) + VIOLATION_TOL
        violates_lower = gem.nu_tilde_opt < nu_opt_lower(nu_sigma) - VIOLATION_TOL
        violations_upper += violates_upper
        violations_lower += violates_lower
        min_upper_slack = min(min_upper_slack, nu_sigma - gem.nu_tilde_opt)
        min_m_max_slack = min(min_m_max_slack, 1.0 / nu_sigma**2 - gem.m_opt)
        points.append(BoundPoint(
            index=sample.index,
            s=sample.s,
            d=sample.d,
            g=sample.g,
            lam=sample.lam,
            nu_tilde_sigma=nu_sigma,
            nu_tilde_opt=gem.nu_tilde_opt,
            log_neg=log_negativity(nu_sigma, log_base),
            geof=gem.gaussian_eof,
            violates_42=violates_upper,
            violates_46=violates_lower,
        ))
    return ExperimentResult(
        points, violations_upper, violations_lower, failures,
        min_upper_slack, min_m_max_slack,
    )


def bound_curves(resolution: int = 512) -> list[tuple[float, float, float]]:
    """(nu_tilde, lower, upper) rows of the two analytic curves on (0, 1)."""
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    rows = []
    for i in range(resolution):
        nu = (i + 1) / (resolution + 1)
        rows.append((nu, nu_opt_lower(nu), nu_opt_upper(nu)))
    return rows
