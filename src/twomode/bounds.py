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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, SamplingError, TwoModeError
from .extremal import ExtremalParams, _delta_tilde, build_state
# minimize_m is unused here, but perfbench/bench_trace.py patches bounds.minimize_m
from .gaussian_em import NEAR_SEPARABLE_TOL, minimize_block, minimize_m
from .negativity import h_function, log_negativity
from .symplectic import DEFAULT_TOL, StandardForm, _dets

#: Slack on the proven upper-curve inequality before a sample counts as a
#: violation.
VIOLATION_TOL = 1e-9

_MAX_REJECTIONS = 1_000_000

#: Largest accepted s_max.  It covers the documented range of s (up to about
#: 1e5) tenfold, and s^4, the largest power the sampler and the minimizer
#: form, stays far below overflow.
S_MAX_LIMIT = 1e6


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
        if self.seed < 0:
            raise DomainError(f"seed must be at least 0, got {self.seed!r}")
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count!r}")
        if not 1.0 < self.s_max <= S_MAX_LIMIT:
            raise DomainError(
                f"s_max must exceed 1 and be at most {S_MAX_LIMIT:g}, got {self.s_max!r}")
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


# Attempts are drawn and screened in rounds.  Each round tops up every
# pending index's buffer of unwalked doubles to a row of whole attempts, one
# ``rng.random(n)`` call per index, and screens all the rows as one array;
# only an attempt that passes the screen builds a StandardForm.  Each index
# then walks its row to the first attempt that the screen keeps or that
# stops early, and the next round resumes from the doubles after it.  Each
# attempt reads the doubles that scalar ``rng.uniform`` calls would, in the
# same order, so sample i is the same as drawn one value at a time.  Doubles
# drawn past the accepted attempt are never used: every index owns its
# generator.

#: Indices whose rows are screened as one array.  Larger chunks save
#: little time and raise a run's peak memory: at 64 the screen's
#: temporaries doubled the traced peak of a 1000-state raw run.
_CHUNK = 16
#: The row of attempts doubles each round after the first
#: (``_Mode.first_block``), up to this many attempts.
_MAX_BLOCK = 512
#: Doubles a full attempt reads.
_WIDTH = 4
#: Relative slack by which the screens' entanglement test is looser than the
#: scalar one; the rounding between the two routes is orders smaller.
_SCREEN_RTOL = 1e-6


def _uniform(low, high, u):
    """What ``Generator.uniform(low, high)`` returns for the double u that
    ``Generator.random()`` returns from the same state."""
    return low + (high - low) * u


def _may_be_entangled(delta_tilde, det_sigma):
    """Necessary condition for nu_tilde_minus < 1 - NEAR_SEPARABLE_TOL at
    Det sigma >= 1 (nu_tilde_minus < 1 iff Delta_tilde > 1 + Det sigma),
    with slack for rounding."""
    bar = 1.0 + det_sigma
    return delta_tilde - bar > -_SCREEN_RTOL * (np.abs(delta_tilde) + bar)


def _screen_extremal(u: np.ndarray, s_max: float):
    """Fields (s, d, g, lambda) of the attempts u[..., :4], the mask of those
    that stop after 3 doubles (empty g window) and of those that may pass."""
    s = _uniform(1.0, s_max, u[..., 0])
    d = _uniform(-(s - 1.0), s - 1.0, u[..., 1])
    lam = _uniform(-1.0, 1.0, u[..., 2])
    g_lo = 2.0 * np.abs(d) + 1.0
    g_hi = 2.0 * s - 1.0
    short = g_hi - g_lo <= 1e-9
    g = _uniform(g_lo, g_hi, u[..., 3])
    keep = ~short & _may_be_entangled(_delta_tilde(s, d, g, lam), g * g)
    return (s, d, g, lam), short, keep


def _screen_raw(u: np.ndarray, s_max: float):
    """Fields (a, b, c_plus, c_minus) of the attempts u[..., :4], the mask of
    those that stop after 2 doubles (a b <= 1) and of those that may pass:
    the first two inequalities of ``StandardForm.is_physical`` as it
    evaluates them, and a loose entanglement test."""
    a = _uniform(1.0, s_max, u[..., 0])
    b = _uniform(1.0, s_max, u[..., 1])
    c_cap = np.sqrt(np.maximum(a * b - 1.0, 0.0))
    short = c_cap <= 0.0
    cp = _uniform(0.0, c_cap, u[..., 2])
    cm = _uniform(-cp, 0.0, u[..., 3])
    det_sigma, delta, delta_tilde = _dets(a, b, cp, cm)
    keep = (~short
            & (det_sigma >= 1.0 - DEFAULT_TOL)
            & (delta <= 1.0 + det_sigma + DEFAULT_TOL)
            & _may_be_entangled(delta_tilde, det_sigma))
    return (a, b, cp, cm), short, keep


# A draw returns the fields of a Sample after its index, or None on rejection.
_Draw = tuple[StandardForm, float, float, float, float]


def _confirm_extremal(s: float, d: float, g: float, lam: float) -> _Draw | None:
    try:
        sf = build_state(ExtremalParams(s, d, g, lam))
    except TwoModeError:
        return None
    if not sf.spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL:
        return None
    return sf, s, d, g, lam


def _confirm_raw(a: float, b: float, cp: float, cm: float) -> _Draw | None:
    sf = StandardForm(a, b, cp, cm)
    if not sf.is_physical():
        return None
    if not sf.spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL:
        return None
    return sf, 0.5 * (a + b), 0.5 * (a - b), math.sqrt(sf.invariants().det_sigma), math.nan


@dataclass(frozen=True)
class _Mode:
    screen: Callable
    confirm: Callable[..., _Draw | None]
    #: Doubles an attempt reads when it stops early.
    short_width: int
    #: Attempts in the first round's rows: an extremal state takes about 1.3
    #: attempts, a raw one 37 at s_max 20 and 740 at s_max 200.
    first_block: int


_MODES = {
    "extremal_params": _Mode(_screen_extremal, _confirm_extremal, 3, 4),
    "raw_standard_form": _Mode(_screen_raw, _confirm_raw, 2, 64),
}


class _IndexWalk:
    """One index's generator, the doubles it drew and has not yet walked,
    the attempts walked, and the accepted draw.  Each round reads a
    ``row`` and ``advance``s past the attempts walked in it."""

    __slots__ = ("index", "rng", "buffer", "walked", "draw")

    def __init__(self, seed: int, index: int):
        self.index = index
        self.rng = _rng_for(seed, index)
        self.buffer = np.empty(0)
        self.walked = 0
        self.draw: _Draw | None = None

    def row(self, attempts: int) -> np.ndarray:
        """The next ``attempts`` * 4 doubles of the stream: the buffer, topped
        up by one draw."""
        fresh = self.rng.random(_WIDTH * attempts - self.buffer.size)
        self.buffer = np.concatenate((self.buffer, fresh)) if self.buffer.size else fresh
        return self.buffer

    def advance(self, attempts: int, doubles: int) -> None:
        """Walk ``attempts`` attempts, which read the buffer's first
        ``doubles`` doubles."""
        self.walked += attempts
        self.buffer = self.buffer[doubles:]


def _chunk_samples(cfg: SamplerConfig, indices: range) -> Iterator[Sample]:
    """Samples of consecutive ``indices``, each yielded once it and every
    index before it is decided."""
    mode = _MODES[cfg.mode]
    s_max = float(cfg.s_max)
    walks = [_IndexWalk(cfg.seed, index) for index in indices]
    pending = walks
    attempts = mode.first_block
    done = 0
    while pending:
        rows = np.stack([w.row(attempts) for w in pending])
        fields, short, keep = mode.screen(rows.reshape(len(pending), attempts, _WIDTH), s_max)
        # Each row is walked to its first attempt that the screen keeps or
        # that stops early, and no further.
        stop = short | keep
        lead = np.arange(len(pending))
        first = stop.argmax(axis=1)
        first_stop = stop[lead, first].tolist()
        first_keep = keep[lead, first].tolist()
        first_fields = zip(*(f[lead, first].tolist() for f in fields))
        for w, k, stops, kept, values in zip(
                pending, first.tolist(), first_stop, first_keep, first_fields):
            if not stops:
                w.advance(attempts, _WIDTH * attempts)
            elif kept:
                w.draw = mode.confirm(*values)
                w.advance(k + 1, _WIDTH * (k + 1))
            else:
                w.advance(k + 1, _WIDTH * k + mode.short_width)
        pending = [w for w in pending if w.draw is None and w.walked < _MAX_REJECTIONS]
        for w in walks[done:]:
            if w.draw is None and w.walked < _MAX_REJECTIONS:
                break
            if w.draw is None or w.walked > _MAX_REJECTIONS:
                raise SamplingError(
                    f"no acceptable state after {_MAX_REJECTIONS} rejections at index {w.index}"
                )
            done += 1
            yield Sample(w.index, *w.draw)
        attempts = min(2 * attempts, _MAX_BLOCK)


def iter_samples(cfg: SamplerConfig) -> Iterator[Sample]:
    """Reproducible stream of entangled standard forms with their draw
    parameters.

    In ``extremal_params`` mode, (s, d, lambda) are uniform over their
    constraint ranges and g is uniform over the entangled window at those
    values (realized by rejection from the proposal window
    (2|d| + 1, 2s - 1), which contains it); ``raw_standard_form`` mode
    rejection-samples correlation boxes directly.  Sample i depends only on
    (seed, i, s_max, mode): it is the first accepted attempt of its own
    generator, whose doubles are drawn in rounds.
    """
    cfg.validate()
    for start in range(0, cfg.count, _CHUNK):
        yield from _chunk_samples(cfg, range(start, min(start + _CHUNK, cfg.count)))


#: States minimized at once by ``bound_experiment``: enough to spread the
#: per-call cost of the array route thin, few enough to keep what a block
#: holds (its samples, results and array temporaries, about 0.5 KB per
#: state) small.
_BLOCK = 256


def bound_experiment(cfg: SamplerConfig, log_base=2) -> ExperimentResult:
    """Minimize every sampled state and test both bound curves.

    Upper-curve violations (nu_tilde_opt > nu_tilde_sigma + tol) falsify a
    theorem, so they should always count zero; lower-curve violations would
    be a genuine counterexample to the conjectured floor and are reported
    rather than raised.  Per-sample numerical failures are excluded from
    the counts and listed separately.

    The stream is minimized in blocks of ``_BLOCK`` states by
    ``minimize_block``; a state's failure is the error ``minimize_m`` raises.
    """
    points: list[BoundPoint] = []
    failures: list[tuple[int, str]] = []
    violations_upper = 0
    violations_lower = 0
    min_upper_slack = math.inf
    min_m_max_slack = math.inf
    samples = iter_samples(cfg)
    while block := list(itertools.islice(samples, _BLOCK)):
        outcomes = minimize_block([sample.standard_form for sample in block], log_base)
        for sample, outcome in zip(block, outcomes):
            if isinstance(outcome, TwoModeError):
                failures.append((sample.index, str(outcome)))
                continue
            nu_sigma, gem = outcome
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
