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
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, SamplingError, TwoModeError
from .extremal import (_FLOATS, ColumnTable, ExtremalParams, _integer, _state, build_state,
                       gmems_threshold)
# minimize_m is unused here, but perfbench/bench_trace.py patches bounds.minimize_m
from .gaussian_em import NEAR_SEPARABLE_TOL, minimize_columns, minimize_m
from .negativity import _log_divisor, h_function
from .symplectic import DEFAULT_TOL, StandardForm, _dets, _nu_pairs

#: Slack on the proven upper-curve inequality before a sample counts as a
#: violation.
VIOLATION_TOL = 1e-9

_MAX_REJECTIONS = 1_000_000

#: Largest accepted sample count.  Index i is a uint64 word of its attempts'
#: Philox counters and an entry of the sampler's int64 index arrays, so
#: indices stay below 2**63.
COUNT_LIMIT = 2**63

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
    return _lower_curve(nu, _FLOATS)


def _lower_curve(nu, xp=np):
    """``nu_opt_lower`` of every nu in (0, 1] under ``xp``."""
    return nu / (1.0 + xp.sqrt(xp.maximum(0.0, (1.0 - nu) * (1.0 + nu))))


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
        seed, count = _integer("seed", self.seed), _integer("count", self.count)
        if seed < 0:
            raise DomainError(f"seed must be at least 0, got {self.seed!r}")
        if not 1 <= count <= COUNT_LIMIT:
            raise DomainError(
                f"count must be >= 1 and at most {COUNT_LIMIT}, got {self.count!r}")
        if not (isinstance(self.s_max, numbers.Real) and 1.0 < self.s_max <= S_MAX_LIMIT):
            raise DomainError(
                f"s_max must exceed 1 and be at most {S_MAX_LIMIT:g}, got {self.s_max!r}")
        if self.mode not in ("extremal_params", "raw_standard_form"):
            raise DomainError(f"unknown sampler mode {self.mode!r}")


class Sample(NamedTuple):
    index: int
    standard_form: StandardForm
    s: float
    d: float
    g: float
    lam: float


class BoundPoint(NamedTuple):
    """One state's row of the ``bounds`` points CSV, in its column order."""
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
    """``bound_experiment``'s outcome: the table of ``BoundPoint`` of the
    states minimized, the violation counts and minimal slacks over them, and
    the (index, message) of each state that failed instead."""
    points: ColumnTable
    violations_upper: int
    violations_lower: int
    failures: list[tuple[int, str]]
    min_upper_slack: float
    min_m_max_slack: float


# Attempt k of index i reads the first four doubles of numpy's
# ``Generator(Philox(key=SeedSequence(seed).generate_state(2, np.uint64),
# counter=[k, i, 0, 0]))``.  Philox4x64-10 is counter-based (Salmon,
# Moraes, Dror and Shaw, SC'11), and numpy steps the counter before its
# first block, so attempt k is the block of counter (k + 1, i, 0, 0), and
# attempts k .. k + n - 1 are one draw of 4n doubles.  Each attempt is a
# pure function of (seed, i, k): one that stops early, after 2 or 3
# doubles, shifts no later attempt, and nothing is carried between rounds.
# Attempts are drawn and tested in rounds.  Each round draws every pending
# index's row of attempts from the first one it has not tested and tests
# every attempt of every row at once, exactly: an attempt gets the outcome
# that the scalar test (``_confirm_extremal`` or ``_confirm_raw``) gives it.
# Each index stops at its first attempt that is accepted or has an
# undefined spectrum.

#: States minimized at once by ``bound_experiment``, and indices whose
#: extremal rows are tested as one array: enough to spread the per-call
#: cost of the array routes thin, few enough to keep what a block holds (its
#: columns, results and array temporaries, about 0.7 KB per state by
#: tracemalloc) small.
_BLOCK = 256


#: The row of attempts doubles each round after the first
#: (``_Mode.first_block``), up to this many attempts.
_MAX_BLOCK = 512
#: Doubles of an attempt: one Philox block.
_WIDTH = 4


def _uniform(low, high, u):
    """What ``Generator.uniform(low, high)`` returns for the double u that
    ``Generator.random()`` returns from the same state."""
    return low + (high - low) * u


# A confirm returns a sample's values in ``_COLUMNS`` order, or None on
# rejection.
_Draw = tuple[float, float, float, float, float, float, float, float, float]

#: The columns of a block of samples, by row of its values: each sample's
#: draw parameters, standard form and nu_tilde_minus.
_COLUMNS = ("s", "d", "g", "lam", "a", "b", "c_plus", "c_minus", "nu_tilde_minus")

#: nu_tilde_minus below which an attempt is entangled enough.
_CUT = 1.0 - NEAR_SEPARABLE_TOL


def _confirm_extremal(s: float, d: float, g: float, lam: float) -> _Draw | None:
    try:
        sf = build_state(ExtremalParams(s, d, g, lam))
    except TwoModeError:
        return None
    nu = sf.spectrum().nu_tilde_minus
    return (s, d, g, lam, sf.a, sf.b, sf.c_plus, sf.c_minus, nu) if nu < _CUT else None


def _confirm_raw(a: float, b: float, cp: float, cm: float) -> _Draw | None:
    sf = StandardForm(a, b, cp, cm)
    if not sf.is_physical():
        return None
    nu = sf.spectrum().nu_tilde_minus
    return ((0.5 * (a + b), 0.5 * (a - b), math.sqrt(sf.invariants().det_sigma), math.nan,
             a, b, cp, cm, nu) if nu < _CUT else None)


def _test(args, form, params, passes, dets) -> tuple:
    """A confirm run on arrays.  ``args`` are the attempts' values,
    ``form`` their standard forms with (Det sigma, Delta, Delta_tilde)
    ``dets``, and ``passes`` the mask where they pass the confirm's tests
    before the spectrum.  Returns the masks of the attempts it accepts and
    of those where it raises (``_nu_pairs`` gives NaN), ``args``, and a
    function from an index (index arrays or a mask) to the ``_COLUMNS``
    there, whose draw parameters ``params`` gives."""
    det_sigma, delta, delta_tilde = dets
    nu_minus, nu = (_nu_pairs(x, det_sigma, x * x - 4.0 * det_sigma)[0]
                    for x in (delta, delta_tilde))
    undefined = passes & (np.isnan(nu_minus) | np.isnan(nu))

    def columns(at) -> list[np.ndarray]:
        return [*params(at), *(c[at] for c in form), nu[at]]
    return passes & ~undefined & (nu < _CUT), undefined, args, columns


def _test_extremal(s, d, g, lam) -> tuple:
    """``_confirm_extremal`` of every (s, d, g, lambda) on arrays:
    ``build_state``'s arithmetic and checks run on the columns."""
    form, _, fits = _state(s, d, g, lam)
    return _test((s, d, g, lam), form, lambda at: [c[at] for c in (s, d, g, lam)],
                 fits & np.isfinite(form[2]) & np.isfinite(form[3]), _dets(*form))


def _test_raw(a, b, cp, cm) -> tuple:
    """``_confirm_raw`` of every raw draw (a, b, c_plus, c_minus) on arrays.
    Of ``is_physical``'s inequalities only two can fail on a draw, and they
    are evaluated as it evaluates them: a, b >= 1 and a b - c_pm^2 >=
    1 - O(a b eps) hold by construction for s_max up to ``S_MAX_LIMIT``."""
    det_sigma, delta, delta_tilde = _dets(a, b, cp, cm)
    passes = (det_sigma >= 1.0 - DEFAULT_TOL) & (delta <= 1.0 + det_sigma + DEFAULT_TOL)

    def params(at):
        a_k, b_k = a[at], b[at]
        return [0.5 * (a_k + b_k), 0.5 * (a_k - b_k), np.sqrt(det_sigma[at]),
                np.full(a_k.shape, math.nan)]
    return _test((a, b, cp, cm), (a, b, cp, cm), params, passes, (det_sigma, delta, delta_tilde))


def _attempts_extremal(u: np.ndarray, s_max: float) -> tuple:
    """The mask of the attempts u[..., :4] that stop after 3 doubles (empty
    g window), and ``_test_extremal`` of their (s, d, g, lambda)."""
    s = _uniform(1.0, s_max, u[..., 0])
    d = _uniform(-(s - 1.0), s - 1.0, u[..., 1])
    lam = _uniform(-1.0, 1.0, u[..., 2])
    g_lo = 2.0 * np.abs(d) + 1.0
    g_hi = gmems_threshold(s)
    return g_hi - g_lo <= 1e-9, _test_extremal(s, d, _uniform(g_lo, g_hi, u[..., 3]), lam)


def _attempts_raw(u: np.ndarray, s_max: float) -> tuple:
    """The mask of the attempts u[..., :4] that stop after 2 doubles
    (a b <= 1), and ``_test_raw`` of their (a, b, c_plus, c_minus)."""
    a = _uniform(1.0, s_max, u[..., 0])
    b = _uniform(1.0, s_max, u[..., 1])
    c_cap = np.sqrt(np.maximum(a * b - 1.0, 0.0))
    cp = _uniform(0.0, c_cap, u[..., 2])
    return c_cap <= 0.0, _test_raw(a, b, cp, _uniform(-cp, 0.0, u[..., 3]))


@dataclass(frozen=True)
class _Mode:
    #: The early-stop mask and the ``_test`` of attempts u[..., :4] at s_max.
    test: Callable[[np.ndarray, float], tuple]
    #: The scalar test of one attempt; it replays an attempt whose spectrum
    #: is undefined, and raises as ``spectrum()`` does.
    confirm: Callable[..., _Draw | None]
    #: Attempts in the first round's rows: an extremal state takes about 1.3
    #: attempts, a raw one 37 at s_max 20 and 740 at s_max 200.
    first_block: int
    #: Indices whose rows are tested as one array.  Extremal rows are short,
    #: so a whole block goes at once.  Raw rows are long, and a chunk takes
    #: about two rounds of fixed per-call costs: 24 indices took about 10%
    #: less sampler time than 16, and 32 raised the traced peak of a
    #: 4000-state raw bound_experiment by 6.5% over 16 (24 by 4%).
    chunk: int


_MODES = {
    "extremal_params": _Mode(_attempts_extremal, _confirm_extremal, 4, _BLOCK),
    "raw_standard_form": _Mode(_attempts_raw, _confirm_raw, 64, 24),
}


class _Streams:
    """The attempts of a run's indices, drawn by numpy's Philox: the one
    seam between the walk and its random numbers."""

    def __init__(self, seed: int):
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self.bits = np.random.Philox(key=key)
        self.generator = np.random.Generator(self.bits)
        self.counter = [0, 0, 0, 0]
        # the state setter reads Python ints faster than the getter's arrays
        self.state = {**self.bits.state, "state": {"counter": self.counter, "key": key.tolist()},
                      "buffer": [0, 0, 0, 0]}

    def draw(self, indices: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
        """Attempts ``first`` .. ``first + n - 1`` of each of ``indices``,
        as doubles of shape (len(indices), n, 4)."""
        u = np.empty((len(indices), n, _WIDTH))
        for row, i, k in zip(u, indices.tolist(), first.tolist()):
            # a row is whole blocks, so the state's buffer stays spent
            self.counter[0], self.counter[1] = k, i
            self.bits.state = self.state
            self.generator.random(out=row)
        return u


def _chunk_columns(mode: _Mode, s_max: float, indices: range,
                   streams: _Streams) -> tuple[np.ndarray, SamplingError | None]:
    """The ``_COLUMNS`` of the samples of consecutive ``indices``, as the
    rows of a (9, len(indices)) array.  Where an index runs out of attempts
    the columns end before it, and the ``SamplingError`` that names it
    comes with them; else that error is None."""
    size = len(indices)
    walked = np.zeros(size, dtype=np.int64)  # each row's next attempt
    values = np.empty((len(_COLUMNS), size))
    filled = np.zeros(size, dtype=bool)
    pending = np.arange(size)
    attempts = mode.first_block
    done = 0
    while pending.size:
        short, (accept, undefined, args, columns) = mode.test(
            streams.draw(indices.start + pending, walked[pending], attempts), s_max)
        # an attempt that stops early is rejected, whatever its unread doubles
        accept, undefined = accept & ~short, undefined & ~short
        stop = accept | undefined
        lead = np.arange(len(pending))
        first = stop.argmax(axis=1)
        walked[pending] += np.where(stop[lead, first], first + 1, attempts)
        decided = accept[lead, first]
        values[:, pending[decided]] = columns((lead[decided], first[decided]))
        # the confirm replays an attempt whose spectrum is undefined, and raises
        for k in np.flatnonzero(undefined[lead, first]).tolist():
            draw = mode.confirm(*(c[k, first[k]].item() for c in args))
            if draw is not None:
                values[:, pending[k]] = draw
                decided[k] = True
        filled[pending[decided]] = True
        pending = pending[~decided & (walked[pending] < _MAX_REJECTIONS)]
        end = int(pending[0]) if pending.size else size
        bad = np.flatnonzero(~filled[done:end] | (walked[done:end] > _MAX_REJECTIONS))
        if bad.size:
            k = done + int(bad[0])
            return values[:, :k], SamplingError(
                f"no acceptable state after {_MAX_REJECTIONS} rejections at index {indices[k]}")
        done = end
        attempts = min(2 * attempts, _MAX_BLOCK)
    return values, None


def _sample_blocks(cfg: SamplerConfig) -> Iterator[tuple[int, np.ndarray]]:
    """(start, values) of each block of ``_BLOCK`` samples, the last one
    shorter: the ``_COLUMNS`` of samples start, start + 1, ... as the rows
    of ``values``.  Raw mode's chunks are joined.  The config is checked at
    once; a ``SamplingError`` is raised after the block that ends before
    the index it names."""
    cfg.validate()
    return _blocks(_MODES[cfg.mode], float(cfg.s_max), cfg.count,
                   _Streams(operator.index(cfg.seed)))


def _blocks(mode: _Mode, s_max: float, count: int,
            streams: _Streams) -> Iterator[tuple[int, np.ndarray]]:
    start, held = 0, np.empty((len(_COLUMNS), 0))
    for first in range(0, count, mode.chunk):
        values, error = _chunk_columns(mode, s_max, range(first, min(first + mode.chunk, count)),
                                       streams)
        held = np.concatenate((held, values), axis=1) if held.shape[1] else values
        last = error is not None or first + mode.chunk >= count
        while held.shape[1] >= _BLOCK or last and held.shape[1]:
            yield start, held[:, :_BLOCK]
            start, held = start + _BLOCK, held[:, _BLOCK:]
        if error is not None:
            raise error


def _nan_as_one(values: list[float]) -> list[float]:
    """``values`` with each NaN replaced by ``math.nan``, so that lists of
    the same floats compare equal: lists and tuples match items by identity
    before ``==``, and NaN == NaN is false."""
    return [x if x == x else math.nan for x in values]


def iter_samples(cfg: SamplerConfig) -> Iterator[Sample]:
    """Reproducible stream of entangled standard forms with their draw
    parameters.

    In ``extremal_params`` mode, (s, d, lambda) are uniform over their
    constraint ranges and g is uniform over the entangled window at those
    values (realized by rejection from the proposal window
    (2|d| + 1, 2s - 1), which contains it); ``raw_standard_form`` mode
    rejection-samples correlation boxes directly.  Sample i depends only on
    (seed, i, s_max, mode): it is the first accepted attempt of index i.
    Attempt k reads the first four doubles of numpy's
    ``Generator(Philox(key=SeedSequence(seed).generate_state(2, np.uint64),
    counter=[k, i, 0, 0]))``, that is the Philox4x64-10 block of counter
    (k + 1, i, 0, 0), whether it reads all four or stops early.  The
    attempts are drawn in rounds, a row of consecutive attempts per index
    in one draw.  Each round decides every attempt once, exactly, on
    arrays: ``build_state``'s checks (extremal mode) or the physicality
    test (raw mode) and the spectrum run on the attempts' columns with the
    scalar test's operations, so its bits.  An attempt whose spectrum is
    undefined is replayed alone, and raises.  The samples are kept as
    columns (``bound_experiment`` reads them so); this builds each
    ``Sample`` and its ``StandardForm`` from them.  ``cfg.count`` is at most
    ``COUNT_LIMIT`` (2**63).
    """
    for start, values in _sample_blocks(cfg):
        s, d, g, lam, *form, _ = values.tolist()
        for index, s_k, d_k, g_k, lam_k, *form_k in zip(
                itertools.count(start), s, d, g, _nan_as_one(lam), *form):
            yield Sample(index, StandardForm(*form_k), s_k, d_k, g_k, lam_k)


def bound_experiment(cfg: SamplerConfig, log_base=2) -> ExperimentResult:
    """Minimize every sampled state and test both bound curves.

    Upper-curve violations (nu_tilde_opt > nu_tilde_sigma + tol) falsify a
    theorem, so they should always count zero; lower-curve violations would
    be a genuine counterexample to the conjectured floor and are reported
    rather than raised.  Per-sample numerical failures are excluded from
    the counts and listed separately.  The config and then ``log_base`` are
    checked before any state is drawn.

    The experiment runs on columns from the sampler to the points: each
    block of ``_BLOCK`` samples is minimized by ``minimize_columns``, whose
    gate reads the sampler's nu_tilde_minus, and a state's failure is the
    error ``minimize_m`` raises.  A block's results, bound tests, slacks
    and counts are columns; log_neg and 1/nu^2 stay on Python floats, whose
    log and power can differ from numpy's.  The points are a ``ColumnTable``
    of ``BoundPoint``: one list per CSV column.
    """
    blocks = _sample_blocks(cfg)
    divisor = _log_divisor(log_base)
    columns: list[list] = [[] for _ in BoundPoint._fields]
    failures: list[tuple[int, str]] = []
    violations_upper = 0
    violations_lower = 0
    min_upper_slack = math.inf
    min_m_max_slack = math.inf
    for start, (s, d, g, lam, a, b, cp, cm, nu) in blocks:
        gems = minimize_columns(a, b, cp, cm, nu, log_base)
        failures += [(start + i, str(error)) for i, error in gems.errors.items()]
        kept = np.flatnonzero(gems.m_opt == gems.m_opt)  # a failed row reads NaN
        if not kept.size:
            continue
        # each nu_sigma lies in (0, 1), the domain of both curves: the
        # sampler cut it below 1, and the gate fails a form with Det sigma < 1
        nu_sigma, nu_opt = gems.nu_tilde_sigma[kept], gems.nu_tilde_opt[kept]
        upper = nu_opt > nu_sigma + VIOLATION_TOL
        lower = nu_opt < _lower_curve(nu_sigma) - VIOLATION_TOL
        violations_upper += int(np.count_nonzero(upper))
        violations_lower += int(np.count_nonzero(lower))
        min_upper_slack = min(min_upper_slack, (nu_sigma - nu_opt).min().item())
        nu_list = nu_sigma.tolist()
        m_max_slack = np.array([1.0 / x**2 for x in nu_list]) - gems.m_opt[kept]
        min_m_max_slack = min(min_m_max_slack, m_max_slack.min().item())
        block = [(kept + start).tolist(), s[kept].tolist(), d[kept].tolist(), g[kept].tolist(),
                 lam[kept].tolist(), nu_list, nu_opt.tolist(),
                 # log_negativity's expression, with its divisor taken once
                 [max(0.0, -math.log(x) / divisor) for x in nu_list],
                 gems.gaussian_eof[kept].tolist(), upper.tolist(), lower.tolist()]
        for column, values in zip(columns, block):
            column += values
    return ExperimentResult(
        ColumnTable(BoundPoint, columns), violations_upper, violations_lower, failures,
        min_upper_slack, min_m_max_slack,
    )


def bound_curves(resolution: int = 512) -> list[tuple[float, float, float]]:
    """(nu_tilde, lower, upper) rows of the two analytic curves on (0, 1)."""
    if _integer("resolution", resolution) < 2:
        raise DomainError("resolution must be at least 2")
    nu = np.arange(1, resolution + 1) / (resolution + 1)
    return list(zip(nu.tolist(), _lower_curve(nu).tolist(), nu.tolist()))
