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
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import DomainError, SamplingError, TwoModeError, UnphysicalStateError
# build_state and minimize_m are unused here: perfbench/bench_trace.py patches
# bounds.build_state and bounds.minimize_m
from .extremal import (ColumnTable, _integer, _state, build_state,
                       entanglement_threshold, gmems_threshold)
from .gaussian_em import NEAR_SEPARABLE_TOL, minimize_columns, minimize_m
from .negativity import _log_divisor, h_function
from .symplectic import (_ARRAYS, _FLOATS, DEFAULT_TOL, StandardForm, _invariants,
                         _nu_tilde_minus)

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


def _lower_curve(nu, xp=_ARRAYS):
    """``nu_opt_lower`` of every nu in (0, 1] under ``xp``."""
    return nu / (1.0 + xp.sqrt(xp.maximum(0.0, (1.0 - nu) * (1.0 + nu))))


def geof_bounds(log_neg: float, log_base=2) -> tuple[float, float]:
    """Rigorous floor and conjectured ceiling for the Gaussian entanglement
    of formation at fixed logarithmic negativity E > 0:
    (h(base^-E), h of the lower-curve image of base^-E)."""
    e_n = float(log_neg)
    if not 0.0 < e_n < math.inf:
        raise DomainError(f"log negativity must be positive and finite, got {e_n!r}")
    # h_function rejects any base other than 2 and "e"
    nu = 2.0 ** (-e_n) if log_base == 2 else math.exp(-e_n)
    if nu < sys.float_info.min:
        raise DomainError(f"log negativity {e_n!r} is too large: base^-E = {nu!r} underflows")
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


# Attempt k of index i is the Philox4x64-10 block (Salmon, Moraes, Dror and
# Shaw, SC'11) of counter (i + 1, k, 0, 0) in extremal mode and of counter
# (k + 1, i, 0, 0) in raw mode, under the key
# ``SeedSequence(seed).generate_state(2, np.uint64)``.  numpy steps the
# counter before its first block, so one draw of 4n doubles from counter
# [i, k, 0, 0] is attempt k of indices i .. i + n - 1 (an extremal column),
# and one from [k, i, 0, 0] is attempts k .. k + n - 1 of index i (a raw
# row).  Each attempt is a pure function of (seed, i, k): one that stops
# early, after 2 or 3 doubles, shifts no later attempt, and nothing is
# carried between rounds.  Attempts are drawn and tested in rounds.  Each
# round draws the next attempts of every pending index, all of which have
# had the same number tested, and tests them all at once, exactly: an
# attempt gets the outcome that ``build_state`` (extremal mode) or
# ``is_physical`` (raw mode), then ``spectrum()`` and the entanglement cut,
# give its floats.  Each index stops at its first attempt that is accepted
# or has an undefined spectrum, where ``spectrum()`` of its standard form
# raises.

#: States minimized at once by ``bound_experiment``, and indices whose
#: extremal attempts are tested as one array.  Every step is elementwise, so
#: the size changes no output: it spreads the fixed cost of the array
#: routes' numpy calls over more states, and costs what a block holds (its
#: columns, results and array temporaries, about 0.6 KB per state by
#: tracemalloc).  Timings of 4000 extremal states at s_max 20 on one pinned
#: core of a 2-core x86-64 host, best of 15 in each of 5 rounds: in blocks
#: of 256, 512, 1024, 2048 and 4096, ``bound_experiment`` took 19.7, 14.3,
#: 11.0, 10.0 and 8.9 ms, its ``minimize_columns`` calls 12.6, 8.3, 6.7, 5.6
#: and 7.8 ms, and the sampler 3.1, 2.5, 1.4, 1.1 and 1.5 ms, while the
#: traced peak of one such ``twomode bounds`` command was 1.39, 1.52, 1.83,
#: 2.48 and 3.10 MB.  1024 takes most of the gain for 0.44 MB more peak.
#: perfbench's bounds workloads read more peak RSS than that (+3-4%),
#: because the harness keeps about 30-40 KB per command it runs, and more
#: commands run in its fixed time.
_BLOCK = 1024

#: Doubles of an attempt: one Philox block.
_WIDTH = 4


def _uniform(low, high, u):
    """What ``Generator.uniform(low, high)`` returns for the double u that
    ``Generator.random()`` returns from the same state."""
    return low + (high - low) * u


#: The columns of a block of samples, by row of its values: each sample's
#: draw parameters and standard form.
_COLUMNS = ("s", "d", "g", "lam", "a", "b", "c_plus", "c_minus")

#: nu_tilde_minus below which an attempt is entangled enough.
_CUT = 1.0 - NEAR_SEPARABLE_TOL


def _test(form, params, passes, inv) -> tuple:
    """The test of attempts on arrays.  ``form`` are their standard forms
    with invariants ``inv`` (``_invariants``, derived once per attempt and
    read by the cut too), and ``passes`` the mask where they pass the tests
    before the spectrum.  Returns the masks of
    the attempts it accepts (nu_tilde_minus below the entanglement cut)
    and of those whose spectrum is undefined (``_nu_tilde_minus`` gives
    NaN, where ``spectrum()`` raises), and a function from an index (index
    arrays or a mask) to the ``_COLUMNS`` there, whose draw parameters
    ``params`` gives."""
    nu = _nu_tilde_minus(inv)
    undefined = passes & np.isnan(nu)

    def columns(at) -> list[np.ndarray]:
        return [*params(at), *(c[at] for c in form)]
    return passes & ~undefined & (nu < _CUT), undefined, columns


def _test_extremal(s, d, g, lam) -> tuple:
    """``_test`` of every (s, d, g, lambda): ``build_state``'s arithmetic
    and checks run on the columns."""
    form, _, fits = _state(s, d, g, lam)
    return _test(form, lambda at: [c[at] for c in (s, d, g, lam)],
                 fits & np.isfinite(form[2]) & np.isfinite(form[3]), _invariants(*form))


def _test_raw(a, b, cp, cm) -> tuple:
    """``_test`` of every raw draw (a, b, c_plus, c_minus), whose standard
    form must pass ``is_physical``.  Of its inequalities only two can fail
    on a draw, and they are evaluated as it evaluates them, on the same
    invariants: a, b >= 1 and a b - c_pm^2 >= 1 - O(a b eps) hold by
    construction for s_max up to ``S_MAX_LIMIT``."""
    det_sigma, delta, *_ = inv = _invariants(a, b, cp, cm)
    passes = (det_sigma >= 1.0 - DEFAULT_TOL) & (delta <= 1.0 + det_sigma + DEFAULT_TOL)

    def params(at):
        a_k, b_k = a[at], b[at]
        return [0.5 * (a_k + b_k), 0.5 * (a_k - b_k), np.sqrt(det_sigma[at]),
                np.full(a_k.shape, math.nan)]
    return _test((a, b, cp, cm), params, passes, inv)


def _attempts_extremal(u: np.ndarray, s_max: float) -> tuple:
    """The mask of the attempts u[..., :4] that stop after 3 doubles (empty
    g window), and ``_test_extremal`` of their (s, d, g, lambda).  g is drawn
    on the entangled window (2|d| + 1, min(2s - 1, g_ent)), g_ent the
    ``entanglement_threshold`` of (s, d, lambda)."""
    s = _uniform(1.0, s_max, u[..., 0])
    d = _uniform(-(s - 1.0), s - 1.0, u[..., 1])
    lam = _uniform(-1.0, 1.0, u[..., 2])
    g_lo = 2.0 * np.abs(d) + 1.0
    g_hi = np.minimum(gmems_threshold(s), entanglement_threshold(s, d, lam))
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
    #: Attempt k of index i is the block of counter (i + 1, k, 0, 0) if
    #: true (one draw per attempt column), else of (k + 1, i, 0, 0) (one
    #: draw per index row): see ``_Streams.draw``.
    by_column: bool
    #: Attempts per pending index in the first round; each later round
    #: doubles the one before, up to ``max_round``.  Timings on one pinned
    #: core of a 2-core x86-64 host, best of 9: an extremal state is nearly
    #: always accepted at its first attempt, and 4000 states at s_max 20
    #: took 2.9 ms in rounds of one column, 3.5 ms in rounds of 2 and 4.3 ms
    #: in rounds of 4, and doubling from one column gained nothing.  A raw
    #: state takes about 37 attempts at s_max 20 and 740 at s_max 200: rows
    #: doubling from 64 to 512 took 14 and 11 ms for 1000 states at 20 and
    #: 100 at 200, fixed rows of 64 took 15 and 25 ms, and of 512 52 and 11.
    first_round: int
    max_round: int
    #: Indices whose attempts are tested as one array.  Extremal rounds are
    #: small, so a whole block goes at once.  Raw rows are long, and a chunk
    #: takes about two rounds of fixed per-call costs: 24 indices took about
    #: 10% less sampler time than 16, and 32 raised the traced peak of a
    #: 4000-state raw bound_experiment by 6.5% over 16 (24 by 4%).
    chunk: int


_MODES = {
    "extremal_params": _Mode(_attempts_extremal, True, 1, 1, _BLOCK),
    "raw_standard_form": _Mode(_attempts_raw, False, 64, 512, 24),
}


class _Streams:
    """The attempts of a run's indices, drawn by numpy's Philox: the one
    seam between the walk and its random numbers."""

    def __init__(self, seed: int, by_column: bool):
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        self.by_column = by_column
        self.bits = np.random.Philox(key=key)
        self.generator = np.random.Generator(self.bits)
        self.counter = [0, 0, 0, 0]
        # the state setter reads Python ints faster than the getter's arrays
        self.state = {**self.bits.state, "state": {"counter": self.counter, "key": key.tolist()},
                      "buffer": [0, 0, 0, 0]}

    def _fill(self, out: np.ndarray, word0: int, word1: int) -> None:
        # out is whole blocks, so the state's buffer stays spent
        self.counter[0], self.counter[1] = word0, word1
        self.bits.state = self.state
        self.generator.random(out=out)

    def draw(self, indices: np.ndarray, first: int, n: int) -> np.ndarray:
        """Attempts ``first`` .. ``first + n - 1`` of each of the ascending
        ``indices``, as doubles of shape (len(indices), n, 4).  By column,
        one draw per attempt covers indices[0] .. indices[-1]; by row, one
        draw per index covers its n attempts."""
        if not self.by_column:
            u = np.empty((len(indices), n, _WIDTH))
            for row, i in zip(u, indices.tolist()):
                self._fill(row, first, i)
            return u
        low = int(indices[0])
        u = np.empty((n, int(indices[-1]) - low + 1, _WIDTH))
        for k, column in enumerate(u, first):
            self._fill(column, low, k)
        return u[:, indices - low].swapaxes(0, 1)


def _chunk_columns(mode: _Mode, s_max: float, indices: range,
                   streams: _Streams) -> tuple[np.ndarray, TwoModeError | None]:
    """The ``_COLUMNS`` of the samples of consecutive ``indices``, as the
    rows of an (8, len(indices)) array.  An index fails where it runs out of
    attempts (a ``SamplingError`` that names it) or stops at an attempt
    whose spectrum is undefined (the ``UnphysicalStateError`` of
    ``spectrum()``).  The columns end before the first index that fails,
    and its error comes with them; else that error is None."""
    values = np.empty((len(_COLUMNS), len(indices)))
    failed, error = len(indices), None
    pending = np.arange(len(indices))
    tested = 0  # attempts tested of each pending index
    attempts = mode.first_round
    while pending.size and tested < _MAX_REJECTIONS:
        n = min(attempts, _MAX_REJECTIONS - tested)
        short, (accept, undefined, columns) = mode.test(
            streams.draw(indices.start + pending, tested, n), s_max)
        # an attempt that stops early is rejected, whatever its unread doubles
        accept, undefined = accept & ~short, undefined & ~short
        lead = np.arange(len(pending))
        first = (accept | undefined).argmax(axis=1)
        stopped = np.flatnonzero(undefined[lead, first])
        if stopped.size:
            # pending ascends, so its first undefined index fails first
            k = int(stopped[0])
            try:
                StandardForm(*(x.item() for x in columns((k, first[k]))[4:])).spectrum()
            except UnphysicalStateError as exc:
                failed, error = int(pending[k]), exc
        decided = accept[lead, first]
        values[:, pending[decided]] = columns((lead[decided], first[decided]))
        # the indices past one that failed are cut: their attempts stop
        pending = pending[~decided & (pending < failed)]
        tested += n
        attempts = min(2 * attempts, mode.max_round)
    if pending.size:
        failed = int(pending[0])
        error = SamplingError(
            f"no acceptable state after {_MAX_REJECTIONS} rejections at index {indices[failed]}")
    return values[:, :failed], error


def _sample_blocks(cfg: SamplerConfig) -> Iterator[tuple[int, np.ndarray]]:
    """(start, values) of each block of ``_BLOCK`` samples, the last one
    shorter: the ``_COLUMNS`` of samples start, start + 1, ... as the rows
    of ``values``.  Raw mode's chunks are joined.  The config is checked at
    once; the error of the first index that fails is raised after the block
    that ends before it."""
    cfg.validate()
    mode = _MODES[cfg.mode]
    return _blocks(mode, float(cfg.s_max), cfg.count,
                   _Streams(operator.index(cfg.seed), mode.by_column))


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

    In ``extremal_params`` mode an attempt draws s uniform on (1, s_max),
    then d uniform on (-(s - 1), s - 1), lambda uniform on (-1, 1) and g
    uniform on the entangled window (2|d| + 1, min(2s - 1, g_ent)), where
    g_ent is ``entanglement_threshold(s, d, lambda)``: every g there gives
    an entangled state.  Only an empty window and the near-separable cut
    (nu_tilde_minus within ``NEAR_SEPARABLE_TOL`` of 1) still reject, and a
    rejection redraws all four, so (s, d, lambda) are uniform over their
    ranges up to those rare rejections, and g is uniform on its window.
    ``raw_standard_form`` mode rejection-samples correlation boxes
    directly.  Sample i depends only on (seed, i, s_max, mode): it is the
    first accepted attempt of index i.  Attempt k reads the first four
    doubles of numpy's
    ``Generator(Philox(key=SeedSequence(seed).generate_state(2, np.uint64),
    counter=c))``, with c = [i, k, 0, 0] in extremal mode and [k, i, 0, 0]
    in raw mode, that is the Philox4x64-10 block of counter (i + 1, k, 0, 0)
    or (k + 1, i, 0, 0), whether it reads all four or stops early.  The
    attempts are drawn in rounds: an extremal round draws one attempt of
    every pending index, a column of consecutive indices in one draw, and a
    raw round draws a row of consecutive attempts per index in one draw,
    64 in the first round and twice as many in each later one, up to 512.
    Each round decides every attempt once, exactly, on
    arrays: ``build_state``'s checks (extremal mode) or the physicality
    test (raw mode) and the spectrum run on the attempts' columns with the
    operations of one ``StandardForm``'s methods, so their bits.  Where an
    attempt's spectrum is undefined, ``spectrum()`` of its standard form
    raises its ``UnphysicalStateError``, after the samples of the indices
    before it, and an index that runs out of attempts raises a
    ``SamplingError`` the same way.  The samples are kept as columns
    (``bound_experiment`` reads them so); this builds each ``Sample`` and
    its ``StandardForm`` from them.  ``cfg.count`` is at most
    ``COUNT_LIMIT`` (2**63).
    """
    for start, values in _sample_blocks(cfg):
        s, d, g, lam, *form = values.tolist()
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
    block of ``_BLOCK`` (1024) samples is minimized by ``minimize_columns``,
    which computes each state's nu_tilde_minus from its standard form, and
    a state's failure is the error ``minimize_m`` raises.  A block's
    results, bound tests, slacks and counts are columns; log_neg and 1/nu^2
    stay on Python floats, whose log and power can differ from numpy's.
    Every step is elementwise, so the result does not depend on the block
    size.  The points are a ``ColumnTable`` of ``BoundPoint``: one list per
    CSV column.
    """
    blocks = _sample_blocks(cfg)
    divisor = _log_divisor(log_base)
    columns: list[list] = [[] for _ in BoundPoint._fields]
    failures: list[tuple[int, str]] = []
    violations_upper = 0
    violations_lower = 0
    min_upper_slack = math.inf
    min_m_max_slack = math.inf
    for start, (s, d, g, lam, a, b, cp, cm) in blocks:
        gems = minimize_columns(a, b, cp, cm, log_base)
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
        # extremal.m_max's 1/(nu nu); Python's ** would square through libm's pow
        m_max_slack = 1.0 / (nu_sigma * nu_sigma) - gems.m_opt[kept]
        min_m_max_slack = min(min_m_max_slack, m_max_slack.min().item())
        nu_list = nu_sigma.tolist()
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
