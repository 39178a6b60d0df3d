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
from .extremal import _FLOATS, ExtremalParams, _integer, _state, build_state, gmems_threshold
# minimize_m is unused here, but perfbench/bench_trace.py patches bounds.minimize_m
from .gaussian_em import NEAR_SEPARABLE_TOL, minimize_block, minimize_m
from .negativity import h_function, log_negativity
from .symplectic import DEFAULT_TOL, StandardForm, _dets, _nu_pairs

#: Slack on the proven upper-curve inequality before a sample counts as a
#: violation.
VIOLATION_TOL = 1e-9

_MAX_REJECTIONS = 1_000_000

#: Largest accepted sample count.  Index i's stream is numpy's
#: ``SeedSequence(entropy=seed, spawn_key=(i,))``, which the sampler hashes
#: with one uint32 word per index, so indices stay below 2**32.
COUNT_LIMIT = 2**32

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
    points: list[BoundPoint]
    violations_upper: int
    violations_lower: int
    failures: list[tuple[int, str]]
    min_upper_slack: float
    min_m_max_slack: float


# Attempts are drawn and tested in rounds.  Each round draws every pending
# index's row of whole attempts from the double it has walked to and tests
# every attempt of every row at once, exactly: an attempt gets the outcome
# that the scalar test (``_confirm_extremal`` or ``_confirm_raw``) gives it.
# Each index walks its row to the first attempt that stops early, is
# accepted or has an undefined spectrum, and its PCG64 state, carried in
# uint64 words, jumps past the doubles those attempts read.  Each attempt
# reads the doubles that scalar ``rng.uniform`` calls would, in the same
# order, so sample i is the same as drawn one value at a time.

#: Indices seeded in one array pass, and states minimized at once by
#: ``bound_experiment``: enough to spread the per-call cost of the array
#: routes thin, few enough to keep what a block holds (its samples, results
#: and array temporaries, about 0.5 KB per state) small.
_BLOCK = 256

# Index i's stream is that of
# ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``.  Its pool
# before the spawn word i is ``SeedSequence(seed).pool``, taken once per
# run; the index word and ``generate_state(4, uint64)`` are hashed for a
# window of indices in uint32 arrays, and PCG64's seeding (O'Neill,
# HMC-CS-2014-0905) turns each window row into its (state, inc).  The
# constants are numpy's (numpy/random/bit_generator.pyx and pcg64.h).
_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_chain(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (xor, multiplier) pairs of successive SeedSequence hashes: each
    hash xors with the running constant, steps it and multiplies by it."""
    while True:
        stepped = init * mult & _MASK32
        yield init, stepped
        init = stepped


#: The pairs of ``generate_state``'s 8 hashes of the pool words.
_STATE_HASH = list(itertools.islice(_hash_chain(_INIT_B, _MULT_B), 8))


#: A run's SeedSequence pool and index-word hash pairs (``_seed_prefix``).
_Prefix = tuple[list[int], list[tuple[int, int]]]


def _seed_prefix(seed: int) -> _Prefix:
    """The pool of ``SeedSequence(entropy=seed, spawn_key=(i,))`` before the
    index word i is mixed in, and the hash pairs that mix it into each pool
    word.  Neither depends on i."""
    # the pool uses 4 hashes per seed word (at least 4 words), the index word the next 4
    words = max(4, -(-max(seed.bit_length(), 1) // 32))
    chain = itertools.islice(_hash_chain(_INIT_A, _MULT_A), 4 * words, 4 * words + 4)
    return np.random.SeedSequence(seed).pool.tolist(), list(chain)


# PCG64's 128-bit states are carried as uint64 arrays of shape (2, ...): the
# high words, then the low words.  Products wrap mod 2**64 in uint64, and the
# high word of a low-word product is built from 32-bit limbs.
_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)


def _words(values: list[int]) -> np.ndarray:
    """Python ints below 2**128 as (high, low) uint64 words."""
    return np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]], dtype=np.uint64)


def _mul_high(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products of uint64 arrays."""
    x0, x1 = x & _LOW32, x >> _U32
    y0, y1 = y & _LOW32, y >> _U32
    cross0, cross1 = x0 * y1, x1 * y0
    carry = (x0 * y0 >> _U32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return x1 * y1 + (cross0 >> _U32) + (cross1 >> _U32) + (carry >> _U32)


def _mul_add(a, x, c, y) -> tuple[np.ndarray, np.ndarray]:
    """a x + c y mod 2**128 on (high, low) words; the words broadcast."""
    ax, cy = a[1] * x[1], c[1] * y[1]
    low = ax + cy
    high = (_mul_high(a[1], x[1]) + a[0] * x[1] + a[1] * x[0]
            + _mul_high(c[1], y[1]) + c[0] * y[1] + c[1] * y[0] + (low < cy))
    return high, low


def _pcg64_states(prefix: _Prefix, indices: range) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's state and inc words after ``default_rng(SeedSequence(entropy=
    seed, spawn_key=(i,)))`` for each i in ``indices``, given
    ``_seed_prefix(seed)``."""
    u32 = np.uint32
    index = np.arange(indices.start, indices.stop, dtype=np.int64).astype(u32)
    pool = []
    for p, (xor, mult) in zip(*prefix):
        # the index word's hash, mixed into pool word p by SeedSequence's mix
        h = (index ^ u32(xor)) * u32(mult)
        h ^= h >> u32(16)
        w = u32(_MIX_MULT_L * p & _MASK32) - u32(_MIX_MULT_R) * h
        pool.append(w ^ w >> u32(16))
    out = []
    for k, (xor, mult) in enumerate(_STATE_HASH):
        # generate_state hashes the pool words cyclically into 8 uint32 words
        w = (pool[k % 4] ^ u32(xor)) * u32(mult)
        out.append((w ^ w >> u32(16)).astype(np.uint64))
    # generate_state's uint64 word j is out[2j] | out[2j + 1] << 32; words
    # 0-1 are initstate's high and low halves, words 2-3 initseq's.
    init_hi, init_lo, seq_hi, seq_lo = (out[j] | out[j + 1] << _U32 for j in range(0, 8, 2))
    one = np.uint64(1)
    inc = np.array([seq_hi << one | seq_lo >> np.uint64(63), seq_lo << one | one])
    # pcg64_set_seed: inc from initseq, one step from state 0, add initstate,
    # one more step: a (initstate + inc) + inc
    mult, mult_1 = _words([_PCG64_MULT, _PCG64_MULT + 1]).T[:, :, None]
    return np.array(_mul_add(mult, (init_hi, init_lo), mult_1, inc)), inc


def _lcg_powers(step: tuple[int, int], count: int) -> list[tuple[int, int]]:
    """(A_j, C_j) of 0 .. count - 1 repeats of the jump ``step`` = (A, C) of
    PCG64's LCG.  k steps take state s to A_k s + C_k inc mod 2**128, with
    A_k = a**k and C_k = a**(k-1) + ... + a + 1 (Brown, Trans. Am. Nucl.
    Soc. 71, 1994); one more jump gives A A_j and A C_j + C."""
    table = [(1, 0)]
    while len(table) < count:
        a_j, c_j = table[-1]
        table.append((step[0] * a_j & _MASK128, (step[0] * c_j + step[1]) & _MASK128))
    return table


#: The row of attempts doubles each round after the first
#: (``_Mode.first_block``), up to this many attempts.
_MAX_BLOCK = 512
#: Doubles a full attempt reads.
_WIDTH = 4


def _uniform(low, high, u):
    """What ``Generator.uniform(low, high)`` returns for the double u that
    ``Generator.random()`` returns from the same state."""
    return low + (high - low) * u


# A confirm returns the fields of a Sample after its index and the
# nu_tilde_minus it computed, or None on rejection.
_Draw = tuple[tuple[StandardForm, float, float, float, float], float]

#: nu_tilde_minus below which an attempt is entangled enough.
_CUT = 1.0 - NEAR_SEPARABLE_TOL


def _confirm_extremal(s: float, d: float, g: float, lam: float) -> _Draw | None:
    try:
        sf = build_state(ExtremalParams(s, d, g, lam))
    except TwoModeError:
        return None
    nu = sf.spectrum().nu_tilde_minus
    return ((sf, s, d, g, lam), nu) if nu < _CUT else None


def _confirm_raw(a: float, b: float, cp: float, cm: float) -> _Draw | None:
    sf = StandardForm(a, b, cp, cm)
    if not sf.is_physical():
        return None
    nu = sf.spectrum().nu_tilde_minus
    return (((sf, 0.5 * (a + b), 0.5 * (a - b), math.sqrt(sf.invariants().det_sigma), math.nan), nu)
            if nu < _CUT else None)


def _test(args, form, params, passes, dets) -> tuple:
    """A confirm run on arrays.  ``args`` are the attempts' values,
    ``form`` their standard forms with (Det sigma, Delta, Delta_tilde)
    ``dets``, and ``passes`` the mask where they pass the confirm's tests
    before the spectrum.  Returns the masks of the attempts it accepts and
    of those where it raises (``_nu_pairs`` gives NaN), ``args``, and a
    function from an index (index arrays or a mask) to the accepted draws
    there, whose fields after the form ``params`` gives."""
    det_sigma, delta, delta_tilde = dets
    nu_minus, nu = (_nu_pairs(x, det_sigma, x * x - 4.0 * det_sigma)[0]
                    for x in (delta, delta_tilde))
    undefined = passes & (np.isnan(nu_minus) | np.isnan(nu))

    def draws(at) -> list[_Draw]:
        columns = zip(*(c[at].tolist() for c in form), *params(at), nu[at].tolist())
        return [((StandardForm(a, b, cp, cm), *fields), nu_k)
                for a, b, cp, cm, *fields, nu_k in columns]
    return passes & ~undefined & (nu < _CUT), undefined, args, draws


def _test_extremal(s, d, g, lam) -> tuple:
    """``_confirm_extremal`` of every (s, d, g, lambda) on arrays:
    ``build_state``'s arithmetic and checks run on the columns."""
    form, _, fits = _state(s, d, g, lam)
    return _test((s, d, g, lam), form, lambda at: [c[at].tolist() for c in (s, d, g, lam)],
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
        return [(0.5 * (a_k + b_k)).tolist(), (0.5 * (a_k - b_k)).tolist(),
                np.sqrt(det_sigma[at]).tolist(), [math.nan] * a_k.size]
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
    #: Doubles an attempt reads when it stops early.
    short_width: int
    #: Attempts in the first round's rows: an extremal state takes about 1.3
    #: attempts, a raw one 37 at s_max 20 and 740 at s_max 200.
    first_block: int
    #: Indices whose rows are tested as one array.  Extremal rows are short,
    #: so a whole seeding window goes at once.  Raw rows are long, and a
    #: chunk takes about two rounds of fixed per-call costs: 24 indices took
    #: about 10% less sampler time than 16, and 32 raised the traced peak
    #: of a 4000-state raw bound_experiment by 6.5% over 16 (24 by 4%).
    chunk: int


_MODES = {
    "extremal_params": _Mode(_attempts_extremal, _confirm_extremal, 3, 4, _BLOCK),
    "raw_standard_form": _Mode(_attempts_raw, _confirm_raw, 2, 64, 24),
}


#: Longest row, in doubles, that ``_Streams.draw`` computes in one array
#: pass; numpy's generator draws longer ones.  Per row of a 256-row pass on
#: a 2-core x86_64 host: 0.95, 2.4 and 4.6 us at 16, 32 and 64 doubles,
#: against 4.0 us by numpy.
_ARRAY_ROW = 32
#: The longest walk of a round: a full row of ``_MAX_BLOCK`` attempts.
_LONGEST_WALK = _WIDTH * _MAX_BLOCK
#: Jumps of 0 .. 63 steps, and of the multiples of 64 steps up to
#: _LONGEST_WALK: about 100 entries where one table would need 2049.
_NEAR_JUMPS = _lcg_powers((_PCG64_MULT, 1), 65)
_FAR_JUMPS = _lcg_powers(_NEAR_JUMPS[64], _LONGEST_WALK // 64 + 1)


def _jump(k: int) -> tuple[int, int]:
    """(A_k, C_k) for 0 <= k <= _LONGEST_WALK: a far jump, then a near one."""
    (a_far, c_far), (a, c) = _FAR_JUMPS[k >> 6], _NEAR_JUMPS[k & 63]
    return a * a_far & _MASK128, (a * c_far + c) & _MASK128


#: The words of (A_k, C_k) for k = 1 .. _ARRAY_ROW: (A or C, high or low, k).
_STEPS = np.array([_words(list(column)) for column in zip(*map(_jump, range(1, _ARRAY_ROW + 1)))])


class _Streams:
    """The PCG64 streams of a window of indices, each carried in (high, low)
    words to the double its walk has reached.  ``draw`` reads rows from
    there and ``walk`` carries the rows of the last draw on: the one seam
    between the walk and its random numbers."""

    def __init__(self, prefix: _Prefix, indices: range):
        self.state, self.inc = _pcg64_states(prefix, indices)
        self.generator = np.random.Generator(np.random.PCG64(0))
        self._drawn = None

    def draw(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The next ``n`` doubles of each of ``rows``, one row each."""
        state, inc = self.state[:, rows], self.inc[:, rows]
        if n <= _ARRAY_ROW:
            # the states after 1 .. n steps of every row; each is a double
            steps = _STEPS[:, :, None, :n]
            high, low = _mul_add(steps[0], state[:, :, None], steps[1], inc[:, :, None])
            self._drawn = rows, lambda moved, doubles: (high[moved, doubles - 1],
                                                        low[moved, doubles - 1])
            # numpy's random(): the XSL-RR output rotr64(high ^ low, high >>
            # 58), then its top 53 bits times 2**-53
            x, turn = high ^ low, high >> np.uint64(58)
            x = x >> turn | x << ((np.uint64(64) - turn) & np.uint64(63))
            return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
        states, incs = ([hi << 64 | lo for hi, lo in zip(*w.tolist())] for w in (state, inc))
        self._drawn = rows, lambda moved, doubles: _words([
            (a * states[k] + c * incs[k]) & _MASK128
            for k, (a, c) in zip(moved.tolist(), map(_jump, doubles.tolist()))])
        bits = self.generator.bit_generator
        u = np.empty((len(rows), n))
        for row, s, i in zip(u, states, incs):
            bits.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": i},
                          "has_uint32": 0, "uinteger": 0}
            self.generator.random(out=row)
        return u

    def walk(self, moved: np.ndarray, doubles: np.ndarray) -> None:
        """Carry the rows ``moved`` of the last draw past their first
        ``doubles`` (1 to n) doubles; the other rows keep their state."""
        rows, carry = self._drawn
        self._drawn = None
        self.state[:, rows[moved]] = carry(moved, doubles)


def _chunk_samples(mode: _Mode, s_max: float, indices: range, streams: _Streams,
                   start: int) -> Iterator[tuple[Sample, float]]:
    """Samples of consecutive ``indices``, rows ``start`` on of ``streams``,
    with their nu_tilde_minus, each yielded once it and every index before
    it is decided."""
    size = len(indices)
    walked = np.zeros(size, dtype=np.int64)
    draws: list[_Draw | None] = [None] * size
    pending = np.arange(size)
    attempts = mode.first_block
    done = 0
    while pending.size:
        rows = streams.draw(start + pending, _WIDTH * attempts)
        short, (accept, undefined, args, accepted) = mode.test(
            rows.reshape(len(pending), attempts, _WIDTH), s_max)
        accept, undefined = accept & ~short, undefined & ~short
        # Each row is walked to its first attempt that stops early, is
        # accepted or has an undefined spectrum, and no further.
        stop = short | accept | undefined
        lead = np.arange(len(pending))
        first = stop.argmax(axis=1)
        steps = np.where(stop[lead, first], first + 1, attempts)
        walked[pending] += steps
        # an early stop reads short_width of its _WIDTH doubles
        read = _WIDTH * steps - (_WIDTH - mode.short_width) * short[lead, first]
        decided = accept[lead, first]
        for k, draw in zip(pending[decided].tolist(), accepted((lead[decided], first[decided]))):
            draws[k] = draw
        # the confirm replays an attempt whose spectrum is undefined, and raises
        for k in np.flatnonzero(undefined[lead, first]).tolist():
            draw = draws[pending[k]] = mode.confirm(*(c[k, first[k]].item() for c in args))
            decided[k] = draw is not None
        # only the rows that go on need their streams carried
        going = np.flatnonzero(~decided & (walked[pending] < _MAX_REJECTIONS))
        streams.walk(going, read[going])
        pending = pending[going]
        end = int(pending[0]) if pending.size else size
        for k, walked_k in zip(range(done, end), walked[done:end].tolist()):
            if draws[k] is None or walked_k > _MAX_REJECTIONS:
                raise SamplingError(
                    f"no acceptable state after {_MAX_REJECTIONS} rejections at index {indices[k]}"
                )
            fields_k, nu = draws[k]
            yield Sample(indices[k], *fields_k), nu
        done = end
        attempts = min(2 * attempts, _MAX_BLOCK)


def _confirmed_samples(cfg: SamplerConfig) -> Iterator[tuple[Sample, float]]:
    """``iter_samples`` with the nu_tilde_minus that each sample's test
    computed."""
    cfg.validate()
    mode = _MODES[cfg.mode]
    s_max = float(cfg.s_max)
    prefix = _seed_prefix(operator.index(cfg.seed))
    for start in range(0, cfg.count, _BLOCK):
        window = range(start, min(start + _BLOCK, cfg.count))
        streams = _Streams(prefix, window)
        for k in range(0, len(window), mode.chunk):
            yield from _chunk_samples(mode, s_max, window[k:k + mode.chunk], streams, k)


def iter_samples(cfg: SamplerConfig) -> Iterator[Sample]:
    """Reproducible stream of entangled standard forms with their draw
    parameters.

    In ``extremal_params`` mode, (s, d, lambda) are uniform over their
    constraint ranges and g is uniform over the entangled window at those
    values (realized by rejection from the proposal window
    (2|d| + 1, 2s - 1), which contains it); ``raw_standard_form`` mode
    rejection-samples correlation boxes directly.  Sample i depends only on
    (seed, i, s_max, mode): it is the first accepted attempt of its own
    stream, whose doubles are drawn in rounds.  Each round decides every
    attempt once, exactly, on arrays: ``build_state``'s checks (extremal
    mode) or the physicality test (raw mode) and the spectrum run on the
    attempts' columns with the scalar test's operations, so its bits.  An
    attempt whose spectrum is undefined is replayed alone, and raises.

    The stream of index i is the doubles of
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, bit for
    bit.  The streams are seeded in one array pass per window of 256
    indices, and each index's PCG64 state is carried in uint64 words to
    the double its walk has reached: k steps of the LCG are one
    multiply-add from a jump table.  A round's rows of up to 32 doubles are
    computed for all pending indices in one array pass; numpy's generator
    draws longer rows from each loaded state.  ``cfg.count`` is at most
    ``COUNT_LIMIT`` (2**32).
    """
    return (sample for sample, _ in _confirmed_samples(cfg))


def bound_experiment(cfg: SamplerConfig, log_base=2) -> ExperimentResult:
    """Minimize every sampled state and test both bound curves.

    Upper-curve violations (nu_tilde_opt > nu_tilde_sigma + tol) falsify a
    theorem, so they should always count zero; lower-curve violations would
    be a genuine counterexample to the conjectured floor and are reported
    rather than raised.  Per-sample numerical failures are excluded from
    the counts and listed separately.

    The stream is minimized in blocks of ``_BLOCK`` states by
    ``minimize_block``, whose gate reads the sampler's nu_tilde_minus; a
    state's failure is the error ``minimize_m`` raises.  A block's bound
    tests, slacks and counts are array expressions; log_neg and 1/nu^2 stay
    on Python floats, whose log and power can differ from numpy's.
    """
    points: list[BoundPoint] = []
    failures: list[tuple[int, str]] = []
    violations_upper = 0
    violations_lower = 0
    min_upper_slack = math.inf
    min_m_max_slack = math.inf
    confirmed = _confirmed_samples(cfg)
    while block := list(itertools.islice(confirmed, _BLOCK)):
        samples, nus = zip(*block)
        outcomes = minimize_block([sample.standard_form for sample in samples], log_base,
                                  nu_sigmas=nus)
        failures += [(sample.index, str(outcome)) for sample, outcome in zip(samples, outcomes)
                     if isinstance(outcome, TwoModeError)]
        passed = [(sample, *outcome) for sample, outcome in zip(samples, outcomes)
                  if not isinstance(outcome, TwoModeError)]
        if not passed:
            continue
        # each nu_sigma lies in (0, 1), the domain of both curves: the
        # sampler cut it below 1, and the gate fails a form with Det sigma < 1
        samples, nu_list, gems = zip(*passed)
        nu_sigma = np.array(nu_list)
        nu_opt_list = [gem.nu_tilde_opt for gem in gems]
        nu_opt = np.array(nu_opt_list)
        upper = nu_opt > nu_sigma + VIOLATION_TOL
        lower = nu_opt < _lower_curve(nu_sigma) - VIOLATION_TOL
        violations_upper += int(np.count_nonzero(upper))
        violations_lower += int(np.count_nonzero(lower))
        min_upper_slack = min(min_upper_slack, (nu_sigma - nu_opt).min().item())
        m_max_slack = np.array([1.0 / nu**2 for nu in nu_list]) - [gem.m_opt for gem in gems]
        min_m_max_slack = min(min_m_max_slack, m_max_slack.min().item())
        points.extend(map(BoundPoint._make, zip(
            [sample.index for sample in samples], *zip(*(sample[2:] for sample in samples)),
            nu_list, nu_opt_list, [log_negativity(nu, log_base) for nu in nu_list],
            [gem.gaussian_eof for gem in gems], upper.tolist(), lower.tolist())))
    return ExperimentResult(
        points, violations_upper, violations_lower, failures,
        min_upper_slack, min_m_max_slack,
    )


def bound_curves(resolution: int = 512) -> list[tuple[float, float, float]]:
    """(nu_tilde, lower, upper) rows of the two analytic curves on (0, 1)."""
    if _integer("resolution", resolution) < 2:
        raise DomainError("resolution must be at least 2")
    nu = np.arange(1, resolution + 1) / (resolution + 1)
    return list(zip(nu.tolist(), _lower_curve(nu).tolist(), nu.tolist()))
