"""The block sampler against the scalar attempt walk it replaces.

Attempt k of sample index i reads the first four doubles of numpy's
``Generator(Philox(key=SeedSequence(seed).generate_state(2, np.uint64),
counter=c))``, with c = [i, k, 0, 0] in extremal mode and [k, i, 0, 0] in
raw mode.  ``iter_samples`` draws the attempts in columns (extremal mode)
or rows (raw mode) and tests every attempt on arrays.  The reference here
is the scalar walk: one such generator per attempt, one ``rng.uniform``
call per value and one ``StandardForm`` per attempt, tested by
``_confirm_extremal`` or ``_confirm_raw``, which are also the oracles of
the array tests of attempts.  Both walks must give equal samples,
including the attempts that read fewer than four doubles and the limit on
attempts, and each attempt must be the Philox4x64-10 block that the
contract names.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twomode import bounds, cli, symplectic
from twomode.bounds import (NEAR_SEPARABLE_TOL, Sample, SamplerConfig, bound_experiment,
                            iter_samples)
from twomode.errors import SamplingError, TwoModeError, UnphysicalStateError
from twomode.extremal import ExtremalParams, build_state, entanglement_threshold
from twomode.symplectic import DEFAULT_TOL, StandardForm


def _key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def _attempt_rng(key, mode, index, k):
    """The generator of attempt ``k`` of sample ``index`` in ``mode``."""
    counter = [index, k] if mode == "extremal_params" else [k, index]
    return np.random.Generator(np.random.Philox(key=key, counter=counter + [0, 0]))


#: nu_tilde_minus below which an attempt is entangled enough.
CUT = 1.0 - NEAR_SEPARABLE_TOL


def _confirm_extremal(s, d, g, lam):
    """The scalar test of extremal values: the sample's ``bounds._COLUMNS``,
    or None on rejection.  Raises as ``spectrum()`` does."""
    try:
        sf = build_state(ExtremalParams(s, d, g, lam))
    except TwoModeError:
        return None
    nu = sf.spectrum().nu_tilde_minus
    return (s, d, g, lam, sf.a, sf.b, sf.c_plus, sf.c_minus, nu) if nu < CUT else None


def _confirm_raw(a, b, cp, cm):
    """The scalar test of a raw draw, as ``_confirm_extremal``."""
    sf = StandardForm(a, b, cp, cm)
    if not sf.is_physical():
        return None
    nu = sf.spectrum().nu_tilde_minus
    return ((0.5 * (a + b), 0.5 * (a - b), math.sqrt(sf.invariants().det_sigma), math.nan,
             a, b, cp, cm, nu) if nu < CUT else None)


def _draw_extremal(rng, s_max):
    """One extremal attempt on ``rng``: its ``_confirm_extremal``, or None
    where the entangled g window is empty (3 doubles read)."""
    s = rng.uniform(1.0, s_max)
    d = rng.uniform(-(s - 1.0), s - 1.0)
    lam = rng.uniform(-1.0, 1.0)
    g_lo = 2.0 * abs(d) + 1.0
    g_hi = min(2.0 * s - 1.0, float(entanglement_threshold(s, d, lam)))
    if g_hi - g_lo <= 1e-9:
        return None
    return _confirm_extremal(s, d, rng.uniform(g_lo, g_hi), lam)


def _draw_raw(rng, s_max):
    """One raw attempt on ``rng``: its ``_confirm_raw``, or None where
    a b <= 1 (2 doubles read)."""
    a = rng.uniform(1.0, s_max)
    b = rng.uniform(1.0, s_max)
    c_cap = math.sqrt(max(a * b - 1.0, 0.0))
    if c_cap <= 0.0:
        return None
    cp = rng.uniform(0.0, c_cap)
    return _confirm_raw(a, b, cp, rng.uniform(-cp, 0.0))


_REFERENCE_DRAWS = {"extremal_params": _draw_extremal, "raw_standard_form": _draw_raw}


def reference_sample(cfg, index, rng_of=None):
    """Sample ``index`` by the scalar walk over ``rng.uniform``, attempt k
    on ``rng_of(k)``, by default the Philox generator of the attempt."""
    draw = _REFERENCE_DRAWS[cfg.mode]
    key = _key(cfg.seed)
    for k in range(bounds._MAX_REJECTIONS):
        rng = _attempt_rng(key, cfg.mode, index, k) if rng_of is None else rng_of(k)
        values = draw(rng, cfg.s_max)
        if values is not None:
            return Sample(index, StandardForm(*values[4:8]), *values[:4])
    raise SamplingError(
        f"no acceptable state after {bounds._MAX_REJECTIONS} rejections at index {index}"
    )


# Counts cross raw-mode chunk boundaries.  Raw mode needs about 740
# attempts per state at s_max 200, so there the reference checks a few
# indices on both sides of one boundary.
RAW_CHUNK = bounds._MODES["raw_standard_form"].chunk
COUNT = 3 * RAW_CHUNK + 6
AROUND_BOUNDARY = [0, 1, RAW_CHUNK - 1, RAW_CHUNK, COUNT - 1]
# The indices around the two extremal-mode chunk boundaries that a count of
# 2 * _BLOCK + 88 crosses.
BLOCK = bounds._BLOCK
AROUND_WINDOWS = [0, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 87]
STREAM_CASES = [
    ("extremal_params", seed, s_max, range(COUNT))
    for seed in (1, 2) for s_max in (1.5, 20.0, 200.0)
] + [
    ("raw_standard_form", seed, s_max, range(COUNT))
    for seed in (1, 2) for s_max in (1.5, 20.0)
] + [
    ("raw_standard_form", seed, 200.0, AROUND_BOUNDARY) for seed in (1, 2)
] + [
    (mode, 3, 20.0, AROUND_WINDOWS) for mode in ("extremal_params", "raw_standard_form")
] + [
    ("extremal_params", seed, 1e5, range(COUNT)) for seed in (1, 2)
]


@pytest.mark.parametrize("mode, seed, s_max, indices", STREAM_CASES)
def test_block_draws_equal_the_scalar_walk(mode, seed, s_max, indices):
    # the last index checked is the last one drawn
    count = max(indices) + 1
    cfg = SamplerConfig(seed=seed, count=count, s_max=s_max, mode=mode)
    samples = list(iter_samples(cfg))
    assert [s.index for s in samples] == list(range(count))
    for i in indices:
        assert samples[i] == reference_sample(cfg, i)
        assert all(type(v) is float for v in (samples[i].s, samples[i].d, samples[i].g))


@pytest.mark.parametrize("mode, s_max", [
    ("extremal_params", 1.5), ("extremal_params", 20.0), ("extremal_params", 1e5),
    ("extremal_params", bounds.S_MAX_LIMIT),
    ("raw_standard_form", 1.5), ("raw_standard_form", 20.0), ("raw_standard_form", 200.0),
])
def test_array_test_decides_each_attempt_as_the_scalar_test(mode, s_max):
    u = np.random.default_rng(20261018).random((4000, 4))
    short, tested = bounds._MODES[mode].test(u, s_max)
    got = _array_outcomes(tested)
    drawn = np.flatnonzero(~short).tolist()
    draw = _REFERENCE_DRAWS[mode]
    want = [_outcome(draw, ScriptedGenerator(u[k].tolist()), s_max) for k in drawn]
    assert [_bits(got[k]) for k in drawn] == [_bits(x) for x in want]
    assert any(got[k] is not None for k in drawn)


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
def test_sample_does_not_depend_on_count(mode):
    long = list(iter_samples(SamplerConfig(seed=7, count=300, mode=mode)))
    assert list(iter_samples(SamplerConfig(seed=7, count=5, mode=mode))) == long[:5]


def test_interleaved_iterators_yield_what_each_yields_alone():
    # every run owns its generator, and each row's or column's draw loads
    # its counter without yielding in between
    configs = [SamplerConfig(seed=5, count=300, mode="extremal_params"),
               SamplerConfig(seed=2**128, count=300, mode="raw_standard_form")]
    alone = [list(iter_samples(cfg)) for cfg in configs]
    streams = [iter_samples(cfg) for cfg in configs]
    together = [[next(stream) for stream in streams] for _ in range(300)]
    assert [list(samples) for samples in zip(*together)] == alone


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC'11): its two round
# multipliers and the Weyl increments of its key.
PHILOX_MULT = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK64 = 2**64 - 1


def _philox_block(counter, key):
    """The four words of the Philox4x64-10 block of ``counter``, in Python
    ints."""
    x, k = list(counter), list(key)
    for _ in range(10):
        p0, p1 = PHILOX_MULT[0] * x[0], PHILOX_MULT[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k[0], p1 & MASK64, (p0 >> 64) ^ x[3] ^ k[1], p0 & MASK64]
        k = [(k[0] + PHILOX_WEYL[0]) & MASK64, (k[1] + PHILOX_WEYL[1]) & MASK64]
    return x


# (index, first attempt) at both ends of the index range and of a walk,
# and random ones.
EDGE_ROWS = [(i, k) for i in (0, 1, 2**32 - 1, 2**32, bounds.COUNT_LIMIT - 1)
             for k in (0, 1, bounds._MAX_REJECTIONS - 2, bounds._MAX_REJECTIONS - 1)]
RANDOM_ROWS = list(zip(
    np.random.default_rng(20261019).integers(0, bounds.COUNT_LIMIT, 8).tolist(),
    np.random.default_rng(20261020).integers(0, bounds._MAX_REJECTIONS, 8).tolist()))


# Seeds of 1 to 6 uint32 words, at word-count edges.
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128,
                                  2**160 - 1, 2**160])
def test_streams_draw_the_doubles_of_numpy_generators(seed):
    key = _key(seed)
    for mode in ("extremal_params", "raw_standard_form"):
        streams = bounds._Streams(seed, bounds._MODES[mode].by_column)
        for i, first in EDGE_ROWS + RANDOM_ROWS:
            # two indices with one skipped between them, as a round skips
            # the indices it has decided
            indices = [i, i + 2] if i + 2 < bounds.COUNT_LIMIT else [i - 2, i]
            got = streams.draw(np.array(indices, dtype=np.int64), first, 2)
            assert got.shape == (2, 2, 4)
            for index, row in zip(indices, got.tolist()):
                for k, attempt in enumerate(row, first):
                    # the first four doubles of the attempt's own generator
                    assert attempt == _attempt_rng(key, mode, index, k).random(4).tolist()
                    # numpy steps the counter before its first block
                    counter = [index + 1, k] if mode == "extremal_params" else [k + 1, index]
                    words = _philox_block(counter + [0, 0], key.tolist())
                    assert attempt == [(w >> 11) * 2.0**-53 for w in words]


class _Recording:
    """A generator that keeps every value its ``uniform`` returns."""

    def __init__(self, rng):
        self.rng = rng
        self.values = []

    def uniform(self, low, high):
        self.values.append(self.rng.uniform(low, high))
        return self.values[-1]


def test_extremal_rounds_draw_later_columns_past_decided_indices(monkeypatch):
    # Almost every extremal state is accepted at its first attempt.  Here
    # every attempt with s below 12 is taken as stopping early, so about
    # 42% of the attempts are rejected, indices take up to about ten
    # rounds, and each later round draws a column over pending indices
    # with decided ones between them.
    mode = bounds._MODES["extremal_params"]

    def picky(u, s_max):
        short, tested = mode.test(u, s_max)
        return short | (bounds._uniform(1.0, s_max, u[..., 0]) < 12.0), tested

    def picky_draw(rng, s_max):
        recording = _Recording(rng)
        values = _draw_extremal(recording, s_max)
        return None if recording.values[0] < 12.0 else values
    monkeypatch.setitem(bounds._MODES, "extremal_params", dataclasses.replace(mode, test=picky))
    monkeypatch.setitem(_REFERENCE_DRAWS, "extremal_params", picky_draw)
    cfg = SamplerConfig(seed=4, count=300, s_max=S_MAX)
    key = _key(cfg.seed)
    samples = list(iter_samples(cfg))
    assert samples == [reference_sample(cfg, i) for i in range(cfg.count)]
    attempts = [next(k for k in itertools.count()
                     if picky_draw(_attempt_rng(key, cfg.mode, i, k), S_MAX) is not None) + 1
                for i in range(cfg.count)]
    assert max(attempts) >= 5 and sum(k > 1 for k in attempts) >= 100


def test_raw_walk_at_s_max_1e5_equals_the_scalar_walk_under_a_small_cap(monkeypatch):
    # raw mode runs dry at s_max 1e5 (ROADMAP item 6), so the scalar walk
    # of its 1e6 attempts is out of reach: both walks reject the same
    # first 2000 attempts here
    monkeypatch.setattr(bounds, "_MAX_REJECTIONS", 2000)
    cfg = SamplerConfig(seed=8, count=3, s_max=1e5, mode="raw_standard_form")
    want = "no acceptable state after 2000 rejections at index 0"
    with pytest.raises(SamplingError, match=want):
        reference_sample(cfg, 0)
    with pytest.raises(SamplingError, match=want):
        list(iter_samples(cfg))


class ScriptedGenerator:
    """Generator test double for one attempt: ``uniform`` reads a list of
    doubles in turn, then zeros."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.read = 0

    def uniform(self, low, high):
        u = self.doubles[self.read] if self.read < len(self.doubles) else 0.0
        self.read += 1
        return low + (high - low) * u


class ScriptedStreams:
    """``bounds._Streams`` test double: attempt k of index i is the doubles
    ``script_of(i)[k]``, padded with zeros to four.  Attempts past the
    script are zeros, which make every attempt stop early (a = b = 1 in raw
    mode, |d| = s - 1 in extremal mode) so none is ever accepted."""

    def __init__(self, script_of):
        self.script_of = script_of

    def draw(self, indices, first, n):
        u = np.zeros((len(indices), n, bounds._WIDTH))
        for row, i in zip(u, indices.tolist()):
            for j, attempt in enumerate(self.script_of(i)[first:first + n]):
                row[j, :len(attempt)] = attempt
        return u


# The largest double below 1: the end of every draw's range.
BELOW_ONE = 1.0 - 2.0**-53

S_MAX = 20.0
# Attempts at s_max 20; an early stop reads 2 (raw) or 3 (extremal) doubles.
RAW_ACCEPT = [0.125, 0.125, 0.875, 0.125]
RAW_REJECT = [0.5, 0.5, 0.0, 0.5]  # c_plus = c_minus = 0: a product state
RAW_SHORT = [0.0, 0.0]  # a = b = 1, so a b - 1 = 0 and c_plus has no range
EXT_ACCEPT = [0.5, 0.5, 0.5, 0.5]
# g at the top of the entangled window: nu_tilde_minus lies within
# NEAR_SEPARABLE_TOL of 1
EXT_REJECT = [0.5, 0.5, 0.5, BELOW_ONE]
EXT_SHORT = [0.5, 0.0, 0.5]  # d = -(s - 1): the g window is empty
ACCEPT = {"raw_standard_form": RAW_ACCEPT, "extremal_params": EXT_ACCEPT}
REJECT = {"raw_standard_form": RAW_REJECT, "extremal_params": EXT_REJECT}
SHORT = {"raw_standard_form": RAW_SHORT, "extremal_params": EXT_SHORT}


def _script_streams(monkeypatch, script_of):
    """Give every index i of ``iter_samples`` the attempts ``script_of(i)``
    in place of its stream."""
    monkeypatch.setattr(bounds, "_Streams", lambda seed, by_column: ScriptedStreams(script_of))


def _scripted(monkeypatch, mode, script):
    """(iter_samples output or its error, reference output or its error,
    attempts up to the first accepted one) for one index on the scripted
    attempts."""
    _script_streams(monkeypatch, lambda index: script)
    cfg = SamplerConfig(seed=0, count=1, s_max=S_MAX, mode=mode)

    def rng_of(k):
        return ScriptedGenerator(script[k] if k < len(script) else [])
    outputs = []
    for run in (lambda: list(iter_samples(cfg)), lambda: [reference_sample(cfg, 0, rng_of)]):
        try:
            outputs.append(run())
        except SamplingError as exc:
            outputs.append(str(exc))
    draw = _REFERENCE_DRAWS[mode]
    accepted = [draw(ScriptedGenerator(attempt), S_MAX) is not None for attempt in script]
    return outputs[0], outputs[1], accepted.index(True) + 1 if any(accepted) else None


def _edge_attempt(mode):
    """An attempt on the rejected side of the entanglement cut,
    nu_tilde_minus = 1 - NEAR_SEPARABLE_TOL, bisected in its last double."""
    lo, hi = ACCEPT[mode][3], REJECT[mode][3]
    prefix = ACCEPT[mode][:3]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _REFERENCE_DRAWS[mode](ScriptedGenerator(prefix + [mid]), S_MAX) is None:
            hi = mid
        else:
            lo = mid
    return prefix + [hi]


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
def test_an_early_stop_leaves_later_attempts_unchanged(monkeypatch, mode):
    block = bounds._MODES[mode].first_round
    edge = _edge_attempt(mode)
    short, (accept, undefined, _) = bounds._MODES[mode].test(np.array([edge]), S_MAX)
    assert (short | accept | undefined).tolist() == [False]
    # an early stop whose unread doubles are those of an accepted attempt
    unread = SHORT[mode] + ACCEPT[mode][len(SHORT[mode]):]
    scripts = [
        [SHORT[mode], ACCEPT[mode]],
        [REJECT[mode], unread, SHORT[mode], REJECT[mode], ACCEPT[mode]],
        # an early stop at the end of the first round, then later rounds
        [REJECT[mode]] * (block - 1) + [unread] + [REJECT[mode]] * 3 + [ACCEPT[mode]],
        # an attempt just on the rejected side of the cut, then an early stop
        [edge, unread, ACCEPT[mode]],
    ]
    for script in scripts:
        got, want, read = _scripted(monkeypatch, mode, script)
        assert read == len(script)
        assert got == want
        assert len(got) == 1
        # the attempts after an early stop are those after a full rejection
        full = [REJECT[mode] if attempt in (SHORT[mode], unread) else attempt
                for attempt in script]
        assert _scripted(monkeypatch, mode, full)[:2] == (got, want)


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
def test_an_early_stop_is_never_accepted(monkeypatch, mode):
    # the array test also evaluates the doubles after an early stop as part
    # of its attempt; even a test that accepts them must not decide it
    def eager(test):
        def wrapped(u, s_max):
            short, (accept, undefined, columns) = test(u, s_max)
            return short, (accept | short, undefined, columns)
        return wrapped
    monkeypatch.setitem(bounds._MODES, mode, dataclasses.replace(
        bounds._MODES[mode], test=eager(bounds._MODES[mode].test)))
    got, want, _ = _scripted(monkeypatch, mode, [SHORT[mode], SHORT[mode], ACCEPT[mode]])
    assert got == want and len(got) == 1


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
def test_a_replayed_attempt_writes_its_own_row(mode):
    # each index's attempts replayed by the scalar oracle: the first one it
    # accepts is the row of nine floats the sampler writes, nu_tilde_minus
    # included
    cfg = SamplerConfig(seed=9, count=40, mode=mode)
    draw, key = _REFERENCE_DRAWS[mode], _key(cfg.seed)
    rows = 0
    for start, values in bounds._sample_blocks(cfg):
        for i, row in enumerate(values.T.tolist(), start):
            replayed = (draw(_attempt_rng(key, mode, i, k), cfg.s_max)
                        for k in range(bounds._MAX_REJECTIONS))
            assert _bits(row) == _bits(next(v for v in replayed if v is not None))
            rows += 1
    assert rows == cfg.count


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
def test_attempt_limit(monkeypatch, mode):
    monkeypatch.setattr(bounds, "_MAX_REJECTIONS", 3)
    got, want, _ = _scripted(monkeypatch, mode, [REJECT[mode], SHORT[mode], ACCEPT[mode]])
    assert got == want and len(got) == 1
    got, want, _ = _scripted(monkeypatch, mode, [REJECT[mode]] * 3 + [ACCEPT[mode]])
    assert got == want == "no acceptable state after 3 rejections at index 0"
    # the failing index is reported after the samples before it
    monkeypatch.setattr(bounds, "_MAX_REJECTIONS", 1)
    _script_streams(monkeypatch, lambda index: (
        [ACCEPT[mode]] if index < 2 else [REJECT[mode], ACCEPT[mode]]))
    stream = iter_samples(SamplerConfig(seed=0, count=4, s_max=S_MAX, mode=mode))
    assert [next(stream).index, next(stream).index] == [0, 1]
    with pytest.raises(SamplingError, match="after 1 rejections at index 2$"):
        next(stream)


# s_max at which the extremal attempt (0.5, 0.5, 0.0, u) draws s =
# 427650.34765625, d = 0 and lambda = -1: the near-pure GLEMS of
# CONFIRM_EDGES whose spectrum is undefined, at the double u that gives its g
UNDEFINED_S_MAX = 855299.6953125
UNDEFINED_G = 1.0000855298695313


def _undefined_attempt():
    """(0.5, 0.5, 0.0, u) with u the least double whose g is UNDEFINED_G."""
    def g_of(u):
        s = 1.0 + (UNDEFINED_S_MAX - 1.0) * 0.5
        g_hi = min(2.0 * s - 1.0, float(entanglement_threshold(s, 0.0, -1.0)))
        return 1.0 + (g_hi - 1.0) * u
    lo, hi = 0.0, 1e-9
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if g_of(mid) < UNDEFINED_G:
            lo = mid
        else:
            hi = mid
    assert g_of(hi) == UNDEFINED_G
    return [0.5, 0.5, 0.0, hi]


def test_an_undefined_spectrum_raises_end_to_end(monkeypatch, capsys, tmp_path):
    # every attempt is the near-pure GLEMS whose spectrum() raises: the
    # sampler, the experiment and the CLI fail with its error
    _script_streams(monkeypatch, lambda index: [_undefined_attempt()] * 4)
    cfg = SamplerConfig(seed=0, count=3, s_max=UNDEFINED_S_MAX)
    sf = build_state(ExtremalParams(427650.34765625, 0.0, UNDEFINED_G, -1.0))
    with pytest.raises(UnphysicalStateError) as raised:
        sf.spectrum()
    message = str(raised.value)
    assert message.startswith(
        "symplectic discriminant is negative (Delta=2.00012, Det=1.00015); ")
    for run in (lambda: list(iter_samples(cfg)), lambda: bound_experiment(cfg)):
        with pytest.raises(UnphysicalStateError) as raised:
            run()
        assert str(raised.value) == message
    points, curves = tmp_path / "points.csv", tmp_path / "curves.csv"
    code = cli.main(["bounds", "--samples", "3", "--seed", "0", "--s-max", str(UNDEFINED_S_MAX),
                     "--points", str(points), "--curves", str(curves)])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_UNPHYSICAL, "")
    assert err == f"twomode: unphysical or invalid state: {message}\n"
    assert list(tmp_path.iterdir()) == []


# Attempts at UNDEFINED_S_MAX: accepted, and with an undefined spectrum.
# The raw one is a mixed state whose two symplectic eigenvalues nearly
# coincide: its discriminant rounds below its floor.
BIG_ACCEPT = {"extremal_params": EXT_ACCEPT,
              "raw_standard_form": [0.5, 0.5, 1.0 - 2.0**-19, 2.0**-20]}
RAW_UNDEFINED = [0.5, 0.5, 1.0 - 2.0**-24, 2.0**-40]


def _scalar_walk(cfg, scripts):
    """The samples of the scalar walk over indices 0, 1, ... on the
    attempts ``scripts[i]``, up to the first index that fails, and that
    index's error (None if none fails)."""
    samples = []
    for i, script in enumerate(scripts):
        def rng_of(k, script=script):
            return ScriptedGenerator(script[k] if k < len(script) else [])
        try:
            samples.append(reference_sample(cfg, i, rng_of))
        except (SamplingError, UnphysicalStateError) as exc:
            return samples, exc
    return samples, None


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
@pytest.mark.parametrize("kinds", [
    # index 1 runs out of attempts before index 2 stops at an undefined
    # spectrum, in the same chunk and the same round
    ["accept", "reject reject", "undefined", "accept"],
    ["accept", "undefined", "reject reject", "accept"],
    # the undefined spectrum comes at an index's second attempt
    ["accept", "reject undefined", "reject reject", "accept"],
    ["accept", "reject accept", "undefined", "undefined"],
])
def test_the_first_index_that_fails_raises_after_the_samples_before_it(
        monkeypatch, mode, kinds):
    monkeypatch.setattr(bounds, "_MAX_REJECTIONS", 2)
    attempts = {"accept": BIG_ACCEPT[mode], "reject": REJECT[mode],
                "undefined": _undefined_attempt() if mode == "extremal_params" else RAW_UNDEFINED}
    scripts = [[attempts[kind] for kind in index.split()] for index in kinds]
    _script_streams(monkeypatch, lambda index: scripts[index])
    cfg = SamplerConfig(seed=0, count=len(scripts), s_max=UNDEFINED_S_MAX, mode=mode)
    want, error = _scalar_walk(cfg, scripts)
    assert error is not None and len(want) == 1 + ("reject accept" in kinds)
    got = []
    with pytest.raises(type(error)) as raised:
        got.extend(iter_samples(cfg))
    assert (got, str(raised.value)) == (want, str(error))
    with pytest.raises(type(error)) as raised:
        bound_experiment(cfg)
    assert str(raised.value) == str(error)


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(["reject", "short", "edge"]), max_size=24),
       first_round=st.integers(1, 3), growth=st.integers(0, 3), over_limit=st.booleans())
def test_many_rounds_at_a_small_cap_equal_the_scalar_walk(
        mode, kinds, first_round, growth, over_limit):
    # Rounds of at most first_round + growth attempts: an index takes many
    # rounds, each from the attempt after the last one tested.  The
    # accepted attempt is the last one the limit allows, or the first one
    # past it, so a walk that miscounts its attempts fails fast.
    attempts = {"reject": REJECT[mode], "short": SHORT[mode], "edge": _edge_attempt(mode)}
    script = [attempts[kind] for kind in kinds] + [ACCEPT[mode]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_MAX_REJECTIONS", len(kinds) + 1 - over_limit)
        mp.setitem(bounds._MODES, mode, dataclasses.replace(
            bounds._MODES[mode], first_round=first_round, max_round=first_round + growth))
        got, want, read = _scripted(mp, mode, script)
    assert read == len(script)
    assert got == want
    assert isinstance(got, str) if over_limit else len(got) == 1


# Extremal attempts at the edges of every test the array test makes.
CONFIRM_EDGES = [
    (3.0, 0.5, 3.0, 1.0),  # lambda = +1
    (3.0, 0.5, 3.0, -1.0),  # lambda = -1
    (5.0, 1.5, 4.0, 0.3),  # g = 2|d| + 1
    # Td^2 - 4g^2 rounds into (-1e-10 scale, 0) and into (0, 1e-12 scale]
    (8.063821023262053, -6.4456265535238755, 13.891253107047751, -0.33768969776485314),
    (26.07925961031258, 5.334312209796009, 11.668624419592017, 1.0),
    # a near-pure GLEMS whose nu_minus discriminant rounds below -1e-9
    # relative: spectrum() raises, so the array test must find it undefined
    (427650.34765625, 0.0, 1.0000855298695313, -1.0),
    # Ts^2 - 4g^2 is negative beyond tolerance
    (13.818994578216504, 12.136217415888211, 31.914135177452234, 0.32470433756239037),
    # the domain's edges: beyond its tolerance 1e-12, or inside it (s and
    # lambda below), where g <= s^2 - d^2 + 1e-12 still fails by rounding
    (1.0 - 2e-12, 0.0, 1.0, 0.0),
    (1.0 - 5e-13, 0.0, 1.0, 0.0),
    (3.0, 2.000000000002, 5.000000000004, 0.5),
    (3.0, 0.5, 1.999999999998, 0.0),
    (2.0, 0.5, 3.75 + 2e-12, -1.0),
    (3.0, 0.5, 2.5, 1.0 + 2e-12),
    (3.0, 0.5, 2.5, -1.0 - 5e-13),
    # nu_tilde_minus on either side of 1 - NEAR_SEPARABLE_TOL
    (3.0, 0.5, 4.589762277224925, 0.2),
    (3.0, 0.5, 4.589762277224926, 0.2),
    (7.5, -2.0, 11.339803934091343, -0.6),
    (7.5, -2.0, 11.339803934091345, -0.6),
]


def _straddle(row_of, holds, lo, hi):
    """The rows ``row_of(x)`` of the two adjacent doubles x in [lo, hi]
    between which ``holds(row_of(x))`` flips, found by bisection."""
    at_lo = holds(row_of(lo))
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if holds(row_of(mid)) == at_lo:
            lo = mid
        else:
            hi = mid
    return [row_of(lo), row_of(hi)]


def _physical(row):
    return StandardForm(*row).is_physical()


def _entangled(row):
    return StandardForm(*row).spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL


# Raw attempts on both sides of each test the array test makes:
# Det sigma = 1 - DEFAULT_TOL (the pure states (2, 2, c, -c) at c ~ sqrt 3),
# Delta = 1 + Det sigma + DEFAULT_TOL, and nu_tilde_minus = 1 -
# NEAR_SEPARABLE_TOL (the symmetric states (3, 3, c, -c) at c ~ 2).  Each
# side's other tests pass.
RAW_EDGES = [
    *_straddle(lambda c: (2.0, 2.0, c, -c), _physical, 1.7, 1.8),
    *_straddle(lambda c: (1.5, 1.5, c, -0.1), _physical, 0.8, 0.95),
    *_straddle(lambda c: (3.0, 3.0, c, -c), _entangled, 1.9, 2.1),
]


def _raw_row(s_max, u):
    """(a, b, c_plus, c_minus) as ``_draw_raw`` draws them from the doubles u."""
    a = 1.0 + (s_max - 1.0) * u[0]
    b = 1.0 + (s_max - 1.0) * u[1]
    c_cap = math.sqrt(max(a * b - 1.0, 0.0))
    cp = c_cap * u[2]
    return a, b, cp, -cp + cp * u[3]


@st.composite
def _raw_attempts(draw):
    """Raw draws at s_max up to S_MAX_LIMIT, often at the end of a range."""
    s_max = draw(st.one_of(st.floats(1.0, 3.0, exclude_min=True),
                           st.floats(1.0, bounds.S_MAX_LIMIT, exclude_min=True)))
    unit = st.one_of(st.sampled_from([0.0, 0.5, BELOW_ONE]),
                     st.floats(0.0, 1.0, exclude_max=True))
    return _raw_row(s_max, [draw(unit) for _ in range(4)])


@st.composite
def _extremal_attempts(draw):
    """(s, d, g, lambda) as the sampler draws them, g also a little outside
    the proposal window and lambda often at +-1."""
    s = draw(st.floats(1.0, 1e6))
    d = draw(st.floats(-1.0, 1.0)) * (s - 1.0)
    g_lo = 2.0 * abs(d) + 1.0
    g = g_lo + (2.0 * s - 1.0 - g_lo) * draw(st.floats(-0.01, 1.01))
    lam = draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    return s, d, g, lam


def _outcome(function, *args):
    """What ``function`` returns, or the type and message of its error."""
    try:
        return function(*args)
    except TwoModeError as exc:
        return type(exc), str(exc)


def _spectrum(a, b, cp, cm):
    return StandardForm(a, b, cp, cm).spectrum()


def _array_outcomes(tested):
    """What the sampler's walk makes of each attempt that ``tested``, an
    array test, holds: the accepted draw, None, or, for an undefined
    spectrum, what ``spectrum()`` of its standard form raises."""
    accept, undefined, columns = tested
    draws = zip(*(c.tolist() for c in columns(accept | undefined)))
    return [_outcome(_spectrum, *next(draws)[4:8]) if undefined[k]
            else next(draws) if accept[k] else None
            for k in range(len(accept))]


def _bits(draw):
    """An accepted draw's floats as hex strings, None for a rejection; an
    error stays as it is."""
    if draw is None or isinstance(draw[0], type):
        return draw
    assert len(draw) == len(bounds._COLUMNS)
    assert all(type(v) is float for v in draw)
    return [v.hex() for v in draw]


def _with_edges(edges):
    def decorate(test):
        for row in edges:
            test = example(rows=[row])(test)
        return example(rows=edges)(test)
    return decorate


def _array_test_equals_the_scalar_confirm(test, confirm, rows):
    want = [_outcome(confirm, *row) for row in rows]
    tested = test(*(np.array(c) for c in zip(*rows)))
    # the spectrum is undefined exactly where the scalar test raises
    assert tested[1].tolist() == [w is not None and isinstance(w[0], type) for w in want]
    assert [_bits(x) for x in _array_outcomes(tested)] == [_bits(x) for x in want]


@settings(max_examples=200, deadline=None)
@_with_edges(CONFIRM_EDGES)
@given(rows=st.lists(_extremal_attempts(), min_size=1, max_size=8))
def test_array_confirm_equals_the_scalar_confirm(rows):
    _array_test_equals_the_scalar_confirm(bounds._test_extremal, _confirm_extremal, rows)


@settings(max_examples=200, deadline=None)
@_with_edges(RAW_EDGES)
@given(rows=st.lists(_raw_attempts(), min_size=1, max_size=8))
def test_raw_array_confirm_equals_the_scalar_confirm(rows):
    _array_test_equals_the_scalar_confirm(bounds._test_raw, _confirm_raw, rows)


def test_raw_edges_straddle_each_test():
    physical = [_physical(row) for row in RAW_EDGES]
    entangled = [_entangled(row) for row in RAW_EDGES]
    assert physical == [True, False, True, False, True, True]
    assert entangled[0] and entangled[2] and entangled[4] != entangled[5]
    for row in RAW_EDGES:
        a, b, cp, cm = row
        assert a * b - cp * cp >= 0.0 and a * b - cm * cm >= 0.0


@settings(max_examples=300, deadline=None)
@example(row=_raw_row(bounds.S_MAX_LIMIT, [BELOW_ONE] * 4))
@example(row=_raw_row(bounds.S_MAX_LIMIT, [BELOW_ONE, 0.5, BELOW_ONE, BELOW_ONE]))
@example(row=_raw_row(1.0 + 2.0**-52, [BELOW_ONE] * 4))
@given(row=_raw_attempts())
def test_raw_draws_fail_physicality_only_on_the_two_dets_inequalities(row):
    # why the array test of raw draws checks only Det sigma and Delta: the
    # other inequalities of _violation hold on every draw
    det_sigma, delta, _ = symplectic._dets(*row)
    holds = det_sigma >= 1.0 - DEFAULT_TOL and delta <= 1.0 + det_sigma + DEFAULT_TOL
    assert (StandardForm(*row)._violation(DEFAULT_TOL) is None) == holds
