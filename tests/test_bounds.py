import dataclasses
import math

import numpy as np
import pytest

from twomode import (
    nu_tilde_from_m,
    ColumnTable,
    ExtremalParams,
    SamplerConfig,
    StandardForm,
    bound_curves,
    bound_experiment,
    build_state,
    entanglement_threshold,
    geof_bounds,
    h_function,
    iter_samples,
    m_opt_gmemms,
    minimize_m,
    nu_opt_lower,
)
from twomode import bounds
from twomode.bounds import VIOLATION_TOL, BoundPoint, ExperimentResult
from twomode.errors import DomainError, TwoModeError
from twomode.gaussian_em import GemBlock, m_from_nu_tilde
from twomode.extremal import m_max, m_opt_glems, m_opt_gmems
from twomode.negativity import log_negativity


class TestCurves:
    def test_lower_at_half(self):
        assert nu_opt_lower(0.5) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)

    def test_lower_spot_value(self):
        nu = 0.8306
        direct = (1.0 - math.sqrt(1.0 - nu * nu)) / nu
        assert nu_opt_lower(nu) == pytest.approx(direct, rel=1e-12)
        assert nu_opt_lower(nu) == pytest.approx(0.5334, abs=2e-4)

    def test_limits_at_one(self):
        assert nu_opt_lower(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_lower_below_upper_and_monotone(self):
        prev = 0.0
        for i in range(1, 200):
            nu = i / 200.0
            lo = nu_opt_lower(nu)
            assert lo <= nu
            assert lo > prev
            prev = lo

    def test_domain(self):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(DomainError):
                nu_opt_lower(bad)

    def test_array_lower_curve_equals_the_float_curve(self, rng):
        nus = [*rng.uniform(0.0, 1.0, 2000).tolist(), 1.0, 5e-324, 0.5]
        assert bounds._lower_curve(np.array(nus)).tolist() == [nu_opt_lower(nu) for nu in nus]

    def test_bound_curves_table(self):
        rows = bound_curves(64)
        assert len(rows) == 64
        for nu, lo, hi in rows:
            assert 0.0 < nu < 1.0
            assert lo <= hi == nu

    def test_bound_curves_reject_a_non_integer_resolution(self):
        for resolution in (2.5, 64.0, "64"):
            with pytest.raises(DomainError, match="resolution must be an integer"):
                bound_curves(resolution)
        with pytest.raises(DomainError, match="at least 2"):
            bound_curves(1)
        assert bound_curves(np.int64(64)) == bound_curves(64)


class TestGeofBounds:
    def test_unit_log_negativity(self):
        lo, hi = geof_bounds(1.0)
        # h(1/2) and h(2 - sqrt(3)) = 1.5 log2(1.5) + 0.5
        assert lo == pytest.approx(h_function(0.5), rel=1e-14)
        assert hi == pytest.approx(1.5 * math.log2(1.5) + 0.5, abs=1e-12)
        assert (lo, hi) == pytest.approx((0.5661656266226014, 1.3774437510817343), abs=1e-10)

    def test_vanishes_at_separability(self):
        lo, hi = geof_bounds(1e-9)
        assert 0.0 <= lo <= hi < 1e-6

    def test_ordering_and_monotonicity(self):
        prev = (0.0, 0.0)
        for e_n in (0.25, 0.5, 1.0, 2.0, 4.0):
            lo, hi = geof_bounds(e_n)
            assert lo <= hi
            assert lo > prev[0] and hi > prev[1]
            prev = (lo, hi)

    def test_natural_base(self):
        lo, hi = geof_bounds(math.log(2.0), log_base="e")
        lo2, hi2 = geof_bounds(1.0)
        assert lo == pytest.approx(lo2 * math.log(2.0), rel=1e-12)
        assert hi == pytest.approx(hi2 * math.log(2.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            geof_bounds(0.0)
        with pytest.raises(DomainError):
            geof_bounds(1.0, log_base=10)


@pytest.mark.parametrize("call,message", [
    (lambda: nu_tilde_from_m(math.nan), "single-mode determinant must be >= 1"),
    (lambda: m_opt_gmems(math.inf, 0.5, 2.5), "must be finite"),
    (lambda: m_opt_glems(math.inf, 0.5, 2.5), "must be finite"),
    (lambda: geof_bounds(math.inf), "log negativity must be positive and finite"),
    (lambda: geof_bounds(1100.0), "underflows"),  # 2^-E is 0
    (lambda: geof_bounds(1030.0), "underflows"),  # 2^-E is subnormal
    (lambda: geof_bounds(710.0, log_base="e"), "underflows"),
], ids=["nu_tilde_from_m-nan", "m_opt_gmems-inf", "m_opt_glems-inf", "geof_bounds-inf",
        "geof_bounds-zero", "geof_bounds-subnormal", "geof_bounds-e-subnormal"])
def test_non_finite_input_is_rejected_in_its_own_words(call, message):
    with pytest.raises(DomainError, match=message):
        call()


class TestSampler:
    def test_deterministic_given_seed(self):
        cfg = SamplerConfig(seed=99, count=40)
        first = [s for s in iter_samples(cfg)]
        second = [s for s in iter_samples(cfg)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [s.standard_form for s in iter_samples(SamplerConfig(seed=1, count=5))]
        b = [s.standard_form for s in iter_samples(SamplerConfig(seed=2, count=5))]
        assert a != b

    def test_every_sample_is_physical_and_entangled(self):
        for sample in iter_samples(SamplerConfig(seed=5, count=60)):
            sf = sample.standard_form
            assert sf.is_physical(1e-8)
            assert sf.spectrum().nu_tilde_minus < 1.0
            assert sf.c_plus >= abs(sf.c_minus)

    def test_lambda_is_uniform_with_mean_zero(self):
        # g is drawn on the entangled window, so (s, d, lambda) are almost
        # never redrawn and keep their uniform law: the mean lambda lies
        # within 4 standard errors (0.577 / sqrt(4000)) of 0
        lams = [s.lam for s in iter_samples(SamplerConfig(seed=3, count=4000, s_max=20.0))]
        assert abs(sum(lams) / len(lams)) <= 4.0 * math.sqrt(1.0 / 3.0 / len(lams))

    def test_g_is_uniform_on_its_entangled_window(self):
        # each sample's position inside (2|d| + 1, min(2s - 1, g_ent)) is
        # uniform on (0, 1): the Kolmogorov-Smirnov statistic stays below
        # its 0.1% critical value, 1.95 / sqrt(n)
        samples = list(iter_samples(SamplerConfig(seed=3, count=4000, s_max=20.0)))
        s, d, g, lam = (np.array(c) for c in zip(*((x.s, x.d, x.g, x.lam) for x in samples)))
        g_lo = 2.0 * np.abs(d) + 1.0
        g_hi = np.minimum(2.0 * s - 1.0, entanglement_threshold(s, d, lam))
        position = np.sort((g - g_lo) / (g_hi - g_lo))
        n = position.size
        ks = max((np.arange(1, n + 1) / n - position).max(), (position - np.arange(n) / n).max())
        assert ks < 1.95 / math.sqrt(n)

    def test_raw_mode(self):
        for sample in iter_samples(SamplerConfig(seed=5, count=40, mode="raw_standard_form")):
            sf = sample.standard_form
            assert sf.is_physical(1e-8)
            assert sf.spectrum().nu_tilde_minus < 1.0
            assert sample.g == pytest.approx(math.sqrt(sf.invariants().det_sigma), rel=1e-9)
            assert math.isnan(sample.lam)

    def test_draw_parameters_recorded(self):
        for sample in iter_samples(SamplerConfig(seed=11, count=20)):
            rebuilt = build_state(ExtremalParams(sample.s, sample.d, sample.g, sample.lam))
            assert rebuilt.a == pytest.approx(sample.standard_form.a, rel=1e-12)
            assert rebuilt.c_plus == pytest.approx(sample.standard_form.c_plus, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            list(iter_samples(SamplerConfig(seed=1, count=0)))
        with pytest.raises(DomainError, match="at most 9223372036854775808"):
            list(iter_samples(SamplerConfig(seed=1, count=2**63 + 1)))
        assert next(iter_samples(SamplerConfig(seed=1, count=2**63))).index == 0
        with pytest.raises(DomainError, match="seed"):
            list(iter_samples(SamplerConfig(seed=-1, count=1)))
        with pytest.raises(DomainError):
            list(iter_samples(SamplerConfig(seed=1, count=1, s_max=1.0)))
        with pytest.raises(DomainError):
            list(iter_samples(SamplerConfig(seed=1, count=1, mode="bogus")))
        for s_max in (math.inf, 1e80, math.nan, "20", None):
            with pytest.raises(DomainError, match="s_max"):
                list(iter_samples(SamplerConfig(seed=1, count=1, s_max=s_max)))

    def test_numpy_integer_seed_and_count_equal_python_ints(self):
        want = list(iter_samples(SamplerConfig(seed=5, count=2)))
        assert want[0].s == 17.294002416175918
        assert list(iter_samples(SamplerConfig(seed=np.int64(5), count=2))) == want
        assert list(iter_samples(SamplerConfig(seed=5, count=np.int64(2)))) == want
        # an int or NumPy s_max samples as the float does
        for s_max in (20, np.float64(20.0)):
            assert list(iter_samples(SamplerConfig(seed=5, count=2, s_max=s_max))) == want

    def test_seed_and_count_must_be_integers(self):
        with pytest.raises(DomainError, match="seed must be an integer, got 5.0"):
            list(iter_samples(SamplerConfig(seed=5.0, count=2)))
        with pytest.raises(DomainError, match="count must be an integer, got 3.0"):
            list(iter_samples(SamplerConfig(seed=5, count=3.0)))


class TestExperiment:
    def test_small_run_has_no_violations(self):
        result = bound_experiment(SamplerConfig(seed=314, count=300))
        assert len(result.points) == 300
        assert result.violations_upper == 0
        assert result.violations_lower == 0
        assert not result.failures
        assert result.min_upper_slack >= -1e-9
        assert result.min_m_max_slack >= -1e-9

    def test_bad_log_base_raises(self):
        # not a failure recorded for every state
        with pytest.raises(DomainError, match="log_base"):
            bound_experiment(SamplerConfig(seed=1, count=5), log_base=10)

    def test_points_lie_between_curves(self):
        for p in bound_experiment(SamplerConfig(seed=27, count=100)).points:
            assert p.nu_tilde_opt <= p.nu_tilde_sigma + 1e-9
            assert p.nu_tilde_opt >= nu_opt_lower(p.nu_tilde_sigma) - 1e-9
            assert p.log_neg > 0.0
            assert p.geof >= 0.0

    def test_symmetric_states_saturate_upper_curve(self):
        for s, g in ((2.0, 1.5), (4.0, 3.0), (8.0, 2.0)):
            sf = build_state(ExtremalParams(s, 0.0, g, 0.3))
            nu = sf.spectrum().nu_tilde_minus
            if nu >= 1.0 - 1e-8:
                continue
            gem = minimize_m(sf)
            assert abs(gem.nu_tilde_opt - nu) <= 1e-9

    def test_gmemms_approach_lower_curve(self):
        nu = 0.5
        gaps = []
        for s in (1.5, 3.0, 10.0, 40.0):
            nu_opt = nu_tilde_from_m(m_opt_gmemms(s, nu))
            gaps.append(nu_opt - nu_opt_lower(nu))
        assert all(g > 0.0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01


def _points(rows) -> ColumnTable:
    """``BoundPoint`` rows as ``bound_experiment`` holds them: columns."""
    return ColumnTable(BoundPoint, [[getattr(row, name) for row in rows]
                                    for name in BoundPoint._fields])


def _scalar_experiment(samples, log_base=2):
    """``bound_experiment``'s loop one state at a time with ``minimize_m``:
    the reference for its column route."""
    points, failures = [], []
    upper = lower = 0
    min_upper_slack = min_m_max_slack = math.inf
    for sample in samples:
        try:
            nu_sigma = sample.standard_form.spectrum().nu_tilde_minus
            gem = minimize_m(sample.standard_form, log_base=log_base)
        except TwoModeError as exc:
            failures.append((sample.index, str(exc)))
            continue
        violates_upper = gem.nu_tilde_opt > nu_sigma + VIOLATION_TOL
        violates_lower = gem.nu_tilde_opt < nu_opt_lower(nu_sigma) - VIOLATION_TOL
        upper += violates_upper
        lower += violates_lower
        min_upper_slack = min(min_upper_slack, nu_sigma - gem.nu_tilde_opt)
        min_m_max_slack = min(min_m_max_slack, m_max(nu_sigma) - gem.m_opt)
        points.append(BoundPoint(
            sample.index, sample.s, sample.d, sample.g, sample.lam, nu_sigma,
            gem.nu_tilde_opt, log_negativity(nu_sigma, log_base), gem.gaussian_eof,
            violates_upper, violates_lower,
        ))
    return ExperimentResult(_points(points), upper, lower, failures, min_upper_slack,
                            min_m_max_slack)


@pytest.mark.parametrize("log_base", [2, "e"])
@pytest.mark.parametrize("mode, s_max, count", [
    ("extremal_params", 20.0, 600),
    ("extremal_params", 1e5, 600),
    ("raw_standard_form", 20.0, 300),
    # raw mode runs out of attempts at index 0 here (ROADMAP item 6)
    ("raw_standard_form", 1e5, 3),
])
def test_block_experiment_equals_the_scalar_loop(mode, s_max, count, log_base):
    cfg = SamplerConfig(seed=8, count=count, s_max=s_max, mode=mode)
    outcomes = []
    for run in (lambda: bound_experiment(cfg, log_base),
                lambda: _scalar_experiment(iter_samples(cfg), log_base)):
        try:
            outcomes.append(run())
        except TwoModeError as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    assert got == want
    # every float bit for bit: repr round-trips doubles, -0.0 and NaN included
    assert repr(got) == repr(want)
    if isinstance(got, ExperimentResult):
        assert len(got.points) + len(got.failures) == count


# Extremal states at s ~ 4e4 to 1e5 where the proven ceiling nu_opt <=
# nu_tilde_minus fails by more than VIOLATION_TOL (ROADMAP item 3), all at
# s_max 1e5: index 255 of seed 7 under the sampler's former PCG64 streams
# (slack -2.917e-8); indices 1300 and 3912 of seed 7 under its former
# row-layout Philox streams, with g drawn on (2|d| + 1, 2s - 1) (slacks
# -8.74e-7 and -1.42e-8); and index 677 of seed 8 and index 3900 of seed 9
# under its column-layout streams, with g drawn on the entangled window
# (slacks -1.22e-7 and -1.87e-7).
CEILING_DEFECTS = [
    ExtremalParams(43190.74022317563, 213.55857375084452, 76891.28898187053, 0.4904727291779378),
    ExtremalParams(76418.7554763723, 0.1682535557920346, 46818.039660056835, 0.43530679307861964),
    ExtremalParams(70484.8149653067, 13.906143469605013, 112539.06327470159, 0.7006075929075128),
    ExtremalParams(79970.32369198262, 32.18942444809363, 113685.99221521364, 0.09738727352519527),
    ExtremalParams(95872.01281449228, -39.0013560380612, 84774.48471539892, -0.33974387375564685),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: cancellation at large s")
@pytest.mark.parametrize("params", CEILING_DEFECTS)
def test_ceiling_holds_at_large_s(params):
    sf = build_state(params)
    assert minimize_m(sf).nu_tilde_opt <= sf.spectrum().nu_tilde_minus + VIOLATION_TOL


def test_ceiling_defects_are_sampled_states():
    # the defects of the column-layout streams are sample 677 of seed 8
    # and sample 3900 of seed 9
    for params, seed, i in zip(CEILING_DEFECTS[3:], (8, 9), (677, 3900)):
        samples = list(iter_samples(SamplerConfig(seed=seed, count=i + 1, s_max=1e5)))
        assert ExtremalParams(*samples[i][2:]) == params


@pytest.mark.parametrize("mode, s_max, count", [
    ("extremal_params", 20.0, 600),
    ("extremal_params", 1e5, 300),
    ("extremal_params", bounds.S_MAX_LIMIT, 300),
    ("raw_standard_form", 20.0, 300),
    ("raw_standard_form", 200.0, 30),
])
def test_sample_columns_are_the_samples(mode, s_max, count):
    # StandardForm's checks, finite entries and a, b > 0, hold on every
    # sampled state's columns, and iter_samples is their per-sample view
    cfg = SamplerConfig(seed=13, count=count, s_max=s_max, mode=mode)
    samples = iter(iter_samples(cfg))
    for start, values in bounds._sample_blocks(cfg):
        s, d, g, lam, a, b, cp, cm = values
        assert np.isfinite(values[[0, 1, 2, 4, 5, 6, 7]]).all()
        assert (a > 0.0).all() and (b > 0.0).all()
        assert np.isnan(lam).all() == (mode == "raw_standard_form")
        for k, (s_k, d_k, g_k, lam_k, *form) in enumerate(values.T.tolist()):
            view = bounds.Sample(start + k, StandardForm(*form), s_k, d_k, g_k, lam_k)
            assert view.standard_form.spectrum().nu_tilde_minus < 1.0
            assert repr(next(samples)) == repr(view)
    assert next(samples, None) is None


# Doubles at the ends of every draw's range, then random ones.
_EDGE_DOUBLES = np.array([[x, y, z, w] for x in (0.0, 0.5, 1.0 - 2.0**-53)
                          for y in (0.0, 1.0 - 2.0**-53) for z in (0.0, 1.0 - 2.0**-53)
                          for w in (0.0, 1.0 - 2.0**-53)])


@pytest.mark.parametrize("mode", ["extremal_params", "raw_standard_form"])
@pytest.mark.parametrize("s_max", [1.5, 20.0, 1e5, bounds.S_MAX_LIMIT])
def test_accepted_attempts_are_standard_forms(mode, s_max):
    # The array test keeps no StandardForm, so its checks must hold on the
    # columns: on every attempt the extremal test accepts (build_state's
    # own checks reject the rest), and on every raw draw that does not stop
    # early (the scalar test builds its StandardForm before testing it).
    u = np.concatenate([_EDGE_DOUBLES, np.random.default_rng(20261019).random((4000, 4))])
    short, (accept, _, columns) = bounds._MODES[mode].test(u, s_max)
    at = accept & ~short if mode == "extremal_params" else ~short
    a, b, cp, cm = columns(at)[4:8]
    assert a.size
    assert np.isfinite([a, b, cp, cm]).all()
    assert (a > 0.0).all() and (b > 0.0).all()


@pytest.mark.parametrize("mode, seed, s_max", [
    # two states break the proven ceiling here (ROADMAP item 3)
    ("extremal_params", 2, 1e6),
    ("raw_standard_form", 1, 20.0),
])
def test_experiment_does_not_depend_on_the_block_size(monkeypatch, mode, seed, s_max):
    # every step is elementwise, so any size of the minimizer's blocks and
    # of the extremal sampler's chunks gives the same result, bit for bit;
    # 1030 states cross a boundary at each size
    cfg = SamplerConfig(seed=seed, count=1030, s_max=s_max, mode=mode)
    extremal = bounds._MODES["extremal_params"]
    results = []
    for size in (1, 7, 256, 1024):
        monkeypatch.setattr(bounds, "_BLOCK", size)
        monkeypatch.setitem(bounds._MODES, "extremal_params",
                            dataclasses.replace(extremal, chunk=size))
        results.append(bound_experiment(cfg))
    assert len(results[0].points) == cfg.count
    assert results[0].violations_upper == (2 if mode == "extremal_params" else 0)
    for result in results[1:]:
        assert result == results[0]
        assert repr(result) == repr(results[0])


def blocks_of(samples):
    """A stand-in for ``bounds._sample_blocks`` that hands out the samples of
    indices 0, 1, ... as blocks of ``_COLUMNS``."""
    rows = [(p.s, p.d, p.g, p.lam, *dataclasses.astuple(p.standard_form)) for p in samples]
    return lambda cfg: ((start, np.array(rows[start:start + bounds._BLOCK]).T)
                        for start in range(0, len(rows), bounds._BLOCK))


# 1/nu**2 rounds one ulp away from m_max's 1/(nu nu) at the second
@pytest.mark.parametrize("nu", [0.5, 0.6885585766763299])
def test_violations_count_beyond_the_tolerance(monkeypatch, nu):
    # nu_tilde_opt half and twice VIOLATION_TOL beyond each curve at nu
    lower = nu_opt_lower(nu)
    cases = [(nu + 0.5 * VIOLATION_TOL, False, False), (nu + 2.0 * VIOLATION_TOL, True, False),
             (lower - 0.5 * VIOLATION_TOL, False, False), (lower - 2.0 * VIOLATION_TOL, False, True)]
    sf = StandardForm(2.0, 1.5, 1.0, -0.8)
    samples = [bounds.Sample(i, sf, 1.75, 0.25, 1.5, 0.0) for i in range(len(cases))]
    nu_opt = np.array([x for x, _, _ in cases])
    size = len(cases)
    gems = GemBlock(np.full(size, nu), np.array([m_from_nu_tilde(x) for x in nu_opt.tolist()]),
                    nu_opt, np.zeros(size), {})
    monkeypatch.setattr(bounds, "_sample_blocks", blocks_of(samples))
    monkeypatch.setattr(bounds, "minimize_columns", lambda a, b, cp, cm, log_base: gems)
    result = bound_experiment(SamplerConfig(seed=0, count=len(cases)))
    assert [(p.violates_42, p.violates_46) for p in result.points] == [c[1:] for c in cases]
    assert (result.violations_upper, result.violations_lower) == (1, 1)
    assert result.min_upper_slack == nu - cases[1][0]
    assert result.min_m_max_slack == m_max(nu) - m_from_nu_tilde(cases[3][0])


# fails the physicality gate in minimize_m; its spectrum exists
UNPHYSICAL = StandardForm(0.8, 0.8, 0.1, -0.1)
# Det sigma < 0: fails already in spectrum()
NO_SPECTRUM = StandardForm(1.0, 1.0, 2.0, 0.0)


def failing_stream(good, failing):
    """``good`` samples with the forms of ``failing`` (position, form)
    inserted, re-indexed 0, 1, ...."""
    states = [s.standard_form for s in good]
    params = [(s.s, s.d, s.g, s.lam) for s in good]
    for at, sf in failing:
        states.insert(at, sf)
        params.insert(at, (2.0, 0.0, 1.5, 0.0))
    return [bounds.Sample(i, sf, *p) for i, (sf, p) in enumerate(zip(states, params))]


class TestExperimentFailures:
    def test_failures_match_the_scalar_loop(self, monkeypatch):
        block = bounds._BLOCK
        good = list(iter_samples(SamplerConfig(seed=3, count=2 * block + 88)))
        # failing forms inside the first block, on its last row and in the third
        at = [5, block - 1, 2 * block + 18]
        stream = failing_stream(good, zip(at, [UNPHYSICAL, NO_SPECTRUM, UNPHYSICAL]))
        monkeypatch.setattr(bounds, "_sample_blocks", blocks_of(stream))
        result = bound_experiment(SamplerConfig(seed=3, count=len(stream)), log_base="e")
        expected = _scalar_experiment(stream, log_base="e")
        assert [index for index, _ in result.failures] == at
        assert "not a physical state" in result.failures[0][1]
        assert "spectrum undefined" in result.failures[1][1]
        assert result == expected
        assert len(result.points) == len(good)


def _project_to_physical(sf):
    """Shrink both correlations until the state is physical again."""
    if sf.is_physical(1e-10):
        return sf
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        trial = StandardForm(sf.a, sf.b, sf.c_plus * mid, sf.c_minus * mid)
        if trial.is_physical(1e-10):
            lo = mid
        else:
            hi = mid
    return StandardForm(sf.a, sf.b, sf.c_plus * lo, sf.c_minus * lo)


class TestGmemmsLocalMaximality:
    def test_perturbations_stay_below_the_family_value(self, rng):
        checked = 0
        while checked < 25:
            s = rng.uniform(2.0, 8.0)
            d = rng.uniform(0.3, (s - 1.0) * 0.8)
            base = build_state(ExtremalParams(s, d, 2.0 * d + 1.0, 1.0))
            deltas = rng.uniform(-1e-4, 1e-4, size=4)
            perturbed = _project_to_physical(StandardForm(
                base.a * (1.0 + deltas[0]),
                base.b * (1.0 + deltas[1]),
                base.c_plus * (1.0 + deltas[2]),
                base.c_minus * (1.0 + deltas[3]),
            )).sign_ordered()
            nu = perturbed.spectrum().nu_tilde_minus
            if not 0.0 < nu < 1.0 - 1e-8:
                continue
            s_pert = 0.5 * (perturbed.a + perturbed.b)
            try:
                ceiling = m_opt_gmemms(s_pert, nu)
            except DomainError:
                continue
            checked += 1
            assert minimize_m(perturbed).m_opt <= ceiling + 1e-6
