import math

import numpy as np
import pytest

from twomode import (
    ExtremalParams,
    Regime,
    build_state,
    entanglement_threshold,
    glems_threshold,
    gmems_threshold,
    is_separable_ppt,
    m_from_nu_tilde,
    m_max,
    m_opt_glems,
    m_opt_gmemms,
    m_opt_gmems,
    minimize_m,
    nu_tilde_glems,
    nu_tilde_gmems,
    ordering_compare,
    scan_ordering_slice,
)
from twomode.errors import DomainError

from conftest import draw_params


class TestBuildState:
    def test_pure_symmetric(self):
        # g = 1 forces purity, which forces c = +-sqrt(s^2 - 1)
        for lam in (-1.0, 0.0, 1.0):
            sf = build_state(ExtremalParams(2.0, 0.0, 1.0, lam))
            assert (sf.a, sf.b) == (2.0, 2.0)
            assert sf.c_plus == pytest.approx(math.sqrt(3.0), rel=1e-9)
            assert sf.c_minus == pytest.approx(-math.sqrt(3.0), rel=1e-9)

    def test_gmemms_closed_correlations(self, rng):
        # g = 2|d| + 1: correlations +-sqrt(s^2 - (|d| + 1)^2) for every lambda
        for _ in range(25):
            s = rng.uniform(1.5, 10.0)
            d = rng.uniform(-(s - 1.0), s - 1.0)
            expected = math.sqrt(s * s - (abs(d) + 1.0) ** 2)
            for lam in (-1.0, rng.uniform(-1, 1), 1.0):
                sf = build_state(ExtremalParams(s, d, 2.0 * abs(d) + 1.0, lam))
                assert sf.c_plus == pytest.approx(expected, rel=1e-7, abs=1e-9)
                assert sf.c_minus == pytest.approx(-expected, rel=1e-7, abs=1e-9)

    def test_purity_round_trip(self, rng):
        for p in draw_params(rng, 60):
            sf = build_state(p)
            inv = sf.invariants()
            assert 1.0 / math.sqrt(inv.det_sigma) == pytest.approx(1.0 / p.g, rel=1e-9)
            assert 1.0 / sf.a == pytest.approx(1.0 / (p.s + p.d), rel=1e-12)
            assert 1.0 / sf.b == pytest.approx(1.0 / (p.s - p.d), rel=1e-12)
            assert sf.is_physical(1e-8)

    def test_glems_partial_minimum_uncertainty(self, rng):
        for p in draw_params(rng, 40, lam=-1.0, family_window="glems"):
            assert build_state(p).spectrum().nu_minus == pytest.approx(1.0, abs=1e-9)

    def test_gmems_is_thermal_squeezed(self, rng):
        # lambda = +1 gives c_pm = +-sqrt(s^2 - d^2 - g)
        for p in draw_params(rng, 20, lam=1.0):
            sf = build_state(p)
            expected = math.sqrt(p.s**2 - p.d**2 - p.g)
            assert sf.c_plus == pytest.approx(expected, rel=1e-9)
            assert sf.c_minus == pytest.approx(-expected, rel=1e-9)

    def test_constraint_violations_name_the_inequality(self):
        with pytest.raises(DomainError, match="s >= 1"):
            build_state(ExtremalParams(0.8, 0.0, 1.0, 0.0))
        with pytest.raises(DomainError, match=r"\|d\| <= s - 1"):
            build_state(ExtremalParams(2.0, 1.5, 4.0, 0.0))
        with pytest.raises(DomainError, match=r"g >= 2\|d\| \+ 1"):
            build_state(ExtremalParams(2.0, 0.5, 1.5, 0.0))
        with pytest.raises(DomainError, match="lambda"):
            build_state(ExtremalParams(2.0, 0.5, 2.5, 1.5))

    def test_fischer_bound(self):
        with pytest.raises(DomainError, match=r"g <= s\^2 - d\^2"):
            build_state(ExtremalParams(3.0, 2.0, 5.02, 1.0))

    def test_out_of_domain_square_root(self):
        # deep in the separable region the lambda = -1 branch leaves the reals
        with pytest.raises(DomainError, match="square-root argument"):
            build_state(ExtremalParams(2.0, 0.0, 4.0, -1.0))


def _below_threshold(p):
    """The sampler's verdict: g below ``entanglement_threshold``."""
    return bool(p.g < entanglement_threshold(p.s, p.d, p.lam))


def _ppt_entangled(p):
    """The PPT verdict on the state that ``build_state`` makes."""
    return not is_separable_ppt(build_state(p).spectrum(), 0.0)


class TestClassification:
    # g < entanglement_threshold(s, d, lambda) holds exactly where the PPT
    # test finds the built state entangled

    def test_gmems_threshold_examples(self):
        for g, entangled in ((2.99, True), (3.0, False)):
            p = ExtremalParams(2, 0.5, g, 1.0)
            assert _below_threshold(p) is _ppt_entangled(p) is entangled

    def test_glems_threshold_examples(self):
        # threshold sqrt(2 (s^2 + d^2) - 1) = sqrt(7.5)
        assert glems_threshold(2.0, 0.5) == pytest.approx(math.sqrt(7.5), rel=1e-15)
        for g, entangled in ((2.7, True), (2.75, False)):
            p = ExtremalParams(2, 0.5, g, -1.0)
            assert _below_threshold(p) is _ppt_entangled(p) is entangled

    def test_entanglement_threshold_at_lambda_pm1_is_the_family_threshold(self, rng):
        # within 2 ulp of gmems_threshold at lambda = +1 and of
        # glems_threshold at lambda = -1, over the sampler's range of s
        s = 1.0 + (1e6 - 1.0) * rng.random(20000) ** 4
        d = (2.0 * rng.random(s.size) - 1.0) * (s - 1.0)
        for lam, want in ((1.0, gmems_threshold(s)), (-1.0, glems_threshold(s, d))):
            got = entanglement_threshold(s, d, np.full(s.size, lam))
            assert (np.abs(got - want) <= 2.0 * np.spacing(want)).all()

    def test_classification_changes_across_the_entanglement_threshold(self, rng):
        checked = 0
        for _ in range(200):
            s = rng.uniform(1.0, 20.0)
            d = rng.uniform(-(s - 1.0), s - 1.0)
            lam = rng.uniform(-1.0, 1.0)
            g_ent = float(entanglement_threshold(s, d, lam))
            below, above = g_ent * (1.0 - 1e-9), g_ent * (1.0 + 1e-9)
            if below <= 2.0 * abs(d) + 1.0:
                continue
            assert _ppt_entangled(ExtremalParams(s, d, below, lam))
            assert not _ppt_entangled(ExtremalParams(s, d, above, lam))
            checked += 1
        assert checked >= 190

    def test_gmemms_always_entangled_above_marginal_floor(self, rng):
        for _ in range(15):
            s = rng.uniform(1.5, 10.0)
            d = rng.uniform(-(s - 1.0) * 0.9, (s - 1.0) * 0.9)
            if s <= abs(d) + 1.0 + 1e-6:
                continue
            p = ExtremalParams(s, d, 2.0 * abs(d) + 1.0, rng.uniform(-1, 1))
            assert _below_threshold(p) and _ppt_entangled(p)

    def test_separable_where_the_parametrization_has_no_state(self):
        # g >= 2s - 1: every state with these purities is separable, though
        # build_state has no real correlations at lambda = 0
        p = ExtremalParams(2.0, 0.5, 3.5, 0.0)
        assert not _below_threshold(p)
        with pytest.raises(DomainError, match="square-root argument"):
            build_state(p)

    def test_agrees_with_ppt_for_generic_lambda(self, rng):
        for p in draw_params(rng, 40):
            try:
                sf = build_state(p)
            except DomainError:
                continue
            assert _below_threshold(p) is (not is_separable_ppt(sf.spectrum(), 0.0))

    def test_lambda_interpolates_between_extremes(self, rng):
        # at fixed purities the PT eigenvalue is largest for the minimal-
        # negativity family and smallest for the maximal one
        for p in draw_params(rng, 15, lam=-1.0, family_window="glems"):
            nus = []
            for lam in (-1.0, -0.5, 0.0, 0.5, 1.0):
                nus.append(build_state(ExtremalParams(p.s, p.d, p.g, lam)).spectrum().nu_tilde_minus)
            assert nus[0] == max(nus)
            assert nus[-1] == min(nus)
            assert nus[0] == pytest.approx(nu_tilde_glems(p.s, p.d, p.g), rel=1e-10)
            assert nus[-1] == pytest.approx(nu_tilde_gmems(p.s, p.d, p.g), rel=1e-10)


class TestClosedForms:
    def test_gmems_separable_branch(self):
        assert m_opt_gmems(s=2.0, d=0.5, g=3.0) == 1.0
        assert m_opt_gmems(s=2.0, d=0.5, g=3.5) == 1.0
        # g = 5 exceeds Det alpha Det beta = s^2 - d^2 = 3.75: no such state
        with pytest.raises(DomainError, match=r"s\^2 - d\^2"):
            m_opt_gmems(s=2.0, d=0.5, g=5.0)

    def test_gmems_example_value(self):
        # {(g+1)s - sqrt([(g-1)^2 - 4d^2](s^2 - d^2 - g))}^2 / [4 (d^2+g)^2]
        assert m_opt_gmems(s=2.0, d=0.5, g=2.5) == pytest.approx(33.0625 / 30.25, rel=1e-14)

    def test_gmems_pure_limit(self):
        assert m_opt_gmems(s=3.0, d=0.0, g=1.0) == pytest.approx(9.0, rel=1e-12)

    def test_glems_example_value(self):
        assert m_opt_glems(s=2.0, d=0.5, g=2.5) == pytest.approx(1.0551972518870598, rel=1e-12)

    @pytest.mark.parametrize("s, d, g, expected", [
        # near purity the interior critical angle does not exist: theta = pi
        (1.0025301635315529, -0.00010030450384570479, 1.0002006098513516, 1.0048650922092446),
        (1.0014492656008336, -0.00012119474409994249, 1.000242389757813, 1.002657564295668),
        # on the GMEMMS edge g = 2|d| + 1 the interior angle is the optimum
        (3.090452261306533, 1.9095477386934674, 4.819095477386934, 1.1282182072001938),
    ])
    def test_glems_branch_matches_exact_values(self, s, d, g, expected):
        # 50-digit values of the closed form, not minimize_m, which is itself
        # 3.9e-8 off at the first point
        assert m_opt_glems(s=s, d=d, g=g) == pytest.approx(expected, rel=1e-12)

    def test_glems_separable_branch_and_continuity(self):
        g_star = glems_threshold(2.0, 0.5)
        assert m_opt_glems(s=2.0, d=0.5, g=g_star) == 1.0
        assert m_opt_glems(s=2.0, d=0.5, g=g_star - 1e-7) == pytest.approx(1.0, abs=1e-6)

    def test_glems_symmetric_matches_eigenvalue_form(self, rng):
        for _ in range(15):
            s = rng.uniform(1.2, 8.0)
            g = rng.uniform(1.0, glems_threshold(s, 0.0) - 1e-6)
            nu = nu_tilde_glems(s, 0.0, g)
            assert m_opt_glems(s=s, d=0.0, g=g) == pytest.approx(m_from_nu_tilde(nu), rel=1e-9)

    def test_closed_forms_match_minimizer(self, rng):
        for p in draw_params(rng, 150, lam=1.0):
            closed = m_opt_gmems(s=p.s, d=p.d, g=p.g)
            gem = minimize_m(build_state(p))
            assert closed == pytest.approx(gem.m_opt, rel=1e-8)
        for p in draw_params(rng, 150, lam=-1.0, family_window="glems"):
            closed = m_opt_glems(s=p.s, d=p.d, g=p.g)
            gem = minimize_m(build_state(p))
            assert closed == pytest.approx(gem.m_opt, rel=1e-8)

    def test_closed_forms_respect_universal_sandwich(self, rng):
        for p in draw_params(rng, 60, lam=1.0):
            nu = nu_tilde_gmems(p.s, p.d, p.g)
            if not nu < 1.0:
                continue
            m = m_opt_gmems(s=p.s, d=p.d, g=p.g)
            assert m_from_nu_tilde(nu) * (1 - 1e-9) <= m <= m_max(nu) * (1 + 1e-9)
        for p in draw_params(rng, 60, lam=-1.0, family_window="glems"):
            nu = nu_tilde_glems(p.s, p.d, p.g)
            if not nu < 1.0:
                continue
            m = m_opt_glems(s=p.s, d=p.d, g=p.g)
            assert m_from_nu_tilde(nu) * (1 - 1e-9) <= m <= m_max(nu) * (1 + 1e-9)


class TestNuTilde:
    def test_glems_has_no_state_above_2s_minus_1(self):
        # g = 7.2 > 2s - 1 = 7, inside the (s, d, g) domain (s^2 - d^2 = 7.59)
        assert math.isnan(nu_tilde_glems(4.0, 2.9, 7.2))

    def test_separable_glems_below_2s_minus_1_is_finite(self):
        # g between the GLEMS threshold sqrt(7.5) and 2s - 1 = 3
        nu = nu_tilde_glems(2.0, 0.5, 2.9)
        assert math.isfinite(nu) and nu >= 1.0

    @pytest.mark.parametrize("nu_tilde", [nu_tilde_gmems, nu_tilde_glems])
    @pytest.mark.parametrize("point, message", [
        ((2.0, 1.5, 2.5), r"\|d\| <= s - 1"),  # no state, though both had a value
        ((0.5, 0.0, 1.0), "s >= 1"),  # one raised UnphysicalStateError, one gave NaN
        ((math.inf, 0.5, 2.5), "must be finite"),
        ((math.nan, 0.5, 2.5), "s >= 1"),  # NaN fails the first constraint
    ])
    def test_out_of_domain_is_rejected(self, nu_tilde, point, message):
        with pytest.raises(DomainError, match=message):
            nu_tilde(*point)


class TestGmemms:
    def test_pure_symmetric_case(self):
        # s at the |d| = 0 floor reduces to a pure state: m = ((nu + 1/nu)/2)^2
        assert m_opt_gmemms(1.25, 0.5) == pytest.approx(1.5625, rel=1e-14)
        assert m_opt_gmemms(1.25, 0.5) == pytest.approx(m_from_nu_tilde(0.5), rel=1e-12)

    def test_increasing_in_s(self):
        values = [m_opt_gmemms(s, 0.5) for s in (1.25, 2.0, 5.0, 20.0, 100.0)]
        assert values == sorted(values)
        assert values[-1] < m_max(0.5)

    def test_large_s_limit(self):
        assert m_max(0.5) == pytest.approx(4.0, rel=1e-15)
        assert m_opt_gmemms(1e8, 0.5) == pytest.approx(4.0, rel=1e-6)

    def test_matches_built_state(self, rng):
        # the g = 2|d| + 1 state with matching marginals realizes the value
        for _ in range(15):
            nu = rng.uniform(0.15, 0.95)
            s = rng.uniform((1 + nu * nu) / (2 * nu) + 0.05, 12.0)
            d = (2.0 * nu * s - nu * nu - 1.0) / 2.0
            p = ExtremalParams(s, d, 2.0 * d + 1.0, 1.0)
            sf = build_state(p)
            assert sf.spectrum().nu_tilde_minus == pytest.approx(nu, rel=1e-9)
            assert minimize_m(sf).m_opt == pytest.approx(m_opt_gmemms(s, nu), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_opt_gmemms(10.0, 1.0)
        with pytest.raises(DomainError):
            m_opt_gmemms(1.0, 0.5)
        with pytest.raises(DomainError):
            m_max(1.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_is_rejected(self, s):
        with pytest.raises(DomainError, match="s must be finite"):
            m_opt_gmemms(s, 0.5)


class TestOrdering:
    def test_preserved_example(self):
        verdict = ordering_compare(2.0, 0.5, 2.5)
        assert verdict.regime is Regime.ORDERING_PRESERVED
        assert verdict.m_gmems == pytest.approx(1.0929752066115703, rel=1e-12)
        assert verdict.m_glems == pytest.approx(1.0551972518870598, rel=1e-12)

    def test_coexistence_example(self):
        verdict = ordering_compare(2.0, 0.5, 2.74)
        assert verdict.regime is Regime.COEXISTENCE
        assert verdict.m_glems == 1.0
        assert verdict.m_gmems > 1.0

    def test_both_separable(self):
        assert ordering_compare(2.0, 0.5, 3.2).regime is Regime.BOTH_SEPARABLE

    def test_unphysical(self):
        assert ordering_compare(2.0, 0.5, 1.5).regime is Regime.UNPHYSICAL

    @pytest.mark.parametrize("point", [
        (math.inf, 0.5, 2.5),  # meets the four constraints; was inverted with NaN m
        (1e200, 0.5, math.inf),  # g <= s^2 - d^2 = inf; was both separable
    ])
    def test_non_finite_points_are_unphysical(self, point):
        verdict = ordering_compare(*point)
        assert verdict.regime is Regime.UNPHYSICAL
        assert math.isnan(verdict.m_gmems) and math.isnan(verdict.m_glems)

    def test_inversion_exists_at_fixed_a_five(self):
        cells, _ = scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 60)
        regimes = {c.regime for c in cells}
        assert Regime.ORDERING_INVERTED in regimes
        assert regimes >= {
            Regime.UNPHYSICAL, Regime.BOTH_SEPARABLE, Regime.COEXISTENCE,
            Regime.ORDERING_PRESERVED, Regime.ORDERING_INVERTED,
        }

    def test_scan_cell_labels(self):
        cells, _ = scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 24)
        for c in cells:
            fischer = (c.s - c.d) * (c.s + c.d)
            if c.g < 2.0 * abs(c.d) + 1.0 - 1e-9 or c.g > fischer + 1e-9:
                assert c.regime is Regime.UNPHYSICAL
            elif c.g >= gmems_threshold(c.s):
                assert c.regime is Regime.BOTH_SEPARABLE
            if c.regime is Regime.BOTH_SEPARABLE:
                assert gmems_threshold(c.s) <= c.g <= fischer + 1e-12

    def test_states_beyond_the_fischer_bound_are_unphysical(self):
        # Det sigma <= Det alpha Det beta: g <= s^2 - d^2 = 5 here
        verdict = ordering_compare(3.0, 2.0, 5.02)
        assert verdict.regime is Regime.UNPHYSICAL
        assert math.isnan(verdict.m_gmems) and math.isnan(verdict.m_glems)

    def test_boundary_points_have_tiny_gap(self):
        _, boundary = scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 40)
        assert boundary
        for p in boundary:
            gap = m_opt_gmems(s=p.s, d=p.d, g=p.g) - m_opt_glems(s=p.s, d=p.d, g=p.g)
            assert abs(gap) < 1e-5
