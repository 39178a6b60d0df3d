import math

import numpy as np
import pytest

from twomode import (
    ExtremalParams,
    StandardForm,
    build_state,
    gamma_from_theta,
    gaussian_eof,
    eof_symmetric,
    m_from_nu_tilde,
    m_theta,
    minimize_m,
    nu_tilde_from_m,
)
from twomode.errors import DomainError, UnphysicalStateError

from conftest import draw_entangled_states

PURE_53 = StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3)
GMEMS_EX = ExtremalParams(2.0, 0.5, 2.5, 1.0)
GLEMS_EX = ExtremalParams(2.0, 0.5, 2.5, -1.0)
# a, b < 1: violates the uncertainty principle
UNPHYSICAL = StandardForm(0.8, 0.8, 0.1, -0.1)

THETAS = np.linspace(0.0, 2.0 * math.pi, 61)


class TestRimOracle:
    """The rim construction is the transcription-independent check on the
    closed-form angular profile."""

    def test_profile_matches_rim_pointwise(self, rng):
        for _, sf in draw_entangled_states(rng, 60):
            for theta in THETAS[::3]:
                gamma = gamma_from_theta(sf, float(theta))
                m_geom = gamma.single_mode_determinant()
                m_closed = m_theta(sf, float(theta))
                assert m_closed == pytest.approx(m_geom, rel=1e-9)

    def test_rim_saturates_both_cone_conditions(self, rng):
        for _, sf in draw_entangled_states(rng, 30):
            gamma_q = np.array([[sf.a, sf.c_plus], [sf.c_plus, sf.b]])
            gamma_p = np.array([[sf.a, sf.c_minus], [sf.c_minus, sf.b]])
            gp_inv = np.linalg.inv(gamma_p)
            scale = max(1.0, sf.a * sf.b)
            for theta in THETAS[::6]:
                g_mat = gamma_from_theta(sf, float(theta)).to_matrix()
                assert abs(np.linalg.det(gamma_q - g_mat)) <= 1e-8 * scale**2
                assert abs(np.linalg.det(g_mat - gp_inv)) <= 1e-8 * scale**2

    def test_pure_state_rim_is_position_block(self):
        for theta in (0.0, 1.0, math.pi):
            gamma = gamma_from_theta(PURE_53, theta)
            assert gamma.x0 == pytest.approx(5 / 3, rel=1e-9)
            assert gamma.x1 == pytest.approx(4 / 3, rel=1e-9)
            assert gamma.x3 == pytest.approx(0.0, abs=1e-9)

    def test_separable_state_has_no_rim(self):
        with pytest.raises(DomainError):
            gamma_from_theta(StandardForm(2.0, 2.0, 0.3, 0.2), 0.0)

    def test_unphysical_state_has_no_rim(self):
        with pytest.raises(UnphysicalStateError):
            gamma_from_theta(UNPHYSICAL, 0.0)

    def test_lightlike_apex_gap_raises(self):
        # on a GLEMS the cone apexes differ by a lightlike vector, so the rim
        # has zero radius without being the single point of a pure state
        sf = build_state(GLEMS_EX)
        with pytest.raises(DomainError, match="lightlike"):
            gamma_from_theta(sf, minimize_m(sf).theta_opt)

    def test_near_lightlike_apex_gap_matches_profile(self):
        sf = build_state(ExtremalParams(GLEMS_EX.s, GLEMS_EX.d, GLEMS_EX.g, -1.0 + 1e-6))
        for theta in THETAS[::6]:
            m_geom = gamma_from_theta(sf, float(theta)).single_mode_determinant()
            assert m_geom == pytest.approx(m_theta(sf, float(theta)), rel=1e-9)

    def test_gmems_optimum_has_x3_zero(self):
        sf = build_state(GMEMS_EX)
        gem = minimize_m(sf)
        gamma = gamma_from_theta(sf, gem.theta_opt)
        assert abs(gamma.x3) < 1e-6
        # the optimal rim point is a squeezed-state block: m = x0^2
        assert gem.m_opt == pytest.approx(gamma.x0**2, rel=1e-6)


class TestProfile:
    def test_symmetric_profile_ignores_sin(self, rng):
        # the sin(theta) coefficient carries a factor a^2 - b^2
        for a in rng.uniform(1.2, 5.0, size=8):
            c = 0.9 * math.sqrt(a * a - 1.0)
            sf = StandardForm(float(a), float(a), float(c), float(-c) * 0.95)
            if not sf.is_physical() or sf.spectrum().nu_tilde_minus >= 1.0 - 1e-6:
                continue
            for theta in THETAS[::5]:
                assert m_theta(sf, float(theta)) == pytest.approx(
                    m_theta(sf, -float(theta)), rel=1e-12
                )

    def test_profile_at_least_one(self, rng):
        for _, sf in draw_entangled_states(rng, 40):
            vals = m_theta(sf, np.linspace(0, 2 * math.pi, 720, endpoint=False))
            assert np.min(vals) >= 1.0 - 1e-12

    def test_glems_reduced_form_at_pi(self):
        sf = build_state(GLEMS_EX)
        dq = sf.a * sf.b - sf.c_minus**2
        coeff_a = sf.c_plus * dq + sf.c_minus
        coeff_b = sf.c_plus * dq - sf.c_minus
        g_sq = GLEMS_EX.g**2
        reduced = 1.0 + (coeff_b - coeff_a) ** 2 / (2.0 * dq * (-(g_sq - 1.0) + g_sq + 1.0))
        assert m_theta(sf, math.pi) == pytest.approx(reduced, rel=1e-12)
        assert reduced == pytest.approx(1.0551972518870598, rel=1e-12)

    def test_requires_sign_ordering(self):
        with pytest.raises(DomainError):
            m_theta(StandardForm(2.0, 1.5, 0.5, -1.2), 0.0)

    def test_requires_entangled(self):
        with pytest.raises(DomainError):
            m_theta(StandardForm(2.0, 2.0, 0.2, 0.1), 0.0)

    def test_requires_physical(self):
        with pytest.raises(UnphysicalStateError):
            m_theta(UNPHYSICAL, 0.0)

    def test_accepts_array_argument(self):
        sf = build_state(GMEMS_EX)
        grid = np.linspace(0, 2 * math.pi, 32)
        vals = m_theta(sf, grid)
        assert vals.shape == grid.shape
        assert vals[0] == pytest.approx(m_theta(sf, 0.0), rel=1e-14)


class TestMinimize:
    def test_pure_state_value(self):
        gem = minimize_m(PURE_53)
        assert gem.m_opt == pytest.approx(25 / 9, rel=1e-10)
        assert gem.nu_tilde_opt == pytest.approx(1 / 3, rel=1e-9)
        # general path: the rim collapses to a point and the profile is flat
        flat = minimize_m(PURE_53, symmetric_shortcut=False)
        assert flat.m_opt == pytest.approx(25 / 9, rel=1e-10)
        assert flat.theta_opt == 0.0
        assert flat.extrema_found == 1

    def test_gmems_example(self):
        # closed form: (5.75)^2 / 30.25
        gem = minimize_m(build_state(GMEMS_EX))
        assert gem.m_opt == pytest.approx(33.0625 / 30.25, rel=1e-10)

    def test_glems_example(self):
        gem = minimize_m(build_state(GLEMS_EX))
        assert gem.m_opt == pytest.approx(1.0551972518870598, rel=1e-10)

    def test_separable_short_circuits(self):
        gem = minimize_m(StandardForm(2.0, 2.0, 0.3, 0.2))
        assert gem.m_opt == 1.0
        assert gem.nu_tilde_opt == 1.0
        assert gem.gaussian_eof == 0.0

    def test_near_separable_returns_exactly_one(self):
        # squeezed thermal symmetric: nu_tilde_minus = a - c
        c = 1.0 + 1e-9
        sf = StandardForm(2.0, 2.0, c, -c)
        assert sf.spectrum().nu_tilde_minus == pytest.approx(1.0 - 1e-9, abs=1e-12)
        gem = minimize_m(sf)
        assert gem.m_opt == 1.0
        assert gem.gaussian_eof == 0.0

    def test_symmetric_reduction_matches_general_path(self, rng):
        worst = 0.0
        for a in rng.uniform(1.3, 8.0, size=25):
            c = rng.uniform(0.5, 0.98) * math.sqrt(a * a - 1.0)
            sf = StandardForm(float(a), float(a), float(c), float(-0.9 * c))
            if not sf.is_physical() or sf.spectrum().nu_tilde_minus >= 1.0 - 1e-6:
                continue
            nu = sf.spectrum().nu_tilde_minus
            closed = m_from_nu_tilde(nu)
            shortcut = minimize_m(sf)
            general = minimize_m(sf, symmetric_shortcut=False)
            assert shortcut.m_opt == pytest.approx(closed, rel=1e-12)
            assert general.m_opt == pytest.approx(closed, rel=1e-9)
            assert abs(general.nu_tilde_opt - nu) <= 1e-9
            # a = b makes the t^4 coefficient vanish: theta = pi is stationary
            assert general.extrema_found == 2
            worst = max(worst, abs(general.m_opt - closed) / closed)
        assert worst <= 1e-9

    def test_theta_opt_realizes_minimum(self, rng):
        for _, sf in draw_entangled_states(rng, 25):
            gem = minimize_m(sf)
            if sf.is_symmetric():
                continue
            assert m_theta(sf, gem.theta_opt) == pytest.approx(gem.m_opt, rel=1e-10)

    def test_never_above_dense_grid(self, rng):
        grid = np.linspace(0, 2 * math.pi, 7200, endpoint=False)
        for _, sf in draw_entangled_states(rng, 60):
            gem = minimize_m(sf)
            if sf.is_symmetric():
                continue
            assert gem.m_opt <= float(np.min(m_theta(sf, grid))) + 1e-9

    def test_eigenvalue_determinant_identity(self, rng):
        # m and the optimal eigenvalue determine each other exactly
        for _, sf in draw_entangled_states(rng, 30):
            gem = minimize_m(sf)
            assert gem.m_opt == pytest.approx(
                m_from_nu_tilde(gem.nu_tilde_opt), rel=1e-12
            )

    def test_extrema_count_in_claimed_range(self, rng):
        for _, sf in draw_entangled_states(rng, 60):
            gem = minimize_m(sf, symmetric_shortcut=False)
            assert 1 <= gem.extrema_found <= 4

    def test_entangled_minimum_exceeds_one(self, rng):
        for _, sf in draw_entangled_states(rng, 30):
            assert minimize_m(sf).m_opt > 1.0

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalStateError):
            minimize_m(UNPHYSICAL)


class TestGaussianEof:
    def test_separable_zero(self):
        assert gaussian_eof(StandardForm(2.0, 2.0, 0.3, 0.2)) == 0.0

    def test_partial_transpose_of_pure_state_raises(self):
        # PURE_53 with c_minus flipped has nu_minus = 1/3 and nu_tilde_minus = 3:
        # unphysical, not separable
        with pytest.raises(UnphysicalStateError):
            gaussian_eof(StandardForm(5 / 3, 5 / 3, 4 / 3, 4 / 3))

    def test_matches_symmetric_closed_form(self, rng):
        for a in rng.uniform(1.3, 6.0, size=10):
            c = rng.uniform(0.6, 0.98) * math.sqrt(a * a - 1.0)
            sf = StandardForm(float(a), float(a), float(c), float(-c))
            if sf.spectrum().nu_tilde_minus >= 1.0 - 1e-6:
                continue
            assert gaussian_eof(sf) == pytest.approx(eof_symmetric(sf), abs=1e-8)

    def test_pure_squeezed_value(self):
        assert gaussian_eof(PURE_53) == pytest.approx(1.0817041659455104, abs=1e-8)

    def test_natural_log_base(self):
        assert gaussian_eof(PURE_53, log_base="e") == pytest.approx(
            gaussian_eof(PURE_53) * math.log(2.0), rel=1e-9
        )


class TestConversions:
    def test_round_trip(self, rng):
        for m in rng.uniform(1.0 + 1e-9, 50.0, size=50):
            nu = nu_tilde_from_m(float(m))
            assert 0.0 < nu <= 1.0
            assert m_from_nu_tilde(nu) == pytest.approx(float(m), rel=1e-12)

    def test_boundary(self):
        assert nu_tilde_from_m(1.0) == 1.0
        assert m_from_nu_tilde(1.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            nu_tilde_from_m(0.99)
        with pytest.raises(DomainError):
            m_from_nu_tilde(0.0)
        with pytest.raises(DomainError):
            m_from_nu_tilde(1.5)
