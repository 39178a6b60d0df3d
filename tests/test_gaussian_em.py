import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from twomode.bounds import SamplerConfig, iter_samples
from twomode.errors import DomainError, MinimizationError, TwoModeError, UnphysicalStateError
from twomode import gaussian_em
from twomode.extremal import gmems_threshold
from twomode.gaussian_em import (
    NEAR_SEPARABLE_TOL,
    GemResult,
    _ARRAYS,
    _FLOATS,
    _block_angles,
    _sign_ordered,
    _stationary_angles,
    _ThetaProfile,
    minimize_block,
)

from conftest import draw_entangled_states

PURE_53 = StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3)
GMEMS_EX = ExtremalParams(2.0, 0.5, 2.5, 1.0)
GLEMS_EX = ExtremalParams(2.0, 0.5, 2.5, -1.0)
# a, b < 1: violates the uncertainty principle
UNPHYSICAL = StandardForm(0.8, 0.8, 0.1, -0.1)

THETAS = np.linspace(0.0, 2.0 * math.pi, 61)


def _general_path(sf):
    """``minimize_m`` with the symmetric closed form switched off, so that a
    symmetric form takes the general path too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaussian_em, "SYMMETRY_RTOL", -1.0)
        return minimize_m(sf)


def _profile(sf):
    return _ThetaProfile.of(sf.a, sf.b, sf.c_plus, sf.c_minus, _FLOATS)


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
        flat = _general_path(PURE_53)
        assert flat.m_opt == pytest.approx(25 / 9, rel=1e-10)
        # the quartic vanishes identically; theta = pi is the one candidate,
        # as in the symmetric closed result
        assert flat.theta_opt == math.pi
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

    @pytest.mark.parametrize("tol", [-0.5, -1e-12, math.nan])
    def test_negative_or_nan_near_separable_tol_is_rejected(self, tol):
        # a separable state that a negative band would push onto the rim
        with pytest.raises(DomainError, match="near_separable_tol"):
            minimize_m(StandardForm(2.0, 1.5, 0.3, 0.2), near_separable_tol=tol)

    def test_zero_near_separable_tol_is_accepted(self):
        assert minimize_m(StandardForm(2.0, 2.0, 0.3, 0.2), near_separable_tol=0.0).m_opt == 1.0

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
            general = _general_path(sf)
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
            gem = _general_path(sf)
            assert 1 <= gem.extrema_found <= 4

    def test_entangled_minimum_exceeds_one(self, rng):
        for _, sf in draw_entangled_states(rng, 30):
            assert minimize_m(sf).m_opt > 1.0

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalStateError):
            minimize_m(UNPHYSICAL)


def _root_cases(rng):
    """Random quartics over ten decades with some coefficients zeroed, then
    the degenerate ones: a dropped degree, roots at 0, a constant, zero."""
    for _ in range(2000):
        coeffs = rng.normal(size=5) * 10.0 ** rng.integers(-5, 6, size=5)
        coeffs[rng.random(5) < 0.3] = 0.0
        yield tuple(coeffs.tolist())
    yield from [
        (0.0, 2.0, 0.0, 3.0, 0.0),  # a = b general path of a GLEMS
        (0.0, 0.0, 1.5, -2.0, 0.5),
        (1.0, -3.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 7.0),
        (-0.0, 0.0, 4.0, 0.0, -0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0),  # a pure state's flat profile
    ]


def test_roots_match_np_roots(rng):
    # the companion-matrix branch and the np.roots branch alike
    for coeffs in _root_cases(rng):
        roots = np.roots(list(coeffs))
        angles, extrema = _stationary_angles(coeffs)
        # theta = pi follows the roots, and repeats up to five candidates
        np.testing.assert_array_equal(
            angles, np.append(2.0 * np.arctan(roots.real), [np.pi] * (5 - len(roots))),
            strict=True)
        distinct = len({r.real for r in roots.tolist() if r.imag == 0.0})
        assert extrema == distinct + int(coeffs[0] == 0.0)


def test_block_angles_match_stationary_angles(rng):
    # two quartics whose companion matrices have an exactly repeated real
    # eigenvalue, which the extrema count must count once
    rows = [*_root_cases(rng), (1.0, 6.5, 4.5, -20.0, 8.0), (1.0, 0.0, -0.5, 0.0, 0.0625)]
    angles, extrema = _block_angles(np.array(rows))
    for row, got, count in zip(rows, angles, extrema.tolist()):
        expected, expected_count = _stationary_angles(row)
        np.testing.assert_array_equal(got, expected, strict=True)
        assert count == expected_count


def _fields(gem):
    return (gem.m_opt.hex(), gem.theta_opt.hex(), gem.nu_tilde_opt.hex(),
            gem.gaussian_eof.hex(), gem.extrema_found)


def _outcomes(block):
    """Each row of a ``GemBlock``: its error, or its nu_tilde_minus and
    ``GemResult``."""
    rows = zip(*(column.tolist() for column in block[:6]))
    return [block.errors[i] if i in block.errors else (nu, GemResult(*fields))
            for i, (nu, *fields) in enumerate(rows)]


# c at which StandardForm(2, 2.5, c, -c) has nu_tilde_minus = 1 - 5e-9
NEAR_SEPARABLE_C = 1.2247448764946924
# a seed-11 sampler state whose c_minus**3 numpy's array power rounds one
# ulp away from Python's on AVX-512 hosts; the one profile builder cubes
# with Python's float power on both routes, and the row stays as a
# general-form input
CUBE_ROUNDING = StandardForm(23.224957903223615, 7.281572419936001,
                             12.722095110686082, -9.976006620644796)
BLOCK_ROWS = [
    StandardForm(3.0, 3.0, 2.5, -2.0),  # symmetric: closed form
    StandardForm(2.0, 1.5, 0.3, 0.2),  # separable
    StandardForm(2.0, 2.5, NEAR_SEPARABLE_C, -NEAR_SEPARABLE_C),  # near-separable cut
    StandardForm(5 / 3 * (1.0 + 1e-8), 5 / 3, 4 / 3, -4 / 3),  # pure within 1e-8: zero quartic
    build_state(GLEMS_EX),  # minimum uncertainty: zero leading coefficient
    CUBE_ROUNDING,
    UNPHYSICAL,
]


def test_block_rows_take_the_branches_they_name():
    symmetric, separable, near_separable, pure, glems, cube, unphysical = BLOCK_ROWS
    assert symmetric.is_symmetric() and symmetric.spectrum().nu_tilde_minus < 0.9
    assert separable.spectrum().nu_tilde_minus > 1.0
    assert 1.0 - NEAR_SEPARABLE_TOL <= near_separable.spectrum().nu_tilde_minus < 1.0
    for sf in (pure, glems, cube):
        assert sf.is_physical() and not sf.is_symmetric()
    assert not any(_profile(pure.sign_ordered()).quartic())
    lead, *_, trail = _profile(glems.sign_ordered()).quartic()
    assert lead == 0.0 and trail == 0.0
    assert all(_profile(cube).quartic())
    assert not unphysical.is_physical()


@pytest.mark.parametrize("s_max,count,seed,mode", [
    *((s_max, count, seed, mode)
      for s_max, count in [(1.5, 300), (20.0, 300), (200.0, 60)] for seed in (1, 2)
      for mode in ("extremal_params", "raw_standard_form")),
    # large entries, where the routes' rounding would differ first; raw mode
    # runs out of sampler retries at this s_max
    *((1e5, 60, seed, "extremal_params") for seed in (1, 2)),
])
def test_block_matches_minimize_m_bit_for_bit(s_max, count, seed, mode):
    forms = [s.standard_form for s in iter_samples(SamplerConfig(seed, count, s_max, mode))]
    forms[count // 2:count // 2] = BLOCK_ROWS
    log_base = 2 if seed == 1 else "e"
    for sf, outcome in zip(forms, _outcomes(minimize_block(forms, log_base))):
        try:
            expected = minimize_m(sf, log_base=log_base)
        except TwoModeError as exc:
            assert (type(outcome), str(outcome)) == (type(exc), str(exc))
            continue
        nu_sigma, gem = outcome
        assert nu_sigma.hex() == sf.spectrum().nu_tilde_minus.hex()
        assert _fields(gem) == _fields(expected)


def test_lone_general_form_takes_the_per_form_route():
    # one general form among closed-form and failing rows: the block's one
    # route gives it minimize_m's bits
    symmetric, separable, *_, cube, unphysical = BLOCK_ROWS
    outcomes = _outcomes(minimize_block([symmetric, cube, separable, unphysical]))
    nu_sigma, gem = outcomes[1]
    assert nu_sigma == cube.spectrum().nu_tilde_minus
    assert _fields(gem) == _fields(minimize_m(cube))
    assert isinstance(outcomes[3], UnphysicalStateError)


@pytest.mark.parametrize("sf,message", [
    (UNPHYSICAL, "not a physical state"),
    # Det sigma < 0: the spectrum fails before the physicality check
    (StandardForm(1.0, 1.0, 2.0, 0.0), "spectrum undefined"),
])
def test_block_of_one_failing_form(sf, message):
    [outcome] = _outcomes(minimize_block([sf]))
    assert type(outcome) is UnphysicalStateError
    assert message in str(outcome)
    with pytest.raises(UnphysicalStateError, match=message):
        minimize_m(sf)


def test_non_finite_row_gets_the_per_form_outcome(monkeypatch):
    # the cube row's candidate angles turn NaN on both routes: its profile
    # is not finite there, and both raise the same MinimizationError
    forms = [BLOCK_ROWS[5], build_state(GMEMS_EX)]
    expected = minimize_m(forms[1])
    block_angles, stationary_angles = gaussian_em._block_angles, gaussian_em._stationary_angles

    def poisoned_block(quartics):
        angles, extrema = block_angles(quartics)
        angles[0] = np.nan
        return angles, extrema

    def poisoned_one(quartic):
        angles, extrema = stationary_angles(quartic)
        return np.full_like(angles, np.nan), extrema

    monkeypatch.setattr(gaussian_em, "_block_angles", poisoned_block)
    monkeypatch.setattr(gaussian_em, "_stationary_angles", poisoned_one)
    failed, (_, gem) = _outcomes(minimize_block(forms))
    with pytest.raises(MinimizationError) as raised:
        minimize_m(forms[0])
    assert (type(failed), str(failed)) == (MinimizationError, str(raised.value))
    assert _fields(gem) == _fields(expected)


def _comparable(outcome):
    if isinstance(outcome, TwoModeError):
        return type(outcome), str(outcome)
    return repr(outcome)


def _spectrum_nu(sf):
    try:
        return sf.spectrum().nu_tilde_minus
    except TwoModeError:
        return None


NO_SPECTRUM = StandardForm(1.0, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("convert", [list, tuple, np.array])
def test_block_reads_nu_sigmas_from_any_sequence(convert):
    forms = [*BLOCK_ROWS, NO_SPECTRUM]
    expected = [_comparable(outcome) for outcome in _outcomes(minimize_block(forms))]
    nus = [_spectrum_nu(sf) for sf in forms]
    for nu_sigmas in (nus, [None] * len(forms), [math.nan if nu is None else nu for nu in nus]):
        got = _outcomes(minimize_block(forms, nu_sigmas=convert(nu_sigmas)))
        assert [_comparable(outcome) for outcome in got] == expected


@pytest.mark.parametrize("size", [0, 2, 4])
def test_nu_sigmas_of_another_length_raise(size):
    with pytest.raises(DomainError, match="nu_sigmas"):
        minimize_block(BLOCK_ROWS[:3], nu_sigmas=[0.5] * size)


# nu_tilde_minus of StandardForm(2, 2.5, c, -c) at these adjacent doubles c
# lies just above and just below 1 - NEAR_SEPARABLE_TOL
NEAR_CUT = (1.2247448815977962, 1.2247448815977964)
# |3 - b| <= SYMMETRY_RTOL * b holds at the first of these adjacent doubles b
SYMMETRY_EDGE = (3.000000003, 3.0000000030000002)


def _reordered(sf, order, swap):
    """An equivalent form: its correlations as they are, as (-c_minus,
    -c_plus) (c_plus < |c_minus|) or negated (c_plus < 0), and the modes
    swapped or not."""
    a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
    cp, cm = [(cp, cm), (-cm, -cp), (-cp, -cm)][order]
    return StandardForm(b, a, cp, cm) if swap else StandardForm(a, b, cp, cm)


@st.composite
def _forms(draw):
    """Extremal forms over 1 < s <= 1e5 (GLEMS and GMEMS included), or raw
    entries, most of them unphysical; under a random equivalent ordering."""
    if draw(st.booleans()):
        s = draw(st.floats(1.0 + 1e-6, 1e5))
        d = draw(st.floats(-1.0, 1.0)) * (s - 1.0)
        g_lo = 2.0 * abs(d) + 1.0
        g = g_lo + draw(st.floats(0.0, 1.0)) * (gmems_threshold(s) - g_lo)
        lam = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0))
        try:
            sf = build_state(ExtremalParams(s, d, g, lam))
        except DomainError:
            sf = StandardForm(s + d, s - d, 0.0, 0.0)
    else:
        entry = st.floats(-50.0, 50.0)
        sf = StandardForm(draw(st.floats(0.5, 50.0)), draw(st.floats(0.5, 50.0)),
                          draw(entry), draw(entry))
    return _reordered(sf, draw(st.integers(0, 2)), draw(st.booleans()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(forms=st.lists(_forms(), min_size=1, max_size=8), log_base=st.sampled_from([2, "e"]),
       pass_nu=st.booleans())
@example(forms=[StandardForm(2.0, 2.5, c, -c) for c in NEAR_CUT], log_base=2, pass_nu=True)
@example(forms=[StandardForm(3.0, b, 2.5, -2.0) for b in SYMMETRY_EDGE], log_base=2, pass_nu=False)
@example(forms=[BLOCK_ROWS[3]], log_base=2, pass_nu=False)  # pure: degenerate rim
@example(forms=[build_state(GLEMS_EX)], log_base="e", pass_nu=False)  # zero leading coefficient
# minimum uncertainty: a slack of -3.9e-10 is zeroed
@example(forms=[build_state(ExtremalParams(40.0, 3.0, 31.859301824974466, -1.0))], log_base=2,
         pass_nu=True)
@example(forms=[_reordered(CUBE_ROUNDING, order, False) for order in (1, 2)], log_base=2,
         pass_nu=False)  # c_plus < |c_minus|, then c_plus < 0
@example(forms=[UNPHYSICAL, NO_SPECTRUM], log_base=2, pass_nu=True)
# spectrum() raises on the pair of sigma itself, not of its partial transpose
@example(forms=[StandardForm(11034.0, 11034.0, 11033.999954679055, -11033.999954671983)],
         log_base=2, pass_nu=False)
@example(forms=[build_state(ExtremalParams(9.9e4, 1234.5, 71244.01366877697, 0.3))],
         log_base=2, pass_nu=False)  # s near 1e5
def test_block_rows_equal_minimize_m(forms, log_base, pass_nu):
    nu_sigmas = [_spectrum_nu(sf) for sf in forms] if pass_nu else None
    block = _outcomes(minimize_block(forms, log_base, nu_sigmas=nu_sigmas))
    for sf, outcome in zip(forms, block):
        try:
            expected = minimize_m(sf, log_base=log_base)
        except TwoModeError as exc:
            assert _comparable(outcome) == _comparable(exc)
            continue
        nu_sigma, gem = outcome
        assert nu_sigma.hex() == sf.spectrum().nu_tilde_minus.hex()
        assert repr(gem) == repr(expected)


@settings(max_examples=100, deadline=None)
@given(forms=st.lists(_forms(), min_size=1, max_size=8))
@example(forms=[StandardForm(2.0, 2.0, 0.0, -0.0), StandardForm(2.0, 2.0, -0.0, 0.0),
                StandardForm(2.0, 2.0, 0.5, -0.5), StandardForm(2.0, 2.0, -0.5, 0.5)])
def test_sign_ordering_equals_the_form_method(forms):
    expected = [(sf.sign_ordered().c_plus, sf.sign_ordered().c_minus) for sf in forms]
    floats = [_sign_ordered(sf.c_plus, sf.c_minus, _FLOATS) for sf in forms]
    columns = _sign_ordered(*(np.array([getattr(sf, name) for sf in forms])
                              for name in ("c_plus", "c_minus")), _ARRAYS)
    assert repr(floats) == repr(expected)
    assert repr(list(zip(*(c.tolist() for c in columns)))) == repr(expected)


def test_row_the_mask_fails_takes_minimize_m_route(monkeypatch):
    # a gate mask that fails good rows: their replay is their whole outcome
    forms = [build_state(GMEMS_EX), CUBE_ROUNDING, StandardForm(3.0, 3.0, 2.5, -2.0)]
    expected = [repr((sf.spectrum().nu_tilde_minus, minimize_m(sf))) for sf in forms]
    gate = gaussian_em._gate

    def failing(a, b, cp, cm, nu, near_separable_tol, xp):
        passes, separable, symmetric = gate(a, b, cp, cm, nu, near_separable_tol, xp)
        return (passes if xp is _FLOATS else passes & False), separable, symmetric

    monkeypatch.setattr(gaussian_em, "_gate", failing)
    assert [repr(outcome) for outcome in _outcomes(minimize_block(forms))] == expected


@pytest.mark.parametrize("call", [
    lambda: minimize_m(StandardForm(2.0, 1.5, 0.3, 0.2), log_base=10),
    lambda: minimize_block([build_state(GMEMS_EX)], log_base=10),
])
def test_bad_log_base_raises_at_entry(call):
    # the separable form never reaches h_function
    with pytest.raises(DomainError, match="log_base"):
        call()


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
