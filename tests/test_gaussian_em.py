import json
import math
from collections import namedtuple
from fractions import Fraction

import mpmath
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
from twomode.errors import (
    DomainError, MalformedInputError, MinimizationError, TwoModeError, UnphysicalStateError,
)
from twomode import cli, gaussian_em, symplectic
from twomode.extremal import gmems_threshold
from twomode.symplectic import _ARRAYS, _invariants, _sign_ordered
from twomode.gaussian_em import (
    NEAR_SEPARABLE_TOL,
    GammaCoordinates,
    _FLOATS,
    _stationary_points,
    _ThetaProfile,
    minimize_columns,
)

from conftest import SIGMA_PAIR_UNDEFINED, draw_entangled_states

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
    form = sf.a, sf.b, sf.c_plus, sf.c_minus
    return _ThetaProfile.of(*form, _invariants(*form), _FLOATS)


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

    def test_rational_evaluation_matches_trigonometry(self, rng):
        # the minimizer's m at t = tan(theta/2), or at u = 1/t, against the
        # profile's own trigonometric evaluation
        for _, sf in draw_entangled_states(rng, 30):
            profile = _profile(sf)
            for theta in THETAS[1:-1:3]:
                t = math.tan(theta / 2.0)
                assert profile.at(t) == pytest.approx(profile(theta), rel=1e-12)
                assert profile.flipped(True, _FLOATS).at(1.0 / t) == pytest.approx(
                    profile(theta), rel=1e-12)
            assert profile.flipped(True, _FLOATS).at(0.0) == pytest.approx(
                profile(math.pi), rel=1e-12)

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


# A general form's quartic at seed 42, s_max 20, with one root near
# theta = pi (t = -1.45e-4 against a t^4 coefficient of 24): a monic
# quartic in t loses it, so the root step solves it in u = 1/t.
NEAR_PI_QUARTIC = (24.32192234875822, -645083.6802913728, -3780.2073552279676,
                   -8841038.455310741, -1284.3910407580806)
# Quartics with exactly repeated real roots, (t - 1)(t - 1/2)(t + 4)^2 and
# (t^2 - 1/4)^2, and their real roots: np.roots splits the double root 1/2
# of the second into a complex pair.
REPEATED_ROOTS = {(1.0, 6.5, 4.5, -20.0, 8.0): [-4.0, 0.5, 1.0],
                  (1.0, 0.0, -0.5, 0.0, 0.0625): [-0.5, 0.5]}


def _real_roots(coeffs):
    """The distinct finite real roots t that the root step finds in the
    quartic, and its extrema count."""
    flip, points, extrema = _stationary_points(coeffs, _FLOATS)
    return sorted({1.0 / x if flip else x for x, real in points
                   if real and not (flip and x == 0.0)}), extrema


def _backward_error(coeffs, t):
    """|p(t)| / sum |c_k t^k|, exactly: how far t is from a root of a
    quartic whose coefficients are within that relative distance."""
    terms = [Fraction(c) * Fraction(t) ** k for k, c in enumerate(reversed(coeffs))]
    return abs(sum(terms)) / sum(abs(term) for term in terms)


def test_root_step_matches_np_roots(rng):
    for coeffs in [*_root_cases(rng), NEAR_PI_QUARTIC, *REPEATED_ROOTS]:
        roots = np.roots(list(coeffs))
        expected = REPEATED_ROOTS.get(coeffs) or sorted(
            {r.real for r in roots.tolist() if r.imag == 0.0})
        got, extrema = _real_roots(coeffs)
        # theta = pi is stationary where the t^4 coefficient vanishes
        assert extrema == len(expected) + int(coeffs[0] == 0.0), coeffs
        assert len(got) == len(expected), coeffs
        for t, reference in zip(got, expected):
            if abs(t - reference) <= 1e-12 * abs(reference):
                continue
            # np.roots loses accuracy on ill-conditioned roots, and the root
            # step's root is then the better one
            assert _backward_error(coeffs, t) <= min(1e-15, _backward_error(coeffs, reference))


def test_root_step_keeps_the_root_near_pi():
    # a naive monic quartic in t returns 55.64 here
    got, _ = _real_roots(NEAR_PI_QUARTIC)
    assert -1.4527604704507705e-4 in [pytest.approx(t, rel=1e-12) for t in got]


def test_root_step_gives_equal_bits_on_floats_and_columns(rng):
    rows = [*_root_cases(rng), NEAR_PI_QUARTIC, *REPEATED_ROOTS]
    flips, points, extrema = _stationary_points(tuple(np.array(rows).T), _ARRAYS)
    for k, coeffs in enumerate(rows):
        flip, row_points, count = _stationary_points(coeffs, _FLOATS)
        assert (flip, count) == (flips[k], extrema[k])
        assert [(x.hex(), real) for x, real in row_points] == [
            (x[k].item().hex(), real[k]) for x, real in points]


def _fields(gem):
    return (gem.m_opt.hex(), gem.theta_opt.hex(), gem.nu_tilde_opt.hex(),
            gem.gaussian_eof.hex(), gem.extrema_found)


#: The ``GemResult`` fields that a ``GemBlock`` row holds too.
SHARED = ("m_opt", "nu_tilde_opt", "gaussian_eof")
_Row = namedtuple("_Row", SHARED)


def _shared(gem):
    """The bits of a ``GemResult``'s or a block row's ``SHARED`` fields."""
    return tuple(getattr(gem, name).hex() for name in SHARED)


def _minimize_forms(forms, log_base=2):
    """``minimize_columns`` of the forms' entries."""
    a, b, cp, cm = (np.array([getattr(sf, name) for sf in forms], dtype=float)
                    for name in ("a", "b", "c_plus", "c_minus"))
    return minimize_columns(a, b, cp, cm, log_base)


def _outcomes(block):
    """Each row of a ``GemBlock``: its error, or its nu_tilde_minus and its
    ``SHARED`` fields."""
    rows = zip(block.nu_tilde_sigma.tolist(), *(getattr(block, name).tolist() for name in SHARED))
    return [block.errors[i] if i in block.errors else (nu, _Row(*fields))
            for i, (nu, *fields) in enumerate(rows)]


# c at which StandardForm(2, 2.5, c, -c) has nu_tilde_minus = 1 - 5e-9
NEAR_SEPARABLE_C = 1.2247448764946924
# a seed-11 sampler state whose c_minus**3 numpy's array power rounds one
# ulp away from Python's on AVX-512 hosts; the profile builder cubes it as
# c_minus * c_minus * c_minus on both routes, and the row stays as a
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
    for sf, outcome in zip(forms, _outcomes(_minimize_forms(forms, log_base))):
        try:
            expected = minimize_m(sf, log_base=log_base)
        except TwoModeError as exc:
            assert (type(outcome), str(outcome)) == (type(exc), str(exc))
            continue
        nu_sigma, gem = outcome
        assert nu_sigma.hex() == sf.spectrum().nu_tilde_minus.hex()
        assert _shared(gem) == _shared(expected)


def test_invariants_are_derived_once_per_block_and_per_call(monkeypatch, tmp_path, capsys):
    # a StandardForm derives its invariants once, at construction, and every
    # float reader takes them from it: one derivation per form, none per
    # call on it, one per minimize_columns block and one per measure command
    calls = []

    def counting(*form):
        calls.append(form)
        return _invariants(*form)

    monkeypatch.setattr(symplectic, "_invariants", counting)
    monkeypatch.setattr(gaussian_em, "_invariants", counting)
    forms = [s.standard_form for s in iter_samples(SamplerConfig(1, 40, 20.0, "extremal_params"))]
    forms += BLOCK_ROWS[:5]
    calls.clear()
    block = _minimize_forms(forms)
    assert not block.errors
    assert len(calls) == 1
    # the symmetric, separable, near-separable, pure and GLEMS branches and
    # a general form, each sign-ordered
    for row in BLOCK_ROWS[:6]:
        calls.clear()
        sf = StandardForm(row.a, row.b, row.c_plus, row.c_minus)
        assert len(calls) == 1
        sf.spectrum(), sf.invariants(), sf.is_physical(), sf.is_pure()
        minimize_m(sf)
        assert len(calls) == 1
    calls.clear()
    m_theta(CUBE_ROUNDING, THETAS), gamma_from_theta(CUBE_ROUNDING, 1.0)
    assert not calls
    # an unordered form on the general branch: its sign ordering's construction
    unordered = StandardForm(CUBE_ROUNDING.a, CUBE_ROUNDING.b,
                             -CUBE_ROUNDING.c_plus, -CUBE_ROUNDING.c_minus)
    calls.clear()
    assert minimize_m(unordered) == minimize_m(CUBE_ROUNDING)
    assert len(calls) == 1
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"cm": [[2.0, 0.3, 1.1, 0.0], [0.3, 2.0, 0.0, -1.0],
                                       [1.1, 0.0, 1.5, 0.2], [0.0, -1.0, 0.2, 1.5]]}))
    calls.clear()
    assert cli.main(["measure", str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["gaussian_em"]["gaussian_eof"] > 0.0
    assert len(calls) == 1


def test_lone_general_form_takes_the_per_form_route():
    # one general form among closed-form and failing rows: the block's one
    # route gives it minimize_m's bits
    symmetric, separable, *_, cube, unphysical = BLOCK_ROWS
    outcomes = _outcomes(_minimize_forms([symmetric, cube, separable, unphysical]))
    nu_sigma, gem = outcomes[1]
    assert nu_sigma == cube.spectrum().nu_tilde_minus
    assert _shared(gem) == _shared(minimize_m(cube))
    assert isinstance(outcomes[3], UnphysicalStateError)


@pytest.mark.parametrize("sf,message", [
    (UNPHYSICAL, "not a physical state"),
    # Det sigma < 0: the spectrum fails before the physicality check
    (StandardForm(1.0, 1.0, 2.0, 0.0), "spectrum undefined"),
    # Det sigma - 1 = -5.0e-10: the gate's slack is is_physical's DEFAULT_TOL
    (StandardForm(2.0, 2.0, 1.7320508076410461, -1.7320508076410461), "not a physical state"),
])
def test_block_of_one_failing_form(sf, message):
    assert not sf.is_physical()
    [outcome] = _outcomes(_minimize_forms([sf]))
    assert type(outcome) is UnphysicalStateError
    assert message in str(outcome)
    with pytest.raises(UnphysicalStateError, match=message):
        minimize_m(sf)


def test_row_given_a_made_up_nu_gets_the_per_form_outcome(monkeypatch):
    # nu = 0.5 for a form whose spectrum is undefined (Det sigma < 0): the
    # mask fails, and the row gets minimize_m's error, not the gate's
    sf = StandardForm(1.0, 1.0, 2.0, 0.0)
    monkeypatch.setattr(gaussian_em, "_nu_tilde_minus", lambda *dets: np.full(1, 0.5))
    block = _minimize_forms([sf])
    with pytest.raises(UnphysicalStateError) as raised:
        minimize_m(sf)
    [outcome] = _outcomes(block)
    assert (type(outcome), str(outcome)) == (UnphysicalStateError, str(raised.value))
    assert block.nu_tilde_sigma.tolist() == [0.5]


def test_non_finite_row_gets_the_per_form_outcome(monkeypatch):
    # the cube row's stationary points turn NaN on both routes: its profile
    # is not finite there, and both raise the same MinimizationError
    forms = [BLOCK_ROWS[5], build_state(GMEMS_EX)]
    expected = minimize_m(forms[1])
    stationary_points = gaussian_em._stationary_points

    def poisoned(quartic, xp):
        flip, points, extrema = stationary_points(quartic, xp)
        if xp is _FLOATS:
            return flip, [(math.nan, real) for _, real in points], extrema
        for x, _ in points:
            x[0] = math.nan
        return flip, points, extrema

    monkeypatch.setattr(gaussian_em, "_stationary_points", poisoned)
    failed, (_, gem) = _outcomes(_minimize_forms(forms))
    with pytest.raises(MinimizationError) as raised:
        minimize_m(forms[0])
    assert (type(failed), str(failed)) == (MinimizationError, str(raised.value))
    assert _shared(gem) == _shared(expected)


def test_non_finite_profile_fails_its_own_row_only(monkeypatch):
    # a NaN profile coefficient in one row of a block: that row gets the
    # float route's MinimizationError, and the others keep their bits (a
    # stacked eigenvalue solve of the quartics would raise for all of them)
    forms = [build_state(GMEMS_EX), CUBE_ROUNDING, build_state(GLEMS_EX)]
    expected = [minimize_m(sf) for sf in forms]
    of = _ThetaProfile.of

    def poisoned(a, b, cp, cm, inv, xp):
        profile = of(a, b, cp, cm, inv, xp)
        return profile._replace(n0=xp.where(a == CUBE_ROUNDING.a, math.nan, profile.n0))

    monkeypatch.setattr(_ThetaProfile, "of", staticmethod(poisoned))
    first, failed, last = _outcomes(_minimize_forms(forms))
    with pytest.raises(MinimizationError) as raised:
        minimize_m(CUBE_ROUNDING)
    assert (type(failed), str(failed)) == (MinimizationError, str(raised.value))
    assert [_shared(gem) for _, gem in (first, last)] == [_shared(expected[0]), _shared(expected[2])]


def _comparable(outcome):
    if isinstance(outcome, TwoModeError):
        return type(outcome), str(outcome)
    return repr(outcome)


# Det sigma < 0: spectrum() raises before the physicality check
NO_SPECTRUM = StandardForm(1.0, 1.0, 2.0, 0.0)
SAMPLED = [s.standard_form for s in iter_samples(SamplerConfig(1, 4))]


def test_columns_that_are_no_standard_form_fail_as_its_constructor():
    # a row that fails the gate is replayed on the StandardForm of its own
    # floats: entries that make none get the constructor's error
    rows = [*BLOCK_ROWS, (math.nan, 2.0, 1.0, -1.0), (-2.0, 2.0, 1.0, -1.0)]
    a, b, cp, cm = (np.array(c) for c in zip(*(
        (sf.a, sf.b, sf.c_plus, sf.c_minus) if isinstance(sf, StandardForm) else sf
        for sf in rows)))
    gems = minimize_columns(a, b, cp, cm)
    expected = _outcomes(_minimize_forms(BLOCK_ROWS))
    got = _outcomes(gems)
    assert [_comparable(x) for x in got[:len(BLOCK_ROWS)]] == [_comparable(x) for x in expected]
    for outcome, values in zip(got[len(BLOCK_ROWS):], rows[len(BLOCK_ROWS):]):
        with pytest.raises(MalformedInputError) as raised:
            StandardForm(*values)
        assert (type(outcome), str(outcome)) == (MalformedInputError, str(raised.value))


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
@given(forms=st.lists(_forms(), min_size=1, max_size=8), log_base=st.sampled_from([2, "e"]))
@example(forms=[StandardForm(2.0, 2.5, c, -c) for c in NEAR_CUT], log_base=2)
@example(forms=[StandardForm(3.0, b, 2.5, -2.0) for b in SYMMETRY_EDGE], log_base=2)
@example(forms=[BLOCK_ROWS[3]], log_base=2)  # pure: degenerate rim
@example(forms=[build_state(GLEMS_EX)], log_base="e")  # zero leading coefficient
# minimum uncertainty: a slack of -3.9e-10 is zeroed
@example(forms=[build_state(ExtremalParams(40.0, 3.0, 31.859301824974466, -1.0))], log_base=2)
@example(forms=[_reordered(CUBE_ROUNDING, order, False) for order in (1, 2)],
         log_base=2)  # c_plus < |c_minus|, then c_plus < 0
@example(forms=[UNPHYSICAL, NO_SPECTRUM], log_base=2)
# spectrum() raises on the pair of sigma itself, not of its partial transpose
@example(forms=[StandardForm(11034.0, 11034.0, 11033.999954679055, -11033.999954671983)],
         log_base=2)
@example(forms=[SAMPLED[0], SIGMA_PAIR_UNDEFINED, SAMPLED[1], NO_SPECTRUM, SAMPLED[2],
                UNPHYSICAL, SAMPLED[3]], log_base=2)
@example(forms=[build_state(ExtremalParams(9.9e4, 1234.5, 71244.01366877697, 0.3))],
         log_base=2)  # s near 1e5
def test_block_rows_equal_minimize_m(forms, log_base):
    block = _outcomes(_minimize_forms(forms, log_base))
    for sf, outcome in zip(forms, block):
        try:
            expected = minimize_m(sf, log_base=log_base)
        except TwoModeError as exc:
            assert _comparable(outcome) == _comparable(exc)
            continue
        nu_sigma, gem = outcome
        assert nu_sigma.hex() == sf.spectrum().nu_tilde_minus.hex()
        assert _shared(gem) == _shared(expected)


#: (c_plus, c_minus) and its sign-ordered pair, exactly: the signed zeros
#: and the ties |c_plus| = |c_minus|, by hand.
SIGN_ORDER_TABLE = [
    ((0.0, -0.0), (0.0, -0.0)),
    ((-0.0, 0.0), (-0.0, 0.0)),  # -0.0 >= |0.0|: ordered already
    ((-0.0, -0.0), (-0.0, -0.0)),
    ((0.0, 1.0), (1.0, 0.0)),
    ((0.0, -1.0), (1.0, -0.0)),
    ((-1.0, 0.0), (1.0, -0.0)),
    ((0.5, -0.5), (0.5, -0.5)),
    ((-0.5, 0.5), (0.5, -0.5)),
    ((0.5, 0.5), (0.5, 0.5)),
    ((-0.5, -0.5), (0.5, 0.5)),
    ((0.4, -1.1), (1.1, -0.4)),
    ((-1.1, 0.4), (1.1, -0.4)),
    ((-0.4, -1.1), (1.1, 0.4)),
]


def _hex_pair(cp, cm):
    return float(cp).hex(), float(cm).hex()


@pytest.mark.parametrize("pair, ordered", SIGN_ORDER_TABLE)
def test_sign_ordering_table(pair, ordered):
    sf = StandardForm(2.0, 2.0, *pair)
    got = sf.sign_ordered()
    assert _hex_pair(got.c_plus, got.c_minus) == _hex_pair(*ordered)
    assert (got.a, got.b) == (sf.a, sf.b)
    columns = _sign_ordered(np.array([pair[0]]), np.array([pair[1]]), _ARRAYS)
    assert _hex_pair(*(c.item() for c in columns)) == _hex_pair(*ordered)


@settings(max_examples=100, deadline=None)
@given(forms=st.lists(_forms(), min_size=1, max_size=8))
def test_sign_ordering_is_a_local_rotation_to_the_ordered_pair(forms):
    # properties of the ordered pair, and the column route against the float one
    ordered = [sf.sign_ordered() for sf in forms]
    for sf, got in zip(forms, ordered):
        cp, cm = sf.c_plus, sf.c_minus
        assert _hex_pair(got.c_plus, got.c_minus) in {
            _hex_pair(cp, cm), _hex_pair(-cp, -cm), _hex_pair(-cm, -cp), _hex_pair(cm, cp)}
        assert got.c_plus >= abs(got.c_minus) and got.c_plus >= 0.0
        assert got.c_plus * got.c_minus == cp * cm
        assert got.c_plus * got.c_plus + got.c_minus * got.c_minus == cp * cp + cm * cm
        assert (got is sf) == (cp >= abs(cm))
    columns = _sign_ordered(*(np.array([getattr(sf, name) for sf in forms])
                              for name in ("c_plus", "c_minus")), _ARRAYS)
    assert (repr(list(zip(*(c.tolist() for c in columns))))
            == repr([(sf.c_plus, sf.c_minus) for sf in ordered]))


@pytest.mark.parametrize("call", [
    lambda: minimize_m(StandardForm(2.0, 1.5, 0.3, 0.2), log_base=10),
    lambda: _minimize_forms([build_state(GMEMS_EX)], log_base=10),
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
        with pytest.raises(DomainError, match=r"^Gamma is not positive definite \(det = -3\)$"):
            GammaCoordinates(1.0, 2.0, 0.0).single_mode_determinant()


def _general_forms(s_max, count=200):
    """The first ``count`` sampled forms (seed 42) that take minimize_m's
    general path."""
    forms = []
    for sample in iter_samples(SamplerConfig(42, 4 * count, s_max)):
        sf = sample.standard_form
        if not sf.is_symmetric() and sf.spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL:
            forms.append(sf)
    return forms[:count]


def _exact_minimum(profile):
    """The least m of the float profile at 60 digits: m' = 0 where
    F = 2 N' D - N D' vanishes (N = n0 + n1 cos, D = d0 + dc cos + ds sin),
    a quartic in t = tan(theta/2) once F is multiplied by (1 + t^2)^2, or
    at theta = pi.  Its roots are NumPy's double-precision ones (real parts
    of complex pairs included), polished by Newton steps at 60 digits."""
    n0, n1, d0, dc, ds = (mpmath.mpf(c) for c in profile)

    def mul(p, q):  # polynomials in t, lowest power first
        out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    def add(*ps):
        return [sum(p[k] if k < len(p) else 0 for p in ps) for k in range(max(map(len, ps)))]

    cos, sin, one = [1, 0, -1], [0, 2], [1, 0, 1]  # each times 1 + t^2
    n = add([n0 * c for c in one], [n1 * c for c in cos])
    d = add([d0 * c for c in one], [dc * c for c in cos], [ds * c for c in sin])
    n_dot = [-n1 * c for c in sin]
    d_dot = add([-dc * c for c in sin], [ds * c for c in cos])
    f = add(mul([2 * c for c in n_dot], d), [-c for c in mul(n, d_dot)])[::-1]
    angles = [mpmath.pi]
    for seed in np.roots([float(c) for c in f]).real.tolist():
        t = mpmath.mpf(seed)
        for _ in range(4):  # from 16 digits to 60 and beyond
            value, slope = mpmath.polyval(f, t, derivative=True)
            if slope == 0:
                break
            t -= value / slope
        angles.append(2 * mpmath.atan(t))
    return min(1 + (n0 + n1 * mpmath.cos(a)) ** 2 / (d0 + dc * mpmath.cos(a) + ds * mpmath.sin(a))
               for a in angles)


def _eigenvalue_route(profile):
    """The minimum as the eigenvalue route found it: the real parts of
    np.roots of the quartic as angles, and theta = pi, in the trigonometric
    profile."""
    angles = np.append(2.0 * np.arctan(np.roots(profile.quartic()).real), np.pi)
    return max(float(np.min(profile(angles))), 1.0)


@pytest.mark.parametrize("s_max", [20.0, 1e5])
def test_minimum_matches_60_digits(s_max):
    errors, eigenvalue_route_errors = [], []
    with mpmath.workdps(60):
        for sf in _general_forms(s_max):
            profile = _profile(sf.sign_ordered())
            exact = _exact_minimum(profile)
            errors.append(float(abs(minimize_m(sf).m_opt - exact) / exact))
            eigenvalue_route_errors.append(float(abs(_eigenvalue_route(profile) - exact) / exact))
    # the eigenvalue route's worst is 5.7e-15 at s_max 20 and 1.05e-7 at 1e5
    bound = 1e-13 if s_max == 20.0 else max(eigenvalue_route_errors)
    assert all(error <= bound for error in errors), max(errors)


# One block on which each guarded selection of the root step holds in some
# rows and not in others, with the float route's bits of each row: the
# profile of the first is flat (a zero quartic), the monic quartics of the
# next two have c = d = 0, and the others have complex pairs and cancelled
# members of a pair that _by_product takes by its product.  Without its
# selection, each of the rows from the third on would get other bits.
GUARDED_ROWS = {
    BLOCK_ROWS[3]: ("0x1.638e387981c99p+1", "0x1.921fb54442d18p+1", "0x1.55555594f6650p-2",
                    "0x1.14ea90310dc48p+0", 1),
    BLOCK_ROWS[4]: ("0x1.0e216837af1a6p+0", "0x1.921fb54442d18p+1", "0x1.95a6a3fa291bdp-1",
                    "0x1.aaa79f0e4bb5cp-4", 2),
    # c = d = 0, where the Halley steps would end short of the double root
    StandardForm(77.34495282175133, 252.61553116967832, 139.5422926035002, -138.08834785698522):
        ("0x1.b632c1746cc21p+1", "0x1.9db494f99dc84p+1", "0x1.2c8f1c239a6e3p-2",
         "0x1.40c3b6db64971p+0", 4),
    # the first and the second member of a pair cancel
    StandardForm(1.1020302117069825, 1.0078763335820364, 0.07950040160244184, -0.05231900392618696):
        ("0x1.00651ff8c1f77p+0", "0x1.8ab16c4322ac9p+1", "0x1.ec485e888047ep-1",
         "0x1.430f0ea582f87p-8", 2),
    StandardForm(1.1954329690581864, 1.332549501566223, 0.6202383061513952, -0.5594267827639536):
        ("0x1.2efccf43981d8p+0", "0x1.aba0e1d6c4b07p+1", "0x1.51a846d2338b2p-1",
         "0x1.0d3c6627c7e88p-2", 2),
    CUBE_ROUNDING: ("0x1.208ca0ac45f59p+0", "0x1.8b522e30e9761p+1", "0x1.69025c0018d93p-1",
                    "0x1.9978b4edbd4abp-3", 2),
}


def test_guarded_selections_keep_the_bits_of_every_row(monkeypatch):
    forms = list(GUARDED_ROWS)
    cancelled = []
    by_product = gaussian_em._by_product

    def recording(x1, x2, prod, xp):
        if xp is _FLOATS:
            cancelled[-1] |= 4.0 * abs(x1) < abs(x2) or 4.0 * abs(x2) < abs(x1)
        return by_product(x1, x2, prod, xp)

    monkeypatch.setattr(gaussian_em, "_by_product", recording)
    flat, level, complex_pair = [], [], []
    for sf in forms:
        quartic = _profile(sf.sign_ordered()).quartic()
        cancelled.append(False)
        _, points, _ = _stationary_points(quartic, _FLOATS)
        flat.append(not any(quartic))
        level.append(quartic[0] == quartic[-1] == 0.0 and quartic[1] != 0.0)
        complex_pair.append(not all(real for _, real in points))
    for guard in (flat, level, cancelled, complex_pair):
        assert any(guard) and not all(guard)

    outcomes = _outcomes(_minimize_forms(forms))
    for sf, (nu_sigma, gem) in zip(forms, outcomes):
        expected = minimize_m(sf)
        assert _fields(expected) == GUARDED_ROWS[sf]
        assert _shared(gem) == _shared(expected)
        assert nu_sigma == sf.spectrum().nu_tilde_minus


def test_float_route_selection_budget(monkeypatch):
    # Each selection on the float route is a Python call: a regression that
    # adds some shows in this count long before it shows in timings.
    forms = [s.standard_form for s in iter_samples(SamplerConfig(3, 200, 20.0, "extremal_params"))]
    assert all(sf.spectrum().nu_tilde_minus < 1.0 - NEAR_SEPARABLE_TOL and not sf.is_symmetric()
               for sf in forms)
    calls = []
    where = _FLOATS.where
    monkeypatch.setattr(_FLOATS, "where", lambda cond, x, y: calls.append(cond) or where(cond, x, y))
    for sf in forms:
        minimize_m(sf)
    # 20398 before the guards; 14792 before minimize_m sign-ordered through
    # StandardForm.sign_ordered(), which returns an ordered form as it is
    assert len(calls) <= 13992
