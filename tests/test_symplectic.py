import ast
import copy
import dataclasses
import math
import pickle
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode import (
    StandardForm,
    local_invariants,
    local_purities,
    global_purity,
    make_two_mode_squeezed,
    partial_transpose,
    spectrum_via_eigenvalues,
    symplectic_spectrum,
    to_standard_form,
    validate_physical,
    cm_from_json_dict,
    minimize_m,
)
from twomode import bounds, extremal, gaussian_em, symplectic
from twomode.errors import DomainError, MalformedInputError, TwoModeError, UnphysicalStateError
from twomode.symplectic import (DEFAULT_TOL, _check_matrix, _inequalities, _invariants, _nu_pair,
                                _nu_pairs, _nu_tilde_minus, _sign_ordered)

from conftest import BLOCK_NOT_POSITIVE_DEFINITE, SIGMA_PAIR_UNDEFINED, draw_entangled_states

# squeezing with cosh(2r) = 5/3, i.e. the 3-4-5 hyperbolic triple
R_53 = 0.5 * math.acosh(5.0 / 3.0)


def local_rotation(phi1, phi2):
    def rot(phi):
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, s], [-s, c]])

    out = np.zeros((4, 4))
    out[:2, :2] = rot(phi1)
    out[2:, 2:] = rot(phi2)
    return out


def local_squeeze(z1, z2):
    return np.diag([z1, 1.0 / z1, z2, 1.0 / z2])


def conjugate(cm, s):
    return s.T @ cm @ s


class TestValidatePhysical:
    def test_vacuum(self):
        assert validate_physical(np.eye(4))

    def test_scaled_vacuum_below_threshold(self):
        assert not validate_physical(0.5 * np.eye(4))

    def test_pure_squeezed_is_physical(self):
        # Det sigma = 1 and Delta = 2*(25/9) - 2*(16/9) = 2 <= 1 + 1
        cm = StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix()
        assert validate_physical(cm)
        eigs = np.abs(np.linalg.eigvals(1j * np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]) @ cm))
        assert np.min(eigs) >= 1.0 - 1e-9

    def test_non_symmetric_raises(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(MalformedInputError):
            validate_physical(bad)

    def test_wrong_shape_raises(self):
        with pytest.raises(MalformedInputError):
            validate_physical(np.eye(3))

    def test_indefinite_matrix_rejected(self):
        cm = np.diag([4.0, 4.0, 4.0, -1.0])
        assert not validate_physical(cm)

    @pytest.mark.parametrize("cm", BLOCK_NOT_POSITIVE_DEFINITE)
    def test_block_not_positive_definite_rejected(self, cm):
        assert not validate_physical(cm)
        with pytest.raises(UnphysicalStateError, match="not positive definite"):
            to_standard_form(cm)

    @pytest.mark.parametrize("sf, named", [
        (StandardForm(0.5, 0.5, 0.0, 0.0), "Det sigma"),
        # Det sigma = 1.2321 >= 1 but Delta = 13.78 > 1 + Det sigma
        (StandardForm(2.0, 2.0, 1.7, 1.7), "Delta"),
        # both correlation factors ab - c^2 negative, so Det sigma > 0
        (StandardForm(1.5, 1.5, 3.0, 3.0), "positive semidefinite"),
    ])
    def test_error_names_the_violated_inequality(self, sf, named):
        assert not validate_physical(sf.to_matrix())
        with pytest.raises(UnphysicalStateError, match=named) as raised:
            to_standard_form(sf.to_matrix())
        assert str(raised.value) == {
            "Det sigma": "Det sigma = 0.0625 < 1 violates the purity bound",
            "Delta": "Delta = 13.78 exceeds 1 + Det sigma = 2.2321",
            "positive semidefinite": "covariance matrix is not positive semidefinite",
        }[named]

    @pytest.mark.parametrize("sf", [
        StandardForm(3e80, 1e80, 1.5e80, -1e80),  # Det sigma overflows to inf
        StandardForm(1e200, 1e200, 1e200, -1e200),  # Delta = inf - inf = NaN
    ])
    def test_non_finite_invariants_are_unphysical(self, sf):
        # every inequality compares False against inf or NaN, so it cannot
        # be the one to fail
        assert not sf.is_physical()
        with pytest.raises(UnphysicalStateError):
            minimize_m(sf)

    @pytest.mark.parametrize("tol", [math.nan, -1e-12])
    def test_nan_or_negative_tolerance_is_rejected(self, tol):
        # every "x < 1 - nan" compares False, which would accept this form;
        # "x <= nan" is False too, which called every form impure and
        # asymmetric
        sf = StandardForm(0.8, 0.8, 0.1, -0.1)
        for predicate in (sf.is_physical, sf.is_pure, sf.is_symmetric):
            with pytest.raises(DomainError, match="tolerance"):
                predicate(tol)


class TestLocalInvariants:
    def test_vacuum(self):
        inv = local_invariants(np.eye(4))
        assert (inv.det_alpha, inv.det_beta, inv.det_gamma) == (1.0, 1.0, 0.0)
        assert inv.det_sigma == pytest.approx(1.0, abs=1e-14)
        assert inv.delta == pytest.approx(2.0, abs=1e-14)
        assert inv.delta_tilde == pytest.approx(2.0, abs=1e-14)

    def test_squeezed_example(self):
        inv = local_invariants(StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix())
        assert inv.det_gamma == pytest.approx(-16 / 9, rel=1e-12)
        assert inv.det_sigma == pytest.approx(1.0, abs=1e-12)
        assert inv.delta_tilde == pytest.approx(82 / 9, rel=1e-12)

    def test_rotation_invariance(self):
        cm = StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix()
        ref = local_invariants(cm)
        rotated = conjugate(cm, local_rotation(0.7, 0.0))
        inv = local_invariants(rotated)
        for field in ("det_alpha", "det_beta", "det_gamma", "det_sigma", "delta", "delta_tilde"):
            assert getattr(inv, field) == pytest.approx(getattr(ref, field), rel=1e-10, abs=1e-10)

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalStateError):
            local_invariants(0.5 * np.eye(4))

    @settings(max_examples=60, deadline=None)
    @given(
        phi1=st.floats(-math.pi, math.pi),
        phi2=st.floats(-math.pi, math.pi),
        z=st.floats(0.5, 2.0),
    )
    def test_local_symplectic_invariance(self, phi1, phi2, z):
        cm = StandardForm(2.0, 1.4, 0.9, -0.6).to_matrix()
        ref = local_invariants(cm)
        moved = conjugate(conjugate(cm, local_squeeze(z, 1.0)), local_rotation(phi1, phi2))
        inv = local_invariants(moved)
        for field in ("det_alpha", "det_beta", "det_gamma", "det_sigma"):
            assert getattr(inv, field) == pytest.approx(getattr(ref, field), rel=1e-9, abs=1e-9)


def _invariants_with_noisy_disc(values):
    """(Delta, Det sigma, disc) of eigenvalues nu1 and nu2 = nu1 (1 + rel),
    with disc moved by eps relative: below -1e-9 it has no spectrum, and a
    negative disc above that is clamped to 0."""
    nu1, rel, eps = values
    nu2 = nu1 * (1.0 + rel)
    delta = nu1 * nu1 + nu2 * nu2
    det_sigma = (nu1 * nu2) * (nu1 * nu2)
    scale = max(delta * delta, 4.0 * det_sigma, 1.0)
    return delta, det_sigma, delta * delta - 4.0 * det_sigma + eps * scale


class TestSpectrum:
    def test_vacuum(self):
        sp = symplectic_spectrum(np.eye(4))
        values = (sp.nu_minus, sp.nu_plus, sp.nu_tilde_minus, sp.nu_tilde_plus)
        assert values == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_thermal_product(self):
        sp = symplectic_spectrum(np.diag([2.0, 2.0, 2.0, 2.0]))
        assert (sp.nu_minus, sp.nu_plus) == pytest.approx((2.0, 2.0))
        assert (sp.nu_tilde_minus, sp.nu_tilde_plus) == pytest.approx((2.0, 2.0))

    def test_squeezed_example(self):
        # Delta_tilde = 82/9 and sqrt(Delta_tilde^2 - 4) = 80/9
        sp = symplectic_spectrum(StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix())
        assert sp.nu_tilde_minus == pytest.approx(1 / 3, abs=1e-12)
        assert sp.nu_tilde_plus == pytest.approx(3.0, abs=1e-12)

    def test_squeezing_parameter_maps_to_exponential(self, rng):
        for r in rng.uniform(0.0, 2.0, size=12):
            cm = make_two_mode_squeezed(float(r))
            sp = symplectic_spectrum(cm)
            oracle = spectrum_via_eigenvalues(cm)
            assert sp.nu_tilde_minus == pytest.approx(math.exp(-2.0 * r), rel=1e-10)
            assert oracle.nu_tilde_minus == pytest.approx(math.exp(-2.0 * r), rel=1e-8)

    def test_closed_form_matches_eigenvalue_oracle(self, rng):
        for _, sf in draw_entangled_states(rng, 40):
            cm = conjugate(sf.to_matrix(), local_rotation(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            sp = symplectic_spectrum(cm)
            oracle = spectrum_via_eigenvalues(cm)
            for name in ("nu_minus", "nu_plus", "nu_tilde_minus", "nu_tilde_plus"):
                assert getattr(sp, name) == pytest.approx(getattr(oracle, name), rel=1e-9)

    def test_spectrum_product_law(self, rng):
        for _, sf in draw_entangled_states(rng, 25):
            inv = sf.invariants()
            sp = sf.spectrum()
            assert sp.nu_minus**2 * sp.nu_plus**2 == pytest.approx(inv.det_sigma, rel=1e-9)
            assert sp.nu_tilde_minus**2 * sp.nu_tilde_plus**2 == pytest.approx(inv.det_sigma, rel=1e-9)

    def test_physical_states_respect_uncertainty(self, rng):
        for _, sf in draw_entangled_states(rng, 25):
            assert sf.spectrum().nu_minus >= 1.0 - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.one_of(
        st.tuples(st.floats(0.1, 100.0), st.sampled_from([0.0, 1e-12, 1e-6, 0.5]),
                  st.floats(-2e-9, 1e-9)).map(_invariants_with_noisy_disc),
        # no spectrum (Delta^2 / 4 below Det sigma, Det sigma < 0) and a NaN
        st.sampled_from([(-1.0, 1.0, 0.0), (2.0, -1.0, 8.0), (math.nan, 1.0, 1.0)]),
    ), min_size=1, max_size=12))
    def test_array_pairs_equal_float_pairs(self, rows):
        # nu_minus bit for bit, and NaN where the float call raises
        got = _nu_pairs(*(np.array(c) for c in zip(*rows))).tolist()
        for x, row in zip(got, rows):
            try:
                want = _nu_pair(*row)[0]
            except UnphysicalStateError:
                want = math.nan
            assert x.hex() == want.hex() or (math.isnan(x) and math.isnan(want))

    @pytest.mark.parametrize("s_max", [20.0, 855299.6953125])
    def test_array_nu_tilde_minus_equals_the_spectrum(self, s_max):
        # every raw sampler attempt, rejected ones included, half of them
        # with c_plus near its cap; the last attempt is SIGMA_PAIR_UNDEFINED
        # at the larger s_max.  Then forms whose spectrum is undefined on
        # the pair of sigma, of its partial transpose, and of both.
        rng = np.random.default_rng(20261020)
        u = rng.random((4000, 4))
        u[2000:, 2] = 1.0 - rng.random(2000) * 2.0**-20
        u = np.concatenate([u, [[0.5, 0.5, 1.0 - 2.0**-24, 2.0**-40]]])
        short, (_, _, columns) = bounds._MODES["raw_standard_form"].test(u, s_max)
        attempts = list(zip(*(c.tolist() for c in columns(np.full(short.shape, True))[4:])))
        a, b, cp, cm = dataclasses.astuple(SIGMA_PAIR_UNDEFINED)
        rows = [*attempts, (a, b, cp, cm), (a, b, cp, -cm), (1.0, 1.0, 2.0, 0.0)]
        got = _nu_tilde_minus(_invariants(*(np.array(c) for c in zip(*rows)))).tolist()
        undefined = []
        for x, row in zip(got, rows):
            try:
                want = StandardForm(*row).spectrum().nu_tilde_minus
            except UnphysicalStateError:
                undefined.append(row)
                assert math.isnan(x)
            else:
                assert x.hex() == want.hex()
        assert undefined[-3:] == rows[-3:]
        assert (attempts[-1] == rows[-3]) == (s_max > 20.0)
        # what lets the minimizer derive the invariants once, from the sign
        # ordering of a form: on the rows and on the rows with their
        # correlations exchanged or negated, the ordering keeps the bits of
        # Det sigma, Delta, Delta_tilde, the inequalities and
        # nu_tilde_minus, and ab - c_minus^2 of the ordered form is the
        # larger factor
        a, b, cp, cm = (np.array(c) for c in zip(*rows))
        for pair in ((cp, cm), (cm, cp), (-cp, -cm), (-cm, -cp)):
            inv = _invariants(a, b, *pair)
            ordered = _invariants(a, b, *_sign_ordered(*pair, symplectic._ARRAYS))
            assert [x.tobytes() for x in ordered[:3]] == [x.tobytes() for x in inv[:3]]
            assert ordered[4].tobytes() == np.maximum(*inv[3:]).tobytes()
            assert ([x.tolist() for x in _inequalities(a, b, ordered, DEFAULT_TOL)]
                    == [x.tolist() for x in _inequalities(a, b, inv, DEFAULT_TOL)])
            assert _nu_tilde_minus(ordered).tobytes() == _nu_tilde_minus(inv).tobytes()


class TestStoredSpectrum:
    """A form keeps its spectrum once computed, outside its fields."""

    def test_fields_ignore_the_stored_spectrum(self):
        kept, fresh = StandardForm(2.0, 1.4, 0.9, -0.6), StandardForm(2.0, 1.4, 0.9, -0.6)
        spectrum = kept.spectrum()
        assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
        assert dataclasses.asdict(kept) == dataclasses.asdict(fresh)
        for other in (dataclasses.replace(kept), pickle.loads(pickle.dumps(kept)),
                      copy.copy(kept), copy.deepcopy(kept)):
            assert other == kept and vars(other) == vars(fresh)
            assert other.spectrum() == spectrum
        assert dataclasses.replace(kept, b=1.5).spectrum() == StandardForm(2.0, 1.5, 0.9, -0.6).spectrum()

    def test_second_call_returns_the_same_object(self):
        sf = StandardForm(2.0, 1.4, 0.9, -0.6)
        assert sf.spectrum() is sf.spectrum()

    def test_a_raising_spectrum_raises_again(self):
        sf = StandardForm(1.0, 1.0, 2.0, 0.0)  # Det sigma < 0
        messages = []
        for _ in range(2):
            with pytest.raises(UnphysicalStateError, match="spectrum undefined") as info:
                sf.spectrum()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert vars(sf) == vars(StandardForm(1.0, 1.0, 2.0, 0.0))


def test_entries_near_the_largest_double():
    # each pair is halved before it is summed: 0.5 * (x + y) overflows here
    cm = 1e308 * np.eye(4)
    edge = [[1e308, 1.7e308, 0.0, 0.0], [1.7e308, 1e308, 0.0, 0.0],
            [0.0, 0.0, 1e308, -1.7e308], [0.0, 0.0, -1.7e308, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dataclasses.astuple(spectrum_via_eigenvalues(cm)) == (1e308,) * 4
        assert _check_matrix(edge) == edge
        with pytest.raises(TwoModeError):
            to_standard_form(cm)


class TestStandardForm:
    def test_already_standard_is_fixed_point(self):
        sf = to_standard_form(StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix())
        assert (sf.a, sf.b) == pytest.approx((5 / 3, 5 / 3), rel=1e-12)
        assert (sf.c_plus, sf.c_minus) == pytest.approx((4 / 3, -4 / 3), rel=1e-12)

    def test_squeezed_reads_off(self):
        sf = to_standard_form(make_two_mode_squeezed(R_53))
        assert sf.a == pytest.approx(5 / 3, rel=1e-12)
        assert sf.c_plus == pytest.approx(4 / 3, rel=1e-12)
        assert sf.c_minus == pytest.approx(-4 / 3, rel=1e-12)

    def test_rotated_matrix_gives_same_quadruple(self, rng):
        base = make_two_mode_squeezed(R_53)
        for _ in range(10):
            moved = conjugate(base, local_rotation(rng.uniform(-3, 3), rng.uniform(-3, 3)))
            sf = to_standard_form(moved)
            assert sf.a == pytest.approx(5 / 3, rel=1e-13)
            assert sf.b == pytest.approx(5 / 3, rel=1e-13)
            assert sf.c_plus == pytest.approx(4 / 3, rel=1e-13)
            assert sf.c_minus == pytest.approx(-4 / 3, rel=1e-13)

    def test_round_trip_is_identity(self, rng):
        for _, sf in draw_entangled_states(rng, 30):
            back = to_standard_form(sf.to_matrix())
            assert back.a == pytest.approx(sf.a, rel=1e-9)
            assert back.b == pytest.approx(sf.b, rel=1e-9)
            assert back.c_plus == pytest.approx(sf.c_plus, rel=1e-9, abs=1e-9)
            assert back.c_minus == pytest.approx(sf.c_minus, rel=1e-9, abs=1e-9)

    def test_invariants_preserved_under_reduction(self, rng):
        for _, sf in draw_entangled_states(rng, 15):
            moved = conjugate(sf.to_matrix(), local_squeeze(1.3, 0.8))
            back = to_standard_form(moved)
            ref, got = sf.invariants(), back.invariants()
            for field in ("det_alpha", "det_beta", "det_gamma", "det_sigma"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-8, abs=1e-8)

    def test_nearly_equal_correlations_stay_split(self):
        # c_plus^2 - c_minus^2 ~ 4e-6: no clamp may merge the pair
        ref = StandardForm(5 / 3 + 1e-3, 5 / 3 + 1e-3, 4 / 3, -(4 / 3) * (1.0 - 1e-6))
        moved = conjugate(ref.to_matrix(), local_rotation(0.7, -1.9))
        sf = to_standard_form(moved)
        assert sf.c_plus == pytest.approx(ref.c_plus, rel=1e-12)
        assert sf.c_minus == pytest.approx(ref.c_minus, rel=1e-12)

    def test_near_degenerate_input_matches_eigenvalue_route(self):
        # weakly entangled near-vacuum state seen through local squeezers and
        # rotations; its c_plus^2 - c_minus^2 is only 4.6e-7
        cm = np.array([
            [1.18259351891301, -0.17093126268684586, 0.0009309124866336843, -0.0020405092798659406],
            [-0.17093126268684586, 0.87062766677677, -0.00044507202079977284, -0.00132203338999007],
            [0.0009309124866336843, -0.00044507202079977284, 0.41260966011547756, -0.3931564723061389],
            [-0.0020405092798659406, -0.00132203338999007, -0.3931564723061389, 2.7991422957616026],
        ])
        got = to_standard_form(cm).spectrum()
        ref = spectrum_via_eigenvalues(cm)
        assert got.nu_tilde_minus == pytest.approx(ref.nu_tilde_minus, rel=1e-10)
        assert got.nu_minus == pytest.approx(ref.nu_minus, rel=1e-10)

    def test_pure_state_correlation_relation(self, rng):
        for r in rng.uniform(0.05, 1.5, size=10):
            sf = to_standard_form(make_two_mode_squeezed(float(r)))
            assert sf.is_pure(1e-9)
            assert sf.c_plus == pytest.approx(math.sqrt(sf.a**2 - 1.0), rel=1e-9)
            assert sf.c_minus == pytest.approx(-sf.c_plus, rel=1e-9)

    def test_entangled_states_have_opposite_sign_correlations(self, rng):
        for _, sf in draw_entangled_states(rng, 25):
            assert sf.c_plus * sf.c_minus < 0.0

    def test_sign_ordered(self):
        sf = StandardForm(2.0, 1.5, 0.4, -1.1).sign_ordered()
        assert sf.c_plus == pytest.approx(1.1)
        assert sf.c_minus == pytest.approx(-0.4)
        inv_a = StandardForm(2.0, 1.5, 0.4, -1.1).invariants()
        inv_b = sf.invariants()
        assert inv_a.det_gamma == pytest.approx(inv_b.det_gamma)
        assert inv_a.det_sigma == pytest.approx(inv_b.det_sigma)


def _reference_standard_form(cm):
    """(a, b, c_plus, c_minus) of the binary matrix ``cm`` at 50 digits, from
    local invariants alone: a and b are the square roots of the block
    determinants, c_plus c_minus = Det gamma, and
    c_plus^2 + c_minus^2 = tr(gamma adj(beta) gamma^T adj(alpha)) / (a b)."""
    with mpmath.workdps(50):
        (s00, s01, g00, g01), (_, s11, g10, g11), (_, _, t00, t01), (*_, t11) = [
            [mpmath.mpf(x) for x in row] for row in cm.tolist()]
        a = mpmath.sqrt(s00 * s11 - s01 * s01)
        b = mpmath.sqrt(t00 * t11 - t01 * t01)
        gamma = mpmath.matrix([[g00, g01], [g10, g11]])
        adj_alpha = mpmath.matrix([[s11, -s01], [-s01, s00]])
        adj_beta = mpmath.matrix([[t11, -t01], [-t01, t00]])
        prod = mpmath.det(gamma)
        squares = sum((gamma * adj_beta * gamma.T * adj_alpha)[k, k] for k in range(2)) / (a * b)
        plus = mpmath.sqrt(squares + 2 * prod)
        minus = mpmath.sqrt(max(squares - 2 * prod, 0))
        return a, b, (plus + minus) / 2, (plus - minus) / 2


def _raw_matrices(rng, count):
    """Physical standard forms with a, b in [1, 20] seen through random local
    symplectic maps: rotation, squeeze exp(+-r) with |r| <= 0.75, rotation."""
    out = []
    while len(out) < count:
        a, b = rng.uniform(1.0, 20.0, size=2)
        c_plus = rng.uniform(0.0, math.sqrt(a * b - 1.0))
        sf = StandardForm(a, b, c_plus, rng.uniform(-c_plus, c_plus))
        if not sf.is_physical():
            continue
        phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=(2, 2))
        r1, r2 = rng.uniform(-0.75, 0.75, size=2)
        s = local_rotation(*phi) @ np.diag([math.exp(r1), math.exp(-r1), math.exp(r2), math.exp(-r2)]) \
            @ local_rotation(*psi)
        m = s @ sf.to_matrix() @ s.T
        out.append(0.5 * (m + m.T))
    return out


class TestReductionAccuracy:
    def test_matches_50_digit_reduction(self):
        # bound fixed before the run: 8e-15 relative to max(|x|, 1) on each
        # of a, b, c_plus and c_minus
        worst = 0.0
        for cm in _raw_matrices(np.random.default_rng(28), 300):
            got = to_standard_form(cm)
            ref = _reference_standard_form(cm)
            for x, want in zip((got.a, got.b, got.c_plus, got.c_minus), ref):
                worst = max(worst, float(abs(mpmath.mpf(x) - want) / max(abs(want), 1)))
        assert worst <= 8e-15

    def test_list_tuple_int_and_array_inputs_agree(self):
        cm = _raw_matrices(np.random.default_rng(5), 1)[0]
        want = to_standard_form(cm)
        assert to_standard_form(cm.tolist()) == want
        assert to_standard_form(tuple(map(tuple, cm.tolist()))) == want
        assert to_standard_form(list(cm)) == want
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PendingDeprecationWarning)
            assert to_standard_form(np.matrix(cm)) == want
        # an asymmetry within the bound is averaged away before the reduction
        skewed = cm + 1e-12 * np.triu(np.ones((4, 4)), 1)
        assert to_standard_form(skewed) == to_standard_form(0.5 * (skewed + skewed.T))
        ints = [[3, 0, 2, 0], [0, 3, 0, -2], [2, 0, 3, 0], [0, -2, 0, 3]]
        assert to_standard_form(ints) == to_standard_form(np.array(ints, dtype=float)) \
            == StandardForm(3.0, 3.0, 2.0, -2.0)

    @pytest.mark.parametrize("cm, message", [
        (np.eye(3), "expected a 4x4 covariance matrix, got shape (3, 3)"),
        ([[1.0, 2.0]], "expected a 4x4 covariance matrix, got shape (1, 2)"),
        (np.diag([1.0, math.inf, 1.0, 1.0]), "covariance matrix contains non-finite entries"),
        (np.diag([1.0, 1.0, math.nan, 1.0]), "covariance matrix contains non-finite entries"),
        ([[1, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "covariance matrix is not symmetric (max asymmetry 0.5)"),
        (3e3 * np.eye(4) + np.diag([1e-4], 3),
         "covariance matrix is not symmetric (max asymmetry 0.0001)"),
        # a trailing "..." stands for numpy's own text, which its versions word
        # differently
        ([[1, 2], [3]], "covariance matrix entries are not numbers: ..."),
        ("abc", "covariance matrix entries are not numbers: ..."),
        ([[10**400] * 4] * 4, "covariance matrix entries are not numbers: ..."),
        # a complex entry is no real number, in a NumPy array as in a list
        (np.eye(4) + np.diag([2j, 0, 0, 0]), "covariance matrix entries are not numbers: ..."),
        (np.array([[np.complex128(1 + 2j), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                  dtype=object), "covariance matrix entries are not numbers: ..."),
        ([[1 + 2j, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "covariance matrix entries are not numbers: ..."),
        # a masked entry has no value to read
        (np.ma.masked_array(np.eye(4), mask=np.eye(4, dtype=bool)),
         "covariance matrix entries are not numbers: ..."),
        # a row that is neither a list, a tuple nor an array
        ([[1, 0, 0, 0], 5, [0, 0, 1, 0], [0, 0, 0, 1]], "covariance matrix entries are not "
         "numbers: expected rows of numbers, got a row that is no sequence"),
        # strings, bytes and booleans, which float() would read as numbers
        ([["2", 0, 1, 0], [0, "2", 0, -1], [1, 0, 2, 0], [0, -1, 0, 2]],
         "covariance matrix entries are not numbers: str '2' is not a number"),
        ([[b"2", 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
         "covariance matrix entries are not numbers: bytes b'2' is not a number"),
        ([[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "covariance matrix entries are not numbers: bool True is not a number"),
        (np.array([[np.bool_(True), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                  dtype=object), "covariance matrix entries are not numbers: bool True is not a number"),
    ])
    def test_malformed_messages(self, cm, message):
        pattern = (f"^{re.escape(message[:-3])}" if message.endswith("...")
                   else f"^{re.escape(message)}$")
        for call in (to_standard_form, validate_physical, local_invariants, symplectic_spectrum,
                     global_purity, local_purities, spectrum_via_eigenvalues):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MalformedInputError, match=pattern):
                    call(cm)


class TestPurities:
    def test_vacuum(self):
        assert global_purity(np.eye(4)) == pytest.approx(1.0)
        assert local_purities(np.eye(4)) == pytest.approx((1.0, 1.0))

    def test_thermal_product(self):
        cm = np.diag([2.0, 2.0, 2.0, 2.0])
        assert global_purity(cm) == pytest.approx(0.25, rel=1e-12)
        assert local_purities(cm) == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_pure_squeezed(self):
        cm = StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix()
        assert global_purity(cm) == pytest.approx(1.0, abs=1e-12)
        assert local_purities(cm) == pytest.approx((0.6, 0.6), rel=1e-12)


class TestMisc:
    def test_make_two_mode_squeezed_zero_is_vacuum(self):
        assert np.allclose(make_two_mode_squeezed(0.0), np.eye(4))

    def test_make_two_mode_squeezed_rejects_bad_input(self):
        with pytest.raises(MalformedInputError):
            make_two_mode_squeezed(float("nan"))

    @pytest.mark.parametrize("r", [355.5, 400.0, 1e300])
    def test_make_two_mode_squeezed_rejects_overflowing_r(self, r):
        # cosh(2r) overflows a double from 2r ~ 710.5 on
        with pytest.raises(MalformedInputError, match="overflows"):
            make_two_mode_squeezed(r)

    def test_partial_transpose_flips_det_gamma(self):
        cm = StandardForm(2.0, 1.4, 0.9, -0.6).to_matrix()
        inv = local_invariants(cm)
        flipped = partial_transpose(cm)
        det_gamma = np.linalg.det(flipped[:2, 2:])
        assert det_gamma == pytest.approx(-inv.det_gamma, rel=1e-12)

    def test_json_matrix_round_trip(self):
        cm = StandardForm(2.0, 1.4, 0.9, -0.6).to_matrix()
        assert np.allclose(cm_from_json_dict({"cm": cm.tolist()}), cm)
        obj = {"standard_form": {"a": 2.0, "b": 1.4, "c_plus": 0.9, "c_minus": -0.6}}
        assert np.allclose(cm_from_json_dict(obj), cm)

    def test_json_rejects_bad_schema(self):
        with pytest.raises(MalformedInputError):
            cm_from_json_dict({"foo": 1})
        with pytest.raises(MalformedInputError):
            cm_from_json_dict({"cm": [[1, 2], [3, 4]]})
        with pytest.raises(MalformedInputError):
            cm_from_json_dict({"standard_form": {"a": 1.0}})


def test_the_form_level_core_lives_in_symplectic():
    # one float and one array namespace for every module, and the minimizer
    # reads them, the sign order and the symmetric test without the
    # extremal families
    for module in (extremal, gaussian_em, bounds):
        assert module._FLOATS is symplectic._FLOATS
    for module in (extremal, bounds):
        assert module._ARRAYS is symplectic._ARRAYS
    assert not hasattr(gaussian_em, "_ARRAYS")
    with open(gaussian_em.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "extremal" in name.split(".")]
