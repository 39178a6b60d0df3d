import math

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
from twomode.errors import DomainError, MalformedInputError, UnphysicalStateError

from conftest import BLOCK_NOT_POSITIVE_DEFINITE, draw_entangled_states

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
        with pytest.raises(UnphysicalStateError, match=named):
            to_standard_form(sf.to_matrix())

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
    @pytest.mark.parametrize("check", [
        lambda sf, tol: sf.is_physical(tol),
        lambda sf, tol: to_standard_form(sf.to_matrix(), tol),
        lambda sf, tol: validate_physical(sf.to_matrix(), tol),
    ])
    def test_nan_or_negative_tolerance_is_rejected(self, check, tol):
        # every "x < 1 - nan" compares False, which would accept this form
        with pytest.raises(DomainError, match="tolerance"):
            check(StandardForm(0.8, 0.8, 0.1, -0.1), tol)


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
