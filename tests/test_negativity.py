import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode import (
    StandardForm,
    eof_symmetric,
    h_function,
    is_separable_ppt,
    log_negativity,
    negativity,
    negativity_report,
    symplectic_spectrum,
)
from twomode.errors import DomainError, NotSymmetricError

from conftest import draw_entangled_states


def h_direct(x):
    """Independent oracle: the defining expression evaluated term by term."""
    u = (1.0 + x) ** 2 / (4.0 * x)
    t = (1.0 - x) ** 2 / (4.0 * x)
    out = u * math.log2(u)
    if t > 0.0:
        out -= t * math.log2(t)
    return out


class TestHFunction:
    def test_at_one(self):
        assert h_function(1.0) == 0.0

    def test_half(self):
        # 1.125 log2(1.125) + 0.375
        assert h_function(0.5) == pytest.approx(1.125 * math.log2(1.125) + 0.375, abs=1e-14)
        assert h_function(0.5) == pytest.approx(0.5661656266226014, abs=1e-12)

    def test_third(self):
        # (4/3) log2(4/3) + (1/3) log2(3)
        expected = (4 / 3) * math.log2(4 / 3) + (1 / 3) * math.log2(3.0)
        assert h_function(1 / 3) == pytest.approx(expected, abs=1e-14)
        assert h_function(1 / 3) == pytest.approx(1.0817041659455104, abs=1e-12)

    def test_matches_direct_evaluation(self, rng):
        for x in rng.uniform(1e-3, 1.0, size=200):
            assert h_function(float(x)) == pytest.approx(h_direct(float(x)), rel=1e-11, abs=1e-13)

    def test_matches_60_digits_down_to_tiny_x(self):
        # u log u - t log t, with u - t = 1, cancels for small x; 60 digits
        # beyond those of 1/x keep both terms exact
        xs = [*np.logspace(-17.5, 0.0, 4500).tolist(), *(1.0 - k * 2.0**-53 for k in range(1, 40)),
              *(1.0 - 10.0**-k for k in range(1, 16)), 1e-300, 1e-310, 5e-324]
        errors = []
        for x in xs:
            with mpmath.workdps(60 - int(math.log10(x))):
                t = (1 - mpmath.mpf(x)) ** 2 / (4 * mpmath.mpf(x))
                exact = (1 + t) * mpmath.log(1 + t, 2) - (t * mpmath.log(t, 2) if t else 0)
                errors.append(float(abs(h_function(x) - exact) / exact) if t else h_function(x))
        assert all(error <= 2e-15 for error in errors), max(errors)

    def test_natural_log_base(self):
        assert h_function(0.5, log_base="e") == pytest.approx(h_function(0.5) * math.log(2.0), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(1e-4, 1.0 - 1e-12), st.floats(1e-6, 0.5))
    def test_strictly_decreasing(self, x, step):
        lo = max(x - step, 1e-5)
        if lo >= x:
            return
        assert h_function(lo) > h_function(x)

    def test_domain(self):
        for bad in (0.0, -0.5, 1.1, 1.0 + 2e-12):
            with pytest.raises(DomainError):
                h_function(bad)
        # rounding just above 1 reads as 1
        assert h_function(1.0 + 5e-13) == 0.0


class TestNegativities:
    def test_separable_values(self):
        assert negativity(1.0) == 0.0
        assert log_negativity(1.0) == 0.0
        assert negativity(1.7) == 0.0

    def test_third(self):
        assert negativity(1 / 3) == pytest.approx(1.0, abs=1e-14)
        assert log_negativity(1 / 3) == pytest.approx(math.log2(3.0), abs=1e-14)

    def test_half(self):
        assert negativity(0.5) == pytest.approx(0.5, abs=1e-15)
        assert log_negativity(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_natural_base(self):
        assert log_negativity(1 / 3, log_base="e") == pytest.approx(math.log(3.0), abs=1e-14)

    @pytest.mark.parametrize("function", [is_separable_ppt, negativity, log_negativity],
                             ids=["is_separable_ppt", "negativity", "log_negativity"])
    @pytest.mark.parametrize("nu", [math.nan, 0.0, -1.0])
    def test_domain(self, nu, function):
        # no symplectic eigenvalue is NaN, 0 or negative: is_separable_ppt
        # answered False on such a value, which reported an entangled state
        with pytest.raises(DomainError, match="nu_tilde_minus must be positive"):
            function(nu)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(1e-4, 1.0 - 1e-9), st.floats(1e-6, 0.5))
    def test_monotone_decreasing(self, nu, step):
        lo = max(nu - step, 1e-5)
        if lo >= nu:
            return
        assert negativity(lo) > negativity(nu)
        assert log_negativity(lo) > log_negativity(nu)

    def test_log_negativity_consistent_with_negativity(self, rng):
        # E_N = log2(1 + 2 N), i.e. both are views of the same trace norm
        for _, sf in draw_entangled_states(rng, 30):
            nu = sf.spectrum().nu_tilde_minus
            assert log_negativity(nu) == pytest.approx(
                math.log2(1.0 + 2.0 * negativity(nu)), rel=1e-12
            )


class TestSeparability:
    def test_entangled_squeezed(self):
        sp = symplectic_spectrum(StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3).to_matrix())
        assert not is_separable_ppt(sp)

    def test_vacuum_and_thermal(self):
        import numpy as np

        assert is_separable_ppt(symplectic_spectrum(np.eye(4)))
        assert is_separable_ppt(symplectic_spectrum(np.diag([2.0, 2.0, 2.0, 2.0])))

    def test_accepts_bare_eigenvalue(self):
        assert is_separable_ppt(1.2)
        assert not is_separable_ppt(0.4)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tolerance_is_rejected(self, tol):
        # "1.5 >= 1 - nan" is False, which reported separable states entangled
        with pytest.raises(DomainError, match="tolerance"):
            is_separable_ppt(1.5, tol)


class TestEofSymmetric:
    def test_pure_squeezed(self):
        sf = StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3)
        assert eof_symmetric(sf) == pytest.approx(h_function(1 / 3), rel=1e-10)

    def test_separable_symmetric_is_zero(self):
        assert eof_symmetric(StandardForm(2.0, 2.0, 0.3, 0.2)) == 0.0

    def test_symmetric_with_half_eigenvalue(self):
        # squeezed thermal symmetric form has nu_tilde_minus = a - c
        sf = StandardForm(2.0, 2.0, 1.5, -1.5)
        assert sf.spectrum().nu_tilde_minus == pytest.approx(0.5, abs=1e-12)
        assert eof_symmetric(sf) == pytest.approx(0.5661656266226014, abs=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            eof_symmetric(StandardForm(2.0, 1.5, 1.0, -1.0))

    def test_bad_log_base_raises_on_a_separable_state(self):
        # the base is checked before the spectrum decides that no logarithm
        # is taken
        with pytest.raises(DomainError, match="log_base"):
            eof_symmetric(StandardForm(2.0, 2.0, 0.3, 0.2), log_base=10)

    def test_order_equivalence_with_negativity(self, rng):
        # on symmetric states both measures sort any pair identically
        states = []
        for a in rng.uniform(1.1, 6.0, size=20):
            c = rng.uniform(0.2, 1.0) * math.sqrt(a * a - 1.0)
            sf = StandardForm(float(a), float(a), float(c), float(-c))
            if sf.is_physical() and sf.spectrum().nu_tilde_minus < 1.0:
                states.append(sf)
        for i in range(len(states) - 1):
            x, y = states[i], states[i + 1]
            dn = log_negativity(x.spectrum().nu_tilde_minus) - log_negativity(y.spectrum().nu_tilde_minus)
            de = eof_symmetric(x) - eof_symmetric(y)
            assert dn * de >= 0.0


class TestReport:
    def test_entangled_report(self):
        rep = negativity_report(StandardForm(5 / 3, 5 / 3, 4 / 3, -4 / 3))
        assert not rep.separable
        assert rep.negativity == pytest.approx(1.0, rel=1e-9)
        assert rep.log_negativity == pytest.approx(math.log2(3.0), rel=1e-9)
        assert rep.eof_symmetric == pytest.approx(h_function(1 / 3), rel=1e-9)

    def test_separable_report_zeroes(self):
        rep = negativity_report(StandardForm(2.0, 2.0, 0.0, 0.0))
        assert rep.separable
        assert rep.negativity == 0.0
        assert rep.log_negativity == 0.0
        assert rep.eof_symmetric == 0.0

    @pytest.mark.parametrize("sf", [StandardForm(2.0, 1.5, 0.3, 0.2),
                                    StandardForm(2.0, 2.0, 0.3, 0.2)])
    def test_bad_log_base_raises_on_a_separable_state(self, sf):
        assert negativity_report(sf).separable
        with pytest.raises(DomainError, match="log_base"):
            negativity_report(sf, log_base=10)

    def test_symmetric_closed_form_equals_eof_symmetric(self, rng):
        # the report reuses its own nu_tilde_minus: same bits as the public call
        separable = []
        for a, u, v in rng.uniform(size=(60, 3)):
            a = 1.0 + 5.0 * a
            c = math.sqrt(a * a - 1.0)
            sf = StandardForm(a, a, u * c, -v * c)
            if not sf.is_physical():
                continue
            separable.append(negativity_report(sf).separable)
            for base in (2, "e"):
                assert negativity_report(sf, log_base=base).eof_symmetric == eof_symmetric(sf, base)
        assert separable.count(True) >= 20 and separable.count(False) >= 5

    def test_asymmetric_report_has_no_closed_form(self, rng):
        for _, sf in draw_entangled_states(rng, 10):
            if not sf.is_symmetric():
                assert negativity_report(sf).eof_symmetric is None
                break
