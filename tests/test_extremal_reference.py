"""The GMEMS and GLEMS closed forms against 60-digit references.

The references are computed here in mpmath and share no arithmetic with
the package: the GMEMS optimum in its textbook form, whose subtraction is
harmless at 60 digits, and the GLEMS optimum as the exact minimum of its
angular profile over every candidate angle.  The draws cover s - 1 from
1e-8 to 1e5, one in ten on the GMEMMS edge g = 2|d| + 1.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode import (
    Regime,
    m_opt_glems,
    m_opt_gmems,
    nu_tilde_glems,
    nu_tilde_gmems,
    ordering_compare,
)

REL_TOL = 1e-11
NU_REL_TOL = 1e-14
SANDWICH_RTOL = 1e-12
DIGITS = 60


def _ref_gmems(s, d, g):
    """{(g+1)s - sqrt([(g-1)^2 - 4d^2](s^2 - d^2 - g))}^2 / [4(d^2 + g)^2]."""
    with mp.workdps(DIGITS):
        s, d, g = mp.mpf(s), mp.mpf(d), mp.mpf(g)
        num = (g + 1) * s - mp.sqrt(((g - 1) ** 2 - 4 * d * d) * (s * s - d * d - g))
        return num * num / (4 * (d * d + g) ** 2)


def _ref_glems(s, d, g):
    """Minimum over cos(theta) in [-1, 1] of the GLEMS profile
    1 + (A c + B)^2 / [2(ab - c_minus^2)((g^2-1) c + g^2+1)], taken over the
    end points and both zeros of its derivative that lie inside."""
    with mp.workdps(DIGITS):
        s, d, g = mp.mpf(s), mp.mpf(d), mp.mpf(g)
        a, b = s + d, s - d
        r_d = (4 * d * d - (g + 1) ** 2) * (4 * d * d - (g - 1) ** 2)
        r_s = (g * g - (2 * s + 1) ** 2) * (g * g - (2 * s - 1) ** 2)
        norm = 4 * mp.sqrt(a * b)
        c_plus = (mp.sqrt(r_d) + mp.sqrt(r_s)) / norm
        c_minus = (mp.sqrt(r_d) - mp.sqrt(r_s)) / norm
        dq = a * b - c_minus * c_minus
        big_a = c_plus * dq + c_minus
        big_b = c_plus * dq - c_minus
        k, l = g * g + 1, g * g - 1
        cosines = [mp.mpf(-1), mp.mpf(1)]
        if big_a != 0:
            cosines.append(-big_b / big_a)
            if l > 0:
                cosines.append(big_b / big_a - 2 * k / l)
        return min(
            1 + (big_a * c + big_b) ** 2 / (2 * dq * (l * c + k))
            for c in cosines if -1 <= c <= 1
        )


def _ref_nu(s, d, g, delta_tilde):
    """sqrt((Delta~ - sqrt(Delta~^2 - 4 Det)) / 2) with Det sigma = g^2."""
    with mp.workdps(DIGITS):
        dt = delta_tilde(mp.mpf(s), mp.mpf(d), mp.mpf(g))
        g = mp.mpf(g)
        return mp.sqrt((dt - mp.sqrt(dt * dt - 4 * g * g)) / 2)


def _gmems_delta_tilde(s, d, g):
    return 4 * s * s - 2 * g


def _glems_delta_tilde(s, d, g):
    return 4 * (s * s + d * d) - g * g - 1


def _rel(value, ref):
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(value) - ref) / ref)


@st.composite
def entangled_points(draw, family):
    """(s, d, g) with s - 1 log-uniform in [1e-8, 1e5] and g in the
    family's entangled window; one draw in ten sits on g = 2|d| + 1."""
    s = 1.0 + 10.0 ** draw(st.floats(-8.0, 5.0))
    d = (s - 1.0) * draw(st.floats(-1.0, 1.0))
    lo = 2.0 * abs(d) + 1.0
    hi = 2.0 * s - 1.0 if family == "gmems" else math.sqrt(2.0 * (s * s + d * d) - 1.0)
    on_edge = draw(st.integers(0, 9)) == 0
    g = lo if on_edge else lo + (hi - lo) * draw(st.floats(0.0, 1.0, exclude_max=True))
    # g - 1 and (g - 1) - 2|d| are exact, so this moves a g that rounded
    # below the edge onto it or just above it
    while (g - 1.0) - 2.0 * abs(d) < 0.0:
        g = math.nextafter(g, math.inf)
    return s, d, g


FAMILIES = {
    "gmems": (m_opt_gmems, _ref_gmems, _gmems_delta_tilde),
    "glems": (m_opt_glems, _ref_glems, _glems_delta_tilde),
}


def _entangled(family, s, d, g):
    with mp.workdps(DIGITS):
        s, d, g = mp.mpf(s), mp.mpf(d), mp.mpf(g)
        if family == "gmems":
            return g < 2 * s - 1
        return g * g < 2 * (s * s + d * d) - 1


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closed_form_matches_60_digit_reference(family, data):
    s, d, g = data.draw(entangled_points(family))
    closed, ref, _ = FAMILIES[family]
    value = closed(s, d, g)
    if not _entangled(family, s, d, g):
        # separable at 60 digits; the float threshold test may round either way
        assert value - 1.0 <= REL_TOL
        return
    assert _rel(value, ref(s, d, g)) <= REL_TOL


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closed_form_within_universal_sandwich(family, data):
    """((nu + 1/nu)/2)^2 <= m <= 1/nu^2 and m >= 1, nu the family's PT
    eigenvalue at 60 digits."""
    s, d, g = data.draw(entangled_points(family))
    closed, _, delta_tilde = FAMILIES[family]
    m = closed(s, d, g)
    assert m >= 1.0
    if not _entangled(family, s, d, g):
        return
    nu = _ref_nu(s, d, g, delta_tilde)
    with mp.workdps(DIGITS):
        lower = ((nu + 1 / nu) / 2) ** 2
        upper = 1 / (nu * nu)
        assert mp.mpf(m) >= lower * (1 - SANDWICH_RTOL)
        assert mp.mpf(m) <= upper * (1 + SANDWICH_RTOL)


NU_TILDE = {"gmems": nu_tilde_gmems, "glems": nu_tilde_glems}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nu_tilde_matches_60_digit_reference(family, data):
    """The factored discriminant keeps nu_tilde accurate near purity, where
    Delta_tilde^2 - 4g^2 formed directly loses digits."""
    s, d, g = data.draw(entangled_points(family))
    _, _, delta_tilde = FAMILIES[family]
    nu = NU_TILDE[family](s, d, g)
    assert _rel(nu, _ref_nu(s, d, g, delta_tilde)) <= NU_REL_TOL


def test_glems_nu_tilde_at_rounded_corner():
    """|d| = s - 1 on the GMEMMS edge: g = 2|d| + 1 rounds one ulp above
    2s - 1, inside the domain tolerance, and still has a GLEMS value."""
    s, d, g = 1.0316227766016839, 0.03162277660168389, 1.063245553203368
    assert g > 2.0 * s - 1.0
    nu = nu_tilde_glems(s, d, g)
    assert _rel(nu, _ref_nu(s, d, g, _glems_delta_tilde)) <= NU_REL_TOL


@pytest.mark.parametrize("s, d, g", [
    # large-s points where the former theta = pi sum of g^4-sized terms
    # lost the value and the closed form raised DomainError
    (87307.69230769231, -2564.1025641025626, 123077.30769230769),
    (4308.770047108957, 4307.765119621344, 8616.535167303573),
])
def test_ordering_compare_at_large_s(s, d, g):
    verdict = ordering_compare(s, d, g)
    m_g, m_l = _ref_gmems(s, d, g), _ref_glems(s, d, g)
    assert _rel(verdict.m_gmems, m_g) <= REL_TOL
    assert _rel(verdict.m_glems, m_l) <= REL_TOL
    expected = Regime.ORDERING_PRESERVED if m_g >= m_l else Regime.ORDERING_INVERTED
    assert verdict.regime is expected


@settings(max_examples=60, deadline=None)
@given(s_minus_1=st.floats(1e-3, 1e5), u=st.floats(-1.0, 1.0),
       offset=st.floats(-1e-12, 1e-12))
def test_gmemms_line_is_a_tie(s_minus_1, u, offset):
    """Within the domain tolerance of g = 2|d| + 1 both families are the
    GMEMMS, so the ordering is preserved with equal determinants."""
    s = 1.0 + s_minus_1
    d = 0.999 * (s - 1.0) * u
    verdict = ordering_compare(s, d, 2.0 * abs(d) + 1.0 + offset)
    assert verdict.regime is Regime.ORDERING_PRESERVED
    assert verdict.m_glems == verdict.m_gmems
