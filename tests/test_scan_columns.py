"""The columnar scan against its scalar definitions.

The closed forms, the separability thresholds and the regime rule are
written once, elementwise; ``ordering_compare``, ``m_opt_gmems`` and
``m_opt_glems`` call them on floats.  These tests hold a batched call to the
per-point calls bit for bit, the scan's nu_tilde columns and cells to
``ordering_compare`` and ``nu_tilde_*`` cell by cell, and its bisection to
the per-column loop it replaced, kept here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twomode import (
    Regime,
    m_opt_glems,
    m_opt_gmems,
    nu_tilde_glems,
    nu_tilde_gmems,
    ordering_compare,
    scan_ordering_3d,
    scan_ordering_slice,
)
from twomode.errors import DomainError
from twomode.extremal import (
    SCAN_LIMIT,
    _PARAM_TOL,
    _closed_forms,
    _crossings,
    _domain_error,
    _in_domain,
    _nu_tilde_columns,
    _ordering,
    _ordering_gap,
    glems_threshold,
)


def _same(x, y):
    """Equal bits, NaN matching any NaN."""
    return x == y or (math.isnan(x) and math.isnan(y))


def _nextafter(x, n):
    """``x`` moved by ``n`` ulps."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def _on_borders(s, d, g_kind, nudge):
    """A g on one of the lines where a rule switches, moved by ``nudge`` ulps."""
    g = {
        "gmemms": 2.0 * abs(d) + 1.0,
        "gmemms_tol": 2.0 * abs(d) + 1.0 + 1e-12,
        "gmems": 2.0 * s - 1.0,
        "glems": float(glems_threshold(s, d)),
        "fischer": (s - d) * (s + d),
    }[g_kind]
    return _nextafter(g, nudge)


@st.composite
def points(draw):
    """(s, d, g) over the domain and around it: one in four on a border
    (moved by at most 2 ulps), one in ten with a NaN coordinate."""
    s = 1.0 + draw(st.floats(0.0, 1e5))
    d = (s - 1.0) * draw(st.floats(-1.0, 1.0))
    kind = draw(st.sampled_from(["inside"] * 6 + ["border"] * 3 + ["nan"]))
    if kind == "border":
        g = _on_borders(s, d, draw(st.sampled_from(
            ["gmemms", "gmemms_tol", "gmems", "glems", "fischer"])), draw(st.integers(-2, 2)))
    else:
        lo, hi = 2.0 * abs(d) + 1.0, max(2.0 * abs(d) + 1.0, (s - d) * (s + d))
        g = lo + (hi - lo) * draw(st.floats(-0.05, 1.05))
    if kind == "nan":
        coords = [s, d, g]
        coords[draw(st.integers(0, 2))] = math.nan
        s, d, g = coords
    return s, d, g


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(points(), min_size=1, max_size=40))
# g = 1 at d = 0, where the GLEMS theta* cap divides by (g - 1)(g + 1)
@example(batch=[(1.0, 0.0, 1.0), (1.5, 0.0, 1.0), (1e5, 0.0, 1.0)])
# g = 2|d| + 1 = 2s - 1, where both GLEMS roots vanish
@example(batch=[(3.0, 2.0, 5.0), (3.0, -2.0, 5.0)])
# a hair above s = 1, where every window is about 1e-13 wide
@example(batch=[(1.0 + 1e-13, 0.0, 1.0), (1.0 + 1e-13, 0.0, 1.0 + 1e-13)])
# outside the domain, where 2(s^2 + d^2) - 1 < 0 and where (g + 1)s + sqrt(P) = 0
@example(batch=[(0.5, 0.0, 1.0), (-1.0, 0.0, 0.0)])
# ints and NumPy floats give the Python floats of the float call
@example(batch=[(2, 0, 2), (3, 2, 5), (5, 1, 4),
                (np.float64(2.0), np.float64(0.5), np.float64(2.5))])
def test_batched_core_equals_per_point_calls(batch):
    s, d, g = (np.array(column, dtype=float) for column in zip(*batch))
    m_g, m_l, code = _ordering(s, d, g)
    fam_g, fam_l, _ = _closed_forms(s, d, g)
    for k, (sk, dk, gk) in enumerate(batch):
        verdict = ordering_compare(sk, dk, gk)
        assert type(verdict.m_gmems) is type(verdict.m_glems) is float
        assert _same(verdict.m_gmems, m_g[k]) and _same(verdict.m_glems, m_l[k])
        assert verdict.regime is [Regime.UNPHYSICAL, Regime.BOTH_SEPARABLE, Regime.COEXISTENCE,
                                  Regime.ORDERING_PRESERVED, Regime.ORDERING_INVERTED][code[k]]
        if _domain_error(sk, dk, gk) is None:
            m_gmems, m_glems = m_opt_gmems(sk, dk, gk), m_opt_glems(sk, dk, gk)
            assert type(m_gmems) is type(m_glems) is float
            assert m_gmems == fam_g[k] and m_glems == fam_l[k]
        else:
            assert verdict.regime is Regime.UNPHYSICAL
            assert math.isnan(verdict.m_gmems) and math.isnan(verdict.m_glems)
            with pytest.raises(DomainError):
                m_opt_gmems(sk, dk, gk)
        if any(math.isnan(x) for x in (sk, dk, gk)):
            assert verdict.regime is Regime.UNPHYSICAL


def _assert_cells_match_scalars(cells):
    for cell in cells:
        verdict = ordering_compare(cell.s, cell.d, cell.g)
        assert cell.regime is verdict.regime
        assert _same(cell.m_gmems, verdict.m_gmems) and _same(cell.m_glems, verdict.m_glems)
        if verdict.regime is Regime.UNPHYSICAL:
            assert math.isnan(cell.nu_tilde_gmems) and math.isnan(cell.nu_tilde_glems)
        else:
            assert _same(cell.nu_tilde_gmems, nu_tilde_gmems(cell.s, cell.d, cell.g))
            assert _same(cell.nu_tilde_glems, nu_tilde_glems(cell.s, cell.d, cell.g))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(batch=st.lists(points(), min_size=1, max_size=40))
# g = 2s - 1 -+ the domain tolerance, where the GLEMS column ends
@example(batch=[(3.0, 0.5, 5.0 - 1e-12), (3.0, 0.5, 5.0 + 1e-12),
                (3.0, 0.5, _nextafter(5.0 + 1e-12, 1)), (3.0, 2.0, 5.0 + 1e-12)])
# the GMEMMS line g = 2|d| + 1, and |d| = s - 1 with g on both lines
@example(batch=[(3.0, 1.5, 4.0), (3.0, -1.5, 4.0), (3.0, 2.0, 5.0), (3.0, -2.0, 5.0)])
# g -> 1+ at purity
@example(batch=[(1.0, 0.0, 1.0), (1.0 + 1e-13, 0.0, 1.0 + 1e-13),
                (1.5, 0.0, _nextafter(1.0, 1))])
# s ~ 1e5 near each threshold, and the scans' largest magnitudes
@example(batch=[(1e5, 3e4, 6e4 + 1.0), (1e5, 3e4, 2e5 - 1.0),
                (1e5, 0.0, float(glems_threshold(1e5, 0.0))), (SCAN_LIMIT, 0.0, SCAN_LIMIT),
                (SCAN_LIMIT, SCAN_LIMIT - 1.0, 2.0 * SCAN_LIMIT - 1.0),
                (SCAN_LIMIT, -0.5 * SCAN_LIMIT, 1.5 * SCAN_LIMIT)])
def test_nu_tilde_columns_equal_per_point_calls(batch):
    s, d, g = (np.array(column, dtype=float) for column in zip(*batch))
    physical = _in_domain(s, d, g)
    nu_g, nu_l = _nu_tilde_columns(s, d, g, physical)
    for k, (sk, dk, gk) in enumerate(batch):
        if physical[k]:
            # the columns have a value wherever the family has a state
            assert not math.isnan(nu_g[k])
            assert math.isnan(nu_l[k]) == (gk > 2.0 * sk - 1.0 + _PARAM_TOL)
            assert _same(nu_g[k], nu_tilde_gmems(sk, dk, gk))
            assert _same(nu_l[k], nu_tilde_glems(sk, dk, gk))
        else:
            assert math.isnan(nu_g[k]) and math.isnan(nu_l[k])


def test_slice_cells_equal_scalar_calls():
    cells, _ = scan_ordering_slice(5.0, (1.0, 5.0), (1.0, 9.0), 60)
    assert len(cells) == 60 * 60
    _assert_cells_match_scalars(cells)


def test_large_s_window_cells_equal_scalar_calls():
    cells, _ = scan_ordering_3d((87307.69230769231, 87400.0), (-2564.1025641025626, -2500.0),
                                (123077.30769230769, 123100.0), 4)
    assert {cell.regime for cell in cells} - {Regime.UNPHYSICAL}
    _assert_cells_match_scalars(cells)


def _boundary_in_column(s, d):
    """The per-column bisection the batched one replaced."""
    lo = 2.0 * abs(d) + 1.0
    hi = math.sqrt(2.0 * (s * s + d * d) - 1.0)
    if hi - lo <= 4e-9:
        return []
    samples = 64
    crossings = []
    gs = [lo + (hi - lo) * (i + 0.5) / samples for i in range(samples)]
    gaps = [float(_ordering_gap(s, d, g)) for g in gs]
    for i in range(samples - 1):
        if gaps[i] == 0.0:
            crossings.append(gs[i])
        elif gaps[i] * gaps[i + 1] < 0.0:
            a, b = gs[i], gs[i + 1]
            fa = gaps[i]
            while b - a > 1e-9:
                mid = 0.5 * (a + b)
                fm = float(_ordering_gap(s, d, mid))
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            crossings.append(0.5 * (a + b))
    return crossings


@pytest.mark.parametrize("scan, args", [
    (scan_ordering_slice, (5.0, (1.0, 5.0), (1.0, 9.0), 60)),
    (scan_ordering_3d, ((1.5, 5.0), (-2.0, 2.0), (1.0, 9.0), 12)),
    (scan_ordering_3d, ((87307.69230769231, 87400.0), (-2564.1025641025626, -2500.0),
                        (123077.30769230769, 123100.0), 3)),
])
def test_boundary_equals_the_per_column_loop(scan, args):
    cells, boundary = scan(*args)
    columns = dict.fromkeys((cell.s, cell.d) for cell in cells)
    expected = [(s, d, g) for s, d in columns
                if _domain_error(s, d, 2.0 * abs(d) + 1.0) is None
                for g in _boundary_in_column(s, d)]
    assert boundary
    assert [tuple(p) for p in boundary] == expected


def test_bisection_stops_where_no_double_lies_between():
    # near g ~ 1e7 a bracket can close to adjacent doubles above 1e-9 apart;
    # the per-column loop then never ended
    s = np.array([1e7, 1.3e8])
    d = 0.5 * (s - 1.0)
    col, g = _crossings(s, d)
    assert col.tolist() == [0, 1]
    lo = 2.0 * np.abs(d) + 1.0
    assert np.all((lo < g) & (g < glems_threshold(s, d)))
    below, above = np.nextafter(g, -np.inf), np.nextafter(g, np.inf)
    assert np.all(_ordering_gap(s, d, below) * _ordering_gap(s, d, above) <= 0.0)


@pytest.mark.parametrize("scan, args, message", [
    (scan_ordering_slice, (1e200, (1.0, 5.0), (1.0, 9.0)), "fixed a must be finite and at most"),
    (scan_ordering_slice, (math.nan, (1.0, 5.0), (1.0, 9.0)), "fixed a must be finite"),
    (scan_ordering_slice, (5.0, (1e199, 1e200), (1.0, 9.0)), "axis range must be finite and"),
    (scan_ordering_slice, (5.0, (1.0, 5.0), (1.0, 2.0 * SCAN_LIMIT)), "at most 1e+12 in magnitude"),
    (scan_ordering_3d, ((1.0, 5.0), (-SCAN_LIMIT * 1.5, 0.0), (1.0, 9.0)), "axis range"),
    (scan_ordering_3d, ((1.0, math.inf), (0.0, 1.0), (1.0, 9.0)), "axis range"),
])
def test_scan_endpoints_beyond_the_limit_raise(scan, args, message):
    with pytest.raises(DomainError, match=message.replace("+", r"\+")):
        scan(*args, resolution=4)


@pytest.mark.parametrize("scan, args", [
    (scan_ordering_slice, (5.0, (1.0, 5.0), (1.0, 9.0))),
    (scan_ordering_3d, ((1.5, 5.0), (-2.0, 2.0), (1.0, 9.0))),
])
@pytest.mark.parametrize("resolution", [3.5, 2.5, 5.0, "5"])
def test_scans_reject_a_non_integer_resolution(scan, args, resolution):
    # a float once went on to numpy: 3.5 failed to broadcast (16,) with
    # (12,), and bound_curves(2.5) drew 3 rows
    with pytest.raises(DomainError, match="resolution must be an integer"):
        scan(*args, resolution=resolution)
    with pytest.raises(DomainError, match="resolution must be at least 2"):
        scan(*args, resolution=1)
    cells, _ = scan(*args, resolution=np.int64(3))
    assert len(cells) == (9 if scan is scan_ordering_slice else 27)


def test_scans_at_the_limit_stay_finite():
    # every physical cell's closed forms and nu_tilde columns are finite, and
    # no floating-point warning is raised (they are errors in this suite)
    windows = [
        (scan_ordering_slice, (SCAN_LIMIT, (-SCAN_LIMIT, SCAN_LIMIT), (1.0, SCAN_LIMIT))),
        (scan_ordering_slice, (SCAN_LIMIT, (0.999 * SCAN_LIMIT, SCAN_LIMIT), (0.99 * SCAN_LIMIT,
                                                                            SCAN_LIMIT))),
        (scan_ordering_3d, ((0.5 * SCAN_LIMIT, SCAN_LIMIT), (-1e9, 1e9), (1.0, SCAN_LIMIT))),
    ]
    for scan, args in windows:
        cells, _ = scan(*args, resolution=8)
        physical = [c for c in cells if c.regime is not Regime.UNPHYSICAL]
        assert physical
        for c in physical:
            assert math.isfinite(c.m_gmems) and math.isfinite(c.m_glems)
            assert math.isfinite(c.nu_tilde_gmems)
