"""Extremal-negativity families of two-mode states and their orderings.

Entangled two-mode standard forms admit a parametrization by the average
local mixedness s, the mixedness asymmetry d, the global mixedness g, and a
residual coefficient lambda in [-1, +1]: the purities are
mu_1 = 1/(s+d), mu_2 = 1/(s-d), mu = 1/g.  At fixed purities, lambda = +1
gives the states of maximal negativity (GMEMS, nonsymmetric thermal
squeezed states) and lambda = -1 the states of minimal negativity (GLEMS,
partial minimum-uncertainty states with nu_minus = 1).  When g = 2|d| + 1
the two classes coalesce into the GMEMMS, fixed by the marginals alone.

Closed forms for the optimal single-mode determinant m of both families
allow comparing the ordering that Gaussian convex-roof measures induce
against the one the negativities induce, including the region where the two
orderings disagree.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .symplectic import _ARRAYS, _FLOATS, StandardForm, _nu_pair, _nu_pairs

_PARAM_TOL = 1e-12

#: Largest magnitude of a scan's axis endpoints and fixed a: ten million times
#: the documented range of s, and the closed forms' largest intermediate,
#: 64 (ab)^(3/2) g^2 in ``_m_glems``, stays below 1e62, far from overflow.
SCAN_LIMIT = 1e12


@dataclass(frozen=True)
class ExtremalParams:
    """Mixedness parametrization (s, d, g, lambda) of a standard form."""

    s: float
    d: float
    g: float
    lam: float

    def validate(self) -> None:
        _require_domain(self.s, self.d, self.g)
        if not -1.0 - _PARAM_TOL <= self.lam <= 1.0 + _PARAM_TOL:
            raise DomainError(f"constraint -1 <= lambda <= 1 violated (lambda = {self.lam!r})")


_CONSTRAINTS = (
    "constraint s >= 1 violated (s = {s!r})",
    "constraint |d| <= s - 1 violated (s = {s!r}, d = {d!r})",
    "constraint g >= 2|d| + 1 violated (d = {d!r}, g = {g!r})",
    "constraint g <= s^2 - d^2 violated (s = {s!r}, d = {d!r}, g = {g!r})",
    "s, d and g must be finite, got ({s!r}, {d!r}, {g!r})",
)


def _constraints(s, d, g):
    """The constraints on (s, d, g) in the order of ``_CONSTRAINTS``,
    elementwise for arrays; NaN fails each.  An infinite s meets the first
    four, so finiteness is the last; where those hold, s bounds |d| and
    s and g are bounded below, so s, g < inf is all it needs."""
    return (s >= 1.0 - _PARAM_TOL,
            abs(d) <= s - 1.0 + _PARAM_TOL,
            g >= 2.0 * abs(d) + 1.0 - _PARAM_TOL,
            g <= (s - d) * (s + d) + _PARAM_TOL,
            (s < math.inf) & (g < math.inf))


def _in_domain(s, d, g):
    """Elementwise: (s, d, g) satisfies every constraint."""
    holds = _constraints(s, d, g)
    return holds[0] & holds[1] & holds[2] & holds[3] & holds[4]


def _domain_error(s: float, d: float, g: float) -> str | None:
    """The first violated constraint on (s, d, g), or None inside the domain."""
    for holds, message in zip(_constraints(s, d, g), _CONSTRAINTS):
        if not holds:
            return message.format(s=s, d=d, g=g)
    return None


def _require_domain(s: float, d: float, g: float) -> None:
    problem = _domain_error(s, d, g)
    if problem is not None:
        raise DomainError(problem)


def _integer(name: str, value) -> int:
    """``value`` as an int, through ``operator.index``: DomainError for a
    float or any other non-integer, which numpy would take or broadcast."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


class Regime(enum.Enum):
    """Classification of one (s, d, g) cell of the extremal-ordering map."""

    ORDERING_PRESERVED = "ordering_preserved"
    ORDERING_INVERTED = "ordering_inverted"
    COEXISTENCE = "coexistence"
    BOTH_SEPARABLE = "both_separable"
    UNPHYSICAL = "unphysical"


@dataclass(frozen=True)
class OrderingVerdict:
    m_gmems: float
    m_glems: float
    regime: Regime


def gmems_threshold(s):
    """GMEMS are entangled iff g < 2s - 1 (elementwise for arrays)."""
    return 2.0 * s - 1.0


def glems_threshold(s, d):
    """GLEMS are entangled iff g < sqrt(2(s^2 + d^2) - 1) (elementwise for
    arrays)."""
    return _glems_threshold(s, d, _ARRAYS)


def _glems_threshold(s, d, xp):
    return xp.sqrt(2.0 * (s * s + d * d) - 1.0)


def entanglement_threshold(s, d, lam):
    """The state at (s, d, g, lambda) in the domain is entangled iff g is
    below this (elementwise for arrays); it is ``gmems_threshold`` at
    lambda = +1 and ``glems_threshold`` at lambda = -1.  Delta_tilde - 1 -
    g^2 is the concave quadratic C - (lambda + 1) g - (3 - lambda) g^2 / 2
    with C = 4s^2 + 2d^2 (1 - lambda) - (3 - lambda) / 2 >= 2, and this is
    its larger root, written as 2C / (sqrt(D) + lambda + 1) with
    D = (lambda + 1)^2 + 2 (3 - lambda) C, so that nothing cancels."""
    c = 4.0 * s * s + 2.0 * d * d * (1.0 - lam) - 0.5 * (3.0 - lam)
    return 2.0 * c / (np.sqrt((lam + 1.0) * (lam + 1.0) + 2.0 * (3.0 - lam) * c) + lam + 1.0)


def _shift(d: float, g: float, lam: float) -> float:
    """The lambda-dependent part of the invariants: Delta = -shift and
    Delta_tilde = 4(s^2 + d^2) + shift, with Det sigma = g^2."""
    return 0.5 * (g * g + 1.0) * (lam - 1.0) - (2.0 * d * d + g) * (lam + 1.0)


def _state(s, d, g, lam, xp=_ARRAYS):
    """``build_state``'s standard form (a, b, c_plus, c_minus) of every
    (s, d, g, lambda) under ``xp`` (as in ``_closed_forms``), its two
    square-root arguments, each with the mask where it is negative beyond
    tolerance (and taken as 0), and the mask where all of ``build_state``'s
    checks pass.  s is NaN outside the domain (no negative root)."""
    inside = _in_domain(s, d, g)
    fits = inside & (lam >= -1.0 - _PARAM_TOL) & (lam <= 1.0 + _PARAM_TOL)
    s = xp.where(inside, s, math.nan)
    shift = _shift(d, g, lam)
    four_g_sq = 4.0 * g * g
    roots, args = [], []
    for t in (4.0 * d * d + shift, 4.0 * s * s + shift):
        arg = t * t - four_g_sq
        scale = xp.maximum(xp.maximum(t * t, four_g_sq), 1.0)
        negative = arg < -1e-10 * scale
        fits = xp.where(negative, False, fits)
        args.append((arg, negative))
        # exactly zero at lambda = +1 and on the g = 2|d| + 1 line; rounding
        # noise under the square root would shift c_pm
        roots.append(xp.sqrt(xp.where(arg <= 1e-12 * scale, 0.0, arg)))
    norm = 4.0 * xp.sqrt(s * s - d * d)
    form = (s + d, s - d, (roots[0] + roots[1]) / norm, (roots[0] - roots[1]) / norm)
    return form, args, fits


def build_state(p: ExtremalParams) -> StandardForm:
    """Standard form (s + d, s - d, c_plus, c_minus) with purities
    (1/g, 1/(s+d), 1/(s-d)).

    The off-diagonal correlations are
    c_pm = [sqrt(Td^2 - 4g^2) +- sqrt(Ts^2 - 4g^2)] / (4 sqrt(s^2 - d^2))
    with Tx = 4x^2 + (g^2 + 1)(lambda - 1)/2 - (2d^2 + g)(lambda + 1).
    This is ``_state`` on floats.

    Raises:
        DomainError: when a constraint fails or either square-root argument
            is negative beyond tolerance (the parametrization covers
            entangled states; far into the separable region it leaves the
            real domain).
    """
    p.validate()
    s, d, g, lam = p.s, p.d, p.g, p.lam
    form, args, _ = _state(s, d, g, lam, _FLOATS)
    for (arg, negative), label in zip(args, ("Td^2 - 4g^2", "Ts^2 - 4g^2")):
        if negative:
            raise DomainError(
                f"square-root argument {label} = {arg:g} is negative: "
                f"(s, d, g, lambda) = ({s}, {d}, {g}, {lam}) is outside the "
                "real domain of the parametrization"
            )
    return StandardForm(*form)


def _gmems_pt(s, d, g):
    """(Delta_tilde, Det sigma, disc) of the GMEMS: 4s^2 - 2g, g^2
    and Delta_tilde^2 - 4g^2 = 16s^2 (s^2 - g), the last factor taken as
    (s-1)(s+1) - (g-1), free of cancellation near purity."""
    return 4.0 * s * s - 2.0 * g, g * g, 16.0 * s * s * ((s - 1.0) * (s + 1.0) - (g - 1.0))


def _glems_pt(s, d, g, xp=_ARRAYS):
    """(Delta_tilde, Det sigma, disc) of the GLEMS under ``xp``: disc is the
    product of the factors 4(s^2 + d^2) - (g +- 1)^2, written so that neither
    cancels, the first clamped at 0."""
    disc = (xp.maximum((2.0 * s - 1.0 - g) * (2.0 * s + 1.0 + g) + 4.0 * d * d, 0.0)
            * ((2.0 * s + 1.0 - g) * (2.0 * s - 1.0 + g) + 4.0 * d * d))
    return 4.0 * (s * s + d * d) - g * g - 1.0, g * g, disc


def nu_tilde_gmems(s: float, d: float, g: float) -> float:
    """Smallest PT symplectic eigenvalue of the GMEMS at (s, d, g); outside
    the domain, DomainError."""
    _require_domain(s, d, g)
    return _nu_pair(*_gmems_pt(s, d, g))[0]


def nu_tilde_glems(s: float, d: float, g: float) -> float:
    """Smallest PT symplectic eigenvalue of the GLEMS at (s, d, g), NaN for
    g > 2s - 1 (no state); outside the domain, DomainError.  A g within the
    domain tolerance above 2s - 1 (where |d| = s - 1 puts the GMEMMS edge on
    it) is kept."""
    _require_domain(s, d, g)
    if g > gmems_threshold(s) + _PARAM_TOL:
        return math.nan
    return _nu_pair(*_glems_pt(s, d, g, _FLOATS))[0]


def _m_gmems(s, d, g, xp=_ARRAYS):
    """m_opt of an entangled GMEMS (g < 2s - 1), elementwise under ``xp``;
    see ``m_opt_gmems``.  The clamps absorb the domain tolerance and the last
    rounding at threshold.  Squares are products: Python's float ``**``
    calls libm ``pow``, which misrounds some squares."""
    edge = xp.maximum((g - 1.0 - 2.0 * d) * (g - 1.0 + 2.0 * d), 0.0)
    root = xp.sqrt(edge * xp.maximum((s - d) * (s + d) - g, 0.0))
    q = (4.0 * s * s + edge) / (2.0 * ((g + 1.0) * s + root))
    return xp.maximum(q * q, 1.0)


def m_opt_gmems(s: float, d: float, g: float) -> float:
    """Closed-form optimal single-mode determinant for GMEMS.

    m = 1 for g >= 2s - 1 (separable), otherwise
    {(g+1)s - sqrt(P)}^2 / [4(d^2 + g)^2], P = [(g-1)^2 - 4d^2](s^2 - d^2 - g).
    That difference loses about s eps, so it is evaluated rationalized, as
    m = {(4s^2 + (g-1)^2 - 4d^2) / [2((g+1)s + sqrt(P))]}^2, by
    (g+1)^2 s^2 - P = (d^2 + g)(4s^2 + (g-1)^2 - 4d^2).  The factor
    (g-1)^2 - 4d^2 = (g-1-2d)(g-1+2d) is >= 0 as g >= 2|d| + 1, and exact
    where it vanishes (g - 1 and, by Sterbenz's lemma, g - 1 - 2|d| are);
    s^2 - d^2 - g > (s-1)^2 - d^2 >= 0 as g < 2s - 1.
    """
    _require_domain(s, d, g)
    return _closed_forms(float(s), float(d), float(g), _FLOATS)[0]


def _m_glems(s, d, g, xp=_ARRAYS):
    """m_opt of an entangled GLEMS (g < min(2s - 1, g_thr)) under ``xp``;
    see ``m_opt_glems``.  w is NaN where theta* is not taken (no 0 / 0)."""
    x = xp.sqrt(xp.maximum((g + 1.0 - 2.0 * d) * (g + 1.0 + 2.0 * d)
                           * ((g - 1.0 - 2.0 * d) * (g - 1.0 + 2.0 * d)), 0.0))
    y = xp.sqrt(xp.maximum((2.0 * s + 1.0 + g) * (2.0 * s - 1.0 + g)
                           * ((2.0 * s + 1.0 - g) * (2.0 * s - 1.0 - g)), 0.0))
    ab = (s + d) * (s - d)
    root_ab = xp.sqrt(ab)
    c_abs = 2.0 * root_ab * (2.0 * (s * s + d * d) - 1.0 - g * g) / (x + y)
    v = root_ab + c_abs
    k = 64.0 * ab * root_ab * g * g / (v * (4.0 * ab + x + y))
    u = (x + xp.sqrt(x * x + k)) / (4.0 * root_ab)
    m = 1.0 + c_abs * c_abs / (u * v)
    theta_star = (g > 1.0 + _PARAM_TOL) & (d * d * y >= s * s * x)
    w = xp.where(theta_star, (g - 1.0) * (g + 1.0), math.nan)
    at_theta_star = xp.maximum(xp.minimum(m, 16.0 * s * s * d * d / (w * w)), 1.0)
    return xp.where(theta_star, at_theta_star, m)


def m_opt_glems(s: float, d: float, g: float) -> float:
    """Closed-form optimal single-mode determinant for GLEMS.

    m = 1 for g >= g_thr = sqrt(2(s^2 + d^2) - 1) (separable).  Below it,
    with a, b = s +- d, R_d = [(g+1)^2 - 4d^2][(g-1)^2 - 4d^2] and
    R_s = [(2s+1)^2 - g^2][(2s-1)^2 - g^2], the state has Det sigma = g^2
    and c_pm = (sqrt(R_d) +- sqrt(R_s)) / (4 sqrt(ab)); its profile
    m(theta) = 1 + (A cos theta + B)^2 / [2 dq ((g^2-1) cos theta + g^2+1)],
    dq = ab - c_minus^2, A, B = c_plus dq +- c_minus, has its global minimum
    at theta = pi or at cos theta* = B/A - 2(g^2+1)/(g^2-1):
    - theta* exists iff g > 1 and d^2 sqrt(R_s) >= s^2 sqrt(R_d), which is
      cos theta* >= -1; cos theta* <= 1 and A > 0 reduce to sums of
      non-negative terms, as 2|d| + 1 <= g < 2s - 1;
      there m = 16 s^2 d^2 / [(g-1)(g+1)]^2 (g^2 - 1 cancels near purity);
    - at theta = pi, m_pi = ab/dq = 1 + c_minus^2/(u v) with
      u, v = sqrt(ab) -+ |c_minus|, and theta = 0 never undercuts it.
    No step subtracts large terms.  R_d - R_s = 8ab(g^2 - g_thr^2) gives
    |c_minus| = 2 sqrt(ab)(g_thr^2 - g^2) / (x + y), x, y = sqrt(R_d),
    sqrt(R_s).  As 16ab dq = (4ab - y + x)(4ab + y - x) and
    16ab(ab - c_plus^2) = (4ab - y - x)(4ab + y + x), Det sigma =
    (ab - c_plus^2) dq makes the small factors P = 4 sqrt(ab) u and P - 2x
    multiply to K = 64 (ab)^(3/2) g^2 / [v (4ab + x + y)], so
    P = x + sqrt(x^2 + K).  The linear factors of R_d and R_s are >= 0 as
    g >= 2|d| + 1 and g < g_thr <= 2s - 1, and g - 1 -+ 2d are exact where
    they vanish.  The clamps absorb the domain tolerance, in which g_thr can
    pass 2s - 1: g >= 2s - 1 is separable too (GMEMS entangle the most).
    """
    _require_domain(s, d, g)
    return _closed_forms(float(s), float(d), float(g), _FLOATS)[1]


def m_opt_gmemms(s: float, nu_tilde_minus: float) -> float:
    """Optimal single-mode determinant of the maximal-negativity-at-fixed-
    marginals states, as a function of s and their PT eigenvalue:
    (2s / (1 - nu^2 + 2 nu s))^2, increasing in s."""
    nu = float(nu_tilde_minus)
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu_tilde_minus must lie in (0, 1), got {nu!r}")
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    s_min = (1.0 + nu * nu) / (2.0 * nu)
    if s < s_min - 1e-12 * s_min:
        raise DomainError(
            f"s = {s!r} below the minimum {s_min:g} admitting |d| >= 0 at nu = {nu}"
        )
    return (2.0 * s / (1.0 - nu * nu + 2.0 * nu * s)) ** 2


def m_max(nu_tilde_minus: float) -> float:
    """Large-s limit of the family above: 1 / nu^2, the conjectured ceiling
    for the optimal single-mode determinant at fixed negativity."""
    nu = float(nu_tilde_minus)
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu_tilde_minus must lie in (0, 1), got {nu!r}")
    return 1.0 / (nu * nu)


#: Regime of each code ``_ordering`` returns, by index.
_REGIMES = (Regime.UNPHYSICAL, Regime.BOTH_SEPARABLE, Regime.COEXISTENCE,
            Regime.ORDERING_PRESERVED, Regime.ORDERING_INVERTED)


def _closed_forms(s, d, g, xp=_ARRAYS):
    """(m_gmems, m_glems, kind) of every (s, d, g) under ``xp``: ``_ARRAYS``
    for arrays, ``_FLOATS`` for floats.  The kind is 0 outside the domain (NaN
    included; both m NaN), 1 where both families are separable, 2 where only
    the GLEMS is, 3 where both are entangled; a separable family's m is 1.
    No branch divides by 0 or takes a negative root: s is NaN outside the
    domain, and for ``_m_glems`` where kind < 3 (``_m_gmems``'s divisor exceeds 2s)."""
    inside = _in_domain(s, d, g)
    s = xp.where(inside, s, math.nan)
    kind = xp.where(g >= gmems_threshold(s), 1, xp.where(g >= _glems_threshold(s, d, xp), 2, 3))
    kind = xp.where(inside, kind, 0)
    m_g = xp.where(kind >= 2, _m_gmems(s, d, g, xp), 1.0)
    m_l = xp.where(kind == 3, _m_glems(xp.where(kind == 3, s, math.nan), d, g, xp), 1.0)
    return xp.where(inside, m_g, math.nan), xp.where(inside, m_l, math.nan), kind


def _ordering(s, d, g, xp=_ARRAYS):
    """(m_gmems, m_glems, regime code) of every (s, d, g), elementwise under
    ``xp``; the code indexes ``_REGIMES`` (the kinds of ``_closed_forms``,
    with 3 split into preserved and inverted).  On the GMEMMS line
    g = 2|d| + 1 the families are one state: m_glems = m_gmems, a tie that
    counts as preserved."""
    m_g, m_l, code = _closed_forms(s, d, g, xp)
    m_l = xp.where((code == 3) & (g <= 2.0 * abs(d) + 1.0 + _PARAM_TOL), m_g, m_l)
    return m_g, m_l, xp.where(code == 3, xp.where(m_g >= m_l, 3, 4), code)


def ordering_compare(s: float, d: float, g: float) -> OrderingVerdict:
    """Compare the Gaussian-measure ordering of the two extremal families at
    one purity assignment.  On the GMEMMS line g = 2|d| + 1 they are one
    state: m_glems = m_gmems, and the ordering counts as preserved."""
    m_g, m_l, code = _ordering(float(s), float(d), float(g), _FLOATS)
    return OrderingVerdict(m_g, m_l, _REGIMES[code])


class ScanCell(NamedTuple):
    s: float
    d: float
    g: float
    m_gmems: float
    m_glems: float
    nu_tilde_gmems: float
    nu_tilde_glems: float
    regime: Regime


class BoundaryPoint(NamedTuple):
    s: float
    d: float
    g: float


def _same_values(x: list, y: list) -> bool:
    return x == y or len(x) == len(y) and all(
        a == b or a != a and b != b for a, b in zip(x, y))


@dataclass(frozen=True, eq=False)
class ColumnTable:
    """Rows of the NamedTuple class ``row``, held as ``columns``: one list
    of Python scalars per field, in field order.  ``==`` compares every
    value, NaN matching NaN, and iterating builds the rows."""

    row: type
    columns: list[list]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self.row._make, zip(*self.columns))

    def __eq__(self, other):
        if not isinstance(other, ColumnTable):
            return NotImplemented
        return self.row is other.row and all(map(_same_values, self.columns, other.columns))


def _ordering_gap(s, d, g):
    return _m_gmems(s, d, g) - _m_glems(s, d, g)


#: Evenly spaced g samples per column at which the crossings are bracketed.
_SAMPLES = 64


def _crossings(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(column, g) of every g where the two closed forms cross, over the
    columns (s, d), in column order and then in g: the window
    2|d| + 1 < g < g_thr of each column, where both families are entangled,
    is sampled at ``_SAMPLES`` midpoints, and each sign change is bisected
    to 1e-9, all columns' brackets in one loop.  A sample where the gap is
    exactly 0 is a crossing itself.  A bracket also stops when its midpoint
    rounds to an end (no double lies between them, as happens from
    g ~ 1e7 on)."""
    lo = 2.0 * abs(d) + 1.0
    hi = glems_threshold(s, d)
    wide = np.flatnonzero(hi - lo > 4e-9)
    s, d, lo, hi = s[wide, None], d[wide, None], lo[wide, None], hi[wide, None]
    gs = lo + (hi - lo) * (np.arange(_SAMPLES) + 0.5) / _SAMPLES
    gaps = _ordering_gap(s, d, gs)
    sign_change = gaps[:, :-1] * gaps[:, 1:] < 0.0
    col, i = np.nonzero(sign_change)
    a, b, fa = gs[col, i], gs[col, i + 1], gaps[col, i]
    s, d = s[col, 0], d[col, 0]
    active = np.flatnonzero(b - a > 1e-9)
    # each bracket takes the steps of bisecting it alone: an exact zero
    # closes it on the midpoint, else the midpoint replaces the end whose
    # gap has the midpoint's sign
    while active.size:
        a_k, b_k, fa_k = a[active], b[active], fa[active]
        mid = 0.5 * (a_k + b_k)
        fm = _ordering_gap(s[active], d[active], mid)
        hit = fm == 0.0
        left = fa_k * fm < 0.0
        a[active] = np.where(hit | ~left, mid, a_k)
        b[active] = np.where(hit | left, mid, b_k)
        fa[active] = np.where(left, fa_k, fm)
        stuck = (mid == a_k) | (mid == b_k)
        active = active[~(hit | stuck) & (b[active] - a[active] > 1e-9)]
    found = gs[:, :-1].copy()
    found[col, i] = 0.5 * (a + b)
    col, i = np.nonzero(sign_change | (gaps[:, :-1] == 0.0))
    return wide[col], found[col, i]


def _nu_tilde_columns(s, d, g, physical):
    """``nu_tilde_gmems`` and ``nu_tilde_glems`` of every (s, d, g) where
    ``physical``, NaN elsewhere, bit for bit: each family's invariants go
    through ``_nu_pairs`` with s NaN where it has no value.  Where it has
    one, ``_nu_pairs`` gives a number, as the float call does: the GMEMS
    discriminant is at least -16 s^2 ``_PARAM_TOL``, inside the clamp; for
    g <= 2s - 1 + ``_PARAM_TOL`` the GLEMS discriminant's second factor and
    Delta_tilde are positive; Det sigma = g^2; and ``SCAN_LIMIT`` keeps
    s^4 far from overflow."""
    s_g = np.where(physical, s, math.nan)
    s_l = np.where(g > gmems_threshold(s_g) + _PARAM_TOL, math.nan, s_g)
    return [_nu_pairs(*pt(s_f, d, g)) for s_f, pt in ((s_g, _gmems_pt), (s_l, _glems_pt))]


def _axis(rng: tuple[float, float], resolution: int) -> np.ndarray:
    if _integer("resolution", resolution) < 2:
        raise DomainError("resolution must be at least 2")
    if not (abs(rng[0]) <= SCAN_LIMIT and abs(rng[1]) <= SCAN_LIMIT):
        raise DomainError(f"axis range must be finite and at most {SCAN_LIMIT:g} in "
                          f"magnitude, got {tuple(rng)!r}")
    return rng[0] + (rng[1] - rng[0]) * np.arange(resolution) / (resolution - 1)


def _scan_columns(
    s: np.ndarray,
    d: np.ndarray,
    g_range: tuple[float, float],
    resolution: int,
) -> tuple[ColumnTable, ColumnTable]:
    """Cells of every column (s[k], d[k]) over the g axis, row-major, and
    the bisected crossings of each column whose GMEMMS line is valid, as
    tables.  The closed forms, regimes, crossings and nu_tilde columns are
    computed on whole arrays."""
    gs = _axis(g_range, resolution)
    lines = np.flatnonzero(_in_domain(s, d, 2.0 * abs(d) + 1.0))
    col, g_boundary = _crossings(s[lines], d[lines])
    col = lines[col]
    boundary = ColumnTable(BoundaryPoint, [s[col].tolist(), d[col].tolist(),
                                           g_boundary.tolist()])
    s_all, d_all, g_all = np.repeat(s, resolution), np.repeat(d, resolution), np.tile(gs, len(s))
    m_g, m_l, code = _ordering(s_all, d_all, g_all)
    nu = [nu_f.tolist() for nu_f in _nu_tilde_columns(s_all, d_all, g_all, code != 0)]
    # the cells of a grid column share the float objects of its s and d
    s_cells, d_cells = ([x for x in column.tolist() for _ in range(resolution)]
                        for column in (s, d))
    regimes = list(map(_REGIMES.__getitem__, code.tolist()))
    cells = ColumnTable(ScanCell, [s_cells, d_cells, gs.tolist() * len(s), m_g.tolist(),
                                   m_l.tolist(), *nu, regimes])
    return cells, boundary


def scan_ordering_slice(
    fixed_a: float,
    b_range: tuple[float, float],
    g_range: tuple[float, float],
    resolution: int = 200,
) -> tuple[ColumnTable, ColumnTable]:
    """Classify a (b, g) grid at fixed local mixedness a of mode 1.

    Returns the row-major table of ``ScanCell`` (b slow axis, g fast axis)
    and the table of ``BoundaryPoint`` on the bisected polyline where the
    two closed forms agree.  The polyline covers each column's whole
    entangled window 2|d| + 1 < g < sqrt(2(s^2 + d^2) - 1), not only
    ``g_range``.  An endpoint or a beyond
    ``SCAN_LIMIT`` in magnitude, or a non-integer ``resolution``, raises
    DomainError.
    """
    b = _axis(b_range, resolution)
    if not abs(fixed_a) <= SCAN_LIMIT:
        raise DomainError(
            f"fixed a must be finite and at most {SCAN_LIMIT:g} in magnitude, got {fixed_a!r}")
    return _scan_columns(0.5 * (fixed_a + b), 0.5 * (fixed_a - b), g_range, resolution)


def scan_ordering_3d(
    s_range: tuple[float, float],
    d_range: tuple[float, float],
    g_range: tuple[float, float],
    resolution: int = 48,
) -> tuple[ColumnTable, ColumnTable]:
    """Classify an (s, d, g) grid; the same two tables as the fixed-a slice,
    with the boundary bisected in g for every (s, d) pair (s slowest) over
    its whole entangled window, not only ``g_range``."""
    s = _axis(s_range, resolution)
    d = _axis(d_range, resolution)
    return _scan_columns(np.repeat(s, resolution), np.tile(d, resolution), g_range, resolution)
