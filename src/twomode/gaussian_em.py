"""Gaussian convex-roof entanglement of two-mode states.

A Gaussian entanglement measure of a mixed state is the pure-state
entanglement of the least entangled pure Gaussian state whose covariance
matrix fits under the mixed one.  In standard form the mixed matrix splits
into a position block gamma_q and a momentum block gamma_p, and every
admissible pure state is described by a single 2x2 matrix Gamma with
gamma_p^{-1} <= Gamma <= gamma_q.  Writing Gamma in the Pauli basis,
Gamma = [[x0 + x3, x1], [x1, x0 - x3]], the coefficients (x0, x1, x3) act as
coordinates in a 3d Minkowski space where each ordering constraint carves
out a light cone; the optimum saturates both, so it lies on the rim where
the two cones intersect.  That rim is an ellipse, a circle of radius k/2
after boosting along the axis joining the cone apexes, and the polar angle
theta on that circle is the single optimization variable.

The quantity minimized is the single-mode determinant of the pure state,
m = 1 + x1^2 / det Gamma, since every pure-state entanglement monotone is an
increasing function of m.  ``m_theta`` evaluates the closed-form profile
m(theta); ``gamma_from_theta`` builds the rim point itself and is the
independent geometric cross-check for that closed form.  ``minimize_m``
finds the minimum exactly: the stationary angles of m(theta) are the real
roots of a quartic in tan(theta/2), so the profile has at most four extrema
per period and is evaluated only at those angles.  From the minimum,
nu_tilde = sqrt(m) - sqrt(m - 1) is the partially-transposed symplectic
eigenvalue of the optimal pure state and h(nu_tilde) its entanglement of
formation.

``minimize_m`` and ``minimize_columns`` run one body: the gate (spectrum,
physicality, near-separable cut, symmetric closed form), the sign ordering,
``_ThetaProfile.of`` and the optimum are each written once against a
namespace ``xp``.  ``minimize_m`` passes one form's Python floats
(``_FLOATS``, ``math``), so a single call pays no array overhead;
``minimize_columns`` passes a block's columns (``_ARRAYS``, NumPy), whose
branches are masks.  Both take the roots of the stationary quartics from
``np.linalg.eigvals`` of their companion matrices (``np.roots`` for the
degenerate quartics of pure and minimum-uncertainty forms) and evaluate m
with NumPy's trigonometry, so both give the same bits.  A block row that
fails the gate's mask, a missing nu_tilde_minus included, falls back on
``minimize_m``'s float route, which computes its spectrum, so each error
keeps its type and message; a row whose profile is not finite at its
stationary angles gets its ``MinimizationError`` in the block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass
from functools import reduce
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import extremal
from .errors import DomainError, MinimizationError, TwoModeError, UnphysicalStateError
from .negativity import _log_divisor, h_function
from .symplectic import SYMMETRY_RTOL, StandardForm, _dets, _inequalities

#: States with nu_tilde_minus inside [1 - this, 1] are treated as separable
#: by the minimizer, which then returns m_opt = 1 exactly.
NEAR_SEPARABLE_TOL = 1e-8

#: Square-root arguments in the angular profile may round slightly below
#: zero exactly on feasibility boundaries; a rim radius R this close to zero
#: (relative) is degenerate, and the sign-order check allows this much slack.
SQRT_CLAMP = 1e-12

_ETA = np.array([1.0, -1.0, -1.0])  # Minkowski metric signature (+, -, -)
_SUBDIAGONAL = np.eye(4, k=-1)  # companion matrices of quartics, first row aside

#: The one body's ``xp`` on one form's floats: ``extremal._FLOATS``, and the
#: cube as Python's float power.
_FLOATS = SimpleNamespace(**vars(extremal._FLOATS), cube=lambda x: x**3)
#: Its ``xp`` on a block's columns: NumPy, except the cube.  NumPy's array
#: power equals Python's float power on only about 97% of doubles (and
#: x*x*x on 74%), so each entry is cubed as a Python float.
_ARRAYS = SimpleNamespace(sqrt=np.sqrt, maximum=np.maximum, where=np.where,
                          cube=lambda x: np.array([v**3 for v in x.tolist()]))


@dataclass(frozen=True)
class GammaCoordinates:
    """Minkowski coordinates of a pure-state position block Gamma."""

    x0: float
    x1: float
    x3: float

    def det(self) -> float:
        return self.x0 * self.x0 - self.x1 * self.x1 - self.x3 * self.x3

    def to_matrix(self) -> np.ndarray:
        return np.array([
            [self.x0 + self.x3, self.x1],
            [self.x1, self.x0 - self.x3],
        ])

    def single_mode_determinant(self) -> float:
        """m = 1 + x1^2 / det Gamma of the pure state Gamma (+) Gamma^{-1}."""
        d = self.det()
        if d <= 0.0:
            raise DomainError(f"Gamma is not positive definite (det = {d:g})")
        return 1.0 + self.x1 * self.x1 / d


@dataclass(frozen=True)
class GemResult:
    """Outcome of the angular minimization for one state."""

    m_opt: float
    theta_opt: float
    nu_tilde_opt: float
    gaussian_eof: float
    extrema_found: int


def nu_tilde_from_m(m: float) -> float:
    """sqrt(m) - sqrt(m - 1), the PT eigenvalue of a pure state with
    single-mode determinant m; evaluated as 1/(sqrt(m) + sqrt(m-1))."""
    if m < 1.0:
        raise DomainError(f"single-mode determinant must be >= 1, got {m!r}")
    return _nu_of_m(m, _FLOATS)


def _nu_of_m(m, xp):
    return 1.0 / (xp.sqrt(m) + xp.sqrt(m - 1.0))


def m_from_nu_tilde(nu: float) -> float:
    """Inverse of ``nu_tilde_from_m``: m = ((nu + 1/nu) / 2)^2."""
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu_tilde must lie in (0, 1], got {nu!r}")
    return _m_of_nu(nu)


def _m_of_nu(nu):
    half_sum = 0.5 * (nu + 1.0 / nu)
    return half_sum * half_sum


def _gate(a, b, cp, cm, nu, near_separable_tol: float, xp):
    """``minimize_m``'s checks before the rim, on the floats of one form or
    the columns of a block (``xp``), with nu = its nu_tilde_minus: where the
    form passes (nu is a number and ``StandardForm.is_physical(1e-9)``
    holds), where it is near separable (m_opt = 1) and where symmetric
    (m_opt = ``m_from_nu_tilde(nu)``)."""
    passes = (nu == nu) & reduce(operator.and_, _inequalities(a, b, cp, cm, 1e-9))
    return (passes, nu >= 1.0 - near_separable_tol,
            abs(a - b) <= SYMMETRY_RTOL * xp.maximum(a, b))


def _scalar_gate(sf: StandardForm, nu: float = math.nan,
                 near_separable_tol: float = NEAR_SEPARABLE_TOL) -> tuple[float, bool, bool]:
    """``_gate`` of one form, with nu_tilde_minus taken from its spectrum
    unless the caller has it (``nu`` is not NaN), so that a form without one
    fails there first: nu_tilde_minus and the separable and symmetric
    verdicts.  Raises UnphysicalStateError where the form does not pass.
    Physicality is decided on polynomial inequalities: for pure states
    nu_minus itself sits on a vanishing discriminant and carries
    sqrt-amplified rounding noise."""
    if nu != nu:
        nu = sf.spectrum().nu_tilde_minus
    passes, separable, symmetric = _gate(sf.a, sf.b, sf.c_plus, sf.c_minus, nu,
                                         near_separable_tol, _FLOATS)
    if not passes:
        raise UnphysicalStateError(f"not a physical state: {sf}")
    return nu, separable, symmetric


def _require_rim(sf: StandardForm, nu: float) -> None:
    if sf.c_plus < abs(sf.c_minus) - SQRT_CLAMP or sf.c_plus < 0.0:
        raise DomainError(
            "standard form must be sign-ordered with c_plus >= |c_minus| >= 0; "
            "use StandardForm.sign_ordered()"
        )
    if nu >= 1.0:
        raise DomainError(f"state is separable (nu_tilde_minus = {nu:.12g})")


def _sign_ordered(cp, cm, xp):
    """(c_plus, c_minus) of ``StandardForm.sign_ordered`` under ``xp``: a
    pair with c_plus >= |c_minus| passes both steps unchanged."""
    swap = abs(cm) > abs(cp)
    cp, cm = xp.where(swap, -cm, cp), xp.where(swap, -cp, cm)
    flip = cp < 0.0
    return xp.where(flip, -cp, cp), xp.where(flip, -cm, cm)


_EPS = 2.220446049250313e-16


class _ThetaProfile(NamedTuple):
    """Coefficients of m(theta) = 1 + num(theta)/den(theta): floats for one
    form, or columns for a block.

    num(theta) = (n0 + n1 cos theta)^2 and
    den(theta) = d0 + dc cos theta + ds sin theta; only the three
    theta-independent square roots need domain clamping.
    """

    n0: float
    n1: float
    d0: float
    dc: float
    ds: float

    @classmethod
    def of(cls, a, b, cp, cm, xp) -> "_ThetaProfile":
        """The profile of physical (``_scalar_gate``), entangled and
        sign-ordered (``_require_rim``, or the gate's near-separable cut and
        ``_sign_ordered``) forms (a, b, c_plus, c_minus) under ``xp``.
        Nothing here raises or warns: the diagonal of gamma_q >= gamma_p^{-1}
        (the Schur complement of sigma + i Omega >= 0) gives r1, r2 <= 0,
        hence R = r1 r2 >= 0 up to rounding, and the uncertainty slack is at
        least -1e-9; a degenerate rim divides by 1 in place of R."""
        dq = a * b - cm * cm
        r1 = a - b * dq
        r2 = b - a * dq
        rr = r1 * r2
        quad = a * a + b * b
        # The common factor 2(ab - c_minus^2) multiplies the whole angular
        # bracket of the denominator; together with the numerator square this
        # makes m - 1 = [2 dq x1]^2 / [(2 dq)^2 det Gamma] on the rim.
        n0 = cp * dq - cm
        d0 = 2.0 * dq * (quad + 2.0 * cp * cm)
        # Both differences r1, r2 cancel as states approach purity, so the
        # degeneracy threshold covers the rounding envelope of R, not just
        # a fixed epsilon.  On a degenerate rim (pure state) the profile is
        # the constant 1 + n0^2 / d0, the limit of the full expression.
        rim = rr > xp.maximum(SQRT_CLAMP * (1.0 + r1 * r1 + r2 * r2),
                              64.0 * _EPS * ((abs(a) + abs(b * dq)) * abs(r2)
                                             + (abs(b) + abs(a * dq)) * abs(r1) + 1.0))
        h_coeff = (
            2.0 * a * b * xp.cube(cm)
            + quad * cp * cm * cm
            + (quad - 2.0 * a * a * b * b) * cm
            - a * b * (quad - 2.0) * cp
        )
        # The sin(theta) coefficient is ds = 2 dq (a^2 - b^2) sqrt(1 - A^2/R)
        # with A = cp dq + cm.  The stable route uses the identity
        # R - A^2 = dq (1 + Det sigma - Delta): the square root's argument
        # dq slack / R carries the uncertainty-relation slack, which vanishes
        # identically for partial-minimum-uncertainty states.
        det_sigma, delta, _ = _dets(a, b, cp, cm)
        slack = 1.0 + det_sigma - delta
        # at most rounding noise away from minimum uncertainty, where the
        # sin(theta) term vanishes identically
        slack = xp.where(slack <= 1e-11 * xp.maximum(xp.maximum(1.0, det_sigma), abs(delta)),
                         0.0, slack)
        rr = xp.where(rim, rr, 1.0)
        sqrt_r = xp.sqrt(rr)
        return cls(n0, xp.where(rim, sqrt_r, 0.0), d0,
                   xp.where(rim, -2.0 * dq * h_coeff / sqrt_r, 0.0),
                   xp.where(rim, 2.0 * dq * (a * a - b * b) * xp.sqrt(dq * slack / rr), 0.0))

    def quartic(self):
        """Coefficients, highest first, of the quartic in t = tan(theta/2)
        whose real roots are the stationary angles (``_stationary_angles``)."""
        n0, n1, d0, dc, ds = self
        a_co = n0 * dc - 2.0 * n1 * d0
        b_co = -n0 * ds
        c_co = -n1 * dc
        e_co = -n1 * ds
        return e_co - b_co, 2.0 * (a_co - c_co), 6.0 * e_co, 2.0 * (a_co + c_co), b_co + e_co

    def __call__(self, theta):
        ct = np.cos(theta)
        st = np.sin(theta)
        num = (self.n0 + self.n1 * ct) ** 2
        return 1.0 + num / (self.d0 + self.dc * ct + self.ds * st)


def m_theta(sf: StandardForm, theta):
    """Single-mode determinant of the rim pure state at polar angle theta.

    Accepts a scalar or an array of angles.  The state must be physical
    (else UnphysicalStateError), entangled and sign-ordered with
    c_plus >= |c_minus| (else DomainError); the result is >= 1 for every theta.
    """
    _require_rim(sf, _scalar_gate(sf)[0])
    out = _ThetaProfile.of(sf.a, sf.b, sf.c_plus, sf.c_minus, _FLOATS)(theta)
    return float(out) if np.isscalar(theta) else out


def _mdot(x, y) -> float:
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _rim_geometry(sf: StandardForm):
    """Center and semiaxis vectors of the rim in (x0, x1, x3) coordinates.

    Returns (center, W, P) with rim(theta) = center + cos(theta) W
    + sin(theta) P; W and P are zero vectors when the cone apexes coincide
    (pure states).  W points along the in-plane direction of growing x1,
    which makes the angle here agree with the one in ``m_theta``.  A nonzero
    but lightlike apex gap (GLEMS) has no boost to resolve it: DomainError.
    """
    a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
    dq = a * b - cm * cm
    apex_q = np.array([0.5 * (a + b), cp, 0.5 * (a - b)])
    apex_p = np.array([0.5 * (a + b) / dq, -cm / dq, -0.5 * (a - b) / dq])
    center = 0.5 * (apex_q + apex_p)
    gap = apex_q - apex_p
    gap_size = float(np.max(np.abs(gap)))
    if gap_size <= 1e-9 * (1.0 + abs(apex_q[0])):
        return apex_q, np.zeros(3), np.zeros(3)
    k = math.sqrt(max(_mdot(gap, gap), 0.0))
    if k <= 1e-6 * gap_size:
        raise DomainError(f"rim oracle: apex gap {gap} is lightlike (k = {k:g})")
    u = gap / k
    w = np.array([u[1] * u[0], 1.0 + u[1] * u[1], u[1] * u[2]])
    w /= math.sqrt(1.0 + u[1] * u[1])
    p = _ETA * np.cross(u, w)
    p /= math.sqrt(-_mdot(p, p))
    # Orientation of the sin(theta) axis fixed so that the rim angle matches
    # the closed-form profile for both mode orderings (a > b and a < b).
    if _mdot(center, p) * (a * a - b * b) < 0.0:
        p = -p
    return center, 0.5 * k * w, 0.5 * k * p


def gamma_from_theta(sf: StandardForm, theta: float) -> GammaCoordinates:
    """Rim point at polar angle theta: the pure-state block Gamma that
    saturates det(gamma_q - Gamma) = det(Gamma - gamma_p^{-1}) = 0.

    For pure input states the rim collapses to the single point
    Gamma = gamma_q, returned for every theta.

    Raises:
        UnphysicalStateError: if the form is not a physical state.
        DomainError: if it is separable or not sign-ordered (no optimization
            rim), or if the rim is too close to lightlike to parametrize.
    """
    _require_rim(sf, _scalar_gate(sf)[0])
    center, w_axis, p_axis = _rim_geometry(sf)
    x = center + math.cos(theta) * w_axis + math.sin(theta) * p_axis
    return GammaCoordinates(float(x[0]), float(x[1]), float(x[2]))


def _stationary_angles(quartic: tuple[float, ...]) -> tuple[np.ndarray, int]:
    """Five candidate angles that include every minimizer of m(theta), and
    the number of distinct stationary angles, from the profile's
    ``_ThetaProfile.quartic()``.

    With N = n0 + n1 cos and D = d0 + dc cos + ds sin, m' = N F / D^2 where
    F = A sin + B cos + C sin cos + E (1 + sin^2); the zeros of N are never
    reached on entangled states.  Under t = tan(theta/2), F (1 + t^2)^2 is a
    quartic in t, so there are at most four extrema per period.
    theta = pi (t = infinity) is always a candidate and counts as stationary
    when the t^4 coefficient F(pi) vanishes; it follows the roots and
    repeats where there are fewer than four, which leaves the first minimum
    in place.  The roots are those of ``np.roots``, bit for bit; a quartic
    with nonzero end coefficients skips its wrapper for the same
    companion-matrix solve.
    """
    if quartic[0] != 0.0 and quartic[4] != 0.0:
        companion = _SUBDIAGONAL.copy()
        companion[0] = [-c / quartic[0] for c in quartic[1:]]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.roots(quartic)
    # LAPACK returns real eigenvalues of the companion matrix with an exactly
    # zero imaginary part; evaluating m at the real parts of complex roots
    # too is harmless, since every angle bounds the minimum from above.
    distinct = len({r.real for r in roots.tolist() if r.imag == 0.0})
    angles = np.full(5, math.pi)
    angles[:len(roots)] = 2.0 * np.arctan(roots.real)
    return angles, distinct + int(quartic[0] == 0.0)


def _block_angles(quartics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_stationary_angles`` of each row of (n, 5) quartic coefficients:
    (n, 5) candidate angles and their extrema counts.

    Quartics with nonzero leading and trailing coefficients share one
    ``np.linalg.eigvals`` call on their stacked companion matrices, which
    are ``_stationary_angles``' own; the others go through it.
    """
    angles = np.full((len(quartics), 5), math.pi)
    extrema = np.zeros(len(quartics), dtype=int)
    full = (quartics[:, 0] != 0.0) & (quartics[:, 4] != 0.0)
    if full.any():
        companions = np.broadcast_to(_SUBDIAGONAL, (np.count_nonzero(full), 4, 4)).copy()
        companions[:, 0] = -quartics[full, 1:] / quartics[full, :1]
        roots = np.linalg.eigvals(companions)
        angles[full, :4] = 2.0 * np.arctan(roots.real)
        # distinct real roots, as the set in _stationary_angles counts them
        real = np.sort(np.where(roots.imag == 0.0, roots.real, np.nan), axis=1)
        extrema[full] = (np.count_nonzero(~np.isnan(real), axis=1)
                         - np.count_nonzero(real[:, 1:] == real[:, :-1], axis=1))
    for i in np.flatnonzero(~full).tolist():
        angles[i], extrema[i] = _stationary_angles(tuple(quartics[i].tolist()))
    return angles, extrema


def _optimum(m_min, theta, xp):
    """(m_opt, theta_opt, nu_tilde_opt) from the least m found and its
    angle: m_opt is at least 1 and theta_opt lies in [0, 2 pi)."""
    m_opt = xp.maximum(m_min, 1.0)
    return m_opt, theta % (2.0 * math.pi), _nu_of_m(m_opt, xp)


def _not_finite(angles: np.ndarray, a: float, b: float, cp: float, cm: float) -> MinimizationError:
    return MinimizationError(
        f"angular profile is not finite at its stationary angles {angles} "
        f"for standard form {StandardForm(a, b, cp, cm)}"
    )


#: ``minimize_m``'s result for a separable or near-separable form.
_SEPARABLE = GemResult(1.0, 0.0, 1.0, 0.0, 1)


def minimize_m(
    sf: StandardForm,
    *,
    near_separable_tol: float = NEAR_SEPARABLE_TOL,
    log_base=2,
) -> GemResult:
    """Globally minimize the single-mode determinant over the rim angle.

    The stationary angles of the profile are the real roots of a quartic in
    tan(theta/2) (plus theta = pi); m is evaluated at each of them and the
    smallest value wins, so the minimum is exact up to rounding.  Separable
    states short-circuit to m_opt = 1; symmetric states take the closed
    result nu_tilde_opt = nu_tilde_minus(sigma) at theta = pi, which is also
    where a pure state's flat profile (a zero quartic) reports its minimum.
    ``extrema_found`` counts the distinct stationary angles.  This is the
    one body on floats; ``minimize_columns`` gives each of its forms the
    same bits.
    """
    if not near_separable_tol >= 0.0:
        raise DomainError(f"near_separable_tol must be >= 0, got {near_separable_tol!r}")
    _log_divisor(log_base)  # DomainError for a base other than 2 and "e"
    return _minimize(sf, math.nan, near_separable_tol, log_base)[1]


def _minimize(sf: StandardForm, nu: float, near_separable_tol: float,
              log_base) -> tuple[float, GemResult]:
    """nu_tilde_minus and ``minimize_m``'s result of one form on floats,
    given its nu_tilde_minus where the caller has it (else ``nu`` is NaN)."""
    nu, separable, symmetric = _scalar_gate(sf, nu, near_separable_tol)
    if separable:
        return nu, _SEPARABLE
    if symmetric:
        return nu, GemResult(m_from_nu_tilde(nu), math.pi, nu, h_function(nu, log_base), 2)
    a, b = sf.a, sf.b
    cp, cm = _sign_ordered(sf.c_plus, sf.c_minus, _FLOATS)
    profile = _ThetaProfile.of(a, b, cp, cm, _FLOATS)
    angles, extrema = _stationary_angles(profile.quartic())
    vals = profile(angles)
    if not np.isfinite(vals).all():
        raise _not_finite(angles, a, b, cp, cm)
    best = int(vals.argmin())
    m_opt, theta, nu_opt = _optimum(vals[best].item(), angles[best].item(), _FLOATS)
    return nu, GemResult(m_opt, theta, nu_opt, h_function(nu_opt, log_base), extrema)


class GemBlock(NamedTuple):
    """``minimize_columns``' outcomes as columns, one row per form: its
    nu_tilde_minus (the caller's, or the spectrum's where the caller had
    none) and the ``GemResult`` fields that ``minimize_m`` returns for it,
    and by row the ``TwoModeError`` that ``minimize_m`` raises instead;
    such a row reads NaN (0 extrema) in the result columns."""

    nu_tilde_sigma: np.ndarray
    m_opt: np.ndarray
    theta_opt: np.ndarray
    nu_tilde_opt: np.ndarray
    gaussian_eof: np.ndarray
    extrema_found: np.ndarray
    errors: dict[int, TwoModeError]


def minimize_columns(
    a: np.ndarray,
    b: np.ndarray,
    cp: np.ndarray,
    cm: np.ndarray,
    nu: np.ndarray,
    log_base=2,
) -> GemBlock:
    """``minimize_m`` of every standard form (a, b, c_plus, c_minus), given
    as float columns of one length, with ``nu`` its nu_tilde_minus, read
    from any sequence, NaN or None where the caller has none; a bad
    ``log_base`` raises DomainError at once.

    The gate runs as masks on the columns.  A row that fails it (NaN nu, no
    spectrum, unphysical, or entries that are no ``StandardForm``) falls
    back on ``minimize_m``'s float route on the ``StandardForm`` of its own
    floats, which computes the spectrum where nu is NaN, so the row gets
    the result or the error, with its type and message, that ``minimize_m``
    gives.  The other rows' profiles, quartics, roots and minima are
    columns too, and a row whose profile is not finite at its stationary
    angles gets its ``MinimizationError``.  Entries must stay far below
    1e77 (the sampler's do, at s_max <= 1e6): above it Det sigma overflows
    and NumPy warns where ``minimize_m`` is silent, and one non-finite
    quartic makes ``np.linalg.eigvals`` raise for the whole block.
    """
    _log_divisor(log_base)  # DomainError for a base other than 2 and "e"
    n = len(a)
    nu = np.array(nu, dtype=float)  # a copy; None reads as NaN
    passes, separable, symmetric = _gate(a, b, cp, cm, nu, NEAR_SEPARABLE_TOL, _ARRAYS)
    symmetric &= passes & ~separable
    general = np.flatnonzero(passes & ~separable & ~symmetric)
    m_opt, theta, nu_opt = np.ones(n), np.zeros(n), np.ones(n)
    extrema = np.where(symmetric, 2, 1)
    m_opt[symmetric] = _m_of_nu(nu[symmetric])
    theta[symmetric] = math.pi
    nu_opt[symmetric] = nu[symmetric]

    ga, gb = a[general], b[general]
    gcp, gcm = _sign_ordered(cp[general], cm[general], _ARRAYS)
    profile = _ThetaProfile.of(ga, gb, gcp, gcm, _ARRAYS)
    angles, extrema[general] = _block_angles(np.stack(profile.quartic(), axis=1))
    vals = _ThetaProfile(*(c[:, None] for c in profile))(angles)
    lead = np.arange(len(general))
    best = vals.argmin(axis=1)
    m_opt[general], theta[general], nu_opt[general] = _optimum(
        vals[lead, best], angles[lead, best], _ARRAYS)
    errors = {general[k].item(): _not_finite(angles[k], *(c[k].item() for c in (ga, gb, gcp, gcm)))
              for k in np.flatnonzero(~np.isfinite(vals).all(axis=1)).tolist()}

    # The mask is the scalar gate's arithmetic, so the float route raises
    # unless nu is NaN; the row takes whatever that route gives it.
    for i in np.flatnonzero(~passes).tolist():
        try:
            sf = StandardForm(*(c[i].item() for c in (a, b, cp, cm)))
            nu[i], gem = _minimize(sf, nu[i].item(), NEAR_SEPARABLE_TOL, log_base)
        except TwoModeError as exc:
            errors[i] = exc
        else:
            m_opt[i], theta[i], nu_opt[i], _, extrema[i] = astuple(gem)
    failed = sorted(errors)
    m_opt[failed] = theta[failed] = nu_opt[failed] = math.nan
    extrema[failed] = 0
    geof = np.zeros(n)
    entangled = np.flatnonzero(nu_opt < 1.0)
    geof[entangled] = [h_function(x, log_base) for x in nu_opt[entangled].tolist()]
    return GemBlock(nu, m_opt, theta, nu_opt, geof, extrema,
                    {i: errors[i] for i in failed})


def gaussian_eof(sf: StandardForm, log_base=2, **kwargs) -> float:
    """Gaussian entanglement of formation: h applied to the optimal
    pure-state PT eigenvalue; 0 for separable states."""
    return minimize_m(sf, log_base=log_base, **kwargs).gaussian_eof
