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

``minimize_block`` is the one minimizer and ``minimize_m`` its call on one
form.  Each form passes the gate (spectrum, physicality, near-separable cut,
symmetric closed form) on its own, and each outcome is a value: a result or
the error ``minimize_m`` raises.  A lone general form takes the per-form
route (floats, ``if``); two or more take the array route (masks, stacked
companion matrices, one ``np.linalg.eigvals`` call), with the same bits.
The profile and quartic arithmetic is written once for both; ``np.roots``
solves the degenerate quartics of pure and minimum-uncertainty forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MinimizationError, TwoModeError, UnphysicalStateError
from .negativity import _log_divisor, h_function
from .symplectic import StandardForm, _dets

#: States with nu_tilde_minus inside [1 - this, 1] are treated as separable
#: by the minimizer, which then returns m_opt = 1 exactly.
NEAR_SEPARABLE_TOL = 1e-8

#: Square-root arguments in the angular profile may round slightly below
#: zero exactly on feasibility boundaries; a rim radius R this close to zero
#: (relative) is degenerate, and the sign-order check allows this much slack.
SQRT_CLAMP = 1e-12

_ETA = np.array([1.0, -1.0, -1.0])  # Minkowski metric signature (+, -, -)
_SUBDIAGONAL = np.eye(4, k=-1)  # companion matrices of quartics, first row aside


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
    return 1.0 / (math.sqrt(m) + math.sqrt(m - 1.0))


def m_from_nu_tilde(nu: float) -> float:
    """Inverse of ``nu_tilde_from_m``: m = ((nu + 1/nu) / 2)^2."""
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu_tilde must lie in (0, 1], got {nu!r}")
    half_sum = 0.5 * (nu + 1.0 / nu)
    return half_sum * half_sum


def _physical_nu(sf: StandardForm) -> float:
    """nu_tilde_minus of ``sf``, taken first so that a form without one fails
    there, then the module's one physicality check, made on polynomial
    inequalities: for pure states nu_minus itself sits on a vanishing
    discriminant and carries sqrt-amplified rounding noise."""
    nu = sf.spectrum().nu_tilde_minus
    if not sf.is_physical(1e-9):
        raise UnphysicalStateError(f"not a physical state: {sf}")
    return nu


def _require_rim(sf: StandardForm, nu: float) -> None:
    if sf.c_plus < abs(sf.c_minus) - SQRT_CLAMP or sf.c_plus < 0.0:
        raise DomainError(
            "standard form must be sign-ordered with c_plus >= |c_minus| >= 0; "
            "use StandardForm.sign_ordered()"
        )
    if nu >= 1.0:
        raise DomainError(f"state is separable (nu_tilde_minus = {nu:.12g})")


_EPS = 2.220446049250313e-16


def _rim_terms(a, b, cp, cm):
    """(dq, n0, d0, R, floors) of a sign-ordered form, elementwise for arrays:
    dq = ab - c_minus^2, the profile's n0 and d0, the squared rim radius
    R = r1 r2 and the two terms of its degeneracy floor, whose larger one R
    must exceed."""
    dq = a * b - cm * cm
    r1 = a - b * dq
    r2 = b - a * dq
    # Both differences above cancel as states approach purity, so the
    # degeneracy threshold covers the rounding envelope of R, not just
    # a fixed epsilon.
    floors = (
        SQRT_CLAMP * (1.0 + r1 * r1 + r2 * r2),
        64.0 * _EPS * ((abs(a) + abs(b * dq)) * abs(r2)
                       + (abs(b) + abs(a * dq)) * abs(r1) + 1.0),
    )
    # The common factor 2(ab - c_minus^2) multiplies the whole angular
    # bracket of the denominator; together with the numerator square this
    # makes m - 1 = [2 dq x1]^2 / [(2 dq)^2 det Gamma] on the rim.
    d0 = 2.0 * dq * (a * a + b * b + 2.0 * cp * cm)
    return dq, cp * dq - cm, d0, r1 * r2, floors


def _angle_terms(a, b, cp, cm, cm3, dq):
    """(dc sqrt(R), ds / sqrt(s_arg), slack, Det sigma, Delta) of a
    non-degenerate rim, elementwise for arrays; ``cm3`` is c_minus**3 as
    Python's float power rounds it (numpy's array power differs in the last
    bit for a few percent of values).

    The sin(theta) coefficient is ds = 2 dq (a^2 - b^2) sqrt(1 - A^2/R) with
    A = cp dq + cm.  The stable route uses the identity
    R - A^2 = dq (1 + Det sigma - Delta): the argument s_arg = dq slack / R
    carries the uncertainty-relation slack, which vanishes identically for
    partial-minimum-uncertainty states.
    """
    quad = a * a + b * b
    h_coeff = (
        2.0 * a * b * cm3
        + quad * cp * cm * cm
        + (quad - 2.0 * a * a * b * b) * cm
        - a * b * (quad - 2.0) * cp
    )
    det_sigma, delta, _ = _dets(a, b, cp, cm)
    return -2.0 * dq * h_coeff, 2.0 * dq * (a * a - b * b), 1.0 + det_sigma - delta, det_sigma, delta


class _ThetaProfile:
    """Coefficients of m(theta) = 1 + num(theta)/den(theta), floats for one
    form or arrays for a block.

    num(theta) = (n0 + n1 cos theta)^2 and
    den(theta) = d0 + dc cos theta + ds sin theta; only the three
    theta-independent square roots need domain clamping.

    ``of`` builds them for one physical (``_physical_nu``), entangled and
    sign-ordered (``_require_rim``, or the gate's near-separable cut and
    ``sign_ordered()``) form, so nothing there raises: the
    diagonal of gamma_q >= gamma_p^{-1} (the Schur complement of
    sigma + i Omega >= 0) gives r1, r2 <= 0, hence R = r1 r2 >= 0 up to
    rounding, and the uncertainty slack is at least -1e-9.
    """

    __slots__ = ("n0", "n1", "d0", "dc", "ds")

    def __init__(self, n0, n1, d0, dc, ds):
        self.n0 = n0
        self.n1 = n1
        self.d0 = d0
        self.dc = dc
        self.ds = ds

    @classmethod
    def of(cls, sf: StandardForm) -> "_ThetaProfile":
        a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
        dq, n0, d0, rr, floors = _rim_terms(a, b, cp, cm)
        if not rr > max(floors):
            # Degenerate rim (pure state): the profile is the constant
            # 1 + n0^2 / d0, the limit of the full expression.
            return cls(n0, 0.0, d0, 0.0, 0.0)
        dc_num, ds_factor, slack, det_sigma, delta = _angle_terms(a, b, cp, cm, cm**3, dq)
        if slack <= 1e-11 * max(1.0, det_sigma, abs(delta)):
            # at most rounding noise away from minimum uncertainty,
            # where the sin(theta) term vanishes identically
            slack = 0.0
        sqrt_r = math.sqrt(rr)
        return cls(n0, sqrt_r, d0, dc_num / sqrt_r, ds_factor * math.sqrt(dq * slack / rr))

    @classmethod
    def of_block(cls, a, b, cp, cm) -> "_ThetaProfile":
        """``of`` on arrays of sign-ordered forms, with masks for its
        branches.  A row where ``of`` would take the square root of a
        negative number gets ds = NaN."""
        dq, n0, d0, rr, (f1, f2) = _rim_terms(a, b, cp, cm)
        live = rr > np.where(f2 > f1, f2, f1)  # max(floors) as Python takes it
        cm3 = np.array([c**3 for c in cm.tolist()])
        dc_num, ds_factor, slack, det_sigma, delta = _angle_terms(a, b, cp, cm, cm3, dq)
        abs_delta = abs(delta)
        scale = np.where(det_sigma > 1.0, det_sigma, 1.0)
        scale = np.where(abs_delta > scale, abs_delta, scale)
        slack = np.where(slack <= 1e-11 * scale, 0.0, slack)
        zeros = np.zeros_like(rr)
        sqrt_r = np.sqrt(rr, out=zeros.copy(), where=live)
        s_arg = np.divide(dq * slack, rr, out=zeros.copy(), where=live)
        root = np.sqrt(s_arg, out=np.full_like(rr, np.nan), where=s_arg >= 0.0)
        return cls(n0, sqrt_r, d0, np.divide(dc_num, sqrt_r, out=zeros, where=live),
                   np.where(live, ds_factor * root, 0.0))

    def quartic(self):
        """Coefficients, highest first, of the quartic in t = tan(theta/2)
        whose real roots are the stationary angles (``_stationary_angles``)."""
        n0, n1, d0, dc, ds = self.n0, self.n1, self.d0, self.dc, self.ds
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
    _require_rim(sf, _physical_nu(sf))
    out = _ThetaProfile.of(sf)(theta)
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
    _require_rim(sf, _physical_nu(sf))
    center, w_axis, p_axis = _rim_geometry(sf)
    x = center + math.cos(theta) * w_axis + math.sin(theta) * p_axis
    return GammaCoordinates(float(x[0]), float(x[1]), float(x[2]))


def _stationary_angles(quartic: tuple[float, ...]) -> tuple[np.ndarray, int]:
    """Candidate angles that include every minimizer of m(theta), and the
    number of distinct stationary angles, from the profile's
    ``_ThetaProfile.quartic()``.

    With N = n0 + n1 cos and D = d0 + dc cos + ds sin, m' = N F / D^2 where
    F = A sin + B cos + C sin cos + E (1 + sin^2); the zeros of N are never
    reached on entangled states.  Under t = tan(theta/2), F (1 + t^2)^2 is a
    quartic in t, so there are at most four extrema per period.
    theta = pi (t = infinity) is always a candidate and counts as stationary
    when the t^4 coefficient F(pi) vanishes.  The roots are those of
    ``np.roots``, bit for bit; a quartic with nonzero end coefficients skips
    its wrapper for the same companion-matrix solve.
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
    angles = np.append(2.0 * np.arctan(roots.real), math.pi)
    return angles, distinct + int(quartic[0] == 0.0)


def _block_angles(quartics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_stationary_angles`` of each row of (n, 5) quartic coefficients:
    (n, 5) candidate angles and their extrema counts.

    Quartics with nonzero leading and trailing coefficients share one
    ``np.linalg.eigvals`` call on their stacked companion matrices, which
    are ``_stationary_angles``' own; the others go through it.  A row with
    fewer than four roots repeats theta = pi, which leaves its first minimum
    in place.
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
        row_angles, extrema[i] = _stationary_angles(tuple(quartics[i].tolist()))
        angles[i, :len(row_angles)] = row_angles
    return angles, extrema


def _gate(sf: StandardForm, near_separable_tol: float, log_base) -> tuple[float, GemResult | None]:
    """nu_tilde_minus of the form, with ``minimize_m``'s result for a
    separable or symmetric form and None for the general path; raises on a
    form without a spectrum or an unphysical one."""
    nu_sigma = _physical_nu(sf)
    if nu_sigma >= 1.0 - near_separable_tol:
        return nu_sigma, GemResult(1.0, 0.0, 1.0, 0.0, 1)
    if sf.is_symmetric():
        m_opt = m_from_nu_tilde(nu_sigma)
        return nu_sigma, GemResult(m_opt, math.pi, nu_sigma, h_function(nu_sigma, log_base), 2)
    return nu_sigma, None


def _result(m_min: float, theta: float, extrema: int, log_base) -> GemResult:
    m_opt = max(m_min, 1.0)
    nu_opt = nu_tilde_from_m(m_opt)
    return GemResult(m_opt, theta % (2.0 * math.pi), nu_opt, h_function(nu_opt, log_base), extrema)


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
    ``extrema_found`` counts the distinct stationary angles.  This is
    ``minimize_block`` of the one form; its error is raised.
    """
    outcome = minimize_block([sf], log_base, near_separable_tol)[0]
    if isinstance(outcome, TwoModeError):
        raise outcome
    return outcome[1]


def _minimize_profile(sf: StandardForm, log_base=2) -> GemResult:
    """The per-form route of the general path, for a physical and entangled
    form."""
    ordered = sf.sign_ordered()
    profile = _ThetaProfile.of(ordered)
    angles, extrema = _stationary_angles(profile.quartic())
    vals = profile(angles)
    if not np.all(np.isfinite(vals)):
        raise MinimizationError(
            f"angular profile is not finite at its stationary angles {angles} "
            f"for standard form {ordered}"
        )
    best = int(np.argmin(vals))
    return _result(float(vals[best]), float(angles[best]), extrema, log_base)


def minimize_block(
    forms,
    log_base=2,
    near_separable_tol: float = NEAR_SEPARABLE_TOL,
) -> list[tuple[float, GemResult] | TwoModeError]:
    """Each form's outcome: its nu_tilde_minus and ``minimize_m``'s result,
    or the ``TwoModeError`` that ``minimize_m`` raises for it; a bad
    ``near_separable_tol`` or ``log_base`` raises DomainError at once.

    Entries must stay far below 1e100 (the sampler's do, at s_max <= 1e6):
    past that, c_minus**3 can raise OverflowError on a form the per-form
    route never cubes, and one non-finite quartic makes
    ``np.linalg.eigvals`` raise for the whole array route.
    """
    if not near_separable_tol >= 0.0:
        raise DomainError(f"near_separable_tol must be >= 0, got {near_separable_tol!r}")
    _log_divisor(log_base)  # DomainError for a base other than 2 and "e"
    outcomes: list = [None] * len(forms)
    general: list[tuple[int, float]] = []
    for i, sf in enumerate(forms):
        try:
            nu_sigma, closed = _gate(sf, near_separable_tol, log_base)
        except TwoModeError as exc:
            outcomes[i] = exc
            continue
        if closed is None:
            general.append((i, nu_sigma))
        else:
            outcomes[i] = nu_sigma, closed
    minima: list[GemResult | None] = [None]
    if len(general) > 1:  # the array route's fixed cost pays off from two forms on
        ordered = [forms[i].sign_ordered() for i, _ in general]
        a, b, cp, cm = np.array([(f.a, f.b, f.c_plus, f.c_minus) for f in ordered]).T
        profile = _ThetaProfile.of_block(a, b, cp, cm)
        angles, extrema = _block_angles(np.stack(profile.quartic(), axis=1))
        vals = _ThetaProfile(*(getattr(profile, k)[:, None] for k in profile.__slots__))(angles)
        best = vals.argmin(axis=1)
        lead = np.arange(len(general))
        minima = [_result(m_min, theta, count, log_base) if finite else None
                  for finite, m_min, theta, count in zip(
                      np.isfinite(vals).all(axis=1).tolist(), vals[lead, best].tolist(),
                      angles[lead, best].tolist(), extrema.tolist())]
    for (i, nu_sigma), gem in zip(general, minima):
        try:
            if gem is None:  # a lone general form, or a row left non-finite above
                gem = _minimize_profile(forms[i], log_base)
            outcomes[i] = nu_sigma, gem
        except TwoModeError as exc:
            outcomes[i] = exc
    return outcomes


def gaussian_eof(sf: StandardForm, log_base=2, **kwargs) -> float:
    """Gaussian entanglement of formation: h applied to the optimal
    pure-state PT eigenvalue; 0 for separable states."""
    return minimize_m(sf, log_base=log_base, **kwargs).gaussian_eof
