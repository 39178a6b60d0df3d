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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MinimizationError, UnphysicalStateError
from .negativity import SYMMETRY_RTOL, h_function
from .symplectic import StandardForm

#: States with nu_tilde_minus inside [1 - this, 1] are treated as separable
#: by the minimizer, which then returns m_opt = 1 exactly.
NEAR_SEPARABLE_TOL = 1e-8

#: Square-root arguments in the angular profile may round slightly below
#: zero exactly on feasibility boundaries; a rim radius R this close to zero
#: (relative) is degenerate, and the sign-order check allows this much slack.
SQRT_CLAMP = 1e-12

_ETA = np.array([1.0, -1.0, -1.0])  # Minkowski metric signature (+, -, -)


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
    """nu_tilde_minus of ``sf`` after the module's one physicality check, made
    on polynomial inequalities: for pure states nu_minus itself sits on a
    vanishing discriminant and carries sqrt-amplified rounding noise."""
    if not sf.is_physical(1e-9):
        raise UnphysicalStateError(f"not a physical state: {sf}")
    return sf.spectrum().nu_tilde_minus


def _require_rim(sf: StandardForm, nu: float) -> None:
    if sf.c_plus < abs(sf.c_minus) - SQRT_CLAMP or sf.c_plus < 0.0:
        raise DomainError(
            "standard form must be sign-ordered with c_plus >= |c_minus| >= 0; "
            "use StandardForm.sign_ordered()"
        )
    if nu >= 1.0:
        raise DomainError(f"state is separable (nu_tilde_minus = {nu:.12g})")


class _ThetaProfile:
    """Precomputed coefficients of m(theta) = 1 + num(theta)/den(theta).

    num(theta) = (n0 + n1 cos theta)^2 and
    den(theta) = d0 + dc cos theta + ds sin theta; only the three
    theta-independent square roots need domain clamping.

    The form has passed ``_physical_nu`` and ``_require_rim``, so nothing
    here raises: the diagonal of gamma_q >= gamma_p^{-1} (the Schur complement
    of sigma + i Omega >= 0) gives r1, r2 <= 0, hence R = r1 r2 >= 0 up to
    rounding, and the uncertainty slack is at least -1e-9.
    """

    __slots__ = ("n0", "n1", "d0", "dc", "ds")

    def __init__(self, sf: StandardForm):
        a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
        dq = a * b - cm * cm
        n0 = cp * dq - cm
        r1 = a - b * dq
        r2 = b - a * dq
        rr = r1 * r2
        # Both differences above cancel as states approach purity, so the
        # degeneracy threshold covers the rounding envelope of rr, not just
        # a fixed epsilon.
        eps = 2.220446049250313e-16
        r_floor = max(
            SQRT_CLAMP * (1.0 + r1 * r1 + r2 * r2),
            64.0 * eps * ((abs(a) + abs(b * dq)) * abs(r2)
                          + (abs(b) + abs(a * dq)) * abs(r1) + 1.0),
        )
        # The common factor 2(ab - c_minus^2) multiplies the whole angular
        # bracket of the denominator; together with the numerator square this
        # makes m - 1 = [2 dq x1]^2 / [(2 dq)^2 det Gamma] on the rim.
        d0 = 2.0 * dq * (a * a + b * b + 2.0 * cp * cm)
        if rr > r_floor:
            sqrt_r = math.sqrt(rr)
            quad = a * a + b * b
            h_coeff = (
                2.0 * a * b * cm**3
                + quad * cp * cm * cm
                + (quad - 2.0 * a * a * b * b) * cm
                - a * b * (quad - 2.0) * cp
            )
            dc = -2.0 * dq * h_coeff / sqrt_r
            # The remaining square root is sqrt(1 - A^2/R) with
            # A = cp dq + cm.  The stable route uses the identity
            # R - A^2 = dq (1 + Det sigma - Delta): the argument is the
            # uncertainty-relation slack, which vanishes identically for
            # partial-minimum-uncertainty states.
            det_sigma, delta, _ = sf._dets()
            slack = 1.0 + det_sigma - delta
            scale = max(1.0, det_sigma, abs(delta))
            if slack <= 1e-11 * scale:
                # at most rounding noise away from minimum uncertainty,
                # where the sin(theta) term vanishes identically
                slack = 0.0
            s_arg = dq * slack / rr
            ds = 2.0 * dq * (a * a - b * b) * math.sqrt(s_arg)
        else:
            # Degenerate rim (pure state): the profile is the constant
            # 1 + n0^2 / d0, the limit of the full expression.
            sqrt_r = 0.0
            dc = 0.0
            ds = 0.0
        self.n0 = n0
        self.n1 = sqrt_r
        self.d0 = d0
        self.dc = dc
        self.ds = ds

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
    profile = _ThetaProfile(sf)
    out = profile(theta)
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


def _stationary_angles(profile: _ThetaProfile) -> tuple[np.ndarray, int]:
    """Candidate angles that include every minimizer of m(theta), and the
    number of distinct stationary angles.

    With N = n0 + n1 cos and D = d0 + dc cos + ds sin, m' = N F / D^2 where
    F = A sin + B cos + C sin cos + E (1 + sin^2); the zeros of N are never
    reached on entangled states.  Under t = tan(theta/2), F (1 + t^2)^2 is a
    quartic in t, so there are at most four extrema per period.
    theta = pi (t = infinity) is always a candidate and counts as stationary
    when the t^4 coefficient F(pi) vanishes.
    """
    n0, n1, d0, dc, ds = profile.n0, profile.n1, profile.d0, profile.dc, profile.ds
    a_co = n0 * dc - 2.0 * n1 * d0
    b_co = -n0 * ds
    c_co = -n1 * dc
    e_co = -n1 * ds
    lead = e_co - b_co
    roots = np.roots([lead, 2.0 * (a_co - c_co), 6.0 * e_co, 2.0 * (a_co + c_co), b_co + e_co])
    # LAPACK returns real eigenvalues of the companion matrix with an exactly
    # zero imaginary part; evaluating m at the real parts of complex roots
    # too is harmless, since every angle bounds the minimum from above.
    distinct = len({r.real for r in roots.tolist() if r.imag == 0.0})
    angles = np.append(2.0 * np.arctan(roots.real), math.pi)
    return angles, distinct + int(lead == 0.0)


def minimize_m(
    sf: StandardForm,
    *,
    near_separable_tol: float = NEAR_SEPARABLE_TOL,
    symmetric_shortcut: bool = True,
    log_base=2,
) -> GemResult:
    """Globally minimize the single-mode determinant over the rim angle.

    The stationary angles of the profile are the real roots of a quartic in
    tan(theta/2) (plus theta = pi); m is evaluated at each of them and the
    smallest value wins, so the minimum is exact up to rounding.  Separable
    states short-circuit to m_opt = 1; pure states have a flat profile and
    report theta = 0; symmetric states take the closed result
    nu_tilde_opt = nu_tilde_minus(sigma) unless the shortcut is disabled.
    ``extrema_found`` counts the distinct stationary angles.
    """
    nu_sigma = _physical_nu(sf)
    if nu_sigma >= 1.0 - near_separable_tol:
        return GemResult(1.0, 0.0, 1.0, 0.0, 1)
    if symmetric_shortcut and sf.is_symmetric(SYMMETRY_RTOL):
        m_opt = m_from_nu_tilde(nu_sigma)
        return GemResult(m_opt, math.pi, nu_sigma, h_function(nu_sigma, log_base), 2)

    ordered = sf.sign_ordered()
    # only a negative near_separable_tol lets a separable state get here
    _require_rim(ordered, nu_sigma)
    profile = _ThetaProfile(ordered)
    if profile.n1 == 0.0:
        # Degenerate rim (pure state): the profile is flat.
        m_opt, theta_opt, extrema = float(profile(0.0)), 0.0, 1
    else:
        angles, extrema = _stationary_angles(profile)
        vals = profile(angles)
        if not np.all(np.isfinite(vals)):
            raise MinimizationError(
                f"angular profile is not finite at its stationary angles {angles} "
                f"for standard form {ordered}"
            )
        best = int(np.argmin(vals))
        m_opt = float(vals[best])
        theta_opt = float(angles[best]) % (2.0 * math.pi)
    m_opt = max(m_opt, 1.0)
    nu_opt = nu_tilde_from_m(m_opt)
    geof = h_function(nu_opt, log_base) if nu_opt < 1.0 else 0.0
    return GemResult(m_opt, theta_opt, nu_opt, geof, extrema)


def gaussian_eof(sf: StandardForm, log_base=2, **kwargs) -> float:
    """Gaussian entanglement of formation: h applied to the optimal
    pure-state PT eigenvalue; 0 for separable states."""
    return minimize_m(sf, log_base=log_base, **kwargs).gaussian_eof
