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
``_ThetaProfile.of``, the quartic's roots (``_stationary_points``), the
profile at those roots (``_ThetaProfile.at``) and the optimum are each
written once against a namespace ``xp``, one of the two that ``symplectic``
defines for every module.  ``minimize_m`` passes one form's Python floats
(``_FLOATS``, ``math``), so a single call pays no array overhead;
``minimize_columns`` passes a block's columns (``_ARRAYS``, NumPy), whose
branches are masks.  The sign ordering and the symmetric test are
``symplectic``'s too, the ones ``StandardForm`` runs on floats.  The body
uses only +, -, *, /, sqrt and selection, which IEEE arithmetic rounds the
same way on both, so both give the same bits of m_opt, nu_tilde_opt and
the Gaussian EoF.  The optimal angle theta_opt and the count of extrema are
``minimize_m``'s alone: the bound experiment, ``minimize_columns``' caller,
reads neither, so a block computes neither.  Selections that few forms
take (the zero quartic of a flat profile, c = d = 0 in the monic quartic,
the cancelled member of a root pair, the Newton polish of a complex pair)
run behind ``xp.any`` of their mask, so one form's float route pays for
them only where it takes them.
The gate and the profile read one derivation of the invariants
(``symplectic._invariants``).  ``minimize_columns`` derives it once per
block, from its sign-ordered columns.  ``minimize_m`` derives none: each
``StandardForm`` keeps its own from its construction, and the gate reads
the form's, the profile its sign ordering's (the form itself where it is
ordered already); the ordering keeps the gate's bits.
``minimize_m``'s gate reads the spectrum the form keeps
once computed (``StandardForm.spectrum()``) and decides physicality as
``StandardForm.is_physical()`` does, with ``DEFAULT_TOL``.
``minimize_columns`` computes each row's nu_tilde_minus from the tuple
(``symplectic._nu_tilde_minus``: the spectrum's bits, NaN where
``spectrum()`` raises), so its gate's mask is the float gate on the same
bits.  A row that fails the mask raises in ``minimize_m`` too, and is
handed to it for that error, with its type and message; a row whose
profile is not finite at its stationary points gets its
``MinimizationError`` in the block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, MinimizationError, TwoModeError, UnphysicalStateError
from .negativity import _log_divisor, h_function
from .symplectic import (_FLOATS, DEFAULT_TOL, SYMMETRY_RTOL, StandardForm, _inequalities,
                         _invariants, _nu_tilde_minus, _sign_ordered, _symmetric)

if TYPE_CHECKING:
    import numpy as np

#: States with nu_tilde_minus inside [1 - this, 1] are treated as separable
#: by the minimizer, which then returns m_opt = 1 exactly.
NEAR_SEPARABLE_TOL = 1e-8

#: Square-root arguments in the angular profile may round slightly below
#: zero exactly on feasibility boundaries; a rim radius R this close to zero
#: (relative) is degenerate, and the sign-order check allows this much slack.
SQRT_CLAMP = 1e-12

#: Most Newton steps that one root of the root step takes.  Sampled
#: profiles need at most 6; a double root converges linearly, about one bit
#: per step.
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class GammaCoordinates:
    """Minkowski coordinates of a pure-state position block Gamma."""

    x0: float
    x1: float
    x3: float

    def det(self) -> float:
        return self.x0 * self.x0 - self.x1 * self.x1 - self.x3 * self.x3

    def to_matrix(self) -> np.ndarray:
        import numpy as np

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
    if not m >= 1.0:
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


def _gate(a, b, inv, nu, xp):
    """``minimize_m``'s checks before the rim, on the floats of one form or
    the columns of a block (``xp``), with ``inv`` its ``_invariants`` (of
    it or of its sign ordering, which have the same bits here) and nu its
    nu_tilde_minus: where the form passes (nu is a number and
    ``StandardForm.is_physical()`` holds), where it is near separable
    (m_opt = 1) and where symmetric (m_opt = ``m_from_nu_tilde(nu)``)."""
    passes = (nu == nu) & reduce(operator.and_, _inequalities(a, b, inv, DEFAULT_TOL))
    return passes, nu >= 1.0 - NEAR_SEPARABLE_TOL, _symmetric(a, b, SYMMETRY_RTOL, xp)


def _scalar_gate(sf: StandardForm) -> tuple[float, bool, bool]:
    """``_gate`` of one form on the invariants it keeps, with nu_tilde_minus
    taken from its spectrum, so that a form without one fails there first:
    nu_tilde_minus and the separable and symmetric verdicts.  Raises
    UnphysicalStateError where the form does not pass.  Physicality is
    decided on polynomial inequalities: for pure states nu_minus itself sits
    on a vanishing discriminant and carries sqrt-amplified rounding noise."""
    nu = sf.spectrum().nu_tilde_minus
    passes, separable, symmetric = _gate(sf.a, sf.b, sf._inv, nu, _FLOATS)
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
    def of(cls, a, b, cp, cm, inv, xp) -> "_ThetaProfile":
        """The profile of physical (``_scalar_gate``), entangled and
        sign-ordered (``_require_rim``, or the gate's near-separable cut and
        ``_sign_ordered``) forms (a, b, c_plus, c_minus) with invariants
        ``inv`` (``_invariants``) under ``xp``.
        Nothing here raises or warns: the diagonal of gamma_q >= gamma_p^{-1}
        (the Schur complement of sigma + i Omega >= 0) gives r1, r2 <= 0,
        hence R = r1 r2 >= 0 up to rounding, and the uncertainty slack is at
        least -DEFAULT_TOL; a degenerate rim divides by 1 in place of R."""
        det_sigma, delta, _, _, dq = inv
        r1 = a - b * dq
        r2 = b - a * dq
        rr = r1 * r2
        quad = a * a + b * b
        # The common factor 2(ab - c_minus^2) multiplies the whole angular
        # bracket of the denominator; together with the numerator square this
        # makes m - 1 = [2 dq x1]^2 / [(2 dq)^2 det Gamma] on the rim.
        n0 = cp * dq - cm
        d0 = 2.0 * dq * delta
        # Both differences r1, r2 cancel as states approach purity, so the
        # degeneracy threshold covers the rounding envelope of R, not just
        # a fixed epsilon.  On a degenerate rim (pure state) the profile is
        # the constant 1 + n0^2 / d0, the limit of the full expression.
        rim = rr > xp.maximum(SQRT_CLAMP * (1.0 + r1 * r1 + r2 * r2),
                              64.0 * _EPS * ((abs(a) + abs(b * dq)) * abs(r2)
                                             + (abs(b) + abs(a * dq)) * abs(r1) + 1.0))
        h_coeff = (
            2.0 * a * b * (cm * cm * cm)
            + quad * cp * cm * cm
            + (quad - 2.0 * a * a * b * b) * cm
            - a * b * (quad - 2.0) * cp
        )
        # The sin(theta) coefficient is ds = 2 dq (a^2 - b^2) sqrt(1 - A^2/R)
        # with A = cp dq + cm.  The stable route uses the identity
        # R - A^2 = dq (1 + Det sigma - Delta): the square root's argument
        # dq slack / R carries the uncertainty-relation slack, which vanishes
        # identically for partial-minimum-uncertainty states.
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
        whose real roots are the stationary angles other than theta = pi,
        which is stationary where the t^4 coefficient vanishes.

        With N = n0 + n1 cos and D = d0 + dc cos + ds sin, m' = N F / D^2
        where F = A sin + B cos + C sin cos + E (1 + sin^2); the zeros of N
        are never reached on entangled states, and F (1 + t^2)^2 is this
        quartic, so there are at most four extrema per period.
        """
        n0, n1, d0, dc, ds = self
        a_co = n0 * dc - 2.0 * n1 * d0
        b_co = -n0 * ds
        c_co = -n1 * dc
        e_co = -n1 * ds
        return e_co - b_co, 2.0 * (a_co - c_co), 6.0 * e_co, 2.0 * (a_co + c_co), b_co + e_co

    def flipped(self, flip, xp) -> "_ThetaProfile":
        """The profile in u = 1/t where ``flip``: t -> 1/t swaps the ends of
        N and D in ``at``, as negating n1 and dc does."""
        n0, n1, d0, dc, ds = self
        return _ThetaProfile(n0, xp.where(flip, -n1, n1), d0, xp.where(flip, -dc, dc), ds)

    def at(self, x):
        """m at t = tan(theta/2) = x, in arithmetic alone:
        m - 1 = N^2 / ((1 + t^2) D) with N = (n0 - n1) t^2 + (n0 + n1) and
        D = (d0 - dc) t^2 + 2 ds t + (d0 + dc)."""
        n0, n1, d0, dc, ds = self
        x2 = x * x
        num = (n0 - n1) * x2 + (n0 + n1)
        return 1.0 + num / (1.0 + x2) * (num / ((d0 - dc) * x2 + 2.0 * ds * x + (d0 + dc)))

    def at_pi(self):
        """m at theta = pi, 1 + (n0 - n1)^2 / (d0 - dc): what ``at`` of the
        ``flipped`` profile gives at u = 0, where its terms in u vanish."""
        n0, n1, d0, dc, _ = self
        return 1.0 + (n0 - n1) * ((n0 - n1) / (d0 - dc))

    def __call__(self, theta):
        """m at the angles theta, by NumPy's trigonometry: ``m_theta``, and
        an independent check of ``at``."""
        import numpy as np

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
    import numpy as np

    _require_rim(sf, _scalar_gate(sf)[0])
    out = _ThetaProfile.of(sf.a, sf.b, sf.c_plus, sf.c_minus, sf._inv, _FLOATS)(theta)
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
    import numpy as np

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
    p = np.array([1.0, -1.0, -1.0]) * np.cross(u, w)  # Minkowski signature (+, -, -)
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


def _newton(x, f, moving, xp):
    """x after Newton steps x - f(x)/f'(x) (``f`` returns both) on the
    entries where ``moving`` holds, each for as long as its steps shrink,
    its slope is not zero and its last step exceeded 1e-8 of it (past that
    a quadratically convergent step leaves only rounding), and at most
    ``_NEWTON_STEPS``: an entry's steps depend on it alone, so it gets the
    same bits on floats and in any block.  Where no entry moves, nothing
    runs."""
    if not xp.any(moving):
        return x
    last = xp.where(moving, math.inf, 0.0)
    for _ in range(_NEWTON_STEPS):
        value, slope = f(x)
        step = value / xp.where(slope == 0.0, 1.0, slope)
        moving = (abs(step) < last) & (slope != 0.0)
        x = xp.where(moving, x - step, x)
        moving = moving & (abs(step) > 1e-8 * abs(x))
        if not xp.any(moving):
            break
        last = xp.where(moving, abs(step), 0.0)
    return x


def _by_product(x1, x2, prod, xp):
    """Two numbers whose product is ``prod``: where one is under a quarter
    of the other, it has cancelled, and is taken as prod over the other."""
    size1, size2 = abs(x1), abs(x2)
    small1, small2 = 4.0 * size1 < size2, 4.0 * size2 < size1
    return (xp.where(small1, prod / xp.where(x2 == 0.0, 1.0, x2), x1) if xp.any(small1) else x1,
            xp.where(small2, prod / xp.where(x1 == 0.0, 1.0, x1), x2) if xp.any(small2) else x2)


def _cube_root_above(r, xp):
    """A bound at most 2.6 times the cube root of r >= 0, from square roots:
    r^(1/4 + 1/16 + 1/64 + 1/256) = r^(1/3 - 1/768) lies within a factor
    2.7 of the root for every positive double, and a Newton step on
    y^3 = r lands above the root from either side."""
    s = est = xp.sqrt(xp.sqrt(r))
    for _ in range(3):
        s = xp.sqrt(xp.sqrt(s))
        est = est * s
    est = xp.where(est == 0.0, 1.0, est)
    return xp.where(r == 0.0, 0.0, (2.0 * est + r / (est * est)) / 3.0)


def _positive(x, xp):
    """max(x, 0) with +0 for every x <= 0: Python's max and NumPy's
    maximum disagree on the sign of max(-0.0, 0.0)."""
    return xp.where(x > 0.0, x, 0.0)


def _stationary_points(quartic, xp):
    """Where the profile of a ``_ThetaProfile.quartic()`` is stationary:
    whether the points are taken in u = 1/t rather than t (``flip``), four
    candidates x in that variable, each with whether it is a real root
    (they include all of them), and the number of distinct stationary
    angles, theta = pi included.

    The variable is the one whose leading coefficient is the larger end, so
    that no root runs off to infinity (theta = pi is u = 0).  A quartic with
    both ends zero is divided by t, which keeps t = 0 a root and drops
    theta = pi, which the caller evaluates anyway; the zero quartic of a
    flat profile reads as the constant 1, stationary at theta = pi alone.
    The monic quartic x^4 + a x^3 + b x^2 + c x + d factors into
    (x^2 + al1 x + be1)(x^2 + al2 x + be2) at the largest root
    y = be1 + be2 of its resolvent cubic, found by Halley steps, and each
    factor's real roots are polished by Newton steps on the quartic.  A complex pair stands in by
    its real part, which bounds the minimum from above like any angle.
    """
    c4, c3, c2, c1, c0 = quartic
    zero = (c4 == 0.0) & (c3 == 0.0) & (c2 == 0.0) & (c1 == 0.0) & (c0 == 0.0)
    if xp.any(zero):
        c0 = xp.where(zero, 1.0, c0)
    flip = abs(c4) < abs(c0)
    e = (xp.where(flip, c0, c4), xp.where(flip, c1, c3), c2,
         xp.where(flip, c3, c1), xp.where(flip, c4, c0))
    ends = e[0] == 0.0  # then e[4] == 0 too
    for _ in range(3):
        lead = e[0] == 0.0
        if not xp.any(lead):
            break
        e = tuple(xp.where(lead, nxt, cur) for cur, nxt in zip(e, (*e[1:], 0.0)))
    e4, e3, e2, e1, e0 = e
    a, b, c, d = e3 / e4, e2 / e4, e1 / e4, e0 / e4
    r1, r0 = a * c - 4.0 * d, (4.0 * b - a * a) * d - c * c

    def resolvent(y):
        return ((y - b) * y + r1) * y + r0, (3.0 * y - 2.0 * b) * y + r1

    def halley(y):  # Newton steps on R / sqrt(R'): Halley's, cubically convergent
        value, slope = resolvent(y)
        return value, slope - value * (3.0 * y - b) / xp.where(slope == 0.0, 1.0, slope)

    # Shifted by b/3 the cubic reads z^3 + P z + Q, whose roots lie within
    # max(sqrt(2 max(-P, 0)), cbrt(2 |Q|)) of 0.  Its largest root lies right
    # of its minimum, where it is convex, unless it is positive there; then
    # it is the one root, left of its maximum, where it is concave.  The
    # steps start from the bound on that side.
    q_shift, p_shift = resolvent(b / 3.0)
    turn = xp.sqrt(_positive(-p_shift, xp) / 3.0)
    bound = xp.maximum(xp.sqrt(2.0 * _positive(-p_shift, xp)),
                       _cube_root_above(2.0 * abs(q_shift), xp))
    right = resolvent(b / 3.0 + turn)[0] <= 0.0
    y = _newton(b / 3.0 + xp.where(right, bound, -bound), halley, True, xp)
    # c = d = 0: R(y) = y^2 (y - b), whose double root the steps approach slowly
    level = (c == 0.0) & (d == 0.0)
    if xp.any(level):
        y = xp.where(level, _positive(b, xp), y)
    # al = a/2 +- p and be = y/2 +- q, with p q = (a y - 2c)/4: the larger
    # of p^2 and q^2 is taken by its square root, and its pair gives the
    # other through al1 + al2 = a, be1 + be2 = y and al1 be2 + al2 be1 = c
    p2, q2, pq = a * a / 4.0 + (y - b), y * y / 4.0 - d, (a * y - 2.0 * c) / 4.0
    by_q, by_p = (q2 >= p2) & (q2 > 0.0), (p2 > q2) & (p2 > 0.0)
    p = xp.where(by_q, pq / xp.where(by_q, xp.sqrt(_positive(q2, xp)), 1.0),
                 xp.sqrt(_positive(p2, xp)))
    q = xp.where(by_p, pq / xp.where(by_p, p, 1.0), xp.sqrt(_positive(q2, xp)))
    al1, al2 = _by_product(a / 2.0 + p, a / 2.0 - p, b - y, xp)
    be1, be2 = _by_product(y / 2.0 + q, y / 2.0 - q, d, xp)
    two_q, two_p = 2.0 * xp.where(by_q, q, 1.0), 2.0 * xp.where(by_p, p, 1.0)
    al1, al2 = (xp.where(by_q, (a * be1 - c) / two_q, al1),
                xp.where(by_q, (c - a * be2) / two_q, al2))
    be1, be2 = _by_product(xp.where(by_p, (y * al1 - c) / two_p, be1),
                           xp.where(by_p, (c - y * al2) / two_p, be2), d, xp)

    def quartic_at(x):
        return ((((e4 * x + e3) * x + e2) * x + e1) * x + e0,
                ((4.0 * e4 * x + 3.0 * e3) * x + 2.0 * e2) * x + e1)

    xs, real, cplx = [], [], []
    for al, be in ((al1, be1), (al2, be2)):
        disc = al * al / 4.0 - be
        root = xp.sqrt(_positive(disc, xp))
        xs += _by_product(-al / 2.0 + root, -al / 2.0 - root, be, xp)
        real += [disc >= 0.0] * 2
        cplx += [disc < 0.0] * 2
    xs = xp.each(lambda x, moving: _newton(x, quartic_at, moving, xp), xs, real)
    extrema = 0 + ends  # a count on floats and on columns alike
    for i, x in enumerate(xs):
        new = real[i]
        for j in range(i):
            new = new & (cplx[j] | (xs[j] != x))
        extrema = extrema + new
    return flip, list(zip(xs, real)), extrema


def _rim_minimum(profile: _ThetaProfile, xp):
    """(m_min, x, flip, extrema, finite): the least m over the stationary
    points of the profile (``_stationary_points``) and theta = pi, the
    first of them where several tie; the point where it lies; the number of
    distinct stationary angles; and whether m is finite at all of them."""
    flip, points, extrema = _stationary_points(profile.quartic(), xp)
    oriented = profile.flipped(flip, xp)
    xs = [x for x, _ in points]
    (m_min, *ms), x_min = xp.each(oriented.at, xs), xs[0]
    finite = abs(m_min) < math.inf
    for m, x in zip(ms, xs[1:]):
        finite = finite & (abs(m) < math.inf)
        lower = m < m_min
        m_min, x_min = xp.where(lower, m, m_min), xp.where(lower, x, x_min)
    m_pi = profile.at_pi()
    at_pi = m_pi < m_min
    return (xp.where(at_pi, m_pi, m_min), xp.where(at_pi, 0.0, x_min), xp.where(at_pi, True, flip),
            extrema, finite & (abs(m_pi) < math.inf))


def _theta(x: float, flip: bool) -> float:
    """theta = 2 atan(t) at t = x, or at t = 1/x where ``flip``."""
    return math.pi - 2.0 * math.atan(x) if flip else 2.0 * math.atan(x)


def _optimum(m_min, xp):
    """(m_opt, nu_tilde_opt) from the least m found: m_opt is at least 1."""
    m_opt = xp.maximum(m_min, 1.0)
    return m_opt, _nu_of_m(m_opt, xp)


def _not_finite(a: float, b: float, cp: float, cm: float) -> MinimizationError:
    return MinimizationError(
        f"angular profile is not finite at its stationary points "
        f"for standard form {StandardForm(a, b, cp, cm)}"
    )


#: ``minimize_m``'s result for a separable or near-separable form.
_SEPARABLE = GemResult(1.0, 0.0, 1.0, 0.0, 1)


def minimize_m(sf: StandardForm, *, log_base=2) -> GemResult:
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
    _log_divisor(log_base)  # DomainError for a base other than 2 and "e"
    nu, separable, symmetric = _scalar_gate(sf)
    if separable:
        return _SEPARABLE
    if symmetric:
        return GemResult(m_from_nu_tilde(nu), math.pi, nu, h_function(nu, log_base), 2)
    ordered = sf.sign_ordered()
    a, b, cp, cm = ordered.a, ordered.b, ordered.c_plus, ordered.c_minus
    m_min, x, flip, extrema, finite = _rim_minimum(
        _ThetaProfile.of(a, b, cp, cm, ordered._inv, _FLOATS), _FLOATS)
    if not finite:
        raise _not_finite(a, b, cp, cm)
    m_opt, nu_opt = _optimum(m_min, _FLOATS)
    return GemResult(m_opt, _theta(x, flip) % (2.0 * math.pi), nu_opt,
                     h_function(nu_opt, log_base), extrema)


class GemBlock(NamedTuple):
    """``minimize_columns``' outcomes as columns, one row per form: its
    nu_tilde_minus (``spectrum()``'s, NaN where that raises) and the
    m_opt, nu_tilde_opt and gaussian_eof that ``minimize_m`` returns for
    it, and by row the ``TwoModeError`` that ``minimize_m`` raises instead;
    such a row reads NaN in the result columns.  theta_opt and
    extrema_found are ``minimize_m``'s alone: the bound experiment reads
    neither."""

    nu_tilde_sigma: np.ndarray
    m_opt: np.ndarray
    nu_tilde_opt: np.ndarray
    gaussian_eof: np.ndarray
    errors: dict[int, TwoModeError]


def minimize_columns(
    a: np.ndarray,
    b: np.ndarray,
    cp: np.ndarray,
    cm: np.ndarray,
    log_base=2,
) -> GemBlock:
    """``minimize_m``'s m_opt, nu_tilde_opt and gaussian_eof of every
    standard form (a, b, c_plus, c_minus), given as float columns of one
    length, in its bits; a bad ``log_base`` raises DomainError at once.

    The block's invariants are derived once, from its sign-ordered
    columns (``_invariants``).  Each row's nu_tilde_minus comes from them,
    with the bits of ``spectrum()`` and NaN where that raises
    (``_nu_tilde_minus``), and the gate runs as masks on the columns: the
    float gate's arithmetic on the same bits.  So a row that fails it (no
    spectrum, unphysical, or entries that are no ``StandardForm``) raises
    in ``minimize_m`` too, and is handed to it on the ``StandardForm`` of
    its own floats for that error, with its type and message.  The other
    rows' profiles, quartics, roots and minima are columns too, and a row
    whose profile is not finite at its stationary points gets its
    ``MinimizationError`` while the others keep their results.  Entries
    must stay far below 1e77 (the sampler's do, at s_max <= 1e6): above it
    Det sigma overflows and NumPy warns where ``minimize_m`` is silent.
    """
    import numpy as np

    from .symplectic import _ARRAYS

    _log_divisor(log_base)  # DomainError for a base other than 2 and "e"
    n = len(a)
    ordered = _sign_ordered(cp, cm, _ARRAYS)
    inv = _invariants(a, b, *ordered)
    nu = _nu_tilde_minus(inv)
    passes, separable, symmetric = _gate(a, b, inv, nu, _ARRAYS)
    symmetric &= passes & ~separable
    general = np.flatnonzero(passes & ~separable & ~symmetric)
    m_opt, nu_opt = np.ones(n), np.ones(n)
    m_opt[symmetric] = _m_of_nu(nu[symmetric])
    nu_opt[symmetric] = nu[symmetric]

    ga, gb, gcp, gcm = (c[general] for c in (a, b, *ordered))
    m_min, _, _, _, finite = _rim_minimum(
        _ThetaProfile.of(ga, gb, gcp, gcm, [c[general] for c in inv], _ARRAYS), _ARRAYS)
    m_opt[general], nu_opt[general] = _optimum(m_min, _ARRAYS)
    errors = {general[k].item(): _not_finite(*(c[k].item() for c in (ga, gb, gcp, gcm)))
              for k in np.flatnonzero(~finite).tolist()}

    # the mask is the float gate's arithmetic on the same bits, so minimize_m
    # raises on each row that fails it
    for i in np.flatnonzero(~passes).tolist():
        try:
            minimize_m(StandardForm(*(c[i].item() for c in (a, b, cp, cm))), log_base=log_base)
        except TwoModeError as exc:
            errors[i] = exc
    failed = sorted(errors)
    m_opt[failed] = nu_opt[failed] = math.nan
    geof = np.zeros(n)
    entangled = np.flatnonzero(nu_opt < 1.0)
    geof[entangled] = [h_function(x, log_base) for x in nu_opt[entangled].tolist()]
    return GemBlock(nu, m_opt, nu_opt, geof, {i: errors[i] for i in failed})


def gaussian_eof(sf: StandardForm, log_base=2) -> float:
    """Gaussian entanglement of formation: h applied to the optimal
    pure-state PT eigenvalue; 0 for separable states."""
    return minimize_m(sf, log_base=log_base).gaussian_eof
