"""Two-mode Gaussian covariance matrices: physicality, standard form, spectra.

Conventions: natural units with the vacuum covariance matrix equal to the
4x4 identity, quadratures ordered (q1, p1, q2, p2), and commutation
relations [X_i, X_j] = 2i * OMEGA_ij.  In these units every physicality
threshold sits at 1: a matrix is a valid state iff its smallest symplectic
eigenvalue is >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MalformedInputError, UnphysicalStateError

OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

#: Absolute slack allowed on the physicality inequalities.
DEFAULT_TOL = 1e-10

#: Relative tolerance below which a == b counts as symmetric.
SYMMETRY_RTOL = 1e-9

# Relative clamp for discriminants that should be non-negative but may round
# slightly below zero when two symplectic eigenvalues (almost) coincide.
_DISC_RTOL = 1e-9


@dataclass(frozen=True)
class SymplecticInvariants:
    """Local-symplectic invariants of a two-mode covariance matrix.

    ``delta`` is Det(alpha) + Det(beta) + 2 Det(gamma); ``delta_tilde`` is the
    same combination with the sign of Det(gamma) flipped, i.e. the value taken
    after partial transposition of the second mode.
    """

    det_alpha: float
    det_beta: float
    det_gamma: float
    det_sigma: float
    delta: float
    delta_tilde: float


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues of a state and of its partial transpose."""

    nu_minus: float
    nu_plus: float
    nu_tilde_minus: float
    nu_tilde_plus: float


@dataclass(frozen=True)
class StandardForm:
    """Canonical correlations (a, b, c_plus, c_minus) of a two-mode state.

    Every two-mode covariance matrix is equivalent, under local symplectic
    operations, to the matrix with diagonal blocks a*I, b*I and off-diagonal
    block diag(c_plus, c_minus).  The sign convention used throughout the
    package is c_plus >= |c_minus| and c_plus >= 0.
    """

    a: float
    b: float
    c_plus: float
    c_minus: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)
                and math.isfinite(self.c_plus) and math.isfinite(self.c_minus)):
            vals = (self.a, self.b, self.c_plus, self.c_minus)
            raise MalformedInputError(f"standard form entries must be finite, got {vals}")
        if self.a <= 0.0 or self.b <= 0.0:
            raise MalformedInputError("diagonal correlations a, b must be positive")

    def to_matrix(self) -> np.ndarray:
        a, b, cp, cm = self.a, self.b, self.c_plus, self.c_minus
        return np.array([
            [a, 0.0, cp, 0.0],
            [0.0, a, 0.0, cm],
            [cp, 0.0, b, 0.0],
            [0.0, cm, 0.0, b],
        ])

    def invariants(self) -> SymplecticInvariants:
        a, b, cp, cm = self.a, self.b, self.c_plus, self.c_minus
        return SymplecticInvariants(a * a, b * b, cp * cm, *_dets(a, b, cp, cm))

    def spectrum(self) -> SymplecticSpectrum:
        det_sigma, delta, delta_tilde = _dets(self.a, self.b, self.c_plus, self.c_minus)
        nu = _nu_pair(delta, det_sigma, delta * delta - 4.0 * det_sigma)
        nu_t = _nu_pair(delta_tilde, det_sigma, delta_tilde * delta_tilde - 4.0 * det_sigma)
        return SymplecticSpectrum(*nu, *nu_t)

    def is_symmetric(self, rtol: float = SYMMETRY_RTOL) -> bool:
        return abs(self.a - self.b) <= rtol * max(self.a, self.b)

    def is_physical(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff the form satisfies the uncertainty principle within ``tol``."""
        return self._violation(tol) is None

    def _violation(self, tol: float) -> str | None:
        """Message template of the first violated physicality inequality
        (``_inequalities``), or None; a NaN ``tol`` raises DomainError."""
        _require_tol("physicality", tol)
        holds = _inequalities(self.a, self.b, self.c_plus, self.c_minus, tol)
        return next((message for ok, message in zip(holds, _VIOLATIONS) if not ok), None)

    def is_pure(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.invariants().det_sigma - 1.0) <= tol

    def sign_ordered(self) -> "StandardForm":
        """Equivalent standard form with c_plus >= |c_minus| and c_plus >= 0:
        the form itself when it already is.

        The two residual local freedoms are a simultaneous sign flip of both
        off-diagonal correlations and the exchange of which quadrature pair
        carries the larger one; both are local rotations.
        """
        cp, cm = self.c_plus, self.c_minus
        if cp >= abs(cm):
            return self
        if abs(cm) > abs(cp):
            cp, cm = -cm, -cp
        if cp < 0.0:
            cp, cm = -cp, -cm
        return StandardForm(self.a, self.b, cp, cm)


def _require_tol(name: str, tol: float) -> None:
    """DomainError unless ``tol`` >= 0: against a NaN slack every comparison
    is False, which accepts any state."""
    if not tol >= 0.0:
        raise DomainError(f"{name} tolerance must be >= 0, got {tol!r}")


#: ``_violation``'s message templates, one per ``_inequalities`` entry.
_VIOLATIONS = (
    "invariants Det sigma = {det_sigma:.12g}, Delta = {delta:.12g} are not finite",
    "Det sigma = {det_sigma:.12g} < 1 violates the purity bound",
    "Delta = {delta:.12g} exceeds 1 + Det sigma = {bound:.12g}",
    "covariance matrix is not positive semidefinite",
    "local determinants ({a:.12g}^2, {b:.12g}^2) fall below 1",
)


def _inequalities(a, b, c_plus, c_minus, tol):
    """The physicality inequalities of the standard form (a, b, c_plus,
    c_minus) within ``tol``, each True where it holds, elementwise for
    arrays: the one physicality test.  Det sigma >= 1, Delta <= 1 + Det
    sigma and sigma >= 0 are equivalent to nu_minus >= 1, which implies
    a, b >= 1 up to rounding.  Invariants that overflow to inf or NaN would
    pass every later comparison, so the first entry fails them."""
    det_sigma, delta, _ = _dets(a, b, c_plus, c_minus)
    ab = a * b
    return (
        (abs(det_sigma) < math.inf) & (abs(delta) < math.inf),
        det_sigma >= 1.0 - tol,
        delta <= 1.0 + det_sigma + tol,
        (ab - c_plus * c_plus >= -tol) & (ab - c_minus * c_minus >= -tol),
        (a >= 1.0 - tol) & (b >= 1.0 - tol),
    )


def _dets(a, b, c_plus, c_minus):
    """(Det sigma, Delta, Delta_tilde) of the standard form (a, b, c_plus,
    c_minus), elementwise for arrays: the one derivation that ``invariants``,
    ``spectrum``, the physicality test and the sampler's array tests all read."""
    det_gamma = c_plus * c_minus
    quad = a * a + b * b
    return (
        (a * b - c_plus * c_plus) * (a * b - c_minus * c_minus),
        quad + 2.0 * det_gamma,
        quad - 2.0 * det_gamma,
    )


def _check_matrix(cm, tol: float) -> np.ndarray:
    arr = np.asarray(cm, dtype=float)
    if arr.shape != (4, 4):
        raise MalformedInputError(f"expected a 4x4 covariance matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MalformedInputError("covariance matrix contains non-finite entries")
    asym = np.max(np.abs(arr - arr.T))
    if asym > max(tol, 1e-8 * np.max(np.abs(arr))):
        raise MalformedInputError(f"covariance matrix is not symmetric (max asymmetry {asym:g})")
    return 0.5 * (arr + arr.T)


def _nu_pair(delta: float, det_sigma: float, disc: float) -> tuple[float, float]:
    """Both symplectic eigenvalues from (Delta, Det sigma) and the caller's
    disc = Delta^2 - 4 Det sigma, factored where the invariants are closed.

    nu_-^2 and nu_+^2 are the roots of x^2 - Delta x + Det sigma; the smaller
    root is evaluated as Det sigma over the larger one to avoid cancellation.
    """
    if disc < 0.0:
        if disc < -_DISC_RTOL * max(delta * delta, abs(4.0 * det_sigma), 1.0):
            raise UnphysicalStateError(
                f"symplectic discriminant is negative (Delta={delta:g}, Det={det_sigma:g}); "
                "not a valid covariance matrix"
            )
        disc = 0.0
    hi_sq = 0.5 * (delta + math.sqrt(disc))
    if hi_sq <= 0.0 or det_sigma < 0.0:
        raise UnphysicalStateError(
            f"symplectic spectrum undefined (Delta={delta:g}, Det={det_sigma:g})"
        )
    return math.sqrt(det_sigma / hi_sq), math.sqrt(hi_sq)


def _nu_pairs(delta, det_sigma, disc):
    """``_nu_pair`` on arrays, NaN where it raises, in its steps and so its
    bits.  Its float checks stop at the first that decides: run through
    this masked body, a float call takes about 4x as long."""
    floor = -_DISC_RTOL * np.maximum(np.maximum(delta * delta, abs(4.0 * det_sigma)), 1.0)
    hi_sq = 0.5 * (delta + np.sqrt(np.maximum(disc, 0.0)))
    hi_sq = np.where((disc >= floor) & (hi_sq > 0.0) & (det_sigma >= 0.0), hi_sq, math.nan)
    return np.sqrt(det_sigma / hi_sq), np.sqrt(hi_sq)


def validate_physical(cm, tol: float = DEFAULT_TOL) -> bool:
    """Check the uncertainty principle for a candidate covariance matrix.

    True iff ``to_standard_form(cm, tol)`` accepts the matrix, i.e. iff it
    satisfies ``StandardForm.is_physical(tol)``.

    Raises:
        MalformedInputError: if the input is not a symmetric 4x4 matrix.
        DomainError: if ``tol`` is NaN or negative.
    """
    try:
        to_standard_form(cm, tol)
    except UnphysicalStateError:
        return False
    return True


def local_invariants(cm, tol: float = DEFAULT_TOL) -> SymplecticInvariants:
    """Block determinants and the Delta invariants of a physical matrix."""
    return to_standard_form(cm, tol).invariants()


def symplectic_spectrum(cm, tol: float = DEFAULT_TOL) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``cm`` and of its partial transpose.

    Computed from the invariants: 2 nu_{-+}^2 = Delta -+ sqrt(Delta^2 - 4 Det),
    and the same with Delta_tilde for the partially transposed matrix.
    """
    return to_standard_form(cm, tol).spectrum()


def spectrum_via_eigenvalues(cm) -> SymplecticSpectrum:
    """Spectrum through |i Omega sigma| eigenvalues; slow cross-check route.

    Kept as an independent oracle for the closed-form path, not for
    production use.
    """
    arr = _check_matrix(cm, DEFAULT_TOL)

    def _pair(mat):
        eigs = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ mat)))
        return float(0.5 * (eigs[0] + eigs[1])), float(0.5 * (eigs[2] + eigs[3]))

    nu_minus, nu_plus = _pair(arr)
    nu_t_minus, nu_t_plus = _pair(partial_transpose(arr))
    return SymplecticSpectrum(nu_minus, nu_plus, nu_t_minus, nu_t_plus)


def partial_transpose(cm) -> np.ndarray:
    """Covariance matrix after transposing the second mode (p2 -> -p2)."""
    arr = np.asarray(cm, dtype=float)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return flip @ arr @ flip


def _local_normalizer(block: np.ndarray) -> tuple[float, np.ndarray]:
    """sqrt(det M) and the local symplectic S with S M S^T = sqrt(det M) I,
    for a positive-definite 2x2 block M.

    S = adj(sqrt M) / det(M)^(1/4), with the closed-form matrix square root
    sqrt M = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)).
    """
    (m00, m01), (_, m11) = block.tolist()
    det = m00 * m11 - m01 * m01
    if not (m00 > 0.0 and det > 0.0):
        raise UnphysicalStateError(
            f"local block [[{m00:.12g}, {m01:.12g}], [{m01:.12g}, {m11:.12g}]] "
            "is not positive definite"
        )
    root_det = math.sqrt(det)
    scale = 1.0 / math.sqrt((m00 + m11 + 2.0 * root_det) * root_det)
    return root_det, np.array([[m11 + root_det, -m01], [-m01, m00 + root_det]]) * scale


def to_standard_form(cm, tol: float = DEFAULT_TOL) -> StandardForm:
    """Reduce a physical covariance matrix to its unique standard form.

    Local symplectic maps bring the diagonal blocks to a*I and b*I; the
    remaining local rotations diagonalize the transformed correlation block
    G = S1 gamma S2^T, so c_plus and |c_minus| are its singular values and
    c_minus carries the sign of Det G = Det gamma (c_plus >= |c_minus| >= 0).
    The maps preserve Det sigma, Delta and the signs of the eigenvalues, so
    physicality is decided on the result by ``StandardForm.is_physical``.

    Raises:
        MalformedInputError: if the input is not a symmetric 4x4 matrix.
        UnphysicalStateError: if a local block is not positive definite, or
            naming the first violated inequality of the standard form.
        DomainError: if ``tol`` is NaN or negative.
    """
    _require_tol("physicality", tol)  # before a local block can fail
    arr = _check_matrix(cm, tol)
    a, s1 = _local_normalizer(arr[:2, :2])
    b, s2 = _local_normalizer(arr[2:, 2:])
    (g00, g01), (g10, g11) = (s1 @ arr[:2, 2:] @ s2.T).tolist()
    # (P + Q) / 2 and (P - Q) / 2 are the signed singular values of G, since
    # P^2 - Q^2 = 4 Det G
    p = math.hypot(g00 + g11, g01 - g10)
    q = math.hypot(g00 - g11, g01 + g10)
    sf = StandardForm(a, b, 0.5 * (p + q), 0.5 * (p - q))
    problem = sf._violation(tol)
    if problem is not None:
        inv = sf.invariants()
        raise UnphysicalStateError(problem.format(
            det_sigma=inv.det_sigma, delta=inv.delta, bound=1.0 + inv.det_sigma, a=a, b=b
        ))
    return sf


def global_purity(cm, tol: float = DEFAULT_TOL) -> float:
    """Tr rho^2 = 1 / sqrt(Det sigma)."""
    return 1.0 / math.sqrt(to_standard_form(cm, tol).invariants().det_sigma)


def local_purities(cm, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Purities of the two reduced single-mode states."""
    sf = to_standard_form(cm, tol)
    return 1.0 / sf.a, 1.0 / sf.b


def make_two_mode_squeezed(r: float) -> np.ndarray:
    """Covariance matrix of a pure two-mode squeezed state with parameter r.

    Diagonal blocks cosh(2r)*I, off-diagonal diag(sinh 2r, -sinh 2r);
    the partially transposed spectrum has nu_tilde_minus = exp(-2r).
    """
    if not math.isfinite(r) or r < 0.0:
        raise MalformedInputError(f"squeezing parameter must be finite and >= 0, got {r!r}")
    try:
        ch = math.cosh(2.0 * r)
        sh = math.sinh(2.0 * r)
    except OverflowError:
        raise MalformedInputError(f"squeezing parameter {r!r} overflows cosh(2r)") from None
    return StandardForm(ch, ch, sh, -sh).to_matrix()


def cm_from_json_dict(obj) -> np.ndarray:
    """Covariance matrix from the JSON wire format.

    Accepts ``{"cm": [[...4x4 row-major...]]}`` or
    ``{"standard_form": {"a":..., "b":..., "c_plus":..., "c_minus":...}}``.
    """
    if not isinstance(obj, dict):
        raise MalformedInputError("state JSON must be an object")
    if "cm" in obj:
        try:
            arr = np.asarray(obj["cm"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"invalid 'cm' entries: {exc}") from None
        if arr.shape != (4, 4):
            raise MalformedInputError(f"'cm' must be 4x4 row-major, got shape {arr.shape}")
        return arr
    if "standard_form" in obj:
        sf = obj["standard_form"]
        try:
            return StandardForm(
                float(sf["a"]), float(sf["b"]), float(sf["c_plus"]), float(sf["c_minus"])
            ).to_matrix()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"invalid 'standard_form' object: {exc}") from None
    raise MalformedInputError("state JSON needs a 'cm' or 'standard_form' key")
