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
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DomainError, MalformedInputError, UnphysicalStateError

if TYPE_CHECKING:
    import numpy as np

#: Absolute slack allowed on the physicality inequalities.
DEFAULT_TOL = 1e-10

#: Relative tolerance below which a == b counts as symmetric.
SYMMETRY_RTOL = 1e-9

# Relative clamp for discriminants that should be non-negative but may round
# slightly below zero when two symplectic eigenvalues (almost) coincide.
_DISC_RTOL = 1e-9

#: ``xp`` on one form's Python floats, for the bodies written once for floats
#: and columns: max and min keep a NaN first argument, ``any`` is a guard's
#: one flag and ``each`` maps f over the points one at a time.
_FLOATS = SimpleNamespace(sqrt=math.sqrt, maximum=max, minimum=min,
                          where=lambda cond, a, b: a if cond else b, any=bool,
                          each=lambda f, *args: [f(*point) for point in zip(*args)])


def __getattr__(name):
    """The names whose values are NumPy's, made on first use and then kept
    as module globals, so that a route on floats never imports NumPy:
    ``OMEGA``, the symplectic form, and ``_ARRAYS``, ``xp`` on a block's
    columns: NumPy, with ``any`` as ``np.count_nonzero`` (about a sixth of
    the cost of ``np.any`` on a block) and ``each`` as one call of f on the
    points' stacked columns."""
    if name not in ("OMEGA", "_ARRAYS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    globals().update(
        OMEGA=np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]),
        _ARRAYS=SimpleNamespace(sqrt=np.sqrt, maximum=np.maximum, minimum=np.minimum,
                                where=np.where, any=np.count_nonzero,
                                each=lambda f, *args: list(f(*map(np.stack, args)))),
    )
    return globals()[name]


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

    Construction derives the form's ``_invariants`` once, after its checks,
    and keeps them in the instance ``__dict__`` as ``_inv``, outside the
    fields, as ``spectrum()`` keeps its result: every float reader of the
    form takes them from there.
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
        self.__dict__["_inv"] = _invariants(self.a, self.b, self.c_plus, self.c_minus)

    def to_matrix(self) -> np.ndarray:
        """The covariance matrix of the form, a 4x4 NumPy array."""
        import numpy as np

        return np.array(self._rows())

    def _rows(self) -> list[list[float]]:
        """The covariance matrix of the form as four rows of Python floats."""
        a, b, cp, cm = self.a, self.b, self.c_plus, self.c_minus
        return [
            [a, 0.0, cp, 0.0],
            [0.0, a, 0.0, cm],
            [cp, 0.0, b, 0.0],
            [0.0, cm, 0.0, b],
        ]

    def invariants(self) -> SymplecticInvariants:
        return SymplecticInvariants(self.a * self.a, self.b * self.b, self.c_plus * self.c_minus,
                                    *self._inv[:3])

    def spectrum(self) -> SymplecticSpectrum:
        """The spectrum from the invariants kept at construction, computed
        on the first call and kept in the instance ``__dict__`` outside the
        fields, so equality, hashing, ``repr``, ``asdict`` and ``replace``
        never see it; a call that raises keeps nothing."""
        spectrum = self.__dict__.get("_spectrum")
        if spectrum is None:
            det_sigma, delta, delta_tilde, _, _ = self._inv
            nu = _nu_pair(delta, det_sigma, delta * delta - 4.0 * det_sigma)
            nu_t = _nu_pair(delta_tilde, det_sigma, delta_tilde * delta_tilde - 4.0 * det_sigma)
            spectrum = self.__dict__["_spectrum"] = SymplecticSpectrum(*nu, *nu_t)
        return spectrum

    def __reduce__(self):
        """Pickles and copies go through the constructor, which checks the
        fields and derives the invariants again, and carry no spectrum."""
        return StandardForm, (self.a, self.b, self.c_plus, self.c_minus)

    def is_symmetric(self, rtol: float = SYMMETRY_RTOL) -> bool:
        """True iff |a - b| <= rtol max(a, b); a NaN or negative ``rtol``
        raises DomainError."""
        _require_tol("symmetry", rtol)
        return _symmetric(self.a, self.b, rtol, _FLOATS)

    def is_physical(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff the form satisfies the uncertainty principle within ``tol``;
        a NaN or negative ``tol`` raises DomainError."""
        _require_tol("physicality", tol)
        return self._violation(tol) is None

    def _violation(self, tol: float) -> str | None:
        """The message naming the first violated physicality inequality
        (``_inequalities``) within ``tol``, or None."""
        a, b, inv = self.a, self.b, self._inv
        holds = _inequalities(a, b, inv, tol)
        return next((message.format(det_sigma=inv[0], delta=inv[1], bound=1.0 + inv[0], a=a, b=b)
                     for ok, message in zip(holds, _VIOLATIONS) if not ok), None)

    def is_pure(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff Det sigma is 1 within ``tol``; a NaN or negative ``tol``
        raises DomainError."""
        _require_tol("purity", tol)
        return abs(self._inv[0] - 1.0) <= tol

    def sign_ordered(self) -> "StandardForm":
        """Equivalent standard form with c_plus >= |c_minus| and c_plus >= 0:
        the form itself when it already is.

        The two residual local freedoms are a simultaneous sign flip of both
        off-diagonal correlations and the exchange of which quadrature pair
        carries the larger one; both are local rotations.
        """
        if self.c_plus >= abs(self.c_minus):
            return self
        return StandardForm(self.a, self.b, *_sign_ordered(self.c_plus, self.c_minus, _FLOATS))


def _symmetric(a, b, rtol, xp):
    """Where |a - b| <= rtol max(a, b) under ``xp``: the one symmetry test."""
    return abs(a - b) <= rtol * xp.maximum(a, b)


def _sign_ordered(cp, cm, xp):
    """(c_plus, c_minus) with c_plus >= |c_minus| and c_plus >= 0 under
    ``xp``: the exchange where |c_minus| > |c_plus|, then the sign flip where
    c_plus < 0.  A pair that is ordered already passes both unchanged."""
    swap = abs(cm) > abs(cp)
    cp, cm = xp.where(swap, -cm, cp), xp.where(swap, -cp, cm)
    flip = cp < 0.0
    return xp.where(flip, -cp, cp), xp.where(flip, -cm, cm)


def _require_tol(name: str, tol: float) -> None:
    """DomainError unless a predicate's ``tol`` is >= 0: against a NaN slack
    every comparison is False, which accepts any state."""
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


def _inequalities(a, b, inv, tol):
    """The physicality inequalities of the standard form (a, b, c_plus,
    c_minus) with invariants ``inv`` (``_invariants``) within ``tol``, each
    True where it holds, elementwise for arrays: the one physicality test.
    Det sigma >= 1, Delta <= 1 + Det sigma and sigma >= 0 (its two factors
    ab - c_pm^2 >= 0) are equivalent to nu_minus >= 1, which implies
    a, b >= 1 up to rounding.  Invariants that overflow to inf or NaN would
    pass every later comparison, so the first entry fails them."""
    det_sigma, delta, _, f_plus, f_minus = inv
    return ((abs(det_sigma) < math.inf) & (abs(delta) < math.inf),
            det_sigma >= 1.0 - tol,
            delta <= 1.0 + det_sigma + tol,
            (f_plus >= -tol) & (f_minus >= -tol),
            (a >= 1.0 - tol) & (b >= 1.0 - tol))


def _invariants(a, b, c_plus, c_minus):
    """(Det sigma, Delta, Delta_tilde, ab - c_plus^2, ab - c_minus^2) of the
    standard form (a, b, c_plus, c_minus), elementwise for arrays: the one
    derivation that ``invariants``, ``spectrum``, the physicality test, the
    minimizer's gate and profile and the sampler's array tests all read.
    It runs once per ``StandardForm``, at construction, once per
    ``minimize_columns`` block and once per sampler attempt.  The sign
    ordering (``_sign_ordered``) keeps the first three bit for bit and makes
    the last the larger factor."""
    ab, quad, two_det_gamma = a * b, a * a + b * b, 2.0 * (c_plus * c_minus)
    f_plus, f_minus = ab - c_plus * c_plus, ab - c_minus * c_minus
    return f_plus * f_minus, quad + two_det_gamma, quad - two_det_gamma, f_plus, f_minus


def _real(v) -> float:
    """``v`` as a Python float.  A NumPy scalar is read through ``tolist()``
    first, so that a complex one raises TypeError, as a Python complex does,
    where ``float()`` would drop its imaginary part with a warning."""
    return float(v.tolist() if hasattr(v, "tolist") else v)


def _float_rows(x) -> tuple[list[list[float]], tuple[int, ...]]:
    """The rows of the table ``x`` as lists of Python floats, and its shape.
    ``x`` and each of its rows is a list, a tuple or anything with
    ``tolist()``, such as a NumPy array, and each entry goes through
    ``_real``, which no sequence passes.  A 2-D float array is read by one
    ``tolist()`` alone: its entries are floats already (None where a masked
    array is masked, which the caller's ``math.isfinite`` rejects).  What is
    no table of real numbers raises TypeError, ValueError or OverflowError."""
    if getattr(x, "ndim", 0) == 2 and getattr(getattr(x, "dtype", None), "kind", "") == "f":
        return x.tolist(), tuple(x.shape)
    rows = x.tolist() if hasattr(x, "tolist") else x
    if not isinstance(rows, (list, tuple)):
        raise TypeError(f"expected rows of numbers, got {type(rows).__name__!r}")
    rows = [row.tolist() if hasattr(row, "tolist") else row for row in rows]
    if not all(isinstance(row, (list, tuple)) for row in rows):
        raise TypeError("expected rows of numbers, got a row that is no sequence")
    lengths = set(map(len, rows))
    if len(lengths) > 1:
        raise ValueError(f"rows of unequal lengths {sorted(lengths)}")
    return [list(map(_real, row)) for row in rows], (len(rows), *lengths)


def _check_matrix(cm) -> list[list[float]]:
    """Rows of the symmetrized 4x4 matrix ``cm`` as Python floats, after the
    shape, finiteness and asymmetry checks.  Each off-diagonal pair is
    halved before it is summed, which no finite pair overflows; a diagonal
    entry is its own mean."""
    try:
        rows, shape = _float_rows(cm)
        flat = sum(rows, [])
        finite = all(map(math.isfinite, flat))
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"covariance matrix entries are not numbers: {exc}") from None
    if shape != (4, 4):
        raise MalformedInputError(f"expected a 4x4 covariance matrix, got shape {shape}")
    if not finite:
        raise MalformedInputError("covariance matrix contains non-finite entries")
    x00, x01, x02, x03, x10, x11, x12, x13, x20, x21, x22, x23, x30, x31, x32, x33 = flat
    asym = max(abs(x01 - x10), abs(x02 - x20), abs(x03 - x30),
               abs(x12 - x21), abs(x13 - x31), abs(x23 - x32))
    if asym > max(DEFAULT_TOL, 1e-8 * max(map(abs, flat))):
        raise MalformedInputError(f"covariance matrix is not symmetric (max asymmetry {asym:g})")
    s01, s02, s03 = 0.5 * x01 + 0.5 * x10, 0.5 * x02 + 0.5 * x20, 0.5 * x03 + 0.5 * x30
    s12, s13, s23 = 0.5 * x12 + 0.5 * x21, 0.5 * x13 + 0.5 * x31, 0.5 * x23 + 0.5 * x32
    return [[x00, s01, s02, s03], [s01, x11, s12, s13], [s02, s12, x22, s23], [s03, s13, s23, x33]]


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
    """The smaller eigenvalue of ``_nu_pair`` on arrays, NaN where it
    raises, in its steps and so its bits.  Its float checks stop at the
    first that decides: run through this masked body, a float call takes
    about 4x as long."""
    import numpy as np

    floor = -_DISC_RTOL * np.maximum(np.maximum(delta * delta, abs(4.0 * det_sigma)), 1.0)
    hi_sq = 0.5 * (delta + np.sqrt(np.maximum(disc, 0.0)))
    hi_sq = np.where((disc >= floor) & (hi_sq > 0.0) & (det_sigma >= 0.0), hi_sq, math.nan)
    return np.sqrt(det_sigma / hi_sq)


def _nu_tilde_minus(inv):
    """nu_tilde_minus of the forms with invariants ``inv``
    (``_invariants``), as arrays: the bits of ``spectrum()``, and NaN where
    it raises on either pair."""
    import numpy as np

    det_sigma = inv[0]
    nu_minus, nu_tilde = (_nu_pairs(x, det_sigma, x * x - 4.0 * det_sigma) for x in inv[1:3])
    return np.where(np.isnan(nu_minus), math.nan, nu_tilde)


def validate_physical(cm) -> bool:
    """Check the uncertainty principle for a candidate covariance matrix.

    True iff ``to_standard_form(cm)`` accepts the matrix, i.e. iff it
    satisfies ``StandardForm.is_physical()``.

    Raises:
        MalformedInputError: if the input is not a symmetric 4x4 matrix.
    """
    try:
        to_standard_form(cm)
    except UnphysicalStateError:
        return False
    return True


def local_invariants(cm) -> SymplecticInvariants:
    """Block determinants and the Delta invariants of a physical matrix."""
    return to_standard_form(cm).invariants()


def symplectic_spectrum(cm) -> SymplecticSpectrum:
    """Symplectic eigenvalues of ``cm`` and of its partial transpose.

    Computed from the invariants: 2 nu_{-+}^2 = Delta -+ sqrt(Delta^2 - 4 Det),
    and the same with Delta_tilde for the partially transposed matrix.
    """
    return to_standard_form(cm).spectrum()


def spectrum_via_eigenvalues(cm) -> SymplecticSpectrum:
    """Spectrum through |i Omega sigma| eigenvalues; slow cross-check route.

    Kept as an independent oracle for the closed-form path, not for
    production use.
    """
    import numpy as np

    from .symplectic import OMEGA  # made on first use, by ``__getattr__``

    arr = np.array(_check_matrix(cm))

    def _pair(mat):
        eigs = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ mat)))
        return float(0.5 * eigs[0] + 0.5 * eigs[1]), float(0.5 * eigs[2] + 0.5 * eigs[3])

    nu_minus, nu_plus = _pair(arr)
    nu_t_minus, nu_t_plus = _pair(partial_transpose(arr))
    return SymplecticSpectrum(nu_minus, nu_plus, nu_t_minus, nu_t_plus)


def partial_transpose(cm) -> np.ndarray:
    """Covariance matrix after transposing the second mode (p2 -> -p2)."""
    import numpy as np

    arr = np.asarray(cm, dtype=float)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return flip @ arr @ flip


def _local_normalizer(m00: float, m01: float, m11: float) -> tuple[float, float, float, float]:
    """sqrt(det M) and the entries (s00, s01, s11) of the symmetric local
    symplectic S with S M S^T = sqrt(det M) I, for a positive-definite 2x2
    block M = [[m00, m01], [m01, m11]].

    S = adj(sqrt M) / det(M)^(1/4), with the closed-form matrix square root
    sqrt M = (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)).
    """
    det = m00 * m11 - m01 * m01
    if not (m00 > 0.0 and det > 0.0):
        raise UnphysicalStateError(
            f"local block [[{m00:.12g}, {m01:.12g}], [{m01:.12g}, {m11:.12g}]] "
            "is not positive definite"
        )
    root_det = math.sqrt(det)
    scale = 1.0 / math.sqrt((m00 + m11 + 2.0 * root_det) * root_det)
    return root_det, (m11 + root_det) * scale, -m01 * scale, (m00 + root_det) * scale


def to_standard_form(cm) -> StandardForm:
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
    """
    (m00, m01, c00, c01), (_, m11, c10, c11), (_, _, n00, n01), (*_, n11) = _check_matrix(cm)
    a, s00, s01, s11 = _local_normalizer(m00, m01, m11)
    b, t00, t01, t11 = _local_normalizer(n00, n01, n11)
    # G = (S1 gamma) S2^T, both S symmetric
    h00 = s00 * c00 + s01 * c10
    h01 = s00 * c01 + s01 * c11
    h10 = s01 * c00 + s11 * c10
    h11 = s01 * c01 + s11 * c11
    g00 = h00 * t00 + h01 * t01
    g01 = h00 * t01 + h01 * t11
    g10 = h10 * t00 + h11 * t01
    g11 = h10 * t01 + h11 * t11
    # (P + Q) / 2 and (P - Q) / 2 are the signed singular values of G, since
    # P^2 - Q^2 = 4 Det G
    p = math.hypot(g00 + g11, g01 - g10)
    q = math.hypot(g00 - g11, g01 + g10)
    sf = StandardForm(a, b, 0.5 * (p + q), 0.5 * (p - q))
    problem = sf._violation(DEFAULT_TOL)
    if problem is not None:
        raise UnphysicalStateError(problem)
    return sf


def global_purity(cm) -> float:
    """Tr rho^2 = 1 / sqrt(Det sigma)."""
    return 1.0 / math.sqrt(to_standard_form(cm).invariants().det_sigma)


def local_purities(cm) -> tuple[float, float]:
    """Purities of the two reduced single-mode states."""
    sf = to_standard_form(cm)
    return 1.0 / sf.a, 1.0 / sf.b


def make_two_mode_squeezed(r: float) -> list[list[float]]:
    """Covariance matrix of a pure two-mode squeezed state with parameter r,
    as four rows of Python floats.

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
    return StandardForm(ch, ch, sh, -sh)._rows()


def cm_from_json_dict(obj) -> list[list[float]]:
    """Covariance matrix from the JSON wire format, as four rows of Python
    floats.

    Accepts ``{"cm": [[...4x4 row-major...]]}`` or
    ``{"standard_form": {"a":..., "b":..., "c_plus":..., "c_minus":...}}``.
    """
    if not isinstance(obj, dict):
        raise MalformedInputError("state JSON must be an object")
    if "cm" in obj:
        try:
            rows, shape = _float_rows(obj["cm"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"invalid 'cm' entries: {exc}") from None
        if shape != (4, 4):
            raise MalformedInputError(f"'cm' must be 4x4 row-major, got shape {shape}")
        return rows
    if "standard_form" in obj:
        sf = obj["standard_form"]
        try:
            return StandardForm(
                float(sf["a"]), float(sf["b"]), float(sf["c_plus"]), float(sf["c_minus"])
            )._rows()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"invalid 'standard_form' object: {exc}") from None
    raise MalformedInputError("state JSON needs a 'cm' or 'standard_form' key")
