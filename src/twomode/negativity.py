"""PPT separability, negativities, and the symmetric-state entanglement of formation.

For a two-mode Gaussian state everything here is a function of
nu_tilde_minus, the smallest symplectic eigenvalue of the partially
transposed covariance matrix: the state is separable iff
nu_tilde_minus >= 1, and below 1 the negativity, logarithmic negativity
and (for symmetric states) entanglement of formation are strictly
decreasing functions of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotSymmetricError
# SYMMETRY_RTOL is unused here: perfbench/bench_trace.py imports
# negativity.SYMMETRY_RTOL
from .symplectic import (
    DEFAULT_TOL, SYMMETRY_RTOL, StandardForm, SymplecticSpectrum, _require_tol,
)

_LN2 = math.log(2.0)


def _log_divisor(log_base) -> float:
    if log_base == 2:
        return _LN2
    if log_base == "e":
        return 1.0
    raise DomainError(f"log_base must be 2 or 'e', got {log_base!r}")


@dataclass(frozen=True)
class NegativityReport:
    separable: bool
    negativity: float
    log_negativity: float
    eof_symmetric: float | None
    log_base: object = 2


def _nu_tilde(nu_tilde_minus) -> float:
    """``nu_tilde_minus`` as a float; DomainError unless it is positive, as
    every symplectic eigenvalue is (a NaN, 0 or negative value is none)."""
    nu = float(nu_tilde_minus)
    if not nu > 0.0:
        raise DomainError(f"nu_tilde_minus must be positive, got {nu!r}")
    return nu


def is_separable_ppt(spectrum, tol: float = DEFAULT_TOL) -> bool:
    """PPT criterion: separable iff nu_tilde_minus >= 1 (within tol), of a
    ``SymplecticSpectrum`` or of the eigenvalue itself.

    Raises:
        DomainError: if ``tol`` is NaN or negative, or nu_tilde_minus is
            not positive.
    """
    _require_tol("separability", tol)
    if isinstance(spectrum, SymplecticSpectrum):
        spectrum = spectrum.nu_tilde_minus
    return _nu_tilde(spectrum) >= 1.0 - tol


def negativity(nu_tilde_minus: float) -> float:
    """max[0, (1 - nu) / (2 nu)] for nu = nu_tilde_minus; 0 when separable."""
    nu = _nu_tilde(nu_tilde_minus)
    return max(0.0, (1.0 - nu) / (2.0 * nu))


def log_negativity(nu_tilde_minus: float, log_base=2) -> float:
    """max[0, -log nu_tilde_minus]; unbounded as the eigenvalue tends to 0."""
    return max(0.0, -math.log(_nu_tilde(nu_tilde_minus)) / _log_divisor(log_base))


def h_function(x: float, log_base=2) -> float:
    """Entanglement entropy of a pure two-mode Gaussian state, as a function
    of the smallest partially-transposed symplectic eigenvalue x in (0, 1].

    h(x) = u log u - t log t with t = (1-x)^2/(4x) and u = (1+x)^2/(4x) = 1+t.
    h(1) = 0 and h is strictly decreasing, diverging as x -> 0+.
    """
    div = _log_divisor(log_base)
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"h is defined on (0, 1], got {x!r}")
    if x > 1.0:
        if x > 1.0 + 1e-12:
            raise DomainError(f"h is defined on (0, 1], got {x!r}")
        x = 1.0
    t = (1.0 - x) ** 2 / (4.0 * x)
    if t == 0.0:
        return 0.0
    if t == math.inf:  # x below about 1.4e-309: h = 1 - log(4x) to the last bit
        return (1.0 - math.log(4.0 * x)) / div
    # u log u - t log t = log1p(t) + t log1p(1/t): two positive terms, where
    # the two large ones of the difference cancel for small x
    return (math.log1p(t) + t * math.log1p(1.0 / t)) / div


def eof_symmetric(sf: StandardForm, log_base=2) -> float:
    """Entanglement of formation of a symmetric (a == b) two-mode state.

    Equals h(nu_tilde_minus), 0 when separable; for symmetric states the optimal
    decomposition is Gaussian, so this coincides with the Gaussian
    convex-roof value.

    Raises:
        DomainError: if ``log_base`` is not 2 or "e".
        NotSymmetricError: unless ``sf.is_symmetric()``.
    """
    _log_divisor(log_base)
    if not sf.is_symmetric():
        raise NotSymmetricError(
            f"closed-form entanglement of formation needs a == b, got a={sf.a!r}, b={sf.b!r}"
        )
    return _eof_symmetric(sf.spectrum().nu_tilde_minus, log_base)


def _eof_symmetric(nu_tilde_minus: float, log_base) -> float:
    """``eof_symmetric`` of a symmetric form from its nu_tilde_minus."""
    if nu_tilde_minus >= 1.0:
        return 0.0
    return h_function(nu_tilde_minus, log_base)


def negativity_report(sf: StandardForm, *, log_base=2) -> NegativityReport:
    """All PPT-based quantities for one state, plus the symmetric closed form
    when it applies.

    Raises:
        DomainError: if ``log_base`` is not 2 or "e", separable state or not.
    """
    _log_divisor(log_base)
    nu = sf.spectrum().nu_tilde_minus
    separable = is_separable_ppt(nu)
    eof = _eof_symmetric(nu, log_base) if sf.is_symmetric() else None
    if separable:
        return NegativityReport(True, 0.0, 0.0, eof, log_base)
    return NegativityReport(
        False, negativity(nu), log_negativity(nu, log_base), eof, log_base
    )
