import numpy as np
import pytest

from twomode import ExtremalParams, StandardForm, build_state, glems_threshold, gmems_threshold


# Physical (is_physical() holds), but spectrum() raises on the pair of
# sigma: its discriminant rounds to -2.55, where 50 digits give +0.11.
# The pair of its partial transpose gives nu_tilde_minus = 0.0255.  It is
# the raw attempt (0.5, 0.5, 1 - 2^-24, 2^-40) at s_max 855299.6953125.
SIGMA_PAIR_UNDEFINED = StandardForm(427650.34765625, 427650.34765625,
                                    427650.3221651337, -427650.3221647448)


# Matrices with a local block that is not positive definite: negative
# definite, indefinite, and positive determinant with negative trace.
BLOCK_NOT_POSITIVE_DEFINITE = [
    np.diag([-2.0, -2.0, 2.0, 2.0]),
    np.diag([4.0, 4.0, 4.0, -1.0]),
    np.array([
        [-1.0, 0.5, 0.0, 0.0],
        [0.5, -3.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
    ]),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


def draw_params(rng, n, lam="any", s_max=12.0, family_window=None, margin=1e-6):
    """n random valid ExtremalParams with g inside an entangled window.

    ``family_window`` picks whose entanglement threshold caps g: "gmems",
    "glems", or None for the gmems window with arbitrary lambda.
    """
    out = []
    while len(out) < n:
        s = rng.uniform(1.0 + 1e-3, s_max)
        d = rng.uniform(-(s - 1.0), s - 1.0)
        if lam == "any":
            lam_val = rng.uniform(-1.0, 1.0)
        else:
            lam_val = float(lam)
        lo = 2.0 * abs(d) + 1.0
        hi = glems_threshold(s, d) if family_window == "glems" else gmems_threshold(s)
        if hi - lo < 1e-6:
            continue
        u = rng.uniform(margin, 1.0 - margin)
        out.append(ExtremalParams(s, d, lo + u * (hi - lo), lam_val))
    return out


def draw_entangled_states(rng, n, lam="any", s_max=12.0, nu_cap=1.0 - 1e-6):
    """n random entangled standard forms (with their parameters)."""
    out = []
    while len(out) < n:
        window = "glems" if lam == -1.0 else None
        for p in draw_params(rng, 1, lam=lam, s_max=s_max, family_window=window):
            try:
                sf = build_state(p)
            except Exception:
                continue
            if sf.spectrum().nu_tilde_minus < nu_cap:
                out.append((p, sf))
    return out
