"""Dense Hermitian linear algebra primitives.

Operators are plain ``numpy`` arrays whose dtype follows the input: real
symmetric stays float64, complex stays complex128.  :func:`hermitize` is the
canonical constructor: it validates Hermiticity, symmetrizes away
floating-point drift and returns a read-only array; the public functions
validate their input with it.  Dimensions stay small, so everything is dense.
"""

import numpy as np

HERMITICITY_TOL = 1e-12


class HermiticityError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def hermitize(entries):
    """Validate and return a Hermitian operator, or a stack of them.

    Each matrix is symmetrized as (H + H†)/2, which absorbs round-off
    drift without masking real asymmetry: if the drift ``max|H - H†|``
    exceeds ``HERMITICITY_TOL`` (relative to the matrix's largest entry,
    with an absolute floor) the input is rejected instead.  A matrix with a
    NaN or infinite entry is rejected too.

    Parameters
    ----------
    entries : array_like
        Square matrix, or a (..., d, d) stack checked matrix by matrix.

    Returns
    -------
    numpy.ndarray
        Read-only Hermitian matrix (or stack) of the input's dtype: real
        input stays real (float64 for integers), complex stays complex.
    """
    H = np.asarray(entries)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2] or H.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    Hh = H.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, refused below
        drift = np.abs(H - Hh)
    # no member's tolerance is lower; a NaN or inf entry makes the drift NaN or inf
    if not np.max(drift) <= HERMITICITY_TOL:
        finite = np.all(np.isfinite(H), axis=(-2, -1))
        asym = np.max(drift, axis=(-2, -1))
        scale = np.maximum(1.0, np.max(np.abs(H), axis=(-2, -1)))
        bad = np.flatnonzero(~finite | (asym > HERMITICITY_TOL * scale))
        if bad.size:
            k = bad[0]
            member = "" if H.ndim == 2 else f" (stack member {k})"
            if not finite.flat[k]:
                raise HermiticityError(f"matrix has a non-finite entry{member}")
            raise HermiticityError(
                f"matrix is not Hermitian{member}: max|H - H^dag| = {asym.flat[k]:.3e} "
                f"(tol {HERMITICITY_TOL:.1e}, scale {scale.flat[k]:.3e})")
    out = (H + Hh) / 2.0
    out.setflags(write=False)
    return out


def _sym(X):
    """The Hermitian part ``(X + X^dag) / 2`` of a (..., d, d) stack, unchecked."""
    return (X + X.conj().swapaxes(-1, -2)) / 2.0


def _lift(B, S):
    """``B S B^dag`` for a (..., r, r) stack of Hermitian cores S and a (d, r) B.

    Symmetrized and read-only, without the Hermiticity check: the cores
    are validated where they are built.
    """
    out = _sym(B @ S @ B.conj().T)
    out.setflags(write=False)
    return out


def _normalized(A):
    """``R A_a R``, ``R = (sum_a A_a)^-1/2``: positive operators rescaled to a POVM."""
    w, U = np.linalg.eigh(np.sum(A, axis=0))
    R = (U / np.sqrt(w)) @ U.conj().T
    return R @ A @ R


def trace_norm(H):
    """Trace norm ``sum_i |lambda_i|`` of a Hermitian operator."""
    return float(_trace_norms(hermitize(H)))


def _trace_norms(H):
    """Trace norms of a (..., d, d) stack of Hermitian operators.

    One batched ``eigvalsh``, without the Hermiticity check: for operators
    the package built itself from validated inputs.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(H)), axis=-1)
