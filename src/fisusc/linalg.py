"""Dense Hermitian linear algebra primitives and the package's LAPACK kernel.

Operators are plain ``numpy`` arrays whose dtype follows the input: real
symmetric stays float64, complex stays complex128.  :func:`hermitize` is the
canonical constructor: it validates Hermiticity, symmetrizes away
floating-point drift and returns a read-only array; the public operator
functions validate their input with it.  Dimensions stay small, so
everything is dense.

The kernel entries :func:`eigh`, :func:`eigvalsh`, :func:`inv`,
:func:`cholesky` and :func:`solve` are the package's one route to these
LAPACK routines.  Each calls the gufunc ``numpy.linalg`` itself calls, with
numpy's signature for the dtype and under numpy's error state, so results
keep ``np.linalg``'s bits and a failure raises its ``LinAlgError`` with its
message.  They skip numpy's Python wrapper (array conversion, shape and type
checks, the result namedtuple) and :func:`hermitize`: they take float64 or
complex128 arrays the package built, a (..., m, m) stack as numpy does, and
read the lower triangle.  Callers reach them as ``linalg.<name>``, so one
patch of this module sees every call.  ``svd``, ``qr`` and ``det`` stay on
``np.linalg``: their gufunc names differ between numpy 1.x and 2.x.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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
    if not drift.max() <= HERMITICITY_TOL:
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
    w, U = eigh(np.sum(A, axis=0))
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
    return abs(eigvalsh(H)).sum(-1)


def _raising(message):
    """numpy.linalg's error callback: raise ``LinAlgError(message)``."""
    def raise_error(err, flag):
        raise LinAlgError(message)
    return raise_error


# numpy.linalg's error state for each routine: a failed factorization sets the
# invalid flag, whose callback raises; the other flags are ignored
_NO_CONVERGENCE = dict(call=_raising("Eigenvalues did not converge"), invalid="call",
                       over="ignore", divide="ignore", under="ignore")
_SINGULAR = dict(_NO_CONVERGENCE, call=_raising("Singular matrix"))
_NOT_POSITIVE_DEFINITE = dict(_NO_CONVERGENCE, call=_raising("Matrix is not positive definite"))


def eigh(a):
    """``np.linalg.eigh(a)`` as a plain tuple ``(w, U)``: ascending eigenvalues
    (float64) and eigenvectors of each Hermitian matrix of a (..., m, m) stack."""
    with np.errstate(**_NO_CONVERGENCE):
        return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)``: the ascending eigenvalues (float64) alone."""
    with np.errstate(**_NO_CONVERGENCE):
        return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def inv(a):
    """``np.linalg.inv(a)``: the inverse of each matrix of a (..., m, m) stack."""
    with np.errstate(**_SINGULAR):
        return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def cholesky(a):
    """``np.linalg.cholesky(a)``: the lower Cholesky factor of each matrix."""
    with np.errstate(**_NOT_POSITIVE_DEFINITE):
        return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def solve(a, b):
    """``np.linalg.solve(a, b)``: x with ``a x = b``, for a 1-D ``b`` (one
    right-hand side) or a (..., m, k) stack of them."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    complex_ = a.dtype.kind == "c" or b.dtype.kind == "c"
    with np.errstate(**_SINGULAR):
        return gufunc(a, b, signature="DD->D" if complex_ else "dd->d")
