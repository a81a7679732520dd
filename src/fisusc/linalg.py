"""Dense complex-Hermitian linear algebra primitives.

Operators are plain complex ``numpy`` arrays.  :func:`hermitize` is the
canonical constructor: it validates Hermiticity, symmetrizes away
floating-point drift and returns a read-only array.  Dimensions in this
package stay small (a few tens), so everything is dense.
"""

import numpy as np

HERMITICITY_TOL = 1e-12


class HermiticityError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def hermitize(entries):
    """Validate and return a Hermitian operator.

    The matrix is symmetrized as (H + H†)/2, which absorbs round-off
    drift without masking real asymmetry: if the drift ``max|H - H†|``
    exceeds ``HERMITICITY_TOL`` (relative to the largest entry, with an
    absolute floor) the input is rejected instead.

    Parameters
    ----------
    entries : array_like
        Square complex matrix.

    Returns
    -------
    numpy.ndarray
        Read-only complex Hermitian matrix.
    """
    H = np.asarray(entries, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H)))) if H.size else 1.0
    asym = float(np.max(np.abs(H - H.conj().T)))
    if asym > HERMITICITY_TOL * scale:
        raise HermiticityError(
            f"matrix is not Hermitian: max|H - H^dag| = {asym:.3e} "
            f"(tol {HERMITICITY_TOL:.1e}, scale {scale:.3e})")
    out = (H + H.conj().T) / 2.0
    out.setflags(write=False)
    return out


def is_hermitian(H):
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(H)))) if H.size else 1.0
    return float(np.max(np.abs(H - H.conj().T))) <= HERMITICITY_TOL * scale


def _require_hermitian(H, what="operator"):
    if not is_hermitian(H):
        raise HermiticityError(f"{what} is not Hermitian within tolerance")


def eig_hermitian(H):
    """Eigendecomposition of a Hermitian operator.

    Returns
    -------
    (eigenvalues, eigenvectors) : (numpy.ndarray, numpy.ndarray)
        Real eigenvalues sorted in descending order and the matching
        unitary matrix of column eigenvectors, so that
        ``H = V @ diag(w) @ V.conj().T``.
    """
    _require_hermitian(H)
    w, V = np.linalg.eigh(np.asarray(H, dtype=complex))
    return w[::-1].copy(), V[:, ::-1].copy()


def trace_norm(H):
    """Trace norm ``sum_i |lambda_i|`` of a Hermitian operator."""
    _require_hermitian(H)
    return float(_trace_norms(np.asarray(H, dtype=complex)))


def _trace_norms(H):
    """Trace norms of a (..., d, d) stack of Hermitian operators.

    One batched ``eigvalsh``, without the Hermiticity check: for operators
    the package built itself from validated inputs.
    """
    return np.sum(np.abs(np.linalg.eigvalsh(H)), axis=-1)


def min_eigenvalue(H):
    """Smallest eigenvalue of a Hermitian operator."""
    _require_hermitian(H)
    return float(np.linalg.eigvalsh(np.asarray(H, dtype=complex))[0])


def symmetrize_real(M):
    """Validate and symmetrize a real symmetric matrix (e.g. a Fisher matrix)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if float(np.max(np.abs(M - M.T))) > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return (M + M.T) / 2.0
