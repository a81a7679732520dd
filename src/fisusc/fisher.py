"""Classical and quantum Fisher information.

Conventions
-----------
For a POVM ``{M_a}`` and state ``rho(theta)`` the outcome probabilities
are ``p_a = Tr[rho M_a]`` and the scores are

    l_{a,j} = Tr[d_j rho M_a] / p_a,

giving the Fisher matrix ``F_{jk} = sum_a p_a l_{a,j} l_{a,k}``.  The
quantum Fisher matrix is built from the symmetric logarithmic
derivatives L_j solving ``2 d_j rho = L_j rho + rho L_j``:

    Q_{jk} = Tr[rho (L_j L_k + L_k L_j)] / 2.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import hermitize, symmetrize_real

DEFAULT_P_CUTOFF = 1e-12
DEFAULT_SLD_CUTOFF = 1e-10
MAX_FISHER_CONDITION = 1e12


class SingularScoreError(ValueError):
    """An outcome has vanishing probability but non-vanishing numerator."""


class SingularFisherError(ValueError):
    """The Fisher matrix is singular or too ill-conditioned to invert."""


@dataclass(frozen=True)
class FisherBundle:
    """Per-(model, theta, POVM) cache of Fisher-information quantities.

    Attributes
    ----------
    probabilities : (E,) array
        Outcome probabilities for all POVM outcomes (dropped ones included).
    scores : (E_kept, P) array
        Scores l_{a,j} for the kept outcomes.
    fisher : (P, P) array
        Classical Fisher information matrix.
    kept_outcomes : tuple of int
        Indices of outcomes with probability above the cutoff.
    rho, derivatives : operators the bundle was built from (needed by the
        susceptibility machinery).
    """

    probabilities: np.ndarray
    scores: np.ndarray
    fisher: np.ndarray
    kept_outcomes: tuple
    rho: np.ndarray
    derivatives: tuple
    povm: object
    param_names: tuple
    p_cutoff: float

    @property
    def n_params(self):
        return len(self.param_names)


def fisher_bundle(model, theta, povm, p_cutoff=DEFAULT_P_CUTOFF):
    """Evaluate probabilities, scores and the Fisher matrix.

    Outcomes with ``p_a < p_cutoff`` are dropped when all their numerators
    ``Tr[d_j rho M_a]`` are below ``sqrt(p_cutoff)`` (their contribution
    vanishes in the p -> 0 limit); otherwise the Fisher contribution is
    genuinely divergent and a :class:`SingularScoreError` is raised.
    """
    if model.dim != povm.dim:
        raise ValueError(f"model dim {model.dim} != POVM dim {povm.dim}")
    rho = model.state_at(theta)
    derivs = tuple(model.derivatives_at(theta))
    P = len(derivs)
    probs = np.array([float(np.real(np.trace(rho @ E))) for E in povm.elements])
    numerators = np.array([[float(np.real(np.trace(d @ E))) for d in derivs]
                           for E in povm.elements])
    kept, scores = [], []
    for a in range(len(povm)):
        if probs[a] >= p_cutoff:
            kept.append(a)
            scores.append(numerators[a] / probs[a])
        elif np.max(np.abs(numerators[a])) > np.sqrt(p_cutoff):
            raise SingularScoreError(
                f"outcome {povm.labels[a]} has p = {probs[a]:.3e} below cutoff "
                f"but score numerator {np.max(np.abs(numerators[a])):.3e}; "
                f"its Fisher contribution diverges")
    scores = np.array(scores).reshape(len(kept), P)
    F = np.zeros((P, P))
    for i, a in enumerate(kept):
        F += probs[a] * np.outer(scores[i], scores[i])
    return FisherBundle(probabilities=probs, scores=scores,
                        fisher=symmetrize_real(F), kept_outcomes=tuple(kept),
                        rho=rho, derivatives=derivs, povm=povm,
                        param_names=model.param_names, p_cutoff=float(p_cutoff))


def sld(rho, drho, cutoff=DEFAULT_SLD_CUTOFF):
    """Symmetric logarithmic derivative solving 2 drho = L rho + rho L.

    Computed in the eigenbasis of rho as L_ij = 2 <i|drho|j> / (l_i + l_j)
    wherever ``l_i + l_j > cutoff``; the kernel-kernel block is set to
    zero (Moore-Penrose-style convention).  Only the inputs are validated:
    the rounding of the result scales with 1 / (l_i + l_j), far above any
    fixed Hermiticity tolerance for nearly pure states, so it is
    symmetrized without a re-check.
    """
    rho = hermitize(rho)
    drho = hermitize(drho)
    w, V = np.linalg.eigh(rho)
    num = 2.0 * (V.conj().T @ drho @ V)
    den = w[:, None] + w[None, :]
    mask = den > cutoff
    L = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    X = V @ L @ V.conj().T
    return (X + X.conj().T) / 2.0


@dataclass(frozen=True)
class QfiBundle:
    """Symmetric logarithmic derivatives and the quantum Fisher matrix."""

    slds: tuple
    qfi: np.ndarray
    eigen_cutoff: float


def qfi_matrix(model, theta, cutoff=DEFAULT_SLD_CUTOFF):
    """Quantum Fisher information matrix via SLD operators."""
    rho = model.state_at(theta)
    derivs = model.derivatives_at(theta)
    slds = tuple(sld(rho, d, cutoff) for d in derivs)
    P = len(slds)
    Q = np.zeros((P, P))
    for j in range(P):
        for k in range(j, P):
            anti = slds[j] @ slds[k] + slds[k] @ slds[j]
            Q[j, k] = Q[k, j] = 0.5 * float(np.real(np.trace(rho @ anti)))
    return QfiBundle(slds=slds, qfi=symmetrize_real(Q), eigen_cutoff=float(cutoff))


def weak_commutativity(rho, L_j, L_k):
    """|Im Tr[rho [L_j, L_k]]| - zero iff the pair is weakly commuting.

    The trace of rho times a commutator of Hermitian operators is purely
    imaginary, so the imaginary magnitude carries all the information.
    """
    comm = L_j @ L_k - L_k @ L_j
    return abs(float(np.imag(np.trace(rho @ comm))))


def _checked_inverse(F, what="Fisher matrix"):
    F = np.asarray(F, dtype=float)
    cond = float(np.linalg.cond(F))
    if not np.isfinite(cond) or cond > MAX_FISHER_CONDITION:
        raise SingularFisherError(
            f"{what} is singular or ill-conditioned (condition number {cond:.3e}, "
            f"limit {MAX_FISHER_CONDITION:.1e}); refusing to invert")
    return np.linalg.inv(F)


def r_metric(F, Q, m=1):
    """Optimality ratio m * tr(F^-1) / tr(Q^-1) >= 1.

    ``F`` is the Fisher matrix of a POVM acting on ``m`` copies of the
    state; ``Q`` is the single-copy quantum Fisher matrix.  The ratio is
    1 exactly when the scalar quantum Cramer-Rao bound is saturated.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    Finv = _checked_inverse(F)
    Qinv = _checked_inverse(Q, what="quantum Fisher matrix")
    return float(m) * float(np.trace(Finv)) / float(np.trace(Qinv))


def r_nuisance(F, Q, index):
    """Per-parameter optimality ratio (F^-1)_jj / (Q^-1)_jj >= 1.

    Quantifies how well parameter ``index`` is estimated when all other
    parameters are unknown nuisance parameters.
    """
    Finv = _checked_inverse(F)
    Qinv = _checked_inverse(Q, what="quantum Fisher matrix")
    return float(Finv[index, index]) / float(Qinv[index, index])
