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

All SLDs of a point share one eigendecomposition ``rho = V diag(w) V^dag``:
in that eigenbasis ``L'_j = V^dag L_j V`` and
``Q_{jk} = Re sum_mn w_m L'_{j,mn} L'_{k,nm}``.
"""

from dataclasses import dataclass
from functools import cached_property

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
        susceptibility machinery and the SLDs).
    fisher_inverse : (P, P) array
        F^-1, checked and computed once per bundle on first use.
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

    @cached_property
    def _checked_fisher(self):
        return _checked_inverse(self.fisher)

    @property
    def fisher_inverse(self):
        return self._checked_fisher[0]

    @property
    def fisher_condition(self):
        """Condition number of F, from the check that guards F^-1."""
        return self._checked_fisher[1]


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
    probs = np.real(np.einsum("xy,ayx->a", rho, povm.elements))
    numerators = np.real(np.einsum("jxy,ayx->aj", np.stack(derivs), povm.elements))
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


def _slds(rho, derivs, cutoff=DEFAULT_SLD_CUTOFF):
    """All SLDs of one state and the quantum Fisher matrix, from one eigh(rho).

    In the eigenbasis of rho, L'_{j,mn} = 2 <m|d_j rho|n> / (w_m + w_n)
    wherever ``w_m + w_n > cutoff``; the kernel-kernel block is set to
    zero (Moore-Penrose-style convention).  Then
    ``Q_jk = Re sum_mn w_m L'_{j,mn} L'_{k,nm}``, with no operator
    products per (j, k).  Returns ``(L, Q)`` with L a (P, d, d) stack.
    The inputs are not validated, and the SLDs are symmetrized without a
    re-check: their rounding scales with 1 / (w_m + w_n), far above any
    fixed Hermiticity tolerance for nearly pure states.
    """
    w, V = np.linalg.eigh(rho)
    Vh = V.conj().T
    num = 2.0 * (Vh @ np.stack(derivs) @ V)
    den = w[:, None] + w[None, :]
    mask = den > cutoff
    Lp = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    Lp = (Lp + Lp.conj().swapaxes(-1, -2)) / 2.0
    P = Lp.shape[0]
    Q = np.real((Lp * w[:, None]).reshape(P, -1) @ Lp.swapaxes(-1, -2).reshape(P, -1).T)
    X = V @ Lp @ Vh
    return (X + X.conj().swapaxes(-1, -2)) / 2.0, (Q + Q.T) / 2.0


def sld(rho, drho, cutoff=DEFAULT_SLD_CUTOFF):
    """Symmetric logarithmic derivative solving 2 drho = L rho + rho L.

    Validates its inputs and evaluates `_slds` for one derivative.
    """
    return _slds(hermitize(rho), [hermitize(drho)], cutoff)[0][0]


@dataclass(frozen=True)
class QfiBundle:
    """Symmetric logarithmic derivatives and the quantum Fisher matrix."""

    slds: tuple
    qfi: np.ndarray
    eigen_cutoff: float


def qfi_matrix(model, theta, cutoff=DEFAULT_SLD_CUTOFF):
    """Quantum Fisher information matrix via SLD operators."""
    L, Q = _slds(model.state_at(theta), model.derivatives_at(theta), cutoff)
    return QfiBundle(slds=tuple(L), qfi=Q, eigen_cutoff=float(cutoff))


def weak_commutativity(rho, L_j, L_k):
    """|Im Tr[rho [L_j, L_k]]| - zero iff the pair is weakly commuting.

    The trace of rho times a commutator of Hermitian operators is purely
    imaginary, so the imaginary magnitude carries all the information.
    """
    comm = L_j @ L_k - L_k @ L_j
    return abs(float(np.imag(np.trace(rho @ comm))))


def _checked_inverse(F, what="Fisher matrix"):
    """``(F^-1, cond F)``; refuses singular or ill-conditioned matrices."""
    F = np.asarray(F, dtype=float)
    cond = float(np.linalg.cond(F))
    if not np.isfinite(cond) or cond > MAX_FISHER_CONDITION:
        raise SingularFisherError(
            f"{what} is singular or ill-conditioned (condition number {cond:.3e}, "
            f"limit {MAX_FISHER_CONDITION:.1e}); refusing to invert")
    return np.linalg.inv(F), cond


def _qfi_inverse(Q):
    return _checked_inverse(Q, what="quantum Fisher matrix")[0]


def _ratios(Finv, Qinv, m=1):
    """``(m tr(F^-1) / tr(Q^-1), (F^-1)_jj / (Q^-1)_jj for every j)``."""
    return (float(m) * float(np.trace(Finv)) / float(np.trace(Qinv)),
            np.diag(Finv) / np.diag(Qinv))


def r_metric(F, Q, m=1):
    """Optimality ratio m * tr(F^-1) / tr(Q^-1) >= 1.

    ``F`` is the Fisher matrix of a POVM acting on ``m`` copies of the
    state; ``Q`` is the single-copy quantum Fisher matrix.  The ratio is
    1 exactly when the scalar quantum Cramer-Rao bound is saturated.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return _ratios(_checked_inverse(F)[0], _qfi_inverse(Q), m)[0]


def r_nuisance(F, Q, index):
    """Per-parameter optimality ratio (F^-1)_jj / (Q^-1)_jj >= 1.

    Quantifies how well parameter ``index`` is estimated when all other
    parameters are unknown nuisance parameters.
    """
    return float(_ratios(_checked_inverse(F)[0], _qfi_inverse(Q))[1][index])
