"""Classical and quantum Fisher information.

Conventions
-----------
For a POVM ``{M_a}`` and state ``rho(theta)`` the outcome probabilities
are ``p_a = Tr[rho M_a]`` and the scores are

    l_{a,j} = Tr[d_j rho M_a] / p_a,

giving the Fisher matrix ``F_{jk} = sum_a p_a l_{a,j} l_{a,k}``.
`fisher_bundle` evaluates a point once, as a `FisherBundle`, and every
susceptibility quantity is read from that bundle.  It drops an outcome
with ``p_a < P_CUTOFF`` whose numerators are at most ``sqrt(P_CUTOFF)``
times the largest entry of their ``d_j rho``, a test that does not depend
on the units of the parameters.  The cutoffs are fixed constants.  The
quantum Fisher matrix is built from the symmetric logarithmic
derivatives L_j solving ``2 d_j rho = L_j rho + rho L_j``:

    Q_{jk} = Tr[rho (L_j L_k + L_k L_j)] / 2.

All SLDs of a point share one eigendecomposition ``rho = V diag(w) V^dag``:
in that eigenbasis ``L'_j = V^dag L_j V`` and
``Q_{jk} = Re sum_mn w_m L'_{j,mn} L'_{k,nm}``.

Every operator the SLDs and the susceptibility bounds use is a linear
combination of ``rho`` and its derivatives, so it lives in their joint
range S.  `FisherBundle.on_support` restricts a bundle to S once: with an
orthonormal basis V of S, the reduced operators are ``V^dag X V``.  Trace
norms, spectra and the quantum Fisher matrix are unchanged by the
restriction; a rank-2 point-source state in d = 49 reduces to r = 4.
Sweeps and `susceptibility_report` evaluate on the reduced bundle.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import hermitize

P_CUTOFF = 1e-12
SLD_CUTOFF = 1e-10
MAX_FISHER_CONDITION = 1e12
SUPPORT_RTOL = 1e-13


class SingularScoreError(ValueError):
    """An outcome has vanishing probability but non-vanishing numerator."""


class SingularFisherError(ValueError):
    """The Fisher matrix is singular or too ill-conditioned to invert."""


@dataclass(frozen=True)
class FisherBundle:
    """Fisher-information quantities of one point (model, theta, POVM).

    Every susceptibility function takes the point's bundle.

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
    on_support : (V, reduced)
        The bundle restricted to the joint range of rho and its derivatives.
    """

    probabilities: np.ndarray
    scores: np.ndarray
    fisher: np.ndarray
    kept_outcomes: tuple
    rho: np.ndarray
    derivatives: tuple
    param_names: tuple

    @property
    def n_params(self):
        return len(self.param_names)

    @cached_property
    def fisher_inverse(self):
        return _checked_inverse(self.fisher)

    @cached_property
    def fisher_condition(self):
        """Condition number of F itself (the refusal tests the unit-scaled F)."""
        return float(np.linalg.cond(self.fisher))

    @cached_property
    def on_support(self):
        """``(V, reduced)``: the bundle on the joint range of rho and d_j rho.

        ``V`` is an orthonormal (d, r) basis of that range and ``reduced``
        the bundle with ``rho``/``derivatives`` replaced by ``V^dag X V``;
        it shares probabilities, scores, F and the checked F^-1 (so reading
        it checks F, raising `SingularFisherError` like `fisher_inverse`).
        ``V`` is None, and ``reduced`` the bundle itself, when the range is
        the whole space.
        """
        V = _support_basis((self.rho,) + self.derivatives)
        if V is None:
            return None, self
        Vh = V.conj().T
        reduced = replace(self, rho=Vh @ self.rho @ V,
                          derivatives=tuple(Vh @ X @ V for X in self.derivatives))
        reduced.__dict__["fisher_inverse"] = self.fisher_inverse
        return V, reduced


def _support_basis(ops):
    """Orthonormal (d, r) basis of the joint range of Hermitian ``ops``.

    ``ops[0]`` is the state.  Returns None when the range is the whole
    space: at once when its Cholesky factor has every squared pivot above
    ``SUPPORT_RTOL`` times its largest diagonal entry, and otherwise when
    the search below finds d directions.

    Pivoted modified Gram-Schmidt, with one re-orthogonalization of each
    new direction, runs over the columns of all operators, each scaled to
    unit max entry, and stops when the largest residual column norm is at
    most ``SUPPORT_RTOL`` times the largest column norm.  The residual
    norms are recomputed from the residuals at every step: a downdated
    squared norm carries rounding of order eps times the column's squared
    norm, so it cannot resolve a residual below about 1e-8 of the column,
    let alone test the stop.  The Gram matrix ``sum X^2`` fails the same
    way: it squares the singular values of the stack, and for point
    sources at dx = 0.01 the 4th one (2.6e-8 of the largest, unscaled)
    would drop to rounding level.
    When every operator is real (point sources), the search runs in real
    arithmetic (about a third of the time at d = 49) and the basis is real.
    """
    rho = ops[0]
    try:
        pivots = np.real(np.diagonal(np.linalg.cholesky(rho)))
        if np.min(pivots) ** 2 > SUPPORT_RTOL * np.max(np.real(np.diagonal(rho))):
            return None
    except np.linalg.LinAlgError:
        pass
    d = rho.shape[0]
    R = np.concatenate(ops, axis=1)
    if not np.any(R.imag):
        R = np.ascontiguousarray(R.real)
    scales = np.max(np.abs(R.reshape(d, len(ops), d)), axis=(0, 2))
    R /= np.repeat(np.where(scales > 0, scales, 1.0), d)
    sq = np.real(np.einsum("ij,ij->j", R.conj(), R))   # squared column norms
    stop = SUPPORT_RTOL ** 2 * np.max(sq)
    V = np.empty((d, d), dtype=R.dtype)
    r = 0
    while r < d:
        k = int(np.argmax(sq))
        if sq[k] <= stop:
            break
        q = R[:, k] / np.sqrt(sq[k])
        q -= V[:, :r] @ (V[:, :r].conj().T @ q)
        V[:, r] = q / np.sqrt(np.real(np.vdot(q, q)))
        R -= V[:, r, None] * (V[:, r].conj() @ R)
        sq = np.real(np.einsum("ij,ij->j", R.conj(), R))
        r += 1
    return None if r == d else V[:, :r]


def _outcome_traces(rho, derivs, elements):
    """``(Tr[rho E_a], Tr[d_j rho E_a])`` for a (E, d, d) stack of elements.

    The probabilities and score numerators of a POVM; for a noise POVM, the
    ``c_a`` and ``n_{a,j}`` its susceptibility is built from.
    """
    return (np.real(np.einsum("xy,ayx->a", rho, elements)),
            np.real(np.einsum("jxy,ayx->aj", np.stack(derivs), elements)))


def fisher_bundle(model, theta, povm):
    """Evaluate probabilities, scores and the Fisher matrix.

    Outcomes with ``p_a < P_CUTOFF`` are dropped when every numerator
    ``Tr[d_j rho M_a]`` is below ``sqrt(P_CUTOFF) max|d_j rho|`` (their
    contribution vanishes in the p -> 0 limit); otherwise the Fisher
    contribution is genuinely divergent and a :class:`SingularScoreError`
    is raised.  Measuring each numerator in units of its derivative's
    largest entry makes the choice independent of the parameters' units.
    """
    if model.dim != povm.dim:
        raise ValueError(f"model dim {model.dim} != POVM dim {povm.dim}")
    rho = model.state_at(theta)
    derivs = tuple(model.derivatives_at(theta))
    P = len(derivs)
    probs, numerators = _outcome_traces(rho, derivs, povm.elements)
    kept, scores = [], []
    for a in range(len(povm)):
        if probs[a] >= P_CUTOFF:
            kept.append(a)
            scores.append(numerators[a] / probs[a])
            continue
        limits = np.sqrt(P_CUTOFF) * np.max(np.abs(np.stack(derivs)), axis=(1, 2))
        if np.any(np.abs(numerators[a]) > limits):
            raise SingularScoreError(
                f"outcome {povm.labels[a]} has p = {probs[a]:.3e} below cutoff but "
                f"a score numerator above sqrt(cutoff) max|d_j rho| (largest "
                f"{np.max(np.abs(numerators[a])):.3e}); its Fisher contribution diverges")
    scores = np.array(scores).reshape(len(kept), P)
    # symmetric bit for bit: entries (j, k) and (k, j) sum the same products
    F = np.zeros((P, P))
    for i, a in enumerate(kept):
        F += probs[a] * np.outer(scores[i], scores[i])
    return FisherBundle(probabilities=probs, scores=scores,
                        fisher=F, kept_outcomes=tuple(kept),
                        rho=rho, derivatives=derivs, param_names=model.param_names)


def _slds(rho, derivs):
    """All SLDs of one state and the quantum Fisher matrix, from one eigh(rho).

    In the eigenbasis of rho, L'_{j,mn} = 2 <m|d_j rho|n> / (w_m + w_n)
    wherever ``w_m + w_n > SLD_CUTOFF``; the kernel-kernel block is set to
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
    mask = den > SLD_CUTOFF
    Lp = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    Lp = (Lp + Lp.conj().swapaxes(-1, -2)) / 2.0
    P = Lp.shape[0]
    Q = np.real((Lp * w[:, None]).reshape(P, -1) @ Lp.swapaxes(-1, -2).reshape(P, -1).T)
    X = V @ Lp @ Vh
    return (X + X.conj().swapaxes(-1, -2)) / 2.0, (Q + Q.T) / 2.0


def sld(rho, drho):
    """Symmetric logarithmic derivative solving 2 drho = L rho + rho L.

    Validates its inputs and evaluates `_slds` for one derivative.
    """
    return _slds(hermitize(rho), [hermitize(drho)])[0][0]


@dataclass(frozen=True)
class QfiBundle:
    """Symmetric logarithmic derivatives and the quantum Fisher matrix."""

    slds: tuple
    qfi: np.ndarray


def qfi_matrix(model, theta):
    """Quantum Fisher information matrix via SLD operators."""
    L, Q = _slds(model.state_at(theta), model.derivatives_at(theta))
    return QfiBundle(slds=tuple(L), qfi=Q)


def weak_commutativity(rho, L_j, L_k):
    """|Im Tr[rho [L_j, L_k]]| - zero iff the pair is weakly commuting.

    The trace of rho times a commutator of Hermitian operators is purely
    imaginary, so the imaginary magnitude carries all the information.
    """
    comm = L_j @ L_k - L_k @ L_j
    return abs(float(np.imag(np.trace(rho @ comm))))


def _checked_inverse(F, what="Fisher matrix"):
    """F^-1; refuses singular or ill-conditioned matrices.

    The refusal does not depend on the units of the parameters: it tests
    the condition number of ``D^-1/2 F D^-1/2`` with ``D = diag F``, which
    a rescaling of any parameter leaves unchanged (a diagonal entry <= 0
    means F is singular).
    """
    F = np.asarray(F, dtype=float)
    diag = np.diag(F)
    scaled = np.inf
    if np.all(diag > 0.0) and np.all(np.isfinite(F)):
        s = 1.0 / np.sqrt(diag)
        sv = np.linalg.svd(s[:, None] * F * s, compute_uv=False)
        if sv[-1] > 0.0:
            scaled = float(sv[0] / sv[-1])
    if scaled > MAX_FISHER_CONDITION:
        raise SingularFisherError(
            f"{what} is singular or ill-conditioned (condition number of the "
            f"unit-scaled matrix {scaled:.3e}, limit {MAX_FISHER_CONDITION:.1e}); "
            f"refusing to invert")
    return np.linalg.inv(F)


def _qfi_inverse(Q):
    return _checked_inverse(Q, what="quantum Fisher matrix")


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
    return _ratios(_checked_inverse(F), _qfi_inverse(Q), m)[0]


def r_nuisance(F, Q, index):
    """Per-parameter optimality ratio (F^-1)_jj / (Q^-1)_jj >= 1.

    Quantifies how well parameter ``index`` is estimated when all other
    parameters are unknown nuisance parameters.
    """
    return float(_ratios(_checked_inverse(F), _qfi_inverse(Q))[1][index])
