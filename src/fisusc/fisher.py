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

A point is evaluated once, to the model's frame B (the identity, None,
for a dense model) and r x r cores S with ``rho = B S_0 B^dag`` and
``d_j rho = B S_j B^dag`` (`StatisticalModel.frame_at`), so probabilities
and score numerators are ``Tr[S B^dag M_a B]``.

Every operator the SLDs and the susceptibility bounds use is a linear
combination of ``rho`` and its derivatives, so it lives in their joint
range S.  `fisher_bundle` restricts the point to S once (`_support`) and
keeps only the restriction, ``FisherBundle.support = (V, rho', d_j rho')``
with ``X' = V^dag X V`` for an orthonormal (d, r) basis V of S; V is the
identity when S is the whole space.  An operator on the support maps
back as ``V X' V^dag``.  Trace norms, spectra and the quantum Fisher
matrix are unchanged by the restriction.  The rank-4 point-source frame
in d = 49 gives r = 4 from one SVD of its 4 x 4 cores, and a full-rank
dense state keeps the whole space after one Cholesky.  `FisherBundle.qfi`
reads Q off it, as does `qfi_matrix` for a model without a measurement.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _lift, _sym, hermitize

P_CUTOFF = 1e-12
SLD_CUTOFF = 1e-15          # relative to the largest eigenvalue of rho
MAX_FISHER_CONDITION = 1e12
SUPPORT_RTOL = 1e-13


class SingularScoreError(ValueError):
    """An outcome has vanishing probability but non-vanishing numerator."""


class SingularFisherError(ValueError):
    """The Fisher matrix is singular or too ill-conditioned to invert."""


@dataclass(frozen=True)
class FisherBundle:
    """Fisher-information quantities of one point (model, theta, POVM).

    Every susceptibility function takes the point's bundle and works on its support.

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
    support : (V, rho, derivatives)
        rho and its derivatives on their joint range (`_support`): V is an
        orthonormal (d, r) basis of it (the identity for the whole space),
        and the operators are the r x r ``V^dag X V``.
    rho, derivatives : the full-space operators ``V X V^dag``, built when
        first read.
    qfi : Q, from one `_eigen_slds` of the support on first use.
    fisher_inverse : (P, P) array
        F^-1, checked and computed once per bundle on first use.
    fisher_eigh : ``(w, U)``, one eigh(F) for the frame of `sigma_upper` and
        `fisher_condition`.
    k_operators, best_pair : K_a on the support and ``((i, j), value)``
        (`susceptibility`).
    """

    probabilities: np.ndarray
    scores: np.ndarray
    fisher: np.ndarray
    kept_outcomes: tuple
    support: tuple

    @property
    def n_params(self):
        return len(self.fisher)

    @property
    def dim(self):
        return self.support[0].shape[0]

    @cached_property
    def rho(self):
        V, rho, _ = self.support
        return _lift(V, rho)

    @cached_property
    def derivatives(self):
        V, _, derivs = self.support
        return tuple(_lift(V, np.asarray(derivs)))

    @cached_property
    def qfi(self):
        return _eigen_slds(*self.support[1:])[2]

    @cached_property
    def fisher_inverse(self):
        return _checked_inverse(self.fisher)

    @cached_property
    def fisher_eigh(self):
        w, U = np.linalg.eigh(self.fisher)
        w.setflags(write=False)
        U.setflags(write=False)
        return w, U

    @cached_property
    def fisher_condition(self):
        """Condition number of F itself (the refusal tests the unit-scaled F),
        from the eigenvalues of symmetric F."""
        w = np.abs(self.fisher_eigh[0])
        return float(np.max(w) / np.min(w))

    @cached_property
    def k_operators(self):
        from .susceptibility import _k_operators
        return _k_operators(self)

    @cached_property
    def best_pair(self):
        from .susceptibility import _best_pair
        return _best_pair(self.k_operators)


def _support(B, rho, derivs):
    """``(V, rho', derivs')``: the operators ``B X B^dag`` on their joint range.

    ``X' = V^dag B X B^dag V`` for an orthonormal (d, r) basis V of the range.
    Without a frame (B None) the range is the whole space, and V the
    identity with the operators returned as they are, when the Cholesky
    factor of rho has every squared pivot above ``SUPPORT_RTOL`` times its
    largest diagonal entry; otherwise V is `_support_basis` of the d x d
    operators.  With a frame, ``B = W T`` (reduced QR) and `_support_basis`
    U of the cores ``T X T^dag`` gives ``V = W U`` (V = W when U is None).
    The Cholesky test is for dense models only: a frame's state core has
    rank 2 for the point sources, so it would fail on every point.
    """
    ops = (rho,) + derivs
    if B is None:
        try:
            pivots = np.linalg.cholesky(rho).diagonal().real
            if pivots.min() ** 2 > SUPPORT_RTOL * rho.diagonal().real.max():
                return np.eye(rho.shape[0]), rho, derivs
        except np.linalg.LinAlgError:
            pass
    else:
        W, T = np.linalg.qr(B)
        ops = T @ np.asarray(ops) @ T.conj().T
    U = _support_basis(ops)
    if U is not None:
        ops = U.conj().T @ np.asarray(ops) @ U
    elif B is None:
        return np.eye(rho.shape[0]), rho, derivs
    V = U if B is None else (W if U is None else W @ U)
    return V, ops[0], tuple(ops[1:])


def _support_basis(ops):
    """Orthonormal (d, r) basis of the joint range of Hermitian ``ops``.

    One SVD of the operators side by side, each scaled to unit max entry:
    r counts the singular values above ``SUPPORT_RTOL`` times the largest,
    and the basis is the first r left singular vectors (None when r = d,
    the whole space), formed by a second SVD only when r < d.  The SVD's
    absolute error is about eps times the largest singular value, so it
    resolves a relative 1e-13 cut; the Gram matrix ``sum X^2`` would not,
    since it squares the singular values, and for point sources at
    dx = 0.01 the 4th one (2.6e-8 of the largest, unscaled) would drop to
    rounding level.  The basis has the operators' dtype: real for the
    point-source cores.
    """
    ops = np.asarray(ops)
    n, d = ops.shape[:2]
    scales = np.abs(ops).max(axis=(1, 2))
    scales[scales == 0.0] = 1.0
    R = (ops / scales[:, None, None]).transpose(1, 0, 2).reshape(d, n * d)
    s = np.linalg.svd(R, compute_uv=False)
    r = int((s > SUPPORT_RTOL * s[0]).sum())
    return None if r == d else np.linalg.svd(R, full_matrices=False)[0][:, :r]


def _outcome_traces(rho, derivs, elements):
    """``(Tr[rho E_a], Tr[d_j rho E_a])`` for a (E, d, d) stack of elements.

    The probabilities and score numerators of a POVM; for a noise POVM, the
    ``c_a`` and ``n_{a,j}`` its susceptibility is built from.
    """
    return (np.real(np.einsum("xy,ayx->a", rho, elements)),
            np.real(np.einsum("jxy,ayx->aj", np.asarray(derivs), elements)))


def fisher_bundle(model, theta, povm):
    """Evaluate probabilities, scores and the Fisher matrix.

    The traces are taken over the cores of the model's frame; the bundle
    keeps the operators on their joint support (`_support`).  Outcomes
    with ``p_a < P_CUTOFF`` are dropped when every numerator
    ``Tr[d_j rho M_a]`` is below ``sqrt(P_CUTOFF) max|d_j rho|`` (their
    contribution vanishes in the p -> 0 limit); otherwise the Fisher
    contribution is genuinely divergent and a :class:`SingularScoreError`
    is raised.  Measuring each numerator in units of its derivative's
    largest entry makes the choice independent of the parameters' units.
    Only a point with an outcome below the cutoff reads those entries: a
    frame model's derivative cores are then lifted to d x d here, once
    (``B S_j B^dag``, the model's own lift is not built), and a dense
    model's cores are its derivatives.
    """
    if model.dim != povm.dim:
        raise ValueError(f"model dim {model.dim} != POVM dim {povm.dim}")
    B, rho, derivs = model.frame_at(theta)
    elements = povm.elements if B is None else B.conj().T @ povm.elements @ B
    probs, numerators = _outcome_traces(rho, derivs, elements)
    keep = probs >= P_CUTOFF
    if not keep.all():
        full = np.asarray(derivs) if B is None else _lift(B, np.asarray(derivs))
        limits = np.sqrt(P_CUTOFF) * np.max(np.abs(full), axis=(1, 2))
        bad = np.flatnonzero(~keep & np.any(np.abs(numerators) > limits, axis=1))
        if bad.size:
            a = bad[0]
            raise SingularScoreError(
                f"outcome {povm.labels[a]} has p = {probs[a]:.3e} below cutoff but "
                f"a score numerator above sqrt(cutoff) max|d_j rho| (largest "
                f"{np.max(np.abs(numerators[a])):.3e}); its Fisher contribution diverges")
    kept = np.flatnonzero(keep)
    scores = numerators[kept] / probs[kept, None]
    # p_a (l_a l_a^T) summed over kept outcomes in index order: symmetric bit for bit
    F = np.sum(probs[kept, None, None] * (scores[:, :, None] * scores[:, None, :]), axis=0)
    return FisherBundle(probabilities=probs, scores=scores,
                        fisher=F, kept_outcomes=tuple(kept.tolist()),
                        support=_support(B, rho, derivs))


def _eigen_slds(rho, derivs):
    """All SLDs of one state in its eigenbasis, and Q, from one eigh(rho).

    In the eigenbasis of rho, L'_{j,mn} = 2 <m|d_j rho|n> / (w_m + w_n)
    wherever ``w_m + w_n > SLD_CUTOFF max(w)``; the kernel-kernel block is
    set to zero (Moore-Penrose-style convention).  The cutoff is relative,
    so a nearly pure state keeps the pairs of its small eigenvalues: the
    two-copy Bell state at delta = 1e-5 has eigenvalue sums of order
    1e-10.  Then ``Q_jk = Re sum_mn w_m L'_{j,mn} L'_{k,nm}``, with no operator
    products per (j, k).  Returns ``(V, L', Q)`` with L' a (P, d, d) stack.
    The inputs are not validated, and the SLDs are symmetrized without a
    re-check: their rounding scales with 1 / (w_m + w_n), far above any
    fixed Hermiticity tolerance for nearly pure states.
    """
    w, V = np.linalg.eigh(rho)
    num = 2.0 * (V.conj().T @ np.asarray(derivs) @ V)
    den = w[:, None] + w[None, :]
    mask = den > SLD_CUTOFF * w[-1]
    Lp = np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    Lp = _sym(Lp)
    P = Lp.shape[0]
    Q = np.real((Lp * w[:, None]).reshape(P, -1) @ Lp.swapaxes(-1, -2).reshape(P, -1).T)
    return V, Lp, _sym(Q)


def sld(rho, drho):
    """Symmetric logarithmic derivative solving 2 drho = L rho + rho L.

    Validates its inputs and maps the one operator of `_eigen_slds` back
    through rho's eigenbasis.
    """
    U, Lp, _ = _eigen_slds(hermitize(rho), [hermitize(drho)])
    return _lift(U, Lp)[0]


def qfi_matrix(model, theta):
    """Q of a model at ``theta`` without a measurement, from the SLDs on the
    support; a caller holding the point's bundle reads `FisherBundle.qfi`."""
    return _eigen_slds(*_support(*model.frame_at(theta))[1:])[2]


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
    diag = F.diagonal()
    scaled = np.inf
    if (diag > 0.0).all() and np.isfinite(F).all():
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
