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
on the units of the parameters.  The cutoffs are fixed constants.  A
sweep row refuses and inverts F and Q together, with one ``eigh`` of the
stack ``[F~, Q~, F]`` (F and Q scaled to unit diagonal, then F itself for
the frame of the bounds) and one ``inv`` of (F, Q)
(`_checked_inverse_and_eigh`, the one routine that refuses a Fisher
stack); a refusal names F before Q.  The row calls each stage helper
(`_eigen_slds`, `_checked_inverse_and_eigh`, `_ratios`, `_condition`) once
on explicit arrays.  The bundle's attributes call the same helpers, each
attribute one expression of the bundle's fields and of the attributes
above it, so neither its value nor its LAPACK calls depend on what was
read before: F is refused once, by one call on F alone shared by the
fixed-noise functions and the bounds, from the same unit-scaled spectrum
a row tests.  `r_metric` and `r_nuisance` refuse (F, Q) as a row does.
The quantum Fisher matrix is built from the symmetric logarithmic
derivatives L_j solving ``2 d_j rho = L_j rho + rho L_j``:

    Q_{jk} = Tr[rho (L_j L_k + L_k L_j)] / 2.

All SLDs of a point share one eigendecomposition ``rho = V diag(w) V^dag``,
the one a dense state's support test took (`FisherBundle.rho_eigh`):
in that eigenbasis ``L'_j = V^dag L_j V`` and
``Q_{jk} = Re sum_mn w_m L'_{j,mn} L'_{k,nm}``.

A point is evaluated once, to the model's frame ``(B, S)``: B is None (the
identity) for a dense model, S the checked, read-only (1 + P, r, r) stack
of cores with ``rho = B S_0 B^dag`` and ``d_j rho = B S_j B^dag``, read whole
by `fisher_bundle` and `qfi_matrix` (`StatisticalModel._point`).  So
probabilities and score numerators are ``Tr[S B^dag M_a B]``.  That stack
stays one array from the model to the kernel: `_support` maps it to a
stack, and `_outcome_traces`, `_eigen_slds` and `_k_operators` receive rho
and the derivatives as views.

Every operator the SLDs and the susceptibility bounds use is a linear
combination of ``rho`` and its derivatives, so it lives in their joint
range S.  `fisher_bundle` restricts the point to S once (`_support`) and
keeps only ``FisherBundle.support = (V, rho', d_j rho')`` with
``X' = V^dag X V`` for an orthonormal (d, r) basis V of S (the identity
when S is the whole space); an operator maps back as ``V X' V^dag``.
Trace norms, spectra and Q are unchanged by the restriction.  The rank-4
point-source frame gives r = 4 from one SVD of its 4 x 4 cores, and a
full-rank dense state keeps the whole space after one ``eigh(rho)``, which
its SLDs reuse.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import _lift, _sym, hermitize
from .model import check_value

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
        rho and its derivatives on their joint range (`_support`): an
        orthonormal (d, r) basis V of it (the identity for the whole space)
        and views of one read-only (1 + P, r, r) stack of ``V^dag X V``.
    rho_eigh : ``(w, U)``, the ``eigh`` of the support's rho that a dense
        state's support test took, or None (then `qfi` takes its own).

    The library reads the attributes below, each computed on first read by
    the helper a sweep row calls itself (`sweep.evaluate_point` reads none).
    Each is one expression of the fields and of the attributes listed
    before it, so its value and its LAPACK calls do not depend on what was
    read first.  F is refused once, by one `_checked_inverse_and_eigh` of F
    alone, the routine a sweep row and `r_metric` call on (F, Q):

    rho, derivatives : the full-space operators ``V X V^dag``.
    qfi : Q, from one `_eigen_slds` of the support.
    fisher_inverse, fisher_eigh, fisher_condition : F^-1, ``(w, U)`` of F,
        read-only, and cond(F), from that one call, which the fixed-noise
        functions and the bounds share.
    k_operators : K_a = K_a(F^-1) on the support from one kernel call on
        it (the fixed-noise functions).
    pair_bounds : `susceptibility.PairBounds` of that F^-1 and ``eigh(F)``
        (K, the best pair ``((i, j), value)``, both bounds and the terms of
        Sigma_U).
    """

    probabilities: np.ndarray
    scores: np.ndarray
    fisher: np.ndarray
    kept_outcomes: tuple
    support: tuple
    rho_eigh: tuple = None

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
        return tuple(_lift(V, derivs))

    @cached_property
    def qfi(self):
        return _eigen_slds(*self.support[1:], self.rho_eigh)[2]

    @cached_property
    def _inverse_and_eigh(self):
        (Finv,), eig = _checked_inverse_and_eigh((self.fisher,))
        for a in eig:
            a.setflags(write=False)
        return Finv, eig

    @property
    def fisher_inverse(self):
        return self._inverse_and_eigh[0]

    @property
    def fisher_eigh(self):
        return self._inverse_and_eigh[1]

    @cached_property
    def k_operators(self):
        from .susceptibility import _k_operators
        return _k_operators(self)

    @cached_property
    def fisher_condition(self):
        """Condition number of F itself (the refusal tests the unit-scaled F)."""
        return _condition(self.fisher_eigh[0])

    @cached_property
    def pair_bounds(self):
        from .susceptibility import _pair_bounds
        return _pair_bounds(self, *self._inverse_and_eigh)


def _support(B, ops):
    """``(V, ops', eig)``: the (1 + P, r, r) stack ``B X B^dag`` on its joint range.

    ``X' = V^dag B X B^dag V`` for an orthonormal (d, r) basis V of the
    range, and ops' is one stack again, read-only when built here.
    Without a frame (B None) one ``eigh(rho) = (w, U)`` decides: when
    ``w_min > SUPPORT_RTOL w_max`` the range is the whole space, and V the
    identity with the stack returned as it is; otherwise V is
    `_support_basis` of the d x d operators, which is the identity again
    when their joint range is the whole space.  With a frame, ``B = W T``
    (reduced QR) and `_support_basis` U of the cores ``T X T^dag`` gives
    ``V = W U`` (V = W when U is None).  ``eig`` is ``(w, U)`` when
    ``ops'[0]`` is the rho it was taken of, for `_eigen_slds` to reuse,
    else None.  The search scales each operator to unit max entry, so it
    may cut a direction the eigenvalue test keeps only in a band just above
    the cut, ``w_min <= SUPPORT_RTOL sqrt(1 + P) d w_max``; the whole space
    holds the range there too.  The eigenvalue test is for dense models only: a
    frame's state core has rank 2 for the point sources, so it would fail
    on every point.
    """
    if B is None:
        eig = linalg.eigh(ops[0])
        if eig[0][0] > SUPPORT_RTOL * eig[0][-1]:
            return np.eye(len(ops[0])), ops, eig
    else:
        W, T = np.linalg.qr(B)
        ops = T @ ops @ T.conj().T
    U = _support_basis(ops)
    if U is not None:
        ops = U.conj().T @ ops @ U
    elif B is None:
        return np.eye(len(ops[0])), ops, eig
    V = U if B is None else (W if U is None else W @ U)
    ops.setflags(write=False)
    return V, ops, None


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
    n, d = ops.shape[:2]
    scales = abs(ops).max(axis=(1, 2))
    scales[scales == 0.0] = 1.0
    R = (ops / scales[:, None, None]).transpose(1, 0, 2).reshape(d, n * d)
    s = np.linalg.svd(R, compute_uv=False)
    r = int((s > SUPPORT_RTOL * s[0]).sum())
    return None if r == d else np.linalg.svd(R, full_matrices=False)[0][:, :r]


def _outcome_traces(rho, derivs, elements):
    """``(Tr[rho E_a], Tr[d_j rho E_a])`` for a (E, d, d) stack of elements.

    ``derivs`` is a (P, d, d) array, in a bundle the view of its support's
    stack.  The probabilities and score numerators of a POVM; for a noise
    POVM, the ``c_a`` and ``n_{a,j}`` its susceptibility is built from.
    """
    return (np.einsum("xy,ayx->a", rho, elements).real,
            np.einsum("jxy,ayx->aj", derivs, elements).real)


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
    B, ops = model._point(theta)
    elements = povm.elements if B is None else B.conj().T @ povm.elements @ B
    probs, numerators = _outcome_traces(ops[0], ops[1:], elements)
    keep = probs >= P_CUTOFF
    kept, p = range(len(probs)), probs
    if not keep.all():
        full = ops[1:] if B is None else _lift(B, ops[1:])
        limits = np.sqrt(P_CUTOFF) * abs(full).max(axis=(1, 2))
        bad = np.flatnonzero(~keep & (abs(numerators) > limits).any(1))
        if bad.size:
            a = bad[0]
            raise SingularScoreError(
                f"outcome {povm.labels[a]} has p = {probs[a]:.3e} below cutoff but "
                f"a score numerator above sqrt(cutoff) max|d_j rho| (largest "
                f"{np.max(np.abs(numerators[a])):.3e}); its Fisher contribution diverges")
        kept = np.flatnonzero(keep).tolist()
        p, numerators = probs[kept], numerators[kept]
    scores = numerators / p[:, None]
    # p_a (l_a l_a^T) summed over kept outcomes in index order: symmetric bit for bit
    F = (p[:, None, None] * (scores[:, :, None] * scores[:, None, :])).sum(0)
    V, ops, eig = _support(B, ops)
    return FisherBundle(probabilities=probs, scores=scores, fisher=F,
                        kept_outcomes=tuple(kept), support=(V, ops[0], ops[1:]),
                        rho_eigh=eig)


def _eigen_slds(rho, derivs, eig=None):
    """All SLDs of one state in its eigenbasis, and Q, from one eigh(rho).

    ``eig`` is that ``eigh(rho)`` when the caller already holds it
    (`_support` of a dense state); it is taken here otherwise.

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
    w, V = linalg.eigh(rho) if eig is None else eig
    num = 2.0 * (V.conj().T @ derivs @ V)
    den = w[:, None] + w[None, :]
    mask = den > SLD_CUTOFF * w[-1]
    Lp = num / den if mask.all() else np.where(mask, num / np.where(mask, den, 1.0), 0.0)
    Lp = _sym(Lp)
    P = Lp.shape[0]
    Q = ((Lp * w[:, None]).reshape(P, -1) @ Lp.swapaxes(-1, -2).reshape(P, -1).T).real
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
    _, ops, eig = _support(*model._point(theta))
    return _eigen_slds(ops[0], ops[1:], eig)[2]


def weak_commutativity(rho, L_j, L_k):
    """|Im Tr[rho [L_j, L_k]]| - zero iff the pair is weakly commuting.

    The trace of rho times a commutator of Hermitian operators is purely
    imaginary, so the imaginary magnitude carries all the information.
    """
    comm = L_j @ L_k - L_k @ L_j
    return abs(float(np.imag(np.trace(rho @ comm))))


_STACK_NAMES = ("Fisher matrix", "quantum Fisher matrix")


def _checked_inverse_and_eigh(stack):
    """Inverses of a (n, P, P) stack, refused member by member, and ``eigh``
    of its first member: the one routine that refuses a Fisher stack.

    The refusal does not depend on the units of the parameters: it tests
    the `_condition` of ``D^-1/2 F D^-1/2`` with ``D = diag F``, which a
    rescaling of any parameter leaves unchanged.  A member with a diagonal
    entry <= 0 or a non-finite entry is singular or no Fisher matrix; the
    identity stands in for it, so the spectrum stays finite, and it is
    refused.  One ``eigh`` of the unit-scaled stack with the first member
    itself appended both tests every member and gives ``(w, U)`` of that
    member, bit for bit its ``eigh`` alone (a stacked ``eigh`` is one
    LAPACK call per member), and one ``inv`` inverts them all.  The first
    refused member is reported, by name for members 0 and 1 (F, Q) and by
    index after them.  Returns ``(inverses, (w, U))``.
    """
    F = np.asarray(stack, dtype=float)
    n = len(F)
    usable = ((F.diagonal(axis1=1, axis2=2) > 0.0).all(axis=1)
              & np.isfinite(F).all(axis=(1, 2))).tolist()
    scaled = F if all(usable) else np.where(np.array(usable)[:, None, None], F, np.eye(F.shape[-1]))
    s = 1.0 / np.sqrt(scaled.diagonal(axis1=1, axis2=2))
    scaled = s[:, :, None] * scaled * s[:, None, :]
    # an unusable first member is refused before its eigh is read
    w, U = linalg.eigh(np.concatenate((scaled, F[:1] if usable[0] else scaled[:1])))
    for k in range(n):
        condition = _condition(w[k]) if usable[k] else np.inf
        if condition > MAX_FISHER_CONDITION:
            name = _STACK_NAMES[k] if k < len(_STACK_NAMES) else f"matrix {k} of the stack"
            raise SingularFisherError(
                f"{name} is singular or ill-conditioned (condition number of the "
                f"unit-scaled matrix {condition:.3e}, limit {MAX_FISHER_CONDITION:.1e}); "
                f"refusing to invert")
    return linalg.inv(F), (w[n], U[n])


def _condition(w):
    """``max|w| / min|w|`` over the eigenvalues w of a symmetric matrix (inf when
    one is zero): the refusal tests it on the unit-scaled F, a row reports it of F."""
    w = [abs(x) for x in w.tolist()]
    return max(w) / min(w) if min(w) > 0.0 else float("inf")


def _ratios(Finv, Qinv, m=1):
    """``(m tr(F^-1) / tr(Q^-1), (F^-1)_jj / (Q^-1)_jj for every j)``."""
    f, q = Finv.diagonal(), Qinv.diagonal()
    return float(m) * float(f.sum()) / float(q.sum()), f / q


def r_metric(F, Q, m=1):
    """Optimality ratio m * tr(F^-1) / tr(Q^-1) >= 1.

    ``F`` is the Fisher matrix of a POVM acting on ``m`` copies of the
    state; ``Q`` is the single-copy quantum Fisher matrix.  The ratio is
    1 exactly when the scalar quantum Cramer-Rao bound is saturated.  ``m``
    is an integer >= 1 (`model.check_value`).
    """
    m = check_value("m", m, int, 1)
    return _ratios(*_checked_inverse_and_eigh((F, Q))[0], m)[0]


def r_nuisance(F, Q, index):
    """Per-parameter optimality ratio (F^-1)_jj / (Q^-1)_jj >= 1.

    Quantifies how well parameter ``index`` is estimated when all other
    parameters are unknown nuisance parameters.  ``index`` is an integer
    in [0, P - 1] (`model.check_value`); a negative index is refused, not
    counted from the end.
    """
    index = check_value("index", index, int, 0, len(F) - 1)
    return float(_ratios(*_checked_inverse_and_eigh((F, Q))[0])[1][index])
