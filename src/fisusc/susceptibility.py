"""Noise susceptibility of Fisher information.

Mixing a target POVM M with a noise POVM N as (1 - eps) M + eps N
changes the Fisher matrix at first order in eps.  This module computes:

* the response to a fixed noise, read from the point's `FisherBundle`:
  the matrix susceptibility  Xi[M, N] = I + F^-1 G[N]  (`xi_matrix`) and
  its scalar trace  X[M, N] = P + tr[F^-1 G[N]]  (`x_scalar`),
* the single-parameter worst-case susceptibility sigma[M] (closed form),
* lower/upper bounds Sigma_L <= Sigma[M] = max_N X[M, N] <= Sigma_U,
* Sigma[M] itself, with a duality certificate (`sigma_exact`).

The paper writes ``G[N]_{jk} = sum_a Tr[A_{a;jk} N_a]`` with
``A_{a;jk} = l_{a,j} l_{a,k} rho - l_{a,j} d_k rho - l_{a,k} d_j rho``.
`g_matrix` never forms A: with ``c_a = Tr[rho N_a]`` and
``n_{a,j} = Tr[d_j rho N_a]`` it is ``sum_a c_a l_a l_a^T - l_a n_a^T -
n_a l_a^T``.  Every scalar quantity comes from one kernel
(`_k_operators`), the contraction of A with a symmetric P x P matrix C:

    K_a(C) = sum_jk C_jk A_{a;jk} = (l_a . C l_a) rho - 2 sum_k (C l_a)_k d_k rho.

At C = F^-1 it is the K of ``X[M, N] = P + sum_a Tr[K_a N_a]``, with
``|L_a|^2 = l_a . F^-1 l_a = Tr K_a``.  The best two-outcome noise on a
pair (a, b) puts the projector onto the positive part of K_a - K_b on a
and adds the pair value ``(Tr K_a + Tr K_b + ||K_a - K_b||_1) / 2`` to P;
`sigma_lower` maximizes it over pairs.  It is attained by an explicit
noise POVM, so it is a certified lower bound, and it needs no choice of
parametrization.

Only ``Sigma_U = sum_k sigma_k`` depends on a frame, the J that
diagonalizes F (``F~ = J F J^T``): sigma_k is 1 plus the pair value of
``K(C_k)``, ``C_k = J_k J_k^T / F~_kk``, and the C_k sum to F^-1, so
``sum_k K(C_k) = K(F^-1)``.  At P = 1 the frame is J = 1 and
`sigma_single` is ``Sigma_U``.  Both bounds come from one kernel call on
the (1 + P, P, P) stack ``[F^-1; C_1 .. C_P]`` and one spectrum of the
stacked pair differences, all E(E-1)/2 outcome pairs of K(F^-1) and the
pair (n_k, m_k) of each K(C_k) (`_pair_bounds`: a sweep row calls it on
its own F^-1 and eigh(F), and `FisherBundle.pair_bounds` on the bundle's).

Sigma[M] is an SDP in the K_a, with dual min Tr Y over Y >= K_a.
`sigma_exact` settles it by the pair certificate Y = K_b + (K_a - K_b)_+
where that dominates every K_c (to CERTIFICATE_RTOL max|K_xy|), else by a
primal-dual interior-point method (`_exact_sdp`, which factors each iterate
once: seven LAPACK calls per step), and reports exactly feasible primal
and dual points: ``value <= Sigma <= value + exact_gap``.

Every function takes the point's `FisherBundle` (`fisher_bundle`), so one
evaluation of state, derivatives, F and the bounds' kernel call serves
`sigma_lower`, `sigma_upper`, `sigma_single` and `sigma_exact`; only
`x_finite_mix` takes the model, to evaluate the mixed POVM.  Every K_a(C)
lives on the bundle's support (r x r operators, ``bundle.support[1]``).
The fixed-noise functions `g_matrix`, `xi_matrix` and `x_scalar` restrict
a full-space noise POVM to it and never build the frame or the bounds:
they read the F^-1 of the bounds' refusal (`FisherBundle.fisher_inverse`),
and `x_scalar` reads K(F^-1) alone (`FisherBundle.k_operators`), with the
bits of the bounds' K.  The noise of `sigma_exact` is built, and lifted to the full space,
when first read.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fisher import (FisherBundle, SingularFisherError, _checked_inverse_and_eigh,
                     _outcome_traces, fisher_bundle)
from . import linalg
from .linalg import _normalized, _sym, _trace_norms
from .model import Povm, check_value, mix_povm

CLUSTER_RTOL = 1e-8
POSITIVE_PART_RTOL = 1e-12
NOISE_ON_DROPPED_TOL = 1e-12
CERTIFICATE_RTOL = 1e-12
EXACT_RTOL = 1e-9
STEP_FRACTION = 0.98
MAX_ITERATIONS = 50


def _aligned_noise_elements(bundle, noise):
    """``(slots, elements)``: the noise elements on the kept outcomes.

    ``elements[m]`` is the noise element on kept outcome
    ``bundle.kept_outcomes[slots[m]]``, restricted to the bundle's support
    (``V^dag N_a V``).  The noise POVM is padded with zero
    elements when shorter than the target (mix_povm convention).  Noise
    weight on outcomes the target drops (or does not have) lies outside the
    first-order model, so any such element with non-negligible norm is an
    error.
    """
    dim = bundle.dim
    if noise.dim != dim:
        raise ValueError(f"noise dimension {noise.dim} != target dimension {dim}")
    slot_of = {a: i for i, a in enumerate(bundle.kept_outcomes)}
    on_kept = []
    for a, element in enumerate(noise.elements):
        if a in slot_of:
            on_kept.append(a)
        elif float(np.max(np.abs(element))) > NOISE_ON_DROPPED_TOL:
            raise ValueError(
                f"noise element {a} acts on an outcome the target measurement "
                f"assigns vanishing probability; the first-order susceptibility "
                f"is undefined there")
    V = bundle.support[0]
    return (np.array([slot_of[a] for a in on_kept], dtype=int),
            V.conj().T @ noise.elements[on_kept] @ V)


def g_matrix(bundle: FisherBundle, noise: Povm):
    """G[N]_{jk} = sum_a Tr[A_{a;jk} N_a] over the kept outcomes.

    With c_a = Tr[rho N_a] and n_{a,j} = Tr[d_j rho N_a] this is
    sum_a c_a l_a l_a^T - l_a n_a^T - n_a l_a^T.
    """
    slots, elements = _aligned_noise_elements(bundle, noise)
    c, n = _outcome_traces(*bundle.support[1:], elements)
    l = bundle.scores[slots]
    half = l.T @ (0.5 * c[:, None] * l - n)
    return half + half.T


def xi_matrix(bundle: FisherBundle, noise: Povm):
    """Matrix susceptibility Xi[M, N] = I + F^-1 G[N]."""
    return np.eye(bundle.n_params) + bundle.fisher_inverse @ g_matrix(bundle, noise)


def x_scalar(bundle: FisherBundle, noise: Povm):
    """Scalar susceptibility X[M, N] = P + sum_a Tr[K_a N_a] (equals tr Xi)."""
    slots, elements = _aligned_noise_elements(bundle, noise)
    K = bundle.k_operators[slots]
    return bundle.n_params + float(np.real(np.einsum("axy,ayx->", K, elements)))


def x_finite_mix(model, theta, target, noise, eps):
    """Finite-eps determinant quotient (det F - det F_eps) / (eps det F).

    Converges linearly in eps to x_scalar; used as an independent check
    of the first-order formula.  Needs a real eps > 0 (`model.check_value`;
    `mix_povm` refuses eps > 1) and an F of ``target`` that
    `fisher._checked_inverse_and_eigh` inverts (else `SingularFisherError`).
    """
    if not check_value("eps", eps, float) > 0.0:
        raise ValueError(f"x_finite_mix needs eps > 0, got {eps}")
    F0 = fisher_bundle(model, theta, target).fisher
    _checked_inverse_and_eigh((F0,))     # a singular F0 is refused, not divided by
    Fe = fisher_bundle(model, theta, mix_povm(target, noise, eps)).fisher
    d0 = np.linalg.det(F0)
    return float((d0 - np.linalg.det(Fe)) / (eps * d0))


def sigma_single(bundle: FisherBundle):
    """Single-parameter worst-case susceptibility sigma[M].

    sigma = 1 + (Tr K_n + Tr K_m + ||K_n - K_m||_1) / 2 on the outcomes n, m of
    maximal and minimal score, with K at C = 1/F: at P = 1 the frame is
    J = 1, so this is `sigma_upper`'s one term.
    """
    if bundle.n_params != 1:
        raise ValueError(
            f"sigma_single needs a single-parameter model, got P = {bundle.n_params}")
    return sigma_upper(bundle)[0]


# ---------------------------------------------------------------------------
# K operators and the pair bound
# ---------------------------------------------------------------------------

def _k_operators(bundle, C=None):
    """K_a(C) = sum_jk C_jk A_{a;jk} = (l_a . C l_a) rho - 2 sum_k (C l_a)_k d_k rho.

    C is a symmetric (P, P) matrix or a (..., P, P) stack; K is (..., E_kept,
    r, r) on the support, and linear in C, so sum_k K(C_k) = K(sum_k C_k).
    The default C = F^-1 is the K of the fixed-noise functions.
    """
    _, rho, derivs = bundle.support
    w = bundle.scores @ (bundle.fisher_inverse if C is None else C)   # (..., E, P): C l_a
    norms = np.einsum("...aj,aj->...a", w, bundle.scores)              # l_a . C l_a
    return norms[..., None, None] * rho - 2.0 * np.einsum("...ak,kxy->...axy", w, derivs)


def _pair_values(K, i, j):
    """(Tr K_i + Tr K_j + ||K_i - K_j||_1) / 2, sum_a Tr[K_a N_a] of the best noise
    on the pair (i, j); i and j index the leading axes of the (..., r, r) stack K."""
    traces = np.einsum("...xx->...", K).real
    return 0.5 * (traces[i] + traces[j] + _trace_norms(K[i] - K[j]))


@lru_cache(maxsize=32)
def _pair_slots(E, P):
    """``(members, pairs)``, read-only, built once per (E, P): the kernel-stack
    member and the two outcomes of each pair `_pair_bounds` reads.

    The first E(E-1)/2 slots are ``np.triu_indices(E, 1)`` on member 0
    (F^-1); slot E(E-1)/2 + k - 1 is on member k (C_k), and its two
    outcomes, zero here, are filled per point.
    """
    pairs = np.array(np.triu_indices(E, 1))
    members = np.concatenate((np.zeros(pairs.shape[1], dtype=int), np.arange(1, P + 1)))
    pairs = np.concatenate((pairs, np.zeros((2, P), dtype=int)), axis=1)
    members.setflags(write=False)
    pairs.setflags(write=False)
    return members, pairs


PairBounds = namedtuple("PairBounds", "k_operators best_pair lower upper sigmas")


def _pair_bounds(bundle, Finv, eig):
    """Both bounds of a point from one kernel call and one spectrum.

    ``Finv`` is F^-1 and ``eig`` the ``eigh`` of F, both from the call that
    refused F.  One `_k_operators` call on the (1 + P, P, P) stack
    ``[F^-1; C_1 .. C_P]`` of the frame that diagonalizes F, and one
    `_pair_values` call over the E(E-1)/2 outcome pairs of K = K(F^-1)
    followed by the P pairs ``(n_k, m_k)`` of K(C_k) (`_pair_slots`).
    Returns `PairBounds`: K, the best pair ``((i, j), value)`` (value
    without the P term; ties go to the lowest pair), Sigma_L, and Sigma_U
    with its terms sigma_k.  Raises `SingularFisherError` when fewer than
    two outcomes are kept.
    """
    J, f = _canonical_diagonalizer(bundle, eig)
    E, P = bundle.scores.shape
    if E < 2:
        raise SingularFisherError("the pair bounds need at least two kept outcomes")
    K = _k_operators(bundle, np.concatenate((
        Finv[None], J[:, :, None] * J[:, None, :] / f[:, None, None])))
    s = bundle.scores @ J.T                                  # l~_a = J l_a
    members, pairs = _pair_slots(E, P)
    n = pairs.shape[1] - P
    pairs = pairs.copy()
    pairs[0, n:] = s.argmax(0)
    pairs[1, n:] = s.argmin(0)
    values = _pair_values(K, (members, pairs[0]), (members, pairs[1]))
    p = int(values[:n].argmax())
    sigmas = 1.0 + values[n:]
    value = float(values[p])
    return PairBounds(K[0], ((int(pairs[0, p]), int(pairs[1, p])), value), P + value,
                      float(sigmas.sum()), tuple(sigmas.tolist()))


def sigma_lower(bundle: FisherBundle):
    """Certified lower bound on Sigma[M], maximized over outcome pairs.

    Returns ``(Sigma_L, best_pair)`` with outcome indices of the
    maximizing pair (ties broken toward the lowest indices).
    """
    bounds = bundle.pair_bounds
    (i, j), _ = bounds.best_pair
    kept = bundle.kept_outcomes
    return bounds.lower, (kept[i], kept[j])


# ---------------------------------------------------------------------------
# Fisher-diagonalizing frame
# ---------------------------------------------------------------------------

def _canonical_diagonalizer(bundle, eig=None):
    """Deterministic orthogonal J with J F J^T diagonal (descending).

    Built from one eigh(F): ``eig`` when the caller holds it, else the
    bundle's (`FisherBundle.fisher_eigh`, whose call refuses a singular F).

    Within clusters of (nearly) degenerate eigenvalues the eigenbasis
    returned by ``eigh`` is arbitrary and unstable; each cluster basis is
    replaced by the orthonormalized projections of the best-aligned
    coordinate axes, which is deterministic, stable under tiny
    perturbations, and reduces to the identity when F is proportional
    to it.  Column signs are fixed by making the largest component
    positive.  The cluster and sign tests run on Python floats, which
    round as numpy's float64 does.
    """
    F = bundle.fisher
    w, V = bundle.fisher_eigh if eig is None else eig
    w, V = w.tolist()[::-1], V[:, ::-1]
    scale = max(max(map(abs, w)), 1e-300)
    starts = [k for k in range(1, len(w)) if abs(w[k] - w[k - 1]) > CLUSTER_RTOL * scale]
    if len(starts) < len(w) - 1:         # some eigenvalues share a cluster
        V = V.copy()
        for idx in np.split(np.arange(len(w)), starts):
            if len(idx) < 2:
                continue
            C = V[:, idx]
            proj = C @ C.T
            order = np.argsort(-np.diag(proj), kind="stable")
            axes = sorted(order[:len(idx)])
            U, _, Wt = np.linalg.svd(proj[:, axes], full_matrices=False)
            V[:, idx] = U @ Wt
    # each column's first entry of largest magnitude made positive
    J = (V * [-1.0 if max(col, key=abs) < 0.0 else 1.0 for col in V.T.tolist()]).T
    return J, (J @ F @ J.T).diagonal()


def sigma_upper(bundle: FisherBundle):
    """Upper bound Sigma_U = sum_k sigma_k and the per-parameter terms.

    sigma_k is `sigma_single` of direction J_k of the frame that diagonalizes
    F: 1 plus the pair value of K(C_k), C_k = J_k J_k^T / F~_kk, on the
    outcomes n_k, m_k of maximal and minimal l~_k (`_pair_bounds`, which
    takes them with Sigma_L from one kernel call).  They sum to F^-1, so
    sum_k K(C_k) = K(F^-1), and as the pair value is subadditive in K and
    maximal for C_k at (n_k, m_k), Sigma_L <= Sigma_U.  Returns
    ``(Sigma_U, [sigma_k])``.
    """
    bounds = bundle.pair_bounds
    return bounds.upper, list(bounds.sigmas)


# ---------------------------------------------------------------------------
# Exact worst case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactWorstCase:
    """Sigma[M] = max_N X[M, N] with a duality certificate.

    ``value`` is X[M, noise] of the explicit noise POVM ``noise``, and
    ``value + exact_gap`` is P + Tr Y for a Y >= K_a (every kept a), which
    bounds X of every noise.  ``iterations`` counts interior-point steps.
    `sigma_exact` computes these four numbers and stores, for ``noise``,
    the bundle, K, the eigenpairs (w, U) of K_a - K_b on the best pair
    (a, b) and the interior-point N when it beat the pair; the noise is
    built from them when first read.
    """

    value: float
    exact_gap: float
    iterations: int
    pair_certified: bool
    _lift: tuple = field(repr=False, compare=False)    # (bundle, K, N or None, w, U, a, b)

    @cached_property
    def noise(self):
        """V N_a V^dag on kept outcome a, plus I - V V^dag on b; built on first read."""
        bundle, K, N, w, U, a, b = self._lift
        if N is None:       # the pair noise: (K_a - K_b)_+'s projector on a, its complement on b
            pos = U[:, w > POSITIVE_PART_RTOL * np.max(np.abs(w))]
            N = np.zeros_like(K)
            N[a] = pos @ pos.conj().T
            N[b] = np.eye(len(U)) - N[a]
        V, kept, d = bundle.support[0], list(bundle.kept_outcomes), bundle.dim
        elements = np.zeros((len(bundle.probabilities), d, d), dtype=N.dtype)
        elements[kept] = V @ N @ V.conj().T
        elements[kept[b]] += np.eye(d) - V @ V.conj().T
        return Povm(elements)


def _step(eigenvalues):
    """Largest alpha <= 1 keeping the stack X + alpha dX PSD, from the eigenvalues
    of L^-1 dX L^-H (X = L L^H) of every member."""
    low = float(eigenvalues.min())
    return 1.0 if low >= -1.0 else -1.0 / low


def _exact_sdp(K, lam):
    """Interior-point solve of max sum_a Tr[K_a N_a] over POVMs N.

    HKM direction, Mehrotra predictor-corrector (Todd, Toh & Tutuncu, SIAM
    J. Optim. 8, 769, 1998), from the feasible N_a = I/E and
    Y = (max lambda(K) + max(1, max|lambda(K)|)) I, with S_a = Y - K_a.  dY
    solves sum_a sym(N_a dY S_a^-1) = rhs in Kronecker form (r^2 x r^2).
    Each iterate is factored once: one batched Cholesky L of the stacked
    (2E, r, r) [N; S] and its inverse serve both Newton steps, and each step
    reads its primal and dual step lengths off one eigvalsh of
    L^-1 [dN; dY] L^-H, the first E members for N and the last E for S.
    Stops at a relative gap of EXACT_RTOL or on a stall: a step that does
    not move, or a failed Cholesky or solve.  Returns ``(N, Y, iterations)``.
    """
    E, r = K.shape[:2]
    eye = np.eye(r)
    N = np.repeat(eye[None] / E, E, axis=0)
    Y = (lam.max() + max(1.0, abs(lam).max())) * eye
    for it in range(MAX_ITERATIONS):
        S = Y - K
        gap = float(np.einsum("axy,ayx->", N, S).real)
        if gap <= EXACT_RTOL * abs(float(Y.trace().real)):
            return N, Y, it
        try:
            Li = linalg.inv(linalg.cholesky(np.concatenate((N, S))))
            LiH = Li.conj().swapaxes(-1, -2)
            Si = _sym(linalg.inv(S))
            sum_Si = Si.sum(0)
            # twice the map dY -> sum_a sym(N_a dY S_a^-1); the (Si, N) term of the
            # sum is the transpose of the (N, Si) term
            H = np.einsum("aij,alk->ikjl", N, Si)
            H = (H + H.transpose(3, 2, 1, 0)).reshape(r * r, r * r)

            def newton(target, C=None):
                rhs = target * sum_Si - eye       # the predictor has no C: x - 0.0 is x
                if C is not None:
                    rhs = rhs - _sym(C).sum(0)
                dY = _sym(linalg.solve(H, 2.0 * rhs.reshape(-1)).reshape(r, r))
                dN = target * Si - N - N @ dY @ Si
                dN = _sym(dN if C is None else dN - C)
                dX = np.concatenate((dN, np.repeat(dY[None], E, axis=0)))
                w = linalg.eigvalsh(Li @ dX @ LiH)
                return dN, dY, _step(w[:E]), _step(w[E:])

            dN, dY, ap, ad = newton(0.0)
            mu_aff = np.einsum("axy,ayx->", N + ap * dN, S + ad * dY).real
            dN, dY, ap, ad = newton((mu_aff / gap) ** 3 * gap / (E * r), dN @ dY @ Si)
        except np.linalg.LinAlgError:
            return N, Y, it
        N_next, Y_next = N + STEP_FRACTION * ap * dN, Y + STEP_FRACTION * ad * dY
        if np.array_equal(N_next, N) and np.array_equal(Y_next, Y):
            return N, Y, it
        N, Y = N_next, Y_next
    return N, Y, MAX_ITERATIONS


def sigma_exact(bundle: FisherBundle) -> ExactWorstCase:
    """The worst case Sigma[M] = P + max_N sum_a Tr[K_a N_a], certified.

    A minimum-error-discrimination SDP on the support (Eldar, Megretski &
    Verghese, IEEE TIT 49, 1007, 2003).  The value, gap and certificate
    take ``eigh(K_a - K_b)`` on the best pair (a, b), the dual point
    Y = K_b + (K_a - K_b)_+, one ``eigvalsh(K - Y)`` and Tr Y.  The pair
    certificate holds when no K_c exceeds Y by more than
    CERTIFICATE_RTOL max|K_xy| (one test); else `_exact_sdp` starts from
    eigvalsh(K), its N is clipped to PSD and mapped to R^-1/2 N R^-1/2
    (R = sum N), and the value is the larger of that primal and Sigma_L,
    so it never reads below Sigma_L.  The noise, V N_a V^dag plus
    I - V V^dag on b, is built from the stored eigenpairs (or the kept
    interior-point N) when ``.noise`` is first read.  K and the best pair
    are those of the bounds (`FisherBundle.pair_bounds`), so on a bundle
    that took them no kernel call is made.  Raises `SingularFisherError`
    below two kept outcomes.
    """
    bounds = bundle.pair_bounds
    return _exact_worst_case(bundle, bounds.best_pair, bounds.k_operators)


def _exact_worst_case(bundle, best_pair, K):
    """`sigma_exact` from the bounds' best pair ``((a, b), value)`` and K = K(F^-1)."""
    (a, b), pair_value = best_pair
    P, r = bundle.n_params, K.shape[1]
    w, U = linalg.eigh(K[a] - K[b])
    Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
    shift = linalg.eigvalsh(K - Y)[:, -1].max()
    value, iterations, N = P + pair_value, 0, None
    certified = bool(shift <= CERTIFICATE_RTOL * abs(K).max())
    if not certified:
        M, Y, iterations = _exact_sdp(K, linalg.eigvalsh(K))
        m, W = linalg.eigh(M)
        M = _normalized((W * np.maximum(m, 0.0)[:, None, :]) @ W.conj().swapaxes(-1, -2))
        primal = P + float(np.einsum("axy,ayx->", K, M).real)
        if primal > value:
            N, value = M, primal
        shift = linalg.eigvalsh(K - Y)[:, -1].max()
    dual = P + float(Y.trace().real + r * shift)
    # a pair-certified dual equals the value up to rounding, either side of it
    return ExactWorstCase(value=value, exact_gap=max(dual - value, 0.0), iterations=iterations,
                          pair_certified=certified, _lift=(bundle, K, N, w, U, a, b))
