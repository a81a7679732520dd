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
diagonalizes F (``F~ = J F J^T``), and only `sigma_upper` builds it:
sigma_k is 1 plus the pair value of ``K(C_k)``, ``C_k = J_k J_k^T / F~_kk``,
and the C_k sum to F^-1, so ``sum_k K(C_k) = K(F^-1)``.  At P = 1 the
frame is J = 1 and `sigma_single` is ``Sigma_U``.

Sigma[M] is an SDP in the K_a, with dual min Tr Y over Y >= K_a.
`sigma_exact` settles it by the pair certificate Y = K_b + (K_a - K_b)_+
where that dominates every K_c (to CERTIFICATE_RTOL max|K_xy|), else by a
primal-dual interior-point method (`_exact_sdp`, which factors each iterate
once: seven LAPACK calls per step), and reports exactly feasible primal
and dual points: ``value <= Sigma <= value + exact_gap``.

Every function takes the point's `FisherBundle` (`fisher_bundle`), so one
evaluation of state, derivatives, F, K = K(F^-1) and its best pair serves them all;
only `x_finite_mix` takes the model, because it must evaluate the mixed POVM.
The bundle holds rho and its derivatives on their joint range
(`FisherBundle.support`), which holds every K_a(C):
trace norms, bounds and X are unchanged, and the operators are r x r
instead of d x d (``bundle.support[1].shape[0]`` is r).  The
fixed-noise functions `g_matrix`, `xi_matrix` and `x_scalar` take a noise
POVM on the full space and restrict its elements to the support, so they
read the same K as the bounds; the noise of `sigma_exact` is lifted to the
full space when first read.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fisher import (FisherBundle, SingularFisherError, _outcome_traces,
                     fisher_bundle)
from .linalg import _normalized, _sym, _trace_norms
from .model import Povm, mix_povm

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
    of the first-order formula.  Needs eps > 0.
    """
    if not eps > 0.0:
        raise ValueError(f"x_finite_mix needs eps > 0, got {eps}")
    F0 = fisher_bundle(model, theta, target).fisher
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
    The default C = F^-1 is the K that `FisherBundle.k_operators` caches.
    """
    _, rho, derivs = bundle.support
    w = bundle.scores @ (bundle.fisher_inverse if C is None else C)   # (..., E, P): C l_a
    norms = np.einsum("...aj,aj->...a", w, bundle.scores)              # l_a . C l_a
    return norms[..., None, None] * rho - 2.0 * np.einsum("...ak,kxy->...axy", w, derivs)


def _pair_values(K, i, j):
    """(Tr K_i + Tr K_j + ||K_i - K_j||_1) / 2, sum_a Tr[K_a N_a] of the best noise
    on the pair (i, j); i and j index the leading axes of the (..., r, r) stack K."""
    traces = np.real(np.einsum("...xx->...", K))
    return 0.5 * (traces[i] + traces[j] + _trace_norms(K[i] - K[j]))


@lru_cache(maxsize=32)
def _pair_indices(E):
    """``np.triu_indices(E, 1)`` as one read-only (2, E(E-1)/2) array, built once per E."""
    pairs = np.array(np.triu_indices(E, 1))
    pairs.setflags(write=False)
    return pairs


def _best_pair(K):
    """Best outcome pair (i, j), i < j, and its value without the P term.

    The value `_pair_values` is sum_a Tr[K_a N_a] for the best noise on
    that pair, taken over all pairs at once; ties go to the lowest pair.
    """
    E = K.shape[0]
    if E < 2:
        raise SingularFisherError("sigma_lower needs at least two kept outcomes")
    i, j = _pair_indices(E)
    values = _pair_values(K, i, j)
    p = int(np.argmax(values))
    return (int(i[p]), int(j[p])), float(values[p])


def sigma_lower(bundle: FisherBundle):
    """Certified lower bound on Sigma[M], maximized over outcome pairs.

    Returns ``(Sigma_L, best_pair)`` with outcome indices of the
    maximizing pair (ties broken toward the lowest indices).
    """
    (i, j), value = bundle.best_pair
    kept = bundle.kept_outcomes
    return bundle.n_params + value, (kept[i], kept[j])


# ---------------------------------------------------------------------------
# Fisher-diagonalizing frame
# ---------------------------------------------------------------------------

def _canonical_diagonalizer(bundle):
    """Deterministic orthogonal J with J F J^T diagonal (descending).

    Built from the bundle's one eigh(F) (`FisherBundle.fisher_eigh`).

    Within clusters of (nearly) degenerate eigenvalues the eigenbasis
    returned by ``eigh`` is arbitrary and unstable; each cluster basis is
    replaced by the orthonormalized projections of the best-aligned
    coordinate axes, which is deterministic, stable under tiny
    perturbations, and reduces to the identity when F is proportional
    to it.  Column signs are fixed by making the largest component
    positive.  Raises `SingularFisherError` when F is singular.
    """
    bundle.fisher_inverse                # refuse a singular F
    F = bundle.fisher
    w, V = bundle.fisher_eigh
    w, V = w[::-1].copy(), V[:, ::-1].copy()
    scale = max(float(np.max(np.abs(w))), 1e-300)
    starts = np.flatnonzero(np.abs(np.diff(w)) > CLUSTER_RTOL * scale) + 1
    if starts.size < len(w) - 1:         # some eigenvalues share a cluster
        for idx in np.split(np.arange(len(w)), starts):
            if len(idx) < 2:
                continue
            C = V[:, idx]
            proj = C @ C.T
            order = np.argsort(-np.diag(proj), kind="stable")
            axes = sorted(order[:len(idx)])
            U, _, Wt = np.linalg.svd(proj[:, axes], full_matrices=False)
            V[:, idx] = U @ Wt
    lead = np.argmax(np.abs(V), axis=0)
    V *= np.where(V[lead, np.arange(V.shape[1])] < 0, -1.0, 1.0)
    J = V.T
    return J, np.diag(J @ F @ J.T).copy()


def sigma_upper(bundle: FisherBundle):
    """Upper bound Sigma_U = sum_k sigma_k and the per-parameter terms.

    sigma_k is `sigma_single` of direction J_k of the frame that diagonalizes
    F: 1 plus the pair value of K(C_k), C_k = J_k J_k^T / F~_kk, on the
    outcomes n_k, m_k of maximal and minimal l~_k; one kernel call serves
    the stack of C_k.  They sum to F^-1, so sum_k K(C_k) = K(F^-1), and as
    the pair value is subadditive in K and maximal for C_k at (n_k, m_k),
    Sigma_L <= Sigma_U.  Returns ``(Sigma_U, [sigma_k])``.
    """
    J, f = _canonical_diagonalizer(bundle)
    s = bundle.scores @ J.T                                   # l~_a = J l_a
    K = _k_operators(bundle, J[:, :, None] * J[:, None, :] / f[:, None, None])
    k = np.arange(s.shape[1])
    sigmas = 1.0 + _pair_values(K, (k, np.argmax(s, axis=0)), (k, np.argmin(s, axis=0)))
    return float(np.sum(sigmas)), sigmas.tolist()


# ---------------------------------------------------------------------------
# Exact worst case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactWorstCase:
    """Sigma[M] = max_N X[M, N] with a duality certificate.

    ``value`` is X[M, noise] of the explicit noise POVM ``noise``, and
    ``value + exact_gap`` is P + Tr Y for a Y >= K_a (every kept a), which
    bounds X of every noise.  ``iterations`` counts interior-point steps.
    """

    value: float
    exact_gap: float
    iterations: int
    pair_certified: bool
    _lift: tuple = field(repr=False, compare=False)    # (N, V, kept, b, shape)

    @cached_property
    def noise(self):
        """V N_a V^dag on kept outcome a, plus I - V V^dag on b; built on first read."""
        N, V, kept, b, shape = self._lift
        elements = np.zeros(shape, dtype=N.dtype)
        elements[kept] = V @ N @ V.conj().T
        elements[kept[b]] += np.eye(shape[1]) - V @ V.conj().T
        return Povm(elements)


def _step(eigenvalues):
    """Largest alpha <= 1 keeping the stack X + alpha dX PSD, from the eigenvalues
    of L^-1 dX L^-H (X = L L^H) of every member."""
    low = float(np.min(eigenvalues))
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
    Y = (np.max(lam) + max(1.0, np.max(np.abs(lam)))) * eye
    for it in range(MAX_ITERATIONS):
        S = Y - K
        gap = float(np.einsum("axy,ayx->", N, S).real)
        if gap <= EXACT_RTOL * abs(float(np.trace(Y).real)):
            return N, Y, it
        try:
            Li = np.linalg.inv(np.linalg.cholesky(np.concatenate((N, S))))
            LiH = Li.conj().swapaxes(-1, -2)
            Si = _sym(np.linalg.inv(S))
            sum_Si = np.sum(Si, axis=0)
            # twice the map dY -> sum_a sym(N_a dY S_a^-1); the (Si, N) term of the
            # sum is the transpose of the (N, Si) term
            H = np.einsum("aij,alk->ikjl", N, Si)
            H = (H + H.transpose(3, 2, 1, 0)).reshape(r * r, r * r)

            def newton(target, C=None):
                rhs = target * sum_Si - eye       # the predictor has no C: x - 0.0 is x
                if C is not None:
                    rhs = rhs - np.sum(_sym(C), axis=0)
                dY = _sym(np.linalg.solve(H, 2.0 * rhs.reshape(-1)).reshape(r, r))
                dN = target * Si - N - N @ dY @ Si
                dN = _sym(dN if C is None else dN - C)
                dX = np.concatenate((dN, np.repeat(dY[None], E, axis=0)))
                w = np.linalg.eigvalsh(Li @ dX @ LiH)
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
    Verghese, IEEE TIT 49, 1007, 2003).  The pair certificate holds when no
    K_c exceeds its Y by more than CERTIFICATE_RTOL max|K_xy| (one test);
    else `_exact_sdp` starts from eigvalsh(K), its N is clipped to PSD and
    mapped to R^-1/2 N R^-1/2 (R = sum N), and the value is the larger of
    that primal and Sigma_L, so it never reads below Sigma_L.
    The noise, V N_a V^dag plus I - V V^dag on b, is lifted when first
    read.  Raises `SingularFisherError` below two kept outcomes.
    """
    K = bundle.k_operators
    (a, b), pair_value = bundle.best_pair
    P, r = bundle.n_params, K.shape[1]
    w, U = np.linalg.eigh(K[a] - K[b])
    pos = U[:, w > POSITIVE_PART_RTOL * np.max(np.abs(w))]
    N = np.zeros_like(K)
    N[a] = pos @ pos.conj().T
    N[b] = np.eye(r) - N[a]
    Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
    shift = np.max(np.linalg.eigvalsh(K - Y)[:, -1])
    value, iterations = P + pair_value, 0
    certified = bool(shift <= CERTIFICATE_RTOL * np.max(np.abs(K)))
    if not certified:
        M, Y, iterations = _exact_sdp(K, np.linalg.eigvalsh(K))
        w, U = np.linalg.eigh(M)
        M = _normalized((U * np.maximum(w, 0.0)[:, None, :]) @ U.conj().swapaxes(-1, -2))
        primal = P + float(np.einsum("axy,ayx->", K, M).real)
        if primal > value:
            N, value = M, primal
        shift = np.max(np.linalg.eigvalsh(K - Y)[:, -1])
    dual = P + float(np.trace(Y).real + r * shift)
    shape = bundle.probabilities.shape + (bundle.dim, bundle.dim)
    # a pair-certified dual equals the value up to rounding, either side of it
    return ExactWorstCase(value=value, exact_gap=max(dual - value, 0.0), iterations=iterations,
                          pair_certified=certified,
                          _lift=(N, bundle.support[0], list(bundle.kept_outcomes), b, shape))
