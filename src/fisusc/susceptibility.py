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
n_a l_a^T``.  Every scalar quantity comes from one kernel, the
contraction of A with F^-1:

    K_a = |L_a|^2 rho - 2 sum_k (F^-1 l_a)_k d_k rho,   X[M, N] = P + sum_a Tr[K_a N_a],

with ``|L_a|^2 = l_a . F^-1 l_a = Tr K_a``.  The best two-outcome noise
on a pair (a, b) puts the projector onto the positive part of K_a - K_b
on a and gives ``X* = P + (Tr K_a + Tr K_b + ||K_a - K_b||_1) / 2``;
`sigma_lower` maximizes X* over pairs.  It is attained by an explicit
noise POVM, so it is a certified lower bound, and it needs no choice of
parametrization.

Only ``Sigma_U = sum_k sigma_k`` depends on a frame: it sums
single-parameter worst cases in the parametrization that diagonalizes F
(`diagonalize_frame`), and `sigma_upper` is the frame's only consumer.

Sigma[M] is an SDP in the K_a, with dual min Tr Y over Y >= K_a.
`sigma_exact` settles it by the pair certificate Y = K_b + (K_a - K_b)_+
where that dominates every K_c, and otherwise by a primal-dual
interior-point method, and reports exactly feasible primal and dual
points: ``value <= Sigma <= value + exact_gap``.

Every function takes the point's `FisherBundle` (`fisher_bundle`), so one
evaluation of state, derivatives and F serves them all; only
`x_finite_mix` takes the model, because it must evaluate the mixed POVM.
`susceptibility_report`, `sigma_lower`, `sigma_upper` and `sigma_exact`
work on the bundle restricted to the joint range of rho and its
derivatives (`FisherBundle.on_support`), which holds every K_a and every
A~ operator: trace norms, bounds and X are unchanged, and the operators
are r x r instead of d x d (``report.diagnostics["support_rank"]`` is r);
the returned noise POVMs act on the full space.  The fixed-noise
functions `g_matrix`, `xi_matrix` and `x_scalar` take a noise POVM on the
bundle's space, and use the bundle's checked F^-1.
"""

from dataclasses import dataclass

import numpy as np

from .fisher import (FisherBundle, SingularFisherError, _outcome_traces,
                     fisher_bundle)
from .linalg import _trace_norms
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
    ``bundle.kept_outcomes[slots[m]]``.  The noise POVM is padded with zero
    elements when shorter than the target (mix_povm convention).  Noise
    weight on outcomes the target drops (or does not have) lies outside the
    first-order model, so any such element with non-negligible norm is an
    error.
    """
    dim = bundle.rho.shape[0]
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
    return np.array([slot_of[a] for a in on_kept], dtype=int), noise.elements[on_kept]


def g_matrix(bundle: FisherBundle, noise: Povm):
    """G[N]_{jk} = sum_a Tr[A_{a;jk} N_a] over the kept outcomes.

    With c_a = Tr[rho N_a] and n_{a,j} = Tr[d_j rho N_a] this is
    sum_a c_a l_a l_a^T - l_a n_a^T - n_a l_a^T.
    """
    slots, elements = _aligned_noise_elements(bundle, noise)
    c, n = _outcome_traces(bundle.rho, bundle.derivatives, elements)
    l = bundle.scores[slots]
    half = l.T @ (0.5 * c[:, None] * l - n)
    return half + half.T


def xi_matrix(bundle: FisherBundle, noise: Povm):
    """Matrix susceptibility Xi[M, N] = I + F^-1 G[N]."""
    return np.eye(bundle.n_params) + bundle.fisher_inverse @ g_matrix(bundle, noise)


def x_scalar(bundle: FisherBundle, noise: Povm):
    """Scalar susceptibility X[M, N] = P + sum_a Tr[K_a N_a] (equals tr Xi)."""
    slots, elements = _aligned_noise_elements(bundle, noise)
    K = _k_operators(bundle)[slots]
    return bundle.n_params + float(np.real(np.einsum("axy,ayx->", K, elements)))


def x_finite_mix(model, theta, target, noise, eps):
    """Finite-eps determinant quotient (det F - det F_eps) / (eps det F).

    Converges linearly in eps to x_scalar; used as an independent check
    of the first-order formula.
    """
    F0 = fisher_bundle(model, theta, target).fisher
    Fe = fisher_bundle(model, theta, mix_povm(target, noise, eps)).fisher
    d0 = np.linalg.det(F0)
    return float((d0 - np.linalg.det(Fe)) / (eps * d0))


def sigma_single(bundle: FisherBundle):
    """Single-parameter worst-case susceptibility sigma[M].

    sigma = 1 + (l_n^2 + l_m^2 + ||A_n - A_m||_1) / (2 F) with n, m the
    outcomes of maximal and minimal score.
    """
    if bundle.n_params != 1:
        raise ValueError(
            f"sigma_single needs a single-parameter model, got P = {bundle.n_params}")
    F = float(bundle.fisher[0, 0])
    if F <= 0.0:
        raise SingularFisherError(
            "measurement carries no information about the parameter (F = 0)")
    l = bundle.scores[:, 0]
    n, m = int(np.argmax(l)), int(np.argmin(l))
    rho, drho = bundle.rho, bundle.derivatives[0]
    A_n = l[n] ** 2 * rho - 2.0 * l[n] * drho
    A_m = l[m] ** 2 * rho - 2.0 * l[m] * drho
    return 1.0 + (l[n] ** 2 + l[m] ** 2 + float(_trace_norms(A_n - A_m))) / (2.0 * F)


# ---------------------------------------------------------------------------
# K operators and the pair bound
# ---------------------------------------------------------------------------

def _k_operators(bundle):
    """K_a = sum_jk (F^-1)_jk A_{a;jk} = |L_a|^2 rho - 2 sum_k (F^-1 l_a)_k d_k rho.

    Then X[M, N] = P + sum_a Tr[K_a N_a] and Tr K_a = |L_a|^2.
    """
    w = bundle.scores @ bundle.fisher_inverse         # (E, P): F^-1 l_a
    norms = np.einsum("aj,aj->a", w, bundle.scores)   # |L_a|^2
    return (norms[:, None, None] * bundle.rho
            - 2.0 * np.einsum("ak,kxy->axy", w, np.stack(bundle.derivatives)))


def _best_pair(K):
    """Best outcome pair (i, j), i < j, and its value without the P term.

    The value (Tr K_i + Tr K_j + ||K_i - K_j||_1) / 2 is sum_a Tr[K_a N_a]
    for the best noise on that pair.  All pair trace norms come from one
    batched eigvalsh over the stacked differences; ties go to the lowest
    pair.
    """
    E = K.shape[0]
    if E < 2:
        raise SingularFisherError("sigma_lower needs at least two kept outcomes")
    i, j = np.triu_indices(E, 1)
    traces = np.real(np.einsum("aii->a", K))
    norms = _trace_norms(K[i] - K[j])
    values = 0.5 * (traces[i] + traces[j] + norms)
    p = int(np.argmax(values))
    return (int(i[p]), int(j[p])), float(values[p])


def sigma_lower(bundle: FisherBundle):
    """Certified lower bound on Sigma[M], maximized over outcome pairs.

    Returns ``(Sigma_L, best_pair)`` with outcome indices of the
    maximizing pair (ties broken toward the lowest indices).
    """
    reduced = bundle.on_support[1]
    (i, j), value = _best_pair(_k_operators(reduced))
    kept = reduced.kept_outcomes
    return reduced.n_params + value, (kept[i], kept[j])


# ---------------------------------------------------------------------------
# Fisher-diagonalizing frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalizedFrame:
    """The parametrization that diagonalizes F.

    ``jacobian`` J is orthogonal with F~ = J F J^T diagonal; rows are the
    new parameter directions, so the scores are l~_a = J l_a and the
    derivatives d~_k rho = sum_j J_kj d_j rho.
    """

    jacobian: np.ndarray           # (P, P)
    tilde_fisher: np.ndarray       # (P,) diagonal entries, descending
    tilde_scores: np.ndarray       # (E_kept, P)


def _canonical_diagonalizer(F):
    """Deterministic orthogonal J with J F J^T diagonal (descending).

    Within clusters of (nearly) degenerate eigenvalues the eigenbasis
    returned by ``eigh`` is arbitrary and unstable; each cluster basis is
    replaced by the orthonormalized projections of the best-aligned
    coordinate axes, which is deterministic, stable under tiny
    perturbations, and reduces to the identity when F is proportional
    to it.  Column signs are fixed by making the largest component
    positive.
    """
    w, V = np.linalg.eigh(np.asarray(F, dtype=float))
    w, V = w[::-1].copy(), V[:, ::-1].copy()
    scale = max(float(np.max(np.abs(w))), 1e-300)
    clusters, start = [], 0
    for i in range(1, len(w)):
        if abs(w[i] - w[i - 1]) > CLUSTER_RTOL * scale:
            clusters.append(range(start, i))
            start = i
    clusters.append(range(start, len(w)))
    for idx in clusters:
        idx = list(idx)
        if len(idx) < 2:
            continue
        C = V[:, idx]
        proj = C @ C.T
        order = np.argsort(-np.diag(proj), kind="stable")
        axes = sorted(order[:len(idx)])
        U, _, Wt = np.linalg.svd(proj[:, axes], full_matrices=False)
        V[:, idx] = U @ Wt
    for c in range(V.shape[1]):
        lead = int(np.argmax(np.abs(V[:, c])))
        if V[lead, c] < 0:
            V[:, c] = -V[:, c]
    J = V.T
    return J, np.diag(J @ F @ J.T).copy()


def diagonalize_frame(bundle: FisherBundle) -> DiagonalizedFrame:
    """Transform a Fisher bundle into the F-diagonalizing parametrization."""
    bundle.fisher_inverse                # fail early when F is singular
    J, fdiag = _canonical_diagonalizer(bundle.fisher)
    return DiagonalizedFrame(jacobian=J, tilde_fisher=fdiag, tilde_scores=bundle.scores @ J.T)


def sigma_upper(bundle: FisherBundle):
    """Upper bound Sigma_U = sum_k sigma_k and the per-parameter terms.

    sigma_k is `sigma_single` of parameter k in the frame that diagonalizes
    F, so only the extremal operators A~_{n_k;kk} and A~_{m_k;kk} are
    formed, with n_k, m_k the outcomes of maximal and minimal score l~_k;
    one batched eigvalsh serves all k.
    """
    reduced = bundle.on_support[1]
    frame = diagonalize_frame(reduced)
    s = frame.tilde_scores
    k = np.arange(s.shape[1])
    n, m = np.argmax(s, axis=0), np.argmin(s, axis=0)
    tilde_derivs = np.einsum("jk,kxy->jxy", frame.jacobian, np.stack(reduced.derivatives))
    l = np.stack([s[n, k], s[m, k]])[:, :, None, None]
    A = l ** 2 * reduced.rho - 2.0 * l * tilde_derivs    # A~_{n_k;kk}, A~_{m_k;kk}
    tn = _trace_norms(A[0] - A[1])
    sigmas = 1.0 + (s[n, k] ** 2 + s[m, k] ** 2 + tn) / (2.0 * frame.tilde_fisher)
    return float(np.sum(sigmas)), tuple(float(x) for x in sigmas)


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
    noise: Povm


def _sym(X):
    return 0.5 * (X + X.conj().swapaxes(-1, -2))


def _max_step(X, dX):
    """Largest alpha <= 1 keeping the (E, r, r) stack X + alpha dX PSD."""
    Li = np.linalg.inv(np.linalg.cholesky(X))
    low = float(np.min(np.linalg.eigvalsh(Li @ dX @ Li.conj().swapaxes(-1, -2))))
    return 1.0 if low >= -1.0 else -1.0 / low


def _exact_sdp(K, lam):
    """Interior-point solve of max sum_a Tr[K_a N_a] over POVMs N.

    HKM direction, Mehrotra predictor-corrector (Todd, Toh & Tutuncu, SIAM
    J. Optim. 8, 769, 1998), from the feasible N_a = I/E and
    Y = (max lambda(K) + max(1, max|lambda(K)|)) I, with S_a = Y - K_a.  dY
    solves sum_a sym(N_a dY S_a^-1) = rhs in Kronecker form (r^2 x r^2).
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
            Si = _sym(np.linalg.inv(S))
            H = np.einsum("aij,alk->ikjl", N, Si) + np.einsum("aij,alk->ikjl", Si, N)
            H = H.reshape(r * r, r * r)      # twice the map dY -> sum_a sym(N_a dY S_a^-1)

            def newton(target, C):
                rhs = target * np.sum(Si, axis=0) - eye - np.sum(_sym(C), axis=0)
                dY = _sym(np.linalg.solve(H, 2.0 * rhs.reshape(-1)).reshape(r, r))
                dN = _sym(target * Si - N - N @ dY @ Si - C)
                return dN, dY, _max_step(N, dN), _max_step(S, dY)

            dN, dY, ap, ad = newton(0.0, np.zeros_like(N))
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
    K_c exceeds its Y by more than CERTIFICATE_RTOL max|lambda(K)|; else
    `_exact_sdp` runs, its N is clipped to PSD and mapped to R^-1/2 N R^-1/2
    (R = sum N), and the value is the larger of that primal and Sigma_L.
    The noise is V N_a V^dag, plus I - V V^dag on b.  Raises
    `SingularFisherError` below two kept outcomes.
    """
    V, reduced = bundle.on_support
    K = _k_operators(reduced)
    (a, b), pair_value = _best_pair(K)
    P, r = reduced.n_params, K.shape[1]
    w, U = np.linalg.eigh(K[a] - K[b])
    pos = U[:, w > POSITIVE_PART_RTOL * np.max(np.abs(w))]
    N = np.zeros_like(K)
    N[a] = pos @ pos.conj().T
    N[b] = np.eye(r) - N[a]
    Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
    lam = np.linalg.eigvalsh(K)
    shift = np.max(np.linalg.eigvalsh(K - Y)[:, -1])
    value, iterations = P + pair_value, 0
    certified = bool(shift <= CERTIFICATE_RTOL * np.max(np.abs(lam)))
    if not certified:
        M, Y, iterations = _exact_sdp(K, lam)
        w, U = np.linalg.eigh(M)
        M = (U * np.maximum(w, 0.0)[:, None, :]) @ U.conj().swapaxes(-1, -2)
        w, U = np.linalg.eigh(np.sum(M, axis=0))
        R = (U / np.sqrt(w)) @ U.conj().T
        M = R @ M @ R
        primal = P + float(np.einsum("axy,ayx->", K, M).real)
        if primal > value:
            N, value = M, primal
        shift = np.max(np.linalg.eigvalsh(K - Y)[:, -1])
    dual = P + float(np.trace(Y).real + r * shift)
    kept, dim = list(reduced.kept_outcomes), bundle.rho.shape[0]
    elements = np.zeros((len(bundle.probabilities), dim, dim), dtype=complex)
    elements[kept] = N if V is None else V @ N @ V.conj().T
    if V is not None:
        elements[kept[b]] += np.eye(dim) - V @ V.conj().T
    return ExactWorstCase(value=value, exact_gap=dual - value, iterations=iterations,
                          pair_certified=certified, noise=Povm(elements))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SusceptibilityReport:
    """Bounds on the measurement-noise susceptibility at one point (rho(theta), M)."""

    sigma_lower: float
    sigma_upper: float
    per_parameter_sigmas: tuple
    best_pair: tuple
    diagnostics: dict = None


def susceptibility_report(bundle: FisherBundle):
    """Both bounds, evaluated on the bundle restricted to its support."""
    reduced = bundle.on_support[1]
    lower, pair = sigma_lower(bundle)
    upper, sigmas = sigma_upper(bundle)
    diagnostics = {
        "condition_number_fisher": reduced.fisher_condition,
        "kept_outcomes": reduced.kept_outcomes,
        "support_rank": reduced.rho.shape[0],
    }
    return SusceptibilityReport(sigma_lower=lower, sigma_upper=upper,
                                per_parameter_sigmas=sigmas, best_pair=pair,
                                diagnostics=diagnostics)
