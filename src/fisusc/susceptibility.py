"""Noise susceptibility of Fisher information.

Mixing a target POVM M with a noise POVM N as (1 - eps) M + eps N
changes the Fisher matrix at first order in eps.  This module computes:

* the response to a fixed noise, read from the point's `FisherBundle`:
  the matrix susceptibility  Xi[M, N] = I + F^-1 G[N]  (`xi_matrix`) and
  its scalar trace  X[M, N] = P + tr[F^-1 G[N]]  (`x_scalar`),
* the single-parameter worst-case susceptibility sigma[M] (closed form),
* lower/upper bounds Sigma_L <= Sigma[M] = max_N X[M, N] <= Sigma_U,
* a sampled search over two-outcome noise POVMs.

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

Only ``Sigma_U = sum_j sigma_j`` depends on a frame: it sums
single-parameter worst cases in the parametrization that diagonalizes F
(`diagonalize_frame`).  Taking the pair bound's trace norm per parameter
in that frame (``report.sigma_lower_split``) is not a lower bound - it can
exceed the exact maximum - and is computed only as a diagnostic, when it
is read.

Every function takes the point's `FisherBundle` (`fisher_bundle`), so one
evaluation of state, derivatives and F serves them all; only
`x_finite_mix` takes the model, because it must evaluate the mixed POVM.
`susceptibility_report`, `sigma_lower`, `sigma_upper` and
`noise_search_oracle` work on the bundle restricted to the joint range of
rho and its derivatives (`FisherBundle.on_support`), which holds every K_a
and every A~ operator: trace norms, bounds and X are unchanged, and the
operators are r x r instead of d x d.  So ``report.frame`` holds its
operators in that support basis (``report.diagnostics["support_rank"]`` is
r); the returned noise POVMs act on the full space.  The sampled search
draws each Haar sample U only as the block V^dag U (r x d, r = 4 for point
sources, Gram-Schmidt of r Gaussian columns) and returns a winning noise
as its compression onto the support, which has the same X.  No sample
beats the pair bound, since Tr[(K_a - K_b) B] <= Tr[(K_a - K_b)_+] for
0 <= B <= I, so the search returns Sigma_L unless that inequality fails
numerically.  The fixed-noise functions `g_matrix`, `xi_matrix` and
`x_scalar` take a noise POVM on the bundle's space, and use the bundle's
checked F^-1.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fisher import (FisherBundle, SingularFisherError, _outcome_traces,
                     fisher_bundle)
from .linalg import _trace_norms
from .model import Povm, mix_povm

CLUSTER_RTOL = 1e-8
POSITIVE_PART_RTOL = 1e-12
NOISE_ON_DROPPED_TOL = 1e-12
SAMPLE_CHUNK = 64


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
    """Quantities in the parametrization that diagonalizes F.

    ``jacobian`` J is orthogonal with F~ = J F J^T diagonal; rows are the
    new parameter directions.  ``tilde_a_diag[a, k]`` is the diagonal
    kernel A~_{a;kk} = l~_{a,k}^2 rho - 2 l~_{a,k} d~_k rho, the part of
    the transformed A tensor the per-parameter bounds use.
    """

    jacobian: np.ndarray           # (P, P)
    tilde_fisher: np.ndarray       # (P,) diagonal entries, descending
    tilde_scores: np.ndarray       # (E_kept, P)
    tilde_a_diag: np.ndarray       # (E_kept, P, dim, dim)
    kept_outcomes: tuple


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
    tilde_derivs = np.einsum("jk,kxy->jxy", J, np.stack(bundle.derivatives))
    tilde_scores = bundle.scores @ J.T
    l = tilde_scores[:, :, None, None]
    tilde_a_diag = l ** 2 * bundle.rho - 2.0 * l * tilde_derivs
    return DiagonalizedFrame(jacobian=J, tilde_fisher=fdiag,
                             tilde_scores=tilde_scores, tilde_a_diag=tilde_a_diag,
                             kept_outcomes=bundle.kept_outcomes)


def _sigma_upper_from_frame(frame):
    """Sigma_U and the per-parameter sigma_k; one batched eigvalsh for all k."""
    s = frame.tilde_scores
    k = np.arange(s.shape[1])
    n, m = np.argmax(s, axis=0), np.argmin(s, axis=0)
    tn = _trace_norms(frame.tilde_a_diag[n, k] - frame.tilde_a_diag[m, k])
    sigmas = 1.0 + (s[n, k] ** 2 + s[m, k] ** 2 + tn) / (2.0 * frame.tilde_fisher)
    return float(np.sum(sigmas)), tuple(float(x) for x in sigmas)


def _sigma_lower_split(frame):
    """Pair bound with the trace norm taken per parameter (diagnostic only)."""
    f = frame.tilde_fisher
    i, j = np.triu_indices(len(frame.kept_outcomes), 1)
    L2 = np.sum(frame.tilde_scores ** 2 / f, axis=1)
    norms = _trace_norms(frame.tilde_a_diag[i] - frame.tilde_a_diag[j])    # (pairs, P)
    split = f.size + 0.5 * (L2[i] + L2[j]) + np.sum(norms / (2.0 * f), axis=1)
    return float(np.max(split))


def sigma_upper(bundle: FisherBundle):
    """Upper bound Sigma_U = sum_j sigma_j and the per-parameter terms."""
    return _sigma_upper_from_frame(diagonalize_frame(bundle.on_support[1]))


# ---------------------------------------------------------------------------
# Sampled search over noise POVMs
# ---------------------------------------------------------------------------

def _two_outcome_samples(rng, n, n_outcomes, dim, r):
    """Draw n random two-outcome noises, each given by its support block.

    Returns ``(a, b, W, u)``: ordered outcome pairs a != b, uniform over
    the ``n_outcomes (n_outcomes - 1)`` choices; W (n, r, dim) with
    orthonormal rows; u (n, dim) uniform in [0, 1].  For a Haar-random
    d x d unitary U and an isometry V (d, r), ``V^dag U`` has the law of
    W, so ``W diag(u) W^dag`` is ``V^dag B V`` for B = U diag(u) U^dag.
    W is the transposed Q factor of a complex Gaussian (dim, r) matrix
    (real and imaginary parts from one standard normal draw), with the
    phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 592,
    2007); at r = dim it is a Haar unitary.
    """
    a = rng.integers(n_outcomes, size=n)
    b = rng.integers(n_outcomes - 1, size=n)
    b += b >= a
    z = rng.standard_normal((n, dim, 2 * r)).view(complex)
    q, R = np.linalg.qr(z)
    phases = np.einsum("nii->ni", R)
    W = (q * (phases / np.abs(phases))[:, None, :]).transpose(0, 2, 1)
    return a, b, W, rng.uniform(0.0, 1.0, size=(n, dim))


def _materialize_noise(n_outcomes, dim, assignments):
    elements = [np.zeros((dim, dim), dtype=complex) for _ in range(n_outcomes)]
    for slot, op in assignments:
        elements[slot] = elements[slot] + op
    return Povm(elements, labels=[f"n{i}" for i in range(n_outcomes)])


def noise_search_oracle(bundle: FisherBundle, n_samples, seed):
    """Sampled maximization of X[M, N] over noise POVMs.

    Candidates:

    (a) the structured two-outcome noise on the best outcome pair of
        `sigma_lower`, with the first element the projector onto the
        positive part of K_a - K_b (it attains the certified pair bound,
        so ``best_X >= Sigma_L`` always), and
    (b) ``n_samples`` random two-outcome POVMs {B, I - B} with
        B = U diag(u) U^dag for Haar-random U and uniform u in [0, 1],
        placed on a random ordered pair of kept outcomes.  X reads B only
        through its compression onto the support V of the point, so only
        the r x d block W = V^dag U is drawn; a winning sample is returned
        as that compression, B = V W diag(u) W^dag V^dag, a valid element
        (0 <= B <= I) with the same X, and the Haar sample itself at full
        rank.  No sample can beat (a): Tr[(K_a - K_b) B] <= Tr[(K_a - K_b)_+].

    The samples come from one generator, ``np.random.default_rng(seed)``,
    drawn in chunks of ``SAMPLE_CHUNK``, so the result is fixed by the seed;
    the random stream also depends on ``SAMPLE_CHUNK``, a fixed constant.

    Returns ``(best_X, best_noise)`` where ``best_noise`` is a Povm
    aligned with the target's outcomes (zero elsewhere).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    V, reduced = bundle.on_support
    K = _k_operators(reduced)
    best_x, assignments = _noise_search(reduced, V, K, _best_pair(K), n_samples, seed)
    return best_x, _materialize_noise(len(bundle.probabilities), bundle.rho.shape[0],
                                      assignments)


def _noise_search(bundle, V, K, best, n_samples, seed):
    """Body of `noise_search_oracle` on a bundle restricted to its support.

    ``bundle`` and ``K`` are in the support basis ``V`` (None for the whole
    space) and ``best`` is `_best_pair(K)`.  Returns ``(best_X,
    assignments)``: the winning noise as (outcome, d x d element) pairs,
    lifted to the full space.  A random sample is drawn as its support
    block ``W = V^dag U`` (`_two_outcome_samples`) and scored as
    ``sum_k u_k w_k^dag D w_k``, so only a winning sample's B is built.
    """
    kept = bundle.kept_outcomes
    if len(kept) < 2:
        raise SingularFisherError("the noise search needs at least two kept outcomes")
    E = len(kept)
    dim = bundle.rho.shape[0] if V is None else V.shape[0]
    P = bundle.n_params
    traces = np.real(np.einsum("aii->a", K))
    eye = np.eye(dim, dtype=complex)

    # (a) structured candidate: the projector onto the positive part of
    # K_a - K_b; eigenvalues at rounding level are not part of it
    (a, b), value = best
    w, vecs = np.linalg.eigh(K[a] - K[b])
    pos = vecs[:, w > POSITIVE_PART_RTOL * np.max(np.abs(w))]
    if V is not None:
        pos = V @ pos
    B = pos @ pos.conj().T
    best_x = P + value
    best_assign = [(kept[a], B), (kept[b], eye - B)]

    # (b) random two-outcome samples from one generator, SAMPLE_CHUNK at a time
    rng = np.random.default_rng(seed)
    for start in range(0, n_samples, SAMPLE_CHUNK):
        a, b, W, u = _two_outcome_samples(rng, min(SAMPLE_CHUNK, n_samples - start),
                                          E, dim, K.shape[1])
        D = K[a] - K[b]
        xs = P + traces[b] + np.real(np.einsum("nk,nik,nik->n", u, W.conj(), D @ W))
        i = int(np.argmax(xs))
        if xs[i] > best_x:
            best_x = float(xs[i])
            B = (W[i] * u[i]) @ W[i].conj().T
            if V is not None:
                B = V @ B @ V.conj().T
            best_assign = [(kept[a[i]], B), (kept[b[i]], eye - B)]

    return float(best_x), best_assign


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SusceptibilityReport:
    """Bounds on the measurement-noise susceptibility at one point (rho(theta), M).

    ``sigma_lower_split`` (the per-parameter trace-norm variant of the
    pair bound, not a lower bound) is computed from ``frame`` when read.
    ``frame`` holds its operators in the support basis of the point
    (``diagnostics["support_rank"]`` = r).
    """

    sigma_lower: float
    sigma_upper: float
    per_parameter_sigmas: tuple
    best_pair: tuple
    frame: DiagonalizedFrame
    oracle_best: float = None
    diagnostics: dict = None

    @cached_property
    def sigma_lower_split(self):
        return _sigma_lower_split(self.frame)


def susceptibility_report(bundle: FisherBundle, oracle_samples=0, seed=0):
    """Full susceptibility analysis: bounds, frame, optional sampled search.

    Everything is evaluated on the bundle restricted to its support; the
    search shares the K operators and best pair of the lower bound.
    """
    V, reduced = bundle.on_support
    K = _k_operators(reduced)
    best = _best_pair(K)
    (i, j), value = best
    frame = diagonalize_frame(reduced)
    upper, sigmas = _sigma_upper_from_frame(frame)
    diagnostics = {
        "condition_number_fisher": reduced.fisher_condition,
        "kept_outcomes": reduced.kept_outcomes,
        "support_rank": reduced.rho.shape[0],
    }
    oracle_best = None
    if oracle_samples > 0:
        oracle_best = _noise_search(reduced, V, K, best, oracle_samples, seed)[0]
    kept = reduced.kept_outcomes
    return SusceptibilityReport(sigma_lower=reduced.n_params + value, sigma_upper=upper,
                                per_parameter_sigmas=sigmas,
                                best_pair=(kept[i], kept[j]), frame=frame,
                                oracle_best=oracle_best, diagnostics=diagnostics)
