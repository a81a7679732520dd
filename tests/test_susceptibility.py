from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fisusc.susceptibility as susceptibility
from fisusc.fisher import SingularFisherError, _eigen_slds, fisher_bundle
from fisusc.linalg import trace_norm
from fisusc.model import Povm, StatisticalModel, tensor_model, validate_povm
from fisusc.models import (PointSourceConfig, bell_povm,
                           optimal_povm_point_sources, point_source_model,
                           qubit_phase_dephasing, separable_povm, x_opt)
from fisusc.susceptibility import (_best_pair, _canonical_diagonalizer,
                                   _exact_sdp, _k_operators, g_matrix,
                                   sigma_exact, sigma_lower, sigma_single,
                                   sigma_upper, x_finite_mix, x_scalar,
                                   xi_matrix)
from fisusc.verify import _reparametrized_bundle as reparametrized_bundle
from fisusc.verify import x_from_extremal_sum

IDENTITY_NOISE = Povm([np.eye(2) / 4.0] * 4)


def phase_only_model(delta):
    def state_fn(v):
        e = np.exp(-1j * v[0] - delta)
        return 0.5 * np.array([[1.0, e], [np.conj(e), 1.0]])

    def deriv_fn(v):
        e = np.exp(-1j * v[0] - delta)
        return [0.5 * np.array([[0.0, -1j * e], [np.conj(-1j * e), 0.0]])]

    return StatisticalModel(2, ("phi",), state_fn, derivative_fn=deriv_fn)


def qubit_bundle(theta=(np.pi / 4, 0.3)):
    model = qubit_phase_dephasing()
    return model, np.asarray(theta, dtype=float), fisher_bundle(
        model, np.asarray(theta, dtype=float), separable_povm())


def dense_bundle(bundle, model, theta):
    """The bundle on the model's own d x d operators in place of its support:
    the full-space reference that the support-restricted values must match."""
    return replace(bundle, support=(np.eye(model.dim), model.state_at(theta),
                                    tuple(model.derivatives_at(theta))))


def a_tensor(bundle):
    """The paper's A_{a;jk} = l_j l_k rho - l_j d_k rho - l_k d_j rho.

    A (E_kept, P, P, d, d) reference array: the package never forms it.
    """
    l = bundle.scores
    derivs = np.stack(bundle.derivatives)
    return (np.einsum("aj,ak,xy->ajkxy", l, l, bundle.rho)
            - np.einsum("aj,kxy->ajkxy", l, derivs)
            - np.einsum("ak,jxy->ajkxy", l, derivs))


def g_from_a_tensor(bundle, noise):
    """G[N]_{jk} = sum_a Tr[A_{a;jk} N_a], for noise on the kept outcomes only."""
    elements = noise.elements[list(bundle.kept_outcomes)]
    return np.real(np.einsum("ajkxy,ayx->jk", a_tensor(bundle), elements))


def tilde_a_diag(bundle):
    """F~, l~ = J l and the diagonal kernels A~_{a;kk} = l~_{a,k}^2 rho - 2 l~_{a,k} d~_k rho.

    An (E_kept, P, d, d) reference stack on the full space; `sigma_upper`
    reads the kernel at C_k = J_k J_k^T / F~_kk instead, K_a(C_k) = A~_{a;kk} / F~_kk.
    """
    J, f = _canonical_diagonalizer(bundle)
    s = bundle.scores @ J.T
    tilde_derivs = np.einsum("jk,kxy->jxy", J, np.stack(bundle.derivatives))
    l = s[:, :, None, None]
    return f, s, l ** 2 * bundle.rho - 2.0 * l * tilde_derivs


def sigma_upper_reference(bundle):
    """Sigma_U and the sigma_k, one `trace_norm` per parameter of the full stack."""
    f, s, A = tilde_a_diag(bundle)
    sigmas = []
    for k in range(len(f)):
        n, m = np.argmax(s[:, k]), np.argmin(s[:, k])
        tn = trace_norm(A[n, k] - A[m, k])
        sigmas.append(1.0 + (s[n, k] ** 2 + s[m, k] ** 2 + tn) / (2.0 * f[k]))
    return sum(sigmas), sigmas


def split_variant(bundle):
    """The pair bound with its trace norm taken per parameter in the F-diagonal frame.

    The max over pairs of P + (|L_a|^2 + |L_b|^2) / 2 plus
    sum_k ||A~_{a;kk} - A~_{b;kk}||_1 / (2 F~_kk); the pair bound takes one
    trace norm of the sum over k, ||K_a - K_b||_1 / 2.
    """
    f, s, A = tilde_a_diag(bundle)
    i, j = np.triu_indices(len(A), 1)
    L2 = np.sum(s ** 2 / f, axis=1)
    norms = np.sum(np.abs(np.linalg.eigvalsh(A[i] - A[j])), axis=-1)   # (pairs, P)
    return float(np.max(f.size + 0.5 * (L2[i] + L2[j]) + np.sum(norms / (2.0 * f), axis=1)))


def random_noise(rng, povm, kept):
    """Random full-rank noise POVM on the ``kept`` outcomes of ``povm``, zero elsewhere."""
    dim = povm.dim
    raws = []
    for _ in kept:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raws.append(z @ z.conj().T)
    w, V = np.linalg.eigh(sum(raws))
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    elements = [np.zeros((dim, dim), dtype=complex) for _ in range(len(povm))]
    for a, R in zip(kept, raws):
        elements[a] = inv_sqrt @ R @ inv_sqrt
    return Povm(elements)


def reparametrized_model(model, T):
    """Wrapping model in the parameters u = T theta."""
    Tinv = np.linalg.inv(T)

    def derivative_fn(u):
        derivs = np.stack(model.derivatives_at(Tinv @ u))
        return list(np.einsum("kj,kxy->jxy", Tinv, derivs))

    return StatisticalModel(model.dim, tuple(f"u{j}" for j in range(len(T))),
                            lambda u: model.state_at(Tinv @ u),
                            derivative_fn=derivative_fn,
                            domain_fn=lambda u: model.in_domain(Tinv @ u))


def instances(seed, n):
    """n random points of each shipped (model, theta, measurement) triple."""
    rng = np.random.default_rng(seed)
    qubit = qubit_phase_dephasing()
    double = tensor_model(qubit, 2)
    out = []
    for _ in range(n):
        theta = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 1.5)])
        out.append((qubit, theta, separable_povm()))
        out.append((double, theta, bell_povm()))
        theta = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.05, 1.0),
                          rng.uniform(0.1, 0.9)])
        cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
        out.append((point_source_model(cfg), theta, optimal_povm_point_sources(cfg)))
    return out


# ---------------------------------------------------------------------------
# A tensor and G matrix
# ---------------------------------------------------------------------------

def test_a_tensor_single_parameter_form():
    model = phase_only_model(0.3)
    theta = np.array([0.9])
    bundle = fisher_bundle(model, theta, separable_povm())
    at = a_tensor(bundle)
    rho, drho = bundle.rho, bundle.derivatives[0]
    for i, _ in enumerate(bundle.kept_outcomes):
        l = bundle.scores[i, 0]
        np.testing.assert_allclose(at[i, 0, 0],
                                   l * l * rho - 2.0 * l * drho, atol=1e-14)


def test_a_tensor_symmetry_and_hermiticity():
    _, _, bundle = qubit_bundle()
    ops = a_tensor(bundle)
    np.testing.assert_allclose(ops, ops.transpose(0, 2, 1, 3, 4), atol=1e-14)
    np.testing.assert_allclose(ops, ops.conj().transpose(0, 1, 2, 4, 3), atol=1e-14)


def test_a_tensor_zero_for_zero_scores():
    # an outcome proportional to the identity has all scores zero
    model = qubit_phase_dephasing()
    povm = Povm([np.eye(2) / 2.0, separable_povm().elements[0] / 2.0 + np.eye(2) / 8.0,
                 separable_povm().elements[1] / 2.0 + np.eye(2) / 8.0])
    bundle = fisher_bundle(model, [0.6, 0.4], povm)
    at = a_tensor(bundle)
    assert np.max(np.abs(bundle.scores[0])) <= 1e-12
    np.testing.assert_allclose(at[0], 0.0, atol=1e-12)


def test_a_tensor_contraction_identity():
    # sum_a Tr[A_{a;jk} M_a] = -F_{jk}
    _, _, bundle = qubit_bundle()
    at = a_tensor(bundle)
    P = bundle.n_params
    total = np.zeros((P, P))
    for i, a in enumerate(bundle.kept_outcomes):
        total += np.real(np.einsum("jkxy,yx->jk", at[i],
                                   separable_povm().elements[a]))
    np.testing.assert_allclose(total, -bundle.fisher, atol=1e-10)


def test_g_matrix_self_noise_is_minus_fisher():
    _, _, bundle = qubit_bundle()
    G = g_matrix(bundle, separable_povm())
    np.testing.assert_allclose(G, -bundle.fisher, atol=1e-12)


def test_g_matrix_identity_noise_expansion():
    # for N_a = c_a I the derivative terms drop (traceless) and
    # G_{jk} = sum_a c_a l_{a,j} l_{a,k}
    _, _, bundle = qubit_bundle()
    G = g_matrix(bundle, IDENTITY_NOISE)
    expected = np.zeros((2, 2))
    for i in range(len(bundle.kept_outcomes)):
        # c_a = Tr[rho N_a] = 1/4 for every outcome
        expected += 0.25 * np.outer(bundle.scores[i], bundle.scores[i])
    np.testing.assert_allclose(G, expected, atol=1e-12)


def test_g_matrix_p1_two_outcome_matches_scalar():
    model = phase_only_model(0.2)
    theta = np.array([1.2])
    s2 = np.sqrt(2.0)
    kets = [np.array([1.0, 1.0]) / s2, np.array([1.0, -1.0]) / s2]
    target = Povm([np.outer(k, k.conj()) for k in kets])
    noise = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    bundle = fisher_bundle(model, theta, target)
    G = g_matrix(bundle, noise)
    rho, drho = bundle.rho, bundle.derivatives[0]
    scalar = 0.0
    for i, a in enumerate(bundle.kept_outcomes):
        l = bundle.scores[i, 0]
        A = l * l * rho - 2.0 * l * drho
        scalar += float(np.real(np.trace(A @ noise.elements[a])))
    assert G[0, 0] == pytest.approx(scalar, abs=1e-14)


def test_g_matrix_rejects_noise_on_dropped_outcome():
    def state_fn(v):
        return np.diag([1.0, 0.0])

    def deriv_fn(v):
        return [np.array([[0.0, 1.0], [1.0, 0.0]])]

    model = StatisticalModel(2, ("t",), state_fn, derivative_fn=deriv_fn)
    target = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    bundle = fisher_bundle(model, [0.0], target)
    noise = Povm([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
    for response in (g_matrix, xi_matrix, x_scalar):
        with pytest.raises(ValueError):
            response(bundle, noise)


@pytest.mark.parametrize("model, theta, povm", instances(14, 1))
def test_g_matrix_contracts_the_a_tensor(model, theta, povm):
    # G, Xi and X of a random noise POVM against the literal A tensor
    bundle = fisher_bundle(model, theta, povm)
    noise = random_noise(np.random.default_rng(14), povm, bundle.kept_outcomes)
    expected = g_from_a_tensor(dense_bundle(bundle, model, theta), noise)
    scale = np.max(np.abs(expected))
    G = g_matrix(bundle, noise)
    np.testing.assert_allclose(G, expected, rtol=0, atol=1e-12 * scale)
    assert np.array_equal(G, G.T)
    Finv = np.linalg.inv(bundle.fisher)
    xi = np.eye(bundle.n_params) + Finv @ expected
    np.testing.assert_allclose(xi_matrix(bundle, noise), xi, rtol=1e-10, atol=1e-10)
    assert x_scalar(bundle, noise) == pytest.approx(float(np.trace(xi)), rel=1e-10)


# ---------------------------------------------------------------------------
# Xi and X
# ---------------------------------------------------------------------------

def test_xi_matrix_cases():
    _, _, bundle = qubit_bundle()
    Xi_self = xi_matrix(bundle, separable_povm())
    np.testing.assert_allclose(Xi_self, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(xi_matrix(bundle, IDENTITY_NOISE),
                               np.eye(2) + np.linalg.inv(bundle.fisher)
                               @ g_matrix(bundle, IDENTITY_NOISE), atol=1e-14)


def test_x_scalar_equals_trace_of_xi():
    _, _, bundle = qubit_bundle()
    x = x_scalar(bundle, IDENTITY_NOISE)
    assert x == pytest.approx(float(np.trace(xi_matrix(bundle, IDENTITY_NOISE))),
                              abs=1e-10)


def test_x_scalar_self_noise_zero():
    _, _, bundle = qubit_bundle()
    assert abs(x_scalar(bundle, separable_povm())) <= 1e-9


def test_x_scalar_finite_eps_oracle():
    model, theta, bundle = qubit_bundle((np.pi / 4, 0.2))
    x = x_scalar(bundle, IDENTITY_NOISE)
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        x_eps = x_finite_mix(model, theta, separable_povm(), IDENTITY_NOISE, eps)
        errors.append(abs(x_eps - x))
    # linear decay: error / eps stays bounded and roughly constant
    ratios = [e / eps for e, eps in zip(errors, (1e-2, 1e-3, 1e-4))]
    assert max(ratios) / min(ratios) < 1.5
    assert errors[2] < errors[1] < errors[0]


@pytest.mark.parametrize("eps", [0.0, -1e-3])
def test_x_finite_mix_refuses_a_non_positive_eps(eps, monkeypatch):
    # the quotient divides by eps; it is refused before any bundle is built
    monkeypatch.setattr(susceptibility, "fisher_bundle", None)
    with pytest.raises(ValueError, match="eps > 0"):
        x_finite_mix(qubit_phase_dephasing(), np.array([0.7, 0.3]), separable_povm(),
                     IDENTITY_NOISE, eps)


def test_x_scalar_p1_equals_chi():
    model = phase_only_model(0.25)
    theta = np.array([0.9])
    bundle = fisher_bundle(model, theta, separable_povm())
    noise = IDENTITY_NOISE
    G = g_matrix(bundle, noise)
    chi = 1.0 + G[0, 0] / bundle.fisher[0, 0]
    assert x_scalar(bundle, noise) == pytest.approx(chi, abs=1e-12)


def test_x_reparametrization_invariance():
    _, _, bundle = qubit_bundle((0.9, 0.4))
    x0 = x_scalar(bundle, IDENTITY_NOISE)
    rng = np.random.default_rng(4)
    for _ in range(5):
        J = rng.standard_normal((2, 2))
        while abs(np.linalg.det(J)) < 0.2:
            J = rng.standard_normal((2, 2))
        x1 = x_scalar(reparametrized_bundle(bundle, J), IDENTITY_NOISE)
        assert x1 == pytest.approx(x0, abs=1e-8)


def test_x_outcome_permutation_invariance():
    model = qubit_phase_dephasing()
    theta = [0.6, 0.25]
    target, noise = separable_povm(), IDENTITY_NOISE
    perm = [2, 0, 3, 1]
    target_p = Povm([target.elements[i] for i in perm])
    noise_p = Povm([noise.elements[i] for i in perm])
    b0 = fisher_bundle(model, theta, target)
    b1 = fisher_bundle(model, theta, target_p)
    x0 = x_scalar(b0, noise)
    x1 = x_scalar(b1, noise_p)
    assert x1 == pytest.approx(x0, abs=1e-10)
    assert sigma_lower(b0)[0] == pytest.approx(sigma_lower(b1)[0], abs=1e-9)
    assert sigma_upper(b0)[0] == pytest.approx(sigma_upper(b1)[0], abs=1e-9)


def test_x_zero_padding_invariance():
    _, _, bundle = qubit_bundle((0.6, 0.25))
    padded = Povm(list(IDENTITY_NOISE.elements) + [np.zeros((2, 2))] * 3)
    x0 = x_scalar(bundle, IDENTITY_NOISE)
    x1 = x_scalar(bundle, padded)
    assert x0 == x1


def test_x_convexity_identity_third_path():
    # the route holds in any frame that diagonalizes F, so also at the
    # degenerate F of (pi/4, 0.1), where eigh's basis is arbitrary; white
    # noise has Tr[d rho N_a] = 0, so a random noise exercises delta_a
    noise = random_noise(np.random.default_rng(3), separable_povm(), range(4))
    for theta in ((1.0, 0.35), (np.pi / 4, 0.1)):
        bundle = qubit_bundle(theta)[2]
        for n in (IDENTITY_NOISE, noise):
            assert x_from_extremal_sum(bundle, n) == pytest.approx(x_scalar(bundle, n), abs=1e-9)


# ---------------------------------------------------------------------------
# sigma_single
# ---------------------------------------------------------------------------

def test_sigma_single_symmetric_two_outcome():
    # two-outcome measurement with l_1 = -l_2 = l: direct substitution gives
    # sigma = 1 + (l^2 + 2 |l| ||drho||_1) / F; for this instance sigma = 4
    c = 0.4

    def state_fn(v):
        return 0.5 * np.eye(2) + v[0] * c * np.array([[0.0, 1.0], [1.0, 0.0]])

    def deriv_fn(v):
        return [c * np.array([[0.0, 1.0], [1.0, 0.0]])]

    model = StatisticalModel(2, ("t",), state_fn, derivative_fn=deriv_fn,
                             domain_fn=lambda v: abs(v[0] * c) < 0.5)
    povm = Povm([0.5 * (np.eye(2) + np.array([[0.0, 1.0], [1.0, 0.0]])),
                 0.5 * (np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]]))])
    theta = np.array([0.0])
    bundle = fisher_bundle(model, theta, povm)
    l = bundle.scores[:, 0]
    assert l[0] == pytest.approx(-l[1], abs=1e-14)
    F = bundle.fisher[0, 0]
    expected = 1.0 + (l[0] ** 2 + 2 * abs(l[0]) * trace_norm(bundle.derivatives[0])) / F
    sig = sigma_single(bundle)
    assert sig == pytest.approx(expected, abs=1e-12)
    assert sig == pytest.approx(4.0, abs=1e-12)


def test_sigma_single_requires_single_parameter():
    model = qubit_phase_dephasing()
    with pytest.raises(ValueError):
        sigma_single(fisher_bundle(model, [0.3, 0.2], separable_povm()))


def test_sigma_single_zero_information_errors():
    model = phase_only_model(0.3)
    povm = Povm([np.eye(2) / 2.0, np.eye(2) / 2.0])
    with pytest.raises(SingularFisherError):
        sigma_single(fisher_bundle(model, [0.7], povm))


def test_sigma_exact_equals_sigma_single_at_one_parameter():
    # the closed form is the worst case at P = 1, so the certified value
    # matches it within the gap, on the target measurement of the former
    # cross-check and on random single-parameter qubit points
    rng = np.random.default_rng(12)
    s2 = np.sqrt(2.0)
    kets = [np.array([1.0, 1.0]) / s2, np.array([1.0, -1.0]) / s2]
    points = [(phase_only_model(0.3), np.pi / 2 - 0.05,
               Povm([np.outer(k, k.conj()) for k in kets]))]
    points += [(phase_only_model(rng.uniform(0.05, 1.5)), rng.uniform(0, 2 * np.pi),
                random_povm(rng, 2, int(rng.integers(2, 6)))) for _ in range(30)]
    for model, phi, povm in points:
        bundle = fisher_bundle(model, np.array([phi]), povm)
        sig, exact = sigma_single(bundle), sigma_exact(bundle)
        assert abs(exact.value - sig) <= exact.exact_gap + 1e-12 * sig
        assert exact.exact_gap <= 1e-8 * exact.value
        assert validate_povm(exact.noise, 1e-12).passed
        assert x_scalar(bundle, exact.noise) == pytest.approx(exact.value, rel=1e-10)


# ---------------------------------------------------------------------------
# Diagonalizing frame
# ---------------------------------------------------------------------------

def test_frame_diagonal_fisher_gives_signed_permutation():
    model = qubit_phase_dephasing()
    theta = [np.pi / 4, 0.2]
    double = tensor_model(model, 2)
    bundle = fisher_bundle(double, theta, bell_povm())
    # F is diagonal and non-degenerate here
    assert abs(bundle.fisher[0, 1]) <= 1e-12
    J, f = _canonical_diagonalizer(bundle)
    np.testing.assert_allclose(np.abs(J) @ np.abs(J).T, np.eye(2), atol=1e-10)
    assert np.all(np.isin(np.round(np.abs(J), 6), [0.0, 1.0]))
    np.testing.assert_allclose(np.sort(f),
                               np.sort(np.diag(bundle.fisher)), atol=1e-12)


def test_frame_degenerate_fisher_is_identity_aligned():
    # at phi = pi/4 the separable-POVM Fisher matrix is proportional to the
    # identity; the canonical frame must resolve the degeneracy to J = I
    _, _, bundle = qubit_bundle((np.pi / 4, 0.1))
    J, _ = _canonical_diagonalizer(bundle)
    np.testing.assert_allclose(J, np.eye(2), atol=1e-10)


def loop_diagonalizer(bundle):
    """`_canonical_diagonalizer`'s J with its clusters and column signs
    found one index at a time: the reference for the vectorized steps."""
    w, V = bundle.fisher_eigh
    w, V = w[::-1].copy(), V[:, ::-1].copy()
    scale = max(float(np.max(np.abs(w))), 1e-300)
    clusters, start = [], 0
    for i in range(1, len(w)):
        if abs(w[i] - w[i - 1]) > susceptibility.CLUSTER_RTOL * scale:
            clusters.append(list(range(start, i)))
            start = i
    clusters.append(list(range(start, len(w))))
    for idx in clusters:
        if len(idx) > 1:
            proj = V[:, idx] @ V[:, idx].T
            axes = sorted(np.argsort(-np.diag(proj), kind="stable")[:len(idx)])
            U, _, Wt = np.linalg.svd(proj[:, axes], full_matrices=False)
            V[:, idx] = U @ Wt
    for c in range(V.shape[1]):
        if V[int(np.argmax(np.abs(V[:, c]))), c] < 0:
            V[:, c] = -V[:, c]
    return V.T


@pytest.mark.parametrize("kind, theta", [
    ("separable", (np.pi / 4, 0.1)),             # F proportional to I: one cluster
    ("separable", (0.8, 0.45)),
    ("bell", (np.pi / 4, 0.2)),
    ("bell", (0.3, 0.05)),
    ("point-sources", (0.0, 0.05, 0.3)),
    ("point-sources", (0.2, 0.4, 0.8)),
    ("point-sources", (-0.5, 1.0, 0.5)),
])
def test_frame_matches_the_loop_reference_bit_for_bit(kind, theta):
    theta = np.asarray(theta)
    if kind == "point-sources":
        cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
        model, povm = point_source_model(cfg), optimal_povm_point_sources(cfg)
    elif kind == "bell":
        model, povm = tensor_model(qubit_phase_dephasing(), 2), bell_povm()
    else:
        model, povm = qubit_phase_dephasing(), separable_povm()
    bundle = fisher_bundle(model, theta, povm)
    J, f = _canonical_diagonalizer(bundle)
    reference = loop_diagonalizer(bundle)
    assert J.tobytes() == reference.tobytes()
    assert f.tobytes() == np.diag(reference @ bundle.fisher @ reference.T).tobytes()


def test_frame_trace_identity_random_instance():
    _, _, bundle = qubit_bundle((0.8, 0.45))
    J, f = _canonical_diagonalizer(bundle)
    F = bundle.fisher
    Ft = J @ F @ J.T
    off = Ft - np.diag(np.diag(Ft))
    assert np.max(np.abs(off)) <= 1e-9
    G = g_matrix(bundle, IDENTITY_NOISE)
    Gt = J @ G @ J.T
    lhs = float(np.trace(np.linalg.inv(F) @ G))
    rhs = float(np.sum(np.diag(Gt) / f))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_frame_x_invariance():
    _, _, bundle = qubit_bundle((0.8, 0.45))
    J, _ = _canonical_diagonalizer(bundle)
    x_orig = x_scalar(bundle, IDENTITY_NOISE)
    x_tilde = x_scalar(reparametrized_bundle(bundle, J), IDENTITY_NOISE)
    assert x_tilde == pytest.approx(x_orig, abs=1e-9)


def test_frame_requires_invertible_fisher():
    # dx = 0 makes the q-derivative vanish, so F is singular
    theta = np.array([0.0, 0.0, 0.5])
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    model = point_source_model(cfg)
    bundle = fisher_bundle(model, theta, optimal_povm_point_sources(cfg))
    with pytest.raises(SingularFisherError):
        sigma_upper(bundle)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_p1_collapse():
    model = phase_only_model(0.3)
    bundle = fisher_bundle(model, np.array([1.1]), separable_povm())
    sig = sigma_single(bundle)
    lo, _ = sigma_lower(bundle)
    up, sigmas = sigma_upper(bundle)
    assert lo == pytest.approx(sig, abs=1e-10)
    assert up == pytest.approx(sig, abs=1e-10)
    assert len(sigmas) == 1


def test_sigma_lower_tie_break_deterministic():
    # duplicated elements make pairs (0, 2) and (1, 2) exactly equivalent;
    # the lowest-index pair must win
    model = phase_only_model(0.25)
    plus = 0.5 * (np.eye(2) + np.array([[0.0, 1.0], [1.0, 0.0]]))
    minus = np.eye(2) - plus
    bundle = fisher_bundle(model, np.array([0.7]), Povm([plus / 2.0, plus / 2.0, minus]))
    lo, pair = sigma_lower(bundle)
    assert pair == (0, 2)
    sig = sigma_single(bundle)
    assert lo == pytest.approx(sig, abs=1e-12)


def test_bounds_order_and_oracle_sandwich_qubit():
    _, _, bundle = qubit_bundle((np.pi / 4, 0.3))
    lo, pair = sigma_lower(bundle)
    up, sigmas = sigma_upper(bundle)
    assert lo <= up + 1e-8
    assert up == pytest.approx(sum(sigmas), abs=1e-12)
    exact = sigma_exact(bundle)
    assert lo <= exact.value <= up + exact.exact_gap
    assert exact.exact_gap <= 1e-8 * exact.value
    assert pair == (1, 3)


def test_sigma_lower_needs_two_outcomes():
    model = qubit_phase_dephasing()
    for worst_case in (sigma_lower, sigma_exact):
        with pytest.raises(SingularFisherError):
            worst_case(fisher_bundle(model, [0.4, 0.3], Povm([np.eye(2)])))


def test_sigma_upper_point_source_gap_small_at_q03():
    theta = np.array([0.0, 0.2, 0.3])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    bundle = fisher_bundle(point_source_model(cfg), theta, optimal_povm_point_sources(cfg))
    lo, _ = sigma_lower(bundle)
    up, _ = sigma_upper(bundle)
    assert (up - lo) / up < 0.01


def test_per_parameter_sigmas_at_least_one():
    # self-noise leaves F unchanged and the maximum only adds on top, so
    # every single-parameter worst case is >= 1
    instances = []
    model = qubit_phase_dephasing()
    instances.append((model, np.array([np.pi / 4, 0.3]), separable_povm()))
    theta = np.array([0.0, 0.3, 0.3])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    instances.append((point_source_model(cfg), theta,
                      optimal_povm_point_sources(cfg)))
    for mod, th, povm in instances:
        _, sigmas = sigma_upper(fisher_bundle(mod, th, povm))
        assert all(s >= 1.0 - 1e-9 for s in sigmas)


def test_sigma_upper_bell_diverges_toward_zero_dephasing():
    model = tensor_model(qubit_phase_dephasing(), 2)
    up_002, _ = sigma_upper(fisher_bundle(model, [np.pi / 4, 0.02], bell_povm()))
    up_010, _ = sigma_upper(fisher_bundle(model, [np.pi / 4, 0.10], bell_povm()))
    assert up_002 > up_010


def test_sigma_lower_invariant_under_degenerate_rotation():
    # the certified pair bound is reparametrization invariant, so rotating
    # the degenerate eigenbasis must not change it; the per-parameter upper
    # bound is frame dependent but stays a valid upper bound
    # (the lower bound is evaluated on the bundle transformed into each frame)
    _, _, bundle = qubit_bundle((np.pi / 4, 0.1))
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    J0 = _canonical_diagonalizer(bundle)[0]
    J1 = R @ J0
    lo = sigma_lower(bundle)[0]
    for J in (J0, J1):
        _, value = _best_pair(_k_operators(reparametrized_bundle(bundle, J)))
        assert 2 + value == pytest.approx(lo, abs=1e-9)
    # F is proportional to I here, so the canonical frame of the rotated
    # bundle is the rotated frame
    up0, _ = sigma_upper(bundle)
    up1, _ = sigma_upper(reparametrized_bundle(bundle, J1))
    exact = sigma_exact(bundle)
    assert up0 >= exact.value
    assert up1 >= exact.value
    # frame dependence of the upper bound is real; the canonical frame is
    # the deterministic choice (here it is tighter)
    assert up1 > up0 + 1.0


def test_oracle_superset_and_determinism():
    # the exact worst case dominates every fixed noise, is attained by its
    # own noise, and repeats bit for bit on a fresh bundle
    model, theta, bundle = qubit_bundle((0.9, 0.35))
    first = sigma_exact(bundle)
    again = sigma_exact(fisher_bundle(model, theta, separable_povm()))
    assert first.value == again.value and first.exact_gap == again.exact_gap
    assert np.array_equal(first.noise.elements, again.noise.elements)
    rng = np.random.default_rng(42)
    for noise in [IDENTITY_NOISE] + [random_noise(rng, separable_povm(), range(4))
                                     for _ in range(20)]:
        assert first.value >= x_scalar(bundle, noise)
    assert x_scalar(bundle, first.noise) == pytest.approx(first.value, rel=1e-12)


def _bell_instance():
    model = tensor_model(qubit_phase_dephasing(), 2)
    return fisher_bundle(model, [np.pi / 4, 0.1], bell_povm())


def test_report_flags_split_variant_on_bell_instance():
    # moving the parameter sum of the pair bound outside the trace norm
    # overshoots: on the two-copy Bell instance the split variant (26.804)
    # exceeds the certified worst case (24.574), so it is not a lower bound
    bundle = _bell_instance()
    split = split_variant(bundle)
    # X[M, N] <= P + Tr Y whenever Y >= K_c for every kept c: take the pair
    # certificate Y = K_b + (K_a - K_b)_+ of the best pair, shifted by its
    # largest violation
    K = _k_operators(bundle)
    (a, b), _ = _best_pair(K)
    w, U = np.linalg.eigh(K[a] - K[b])
    Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
    shift = max(np.linalg.eigvalsh(Kc - Y)[-1] for Kc in K)
    dual = bundle.n_params + np.trace(Y).real + len(Y) * shift      # 24.72
    lower, upper = sigma_lower(bundle)[0], sigma_upper(bundle)[0]
    exact = sigma_exact(bundle)
    assert lower < exact.value <= exact.value + exact.exact_gap <= dual
    assert exact.value == pytest.approx(24.573798, rel=1e-6)
    assert lower + 2.0 < split < upper
    assert split > exact.value + exact.exact_gap + 2.0


def test_split_diagnostic_is_computed_when_read():
    # no bound or bundle carries the split variant; it is computed only
    # when asked for, from the frame of the bundle
    bundle = _bell_instance()
    assert not hasattr(bundle, "sigma_lower_split")
    assert split_variant(bundle) == pytest.approx(26.80416466489899, rel=1e-9)


@pytest.mark.parametrize("model, delta, expected", [
    (qubit_phase_dephasing(), 0.1, 15.749135),
    (tensor_model(qubit_phase_dephasing(), 2), 0.1, 24.573798),
    (tensor_model(qubit_phase_dephasing(), 2), 0.5, 11.054079),
])
def test_exact_worst_case_pinned_on_qubit_rows(model, delta, expected):
    # all three lie strictly above the pair bound (Sigma_L = 15.743558,
    # 24.431321 and 10.417846), so the interior-point path sets them
    povm = separable_povm() if model.dim == 2 else bell_povm()
    bundle = fisher_bundle(model, [np.pi / 4, delta], povm)
    exact = sigma_exact(bundle)
    assert exact.value == pytest.approx(expected, rel=1e-6)
    assert not exact.pair_certified and exact.iterations > 0
    assert exact.value > sigma_lower(bundle)[0] * (1.0 + 1e-4)
    assert exact.exact_gap <= 1e-8 * exact.value


def _count_linalg_calls(monkeypatch):
    calls = dict.fromkeys(("cholesky", "inv", "eigvalsh", "solve"), 0)
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_interior_point_factors_each_iterate_once(monkeypatch):
    # one Cholesky of the stacked [N; S] and its inverse serve the step
    # lengths of both Newton steps, one inv(S) the Newton system, and each
    # step reads both step lengths off one eigvalsh: 7 LAPACK calls per
    # iteration, none of them repeated on an unchanged matrix
    K = _bell_instance().k_operators
    lam = np.linalg.eigvalsh(K)
    calls = _count_linalg_calls(monkeypatch)
    _, _, iterations = _exact_sdp(K, lam)
    assert iterations >= 5
    assert calls == {"cholesky": iterations, "inv": 2 * iterations,
                     "eigvalsh": 2 * iterations, "solve": 2 * iterations}


@pytest.mark.parametrize("k", [0, 1, 4])
def test_failed_cholesky_returns_the_iterate_it_factored(monkeypatch, k):
    # a LinAlgError from the Cholesky of iteration k is a stall: the solve
    # returns (N_k, Y_k, k), the iterate the first k steps reached
    K = _bell_instance().k_operators
    lam = np.linalg.eigvalsh(K)
    monkeypatch.setattr(susceptibility, "MAX_ITERATIONS", k)
    N_k, Y_k, stopped = _exact_sdp(K, lam)
    assert stopped == k
    monkeypatch.undo()
    real, stacks = np.linalg.cholesky, []

    def failing(X):
        stacks.append(X.shape)
        if len(stacks) > k:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(X)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    N, Y, stopped = _exact_sdp(K, lam)
    assert stopped == k and np.array_equal(N, N_k) and np.array_equal(Y, Y_k)
    assert stacks == [(2 * len(K),) + K.shape[1:]] * (k + 1)


@pytest.mark.parametrize("dx, excess", [(0.3, 1.07e-6), (0.5, 7.9e-6), (1.0, 1.2e-4)])
def test_exact_excess_over_pair_bound_at_balanced_intensity(dx, excess):
    # at q = 1/2 the pair certificate fails and Sigma exceeds Sigma_L by a
    # small, certified margin
    theta = np.array([0.0, dx, 0.5])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    bundle = fisher_bundle(point_source_model(cfg), theta, optimal_povm_point_sources(cfg))
    lower, exact = sigma_lower(bundle)[0], sigma_exact(bundle)
    assert (exact.value - lower) / lower == pytest.approx(excess, rel=0.02)
    assert exact.exact_gap <= 1e-3 * (exact.value - lower)


def test_pair_certified_noise_pinned():
    # the pair certificate settles this point: the value is Sigma_L bit for
    # bit and the noise is the best-pair projector noise, pinned
    theta = [0.1, 0.2, 0.3]
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    bundle = fisher_bundle(point_source_model(cfg), theta, optimal_povm_point_sources(cfg))
    exact = sigma_exact(bundle)
    assert exact.pair_certified and exact.iterations == 0
    assert exact.value == sigma_lower(bundle)[0]
    assert exact.value == pytest.approx(1049533.2673416492, rel=1e-9)
    assert 0.0 <= exact.exact_gap <= 1e-12 * exact.value
    # the noise sits on outcomes (1, 4): the projector onto the positive
    # part of K_1 - K_4 (rank <= 4), which has rank 2, and its complement
    noise = exact.noise
    assert [float(np.max(np.abs(E))) > 0 for E in noise.elements] == [
        False, True, False, False, True]
    np.testing.assert_allclose(noise.elements[1] + noise.elements[4],
                               np.eye(cfg.n_max + 1), atol=1e-12)
    w = np.linalg.eigvalsh(noise.elements[1])
    assert np.sum(w > 0.5) == 2
    np.testing.assert_allclose(w, np.round(w), atol=1e-12)


def _cache_instances():
    theta = [0.1, 0.2, 0.3]
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    model = tensor_model(qubit_phase_dephasing(), 2)
    return [
        lambda: fisher_bundle(point_source_model(cfg), theta,
                              optimal_povm_point_sources(cfg)),     # pair-certified
        lambda: fisher_bundle(model, [np.pi / 4, 0.1], bell_povm()),   # interior point
    ]


@pytest.mark.parametrize("fresh_bundle", _cache_instances(),
                         ids=["pair-certified", "interior-point"])
def test_shared_kernel_and_lazy_noise_change_no_value(fresh_bundle):
    # Sigma_L and the exact worst case read one cached K and best pair;
    # either order of evaluation gives the same bits
    first = fresh_bundle()
    exact_first, bounds_first = sigma_exact(first), (sigma_lower(first), sigma_upper(first))
    second = fresh_bundle()
    bounds_second, exact_second = (sigma_lower(second), sigma_upper(second)), sigma_exact(second)
    assert exact_first.value == exact_second.value
    assert exact_first.exact_gap == exact_second.exact_gap
    assert bounds_first == bounds_second
    assert first.k_operators is first.k_operators
    np.testing.assert_array_equal(first.k_operators, _k_operators(first))
    assert first.best_pair == _best_pair(_k_operators(first))
    # the noise is lifted when first read, once
    assert "noise" not in vars(exact_first)
    noise = exact_first.noise
    assert exact_first.noise is noise
    N, V, kept, b, _ = exact_first._lift
    assert b == first.best_pair[0][1]
    dim = first.rho.shape[0]
    eager = np.zeros((len(first.probabilities), dim, dim), dtype=complex)
    eager[kept] = V @ N @ V.conj().T
    eager[kept[b]] += np.eye(dim) - V @ V.conj().T
    np.testing.assert_array_equal(noise.elements, Povm(eager).elements)
    assert x_scalar(first, noise) == pytest.approx(exact_first.value, rel=1e-9)


def test_report_qubit_instance_no_flag():
    bundle = qubit_bundle()[2]
    lower, pair = sigma_lower(bundle)
    assert pair == (1, 3)
    assert sigma_exact(bundle).value == lower     # pair-certified


# ---------------------------------------------------------------------------
# K operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, theta, povm", instances(11, 2))
def test_k_operators_contract_the_a_tensor(model, theta, povm):
    # K lives on the support: V K V^dag is the contraction of the full-space A
    bundle = fisher_bundle(model, theta, povm)
    Finv = np.linalg.inv(bundle.fisher)
    K = _k_operators(bundle)
    V = bundle.support[0]
    assert K.shape[1] == V.shape[1]
    expected = np.einsum("jk,ajkxy->axy", Finv, a_tensor(dense_bundle(bundle, model, theta)))
    scale = np.max(np.abs(expected))
    lifted = V @ K @ V.conj().T
    np.testing.assert_allclose(lifted, expected, rtol=0, atol=1e-12 * scale)
    L2 = np.einsum("aj,jk,ak->a", bundle.scores, Finv, bundle.scores)
    np.testing.assert_allclose(np.real(np.einsum("aii->a", K)), L2,
                               rtol=1e-12, atol=1e-12 * scale)


def frame_instances():
    """Separable, Bell and point-source points (n_max 20 and 48)."""
    qubit = qubit_phase_dephasing()
    out = [(qubit, np.array(t), separable_povm()) for t in ((np.pi / 4, 0.3), (1.1, 0.05))]
    out += [(tensor_model(qubit, 2), np.array(t), bell_povm())
            for t in ((np.pi / 4, 0.1), (0.3, 0.7))]
    for theta, n_max in (((0.0, 0.3, 0.3), 20), ((0.1, 0.05, 0.15), 20),
                         ((0.0, 0.5, 0.5), 48), ((0.0, 1.0, 0.7), 48)):
        cfg = PointSourceConfig(n_max=n_max, x_m=x_opt(*theta))
        out.append((point_source_model(cfg), np.array(theta), optimal_povm_point_sources(cfg)))
    return out


@pytest.mark.parametrize("model, theta, povm", frame_instances())
def test_frame_kernels_sum_to_the_cached_kernel(model, theta, povm):
    # the frame terms C_k = J_k J_k^T / F~_kk of Sigma_U sum to F^-1 and K is
    # linear in C, so sum_k K(C_k) is the cached K; Sigma_U read from the
    # K(C_k) equals the reference built from the full-space A~ operators
    bundle = fisher_bundle(model, theta, povm)
    J, f = _canonical_diagonalizer(bundle)
    C = J[:, :, None] * J[:, None, :] / f[:, None, None]
    K = bundle.k_operators
    np.testing.assert_allclose(np.sum(_k_operators(bundle, C), axis=0), K,
                               rtol=0, atol=1e-10 * np.max(np.abs(K)))
    upper, sigmas = sigma_upper(bundle)
    reference, reference_sigmas = sigma_upper_reference(bundle)
    assert upper == pytest.approx(reference, rel=1e-12)
    np.testing.assert_allclose(sigmas, reference_sigmas, rtol=1e-12)
    assert sigma_lower(bundle)[0] <= upper


@pytest.mark.parametrize("model, theta, povm", instances(12, 3))
def test_sigma_lower_attained_by_explicit_pair_noise(model, theta, povm):
    # the best-pair noise N*, built from the A tensor alone, gives
    # X[M, N*] = Sigma_L through the G-matrix route
    bundle = fisher_bundle(model, theta, povm)
    dense = dense_bundle(bundle, model, theta)
    lo, (a, b) = sigma_lower(bundle)
    Finv = np.linalg.inv(bundle.fisher)
    K = np.einsum("jk,ajkxy->axy", Finv, a_tensor(dense))
    index_of = {o: i for i, o in enumerate(bundle.kept_outcomes)}
    w, V = np.linalg.eigh(K[index_of[a]] - K[index_of[b]])
    pos = V[:, w > 0]
    B = pos @ pos.conj().T
    elements = [np.zeros((povm.dim, povm.dim), dtype=complex) for _ in range(len(povm))]
    elements[a], elements[b] = B, np.eye(povm.dim) - B
    noise = Povm(elements)
    x = model.n_params + float(np.trace(Finv @ g_from_a_tensor(dense, noise)))
    assert x == pytest.approx(lo, rel=1e-9)
    assert x_scalar(bundle, noise) == pytest.approx(lo, rel=1e-9)


@pytest.mark.parametrize("model, theta, povm", instances(13, 1))
def test_sigma_lower_invariant_under_badly_scaled_reparametrization(model, theta, povm):
    P = model.n_params
    T = np.diag(np.geomspace(1e2, 1e-2, P)) @ (np.eye(P) + 0.5 * np.eye(P, k=1))
    wrapped = reparametrized_model(model, T)
    lo0, pair0 = sigma_lower(fisher_bundle(model, theta, povm))
    lo1, pair1 = sigma_lower(fisher_bundle(wrapped, T @ theta, povm))
    assert lo1 == pytest.approx(lo0, rel=1e-9)
    assert pair1 == pair0


# ---------------------------------------------------------------------------
# Restriction to the joint support of rho and its derivatives
# ---------------------------------------------------------------------------

def embedded_family(rng, k, m, d, P):
    """Rank-m family V sigma(theta) V^dag in d dimensions, V a random (d, k)
    isometry.

    sigma = A A^dag / Tr[A A^dag] with the k x m matrix A = A_0 + sum_j theta_j A_j
    has rank m for every theta near 0, and sigma and its derivatives have a
    joint range of dimension min(k, m (P + 1)).  Derivatives are analytic.
    """
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A0 = np.eye(k, m) + 0.3 * cplx(k, m)
    As = 0.5 * cplx(P, k, m)
    V = np.linalg.qr(cplx(d, k))[0]

    def parts(theta):
        A = A0 + np.einsum("j,jxy->xy", theta, As)
        M = A @ A.conj().T
        t = np.real(np.trace(M))
        dM = As @ A.conj().T + A @ As.conj().swapaxes(-1, -2)
        dt = np.real(np.einsum("jxx->j", dM))
        return M / t, dM / t - np.einsum("j,xy->jxy", dt, M) / t ** 2

    model = StatisticalModel(
        d, tuple(f"t{j}" for j in range(P)),
        lambda theta: V @ parts(theta)[0] @ V.conj().T,
        derivative_fn=lambda theta: list(V @ parts(theta)[1] @ V.conj().T))
    return model, np.zeros(P)


def random_povm(rng, d, n_outcomes):
    G = [B @ B.conj().T for B in (rng.standard_normal((n_outcomes, d, d))
                                  + 1j * rng.standard_normal((n_outcomes, d, d)))]
    w, U = np.linalg.eigh(sum(G))
    S = (U / np.sqrt(w)) @ U.conj().T
    return Povm([S @ g @ S for g in G])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 5), rank=st.integers(1, 5),
       extra=st.integers(1, 4), P=st.integers(1, 3), more_outcomes=st.integers(0, 2))
def test_support_reduction_matches_full_dimension(seed, k, rank, extra, P, more_outcomes):
    # the state has rank m <= k; its derivatives fill the rest of the
    # embedded k dimensions when m (P + 1) >= k
    m = min(rank, k)
    assume(m * (P + 1) >= k)
    rng = np.random.default_rng(seed)
    d = k + extra
    model, theta = embedded_family(rng, k, m, d, P)
    povm = random_povm(rng, d, P + 2 + more_outcomes)
    bundle = fisher_bundle(model, theta, povm)
    assume(np.linalg.cond(bundle.fisher) < 1e6)
    V, rho, derivs = bundle.support
    assert V.shape == (d, k)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(k), atol=1e-12)
    assert bundle.support[1].shape[0] == k
    # full-dimensional evaluation of the same quantities
    dense = dense_bundle(bundle, model, theta)
    Q_full = _eigen_slds(dense.rho, dense.derivatives)[2]
    Q_red = _eigen_slds(rho, derivs)[2]
    np.testing.assert_allclose(Q_red, Q_full, rtol=0, atol=1e-10 * np.max(np.abs(Q_full)))
    lower = bundle.n_params + _best_pair(_k_operators(dense))[1]
    upper, sigmas = sigma_upper_reference(dense)
    assert sigma_lower(bundle)[0] == pytest.approx(lower, rel=1e-10)
    assert sigma_upper(bundle)[0] == pytest.approx(upper, rel=1e-10)
    np.testing.assert_allclose(sigma_upper(bundle)[1], sigmas, rtol=1e-10)


@pytest.mark.parametrize("model, theta, povm", instances(12, 1))
def test_exact_noise_attains_its_value(model, theta, povm):
    # the noise is lifted from the support to the full space; X of that
    # full-space POVM is the reported value
    bundle = fisher_bundle(model, theta, povm)
    exact = sigma_exact(bundle)
    assert exact.noise.dim == povm.dim and len(exact.noise) == len(povm)
    assert validate_povm(exact.noise, 1e-12).passed
    assert x_scalar(bundle, exact.noise) == pytest.approx(exact.value, rel=1e-10)
    assert sigma_lower(bundle)[0] <= exact.value <= sigma_upper(bundle)[0] + exact.exact_gap


@pytest.mark.parametrize("model, theta, povm", instances(13, 2))
def test_no_sample_beats_the_pair_bound(model, theta, povm):
    # Tr[(K_a - K_b) B] <= Tr[(K_a - K_b)_+] for 0 <= B <= I: on every pair
    # the exact two-outcome optimum, bounded from above by a feasible dual
    # point of the two-outcome SDP, stays at or below Sigma_L
    bundle = fisher_bundle(model, theta, povm)
    K = _k_operators(bundle)
    lower = bundle.n_params + _best_pair(K)[1]
    for a, b in zip(*np.triu_indices(len(K), 1)):
        pair = K[[a, b]]
        _, Y, _ = _exact_sdp(pair, np.linalg.eigvalsh(pair))
        Y = Y + np.max(np.linalg.eigvalsh(pair - Y)[:, -1]) * np.eye(len(Y))
        assert bundle.n_params + np.trace(Y).real <= lower * (1.0 + 1e-8)
    assert sigma_exact(bundle).value >= lower


@pytest.mark.parametrize("model, theta, povm", instances(15, 2))
def test_exact_certificates_are_feasible(model, theta, povm):
    # primal: the noise is a POVM to 1e-12; dual: the shifted interior-point
    # Y dominates every K_a to 1e-12 and gives the reported upper end
    bundle = fisher_bundle(model, theta, povm)
    K = _k_operators(bundle)
    exact = sigma_exact(bundle)
    assert validate_povm(exact.noise, 1e-12).passed
    lam = np.linalg.eigvalsh(K)
    scale = np.max(np.abs(lam))
    if exact.pair_certified:
        (a, b), _ = _best_pair(K)
        w, U = np.linalg.eigh(K[a] - K[b])
        Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
    else:
        Y = _exact_sdp(K, lam)[1]
    Y = Y + np.max(np.linalg.eigvalsh(K - Y)[:, -1]) * np.eye(len(Y))
    assert np.min(np.linalg.eigvalsh(Y - K)) >= -1e-12 * scale
    dual = bundle.n_params + np.trace(Y).real
    assert dual == pytest.approx(exact.value + exact.exact_gap, rel=1e-12)
    assert 0.0 <= exact.exact_gap <= 1e-8 * exact.value


def test_pair_certified_gap_is_rounding_and_never_negative():
    # on the pair-certified path the dual P + Tr Y + r shift and the value
    # P + Sigma_L are one number up to rounding; the reported gap clamps the
    # difference at 0 (instance 5 of this set lands one ulp below)
    certified = 0
    for model, theta, povm in instances(15, 2):
        bundle = fisher_bundle(model, theta, povm)
        exact = sigma_exact(bundle)
        if not exact.pair_certified:
            continue
        certified += 1
        K = bundle.k_operators
        (a, b), _ = bundle.best_pair
        w, U = np.linalg.eigh(K[a] - K[b])
        Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
        shift = np.max(np.linalg.eigvalsh(K - Y)[:, -1])
        dual = bundle.n_params + float(np.trace(Y).real + len(Y) * shift)
        assert abs(dual - exact.value) <= 1e-14 * exact.value
        assert exact.exact_gap == max(dual - exact.value, 0.0)
    assert certified >= 2


def test_point_source_pipeline_stays_real_and_qubits_stay_complex():
    theta = [0.1, 0.2, 0.3]
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    povm = optimal_povm_point_sources(cfg)
    points = [(point_source_model(cfg), theta, povm, np.float64),
              (qubit_phase_dephasing(), [np.pi / 4, 0.3], separable_povm(), np.complex128),
              (tensor_model(qubit_phase_dephasing(), 2), [np.pi / 4, 0.3], bell_povm(),
               np.complex128)]
    for model, th, measurement, dtype in points:
        bundle = fisher_bundle(model, th, measurement)
        _, rho, derivs = bundle.support
        operators = [bundle.rho, *bundle.derivatives, rho, *derivs,
                     bundle.k_operators, sigma_exact(bundle).noise.elements]
        assert [X.dtype for X in operators] == [dtype] * len(operators)
    assert povm.elements.dtype == np.float64
    # the Bell projectors are real; the separable ones (y axis) are not
    assert bell_povm().elements.dtype == np.float64
    assert separable_povm().elements.dtype == np.complex128


def test_pair_indices_are_built_once_per_outcome_count():
    pairs = susceptibility._pair_indices(5)
    assert susceptibility._pair_indices(5) is pairs
    np.testing.assert_array_equal(pairs, np.triu_indices(5, 1))
    i, j = pairs
    assert not i.flags.writeable and not j.flags.writeable


def certified_points():
    """Pair-certified points: point sources off and near balance, the
    separable qubit at delta = 0.4, and the certified random instances."""
    points = []
    for x_c, dx, q in ((0.0, 0.1, 0.3), (0.0, 0.06, 0.1), (0.0, 0.6, 0.49),
                       (0.0, 0.2, 0.499), (0.2, 0.5, 0.4)):
        theta = np.array([x_c, dx, q])
        cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
        points.append((point_source_model(cfg), theta, optimal_povm_point_sources(cfg)))
    points.append((qubit_phase_dephasing(), np.array([np.pi / 4, 0.4]), separable_povm()))
    return points + instances(16, 3)


def test_pair_certificate_never_claims_exactness_where_the_sdp_finds_more(monkeypatch):
    # where the pair certificate holds, the interior-point method run on
    # the same point finds nothing above Sigma_L
    certified = []
    for model, theta, povm in certified_points():
        bundle = fisher_bundle(model, theta, povm)
        exact = sigma_exact(bundle)
        if exact.pair_certified:
            certified.append((bundle, exact.value))
    assert len(certified) >= 8
    monkeypatch.setattr(susceptibility, "CERTIFICATE_RTOL", -np.inf)
    for bundle, value in certified:
        solved = sigma_exact(bundle)
        assert not solved.pair_certified and solved.iterations > 0
        assert value <= solved.value <= value * (1.0 + 1e-9)
        assert solved.value + solved.exact_gap >= value


def test_full_rank_bundle_is_its_own_support():
    model, theta, bundle = qubit_bundle()
    V, rho, derivs = bundle.support
    assert np.array_equal(V, np.eye(2)) and bundle.support[1] is model.state_at(theta)
    # lifting through the exact identity changes no bit
    assert np.array_equal(bundle.rho, rho)
    assert np.array_equal(np.stack(bundle.derivatives), np.stack(derivs))
    assert bundle.support[1].shape[0] == 2


def test_point_source_bundle_holds_its_rank_four_support():
    theta = [0.1, 0.2, 0.3]
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    model = point_source_model(cfg)
    bundle = fisher_bundle(model, theta, optimal_povm_point_sources(cfg))
    V, rho, derivs = bundle.support
    assert V.shape == (21, 4) and rho.shape == (4, 4) and len(derivs) == 3
    assert bundle.dim == 21 and not hasattr(bundle, "frame")
    # the lifted operators reproduce the model's dense ones
    dense = (model.state_at(theta), *model.derivatives_at(theta))
    for X, Xr, lifted in zip(dense, (rho,) + derivs, (bundle.rho,) + bundle.derivatives):
        atol = 1e-14 * np.max(np.abs(X))
        np.testing.assert_allclose(V @ Xr @ V.conj().T, X, rtol=0, atol=atol)
        np.testing.assert_allclose(lifted, X, rtol=0, atol=atol)
