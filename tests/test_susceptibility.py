import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fisusc.fisher import SingularFisherError, _slds, fisher_bundle
from fisusc.linalg import trace_norm
from fisusc.model import Povm, StatisticalModel, tensor_model, validate_povm
from fisusc.models import (PointSourceConfig, bell_povm,
                           optimal_povm_point_sources, point_source_model,
                           qubit_phase_dephasing, separable_povm, x_opt)
from fisusc.susceptibility import (SAMPLE_CHUNK, _best_pair, _k_operators,
                                   _materialize_noise, _noise_search,
                                   _sigma_lower_split,
                                   _sigma_upper_from_frame,
                                   _two_outcome_samples, diagonalize_frame,
                                   g_matrix, noise_search_oracle, sigma_lower,
                                   sigma_single, sigma_upper,
                                   susceptibility_report, x_finite_mix,
                                   x_scalar, xi_matrix)
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
    expected = g_from_a_tensor(bundle, noise)
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
    model, theta, bundle = qubit_bundle((1.0, 0.35))
    frame = diagonalize_frame(bundle)
    x_direct = x_scalar(bundle, IDENTITY_NOISE)
    x_convex = x_from_extremal_sum(bundle, frame, IDENTITY_NOISE)
    assert x_convex == pytest.approx(x_direct, abs=1e-9)


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


def test_sigma_single_monte_carlo_cross_check():
    # sampled noise never beats the closed form; the structured candidates
    # in the search attain it exactly
    model = phase_only_model(0.3)
    theta = np.array([np.pi / 2 - 0.05])
    s2 = np.sqrt(2.0)
    kets = [np.array([1.0, 1.0]) / s2, np.array([1.0, -1.0]) / s2]
    povm = Povm([np.outer(k, k.conj()) for k in kets])
    bundle = fisher_bundle(model, theta, povm)
    sig = sigma_single(bundle)
    best, best_noise = noise_search_oracle(bundle, n_samples=10000, seed=12)
    assert best <= sig + 1e-9
    assert (sig - best) / sig < 0.02
    # the returned noise is a valid POVM achieving the reported value
    assert validate_povm(best_noise, 1e-9).passed
    assert x_scalar(bundle, best_noise) == pytest.approx(best, abs=1e-9)


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
    frame = diagonalize_frame(bundle)
    J = frame.jacobian
    np.testing.assert_allclose(np.abs(J) @ np.abs(J).T, np.eye(2), atol=1e-10)
    assert np.all(np.isin(np.round(np.abs(J), 6), [0.0, 1.0]))
    np.testing.assert_allclose(np.sort(frame.tilde_fisher),
                               np.sort(np.diag(bundle.fisher)), atol=1e-12)


def test_frame_degenerate_fisher_is_identity_aligned():
    # at phi = pi/4 the separable-POVM Fisher matrix is proportional to the
    # identity; the canonical frame must resolve the degeneracy to J = I
    _, _, bundle = qubit_bundle((np.pi / 4, 0.1))
    frame = diagonalize_frame(bundle)
    np.testing.assert_allclose(frame.jacobian, np.eye(2), atol=1e-10)


def test_frame_trace_identity_random_instance():
    _, _, bundle = qubit_bundle((0.8, 0.45))
    frame = diagonalize_frame(bundle)
    F, J = bundle.fisher, frame.jacobian
    Ft = J @ F @ J.T
    off = Ft - np.diag(np.diag(Ft))
    assert np.max(np.abs(off)) <= 1e-9
    G = g_matrix(bundle, IDENTITY_NOISE)
    Gt = J @ G @ J.T
    lhs = float(np.trace(np.linalg.inv(F) @ G))
    rhs = float(np.sum(np.diag(Gt) / frame.tilde_fisher))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_frame_x_invariance():
    _, _, bundle = qubit_bundle((0.8, 0.45))
    frame = diagonalize_frame(bundle)
    x_orig = x_scalar(bundle, IDENTITY_NOISE)
    x_tilde = x_scalar(reparametrized_bundle(bundle, frame.jacobian), IDENTITY_NOISE)
    assert x_tilde == pytest.approx(x_orig, abs=1e-9)


def test_frame_requires_invertible_fisher():
    # dx = 0 makes the q-derivative vanish, so F is singular
    theta = np.array([0.0, 0.0, 0.5])
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    model = point_source_model(cfg)
    bundle = fisher_bundle(model, theta, optimal_povm_point_sources(cfg))
    with pytest.raises(SingularFisherError):
        diagonalize_frame(bundle)


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
    best, _ = noise_search_oracle(bundle, n_samples=10000, seed=5)
    assert lo - 1e-9 <= best <= up + 1e-9
    assert pair == (1, 3)


def test_sigma_lower_needs_two_outcomes():
    model = qubit_phase_dephasing()
    with pytest.raises((SingularFisherError, ValueError)):
        sigma_lower(fisher_bundle(model, [0.4, 0.3], Povm([np.eye(2)])))


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
    frame0 = diagonalize_frame(bundle)
    J1 = R @ frame0.jacobian
    # F is proportional to I here, so the canonical frame of the rotated
    # bundle is the rotated frame
    frame1 = diagonalize_frame(reparametrized_bundle(bundle, J1))
    lo = sigma_lower(bundle)[0]
    for J in (frame0.jacobian, J1):
        _, value = _best_pair(_k_operators(reparametrized_bundle(bundle, J)))
        assert 2 + value == pytest.approx(lo, abs=1e-9)
    up0, _ = _sigma_upper_from_frame(frame0)
    up1, _ = _sigma_upper_from_frame(frame1)
    best, _ = noise_search_oracle(bundle, n_samples=2000, seed=8)
    assert up0 >= best - 1e-9
    assert up1 >= best - 1e-9
    # frame dependence of the upper bound is real; the canonical frame is
    # the deterministic choice (here it is tighter)
    assert up1 > up0 + 1.0


def test_oracle_superset_and_determinism():
    model, theta, bundle = qubit_bundle((0.9, 0.35))
    best1, noise1 = noise_search_oracle(bundle, n_samples=3000, seed=42)
    best2, _ = noise_search_oracle(fisher_bundle(model, theta, separable_povm()),
                                   n_samples=3000, seed=42)
    assert best1 == best2
    # max over a superset dominates any fixed member
    assert best1 >= x_scalar(bundle, IDENTITY_NOISE) - 1e-12
    assert x_scalar(bundle, noise1) == pytest.approx(best1, abs=1e-9)


def test_report_flags_split_variant_on_bell_instance():
    # the per-parameter trace-norm variant sits more than 1 above Sigma_L on
    # the Bell instance, while the sampled search stays between the bounds
    model = tensor_model(qubit_phase_dephasing(), 2)
    theta = [np.pi / 4, 0.1]
    report = susceptibility_report(fisher_bundle(model, theta, bell_povm()),
                                   oracle_samples=4000, seed=2)
    assert report.sigma_lower_split > report.sigma_lower + 1.0
    assert report.sigma_lower - 1e-9 <= report.oracle_best <= report.sigma_upper + 1e-9


def test_split_diagnostic_is_computed_when_read():
    model = tensor_model(qubit_phase_dephasing(), 2)
    report = susceptibility_report(fisher_bundle(model, [np.pi / 4, 0.1], bell_povm()))
    assert "sigma_lower_split" not in vars(report)
    assert report.sigma_lower_split == pytest.approx(26.80416466489899, rel=1e-9)


def test_noise_search_pinned_for_fixed_seed():
    # no random sample beats the structured candidate, so the search
    # returns the best-pair projector noise; value and noise are pinned
    _, _, bundle = qubit_bundle((0.7, 0.3))
    best, noise = noise_search_oracle(bundle, n_samples=500, seed=4)
    assert best == pytest.approx(12.852474617660665, rel=1e-12)
    B = np.array([[0.5, 0.4057525380811081 + 0.2921726849668511j],
                  [0.4057525380811081 - 0.2921726849668511j, 0.5]])
    expected = [np.zeros((2, 2)), B, np.zeros((2, 2)), np.eye(2) - B]
    np.testing.assert_allclose(noise.elements, expected, rtol=0, atol=1e-12)
    theta = [0.1, 0.2, 0.3]
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    bundle = fisher_bundle(point_source_model(cfg), theta, optimal_povm_point_sources(cfg))
    best, noise = noise_search_oracle(bundle, n_samples=300, seed=9)
    assert best == pytest.approx(1049533.2673416492, rel=1e-9)
    # the noise sits on outcomes (1, 4): the projector onto the positive
    # part of K_1 - K_4 (rank <= 4), which has rank 2, and its complement
    assert [float(np.max(np.abs(E))) > 0 for E in noise.elements] == [
        False, True, False, False, True]
    np.testing.assert_allclose(noise.elements[1] + noise.elements[4],
                               np.eye(cfg.n_max + 1), atol=1e-12)
    w = np.linalg.eigvalsh(noise.elements[1])
    assert np.sum(w > 0.5) == 2
    np.testing.assert_allclose(w, np.round(w), atol=1e-12)


def test_report_qubit_instance_no_flag():
    report = susceptibility_report(qubit_bundle()[2], oracle_samples=2000, seed=3)
    assert report.best_pair == (1, 3)
    assert report.oracle_best == pytest.approx(report.sigma_lower, abs=1e-9)


# ---------------------------------------------------------------------------
# K operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, theta, povm", instances(11, 2))
def test_k_operators_contract_the_a_tensor(model, theta, povm):
    bundle = fisher_bundle(model, theta, povm)
    Finv = np.linalg.inv(bundle.fisher)
    K = _k_operators(bundle)
    expected = np.einsum("jk,ajkxy->axy", Finv, a_tensor(bundle))
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(K, expected, rtol=0, atol=1e-12 * scale)
    L2 = np.einsum("aj,jk,ak->a", bundle.scores, Finv, bundle.scores)
    np.testing.assert_allclose(np.real(np.einsum("aii->a", K)), L2,
                               rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("model, theta, povm", instances(12, 3))
def test_sigma_lower_attained_by_explicit_pair_noise(model, theta, povm):
    # the best-pair noise N*, built from the A tensor alone, gives
    # X[M, N*] = Sigma_L through the G-matrix route
    bundle = fisher_bundle(model, theta, povm)
    lo, (a, b) = sigma_lower(bundle)
    Finv = np.linalg.inv(bundle.fisher)
    K = np.einsum("jk,ajkxy->axy", Finv, a_tensor(bundle))
    index_of = {o: i for i, o in enumerate(bundle.kept_outcomes)}
    w, V = np.linalg.eigh(K[index_of[a]] - K[index_of[b]])
    pos = V[:, w > 0]
    B = pos @ pos.conj().T
    elements = [np.zeros((povm.dim, povm.dim), dtype=complex) for _ in range(len(povm))]
    elements[a], elements[b] = B, np.eye(povm.dim) - B
    noise = Povm(elements)
    x = model.n_params + float(np.trace(Finv @ g_from_a_tensor(bundle, noise)))
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
    V, reduced = bundle.on_support
    assert V.shape == (d, k)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(k), atol=1e-12)
    report = susceptibility_report(bundle)
    assert report.diagnostics["support_rank"] == k
    # full-dimensional evaluation of the same quantities
    Q_full = _slds(bundle.rho, bundle.derivatives)[1]
    Q_red = _slds(reduced.rho, reduced.derivatives)[1]
    np.testing.assert_allclose(Q_red, Q_full, rtol=0, atol=1e-10 * np.max(np.abs(Q_full)))
    frame = diagonalize_frame(bundle)
    lower = bundle.n_params + _best_pair(_k_operators(bundle))[1]
    upper, sigmas = _sigma_upper_from_frame(frame)
    assert report.sigma_lower == pytest.approx(lower, rel=1e-10)
    assert report.sigma_upper == pytest.approx(upper, rel=1e-10)
    np.testing.assert_allclose(report.per_parameter_sigmas, sigmas, rtol=1e-10)
    assert report.sigma_lower_split == pytest.approx(_sigma_lower_split(frame), rel=1e-10)


@pytest.mark.parametrize("model, theta, povm", instances(12, 1))
def test_sampled_noise_score_is_its_susceptibility(model, theta, povm):
    # with the structured candidate's value pushed below every sample, the
    # best random sample wins; its score, taken in the support basis, must
    # be X of the full-space noise it returns
    bundle = fisher_bundle(model, theta, povm)
    V, reduced = bundle.on_support
    K = _k_operators(reduced)
    (pair, _) = _best_pair(K)
    best_x, assignments = _noise_search(reduced, V, K, (pair, -np.inf), 40, seed=5)
    noise = _materialize_noise(len(povm), povm.dim, assignments)
    # the returned element is the sample's compression onto the support
    assert validate_povm(noise, 1e-9).passed
    x = x_scalar(bundle, noise)
    assert best_x == pytest.approx(x, rel=1e-9, abs=1e-9)
    assert best_x < bundle.n_params + _best_pair(K)[1]


@pytest.mark.parametrize("model, theta, povm", instances(13, 2))
def test_no_sample_beats_the_pair_bound(model, theta, povm):
    # Tr[(K_a - K_b) B] <= Tr[(K_a - K_b)_+] for 0 <= B <= I: with the
    # structured candidate pushed to -inf, the best of many samples still
    # stays at or below Sigma_L, so a searched sweep reports Sigma_L itself
    bundle = fisher_bundle(model, theta, povm)
    V, reduced = bundle.on_support
    K = _k_operators(reduced)
    pair, value = _best_pair(K)
    best_x, _ = _noise_search(reduced, V, K, (pair, -np.inf), 2000, seed=11)
    lower = bundle.n_params + value
    assert best_x <= lower * (1.0 + 1e-12)


def searched_points():
    """A point-source point (support r = 4 of d = 21) and a full-rank qubit point."""
    theta = np.array([0.1, 0.4, 0.3])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    out = []
    for model, theta, povm in ((point_source_model(cfg), theta,
                                optimal_povm_point_sources(cfg)),
                               (qubit_phase_dephasing(), [0.7, 0.3], separable_povm())):
        V, reduced = fisher_bundle(model, theta, povm).on_support
        out.append((V, reduced, _k_operators(reduced)))
    return out


@pytest.mark.parametrize("point", [0, 1])
@pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 250])
def test_chunked_search_returns_the_best_of_every_draw(point, n_samples):
    # replay the one generator chunk by chunk and score every draw on its
    # own; with the structured candidate at -inf the search must return the
    # best of them, so the running maximum holds across chunk boundaries
    V, reduced, K = searched_points()[point]
    best_x, assignments = _noise_search(reduced, V, K, (_best_pair(K)[0], -np.inf),
                                        n_samples, seed=23)
    rng = np.random.default_rng(23)
    E, r = K.shape[:2]
    dim = r if V is None else V.shape[0]
    draws = []
    for start in range(0, n_samples, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, n_samples - start)
        for a, b, W, u in zip(*_two_outcome_samples(rng, n, E, dim, r)):
            B = (W * u) @ W.conj().T
            x = reduced.n_params + np.real(np.trace(K[b]) + np.trace((K[a] - K[b]) @ B))
            draws.append((x, a, b, B))
    assert len(draws) == n_samples
    x, a, b, B = max(draws, key=lambda draw: draw[0])
    assert best_x == pytest.approx(x, rel=1e-10)
    kept = reduced.kept_outcomes
    assert [slot for slot, _ in assignments] == [kept[a], kept[b]]
    if V is not None:
        B = V @ B @ V.conj().T
    np.testing.assert_allclose(assignments[0][1], B, rtol=0, atol=1e-12)


def test_search_draws_from_one_generator_in_chunks(monkeypatch):
    calls = {"qr": 0, "generators": 0}
    qr, default_rng = np.linalg.qr, np.random.default_rng

    def counting_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def counting_rng(*args, **kwargs):
        calls["generators"] += 1
        return default_rng(*args, **kwargs)

    V, reduced, K = searched_points()[0]
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    _noise_search(reduced, V, K, _best_pair(K), 250, seed=3)
    # ceil(250 / SAMPLE_CHUNK) = 4 batched QRs, one per chunk
    assert SAMPLE_CHUNK == 64
    assert calls == {"qr": 4, "generators": 1}


@pytest.mark.parametrize("dim, r", [(21, 4), (4, 4)])
def test_two_outcome_samples_follow_the_haar_block_law(dim, r):
    n, n_outcomes = 4000, 5
    a, b, W, u = _two_outcome_samples(np.random.default_rng(17), n, n_outcomes, dim, r)
    assert W.shape == (n, r, dim) and u.shape == (n, dim)
    eye = np.broadcast_to(np.eye(r), (n, r, r))
    np.testing.assert_allclose(W @ W.conj().transpose(0, 2, 1), eye, rtol=0, atol=1e-12)
    w = np.linalg.eigvalsh((W * u[:, None, :]) @ W.conj().transpose(0, 2, 1))
    assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12
    # every entry of a Haar unitary has E|U_ij|^2 = 1/dim and mean 0
    np.testing.assert_allclose(np.mean(np.abs(W) ** 2, axis=0), 1.0 / dim, rtol=0.1)
    assert np.max(np.abs(np.mean(W, axis=0))) < 5.0 / np.sqrt(n * dim)
    # ordered pairs a != b, each about equally often
    assert not np.any(a == b)
    counts = np.zeros((n_outcomes, n_outcomes), dtype=int)
    np.add.at(counts, (a, b), 1)
    expected = n / (n_outcomes * (n_outcomes - 1))
    off = counts[~np.eye(n_outcomes, dtype=bool)]
    assert np.all(off > 0.75 * expected) and np.all(off < 1.25 * expected)


def test_full_rank_bundle_is_its_own_support():
    _, _, bundle = qubit_bundle()
    V, reduced = bundle.on_support
    assert V is None and reduced is bundle
    assert susceptibility_report(bundle).diagnostics["support_rank"] == 2


def test_reduced_bundle_shares_the_checked_fisher_inverse():
    theta = [0.1, 0.2, 0.3]
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    bundle = fisher_bundle(point_source_model(cfg), theta, optimal_povm_point_sources(cfg))
    V, reduced = bundle.on_support
    assert V.shape == (21, 4)
    assert reduced.fisher is bundle.fisher and reduced.scores is bundle.scores
    assert reduced.fisher_inverse is bundle.fisher_inverse
    # the lifted operators reproduce the full ones
    for X, Xr in zip((bundle.rho,) + bundle.derivatives,
                     (reduced.rho,) + reduced.derivatives):
        np.testing.assert_allclose(V @ Xr @ V.conj().T, X, rtol=0,
                                   atol=1e-14 * np.max(np.abs(X)))
