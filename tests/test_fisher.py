import warnings

import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from fisusc.fisher import (SingularFisherError, SingularScoreError,
                           _checked_inverse_and_eigh, _eigen_slds,
                           fisher_bundle, qfi_matrix, r_metric, r_nuisance, sld,
                           weak_commutativity)
from fisusc.model import Povm, StatisticalModel, tensor_model
from fisusc.models import (PointSourceConfig, bell_povm,
                           optimal_povm_point_sources, point_source_model,
                           qubit_phase_dephasing, separable_povm, x_opt)


def phase_only_model(delta):
    """Qubit phase model with the dephasing treated as known and fixed."""
    def state_fn(v):
        e = np.exp(-1j * v[0] - delta)
        return 0.5 * np.array([[1.0, e], [np.conj(e), 1.0]])

    def deriv_fn(v):
        e = np.exp(-1j * v[0] - delta)
        return [0.5 * np.array([[0.0, -1j * e], [np.conj(-1j * e), 0.0]])]

    return StatisticalModel(2, ("phi",), state_fn, derivative_fn=deriv_fn)


def probability_fd_fisher(model, theta, povm, h=1e-6):
    """Independent oracle: Fisher matrix from central differences of the
    outcome probabilities."""
    theta = np.asarray(theta, dtype=float)

    def probs(t):
        rho = model.state_at(t)
        return np.array([np.real(np.trace(rho @ E)) for E in povm.elements])

    p0 = probs(theta)
    grads = []
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grads.append((probs(up) - probs(dn)) / (2 * h))
    grads = np.array(grads)          # (P, E)
    F = np.zeros((theta.size, theta.size))
    for a in range(len(povm)):
        if p0[a] > 1e-14:
            F += np.outer(grads[:, a], grads[:, a]) / p0[a]
    return F


def kl_divergence_quadratic(model, theta, povm, j, h=1e-4):
    """Second oracle for diagonal entries: F_jj ~ 2 KL(p_theta || p_theta+h)/h^2."""
    def probs(t):
        rho = model.state_at(t)
        return np.array([np.real(np.trace(rho @ E)) for E in povm.elements])

    up = np.asarray(theta, dtype=float).copy()
    up[j] += h
    p, q = probs(theta), probs(up)
    mask = p > 1e-14
    kl = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return 2.0 * kl / h ** 2


def test_fisher_qubit_separable_matrix():
    # At phi = pi/4 the Fisher matrix is u/(2-u) * identity with u = e^{-2 delta}
    # (value derived symbolically from the scores; cross-checked below against
    # the probability finite-difference and KL oracles).
    model = qubit_phase_dephasing()
    delta = 0.3
    theta = np.array([np.pi / 4, delta])
    povm = separable_povm()
    bundle = fisher_bundle(model, theta, povm)
    u = np.exp(-2 * delta)
    expected = u / (2.0 - u)
    np.testing.assert_allclose(bundle.fisher, expected * np.eye(2), atol=1e-12)
    oracle = probability_fd_fisher(model, theta, povm)
    np.testing.assert_allclose(bundle.fisher, oracle, atol=1e-8)
    for j in range(2):
        assert kl_divergence_quadratic(model, theta, povm, j) == pytest.approx(
            expected, rel=1e-3)


@pytest.mark.parametrize("measurement", ["separable", "bell", "optimal-hg"])
def test_fisher_matrix_is_exactly_symmetric_on_readme_sweeps(measurement):
    # F is accumulated from p_a * outer(l_a, l_a), whose (j, k) and (k, j)
    # entries are the same IEEE products summed in the same order, so no
    # symmetrization is needed
    from fisusc.sweep import build_model_povm
    if measurement == "optimal-hg":
        points = [("point-sources", [0.0, dx, 0.3]) for dx in np.geomspace(0.01, 1, 50)]
    else:
        points = [("phase-dephasing", [np.pi / 4, d]) for d in np.geomspace(1e-3, 1, 50)]
    for model_id, theta in points:
        model, povm = build_model_povm(model_id, measurement, theta)[:2]
        F = fisher_bundle(model, theta, povm).fisher
        assert np.array_equal(F, F.T)


def test_fisher_trivial_povm_is_zero():
    model = qubit_phase_dephasing()
    bundle = fisher_bundle(model, [0.3, 0.4], Povm([np.eye(2)]))
    np.testing.assert_allclose(bundle.fisher, np.zeros((2, 2)), atol=1e-15)
    with pytest.raises(ValueError, match="^model dim 2 != POVM dim 4$"):
        fisher_bundle(model, [0.3, 0.4], Povm([np.eye(4)]))


def test_fisher_p1_reduces_to_scalar_definition():
    delta = 0.25
    model = phase_only_model(delta)
    theta = np.array([0.8])
    povm = separable_povm()
    bundle = fisher_bundle(model, theta, povm)
    rho = model.state_at(theta)
    drho = model.derivatives_at(theta)[0]
    scalar = 0.0
    for E in povm.elements:
        p = float(np.real(np.trace(rho @ E)))
        l = float(np.real(np.trace(drho @ E))) / p
        scalar += p * l * l
    assert bundle.fisher[0, 0] == pytest.approx(scalar, abs=1e-14)


def test_fisher_probabilities_sum_and_score_balance():
    model = qubit_phase_dephasing()
    bundle = fisher_bundle(model, [1.1, 0.5], separable_povm())
    assert np.sum(bundle.probabilities) == pytest.approx(1.0, abs=1e-12)
    # sum_a Tr[d_j rho M_a] = 0: probability-weighted scores balance
    weighted = bundle.probabilities[list(bundle.kept_outcomes)][:, None] * bundle.scores
    np.testing.assert_allclose(np.sum(weighted, axis=0), 0.0, atol=1e-12)


def test_singular_score_error():
    # p = 0 with a non-vanishing numerator marks a divergent contribution
    def state_fn(v):
        return np.diag([1.0, 0.0])

    def deriv_fn(v):
        return [np.diag([1.0, -1.0])]

    model = StatisticalModel(2, ("t",), state_fn, derivative_fn=deriv_fn)
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(SingularScoreError):
        fisher_bundle(model, [0.0], povm)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_dropped_outcomes_do_not_depend_on_parameter_units(scale):
    # the rest outcome has p = 8.3e-13 and a dx numerator of 3.1e-11; in the
    # parameter u = 1e-6 dx that numerator reads 3.1e-5, above any absolute
    # sqrt(1e-12), but relative to max|d_u rho| it is as small as before
    theta = np.array([0.0, 0.1526, 0.3])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    model, povm = point_source_model(cfg), optimal_povm_point_sources(cfg)
    s = np.array([1.0, scale, 1.0])
    rescaled = StatisticalModel(
        model.dim, ("x_c", "u", "q"), lambda u: model.state_at(u / s),
        derivative_fn=lambda u: [d / k for d, k in zip(model.derivatives_at(u / s), s)])
    bundle = fisher_bundle(model, theta, povm)
    assert bundle.probabilities[4] < 1e-12
    assert bundle.kept_outcomes == (0, 1, 2, 3)
    assert fisher_bundle(rescaled, s * theta, povm).kept_outcomes == (0, 1, 2, 3)


def test_dropped_outcome_is_silent_when_numerator_vanishes():
    def state_fn(v):
        return np.diag([1.0, 0.0])

    def deriv_fn(v):
        return [np.array([[0.0, 1.0], [1.0, 0.0]])]

    model = StatisticalModel(2, ("t",), state_fn, derivative_fn=deriv_fn)
    povm = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    bundle = fisher_bundle(model, [0.0], povm)
    assert bundle.kept_outcomes == (0,)


def test_sld_maximally_mixed():
    rho = np.eye(2) / 2.0
    drho = np.array([[0.0, 0.3], [0.3, 0.0]])
    np.testing.assert_allclose(sld(rho, drho), 2.0 * drho, atol=1e-12)


def test_sld_pure_state_qfi_oracle():
    # |psi(t)> = (cos t, sin t): QFI = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2)
    t = 0.7
    psi = np.array([np.cos(t), np.sin(t)])
    dpsi = np.array([-np.sin(t), np.cos(t)])
    rho = np.outer(psi, psi)
    drho = np.outer(dpsi, psi) + np.outer(psi, dpsi)
    L = sld(rho, drho)
    qfi = float(np.real(np.trace(rho @ L @ L)))
    oracle = 4.0 * (dpsi @ dpsi - abs(psi @ dpsi) ** 2)
    assert qfi == pytest.approx(oracle, abs=1e-10)


def test_sld_defining_equation_residual():
    model = qubit_phase_dephasing()
    theta = [np.pi / 4, 0.3]
    rho = model.state_at(theta)
    for drho in model.derivatives_at(theta):
        L = sld(rho, drho)
        assert np.max(np.abs(2 * drho - L @ rho - rho @ L)) <= 1e-10


def test_qfi_qubit_values():
    # Q = diag(u, u / (1 - u)) with u = e^{-2 delta}; the defining-equation
    # residual is asserted separately, so this freezes the symbolic result
    model = qubit_phase_dephasing()
    delta = 0.3
    Q = qfi_matrix(model, [np.pi / 4, delta])
    u = np.exp(-2 * delta)
    np.testing.assert_allclose(Q, np.diag([u, u / (1 - u)]), atol=1e-10)


@pytest.mark.parametrize("model_id, measurement, theta", [
    ("phase-dephasing", "separable", [np.pi / 4, 0.3]),
    ("phase-dephasing", "bell", [0.3, 1e-3]),
    ("point-sources", "optimal-hg", [0.1, 0.5, 0.3]),
    ("point-sources", "optimal-hg", [0.1, 0.05, 0.3]),     # drops "rest"
    ("point-sources", "optimal-hg", [0.0, 0.0, 0.3]),      # rank-2 support
])
def test_bundle_qfi_is_qfi_matrix_bit_for_bit(model_id, measurement, theta):
    # the bundle reads Q off the support it already holds; qfi_matrix builds
    # the same support of a model that has no measurement
    from fisusc.sweep import build_model_povm
    model, povm, _ = build_model_povm(model_id, measurement, np.array(theta))
    bundle = fisher_bundle(model, theta, povm)
    Q = qfi_matrix(model, theta)
    assert bundle.qfi.tobytes() == Q.tobytes() and bundle.qfi.dtype == Q.dtype
    assert bundle.qfi is bundle.qfi and bundle.n_params == len(theta)


def test_small_dephasing_bell_row_succeeds():
    # nearly pure two-copy state: the SLD entries carry rounding of order
    # 1 / (l_i + l_j), which must not be mistaken for non-Hermiticity
    from fisusc.sweep import SweepSpec, evaluate_point
    delta = 1e-3
    spec = SweepSpec(model="phase-dephasing", measurement="bell",
                     fixed={"phi": np.pi / 4}, sweep_name="delta",
                     start=delta, stop=1.0, count=2)
    row = evaluate_point(spec, 0, delta)
    assert row["error"] == ""
    u = np.exp(-2 * delta)
    assert row["Q_phi_phi"] == pytest.approx(2 * u, rel=1e-9)
    assert row["Q_delta_delta"] == pytest.approx(2 * u / (1 - u), rel=1e-9)
    assert abs(row["Q_phi_delta"]) <= 1e-9
    double = tensor_model(qubit_phase_dephasing(), 2)
    theta = [np.pi / 4, delta]
    rho = double.state_at(theta)
    derivs = double.derivatives_at(theta)
    Q = _eigen_slds(rho, derivs)[2]
    for drho in derivs:
        Lj = sld(rho, drho)
        assert np.max(np.abs(2 * drho - Lj @ rho - rho @ Lj)) <= 1e-10
    Q1 = qfi_matrix(qubit_phase_dephasing(), theta)
    np.testing.assert_allclose(Q, 2.0 * Q1, rtol=1e-10, atol=1e-12 * np.max(np.abs(Q)))


def _random_state_and_derivatives(rng, dim, rank, n_params):
    """Random rank-`rank` state and derivatives of a unitary-plus-weight family."""
    kets = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    U, _ = np.linalg.qr(kets)
    w = rng.uniform(0.2, 1.0, rank)
    w /= w.sum()
    rho = (U * w) @ U.conj().T
    derivs = []
    for _ in range(n_params):
        H = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = H + H.conj().T
        dw = rng.standard_normal(rank)
        dw -= dw.mean()
        derivs.append(-1j * (H @ rho - rho @ H) + (U * dw) @ U.conj().T)
    return (rho + rho.conj().T) / 2.0, [(d + d.conj().T) / 2.0 for d in derivs]


@pytest.mark.parametrize("rank", [5, 2])
def test_batched_slds_match_per_operator_formula(rank):
    rng = np.random.default_rng(17 + rank)
    for _ in range(5):
        rho, derivs = _random_state_and_derivatives(rng, 5, rank, 3)
        # the shared-eigh batch, mapped back, is the per-operator sld
        U, Lp, Q = _eigen_slds(rho, derivs)
        L = [sld(rho, d) for d in derivs]
        for d, Lj, Lpj in zip(derivs, L, Lp):
            assert np.max(np.abs(2 * d - Lj @ rho - rho @ Lj)) <= 1e-10
            np.testing.assert_allclose(U @ Lpj @ U.conj().T, Lj, atol=1e-12)
        expected = np.array([[0.5 * np.real(np.trace(rho @ (Lj @ Lk + Lk @ Lj)))
                              for Lk in L] for Lj in L])
        np.testing.assert_allclose(Q, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))
        if rank == 5:
            # full rank: the Lyapunov solution is unique
            for d, Lj in zip(derivs, L):
                np.testing.assert_allclose(Lj, solve_sylvester(rho, rho, 2 * d),
                                           atol=1e-9 * np.max(np.abs(Lj)))


def test_qfi_two_copy_additivity():
    model = qubit_phase_dephasing()
    theta = [0.7, 0.3]
    Q1 = qfi_matrix(model, theta)
    Q2 = qfi_matrix(tensor_model(model, 2), theta)
    np.testing.assert_allclose(Q2, 2.0 * Q1, atol=1e-9)


@pytest.mark.parametrize("delta, tol", [(1e-5, 1e-9), (1e-7, 1e-8)])
def test_two_copy_qfi_keeps_its_small_eigenvalue_pairs(delta, tol):
    # the two-copy state at small delta has eigenvalue sums of order delta^2,
    # and Q_delta_delta loses relative accuracy of order delta without them
    model = qubit_phase_dephasing()
    theta = [np.pi / 4, delta]
    Q1 = qfi_matrix(model, theta)
    Q2 = qfi_matrix(tensor_model(model, 2), theta)
    assert abs(Q2[1, 1] / (2.0 * Q1[1, 1]) - 1.0) <= tol
    assert abs(Q2[0, 0] / (2.0 * Q1[0, 0]) - 1.0) <= 1e-12


def test_weak_commutativity_qubit_vanishes():
    model = qubit_phase_dephasing()
    theta = [np.pi / 4, 0.3]
    rho = model.state_at(theta)
    L = [sld(rho, d) for d in model.derivatives_at(theta)]
    assert weak_commutativity(rho, L[0], L[1]) <= 1e-9
    assert weak_commutativity(rho, L[0], L[0]) == 0.0


def test_weak_commutativity_point_sources_reported():
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(0.0, 0.5, 0.3))
    model = point_source_model(cfg)
    theta = [0.0, 0.5, 0.3]
    rho = model.state_at(theta)
    L = [sld(rho, d) for d in model.derivatives_at(theta)]
    value = weak_commutativity(rho, L[0], L[1])
    assert np.isfinite(value)   # reported, no claim made on its size


def test_r_metric_separable_is_two_on_grid():
    # the value 2 holds at every (phi, delta) tested, not only phi = pi/4
    model = qubit_phase_dephasing()
    povm = separable_povm()
    for phi in np.linspace(0.1, 2 * np.pi, 7):
        for delta in (0.05, 0.3, 1.0):
            F = fisher_bundle(model, [phi, delta], povm).fisher
            Q = qfi_matrix(model, [phi, delta])
            assert r_metric(F, Q, m=1) == pytest.approx(2.0, abs=1e-9)


def test_r_metric_bell_closed_form():
    model = qubit_phase_dephasing()
    delta = 0.1
    theta = [np.pi / 4, delta]
    double = tensor_model(model, 2)
    F = fisher_bundle(double, theta, bell_povm()).fisher
    Q1 = qfi_matrix(model, theta)
    closed = (1 - 2 * np.exp(4 * delta)) / (1 - 2 * np.exp(2 * delta))
    assert r_metric(F, Q1, m=2) == pytest.approx(closed, abs=1e-10)
    assert closed == pytest.approx(1.376, abs=2e-3)


def test_r_metric_identity_case_and_errors():
    Q = np.diag([2.0, 3.0])
    assert r_metric(Q, Q, m=1) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(SingularFisherError) as err:
        r_metric(np.diag([1.0, 0.0]), Q, m=1)
    assert "condition number" in str(err.value)
    with pytest.raises(ValueError):
        r_metric(Q, Q, m=0)


def test_fisher_refusal_is_independent_of_parameter_units():
    F = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
    S = np.diag([1e7, 1.0, 1e-7])      # theta_0 in units 1e7 larger, ...
    assert np.linalg.cond(S @ F @ S) > 1e20
    Finv = _checked_inverse_and_eigh([S @ F @ S])[0][0]
    np.testing.assert_allclose(S @ Finv @ S, np.linalg.inv(F), rtol=1e-6)
    # a nearly dependent pair is refused in any units
    G = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
    for scale in (np.eye(2), np.diag([1e5, 1e-5])):
        with pytest.raises(SingularFisherError, match="singular or ill-conditioned"):
            _checked_inverse_and_eigh([scale @ G @ scale])
    # a parameter the measurement does not see at all
    with pytest.raises(SingularFisherError):
        _checked_inverse_and_eigh([np.diag([1.0, 0.0])])


@pytest.mark.parametrize("first, second, refused", [
    ("singular", "good", "Fisher matrix"),
    ("good", "singular", "quantum Fisher matrix"),
    ("singular", "singular", "Fisher matrix"),
    ("non-finite", "good", "Fisher matrix"),
    ("good", "negative-diagonal", "quantum Fisher matrix"),
])
def test_stacked_inverse_names_the_first_refused_member(first, second, refused):
    # one eigh and one inv serve the (F, Q) stack; the message is the first
    # refused member's, F before Q, and an accepted stack is each member's
    # inverse bit for bit
    matrices = {"good": np.array([[2.0, 0.3], [0.3, 1.0]]),
                "singular": np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]]),
                "non-finite": np.array([[1.0, np.inf], [np.inf, 1.0]]),
                "negative-diagonal": np.diag([1.0, -2.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularFisherError) as err:
            _checked_inverse_and_eigh((matrices[first], matrices[second]))
    assert str(err.value).startswith(f"{refused} is singular")
    # a member after F and Q is tested too, and named by its index
    bad = matrices[first if first != "good" else second]
    with pytest.raises(SingularFisherError, match=r"^matrix 2 of the stack is singular"):
        _checked_inverse_and_eigh((matrices["good"], matrices["good"], bad))
    pair = (matrices["good"], 3.0 * matrices["good"])
    inverses = _checked_inverse_and_eigh(pair)[0]
    for matrix, inverse in zip(pair, inverses):
        assert inverse.tobytes() == np.linalg.inv(matrix).tobytes()


def _unit_diagonal(condition, P):
    """A P x P unit-diagonal matrix of condition number ``condition``: the
    pair block [[1, a], [a, 1]] (eigenvalues 1 +- a) and ones after it."""
    a = (condition - 1.0) / (condition + 1.0)
    M = np.eye(P)
    M[0, 1] = M[1, 0] = a
    return M


@pytest.mark.parametrize("P", [2, 3])
@pytest.mark.parametrize("scale", np.geomspace(1e-3, 1e3, 7))
def test_refusal_at_its_limit_in_any_units(P, scale):
    # unit-scaled members of condition number 1e11 are accepted and 1e13
    # refused (the limit is 1e12), F is named before Q and a member after
    # them by its index, whatever the units of the first parameter; the
    # stacked eigh also gives F's own eigh
    S = np.diag([scale] + [1.0] * (P - 1))
    good, bad = (S @ _unit_diagonal(c, P) @ S for c in (1e11, 1e13))
    inverses = _checked_inverse_and_eigh((good, 2.0 * good))[0]
    assert inverses[0].tobytes() == np.linalg.inv(good).tobytes()
    for stack, refused in (((bad, good), "Fisher matrix"),
                           ((good, bad), "quantum Fisher matrix"),
                           ((bad, bad), "Fisher matrix"),
                           ((good, good, bad), "matrix 2 of the stack")):
        with pytest.raises(SingularFisherError) as err:
            _checked_inverse_and_eigh(stack)
        assert str(err.value).startswith(f"{refused} is singular or ill-conditioned")
    w, U = _checked_inverse_and_eigh((good, 2.0 * good))[1]
    assert [w.tobytes(), U.tobytes()] == [a.tobytes() for a in np.linalg.eigh(good)]


def test_r_nuisance_identity_and_bounds():
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert r_nuisance(Q, Q, 0) == pytest.approx(1.0, abs=1e-14)
    model = qubit_phase_dephasing()
    F = fisher_bundle(model, [0.9, 0.4], separable_povm()).fisher
    Qq = qfi_matrix(model, [0.9, 0.4])
    for j in range(2):
        assert r_nuisance(F, Qq, j) >= 1.0 - 1e-9


@pytest.mark.parametrize("call", [
    lambda F, Q: r_metric(F, Q, 2.5), lambda F, Q: r_metric(F, Q, True),
    lambda F, Q: r_metric(F, Q, np.float64(1.5)),
    lambda F, Q: r_nuisance(F, Q, 2), lambda F, Q: r_nuisance(F, Q, 5),
    lambda F, Q: r_nuisance(F, Q, -1), lambda F, Q: r_nuisance(F, Q, True),
    lambda F, Q: r_nuisance(F, Q, 1.0),
], ids=["m-2.5", "m-True", "m-float64-1.5", "index-2", "index-5", "index-minus-1",
        "index-True", "index-1.0"])
def test_ratios_refuse_a_non_integral_m_and_an_index_outside_the_parameters(call):
    # a copy count is an integer, as tensor_model has it, and a parameter index
    # is an integer in 0 .. P - 1: neither is truncated nor counted from the end
    F, Q = np.array([[2.0, 0.1], [0.1, 1.0]]), np.diag([3.0, 2.0])
    with pytest.raises(ValueError, match=r"^(m must be an integer"
                                         r"|index must be (an integer|in \[0, 1\])), got "):
        call(F, Q)
    with pytest.raises(ValueError, match="^m must be an integer, got 2.0$"):
        r_metric(F, Q, 2.0)
    assert r_metric(F, Q, np.int64(2)) == 2 * r_metric(F, Q)
    assert r_nuisance(F, Q, np.int64(1)) == r_nuisance(F, Q, 1)


def _point_source_r(q, dx):
    theta = np.array([0.0, dx, q])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    model = point_source_model(cfg)
    povm = optimal_povm_point_sources(cfg)
    F = fisher_bundle(model, theta, povm).fisher
    Q = qfi_matrix(model, theta)
    Finv, Qinv = np.linalg.inv(F), np.linalg.inv(Q)
    return (float(Finv[1, 1] / Qinv[1, 1]),
            float(np.trace(Finv) / np.trace(Qinv)))


def test_point_source_separation_optimal_at_small_dx():
    # with centroid and intensity as nuisance parameters the measurement
    # saturates the separation bound as dx -> 0 (away from q = 1/2)
    for q in (0.3, 0.1):
        r_dx, r_multi = _point_source_r(q, 1e-2)
        assert r_dx <= 1.05
        assert r_multi <= 1.05


def test_point_source_r_grows_with_q():
    # estimation quality for dx degrades as the intensity parameter q grows
    # toward 1/2 (r_dx increases with q); see README, 'Numerical findings',
    # for the q = 1/2 parity anomaly
    values = [_point_source_r(q, 0.5)[0] for q in (0.1, 0.3, 0.5)]
    assert values[0] < values[1] < values[2]
    # q = 0.2 vs q = 0.5 ordering, same direction
    assert _point_source_r(0.2, 0.5)[0] < _point_source_r(0.5, 0.5)[0]


def test_qfi_dominates_fisher_matrix_bound():
    model = qubit_phase_dephasing()
    rng = np.random.default_rng(9)
    for _ in range(6):
        theta = [rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 1.2)]
        F = fisher_bundle(model, theta, separable_povm()).fisher
        Q = qfi_matrix(model, theta)
        assert np.linalg.eigvalsh(Q - F)[0] >= -1e-8
    theta = np.array([0.0, 0.4, 0.3])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    ps = point_source_model(cfg)
    F = fisher_bundle(ps, theta, optimal_povm_point_sources(cfg)).fisher
    Q = qfi_matrix(ps, theta)
    assert np.linalg.eigvalsh(Q - F)[0] >= -1e-8
