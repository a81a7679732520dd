"""Executable invariant suite.

`run_verify` exercises the cross-module invariants on deterministic
random instances and returns a machine-readable report: one named check
per invariant, each with a pass flag and a short detail string.  The
CLI maps the report onto exit codes.

Each check draws its instances from the seed in a fixed order and calls
the function under test once per instance, in that order; the check's
own eigensolves and residuals run once per matrix shape, on the stacked
instances (`_by_shape`).  A stacked ``eigh`` runs LAPACK once per member,
so the report is a function of the seed alone, with the bits of a
per-instance loop.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, models
from .fisher import (_checked_inverse_and_eigh, _outcome_traces, _ratios, fisher_bundle,
                     qfi_matrix, sld)
from .linalg import _normalized, _sym, trace_norm
from .model import (Povm, StatisticalModel, mix_povm, tensor_model,
                    tensor_povm, validate_povm)
from .models import (POINT_SOURCE_WEIGHTS, PointSourceConfig, bell_povm,
                     hg_overlap, hg_overlap_closed_form,
                     optimal_povm_point_sources, point_source_model,
                     qubit_phase_dephasing, separable_povm, x_opt)
from .susceptibility import (_aligned_noise_elements, sigma_exact,
                             sigma_lower, sigma_single, sigma_upper,
                             x_finite_mix, x_scalar, xi_matrix)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    results: tuple

    @property
    def all_passed(self):
        return all(r.passed for r in self.results)

    def to_json(self):
        return json.dumps({
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in self.results],
        }, indent=2)


def _gaussian(rng, dim):
    """A complex Gaussian ``dim x dim`` matrix: real part drawn first."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _random_hermitian(rng, dim):
    # _sym makes it exactly Hermitian: the function under test validates it
    return _sym(_gaussian(rng, dim))


def _random_qubit_noise(rng):
    """Qubit noise ``S^-1/2 A_a S^-1/2``, ``A_a = G_a G_a^dag`` (G_a complex Gaussian,
    4 outcomes, S = sum A_a): unlike white noise, it gives X non-zero n_a terms."""
    G = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    return Povm(_normalized(G @ G.conj().swapaxes(-1, -2)))


def _qubit_instances(rng, n):
    model = qubit_phase_dephasing()
    for _ in range(n):
        yield model, np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 1.5)])


def _by_shape(matrices):
    """``{shape: stack}`` of the matrices, each stack in the order drawn."""
    groups = {}
    for M in matrices:
        groups.setdefault(M.shape, []).append(M)
    return {shape: np.array(group) for shape, group in groups.items()}


def check_eig_reconstruction(seed):
    rng = np.random.default_rng(seed)
    drawn = [_gaussian(rng, int(rng.integers(2, 17))) for _ in range(100)]
    worst = 0.0
    # the max of a group's residuals is the max of its members' residuals
    for (dim, _), z in _by_shape(drawn).items():
        H = _sym(z)
        w, V = linalg.eigh(H)
        Vh = V.conj().swapaxes(-1, -2)
        eye = np.eye(dim)
        err = float(np.max(np.abs(V @ (w[..., :, None] * eye) @ Vh - H)))
        unit = float(np.max(np.abs(Vh @ V - eye)))
        worst = max(worst, err / (1e-10 * dim), unit / 1e-10)
    return worst <= 1.0, f"worst normalized error {worst:.3e}"


def check_trace_norm_bound(seed):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(50):
        H = _random_hermitian(rng, int(rng.integers(2, 9)))
        ok &= trace_norm(H) >= abs(float(np.real(np.trace(H)))) - 1e-10
    return ok, "trace_norm >= |Tr| on 50 random Hermitians"


def check_tensor_associativity(seed):
    rng = np.random.default_rng(seed)
    A, B, C = (Povm([_random_hermitian(rng, d)]) for d in (2, 3, 2))
    lhs = tensor_povm(tensor_povm(A, B), C).elements
    err = float(np.max(np.abs(lhs - tensor_povm(A, tensor_povm(B, C)).elements)))
    # scalar products regroup, so equality holds to rounding only
    return err <= 1e-14, f"max deviation {err:.1e}"


def check_model_states(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    ps = point_source_model(cfg)
    states = []
    for i in range(50):
        if i % 2 == 0:
            model, theta = next(_qubit_instances(rng, 1))
        else:
            model, theta = ps, np.array([rng.uniform(-0.3, 0.3),
                                         rng.uniform(0.01, 1.0),
                                         rng.uniform(0.1, 0.9)])
        rho = model.state_at(theta)
        states.append(rho)
        worst = max(worst, abs(float(np.real(np.trace(rho))) - 1.0) / 1e-10)
        for d in model.derivatives_at(theta):
            worst = max(worst, abs(float(np.real(np.trace(d)))) / 1e-9)
    # one eigvalsh per model family: the 2 x 2 qubit and 21 x 21 point-source states
    for rhos in _by_shape(states).values():
        lowest = float(np.min(linalg.eigvalsh(rhos)[:, 0]))
        worst = max(worst, max(0.0, -lowest) / 1e-10)
    return worst <= 1.0, f"worst normalized violation {worst:.3e}"


def check_fd_consistency(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model, theta in _qubit_instances(rng, 10):
        analytic = model.derivatives_at(theta)
        h = 1e-5
        for j in range(model.n_params):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd = (model.state_at(up) - model.state_at(dn)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(analytic[j] - fd))))
    return worst <= 1e-7, f"max |analytic - central difference| = {worst:.3e}"


def check_povm_validity(seed):
    separable = separable_povm()
    reports = [validate_povm(p, 1e-9) for p in (separable, bell_povm())]
    cfg = PointSourceConfig(n_max=20, x_m=0.1)
    reports.append(validate_povm(optimal_povm_point_sources(cfg), 1e-9))
    mixed = mix_povm(separable, Povm([np.eye(2) / 4.0] * 4), 0.3)
    reports.append(validate_povm(mixed, 1e-9))
    ok = all(r.passed for r in reports)
    return ok, "; ".join(f"min_eig={r.min_eigenvalue:.1e},res={r.completeness_residual:.1e}"
                         for r in reports)


def check_qfi_dominates_fisher(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    povm = separable_povm()
    for model, theta in _qubit_instances(rng, 8):
        bundle = fisher_bundle(model, theta, povm)
        F, Q = bundle.fisher, bundle.qfi
        worst = min(worst, float(linalg.eigvalsh(Q - F)[0]))
    return worst >= -1e-8, f"min eig(Q - F) = {worst:.3e}"


def check_probability_sums(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    povm = separable_povm()
    for model, theta in _qubit_instances(rng, 8):
        bundle = fisher_bundle(model, theta, povm)
        worst = max(worst, abs(float(np.sum(bundle.probabilities)) - 1.0))
        for d in bundle.derivatives:
            total = sum(float(np.real(np.trace(d @ E))) for E in povm.elements)
            worst = max(worst, abs(total))
    return worst <= 1e-10, f"worst residual {worst:.3e}"


def check_sld_residual(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for model, theta in _qubit_instances(rng, 8):
        rho = model.state_at(theta)
        for d in model.derivatives_at(theta):
            L = sld(rho, d)
            worst = max(worst, float(np.max(np.abs(2 * d - L @ rho - rho @ L))))
    return worst <= 1e-8, f"max SLD residual {worst:.3e}"


def check_r_bounds(seed):
    rng = np.random.default_rng(seed)
    ok, values = True, []
    povm = separable_povm()
    for model, theta in _qubit_instances(rng, 6):
        # r_metric and r_nuisance of the bundle's (F, Q), off one checked inverse
        bundle = fisher_bundle(model, theta, povm)
        r, rn = _ratios(*_checked_inverse_and_eigh((bundle.fisher, bundle.qfi))[0])
        rn = float(rn[0])
        values += [r, rn]
        ok &= r >= 1 - 1e-9 and rn >= 1 - 1e-9
    return ok, f"min r = {min(values):.6f}"


def check_self_noise_nullity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    povm = separable_povm()
    for model, theta in _qubit_instances(rng, 6):
        bundle = fisher_bundle(model, theta, povm)
        worst = max(worst, abs(x_scalar(bundle, povm)))
    return worst <= 1e-9, f"max |X[M,M]| = {worst:.3e}"


def x_from_extremal_sum(bundle, noise):
    """X[M, N] assembled from the convex per-outcome functions f_a.

    In the eigenframe of F, ``eigh(F) = (w, U)``, ``J = U^T`` and F~ = w.
    With c_a = Tr[rho N_a], delta_{a,j} = 2 Tr[d~_j rho N_a] / sqrt(F~_jj)
    and L_{a,j} = l~_{a,j} / sqrt(F~_jj) the normalized score vectors,
    X = P + sum_a f_a(L_a) where f_a(x) = c_a |x|^2 - x . delta_a.  The
    identity holds in any frame that diagonalizes F; this third route to
    the scalar susceptibility shares no frame with `sigma_upper`.
    """
    w, U = bundle.fisher_eigh
    sqrt_f = np.sqrt(w)
    slots, elements = _aligned_noise_elements(bundle, noise)
    c, n = _outcome_traces(*bundle.support[1:], elements)
    L = bundle.scores[slots] @ U / sqrt_f
    delta = 2.0 * (n @ U) / sqrt_f
    return float(w.size + c @ np.sum(L * L, axis=1) - np.sum(L * delta))


def check_trace_identity(seed):
    rng = np.random.default_rng(seed)
    worst_tr, worst_cx = 0.0, 0.0
    povm = separable_povm()
    for model, theta in _qubit_instances(rng, 6):
        noise = _random_qubit_noise(rng)
        bundle = fisher_bundle(model, theta, povm)
        x = x_scalar(bundle, noise)
        worst_tr = max(worst_tr, abs(x - float(np.trace(xi_matrix(bundle, noise)))))
        worst_cx = max(worst_cx, abs(x - x_from_extremal_sum(bundle, noise)))
    return worst_tr <= 1e-10 and worst_cx <= 1e-9, \
        f"max |tr Xi - X| = {worst_tr:.3e}; max |convex-sum - X| = {worst_cx:.3e}"


def _reparametrized_bundle(bundle, J):
    """The bundle in the parameters u = J theta (J invertible).

    Derivatives and scores become J^-T d rho and J^-T l, and F becomes
    J^-T F J^-1; the bundle's cached F^-1 and K are not carried over.
    """
    Jinv_T = linalg.inv(J).T
    V, rho, derivs = bundle.support
    return replace(bundle, scores=bundle.scores @ Jinv_T.T,
                   fisher=Jinv_T @ bundle.fisher @ Jinv_T.T,
                   support=(V, rho, np.einsum("jk,kxy->jxy", Jinv_T, derivs)))


def check_reparametrization_invariance(seed):
    rng = np.random.default_rng(seed)
    model = qubit_phase_dephasing()
    theta = np.array([0.9, 0.4])
    noise = _random_qubit_noise(rng)
    bundle = fisher_bundle(model, theta, separable_povm())
    x0 = x_scalar(bundle, noise)
    worst = 0.0
    for _ in range(5):
        J = rng.standard_normal((2, 2))
        while abs(np.linalg.det(J)) < 0.2:
            J = rng.standard_normal((2, 2))
        x1 = x_scalar(_reparametrized_bundle(bundle, J), noise)
        worst = max(worst, abs(x1 - x0))
    return worst <= 1e-8, f"max |X' - X| = {worst:.3e}"


def check_finite_eps_convergence(seed):
    model = qubit_phase_dephasing()
    theta = np.array([np.pi / 4, 0.2])
    target = separable_povm()
    noise = Povm([np.eye(2) / 4.0] * 4)
    x = x_scalar(fisher_bundle(model, theta, target), noise)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        ratios.append(abs(x_finite_mix(model, theta, target, noise, eps) - x) / eps)
    spread = max(ratios) / max(min(ratios), 1e-30)
    return spread < 1.5, f"|X_eps - X|/eps in [{min(ratios):.2f}, {max(ratios):.2f}]"


def check_bound_order_and_exact(seed):
    # delta = 0.4 is pair-certified; delta = 0.1 needs the interior-point solve
    model = qubit_phase_dephasing()
    povm = separable_povm()
    ok, details = True, []
    for delta in (0.1, 0.4):
        bundle = fisher_bundle(model, np.array([np.pi / 4, delta]), povm)
        lower, upper = sigma_lower(bundle)[0], sigma_upper(bundle)[0]
        exact = sigma_exact(bundle)
        ok &= lower <= exact.value <= upper + exact.exact_gap
        ok &= exact.exact_gap <= 1e-8 * exact.value
        details.append(f"SL={lower:.6f}<=Sigma={exact.value:.6f}<=SU={upper:.6f} "
                       f"(gap {exact.exact_gap:.1e}, {exact.iterations} iterations)")
    return ok, "; ".join(details)


def check_p1_collapse(seed):
    # at P = 1, sigma_single, Sigma_L and Sigma_U equal the closed form
    # sigma = 1 + (l_n^2 + l_m^2 + ||(l_n - l_m)(l_n + l_m) rho - 2 (l_n - l_m) d rho||_1) / (2F),
    # taken here from the full-space state and direct traces, with no bundle
    base, povm = qubit_phase_dephasing(), separable_povm()
    errors = dict.fromkeys(("sigma", "Sigma_L", "Sigma_U"), 0.0)
    for delta, phi in ((0.3, 1.1), (0.05, 2.0), (1.2, 0.3)):
        model = StatisticalModel(
            2, ("phi",), lambda v, d=delta: base.state_at([v[0], d]),
            derivative_fn=lambda v, d=delta: base.derivatives_at([v[0], d])[:1])
        theta = np.array([phi])
        bundle = fisher_bundle(model, theta, povm)
        rho, drho = model.state_at(theta), model.derivatives_at(theta)[0]
        p = np.array([np.trace(rho @ E).real for E in povm.elements])
        l = np.array([np.trace(drho @ E).real for E in povm.elements]) / p
        F, ln, lm = float(p @ l ** 2), np.max(l), np.min(l)
        sig = 1.0 + (ln ** 2 + lm ** 2 + trace_norm((ln - lm) * (ln + lm) * rho
                                                      - 2.0 * (ln - lm) * drho)) / (2.0 * F)
        values = (sigma_single(bundle), sigma_lower(bundle)[0], sigma_upper(bundle)[0])
        for name, value in zip(errors, values):
            errors[name] = max(errors[name], abs(value - sig))
    return max(errors.values()) <= 1e-10, ", ".join(
        f"|{name} - closed form| = {err:.2e}" for name, err in errors.items())


def check_outcome_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    model = qubit_phase_dephasing()
    theta = np.array([0.6, 0.25])
    target = separable_povm()
    noise = _random_qubit_noise(rng)
    perm = rng.permutation(4)
    target_p = Povm([target.elements[i] for i in perm])
    noise_p = Povm([noise.elements[i] for i in perm])
    b0, b1 = fisher_bundle(model, theta, target), fisher_bundle(model, theta, target_p)
    x0, x1 = x_scalar(b0, noise), x_scalar(b1, noise_p)
    (lo0, _), (lo1, _) = sigma_lower(b0), sigma_lower(b1)
    (up0, _), (up1, _) = sigma_upper(b0), sigma_upper(b1)
    worst = max(abs(x0 - x1), abs(lo0 - lo1), abs(up0 - up1))
    return worst <= 1e-9, f"max change under relabeling {worst:.2e}"


def check_zero_padding_invariance(seed):
    model = qubit_phase_dephasing()
    theta = np.array([0.6, 0.25])
    target = separable_povm()
    noise = _random_qubit_noise(np.random.default_rng(seed))
    padded = Povm(list(noise.elements) + [np.zeros((2, 2))] * 2)
    bundle = fisher_bundle(model, theta, target)
    x0 = x_scalar(bundle, noise)
    x1 = x_scalar(bundle, padded)
    return abs(x0 - x1) == 0.0, f"|X(padded) - X| = {abs(x0-x1):.1e}"


def check_hg_orthonormality(seed):
    w = POINT_SOURCE_WEIGHTS
    gram_err = float(np.max(np.abs(w @ w.T - np.eye(4))))
    if gram_err > 1e-12:
        return False, f"weight rows not orthonormal: max|w w^T - I| = {gram_err:.2e}"
    worst = 0.0
    for n in range(5):
        for m in range(n, 5):
            val = models._gauss_hermite(lambda x, n=n, m=m: models._hg_mode(n, x, 0.3)
                                        * models._hg_mode(m, x, 0.3), 0.3, n + m)
            worst = max(worst, abs(val - (1.0 if n == m else 0.0)))
    passed = worst <= 1e-10
    return passed, f"max|w w^T - I| = {gram_err:.2e}; mode Gram error {worst:.2e}"


def check_hg_quadrature_vs_closed_form(seed):
    worst = 0.0
    for n in (0, 1, 3, 6, 10):
        for d in (-3.0, -0.7, 0.0, 0.4, 2.1, 3.0):
            worst = max(worst, abs(hg_overlap(n, 0.2 + d, 0.2)
                                   - float(hg_overlap_closed_form(n, 0.2 + d, 0.2))))
    return worst <= 1e-10, f"max |quadrature - closed form| = {worst:.3e}"


def check_truncation_convergence(seed):
    # n_max = 8 leaks 5.9e-12 of the psi+ weight here, and the rest outcome holds
    # little more than that tail: the bounds move by 1.4e-7 (4.2e-6 without mode 8)
    theta = np.array([0.0, 1.4, 0.3])
    values = {}
    for n_max in (8, 16):
        cfg = PointSourceConfig(n_max=n_max, x_m=x_opt(*theta))
        model = point_source_model(cfg)
        bundle = fisher_bundle(model, theta, optimal_povm_point_sources(cfg))
        values[n_max] = (bundle.fisher, sigma_lower(bundle)[0], sigma_upper(bundle)[0])
    dF = float(np.max(np.abs(values[8][0] - values[16][0]))
               / np.max(np.abs(values[16][0])))
    dlo = abs(values[8][1] - values[16][1]) / values[16][1]
    dup = abs(values[8][2] - values[16][2]) / values[16][2]
    worst = max(dF, dlo, dup)
    return worst < 1e-6, f"relative change n_max 8 -> 16: {worst:.2e}"


def check_two_copy_consistency(seed):
    model = qubit_phase_dephasing()
    theta = np.array([0.7, 0.3])
    double = tensor_model(model, 2)
    rho2 = double.state_at(theta)
    ok = abs(float(np.real(np.trace(rho2))) - 1.0) <= 1e-10
    Q1 = qfi_matrix(model, theta)
    Q2 = qfi_matrix(double, theta)
    add_err = float(np.max(np.abs(Q2 - 2 * Q1)))
    h = 1e-5
    up, dn = theta.copy(), theta.copy()
    up[0] += h
    dn[0] -= h
    fd = (double.state_at(up) - double.state_at(dn)) / (2 * h)
    fd_err = float(np.max(np.abs(double.derivatives_at(theta)[0] - fd)))
    return ok and add_err <= 1e-9 and fd_err <= 1e-8, \
        f"|Q2 - 2Q1| = {add_err:.2e}, product-rule vs FD {fd_err:.2e}"


CHECKS = [
    ("eig_reconstruction", check_eig_reconstruction),
    ("trace_norm_bound", check_trace_norm_bound),
    ("tensor_associativity", check_tensor_associativity),
    ("model_states", check_model_states),
    ("fd_consistency", check_fd_consistency),
    ("povm_validity", check_povm_validity),
    ("qfi_dominates_fisher", check_qfi_dominates_fisher),
    ("probability_sums", check_probability_sums),
    ("sld_residual", check_sld_residual),
    ("r_bounds", check_r_bounds),
    ("self_noise_nullity", check_self_noise_nullity),
    ("trace_identity", check_trace_identity),
    ("reparametrization_invariance", check_reparametrization_invariance),
    ("finite_eps_convergence", check_finite_eps_convergence),
    # the report key keeps its name: benchmark metrics are named after it
    ("bound_order_and_oracle", check_bound_order_and_exact),
    ("p1_collapse", check_p1_collapse),
    ("outcome_permutation_invariance", check_outcome_permutation_invariance),
    ("zero_padding_invariance", check_zero_padding_invariance),
    ("hg_orthonormality", check_hg_orthonormality),
    ("hg_quadrature_vs_closed_form", check_hg_quadrature_vs_closed_form),
    ("truncation_convergence", check_truncation_convergence),
    ("two_copy_consistency", check_two_copy_consistency),
]


def run_verify(seed=0):
    """Run every invariant check; returns a VerifyReport."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn(seed)
        except Exception as err:   # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return VerifyReport(seed=seed, results=tuple(results))
