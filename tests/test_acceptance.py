"""Acceptance suite.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them).  Tests marked ``xfail(strict=True)`` encode target features the
implemented models provably do not have (the numerics behind that claim
are finite-difference-checked derivatives, residual-checked SLDs and
bounds around the certified exact worst case); they are kept, failing,
to document the gap, and companion tests pin the measured behaviour.  The findings are
summarized in the README section "Numerical findings".
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from fisusc.fisher import (SingularScoreError, fisher_bundle, qfi_matrix, r_metric,
                           sld, weak_commutativity)
from fisusc.linalg import hermitize
from fisusc.model import Povm, StatisticalModel, tensor_model, tensor_povm
from fisusc.models import (POINT_SOURCE_WEIGHTS, PointSourceConfig, bell_povm,
                           optimal_povm_point_sources, point_source_model,
                           qubit_phase_dephasing, separable_povm, x_opt)
from fisusc.susceptibility import (sigma_exact, sigma_lower, sigma_single,
                                   sigma_upper, x_finite_mix, x_scalar,
                                   xi_matrix)
from fisusc.verify import _reparametrized_bundle

PHI = float(np.pi / 4)
DELTA_GRID = np.geomspace(1e-3, 1.0, 50)


def report(criterion, ok, detail):
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _r_separable(delta):
    model = qubit_phase_dephasing()
    theta = [PHI, delta]
    F = fisher_bundle(model, theta, separable_povm()).fisher
    Q = qfi_matrix(model, theta)
    return r_metric(F, Q, m=1)


def _r_bell(delta):
    model = qubit_phase_dephasing()
    theta = [PHI, delta]
    F = fisher_bundle(tensor_model(model, 2), theta, bell_povm()).fisher
    Q1 = qfi_matrix(model, theta)
    return r_metric(F, Q1, m=2)


def test_c1_r_separable_equals_two_on_grid():
    start = time.perf_counter()
    worst = max(abs(_r_separable(d) - 2.0) for d in DELTA_GRID)
    elapsed = time.perf_counter() - start
    report("1", worst <= 1e-9 and elapsed < 1.0,
           f"max |r_sep - 2| = {worst:.2e} over 50 deltas, {elapsed:.2f}s")


def test_c2_r_bell_closed_form_and_crossing():
    start = time.perf_counter()
    closed = lambda d: (1 - 2 * np.exp(4 * d)) / (1 - 2 * np.exp(2 * d))
    worst = max(abs(_r_bell(d) - closed(d)) for d in DELTA_GRID)
    crossing = brentq(lambda d: _r_bell(d) - 2.0, 0.15, 0.4, xtol=1e-10)
    elapsed = time.perf_counter() - start
    report("2", worst <= 1e-8 and 0.25 <= crossing <= 0.29 and elapsed < 2.0,
           f"max |r_ent - closed form| = {worst:.2e}; r = 2 at delta = "
           f"{crossing:.4f}; {elapsed:.2f}s")


def test_c3_r_bell_saturates_at_small_dephasing():
    value = _r_bell(1e-4)
    report("3", abs(value - 1.0) <= 1e-3, f"r_ent(1e-4) = {value:.6f}")


def _sigma_bounds(model, theta, povm):
    bundle = fisher_bundle(model, theta, povm)
    return sigma_lower(bundle)[0], sigma_upper(bundle)[0]


def test_c4_susceptibility_divergence_vs_finite_limit():
    qubit = qubit_phase_dephasing()
    double = tensor_model(qubit, 2)
    ent_small = _sigma_bounds(double, [PHI, 1e-3], bell_povm())[0]
    ent_mid = _sigma_bounds(double, [PHI, 0.1], bell_povm())[0]
    sep_small = _sigma_bounds(qubit, [PHI, 1e-3], separable_povm())[0]
    sep_mid = _sigma_bounds(qubit, [PHI, 0.1], separable_povm())[0]
    ratio_ent = ent_small / ent_mid
    ratio_sep = sep_small / sep_mid
    report("4", ratio_ent >= 5.0 and 0.5 <= ratio_sep <= 2.0,
           f"Sigma_L(ent) ratio 1e-3/0.1 = {ratio_ent:.1f} (>= 5); "
           f"Sigma_L(sep) ratio = {ratio_sep:.3f} (within factor 2)")


def test_c5_susceptibility_crossovers():
    # Both strategies consume two copies per shot, so the separable strategy
    # enters as the product measurement M_sep x M_sep on rho x rho; a
    # single-copy separable susceptibility never crosses the Bell one
    # (see the decisions ledger).
    qubit = qubit_phase_dephasing()
    double = tensor_model(qubit, 2)
    sep2 = tensor_povm(separable_povm(), separable_povm())
    bell = bell_povm()

    def sep_up_minus_ent_lo(delta):
        theta = [PHI, delta]
        return (_sigma_bounds(double, theta, sep2)[1]
                - _sigma_bounds(double, theta, bell)[0])

    # first exceedance: the separable band rises above the entangled band
    first = brentq(sep_up_minus_ent_lo, 0.01, 0.3, xtol=1e-6)
    # for transparency: like-for-like crossings of the individual bounds
    cross_lo = brentq(lambda d: _sigma_bounds(double, [PHI, d], sep2)[0]
                      - _sigma_bounds(double, [PHI, d], bell)[0], 0.01, 0.3,
                      xtol=1e-6)
    cross_up = brentq(lambda d: _sigma_bounds(double, [PHI, d], sep2)[1]
                      - _sigma_bounds(double, [PHI, d], bell)[1], 0.01, 0.3,
                      xtol=1e-6)
    print(f"[ACCEPTANCE 5 info] lower-lower crossing at {cross_lo:.4f}, "
          f"upper-upper at {cross_up:.4f}")
    # second crossover: the entangled susceptibility grows again for large
    # dephasing and the bands re-invert
    assert sep_up_minus_ent_lo(0.3) > 0
    second = brentq(sep_up_minus_ent_lo, 0.3, 2.0, xtol=1e-6)
    report("5", 0.02 <= first <= 0.08 and second > first,
           f"separable bounds first exceed entangled at delta = {first:.4f} "
           f"(window [0.02, 0.08]); bands re-invert at delta = {second:.3f}")


def test_c5_exact_crossovers():
    # the certified worst cases themselves: on two copies the separable
    # product measurement is more susceptible than the Bell measurement for
    # delta in (0.080, 1.084); the single-copy separable worst case exceeds
    # the two-copy Bell one for delta in (0.266, 0.499)
    start = time.perf_counter()
    qubit = qubit_phase_dephasing()
    double = tensor_model(qubit, 2)
    sep2 = tensor_povm(separable_povm(), separable_povm())

    def sigma(model, delta, povm):
        return sigma_exact(fisher_bundle(model, [PHI, delta], povm)).value

    def two_copy(delta):
        return sigma(double, delta, sep2) - sigma(double, delta, bell_povm())

    def one_copy(delta):
        return sigma(qubit, delta, separable_povm()) - sigma(double, delta, bell_povm())

    roots = [brentq(two_copy, 0.01, 0.3, xtol=1e-6), brentq(two_copy, 0.3, 2.0, xtol=1e-6),
             brentq(one_copy, 0.1, 0.36, xtol=1e-6), brentq(one_copy, 0.36, 1.0, xtol=1e-6)]
    expected = [0.0797, 1.0839, 0.2663, 0.4986]
    elapsed = time.perf_counter() - start
    report("5 (exact)", np.allclose(roots, expected, atol=2e-4) and elapsed < 10.0,
           "exact crossings at delta = " + ", ".join(f"{r:.4f}" for r in roots)
           + f"; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Point sources (criteria 6 and 7)
# ---------------------------------------------------------------------------

def _point_source_setup(q, dx):
    theta = np.array([0.0, dx, q])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    model = point_source_model(cfg)
    povm = optimal_povm_point_sources(cfg)
    return model, theta, povm


def _point_source_ratios(q, dx):
    model, theta, povm = _point_source_setup(q, dx)
    F = fisher_bundle(model, theta, povm).fisher
    Q = qfi_matrix(model, theta)
    Finv, Qinv = np.linalg.inv(F), np.linalg.inv(Q)
    return float(Finv[1, 1] / Qinv[1, 1]), float(np.trace(Finv) / np.trace(Qinv))


def test_c6_r_multi_balanced_small_separation():
    r_dx, r_multi = _point_source_ratios(0.5, 1e-2)
    report("6a (r_multi)", r_multi <= 1.05,
           f"r_multi(q=0.5, dx=0.01) = {r_multi:.5f}")


@pytest.mark.xfail(strict=True, reason=(
    "at the parity-symmetric point q = 1/2 the measurement extracts exactly "
    "one third of the separation information (F_dx -> 1/12 while "
    "Q_dx = 1/4 as dx -> 0; derivatives finite-difference checked), so "
    "r_dx -> 3, not 1; away from q = 1/2 it does reach 1. "
    "See README, 'Numerical findings'"))
def test_c6_r_separation_balanced_small_separation_expected():
    r_dx, _ = _point_source_ratios(0.5, 1e-2)
    report("6a (r_dx, expected)", r_dx <= 1.05,
           f"r_dx(q=0.5, dx=0.01) = {r_dx:.5f}")


def test_c6_r_separation_optimal_away_from_balance():
    values = [_point_source_ratios(q, 1e-2)[0] for q in (0.3, 0.1)]
    report("6a (companion)", all(v <= 1.05 for v in values),
           f"r_dx(dx=0.01) = {values[0]:.5f} (q=0.3), {values[1]:.5f} (q=0.1)")


@pytest.mark.xfail(strict=True, reason=(
    "r_dx(dx=0.5) increases with q: 1.09 (q=0.1) < 1.40 (q=0.3) < 3.08 "
    "(q=0.5); separation quality degrades toward the balanced point, the "
    "opposite of the ordering encoded here. See README, 'Numerical findings'"))
def test_c6_monotonicity_expected():
    values = [_point_source_ratios(q, 0.5)[0] for q in (0.5, 0.3, 0.1)]
    report("6b (expected)", values[0] < values[1] < values[2],
           f"r_dx(dx=0.5) at q=0.5,0.3,0.1 = " +
           ", ".join(f"{v:.4f}" for v in values))


def test_c6_monotonicity_measured():
    values = [_point_source_ratios(q, 0.5)[0] for q in (0.1, 0.3, 0.5)]
    report("6b (companion)", values[0] < values[1] < values[2],
           "r_dx(dx=0.5) strictly increases with q: " +
           ", ".join(f"{v:.4f}" for v in values))


@pytest.mark.xfail(strict=True, reason=(
    "r_multi reaches 1.18 at (q=0.5, dx=0.5) and 1.16 at (q=0.3, dx=0.5); "
    "r_multi ~ 1 holds for small separations and in the unbalanced regime. "
    "See README, 'Numerical findings'"))
def test_c6_r_multi_bound_expected():
    values = [_point_source_ratios(q, 0.5)[1] for q in (0.5, 0.3, 0.1)]
    report("6c (expected)", all(v <= 1.1 for v in values),
           "r_multi(dx=0.5) = " + ", ".join(f"{v:.4f}" for v in values))


def test_c6_r_multi_bound_where_it_holds():
    small_dx = [_point_source_ratios(q, 1e-2)[1] for q in (0.5, 0.3, 0.1)]
    unbalanced = _point_source_ratios(0.1, 0.5)[1]
    report("6c (companion)",
           all(v <= 1.05 for v in small_dx) and unbalanced <= 1.1,
           f"r_multi(dx=0.01) <= {max(small_dx):.5f}; "
           f"r_multi(q=0.1, dx=0.5) = {unbalanced:.4f}")


F_DXDX_SMALL_SEPARATION = 0.113334      # F_dxdx at (x_c, q) = (0.2, 0.8) as dx -> 0


def _off_centre_point(dx):
    theta = np.array([0.2, dx, 0.8])
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(*theta))
    model, povm = point_source_model(cfg), optimal_povm_point_sources(cfg)
    return model, theta, povm


@pytest.mark.xfail(strict=True, reason=(
    "below dx ~ 1.2e-5 the outcomes v0 and v1 have p < P_CUTOFF and are "
    "dropped, although each carries a finite num^2/p ~ 0.0267 of F_dxdx = "
    "0.1133 as p -> 0: F_dxdx falls to 0.0600 (dx = 8e-6..1e-6), and at "
    "dx = 1.16e-5 the row is refused with SingularScoreError. ROADMAP item 14"))
def test_c6_small_separation_fisher_expected():
    F = fisher_bundle(*_off_centre_point(5e-6)).fisher[1, 1]
    report("6d (small-dx F, expected)",
           abs(F / F_DXDX_SMALL_SEPARATION - 1.0) <= 1e-4,
           f"F_dxdx(x_c=0.2, q=0.8, dx=5e-6) = {F:.6f}")


def test_c6_small_separation_fisher_measured():
    # F_dxdx holds its dx -> 0 value down to dx = 1.6e-5; at 1.16e-5 the
    # probability of v0 crosses P_CUTOFF while its numerator does not
    # cross sqrt(P_CUTOFF) max|d_j rho|, so the row is refused; further
    # down v0 and v1 are dropped and their share of F_dxdx is lost
    held = [fisher_bundle(*_off_centre_point(dx)).fisher[1, 1] for dx in (1e-3, 1e-4, 1.6e-5)]
    with pytest.raises(SingularScoreError, match="outcome v0"):
        fisher_bundle(*_off_centre_point(1.16e-5))
    dropped = [fisher_bundle(*_off_centre_point(dx)) for dx in (8e-6, 5e-6, 1e-6)]
    model, theta, povm = _off_centre_point(5e-6)
    rho, d_dx = model.state_at(theta), model.derivatives_at(theta)[1]
    lost = [np.trace(d_dx @ E).real ** 2 / np.trace(rho @ E).real
            for E in povm.elements[:2]]
    ok = (all(abs(F / F_DXDX_SMALL_SEPARATION - 1.0) <= 1e-4 for F in held)
          and all(b.kept_outcomes == (2, 3) for b in dropped)
          and all(abs(b.fisher[1, 1] / 0.0600 - 1.0) <= 1e-5 for b in dropped)
          and all(abs(v / 0.026667 - 1.0) <= 1e-4 for v in lost))
    report("6d (small-dx F, companion)", ok,
           "F_dxdx = " + ", ".join(f"{F:.6f}" for F in held) + " (dx = 1e-3..1.6e-5), "
           + ", ".join(f"{b.fisher[1, 1]:.6f}" for b in dropped) + " (dx = 8e-6..1e-6); "
           f"dropped v0, v1 carry num^2/p = {lost[0]:.6f}, {lost[1]:.6f}")


@pytest.fixture(scope="module")
def point_source_grid():
    start = time.perf_counter()
    rows = {}
    for q in (0.5, 0.3, 0.1):
        for dx in np.geomspace(0.01, 0.5, 10):
            model, theta, povm = _point_source_setup(q, dx)
            bundle = fisher_bundle(model, theta, povm)
            rows[(q, float(dx))] = (sigma_lower(bundle)[0], sigma_upper(bundle)[0])
    elapsed = time.perf_counter() - start
    return rows, elapsed


@pytest.mark.xfail(strict=True, reason=(
    "Sigma_L sits up to 6.4% below Sigma_U in a mid-separation band; at "
    "(q, dx) = (0.1, 0.136) the gap is 6.1% and the pair dual certificate "
    "proves Sigma = Sigma_L, so there the gap is the slack of Sigma_U. "
    "At q = 1/2 and dx >= 0.2 the certificate fails and the exact Sigma "
    "exceeds Sigma_L by at most 1.2e-4 (relative), so the gap stays. See "
    "README, 'Numerical findings'"))
def test_c7_gap_expected(point_source_grid):
    rows, _ = point_source_grid
    gaps = {k: (up - lo) / up for k, (lo, up) in rows.items()}
    worst_key = max(gaps, key=gaps.get)
    report("7 (gap, expected)", gaps[worst_key] < 0.01,
           f"max relative gap {gaps[worst_key]:.3e} at (q, dx) = {worst_key}")


def test_c7_certified_bound_is_attained(point_source_grid):
    # the exact worst case is attained by its explicit noise POVM; off
    # balance the pair certificate makes it Sigma_L itself (see
    # test_c7_pair_dual_certificate_holds_off_balance), while at (0.5, 0.2)
    # it lies above Sigma_L by a certified margin
    worst, excess = 0.0, {}
    for q, dx in ((0.5, 0.2), (0.3, 0.1), (0.1, 0.06)):
        model, theta, povm = _point_source_setup(q, dx)
        bundle = fisher_bundle(model, theta, povm)
        lo, _ = sigma_lower(bundle)
        exact = sigma_exact(bundle)
        worst = max(worst, abs(x_scalar(bundle, exact.noise) - exact.value) / exact.value,
                    exact.exact_gap / exact.value)
        excess[(q, dx)] = (exact.value - lo) / lo
    ok = (worst <= 1e-9 and excess[(0.3, 0.1)] == 0.0 == excess[(0.1, 0.06)]
          and 0.0 < excess[(0.5, 0.2)] < 1e-6)
    report("7 (attainment companion)", ok,
           f"max |X[M, N*] - Sigma|/Sigma and gap/Sigma = {worst:.2e}; "
           f"(Sigma - Sigma_L)/Sigma_L = {excess[(0.5, 0.2)]:.2e} at (0.5, 0.2)")


def test_c7_pair_dual_certificate_holds_off_balance():
    # Y = K_b + (K_a - K_b)_+ on the best pair (a, b) has Tr Y = Sigma_L - P
    # and Y >= K_a, K_b; if also Y >= K_c for every other kept c, then
    # X[M, N] <= P + Tr Y for every noise, so Sigma = Sigma_L
    violation = {}
    for q, dx in ((0.5, 0.2), (0.3, 0.1), (0.1, 0.06)):
        model, theta, povm = _point_source_setup(q, dx)
        bundle = fisher_bundle(model, theta, povm)
        (a, b), _ = bundle.pair_bounds.best_pair
        K = bundle.k_operators
        w, U = np.linalg.eigh(K[a] - K[b])
        Y = K[b] + (U * np.maximum(w, 0.0)) @ U.conj().T
        worst = max(np.linalg.eigvalsh(K[c] - Y)[-1]
                    for c in range(len(K)) if c not in (a, b))
        violation[(q, dx)] = worst / np.max(np.abs(np.linalg.eigvalsh(K)))
    # measured: +2.7e-7, -2.9e-7, -5.6e-9 of max|lambda(K)|
    report("7 (pair certificate)",
           violation[(0.5, 0.2)] >= 1e-8 and violation[(0.3, 0.1)] <= 1e-12
           and violation[(0.1, 0.06)] <= 1e-12,
           "max_c lambda_max(K_c - Y) / max|lambda(K)| = " +
           ", ".join(f"{v:+.1e} at {k}" for k, v in violation.items()))


def test_c7_divergence_and_runtime(point_source_grid):
    rows, elapsed = point_source_grid
    small = rows[(0.5, 0.01)][0]
    large = rows[(0.5, 0.5)][0]
    report("7 (divergence)", small / large >= 5.0 and elapsed < 60.0,
           f"Sigma_L(dx=0.01)/Sigma_L(dx=0.5) = {small / large:.0f} at q=0.5; "
           f"grid took {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: property suite
# ---------------------------------------------------------------------------

def _random_instance(rng):
    """Random mixed state, traceless Hermitian derivatives, random POVM."""
    dim = int(rng.integers(2, 5))
    n_params = int(rng.integers(2, 4))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = G @ G.conj().T
    rho /= np.real(np.trace(rho))
    derivs = []
    for _ in range(n_params):
        H = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (H + H.conj().T) / 2.0
        H -= np.real(np.trace(H)) / dim * np.eye(dim)
        derivs.append(0.3 * H)
    n_outcomes = int(rng.integers(n_params + 2, 7))
    raws = []
    for _ in range(n_outcomes):
        z = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        raws.append((q * rng.uniform(0.05, 1.0, dim)) @ q.conj().T)
    total = sum(raws)
    w, V = np.linalg.eigh(total)
    inv_sqrt = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    povm = Povm([hermitize(inv_sqrt @ R @ inv_sqrt) for R in raws])
    model = StatisticalModel(
        dim, tuple(f"t{j}" for j in range(n_params)),
        lambda v, rho=rho: rho,
        derivative_fn=lambda v, derivs=derivs: list(derivs))
    return model, np.zeros(n_params), povm


def test_c8_property_suite():
    start = time.perf_counter()
    checks = []

    qubit = qubit_phase_dephasing()
    theta = np.array([PHI, 0.3])
    sep = separable_povm()
    bundle = fisher_bundle(qubit, theta, sep)

    x_self = x_scalar(bundle, sep)
    checks.append(("X[M,M] = 0 (1e-9)", abs(x_self) <= 1e-9, f"{x_self:.2e}"))

    noise = Povm([np.eye(2) / 4.0] * 4)
    x0 = x_scalar(bundle, noise)
    tr_gap = abs(x0 - float(np.trace(xi_matrix(bundle, noise))))
    checks.append(("tr Xi = X (1e-10)", tr_gap <= 1e-10, f"{tr_gap:.2e}"))

    rng = np.random.default_rng(99)
    worst_reparam = 0.0
    for _ in range(5):
        J = rng.standard_normal((2, 2))
        while abs(np.linalg.det(J)) < 0.2:
            J = rng.standard_normal((2, 2))
        x1 = x_scalar(_reparametrized_bundle(bundle, J), noise)
        worst_reparam = max(worst_reparam, abs(x1 - x0))
    checks.append(("X reparametrization invariant (1e-8)",
                   worst_reparam <= 1e-8, f"{worst_reparam:.2e}"))

    Q = qfi_matrix(qubit, theta)
    min_eig = float(np.linalg.eigvalsh(Q - bundle.fisher)[0])
    checks.append(("Q - F PSD (min eig >= -1e-8)", min_eig >= -1e-8,
                   f"{min_eig:.2e}"))

    L = [sld(bundle.rho, d) for d in bundle.derivatives]
    wc = weak_commutativity(bundle.rho, L[0], L[1])
    checks.append(("qubit weak commutativity (1e-9)", wc <= 1e-9, f"{wc:.2e}"))

    errors = [abs(x_finite_mix(qubit, theta, sep, noise, eps) - x0)
              for eps in (1e-2, 1e-3, 1e-4)]
    ratios = [e / eps for e, eps in zip(errors, (1e-2, 1e-3, 1e-4))]
    linear = errors[0] > errors[1] > errors[2] and max(ratios) / min(ratios) < 1.5
    checks.append(("finite-eps determinant quotient converges linearly",
                   linear, f"error/eps in [{min(ratios):.2f}, {max(ratios):.2f}]"))

    rng = np.random.default_rng(2024)
    sandwich_ok, worst_margin = True, np.inf
    for k in range(20):
        model, th, povm = _random_instance(rng)
        try:
            bundle = fisher_bundle(model, th, povm)
            lo, _ = sigma_lower(bundle)
        except ValueError:
            model, th, povm = _random_instance(rng)
            bundle = fisher_bundle(model, th, povm)
            lo, _ = sigma_lower(bundle)
        up, _ = sigma_upper(bundle)
        exact = sigma_exact(bundle)
        sandwich_ok &= lo <= exact.value <= up + exact.exact_gap
        sandwich_ok &= exact.exact_gap <= 1e-8 * exact.value
        worst_margin = min(worst_margin, exact.value - lo, up - exact.value)
    checks.append(("Sigma_L <= Sigma <= Sigma_U + gap, gap <= 1e-8 Sigma, on 20 "
                   "random instances", sandwich_ok, f"worst margin {worst_margin:.2e}"))

    def phase_only(v):
        e = np.exp(-1j * v[0] - 0.3)
        return 0.5 * np.array([[1.0, e], [np.conj(e), 1.0]])

    def phase_only_d(v):
        e = np.exp(-1j * v[0] - 0.3)
        return [0.5 * np.array([[0.0, -1j * e], [np.conj(-1j * e), 0.0]])]

    p1 = StatisticalModel(2, ("phi",), phase_only, derivative_fn=phase_only_d)
    bundle = fisher_bundle(p1, np.array([1.1]), sep)
    sg = sigma_single(bundle)
    lo1, _ = sigma_lower(bundle)
    up1, _ = sigma_upper(bundle)
    collapse = max(abs(lo1 - sg), abs(up1 - sg))
    checks.append(("P=1 collapse Sigma_L = Sigma_U = sigma (1e-10)",
                   collapse <= 1e-10, f"{collapse:.2e}"))

    gram_w = float(np.max(np.abs(POINT_SOURCE_WEIGHTS @ POINT_SOURCE_WEIGHTS.T
                                 - np.eye(4))))
    from scipy.integrate import quad
    from fisusc.models import _hg_mode
    gram_modes = 0.0
    for n in range(4):
        for m in range(n, 4):
            val, _ = quad(lambda x, n=n, m=m: _hg_mode(n, x, 0.0)
                          * _hg_mode(m, x, 0.0), -12.0, 12.0,
                          epsabs=1e-13, limit=200)
            gram_modes = max(gram_modes, abs(val - (1.0 if n == m else 0.0)))
    checks.append(("HG orthonormality and w w^T = I (1e-12)",
                   gram_w <= 1e-12 and gram_modes <= 1e-12,
                   f"w: {gram_w:.2e}, modes: {gram_modes:.2e}"))

    elapsed = time.perf_counter() - start
    all_ok = all(ok for _, ok, _ in checks) and elapsed < 30.0
    lines = "; ".join(f"{name}: {'ok' if ok else 'FAIL'} ({detail})"
                      for name, ok, detail in checks)
    report("8", all_ok, f"{lines}; total {elapsed:.1f}s")
