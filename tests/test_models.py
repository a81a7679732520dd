import numpy as np
import pytest

from fisusc.fisher import fisher_bundle, qfi_matrix, r_metric
from fisusc.model import DomainError, tensor_model, validate_povm
from fisusc.models import (POINT_SOURCE_WEIGHTS, PointSourceConfig,
                           bell_povm, hg_overlap,
                           hg_overlap_closed_form, optimal_povm_point_sources,
                           point_source_model, qubit_phase_dephasing,
                           separable_povm, x_opt, _sqrt_factorials)


def test_qubit_off_diagonal_value():
    model = qubit_phase_dephasing()
    rho = model.state_at([0.0, 0.3])
    assert rho[0, 1] == pytest.approx(np.exp(-0.3) / 2.0, abs=1e-14)
    assert rho[0, 1].real == pytest.approx(0.3704, abs=2e-4)


def test_qubit_eigenvalues_and_purity():
    delta = 0.45
    model = qubit_phase_dephasing()
    rho = model.state_at([1.3, delta])
    w = np.linalg.eigvalsh(rho)
    np.testing.assert_allclose(np.sort(w),
                               np.sort([(1 - np.exp(-delta)) / 2,
                                        (1 + np.exp(-delta)) / 2]), atol=1e-12)
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity == pytest.approx((1 + np.exp(-2 * delta)) / 2, abs=1e-12)
    # pure-state limit
    rho0 = model.state_at([1.3, 1e-9])
    assert np.real(np.trace(rho0 @ rho0)) == pytest.approx(1.0, abs=1e-8)


def test_separable_povm_properties():
    povm = separable_povm()
    report = validate_povm(povm, 1e-15)
    assert report.passed
    for E in povm.elements:
        assert np.trace(E) == pytest.approx(0.5, abs=1e-14)
        assert np.linalg.eigvalsh(E)[0] >= -1e-15
    # maximally mixed limit: uniform outcome probabilities
    model = qubit_phase_dephasing()
    rho = model.state_at([0.0, 40.0])
    probs = [np.real(np.trace(rho @ E)) for E in povm.elements]
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)
    # p(+x) at phi = 0 approaches 1/2 in the pure limit
    rho0 = model.state_at([0.0, 1e-9])
    assert np.real(np.trace(rho0 @ povm.elements[0])) == pytest.approx(0.5, abs=1e-9)


def test_bell_povm_properties():
    povm = bell_povm()
    assert validate_povm(povm, 1e-15).passed
    assert povm.dim == 4
    for E in povm.elements:
        w = np.linalg.eigvalsh(E)
        np.testing.assert_allclose(np.sort(w), [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_bell_r_metric_limit():
    model = qubit_phase_dephasing()
    double = tensor_model(model, 2)
    delta = 1e-4
    theta = [np.pi / 4, delta]
    F = fisher_bundle(double, theta, bell_povm()).fisher
    Q1 = qfi_matrix(model, theta).qfi
    assert r_metric(F, Q1, m=2) == pytest.approx(1.0, abs=1e-3)


def test_hg_overlap_basics():
    assert hg_overlap(0, 0.4, 0.4) == pytest.approx(1.0, abs=1e-12)
    # odd modes vanish by parity when the PSF sits at the mode center
    for n in (1, 3, 5):
        assert abs(hg_overlap(n, -0.7, -0.7)) <= 1e-12
    with pytest.raises(ValueError):
        hg_overlap(-1, 0.0)


def test_hg_overlap_completeness():
    d = 1.0
    coeffs = [hg_overlap(n, d, 0.0) for n in range(18)]
    assert np.sum(np.square(coeffs)) == pytest.approx(1.0, abs=1e-10)


def test_hg_overlap_quadrature_vs_closed_form():
    # up to the largest n_max a shipped sweep uses
    for n in range(49):
        for d in (-3.0, -1.2, -0.3, 0.0, 0.4, 1.7, 3.0):
            quad_value = hg_overlap(n, 0.5 + d, 0.5)
            closed = float(hg_overlap_closed_form(n, 0.5 + d, 0.5))
            assert abs(quad_value - closed) <= 1e-14


@pytest.mark.parametrize("n", [154, 160, 170])
def test_hg_overlap_stays_finite_up_to_the_largest_n_max(n):
    # the mode's recurrence has no 2^n n! to overflow, which had made the
    # quadrature read 0.0 from n = 154 on
    for x0 in (-3.0, 0.4, 2.1, 10.0, 30.0):
        closed = float(hg_overlap_closed_form(n, x0))
        assert hg_overlap(n, x0) == pytest.approx(closed, rel=1e-10, abs=1e-14)
    assert hg_overlap(n, 30.0) > 1e-4


def test_point_source_config():
    assert PointSourceConfig(n_max=20, x_m=0.2).x_m == 0.2
    with pytest.raises(TypeError):
        PointSourceConfig(n_max=20)
    with pytest.raises(ValueError):
        PointSourceConfig(n_max=2, x_m=0.0)


@pytest.mark.parametrize("x_m", [np.nan, np.inf])
def test_point_source_config_refuses_a_non_finite_alignment(x_m):
    with pytest.raises(ValueError, match="x_m must be finite"):
        PointSourceConfig(n_max=20, x_m=x_m)


def test_point_source_config_refuses_a_non_integral_n_max():
    with pytest.raises(ValueError, match="n_max must be an integer"):
        PointSourceConfig(n_max=20.5, x_m=0.0)
    assert PointSourceConfig(n_max=np.int64(20), x_m=0.0).n_max == 20


def test_point_source_nan_point_is_a_domain_error():
    # the model refuses the non-finite point before its frame function runs;
    # that function's truncation test still fails NaN coefficients by itself,
    # instead of letting them reach an SVD
    model = point_source_model(PointSourceConfig(n_max=20, x_m=0.0))
    with pytest.raises(DomainError, match="outside the model domain"):
        model.frame_at([np.nan, 0.5, 0.3])
    with pytest.raises(DomainError, match="truncation leakage nan"):
        model._frame_fn(np.array([np.nan, 0.5, 0.3]))


def test_point_source_n_max_stops_where_factorials_stay_finite():
    # 170! is the largest factorial below the double range
    cfg = PointSourceConfig(n_max=170, x_m=0.0)
    B, rho, derivs = point_source_model(cfg).frame_at([0.0, 0.5, 0.3])
    assert B.shape == (171, 4) and np.all(np.isfinite(B))
    assert abs(np.trace(B @ rho @ B.T) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="170"):
        PointSourceConfig(n_max=171, x_m=0.0)


def test_x_opt_centroid():
    assert x_opt(0.3, 0.8, 0.5) == pytest.approx(0.3)
    assert x_opt(0.0, 1.0, 0.75) == pytest.approx(0.25)


def test_point_source_trace_and_leakage():
    cfg = PointSourceConfig(n_max=20, x_m=x_opt(0.0, 0.5, 0.3))
    model = point_source_model(cfg)
    rho = model.state_at([0.0, 0.5, 0.3])
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-9)
    # a too-small basis for a large displacement must refuse
    tight = point_source_model(PointSourceConfig(n_max=3, x_m=0.0))
    with pytest.raises(DomainError) as err:
        tight.state_at([3.0, 0.1, 0.5])
    assert "n_max" in str(err.value)


def test_point_source_state_is_built_from_the_closed_form():
    # sqrt(n!) is computed once per n_max and shared by every model of it;
    # the state is bit-identical to the closed-form coefficients
    x_c, dx, q = 0.1, 0.3, 0.4
    cfg = PointSourceConfig(n_max=20, x_m=0.02)
    modes = np.arange(21)
    c_plus = hg_overlap_closed_form(modes, 0.02 + (x_c + dx / 2 - 0.02), 0.02)
    c_minus = hg_overlap_closed_form(modes, 0.02 + (x_c - dx / 2 - 0.02), 0.02)
    expected = q * np.outer(c_plus, c_plus) + (1 - q) * np.outer(c_minus, c_minus)
    for _ in range(2):
        np.testing.assert_array_equal(point_source_model(cfg).state_at([x_c, dx, q]),
                                      expected)
    assert _sqrt_factorials(20) is _sqrt_factorials(20)
    assert not _sqrt_factorials(20).flags.writeable


def test_point_source_parity_blocks_at_balanced_intensity():
    # q = 1/2 with the measurement at the centroid: even/odd sectors decouple
    cfg = PointSourceConfig(n_max=12, x_m=0.0)
    model = point_source_model(cfg)
    rho = model.state_at([0.0, 0.6, 0.5])
    n = np.arange(13)
    even, odd = n[n % 2 == 0], n[n % 2 == 1]
    assert np.max(np.abs(rho[np.ix_(even, odd)])) <= 1e-14


def test_point_source_analytic_vs_finite_difference():
    cfg = PointSourceConfig(n_max=20, x_m=0.05)
    model = point_source_model(cfg)
    theta = np.array([0.13, 0.37, 0.41])
    analytic = model.derivatives_at(theta)
    h = 1e-6
    for j in range(3):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (model.state_at(up) - model.state_at(dn)) / (2 * h)
        assert np.max(np.abs(analytic[j] - fd)) <= 1e-9


def test_point_source_domain():
    model = point_source_model(PointSourceConfig(n_max=20, x_m=0.0))
    with pytest.raises(DomainError):
        model.state_at([0.0, -0.1, 0.5])
    with pytest.raises(DomainError):
        model.state_at([0.0, 0.1, 1.0])


def test_weight_matrix_orthonormal():
    gram = POINT_SOURCE_WEIGHTS @ POINT_SOURCE_WEIGHTS.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_optimal_povm_structure():
    cfg = PointSourceConfig(n_max=20, x_m=0.15)
    povm = optimal_povm_point_sources(cfg)
    assert len(povm) == 5
    assert validate_povm(povm, 1e-9).passed
    # the remainder element is the projector onto modes >= 4
    remainder = povm.elements[4]
    np.testing.assert_allclose(remainder[:4, :4], 0.0, atol=1e-12)
    np.testing.assert_allclose(remainder[4:, 4:], np.eye(cfg.n_max - 3), atol=1e-12)


def test_optimal_povm_rejects_bad_weights():
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    corrupted = POINT_SOURCE_WEIGHTS.copy()
    corrupted[0, 0] = 0.5
    with pytest.raises(ValueError):
        optimal_povm_point_sources(cfg, weights=corrupted)


def test_truncation_convergence():
    # n_max = 8 leaves a visible tail at dx = 1.4, so the two truncations differ
    theta = np.array([0.0, 1.4, 0.3])
    results = {}
    for n_max in (8, 16):
        cfg = PointSourceConfig(n_max=n_max, x_m=x_opt(*theta))
        model = point_source_model(cfg)
        povm = optimal_povm_point_sources(cfg)
        F = fisher_bundle(model, theta, povm).fisher
        results[n_max] = F
    rel = np.max(np.abs(results[8] - results[16])) / np.max(np.abs(results[16]))
    assert 0 < rel < 1e-6
