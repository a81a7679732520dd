"""The point-source model evaluated in its rank-4 frame.

Every operator of a point-source point is ``B S B^T`` with the d x 4 frame
``B = [c+, c-, g+, g-]``.  These tests pin the frame path against exact
physics (the separation QFI) and against a dense twin of the model that
hands the same operators to the d x d path.
"""

import numpy as np
import pytest

import fisusc.fisher as fisher
import fisusc.sweep as sweep
from fisusc.fisher import (SUPPORT_RTOL, SingularFisherError, SingularScoreError,
                           _support, _support_basis, fisher_bundle, qfi_matrix)
from fisusc.linalg import _lift
from fisusc.model import DomainError, StatisticalModel
from fisusc.models import (PointSourceConfig, optimal_povm_point_sources,
                           point_source_model, x_opt)
from fisusc.susceptibility import sigma_exact, susceptibility_report
from fisusc.sweep import SweepSpec, evaluate_point

README_FIXED = {"x_c": 0.0, "q": 0.3}


def dx_spec(fixed, n_max, oracle_samples=0):
    # the README point-source sweep: dx from 0.01 to 1 on 50 log points
    return SweepSpec(model="point-sources", measurement="optimal-hg", fixed=fixed,
                     sweep_name="dx", start=0.01, stop=1.0, count=50,
                     oracle_samples=oracle_samples, n_max=n_max)


def dense_twin(model):
    """The model's dense operators behind the d x d path: no frame."""
    return StatisticalModel(model.dim, model.param_names, model.state_at,
                            derivative_fn=model.derivatives_at,
                            domain_fn=model._domain_fn)


def point(theta, n_max):
    cfg = PointSourceConfig(n_max=n_max, x_m=x_opt(*theta))
    return point_source_model(cfg), optimal_povm_point_sources(cfg)


def test_point_source_frame_is_checked_and_memoized():
    theta = np.array([0.1, 0.4, 0.3])
    model, _ = point(theta, 20)
    runs, frame_fn = [], model._frame_fn
    model._frame_fn = lambda values: runs.append(1) or frame_fn(values)
    B, rho, derivs = model.frame_at(theta)
    assert B.shape == (21, 4) and rho.shape == (4, 4) and len(derivs) == 3
    assert not B.flags.writeable and not rho.flags.writeable
    assert model.frame_at(theta.copy())[0] is B and len(runs) == 1
    # the dense operators are the frame's, the state the closed form's
    np.testing.assert_allclose(_lift(B, rho), model.state_at(theta), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(np.asarray(model.derivatives_at(theta)),
                                  _lift(B, np.asarray(derivs)))
    with pytest.raises(DomainError):
        model.frame_at([0.1, -0.4, 0.3])
    tight = point_source_model(PointSourceConfig(n_max=3, x_m=0.0))
    with pytest.raises(DomainError, match="n_max"):
        tight.frame_at([3.0, 0.1, 0.5])


@pytest.mark.parametrize("n_max", [20, 48])
@pytest.mark.parametrize("fixed", [README_FIXED, {"x_c": 0.7, "q": 0.8}])
def test_separation_qfi_is_exact(fixed, n_max):
    # a PSF of unit intensity variance carries Q_dx_dx = 1/4 about the
    # separation, whatever the centroid and the intensity ratio
    spec = dx_spec(fixed, n_max)
    rows = [evaluate_point(spec, 0, v) for v in spec.grid()]
    assert all(row["error"] == "" for row in rows)
    worst = max(abs(row["Q_dx_dx"] - 0.25) for row in rows)
    assert worst <= 1e-13 * 0.25, worst


MATRIX_COLUMNS = ("F_", "Q_")
VALUE_COLUMNS = ("r_multi", "r_nuisance_x_c", "r_nuisance_dx", "r_nuisance_q",
                 "sigma_lower", "sigma_upper", "oracle_best_X")


@pytest.mark.parametrize("fixed, n_max", [(README_FIXED, 20), (README_FIXED, 48),
                                          ({"x_c": 0.0, "q": 0.5}, 20)],
                         ids=["readme-20", "readme-48", "balanced-20"])
def test_frame_path_agrees_with_a_dense_twin(monkeypatch, fixed, n_max):
    # at q = 0.5 the rows with dx >= 0.2 need the interior-point method
    spec = dx_spec(fixed, n_max, oracle_samples=1)
    frame_rows = [evaluate_point(spec, 0, v) for v in spec.grid()]
    for v in spec.grid()[::7]:
        theta = sweep._theta_for(spec, v)
        model, povm = point(theta, n_max)
        reports = [susceptibility_report(fisher_bundle(m, theta, povm))
                   for m in (model, dense_twin(model))]
        assert [r.diagnostics["support_rank"] for r in reports] == [4, 4]
        assert reports[0].diagnostics["kept_outcomes"] == reports[1].diagnostics["kept_outcomes"]
    monkeypatch.setattr(sweep, "point_source_model",
                        lambda cfg: dense_twin(point_source_model(cfg)))
    dense_rows = [evaluate_point(spec, 0, v) for v in spec.grid()]
    for got, want in zip(frame_rows, dense_rows):
        assert got["error"] == want["error"] == ""
        for prefix in MATRIX_COLUMNS:
            keys = [k for k in want if k.startswith(prefix)]
            scale = max(abs(want[k]) for k in keys)
            for k in keys:
                assert abs(got[k] - want[k]) <= 1e-10 * scale, (k, got[k], want[k])
        for k in VALUE_COLUMNS:
            assert got[k] == pytest.approx(want[k], rel=1e-10), k


def refusal(model, theta, povm):
    with pytest.raises((SingularFisherError, SingularScoreError)) as err:
        fisher_bundle(model, theta, povm).on_support
    return type(err.value), str(err.value)


def test_frame_path_refuses_like_the_dense_twin():
    # dx = 0: both sources coincide, the frame has rank 2 and F is singular
    theta = np.array([0.0, 0.0, 0.3])
    model, povm = point(theta, 20)
    twin = dense_twin(model)
    assert _support(*model.frame_at(theta))[0].shape == (21, 2)
    assert _support(*twin.frame_at(theta))[0].shape == (21, 2)
    kind, text = refusal(model, theta, povm)
    assert kind is SingularFisherError and (kind, text) == refusal(twin, theta, povm)
    # q = 1e-6 on the README grid: the rest outcome's score diverges
    grid = dx_spec(README_FIXED, 20).grid()
    theta = np.array([0.0, grid[np.argmin(np.abs(grid - 0.4715))], 1e-6])
    model, povm = point(theta, 48)
    kind, text = refusal(model, theta, povm)
    assert kind is SingularScoreError and (kind, text) == refusal(dense_twin(model), theta, povm)


def test_support_search_never_sees_a_dense_point_source_operator(monkeypatch):
    seen = []
    search = fisher._support_basis

    def recording(ops):
        seen.append(np.shape(ops))
        return search(ops)

    monkeypatch.setattr(fisher, "_support_basis", recording)
    spec = dx_spec(README_FIXED, 48, oracle_samples=1)
    for v in spec.grid()[::10]:
        assert evaluate_point(spec, 0, v)["error"] == ""
    assert seen and set(seen) == {(4, 4, 4)}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("ratio, rank", [(1e-12, 4), (1e-14, 3)])
def test_support_basis_cuts_singular_values_at_the_relative_tolerance(ratio, rank, dtype):
    # a state and a derivative diagonal in one random basis of a 5-space,
    # with a null direction and a 4th direction only the state reaches: the
    # 4th singular value of the scaled stack sits at `ratio` of the largest
    rng = np.random.default_rng(7)
    z = rng.standard_normal((5, 5))
    if dtype is np.complex128:
        z = z + 1j * rng.standard_normal((5, 5))
    basis = np.linalg.qr(z)[0]

    def op(diagonal):
        return (basis * diagonal) @ basis.conj().T

    lam, mu = np.array([1.0, 0.5, 0.25, 0.0, 0.0]), np.array([0.3, -0.6, 0.2, 0.0, 0.0])
    a, b = np.max(np.abs(op(lam))), np.max(np.abs(op(mu)))
    lam[3] = ratio * a * np.sqrt(np.max(lam ** 2 / a ** 2 + mu ** 2 / b ** 2))
    ops = (op(lam), op(mu))
    sv = np.sqrt(lam ** 2 / np.max(np.abs(ops[0])) ** 2 + mu ** 2 / np.max(np.abs(ops[1])) ** 2)
    assert sv[3] / sv.max() == pytest.approx(ratio, rel=1e-3)
    assert ratio / 10 >= SUPPORT_RTOL or ratio * 10 <= SUPPORT_RTOL
    U = _support_basis(ops)
    assert U.shape == (5, rank) and U.dtype == dtype
    np.testing.assert_allclose(U.conj().T @ U, np.eye(rank), atol=1e-12)
    # the three well-separated directions lie in the range to rounding (the
    # 4th is resolved only to about eps / ratio from the null direction)
    leak = basis[:, :3] - U @ (U.conj().T @ basis[:, :3])
    assert np.max(np.abs(leak)) <= 1e-12


def test_point_source_points_make_no_cholesky_call(monkeypatch):
    # a frame's state core has rank 2, so the dense full-rank test is not tried
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    for n_max in (20, 48):
        spec = dx_spec(README_FIXED, n_max, oracle_samples=1)
        for v in spec.grid()[::7]:
            assert evaluate_point(spec, 0, v)["error"] == ""
    assert calls == []
    # the dense qubit points still take the full-rank test
    qubit = SweepSpec(model="phase-dephasing", measurement="separable",
                      fixed={"phi": 0.7853981633974483}, sweep_name="delta",
                      start=0.001, stop=1.0, count=5)
    assert evaluate_point(qubit, 0, 0.3)["error"] == "" and calls


@pytest.mark.parametrize("n_max", [20, 48])
def test_pair_certified_worst_case_needs_no_spectrum_of_k(monkeypatch, n_max):
    # max|K_xy| <= max|lambda(K)| decides every pair-certified row of the
    # q = 0.5 sweep; eigvalsh(K) runs only where the interior-point method does
    stacks, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a) or eigvalsh(a))
    spec = dx_spec({"x_c": 0.0, "q": 0.5}, n_max)
    certified = 0
    for v in spec.grid():
        theta = sweep._theta_for(spec, v)
        model, povm = point(theta, n_max)
        bundle = fisher_bundle(model, theta, povm)
        K = bundle.on_support[1].k_operators
        stacks.clear()
        exact = sigma_exact(bundle)
        assert any(a is K for a in stacks) == (not exact.pair_certified)
        certified += exact.pair_certified
    assert certified == 32


@pytest.mark.parametrize("fixed, value", [(README_FIXED, 0.5), ({"x_c": 0.2, "q": 0.7}, 0.03)])
def test_q_is_one_evaluation_on_every_route(fixed, value):
    # a sweep row, qfi_matrix and show-model read Q off the same support of
    # the same frame, so analytic zeros come out as the same rounding
    spec = dx_spec(fixed, 20)
    row = evaluate_point(spec, 0, value)
    theta = sweep._theta_for(spec, value)
    Q = qfi_matrix(point(theta, 20)[0], theta).qfi
    names = ("x_c", "dx", "q")
    for i in range(3):
        for j in range(i, 3):
            assert row[f"Q_{names[i]}_{names[j]}"] == Q[i, j]
