"""The point-source model evaluated in its rank-4 frame.

Every operator of a point-source point is ``B S B^T`` with the d x 4 frame
``B = [c+, c-, g+, g-]``.  These tests pin the frame path against exact
physics (the separation QFI) and against a dense twin of the model that
hands the same operators to the d x d path.
"""

import numpy as np
import pytest

import fisusc.fisher as fisher
import fisusc.linalg as linalg
import fisusc.susceptibility as susceptibility
import fisusc.sweep as sweep
from fisusc.fisher import (P_CUTOFF, SUPPORT_RTOL, SingularFisherError, SingularScoreError,
                           _support, _support_basis, fisher_bundle, qfi_matrix)
from fisusc.linalg import _lift
from fisusc.model import DomainError, StatisticalModel
from fisusc.models import (PointSourceConfig, optimal_povm_point_sources,
                           point_source_model, x_opt)
from fisusc.susceptibility import g_matrix, sigma_exact, sigma_lower, sigma_upper, x_scalar
from fisusc.sweep import SweepSpec, evaluate_point

README_FIXED = {"x_c": 0.0, "q": 0.3}


def dx_spec(fixed, n_max, oracle_samples=0):
    # the README point-source sweep: dx from 0.01 to 1 on 50 log points
    return SweepSpec(model="point-sources", measurement="optimal-hg", fixed=fixed,
                     sweep_name="dx", start=0.01, stop=1.0, count=50,
                     oracle_samples=oracle_samples, n_max=n_max)


def support_basis(model, theta):
    """V of `_support` on the stack of the point's frame cores."""
    B, rho, derivs = model.frame_at(theta)
    return _support(B, np.stack((rho, *derivs)))[0]


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
    # the dense state and derivatives are the lift of the frame
    np.testing.assert_array_equal(_lift(B, rho), model.state_at(theta))
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
        bundles = [fisher_bundle(m, theta, povm) for m in (model, dense_twin(model))]
        assert [b.support[1].shape[0] for b in bundles] == [4, 4]
        assert bundles[0].kept_outcomes == bundles[1].kept_outcomes
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
        fisher_bundle(model, theta, povm).fisher_inverse
    return type(err.value), str(err.value)


def test_frame_path_refuses_like_the_dense_twin(monkeypatch):
    # dx = 0: both sources coincide, the frame has rank 2 and F is singular
    theta = np.array([0.0, 0.0, 0.3])
    model, povm = point(theta, 20)
    twin = dense_twin(model)
    assert support_basis(model, theta).shape == (21, 2)
    assert support_basis(twin, theta).shape == (21, 2)
    kind, text = refusal(model, theta, povm)
    assert kind is SingularFisherError and (kind, text) == refusal(twin, theta, povm)
    # the sweep row writes F and Q before F^-1 refuses, on both paths
    spec = SweepSpec(model="point-sources", measurement="optimal-hg", fixed=README_FIXED,
                     sweep_name="dx", start=0.0, stop=1.0, count=2, scale="linear",
                     oracle_samples=1)
    rows = [evaluate_point(spec, 0, 0.0)]
    monkeypatch.setattr(sweep, "point_source_model",
                        lambda cfg: dense_twin(point_source_model(cfg)))
    rows.append(evaluate_point(spec, 0, 0.0))
    matrix_keys = [k for k in rows[0] if k.startswith(MATRIX_COLUMNS)]
    for row in rows:
        assert row["error"] == text
        assert [k for k, v in row.items() if v != "" and k != "error"] == [
            "sweep_value"] + matrix_keys
    scale = max(abs(rows[1][k]) for k in matrix_keys)
    for k in matrix_keys:
        assert abs(rows[0][k] - rows[1][k]) <= 1e-10 * scale, k
    # q = 1e-6 on the README grid: the rest outcome's score diverges
    grid = dx_spec(README_FIXED, 20).grid()
    theta = np.array([0.0, grid[np.argmin(np.abs(grid - 0.4715))], 1e-6])
    model, povm = point(theta, 48)
    kind, text = refusal(model, theta, povm)
    assert kind is SingularScoreError and (kind, text) == refusal(dense_twin(model), theta, povm)


@pytest.mark.parametrize("n_max, values, n_dropping",
                         [(20, dx_spec(README_FIXED, 20).grid(), 30), (48, [0.01], 1)],
                         ids=["readme-20", "readme-48"])
def test_score_limits_lift_the_derivative_cores_alone(monkeypatch, n_max, values, n_dropping):
    # a point with an outcome below P_CUTOFF (30 of the 50 README rows, the
    # rest outcome at dx <= 0.15) lifts its P derivative cores once, for the
    # score-refusal limits, and leaves the model's lift unbuilt; each limit
    # has the bits of the one read off the model's d x d derivatives
    lifts, lift = [], fisher._lift
    monkeypatch.setattr(fisher, "_lift", lambda B, S: lifts.append(lift(B, S)) or lifts[-1])
    dropping = 0
    for dx in values:
        theta = np.array([0.0, dx, 0.3])
        model, povm = point(theta, n_max)
        lifts.clear()
        bundle = fisher_bundle(model, theta, povm)
        assert model._record[3] is None       # the lift's view triple is unbuilt
        if bundle.probabilities.min() >= P_CUTOFF:
            assert lifts == []
            continue
        dropping += 1
        assert len(lifts) == 1 and lifts[0].shape == (3, n_max + 1, n_max + 1)
        limits = np.sqrt(P_CUTOFF) * np.max(np.abs(lifts[0]), axis=(1, 2))
        full = np.asarray(model.derivatives_at(theta))
        want = np.sqrt(P_CUTOFF) * np.max(np.abs(full), axis=(1, 2))
        assert limits.tobytes() == want.tobytes()
    assert dropping == n_dropping


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
    ops = np.stack((op(lam), op(mu)))
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
    # a frame's state core has rank 2, so the dense full-rank test, one
    # eigh of the d x d state, is not tried; no point takes a Cholesky
    calls, eighs = [], []
    cholesky, eigh = linalg.cholesky, linalg.eigh
    monkeypatch.setattr(linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    monkeypatch.setattr(linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
    for n_max in (20, 48):
        spec = dx_spec(README_FIXED, n_max, oracle_samples=1)
        for v in spec.grid()[::7]:
            assert evaluate_point(spec, 0, v)["error"] == ""
    assert calls == [] and eighs and all(shape[-1] <= 4 for shape in eighs)
    theta = np.array([0.0, 0.1, 0.3])
    model, povm = point(theta, 20)
    assert fisher_bundle(model, theta, povm).rho_eigh is None
    # the dense qubit points take the full-rank test on their state, and
    # their SLDs reuse its eigh
    qubit = SweepSpec(model="phase-dephasing", measurement="separable",
                      fixed={"phi": 0.7853981633974483}, sweep_name="delta",
                      start=0.001, stop=1.0, count=5)
    eighs.clear()
    assert evaluate_point(qubit, 0, 0.3)["error"] == "" and calls == []
    assert eighs.count((2, 2)) == 1


def _random_dense_point(rng, dim, low, confined):
    """A state of dimension ``dim`` whose smallest eigenvalue is ``low`` times
    its largest, in a random complex basis, and two random derivatives;
    ``confined`` derivatives leave out the eigenvector of ``low``."""
    basis = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))[0]
    w = np.concatenate(([low], rng.uniform(low, 1.0, dim - 2), [1.0]))
    rho = (basis * (w / w.sum())) @ basis.conj().T
    B = basis[:, 1:] if confined else basis
    k = B.shape[1]
    z = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
    return rho, tuple(B @ (z + z.conj().swapaxes(-1, -2)) @ B.conj().T)


def test_dense_support_test_accepts_only_full_rank_states(monkeypatch):
    # the eigenvalue test w_min > SUPPORT_RTOL w_max settles a dense state
    # as full rank, and every state it refuses goes to the SVD search
    # (_support_basis).  The two cut different quantities: the search
    # scales each operator to unit max entry, so a state it cuts has
    # w_min / w_max <= SUPPORT_RTOL sqrt(n) d for n operators in d
    # dimensions, and in that band above the cut the eigenvalue test keeps
    # the whole space, which always holds the joint range (the old Cholesky
    # test, looser still, kept it too).  Everywhere else the eigenvalue
    # test accepts only states the search calls full rank.  Rank-deficient
    # states: confined derivatives, a pure qubit state and the two-copy
    # Bell state at delta = 1e-9
    searched, basis = [], fisher._support_basis
    monkeypatch.setattr(fisher, "_support_basis", lambda ops: searched.append(1) or basis(ops))
    rng = np.random.default_rng(11)
    points = [_random_dense_point(rng, dim, low, confined) for dim in (2, 3, 4)
              for low in np.geomspace(1.0, 1e-17, 35) for confined in (False, True)]
    pure = np.array([[1.0, 1.0], [1.0, 1.0]]) / 2
    points.append((pure, (np.array([[0.0, 1.0], [1.0, 0.0]]),)))
    bell = sweep.build_model_povm("phase-dephasing", "bell", np.array([0.3, 1e-9]))[0]
    points.append(bell.frame_at(np.array([0.3, 1e-9]))[1:])
    fast = []
    for rho, derivs in points:
        searched.clear()
        ops = np.stack((rho, *derivs))
        V, ops_s, eig = _support(None, ops)
        fast.append(not searched)       # settled by the eigenvalue test
        U = basis(ops)
        w = np.linalg.eigvalsh(rho)
        if fast[-1] and U is not None:
            assert w[0] <= SUPPORT_RTOL * np.sqrt(1 + len(derivs)) * len(rho) * w[-1]
        if U is None or fast[-1]:       # the whole space: the eigh is kept
            assert np.array_equal(V, np.eye(len(rho))) and ops_s is ops
            assert [a.tobytes() for a in eig] == [a.tobytes() for a in np.linalg.eigh(rho)]
        else:
            assert eig is None and V.shape[1] == U.shape[1] < len(rho)
    assert fast[-2:] == [False, False] and 0 < sum(fast) < len(points) - 2


@pytest.mark.parametrize("measurement", ["separable", "bell"])
def test_readme_qubit_rows_are_settled_by_the_eigenvalue_test(monkeypatch, measurement):
    # every row of the README qubit sweeps is full rank by w_min > SUPPORT_RTOL
    # w_max, with no SVD, and its SLDs reuse that eigh
    searched, svds, basis, svd = [], [], fisher._support_basis, np.linalg.svd
    monkeypatch.setattr(fisher, "_support_basis", lambda ops: searched.append(1) or basis(ops))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    spec = SweepSpec(model="phase-dephasing", measurement=measurement,
                     fixed={"phi": 0.7853981633974483}, sweep_name="delta",
                     start=0.001, stop=1.0, count=50)
    for v in spec.grid():
        theta = sweep._theta_for(spec, v)
        model, povm, _ = sweep.build_model_povm(spec.model, spec.measurement, theta)
        bundle = fisher_bundle(model, theta, povm)
        assert bundle.rho_eigh is not None
        assert bundle.qfi.tobytes() == fisher._eigen_slds(*bundle.support[1:])[2].tobytes()
    assert searched == [] and svds == []


@pytest.mark.parametrize("n_max", [20, 48])
def test_pair_certified_worst_case_needs_no_spectrum_of_k(monkeypatch, n_max):
    # max|K_xy| <= max|lambda(K)| decides every pair-certified row of the
    # q = 0.5 sweep; eigvalsh(K) runs only where the interior-point method does
    stacks, eigvalsh = [], linalg.eigvalsh
    monkeypatch.setattr(linalg, "eigvalsh", lambda a: stacks.append(a) or eigvalsh(a))
    spec = dx_spec({"x_c": 0.0, "q": 0.5}, n_max)
    certified = 0
    for v in spec.grid():
        theta = sweep._theta_for(spec, v)
        model, povm = point(theta, n_max)
        bundle = fisher_bundle(model, theta, povm)
        K = bundle.pair_bounds.k_operators
        stacks.clear()
        exact = sigma_exact(bundle)
        assert any(a is K for a in stacks) == (not exact.pair_certified)
        certified += exact.pair_certified
    assert certified == 32


@pytest.mark.parametrize("fixed, value", [(README_FIXED, 0.5), ({"x_c": 0.2, "q": 0.7}, 0.03)])
def test_q_is_one_evaluation_on_every_route(monkeypatch, fixed, value):
    # a sweep row, qfi_matrix and show-model read Q off the same support of
    # the same frame, so analytic zeros come out as the same rounding; the
    # dense twin (rank-4 support in d = 21) follows the same rule
    spec = dx_spec(fixed, 20)
    theta = sweep._theta_for(spec, value)
    model = point(theta, 20)[0]
    twin = dense_twin(model)
    assert support_basis(twin, theta).shape == (21, 4)
    rows = [evaluate_point(spec, 0, value)]
    monkeypatch.setattr(sweep, "point_source_model",
                        lambda cfg: dense_twin(point_source_model(cfg)))
    rows.append(evaluate_point(spec, 0, value))
    names = ("x_c", "dx", "q")
    for row, m in zip(rows, (model, twin)):
        Q = qfi_matrix(m, theta)
        for i in range(3):
            for j in range(i, 3):
                assert row[f"Q_{names[i]}_{names[j]}"] == Q[i, j]


def test_one_kernel_serves_every_susceptibility_of_a_point(monkeypatch):
    # Sigma_L, Sigma_U and the exact worst case of a point-source point read
    # one kernel call, on the (1 + P) stack of F^-1 and the three frame
    # contractions; x_scalar and g_matrix, read after them, make one call on
    # F^-1 alone, which has the bits of the stack's first member
    theta = np.array([0.0, 0.3, 0.3])
    model, povm = point(theta, 20)
    bundle = fisher_bundle(model, theta, povm)
    calls, kernel = [], susceptibility._k_operators
    monkeypatch.setattr(susceptibility, "_k_operators",
                        lambda b, C=None: calls.append(None if C is None else C.shape)
                        or kernel(b, C))
    exact = sigma_exact(bundle)
    x = x_scalar(bundle, exact.noise)
    g_matrix(bundle, exact.noise)
    lower = sigma_lower(bundle)[0]
    upper = sigma_upper(bundle)[0]
    assert calls == [(4, 3, 3), None]
    assert bundle.k_operators.shape == (5, 4, 4)
    assert bundle.k_operators.tobytes() == bundle.pair_bounds.k_operators.tobytes()
    assert exact.noise.dim == 21 and lower <= exact.value <= upper
    assert x == pytest.approx(exact.value, rel=1e-10)
