"""The verify checks that batch their own algebra by matrix shape.

`check_eig_reconstruction` and `check_model_states` take their eigensolves
once per shape, on the stacked instances, and `_random_hermitian` returns
``_sym(z)`` without a second symmetrization.  The references below are the
per-instance loops they replace: each check must return the same
``(passed, detail)`` on every seed, and still fail on one bad stack member.
"""

import numpy as np
import pytest

import fisusc.linalg as linalg
import fisusc.verify as verify
from fisusc.linalg import _sym, hermitize
from fisusc.models import PointSourceConfig, point_source_model

SEEDS = list(range(200)) + [1000 * k + j for k in range(1, 6) for j in range(5)]


def reference_random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(_sym(z))


def reference_eig_reconstruction(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        H = reference_random_hermitian(rng, dim)
        w, V = np.linalg.eigh(H)
        err = float(np.max(np.abs(V @ np.diag(w) @ V.conj().T - H)))
        unit = float(np.max(np.abs(V.conj().T @ V - np.eye(dim))))
        worst = max(worst, err / (1e-10 * dim), unit / 1e-10)
    return worst <= 1.0, f"worst normalized error {worst:.3e}"


def reference_model_states(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    ps = point_source_model(cfg)
    for i in range(50):
        if i % 2 == 0:
            model, theta = next(verify._qubit_instances(rng, 1))
        else:
            model, theta = ps, np.array([rng.uniform(-0.3, 0.3),
                                         rng.uniform(0.01, 1.0),
                                         rng.uniform(0.1, 0.9)])
        rho = model.state_at(theta)
        worst = max(worst, abs(float(np.real(np.trace(rho))) - 1.0) / 1e-10)
        worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(rho)[0])) / 1e-10)
        for d in model.derivatives_at(theta):
            worst = max(worst, abs(float(np.real(np.trace(d)))) / 1e-9)
    return worst <= 1.0, f"worst normalized violation {worst:.3e}"


@pytest.mark.parametrize("check, reference", [
    (verify.check_eig_reconstruction, reference_eig_reconstruction),
    (verify.check_model_states, reference_model_states),
], ids=["eig_reconstruction", "model_states"])
def test_batched_check_reports_what_the_per_instance_loop_reports(check, reference):
    for seed in SEEDS:
        assert check(seed) == reference(seed), seed


def test_random_hermitian_has_the_bits_of_the_checked_matrix():
    # trace_norm_bound and tensor_associativity draw their matrices through it
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        assert dim == int(ref_rng.integers(2, 17))
        H, ref = verify._random_hermitian(rng, dim), reference_random_hermitian(ref_rng, dim)
        assert H.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()      # the same draws, in the same order


def test_verify_negative_control_one_perturbed_eigenvector_in_a_stack(monkeypatch):
    # 1e-6 on one entry of one eigenvector of one member of the first stacked
    # eigh: the reconstruction and unitarity residuals of that member fail
    eigh, perturbed = linalg.eigh, []

    def one_bad_member(H):
        w, V = eigh(H)
        if V.ndim == 3 and V.shape[0] > 1 and not perturbed:
            k = V.shape[0] // 2
            V = V.copy()
            V[k, 0, 0] += 1e-6
            perturbed.append(k)
        return w, V

    for seed in range(5):
        assert verify.check_eig_reconstruction(seed)[0]
        perturbed.clear()
        monkeypatch.setattr(linalg, "eigh", one_bad_member)
        passed, detail = verify.check_eig_reconstruction(seed)
        monkeypatch.undo()
        assert len(perturbed) == 1 and not passed, detail


class _OneNegativeState:
    """The wrapped model, but its ``bad``-th state has an eigenvalue of -1e-6:
    1e-6 moves from its top eigenvector to one in its kernel, so the trace
    and the derivatives stay as they were."""

    def __init__(self, model, bad):
        self.model, self.bad, self.calls = model, bad, 0

    def state_at(self, theta):
        rho = self.model.state_at(theta)
        self.calls += 1
        if self.calls == self.bad:
            _, U = np.linalg.eigh(rho)
            lo, hi = U[:, :1], U[:, -1:]
            rho = rho + 1e-6 * (hi @ hi.T - lo @ lo.T)
        return rho

    def derivatives_at(self, theta):
        return self.model.derivatives_at(theta)


@pytest.mark.parametrize("bad", [1, 13, 25])
def test_verify_negative_control_one_negative_point_source_state(monkeypatch, bad):
    # one of the 25 point-source states in the stack of 21 x 21 states
    models = []
    monkeypatch.setattr(verify, "point_source_model", lambda cfg: models.append(
        _OneNegativeState(point_source_model(cfg), bad)) or models[-1])
    for seed in range(3):
        passed, detail = verify.check_model_states(seed)
        assert models[-1].calls == 25 and not passed, detail
        assert float(detail.rsplit(" ", 1)[1]) > 1e3
