import numpy as np
import pytest

from fisusc.linalg import (HermiticityError, eig_hermitian, hermitize,
                           min_eigenvalue, trace_norm)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def test_eig_identity():
    w, V = eig_hermitian(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])
    np.testing.assert_allclose(V @ V.conj().T, np.eye(2), atol=1e-14)


def test_eig_pauli_x():
    w, _ = eig_hermitian(SX)
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)


def test_eig_descending_and_reconstruction():
    rng = np.random.default_rng(7)
    H = random_hermitian(rng, 6)
    w, V = eig_hermitian(H)
    assert np.all(np.diff(w) <= 1e-14)
    np.testing.assert_allclose(V @ np.diag(w) @ V.conj().T, H, atol=1e-12)


def test_eig_reconstruction_property():
    # 100 random Hermitian matrices, dims 2..16
    rng = np.random.default_rng(123)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        H = random_hermitian(rng, dim)
        w, V = eig_hermitian(H)
        assert np.max(np.abs(V @ np.diag(w) @ V.conj().T - H)) <= 1e-10 * dim
        assert np.max(np.abs(V.conj().T @ V - np.eye(dim))) <= 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_zero_and_pauli_z():
    assert trace_norm(np.zeros((3, 3))) == 0.0
    assert trace_norm(SZ) == pytest.approx(2.0, abs=1e-14)


def test_trace_norm_vs_singular_value_oracle():
    # for Hermitian H the trace norm equals the sum of singular values
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        A = a @ a.conj().T
        B = b @ b.conj().T
        H = A - B
        oracle = float(np.sum(np.linalg.svd(H, compute_uv=False)))
        assert trace_norm(H) == pytest.approx(oracle, abs=1e-10)


def test_trace_norm_dominates_trace():
    rng = np.random.default_rng(11)
    for _ in range(20):
        H = random_hermitian(rng, int(rng.integers(2, 8)))
        assert trace_norm(H) >= abs(np.real(np.trace(H))) - 1e-12


def test_tensor_pauli_spectrum():
    w, _ = eig_hermitian(np.kron(SX, SZ))
    np.testing.assert_allclose(w, [1.0, 1.0, -1.0, -1.0], atol=1e-14)


def test_min_eigenvalue_of_projector():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert min_eigenvalue(-np.eye(3)) == pytest.approx(-1.0, abs=1e-14)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    proj = np.outer(plus, plus)
    # eigenvalues {1, 0}
    assert min_eigenvalue(proj) == pytest.approx(0.0, abs=1e-14)


def test_hermitize_symmetrizes_drift():
    H = SX + 1e-14 * np.array([[0.0, 1.0], [0.0, 0.0]])
    out = hermitize(H)
    assert np.max(np.abs(out - out.conj().T)) == 0.0
    assert not out.flags.writeable


def test_hermitize_rejects_asymmetry():
    with pytest.raises(HermiticityError):
        hermitize(SX + 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitize(np.zeros((2, 3)))


def test_hermitize_keeps_the_input_dtype():
    real = hermitize(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert real.dtype == np.float64
    assert hermitize(np.eye(2, dtype=int)).dtype == np.float64
    assert hermitize(SY).dtype == np.complex128
    assert hermitize(SX).dtype == np.complex128


def test_hermitize_fast_path_keeps_the_per_member_rule_at_its_edges():
    # the whole-stack test against the absolute floor only decides when it
    # passes; above the floor each member is held to its own tolerance
    bump = np.array([[0.0, 1.0], [0.0, 0.0]])
    big = 10.0 * SX.real
    between = big + 5e-12 * bump       # 1e-12 < drift < 1e-12 * max|H| = 1e-11
    out = hermitize(np.stack([SZ.real, between]))
    np.testing.assert_array_equal(out[1], hermitize(between))
    assert np.max(np.abs(out[1] - out[1].T)) == 0.0
    over = big + 2e-11 * bump          # drift 2e-11 above its own tolerance 1e-11
    drift = np.max(np.abs(over - over.T))
    message = (f"matrix is not Hermitian (stack member 1): max|H - H^dag| = "
               f"{drift:.3e} (tol 1.0e-12, scale 1.000e+01)")
    with pytest.raises(HermiticityError) as err:
        hermitize(np.stack([SZ.real, over, between]))
    assert str(err.value) == message
    with pytest.raises(HermiticityError) as err:
        hermitize(over)
    assert str(err.value) == (f"matrix is not Hermitian: max|H - H^dag| = "
                              f"{drift:.3e} (tol 1.0e-12, scale 1.000e+01)")
    small = 0.5 * SX.real + 2e-12 * bump   # scale 1: the absolute floor decides
    with pytest.raises(HermiticityError, match="stack member 0"):
        hermitize(np.stack([small, between]))


def test_stacked_hermitize_checks_each_member_at_the_2d_tolerance():
    # member 1 drifts just above the tolerance at its own scale (10), member 0
    # is 100 times larger, so a tolerance on the whole stack would accept it
    rng = np.random.default_rng(3)
    bump = np.array([[0.0, 1.0], [0.0, 0.0]])
    big = 1000.0 * SZ.real
    small = 10.0 * SX.real
    ok = small + 0.5e-12 * 10.0 * bump
    bad = small + 2e-12 * 10.0 * bump
    hermitize(ok)
    with pytest.raises(HermiticityError):
        hermitize(bad)
    with pytest.raises(HermiticityError, match="stack member 1"):
        hermitize(np.stack([big, bad]))
    stack = np.stack([big, ok, random_hermitian(rng, 2)])
    out = hermitize(stack)
    assert out.shape == (3, 2, 2) and out.dtype == np.complex128
    for k, member in enumerate(out):
        np.testing.assert_array_equal(member, hermitize(stack[k]))
        assert not member.flags.writeable and member.base is not None
    with pytest.raises(ValueError):
        hermitize(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        hermitize(np.zeros(3))
