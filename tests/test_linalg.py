import numpy as np
import pytest

from fisusc.linalg import HermiticityError, hermitize, trace_norm
from fisusc.model import Povm, validate_povm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


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


def test_min_eigenvalue_of_projector():
    # validate_povm reports the smallest eigenvalue over all elements
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    proj = np.outer(plus, plus)                     # eigenvalues {1, 0}
    report = validate_povm(Povm([proj, np.eye(2) - proj]), 1e-12)
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-14) and report.passed
    assert validate_povm(Povm([np.eye(3)]), 1e-12).min_eigenvalue == 1.0
    signed = validate_povm(Povm([2.0 * np.eye(2) - proj, proj - np.eye(2)]), 1e-12)
    assert signed.min_eigenvalue == pytest.approx(-1.0, abs=1e-14)
    assert not signed.passed and signed.completeness_residual == pytest.approx(0.0, abs=1e-14)


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


@pytest.mark.parametrize("entries", [
    [[1.0, np.nan], [np.nan, 1.0]],
    [[1.0, np.inf], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, -np.inf], [-np.inf, 1.0]],
], ids=["nan", "inf-one-side", "inf-diagonal", "inf-both-sides"])
def test_hermitize_refuses_non_finite_entries(entries):
    # a NaN fails every comparison and inf - inf is NaN, so the drift test
    # must send these to the slow path, which refuses them
    with pytest.raises(HermiticityError, match="^matrix has a non-finite entry$"):
        hermitize(entries)
    with pytest.raises(HermiticityError, match="non-finite entry"):
        hermitize(np.asarray(entries, dtype=complex))


def test_hermitize_names_the_non_finite_stack_member():
    bad = np.array([[1.0, 0.0], [0.0, np.nan]])
    over = SZ.real + 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HermiticityError, match=r"non-finite entry \(stack member 2\)"):
        hermitize(np.stack([SX.real, SZ.real, bad, SX.real]))
    # the first bad member is named, whichever way it is bad
    with pytest.raises(HermiticityError, match=r"not Hermitian \(stack member 1\)"):
        hermitize(np.stack([SX.real, over, bad]))
    with pytest.raises(HermiticityError, match=r"non-finite entry \(stack member 0\)"):
        hermitize(np.stack([np.full((2, 2), np.inf), over]))
