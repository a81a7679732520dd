"""Built-in statistical models and measurements.

Two families:

* a qubit carrying a phase ``phi`` and a dephasing strength ``delta``,
  with a four-outcome separable measurement and a Bell measurement on
  two copies, and
* an incoherent mixture of two displaced Gaussian point sources with
  parameters (centroid ``x_c``, separation ``dx``, relative intensity
  ``q``), measured by projecting on low-order Hermite-Gauss modes.

Lengths in the point-source family are expressed in units of the PSF
width: the amplitude point-spread function is
``g(x, x0) = (2 pi)^(-1/4) exp(-(x - x0)^2 / 4)``, whose intensity
profile has unit variance.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss, hermval

from .model import DomainError, Povm, StatisticalModel

TRUNCATION_LEAKAGE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Qubit phase / dephasing
# ---------------------------------------------------------------------------

def qubit_phase_dephasing():
    """Qubit model rho = 1/2 [[1, e^{-i phi - delta}], [e^{i phi - delta}, 1]].

    Parameters are (phi, delta) with delta > 0; derivatives are analytic.
    """
    def state_fn(values):
        phi, delta = values
        e = np.exp(-1j * phi - delta)
        return 0.5 * np.array([[1.0, e], [np.conj(e), 1.0]])

    def derivative_fn(values):
        phi, delta = values
        e = np.exp(-1j * phi - delta)
        d_phi = 0.5 * np.array([[0.0, -1j * e], [np.conj(-1j * e), 0.0]])
        d_delta = -0.5 * np.array([[0.0, e], [np.conj(e), 0.0]])
        return [d_phi, d_delta]

    return StatisticalModel(2, ("phi", "delta"), state_fn,
                            derivative_fn=derivative_fn,
                            domain_fn=lambda v: v[1] > 0.0)


def separable_povm():
    """Four-outcome single-qubit POVM: halved projectors on the x and y axes."""
    s2 = np.sqrt(2.0)
    kets = [np.array([1.0, 1.0]) / s2, np.array([1.0, -1.0]) / s2,
            np.array([1.0, 1j]) / s2, np.array([1.0, -1j]) / s2]
    return Povm([np.outer(k, k.conj()) / 2.0 for k in kets],
                labels=("+x", "-x", "+y", "-y"))


def bell_povm():
    """Projective measurement onto the four Bell states (dimension 4)."""
    s2 = np.sqrt(2.0)
    kets = [np.array([0.0, 1.0, 1.0, 0.0]) / s2,   # Psi+
            np.array([0.0, 1.0, -1.0, 0.0]) / s2,  # Psi-
            np.array([1.0, 0.0, 0.0, 1.0]) / s2,   # Phi+
            np.array([1.0, 0.0, 0.0, -1.0]) / s2]  # Phi-
    return Povm([np.outer(k, k.conj()) for k in kets],
                labels=("Psi+", "Psi-", "Phi+", "Phi-"))


# ---------------------------------------------------------------------------
# Hermite-Gauss machinery
# ---------------------------------------------------------------------------

def _psf_amplitude(x, x0):
    return (2.0 * np.pi) ** -0.25 * np.exp(-((x - x0) ** 2) / 4.0)


def _sqrt_factorial(n):
    # math.factorial is exact, so each n! is rounded to float once, correctly
    return np.sqrt(np.vectorize(math.factorial, otypes=[float])(n))


def _hg_mode(n, x, x_m):
    # normalized mode: g(x, x_m) H_n((x - x_m)/sqrt(2)) has norm sqrt(2^n n!)
    return (_psf_amplitude(x, x_m) * hermval((x - x_m) / np.sqrt(2.0), [0] * n + [1])
            / np.sqrt(2.0 ** n * math.factorial(n)))


def _gauss_hermite(f, center, degree):
    """Integral of f over the real line by Gauss-Hermite quadrature.

    Exact when f(x) is exp(-(x - center)^2 / 2) times a polynomial of
    degree <= ``degree``: with x = center + sqrt(2) y the integrand is
    exp(-y^2) times a polynomial in y, and ``degree // 2 + 1`` nodes
    integrate that exactly.
    """
    y, w = hermgauss(degree // 2 + 1)
    return np.sqrt(2.0) * float(np.sum(w * np.exp(y * y) * f(center + np.sqrt(2.0) * y)))


def hg_overlap(n, x0, x_m=0.0):
    """Overlap of the n-th Hermite-Gauss mode at x_m with a PSF at x0.

    Computed by exact Gauss-Hermite quadrature of the mode times the PSF
    (a Gaussian centered at (x0 + x_m)/2 times a degree-n polynomial);
    cross-validated against the closed form :func:`hg_overlap_closed_form`.
    """
    if n < 0:
        raise ValueError("mode index must be >= 0")
    return _gauss_hermite(lambda x: _hg_mode(n, x, x_m) * _psf_amplitude(x, x0),
                          (x0 + x_m) / 2.0, n)


def hg_overlap_closed_form(n, x0, x_m=0.0):
    """Closed form of the same overlap: a displaced Gaussian is a coherent
    state of the mode family, so the coefficient is
    e^{-d^2/8} (d/2)^n / sqrt(n!) with d = x0 - x_m."""
    n = np.asarray(n)
    return _hg_overlap(n, x0, x_m, _sqrt_factorial(n))


def _hg_overlap(n, x0, x_m, sqrt_factorial):
    # hg_overlap_closed_form with sqrt(n!) supplied by the caller
    d = x0 - x_m
    return np.exp(-d * d / 8.0) * (d / 2.0) ** n / sqrt_factorial


def _overlap_derivative(n, d, sqrt_factorial):
    # d/dd of hg_overlap_closed_form at displacement d
    powers = np.where(n > 0, (d / 2.0) ** np.maximum(n - 1, 0), 0.0)
    return (np.exp(-d * d / 8.0)
            * ((n / 2.0) * powers - (d / 4.0) * (d / 2.0) ** n)
            / sqrt_factorial)


@lru_cache(maxsize=32)
def _sqrt_factorials(n_max):
    """sqrt(n!) for n = 0..n_max; shared by every model of that n_max, read-only."""
    values = _sqrt_factorial(np.arange(n_max + 1))
    values.flags.writeable = False
    return values


def x_opt(x_c, dx, q):
    """Optimal measurement alignment point: the intensity centroid."""
    return x_c + (q - 0.5) * dx


@dataclass(frozen=True)
class PointSourceConfig:
    """Configuration of the two-point-source model.

    ``x_m`` fixes where the measurement modes sit (the sweeps use the
    intensity centroid :func:`x_opt` of the point); the apparatus stays
    fixed while the parameters vary.  ``n_max`` is the highest retained
    Hermite-Gauss mode (basis dimension n_max + 1).
    """

    x_m: float
    n_max: int = 20

    def __post_init__(self):
        if self.n_max < 3:
            raise ValueError("need n_max >= 3")


def point_source_model(cfg: PointSourceConfig):
    """Incoherent mixture rho = q |psi+><psi+| + (1-q) |psi-><psi-|.

    ``<x|psi+->`` are PSFs displaced to x_c +- dx/2, represented in the
    truncated Hermite-Gauss basis centered at the fixed alignment point.
    Parameters are (x_c, dx, q) with dx >= 0 and q in (0, 1); all three
    derivatives are analytic.  Evaluation raises when the truncation
    leaks more than 1e-8 of either source's weight.
    """
    x_m = float(cfg.x_m)
    modes = np.arange(cfg.n_max + 1)
    sqrt_factorial = _sqrt_factorials(cfg.n_max)

    def coefficients(values):
        x_c, dx, q = values
        d_plus = x_c + dx / 2.0 - x_m
        d_minus = x_c - dx / 2.0 - x_m
        c_plus = _hg_overlap(modes, x_m + d_plus, x_m, sqrt_factorial)
        c_minus = _hg_overlap(modes, x_m + d_minus, x_m, sqrt_factorial)
        for name, c in (("psi+", c_plus), ("psi-", c_minus)):
            leakage = 1.0 - float(c @ c)
            if leakage > TRUNCATION_LEAKAGE_TOL:
                raise DomainError(
                    f"truncation leakage {leakage:.2e} for {name} exceeds "
                    f"{TRUNCATION_LEAKAGE_TOL:.0e}; increase n_max (= {cfg.n_max})")
        return c_plus, c_minus, d_plus, d_minus

    def state_fn(values):
        _, _, q = values
        c_plus, c_minus, _, _ = coefficients(values)
        return q * np.outer(c_plus, c_plus) + (1.0 - q) * np.outer(c_minus, c_minus)

    def derivative_fn(values):
        _, _, q = values
        c_plus, c_minus, d_plus, d_minus = coefficients(values)
        g_plus = _overlap_derivative(modes, d_plus, sqrt_factorial)
        g_minus = _overlap_derivative(modes, d_minus, sqrt_factorial)
        sym_plus = np.outer(g_plus, c_plus) + np.outer(c_plus, g_plus)
        sym_minus = np.outer(g_minus, c_minus) + np.outer(c_minus, g_minus)
        d_xc = q * sym_plus + (1.0 - q) * sym_minus
        d_dx = 0.5 * (q * sym_plus - (1.0 - q) * sym_minus)
        d_q = np.outer(c_plus, c_plus) - np.outer(c_minus, c_minus)
        return [d_xc, d_dx, d_q]

    def domain_fn(values):
        _, dx, q = values
        return dx >= 0.0 and 0.0 < q < 1.0

    return StatisticalModel(cfg.n_max + 1, ("x_c", "dx", "q"), state_fn,
                            derivative_fn=derivative_fn, domain_fn=domain_fn)


# weight matrix of the 5-outcome measurement: rows are the coefficient
# vectors of |v_j> over the first four Hermite-Gauss modes
POINT_SOURCE_WEIGHTS = np.array([
    [0.0, 1.0 / np.sqrt(6.0), 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(3.0)],
    [0.0, 1.0 / np.sqrt(6.0), -1.0 / np.sqrt(2.0), -1.0 / np.sqrt(3.0)],
    [np.sqrt(2.0 / 5.0), np.sqrt(2.0 / 5.0), 0.0, 1.0 / np.sqrt(5.0)],
    [-np.sqrt(3.0 / 5.0), 2.0 / np.sqrt(15.0), 0.0, np.sqrt(2.0 / 15.0)],
])


def optimal_povm_point_sources(cfg: PointSourceConfig, weights=None):
    """5-outcome measurement: projectors |v_j><v_j| for j = 0..3 plus the
    remainder of the truncated identity.

    The |v_j> combine the first four Hermite-Gauss modes at the alignment
    point with the orthogonal weight matrix ``POINT_SOURCE_WEIGHTS``;
    the fifth element collects all higher modes.
    """
    w = POINT_SOURCE_WEIGHTS if weights is None else np.asarray(weights, dtype=float)
    dim = cfg.n_max + 1
    elements = []
    for j in range(4):
        v = np.zeros(dim)
        v[:4] = w[j]
        elements.append(np.outer(v, v).astype(complex))
    remainder = np.eye(dim, dtype=complex) - sum(elements)
    # the remainder is I - W^T W on the first four modes and I above them
    W = w[:4]
    if np.linalg.eigvalsh(np.eye(4) - W.T @ W)[0] < -1e-9:
        raise ValueError("remainder element is not positive; weight rows must be "
                         "orthonormal over the first four modes")
    elements.append(remainder)
    return Povm(elements, labels=("v0", "v1", "v2", "v3", "rest"))
