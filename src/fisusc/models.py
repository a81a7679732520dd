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
profile has unit variance.  The point-source model evaluates to its
rank-4 frame (`StatisticalModel.frame_at`): the two sources' coefficient
vectors and their displacement derivatives, with 4 x 4 cores, so no
d x d derivative is built per point.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DomainError, Povm, StatisticalModel, _integer

TRUNCATION_LEAKAGE_TOL = 1e-8
N_MAX_LIMIT = 170        # the largest n whose n! is a finite double


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
    # normalized mode g(x, x_m) h_n(y), y = (x - x_m)/sqrt(2), h_n = H_n(y) / sqrt(2^n n!)
    # by its three-term recurrence, so no 2^n n! overflows for large n
    y = (x - x_m) / np.sqrt(2.0)
    h_prev, h = 0.0, 1.0
    for k in range(1, n + 1):
        h_prev, h = h, np.sqrt(2.0 / k) * y * h - np.sqrt((k - 1) / k) * h_prev
    return _psf_amplitude(x, x_m) * h


@lru_cache(maxsize=None)
def _hermite_nodes(count):
    # read-only, because every caller shares the cached arrays; the import
    # waits for the first quadrature, which no sweep runs
    from numpy.polynomial.hermite import hermgauss
    nodes = hermgauss(count)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _gauss_hermite(f, center, degree):
    """Integral of f over the real line by Gauss-Hermite quadrature.

    Exact when f(x) is exp(-(x - center)^2 / 2) times a polynomial of
    degree <= ``degree``: with x = center + sqrt(2) y the integrand is
    exp(-y^2) times a polynomial in y, and ``degree // 2 + 1`` nodes
    integrate that exactly.  The nodes and weights of each node count are
    computed once per process (:func:`_hermite_nodes`).
    """
    y, w = _hermite_nodes(degree // 2 + 1)
    return np.sqrt(2.0) * float(np.sum(w * np.exp(y * y) * f(center + np.sqrt(2.0) * y)))


def hg_overlap(n, x0, x_m=0.0):
    """Overlap of the n-th Hermite-Gauss mode at x_m with a PSF at x0.

    Computed by exact Gauss-Hermite quadrature of the mode times the PSF
    (a Gaussian centered at (x0 + x_m)/2 times a degree-n polynomial);
    cross-validated against the closed form :func:`hg_overlap_closed_form`.
    A bool, a str or a non-integral ``n`` is refused, as `model.tensor_model`
    refuses its ``m``.
    """
    n = _integer("n", n, 0)
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


@lru_cache(maxsize=32)
def _hg_ladder(n_max):
    """``(modes, sqrt_factorial, lower)`` for n = 0..n_max, read-only and shared
    by every point-source model of that n_max: the mode indices, sqrt(n!)
    and the ladder ``lower_n = (n / 2) sqrt((n-1)!) / sqrt(n!)`` (n >= 1)
    of ``d c_n / dd = lower_n c_{n-1} - (d / 4) c_n``."""
    modes = np.arange(n_max + 1)
    sqrt_factorial = _sqrt_factorial(modes)
    lower = 0.5 * modes[1:] * sqrt_factorial[:-1] / sqrt_factorial[1:]
    for a in (modes, sqrt_factorial, lower):
        a.flags.writeable = False
    return modes, sqrt_factorial, lower


def x_opt(x_c, dx, q):
    """Optimal measurement alignment point: the intensity centroid."""
    return x_c + (q - 0.5) * dx


@dataclass(frozen=True)
class PointSourceConfig:
    """Configuration of the two-point-source model.

    ``x_m`` fixes where the measurement modes sit (the sweeps use the
    intensity centroid :func:`x_opt` of the point); the apparatus stays
    fixed while the parameters vary.  ``n_max`` is the highest retained
    Hermite-Gauss mode (basis dimension n_max + 1), an integer at most
    ``N_MAX_LIMIT``; ``x_m`` must be finite.
    """

    x_m: float
    n_max: int = 20

    def __post_init__(self):
        if not math.isfinite(self.x_m):
            raise ValueError(f"x_m must be finite, got {self.x_m}")
        if not isinstance(self.n_max, numbers.Integral):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if not 3 <= self.n_max <= N_MAX_LIMIT:
            raise ValueError(f"need 3 <= n_max <= {N_MAX_LIMIT}, got {self.n_max}")


def point_source_model(cfg: PointSourceConfig):
    """Incoherent mixture rho = q |psi+><psi+| + (1-q) |psi-><psi-|.

    ``<x|psi+->`` are PSFs displaced to x_c +- dx/2, represented in the
    truncated Hermite-Gauss basis centered at the fixed alignment point.
    Parameters are (x_c, dx, q) with dx >= 0 and q in (0, 1); all three
    derivatives are analytic.  Evaluation raises when the truncation
    leaks more than 1e-8 of either source's weight.

    The state and its derivatives lie in the span of the coefficient
    vectors c+- and their displacement derivatives g+-, so the model
    evaluates to the frame ``B = [c+, c-, g+, g-]`` (d x 4) with 4 x 4
    cores; `state_at` is its lift, ``q c+ c+^T + (1-q) c- c-^T``.
    """
    x_m = float(cfg.x_m)
    modes, sqrt_factorial, lower = _hg_ladder(cfg.n_max)

    def frame_fn(values):
        x_c, dx, q = values
        disp = np.array([x_c + dx / 2.0 - x_m, x_c - dx / 2.0 - x_m])
        # a far source overflows (d/2)^n; its NaN coefficients fail the leakage test
        with np.errstate(over="ignore", invalid="ignore"):
            c = _hg_overlap(modes, x_m + disp[:, None], x_m, sqrt_factorial)
        for name, leakage in zip(("psi+", "psi-"), 1.0 - np.einsum("ij,ij->i", c, c)):
            if not leakage <= TRUNCATION_LEAKAGE_TOL:     # NaN coefficients fail too
                raise DomainError(
                    f"truncation leakage {leakage:.2e} for {name} exceeds "
                    f"{TRUNCATION_LEAKAGE_TOL:.0e}; increase n_max (= {cfg.n_max})")
        g = -0.25 * disp[:, None] * c
        g[:, 1:] += lower * c[:, :-1]
        # cores in the frame [c+, c-, g+, g-]: g c^T + c g^T of one source
        # is the symmetric pair of entries (0, 2) for psi+, (1, 3) for psi-
        S = np.zeros((4, 4, 4))
        S[0, 0, 0], S[0, 1, 1] = q, 1.0 - q                       # rho
        S[1, 0, 2] = S[1, 2, 0] = q                               # d x_c
        S[1, 1, 3] = S[1, 3, 1] = 1.0 - q
        S[2, 0, 2] = S[2, 2, 0] = 0.5 * q                         # d dx
        S[2, 1, 3] = S[2, 3, 1] = -0.5 * (1.0 - q)
        S[3, 0, 0], S[3, 1, 1] = 1.0, -1.0                        # d q
        return np.concatenate([c, g]).T, S

    def domain_fn(values):
        _, dx, q = values
        return dx >= 0.0 and 0.0 < q < 1.0

    return StatisticalModel(cfg.n_max + 1, ("x_c", "dx", "q"),
                            domain_fn=domain_fn, frame_fn=frame_fn)


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
    point with the orthogonal weights ``POINT_SOURCE_WEIGHTS``, and the
    fifth element collects the higher ones.  In the mode basis the elements
    depend on ``cfg.n_max`` only, not on ``cfg.x_m``.
    """
    w = POINT_SOURCE_WEIGHTS if weights is None else np.asarray(weights, dtype=float)
    dim = cfg.n_max + 1
    elements = []
    for j in range(4):
        v = np.zeros(dim)
        v[:4] = w[j]
        elements.append(np.outer(v, v))
    remainder = np.eye(dim) - sum(elements)
    # the remainder is I - W^T W on the first four modes and I above them
    W = w[:4]
    if np.linalg.eigvalsh(np.eye(4) - W.T @ W)[0] < -1e-9:
        raise ValueError("remainder element is not positive; weight rows must be "
                         "orthonormal over the first four modes")
    elements.append(remainder)
    return Povm(elements, labels=("v0", "v1", "v2", "v3", "rest"))
