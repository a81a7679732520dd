"""Parametrized quantum statistical models and POVMs.

A :class:`StatisticalModel` maps a parameter point to a density matrix
and its parameter derivatives (analytic when available, otherwise
second-order central finite differences), or to a frame: a (d, r) matrix
B and Hermitian r x r cores with ``rho = B S_0 B^dag`` and
``d_j rho = B S_j B^dag``.  A :class:`Povm` is an ordered list of
positive operators summing to the identity.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import _lift, hermitize, min_eigenvalue

FD_STEP = 1e-5


class DomainError(ValueError):
    """Parameter point outside the model's declared domain."""


class StatisticalModel:
    """Family of states rho(theta) with parameter derivatives.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension.
    param_names : sequence of str
    state_fn : callable
        ``theta values -> (dim, dim) density matrix``.
    derivative_fn : callable, optional
        ``theta values -> list of d rho / d theta_j``.  When omitted,
        derivatives fall back to central finite differences with step
        ``FD_STEP``.
    domain_fn : callable, optional
        ``theta values -> bool``; False means out of domain.  A point with a
        non-finite value is out of every model's domain.
    frame_fn : callable, optional
        ``theta values -> (B, S)``: a (dim, r) matrix and a (1 + P, r, r)
        stack of cores, ``rho = B S[0] B^dag`` and ``d_j rho = B S[j+1] B^dag``;
        the derivatives then come from the frame, not ``derivative_fn``.

    `state_at`, `derivatives_at` and `frame_at` keep their last result,
    keyed on the bytes of theta, and return its read-only arrays at a
    repeated point.
    """

    def __init__(self, dim, param_names, state_fn, derivative_fn=None,
                 domain_fn=None, frame_fn=None):
        self.dim = int(dim)
        self.param_names = tuple(param_names)
        self._state_fn = state_fn
        self._derivative_fn = derivative_fn
        self._domain_fn = domain_fn
        self._frame_fn = frame_fn
        self._last = {}
        if self.dim < 1 or not self.param_names:
            raise ValueError("need dim >= 1 and at least one parameter")

    @property
    def n_params(self):
        return len(self.param_names)

    def in_domain(self, theta):
        """False for a non-finite point or one ``domain_fn`` rejects."""
        values = self._theta_values(theta)
        return all(map(math.isfinite, values.tolist())) and (
            self._domain_fn is None or bool(self._domain_fn(values)))

    def _theta_values(self, theta):
        values = np.asarray(theta, dtype=float)
        if values.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameter values")
        return values

    def _check_domain(self, values):
        if not self.in_domain(values):
            raise DomainError(
                f"theta = {dict(zip(self.param_names, values))} outside the model domain")

    def _memo(self, what, theta, evaluate):
        values = self._theta_values(theta)
        key = values.tobytes()
        last = self._last.get(what)
        if last is None or last[0] != key:
            self._check_domain(values)
            last = self._last[what] = (key, evaluate(values))
        return last[1]

    def state_at(self, theta):
        """Density matrix at theta (unit trace, PSD)."""
        return self._memo("state", theta, lambda v: hermitize(self._state_fn(v)))

    def derivatives_at(self, theta):
        """List of Hermitian traceless operators d rho / d theta_j."""
        return list(self._memo("derivatives", theta, self._derivative_stack))

    def frame_at(self, theta):
        """``(B, rho, derivatives)``: the state is ``B rho B^dag`` and d_j rho
        is ``B derivatives[j] B^dag``.

        Without a ``frame_fn`` B is None (the identity) and the operators
        are `state_at` and `derivatives_at`; with one, they are the r x r
        cores, validated by one `hermitize` of the stack.
        """
        if self._frame_fn is None:
            return None, self.state_at(theta), tuple(self.derivatives_at(theta))
        B, cores = self._memo("frame", theta, self._frame)
        return B, cores[0], tuple(cores[1:])

    def _frame(self, values):
        B, cores = self._frame_fn(values)
        B = np.array(B)
        B.setflags(write=False)
        return B, hermitize(cores)

    def _derivative_stack(self, values):
        if self._frame_fn is not None:
            B, cores = self._memo("frame", values, self._frame)
            return _lift(B, cores[1:])
        if self._derivative_fn is not None:
            return hermitize(self._derivative_fn(values))
        h = FD_STEP
        derivs = []
        for j in range(self.n_params):
            up, dn = values.copy(), values.copy()
            up[j] += h
            dn[j] -= h
            for stencil in (up, dn):
                if self._domain_fn is not None and not self._domain_fn(stencil):
                    raise DomainError(
                        f"central stencil for {self.param_names[j]} leaves the domain "
                        f"at {dict(zip(self.param_names, values))} (step {h})")
            derivs.append((np.asarray(self._state_fn(up))
                           - np.asarray(self._state_fn(dn))) / (2.0 * h))
        return hermitize(derivs)


@dataclass(frozen=True)
class PovmValidation:
    """Report from validate_povm."""

    min_eigenvalue: float
    completeness_residual: float
    tol: float

    @property
    def passed(self):
        return (self.min_eigenvalue >= -self.tol
                and self.completeness_residual <= self.tol)


class Povm:
    """Ordered POVM: positive operators summing to the identity.

    ``elements`` is one read-only (E, dim, dim) array of the validated
    elements (real when all are real); ``elements[a]`` is the a-th operator.
    """

    def __init__(self, elements, labels=None):
        elems = [np.asarray(E) for E in elements]
        if not elems:
            raise ValueError("a POVM needs at least one element")
        if elems[0].ndim != 2 or any(E.shape != elems[0].shape for E in elems):
            raise ValueError("POVM elements must be matrices of one Hilbert dimension")
        self.elements = hermitize(np.stack(elems))
        self.dim = self.elements.shape[-1]
        self.labels = tuple(labels) if labels is not None else tuple(
            str(i) for i in range(len(elems)))
        if len(self.labels) != len(elems):
            raise ValueError("need one label per element")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def validate_povm(povm, tol):
    """Check positivity of every element and completeness of the sum.

    Returns a report rather than raising; ``report.passed`` is True iff
    the smallest element eigenvalue is >= -tol and
    ``max|sum_a M_a - I|`` <= tol.
    """
    min_eig = min(min_eigenvalue(E) for E in povm.elements)
    total = sum(povm.elements)
    residual = float(np.max(np.abs(total - np.eye(povm.dim))))
    return PovmValidation(min_eigenvalue=min_eig,
                          completeness_residual=residual, tol=float(tol))


def _pad_elements(povm, n_outcomes):
    zeros = np.zeros((povm.dim, povm.dim), dtype=povm.elements.dtype)
    elems = list(povm.elements) + [zeros] * (n_outcomes - len(povm))
    labels = list(povm.labels) + [f"pad{i}" for i in range(len(povm), n_outcomes)]
    return elems, labels


def mix_povm(target, noise, eps):
    """Convex combination (1 - eps) * target + eps * noise, element-wise.

    POVMs with different outcome counts are aligned by padding the
    shorter one with zero elements; zero elements contribute nothing to
    any Fisher-information sum.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if target.dim != noise.dim:
        raise ValueError(f"dimension mismatch: {target.dim} vs {noise.dim}")
    n = max(len(target), len(noise))
    t_elems, t_labels = _pad_elements(target, n)
    n_elems, n_labels = _pad_elements(noise, n)
    labels = [a if a == b else f"{a}|{b}" for a, b in zip(t_labels, n_labels)]
    return Povm([(1.0 - eps) * a + eps * b for a, b in zip(t_elems, n_elems)],
                labels=labels)


def tensor_povm(a, b):
    """POVM of the product measurement: all pairwise Kronecker products."""
    elements = [np.kron(x, y) for x in a.elements for y in b.elements]
    labels = [f"{la}*{lb}" for la in a.labels for lb in b.labels]
    return Povm(elements, labels=labels)


def _kron(a, b):
    """``np.kron`` of the last two axes, broadcast over the leading ones."""
    n, k = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * k, n * k))


def tensor_model(model, m):
    """m-fold tensor power of a model, with product-rule derivatives: bit for
    bit the in-order sums of left-to-right ``np.kron`` chains of its checked
    state and derivatives."""
    m = int(m)
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return model

    def state_fn(values):
        return reduce(_kron, [model.state_at(values)] * m)

    def derivative_fn(values):
        rho, D = model.state_at(values), np.asarray(model.derivatives_at(values))
        return reduce(np.add, (reduce(_kron, [D if k == pos else rho for k in range(m)])
                               for pos in range(m)))

    return StatisticalModel(model.dim ** m, model.param_names, state_fn,
                            derivative_fn=derivative_fn,
                            domain_fn=model._domain_fn)
