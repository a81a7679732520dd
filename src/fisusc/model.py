"""Parametrized quantum statistical models and POVMs.

A :class:`StatisticalModel` maps a parameter point to a density matrix
and its parameter derivatives (analytic when available, otherwise
second-order central finite differences).  A :class:`Povm` is an ordered
list of positive operators summing to the identity.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import hermitize, min_eigenvalue

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
        ``theta values -> bool``; False means out of domain.
    """

    def __init__(self, dim, param_names, state_fn, derivative_fn=None,
                 domain_fn=None):
        self.dim = int(dim)
        self.param_names = tuple(param_names)
        self._state_fn = state_fn
        self._derivative_fn = derivative_fn
        self._domain_fn = domain_fn
        if self.dim < 1 or not self.param_names:
            raise ValueError("need dim >= 1 and at least one parameter")

    @property
    def n_params(self):
        return len(self.param_names)

    def in_domain(self, theta):
        values = self._theta_values(theta)
        return bool(self._domain_fn(values)) if self._domain_fn is not None else True

    def _theta_values(self, theta):
        values = np.asarray(theta, dtype=float)
        if values.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameter values")
        return values

    def _check_domain(self, values):
        if self._domain_fn is not None and not self._domain_fn(values):
            raise DomainError(
                f"theta = {dict(zip(self.param_names, values))} outside the model domain")

    def state_at(self, theta):
        """Density matrix at theta (unit trace, PSD)."""
        values = self._theta_values(theta)
        self._check_domain(values)
        return hermitize(self._state_fn(values))

    def derivatives_at(self, theta):
        """List of Hermitian traceless operators d rho / d theta_j."""
        values = self._theta_values(theta)
        self._check_domain(values)
        if self._derivative_fn is not None:
            return [hermitize(d) for d in self._derivative_fn(values)]
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
            derivs.append(hermitize(
                (np.asarray(self._state_fn(up), dtype=complex)
                 - np.asarray(self._state_fn(dn), dtype=complex)) / (2.0 * h)))
        return derivs


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

    ``elements`` is one read-only (E, dim, dim) complex array of the
    validated elements; ``elements[a]`` is the a-th operator.
    """

    def __init__(self, elements, labels=None):
        elems = [hermitize(E) for E in elements]
        if not elems:
            raise ValueError("a POVM needs at least one element")
        dim = elems[0].shape[0]
        if any(E.shape[0] != dim for E in elems):
            raise ValueError("POVM elements must share one Hilbert dimension")
        self.elements = np.stack(elems)
        self.elements.setflags(write=False)
        self.dim = dim
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
    zeros = np.zeros((povm.dim, povm.dim), dtype=complex)
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


def tensor_model(model, m):
    """m-fold tensor power of a model, with product-rule derivatives."""
    m = int(m)
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return model

    def state_fn(values):
        rho = np.asarray(model._state_fn(values), dtype=complex)
        out = rho
        for _ in range(m - 1):
            out = np.kron(out, rho)
        return out

    def derivative_fn(values):
        rho = np.asarray(model._state_fn(values), dtype=complex)
        base = model.derivatives_at(values)
        derivs = []
        for d in base:
            total = None
            for pos in range(m):
                factors = [d if k == pos else rho for k in range(m)]
                term = factors[0]
                for f in factors[1:]:
                    term = np.kron(term, f)
                total = term if total is None else total + term
            derivs.append(total)
        return derivs

    return StatisticalModel(model.dim ** m, model.param_names, state_fn,
                            derivative_fn=derivative_fn,
                            domain_fn=model._domain_fn)

