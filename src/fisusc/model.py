"""Parametrized quantum statistical models and POVMs.

A :class:`StatisticalModel` maps a parameter point to a frame: a (d, r)
matrix B and Hermitian r x r cores with ``rho = B S_0 B^dag`` and
``d_j rho = B S_j B^dag``.  A dense model's frame is B = None (the
identity) with its state and derivatives as the cores.  A :class:`Povm`
is an ordered list of positive operators summing to the identity.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import _lift, hermitize


class DomainError(ValueError):
    """Parameter point outside the model's declared domain."""


class StatisticalModel:
    """Family of states rho(theta) with parameter derivatives.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension.
    param_names : sequence of str
    state_fn, derivative_fn : callable, optional
        ``theta values -> (dim, dim) density matrix`` and ``theta values ->
        list of d rho / d theta_j``: a dense model, whose frame is B = None
        with its state and derivatives as the cores.
    domain_fn : callable, optional
        ``theta values -> bool``; False means out of domain.  A point with a
        non-finite value is out of every model's domain.
    frame_fn : callable, optional
        ``theta values -> (B, S)``: a (dim, r) matrix and a (1 + P, r, r)
        stack of cores, ``rho = B S[0] B^dag`` and ``d_j rho = B S[j+1] B^dag``.

    A model takes either ``state_fn`` with ``derivative_fn`` or
    ``frame_fn``.  It evaluates a point once: one domain check, one frame,
    and one `hermitize` of its stack of cores, kept for the last point
    (keyed on the bytes of theta) with the lift ``B S B^dag`` built when
    `state_at` or `derivatives_at` first reads it.  A repeated point
    returns the same read-only arrays; a dense model's lift is its cores.
    """

    def __init__(self, dim, param_names, state_fn=None, derivative_fn=None,
                 domain_fn=None, frame_fn=None):
        self.dim = int(dim)
        self.param_names = tuple(param_names)
        self._domain_fn = domain_fn
        self._slot = None
        if self.dim < 1 or not self.param_names:
            raise ValueError("need dim >= 1 and at least one parameter")
        routes = (state_fn is not None, derivative_fn is not None, frame_fn is not None)
        if routes not in ((True, True, False), (False, False, True)):
            raise ValueError("a model takes a state_fn with a derivative_fn, "
                             "or a frame_fn alone")
        self._frame_fn = frame_fn or (lambda v: (None, [state_fn(v), *derivative_fn(v)]))

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
            raise DomainError(f"theta = {dict(zip(self.param_names, map(float, values)))} "
                              f"outside the model domain")

    def _point(self, theta):
        """The slot ``[key, frame, lift]`` of theta, evaluated on a miss; the
        lift of a frame model waits for `_lifted`."""
        values = self._theta_values(theta)
        key = values.tobytes()
        slot = self._slot
        if slot is None or slot[0] != key:
            self._check_domain(values)
            B, cores = self._frame_fn(values)
            if B is not None:
                B = np.array(B)
                B.setflags(write=False)
            cores = hermitize(cores)
            frame = (B, cores[0], tuple(cores[1:]))
            slot = self._slot = [key, frame, frame[1:] if B is None else None]
        return slot

    def frame_at(self, theta):
        """``(B, rho, derivatives)``: the state is ``B rho B^dag`` and d_j rho
        is ``B derivatives[j] B^dag``; B is None (the identity) for a dense
        model.  The cores are views of one checked stack."""
        return self._point(theta)[1]

    def _lifted(self, theta):
        slot = self._point(theta)
        if slot[2] is None:
            B, rho, derivs = slot[1]
            ops = _lift(B, np.asarray((rho, *derivs)))
            slot[2] = ops[0], tuple(ops[1:])
        return slot[2]

    def state_at(self, theta):
        """Density matrix at theta (unit trace, PSD)."""
        return self._lifted(theta)[0]

    def derivatives_at(self, theta):
        """List of Hermitian traceless operators d rho / d theta_j."""
        return list(self._lifted(theta)[1])


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
    min_eig = float(np.min(np.linalg.eigvalsh(povm.elements)))
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
    state and derivatives.  A bool or non-integral ``m`` is refused, not truncated."""
    if isinstance(m, bool) or not float(m).is_integer() or m < 1:
        raise ValueError(f"need an integer m >= 1, got {m!r}")
    m = int(m)
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
