"""Parametrized quantum statistical models and POVMs.

A :class:`StatisticalModel` maps a parameter point to a frame: a (d, r)
matrix B and Hermitian r x r cores with ``rho = B S_0 B^dag`` and
``d_j rho = B S_j B^dag``.  A dense model's frame is B = None (the
identity) with its state and derivatives as the cores.  A :class:`Povm`
is an ordered list of positive operators summing to the identity.
"""

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg
from .linalg import _lift, hermitize


class DomainError(ValueError):
    """Parameter point outside the model's declared domain."""


# each kind `check_value` judges: the type it takes and the words that name it
_KINDS = {str: (str, "a string"), float: (numbers.Real, "a number"),
          int: (numbers.Integral, "an integer")}


def check_value(name, value, kind, low=None, high=None, error=ValueError):
    """The package's one judge of a str, real or integer argument ``name``.

    ``kind`` is ``str``; ``float``, a finite real (a non-bool `numbers.Real`);
    or ``int``, an integer (a non-bool `numbers.Integral`, Python or numpy; a
    float is refused whatever its value).  A real or an integer must be
    finite as a double and lie in the inclusive bounds ``low`` .. ``high``
    (``high`` needs ``low``).  Returns ``value``, an integer as an int;
    raises ``error`` in one line, naming a refused type by the repr of a
    bool, float, str or bytes and by the type name of anything else (a deep
    list's repr exhausts the stack).
    """
    base, what = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, base):
        got = repr(value) if isinstance(value, (bool, float, str, bytes)) else type(value).__name__
        raise error(f"{name} must be {what}, got {got}")
    if kind is str:
        return value
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite, value = False, "an integer too large for a double"
    if not finite:
        raise error(f"{name} must be finite, got {value}")
    if (low is not None and value < low) or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be {span}, got {value}")
    return int(value) if kind is int else value


class StatisticalModel:
    """Family of states rho(theta) with parameter derivatives.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension, an integer >= 1 (`check_value`).
    param_names : sequence of str
        One distinct name per parameter; a str (a sequence of one-letter
        names) is refused.
    state_fn, derivative_fn : callable, optional
        ``theta values -> (dim, dim) density matrix`` and ``theta values ->
        list of d rho / d theta_j``: a dense model, whose frame is B = None
        with its state and derivatives as the cores.
    domain_fn : callable, optional
        ``theta values -> bool``; False means out of domain.  A point with a
        non-finite value is out of every model's domain.
    frame_fn : callable, optional
        ``theta values -> (B, S)``: a (dim, r) matrix and a (1 + P, r, r)
        stack of cores, ``rho = B S[0] B^dag`` and ``d_j rho = B S[j+1] B^dag``
        (B None is the identity).

    A model takes either ``state_fn`` with ``derivative_fn`` or
    ``frame_fn``.  It evaluates a point once: one domain check, one frame,
    and one `hermitize` of its stack of cores ops, kept for the last point
    (keyed on the bytes of theta) as one record: ``(B, ops)``, which
    `fisher_bundle` reads whole (`_point`), and one view triple ``(stack,
    stack[0], tuple(stack[1:]))`` for each of ops and its lift ``B S B^dag``,
    built on first read (`_views`).  A dense model's ops is its lift, so
    the two are one triple.  A repeated point returns the same arrays.
    """

    def __init__(self, dim, param_names, state_fn=None, derivative_fn=None,
                 domain_fn=None, frame_fn=None):
        self.dim = check_value("dim", dim, int, 1)
        self.param_names = tuple(param_names)
        if isinstance(param_names, str) or not all(isinstance(n, str) for n in self.param_names):
            raise ValueError(f"param_names must be a sequence of str, got {param_names!r}")
        if len(set(self.param_names)) < len(self.param_names):
            raise ValueError(f"param_names must be distinct, got {self.param_names}")
        self._domain_fn = domain_fn
        self._record = None
        if not self.param_names:
            raise ValueError("need at least one parameter")
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
        if values.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameter values")
        return values

    def _check_domain(self, values):
        if not self.in_domain(values):
            raise DomainError(f"theta = {dict(zip(self.param_names, map(float, values)))} "
                              f"outside the model domain")

    def _point(self, theta):
        """``(B, ops)``, theta's frame with its checked stack of cores; a miss
        evaluates it and keeps the record ``[key, (B, ops), cores, lift]``,
        whose two view triples (`_views`) wait for first read."""
        values = self._theta_values(theta)
        key = values.tobytes()
        if self._record is None or self._record[0] != key:
            self._check_domain(values)
            B, cores = self._frame_fn(values)
            if B is not None:
                B = np.array(B)
                B.setflags(write=False)
            self._record = [key, (B, hermitize(cores)), None, None]
        return self._record[1]

    def _views(self, theta, lifted):
        """The view triple ``(stack, stack[0], tuple(stack[1:]))`` of theta's
        cores, or (``lifted``) of their lift ``B S B^dag``, built on first read.
        A dense model's cores are its lift, so both are one triple."""
        B, ops = self._point(theta)
        at = 3 if lifted and B is not None else 2
        if self._record[at] is None:
            stack = _lift(B, ops) if at == 3 else ops
            self._record[at] = stack, stack[0], tuple(stack[1:])
        return self._record[at]

    def frame_at(self, theta):
        """``(B, rho, derivatives)``: the state is ``B rho B^dag`` and d_j rho
        is ``B derivatives[j] B^dag``; B is None (the identity) for a dense
        model.  The cores are views of one checked stack."""
        return (self._point(theta)[0], *self._views(theta, False)[1:])

    def _operators(self, theta):
        """The checked (1 + P, d, d) stack of state and derivatives: a dense model's ops."""
        B, ops = self._point(theta)
        return ops if B is None else self._views(theta, True)[0]

    def state_at(self, theta):
        """Density matrix at theta (unit trace, PSD)."""
        return self._views(theta, True)[1]

    def derivatives_at(self, theta):
        """List of Hermitian traceless operators d rho / d theta_j."""
        return list(self._views(theta, True)[2])


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
    min_eig = float(np.min(linalg.eigvalsh(povm.elements)))
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
    any Fisher-information sum.  ``eps`` is a real in [0, 1] (`check_value`).
    """
    check_value("eps", eps, float, 0, 1)
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
    state and derivatives, formed from its checked (1 + P, d, d) stack (a
    frame model's lift).  ``m`` is an integer in [1, 62] (`check_value`): a
    qubit's 63rd power has more dimensions than an int64 counts."""
    m = check_value("m", m, int, 1, 62)
    if m == 1:
        return model

    def frame_fn(values):
        ops = model._operators(values)
        rho, D = ops[0], ops[1:]
        # the chain from the whole stack: the state and each derivative's first term
        power = reduce(_kron, [ops] + [rho] * (m - 1))
        for pos in range(1, m):
            power[1:] += reduce(_kron, [D if k == pos else rho for k in range(m)])
        return None, power

    return StatisticalModel(model.dim ** m, model.param_names, domain_fn=model._domain_fn,
                            frame_fn=frame_fn)
