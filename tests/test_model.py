import itertools
import math
import re

import numpy as np
import pytest

from fisusc.fisher import fisher_bundle, r_metric, r_nuisance
from fisusc.linalg import HermiticityError, _lift
from fisusc.model import (DomainError, Povm, StatisticalModel, mix_povm,
                          tensor_model, tensor_povm, validate_povm)
from fisusc.models import (PointSourceConfig, bell_povm, hg_overlap,
                           hg_overlap_closed_form, optimal_povm_point_sources,
                           point_source_model, qubit_phase_dephasing, separable_povm)
from fisusc.susceptibility import x_finite_mix
from fisusc.sweep import SweepSpec, SweepSpecError


def test_qubit_state_plus_limit():
    # delta -> 0 gives the pure |+> state (delta = 0 itself is outside the domain)
    model = qubit_phase_dephasing()
    rho = model.state_at([0.0, 1e-9])
    np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-8)


def test_qubit_state_depolarized_limit():
    model = qubit_phase_dephasing()
    rho = model.state_at([0.3, 40.0])
    np.testing.assert_allclose(rho, 0.5 * np.eye(2), atol=1e-10)


def test_qubit_domain_error():
    model = qubit_phase_dephasing()
    with pytest.raises(DomainError):
        model.state_at([0.1, 0.0])
    with pytest.raises(DomainError):
        model.derivatives_at([0.1, -0.5])


def test_point_source_pure_at_zero_separation():
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    model = point_source_model(cfg)
    rho = model.state_at([0.0, 0.0, 0.3])
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_derivatives_are_traceless_hermitian():
    model = qubit_phase_dephasing()
    for d in model.derivatives_at([0.7, 0.4]):
        assert abs(np.trace(d)) <= 1e-12
        assert np.max(np.abs(d - d.conj().T)) == 0.0


def test_qubit_analytic_derivative_value():
    # d rho / d delta = -1/2 [[0, e^{-i phi - delta}], [e^{i phi - delta}, 0]]
    phi, delta = 0.9, 0.35
    model = qubit_phase_dephasing()
    e = np.exp(-1j * phi - delta)
    expected = -0.5 * np.array([[0.0, e], [np.conj(e), 0.0]])
    np.testing.assert_allclose(model.derivatives_at([phi, delta])[1], expected,
                               atol=1e-15)


def test_analytic_vs_finite_difference():
    model = qubit_phase_dephasing()
    theta = np.array([np.pi / 4, 0.3])
    h = 1e-5
    analytic = model.derivatives_at(theta)
    for j in range(2):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (model.state_at(up) - model.state_at(dn)) / (2 * h)
        assert np.max(np.abs(analytic[j] - fd)) <= 1e-8


def test_model_without_derivatives_is_refused():
    # a dense model needs its derivatives; a frame model takes them from its frame
    qubit = qubit_phase_dephasing()
    with pytest.raises(ValueError, match="a state_fn with a derivative_fn"):
        StatisticalModel(2, qubit.param_names, qubit.state_at,
                         domain_fn=qubit._domain_fn)


def _qubit_routes():
    qubit = qubit_phase_dephasing()
    return {"state_fn": qubit.state_at, "derivative_fn": qubit.derivatives_at,
            "frame_fn": lambda v: (np.eye(2), [qubit.state_at(v), *qubit.derivatives_at(v)])}


@pytest.mark.parametrize("names", [("state_fn", "derivative_fn", "frame_fn"),
                                   ("state_fn", "frame_fn"), ("derivative_fn", "frame_fn"),
                                   ("derivative_fn",), ()],
                         ids=lambda names: "+".join(names) or "none")
def test_model_given_both_routes_or_neither_is_refused(names):
    # a model is dense (state and derivatives) or a frame, never both
    routes = _qubit_routes()
    with pytest.raises(ValueError, match="or a frame_fn alone"):
        StatisticalModel(2, ("phi", "delta"), **{k: routes[k] for k in names})


def test_dense_and_frame_routes_give_one_model():
    routes = _qubit_routes()
    dense = StatisticalModel(2, ("phi", "delta"), routes["state_fn"],
                             derivative_fn=routes["derivative_fn"])
    framed = StatisticalModel(2, ("phi", "delta"), frame_fn=routes["frame_fn"])
    theta = [0.4, 0.2]
    assert dense.frame_at(theta)[0] is None
    np.testing.assert_array_equal(framed.frame_at(theta)[0], np.eye(2))
    np.testing.assert_array_equal(framed.state_at(theta), dense.state_at(theta))
    np.testing.assert_array_equal(np.asarray(framed.derivatives_at(theta)),
                                  np.asarray(dense.derivatives_at(theta)))


def test_domain_errors_print_plain_floats():
    # the theta of the message reads {'phi': nan, ...}, not np.float64(nan)
    qubit = qubit_phase_dephasing()
    with pytest.raises(DomainError, match="outside the model domain") as outside:
        fisher_bundle(qubit, [np.nan, 0.3], separable_povm())
    assert "{'phi': nan, 'delta': 0.3}" in str(outside.value)
    assert "np.float64" not in str(outside.value)


def _non_finite_cases():
    qubit = qubit_phase_dephasing()

    def coherence(v):
        return 0.5 * np.exp(-1j * v[0] - 0.3)

    # no domain_fn: the state and derivative functions themselves would take NaN
    phase_only = StatisticalModel(
        2, ("phi",), lambda v: np.array([[0.5, coherence(v)], [np.conj(coherence(v)), 0.5]]),
        derivative_fn=lambda v: [np.array([[0.0, -1j * coherence(v)],
                                           [np.conj(-1j * coherence(v)), 0.0]])])
    cfg = PointSourceConfig(n_max=20, x_m=0.0)
    return [pytest.param(qubit, [0.7, 0.3], separable_povm(), id="qubit"),
            pytest.param(tensor_model(qubit, 2), [0.7, 0.3], bell_povm(), id="two-copy"),
            pytest.param(phase_only, [0.7], separable_povm(), id="no-domain-fn"),
            pytest.param(point_source_model(cfg), [0.0, 0.3, 0.3],
                         optimal_povm_point_sources(cfg), id="point-sources")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("model, theta, povm", _non_finite_cases())
def test_non_finite_point_is_a_domain_error_for_every_model(model, theta, povm, bad):
    # refused before any state, derivative or frame function runs, so
    # nothing warns and no SVD is reached
    for j in range(len(theta)):
        point = list(theta)
        point[j] = bad
        assert not model.in_domain(point)
        with pytest.raises(DomainError, match="outside the model domain"):
            fisher_bundle(model, point, povm)
    assert model.in_domain(theta)


def test_validate_povm_separable():
    report = validate_povm(separable_povm(), 1e-12)
    assert report.passed
    assert report.completeness_residual <= 1e-15


def test_validate_povm_trivial_and_incomplete():
    assert validate_povm(Povm([np.eye(2)]), 1e-12).passed
    bad = Povm([0.6 * np.eye(2), 0.6 * np.eye(2)])
    report = validate_povm(bad, 1e-9)
    assert not report.passed
    assert report.completeness_residual == pytest.approx(0.2, abs=1e-12)


def test_mix_povm_endpoints():
    M = separable_povm()
    N = Povm([np.eye(2) / 4.0] * 4)
    same = mix_povm(M, N, 0.0)
    for a, b in zip(same.elements, M.elements):
        np.testing.assert_allclose(a, b, atol=1e-15)
    swapped = mix_povm(M, N, 1.0)
    for a, b in zip(swapped.elements, N.elements):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_mix_povm_weights():
    M = separable_povm()
    N = Povm([np.eye(2) / 4.0] * 4)
    mixed = mix_povm(M, N, 0.1)
    for out, orig in zip(mixed.elements, M.elements):
        np.testing.assert_allclose(out, 0.9 * orig + 0.025 * np.eye(2), atol=1e-15)
    assert validate_povm(mixed, 1e-12).passed


def test_mix_povm_padding_and_errors():
    M = separable_povm()
    N = Povm([np.eye(2)])
    mixed = mix_povm(M, N, 0.5)
    assert len(mixed) == 4
    assert validate_povm(mixed, 1e-12).passed
    with pytest.raises(ValueError, match=r"^eps must be in \[0, 1\], got 1.5$"):
        mix_povm(M, N, 1.5)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        mix_povm(M, Povm([np.eye(3)]), 0.5)


def test_tensor_model_identity_and_trace():
    model = qubit_phase_dephasing()
    assert tensor_model(model, 1) is model
    double = tensor_model(model, 2)
    assert double.dim == 4
    # a numpy integer is taken; a float is refused whatever its value
    for m in (1.0, 2.0):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {m}$"):
            tensor_model(model, m)
    assert tensor_model(model, np.int64(2)).dim == 4
    theta = [0.4, 0.2]
    assert np.trace(double.state_at(theta)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [2.7, True, 0, -1, float("nan"), float("inf")],
                         ids=["fractional", "bool", "zero", "negative", "nan", "inf"])
def test_tensor_model_refuses_a_copy_count_it_would_truncate(m):
    # int(2.7) is 2 and int(True) is 1: a truncated count builds the wrong model
    with pytest.raises(ValueError, match=r"^m must be (an integer|in \[1, 62\]), got "):
        tensor_model(qubit_phase_dephasing(), m)


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=["fractional", "bool", "str"])
@pytest.mark.parametrize("build", [
    lambda n: StatisticalModel(n, ("a",), frame_fn=lambda v: None).dim,
    lambda n: hg_overlap(n, 0.3),
], ids=["model-dim", "hg-overlap-mode"])
def test_integer_arguments_are_refused_not_truncated(build, value):
    # int(2.5) is 2 and int("2") is 2, and True is mode 1: each is refused in
    # tensor_model's words, and so is an integral float, while a numpy integer is taken
    for bad in (value, 2.0):
        with pytest.raises(ValueError, match=r"^(dim|n) must be an integer, got "):
            build(bad)
    assert build(np.int64(2)) == build(2)


def test_param_names_are_a_sequence_of_strings():
    # "phi" is not the three parameters 'p', 'h' and 'i'; every name is a str
    for names in ("phi", ("phi", 1), ["phi", None]):
        with pytest.raises(ValueError, match=r"^param_names must be a sequence of str, got "):
            StatisticalModel(2, names, frame_fn=lambda v: None)
    with pytest.raises(ValueError, match="^need at least one parameter$"):
        StatisticalModel(2, (), frame_fn=lambda v: None)
    model = StatisticalModel(2, ["phi", "delta"], frame_fn=lambda v: None)
    assert model.param_names == ("phi", "delta")
    with pytest.raises(ValueError, match="^expected 2 parameter values$"):
        model.state_at([0.7])


def test_param_names_are_distinct():
    # ("phi", "phi") built a two-parameter model whose domain error printed
    # {'phi': -1.0}, one value dropped
    with pytest.raises(ValueError, match=r"^param_names must be distinct, got \('phi', 'phi'\)$"):
        StatisticalModel(2, ("phi", "phi"), frame_fn=lambda v: None)


def _one_parameter_model(calls):
    def frame_fn(values):
        calls.append(values)
        return None, [np.eye(2) / 2.0, np.diag([1.0, -1.0]) * values[0]]
    return StatisticalModel(2, ("a",), domain_fn=lambda v: calls.append(v) or True,
                            frame_fn=frame_fn)


@pytest.mark.parametrize("params, good, bad", [
    (1, [0.3], 0.3), (1, [0.3], np.array([[0.3]])), (2, [0.3, 0.2], np.array([[0.3, 0.2]])),
], ids=["scalar", "one-by-one", "one-by-two"])
def test_theta_of_another_shape_is_refused_fresh_or_cached(params, good, bad):
    # a scalar was not iterable, a (1, 2) array reached the domain function,
    # and an array with the bytes of the last point was served from its record
    calls = []
    make = (lambda: _one_parameter_model(calls)) if params == 1 else qubit_phase_dephasing
    fresh, cached = make(), make()
    cached.state_at(good)
    calls.clear()
    for model in (fresh, cached):
        for read in (model.state_at, model.derivatives_at, model.frame_at, model.in_domain):
            with pytest.raises(ValueError, match=f"^expected {params} parameter values$"):
                read(bad)
    assert calls == []


DEEP = object()     # a list nested 100,000 deep, built in the test
_F, _Q = np.array([[2.0, 0.1], [0.1, 1.0]]), np.diag([3.0, 2.0])
_MIX_ARGS = (qubit_phase_dephasing(), np.array([0.7, 0.3]), separable_povm(), Povm([np.eye(2)]))
_SPEC = dict(model="phase-dephasing", measurement="separable", fixed={"phi": 0.7},
             sweep_name="delta", start=1e-3, stop=1.0, count=3)
# every public entry that takes an integer or real argument: (argument name,
# kind, call, refusal class)
ARGUMENTS = {
    "StatisticalModel-dim": ("dim", int, lambda v: StatisticalModel(
        v, ("a",), frame_fn=lambda _: None), ValueError),
    "tensor_model-m": ("m", int, lambda v: tensor_model(qubit_phase_dephasing(), v), ValueError),
    "r_metric-m": ("m", int, lambda v: r_metric(_F, _Q, v), ValueError),
    "r_nuisance-index": ("index", int, lambda v: r_nuisance(_F, _Q, v), ValueError),
    "hg_overlap-n": ("n", int, lambda v: hg_overlap(v, 0.3), ValueError),
    "hg_overlap-x0": ("x0", float, lambda v: hg_overlap(2, v), ValueError),
    "hg_overlap-x_m": ("x_m", float, lambda v: hg_overlap(2, 0.3, v), ValueError),
    "hg_overlap_closed_form-n": ("n", int, lambda v: hg_overlap_closed_form(v, 0.3), ValueError),
    "hg_overlap_closed_form-x0": ("x0", float, lambda v: hg_overlap_closed_form(2, v),
                                  ValueError),
    "hg_overlap_closed_form-x_m": ("x_m", float, lambda v: hg_overlap_closed_form(2, 0.3, v),
                                   ValueError),
    "PointSourceConfig-n_max": ("n_max", int, lambda v: PointSourceConfig(x_m=0.0, n_max=v),
                                ValueError),
    "PointSourceConfig-x_m": ("x_m", float, lambda v: PointSourceConfig(x_m=v), ValueError),
    "mix_povm-eps": ("eps", float, lambda v: mix_povm(*_MIX_ARGS[2:], v), ValueError),
    "x_finite_mix-eps": ("eps", float, lambda v: x_finite_mix(*_MIX_ARGS, v), ValueError),
    "SweepSpec-fix": ("fix phi", float, lambda v: SweepSpec(
        **{**_SPEC, "fixed": {"phi": v}}).validate(), SweepSpecError),
    **{f"SweepSpec-{key}": (key, kind, lambda v, key=key: SweepSpec(
        **{**_SPEC, key: v}).validate(), SweepSpecError)
       for key, kind in (("start", float), ("stop", float), ("count", int),
                         ("oracle_samples", int), ("seed", int), ("workers", int),
                         ("n_max", int))},
}
VALUES = {"bool": True, "str": "2", "bytes": b"2", "fractional": 2.5, "integral-float": 2.0,
          "nan": math.nan, "inf": math.inf, "401-digit": 10 ** 400, "deep-list": DEEP}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value}") for entry in ARGUMENTS for value in VALUES
    if ARGUMENTS[entry][1] is int or value not in ("fractional", "integral-float")])
def test_every_integer_and_real_argument_is_judged_by_one_rule(entry, value):
    # one judge, model.check_value, refuses each value in one line: a bool, a
    # str, bytes or a float where an integer is due, and a number no double
    # holds, never with a TypeError, a RecursionError or a NaN result
    name, kind, call, error = ARGUMENTS[entry]
    value = VALUES[value]
    what = "an integer" if kind is int else "a number"
    if value is DEEP:
        message = f"must be {what}, got list"
        value = []
        for _ in range(100_000):
            value = [value]
    elif isinstance(value, int) and not isinstance(value, bool):
        message = "must be finite, got an integer too large for a double"
    elif kind is float and isinstance(value, float):
        message = f"must be finite, got {value}"
    else:
        message = f"must be {what}, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(f'{name} {message}')}$"):
        call(value)


def test_tensor_model_product_rule_vs_fd():
    model = qubit_phase_dephasing()
    double = tensor_model(model, 2)
    theta = np.array([0.4, 0.2])
    derivs = double.derivatives_at(theta)
    assert abs(np.trace(derivs[0])) <= 1e-12
    h = 1e-5
    for j in range(2):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd = (double.state_at(up) - double.state_at(dn)) / (2 * h)
        assert np.max(np.abs(derivs[j] - fd)) <= 1e-8


def _kron_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@pytest.mark.parametrize("m", [2, 3])
def test_tensor_model_is_the_kron_chain_bit_for_bit(m):
    # the broadcast products take the factors left to right and sum the
    # product-rule terms in order, so every entry is the np.kron chain's
    base = qubit_phase_dephasing()
    power = tensor_model(base, m)
    for theta in ([0.4, 0.2], [2.3, 0.01], [-1.1, 1.7]):
        rho, derivs = base.state_at(theta), base.derivatives_at(theta)
        assert np.array_equal(power.state_at(theta), _kron_chain([rho] * m))
        got = power.derivatives_at(theta)
        assert len(got) == len(derivs)
        for d_power, d in zip(got, derivs):
            terms = [_kron_chain([d if k == pos else rho for k in range(m)])
                     for pos in range(m)]
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            assert np.array_equal(d_power, total)


def test_tensor_model_of_a_frame_model_is_the_kron_chain_bit_for_bit():
    # a frame model's power is formed from its lifted stack, the d x d state
    # and derivatives B S B^dag that state_at and derivatives_at return, not
    # from its r x r cores, whichever of the two models reads a point first
    base = point_source_model(PointSourceConfig(n_max=20, x_m=0.1))
    power = tensor_model(base, 2)
    assert power.dim == 21 ** 2
    for theta, power_first in (([0.1, 0.4, 0.3], False), ([0.0, 0.05, 0.8], True),
                               ([-0.2, 1.1, 0.5], False)):
        if power_first:
            power.state_at(theta)
        rho, derivs = base.state_at(theta), base.derivatives_at(theta)
        assert np.array_equal(power.state_at(theta), _kron_chain([rho, rho]))
        got = power.derivatives_at(theta)
        assert len(got) == len(derivs) == 3
        for d_power, d in zip(got, derivs):
            assert np.array_equal(d_power, _kron_chain([d, rho]) + _kron_chain([rho, d]))


def test_repeated_point_reuses_the_checked_arrays():
    states, derivatives = [], []
    base = qubit_phase_dephasing()

    def state_fn(values):
        states.append(tuple(values))
        return base.state_at(values)

    def derivative_fn(values):
        derivatives.append(tuple(values))
        return base.derivatives_at(values)

    def calls():
        return len(states), len(derivatives)

    model = StatisticalModel(2, base.param_names, state_fn, derivative_fn=derivative_fn,
                             domain_fn=base._domain_fn)
    # the first miss evaluates the state and its derivatives once each
    rho = model.state_at([0.4, 0.2])
    assert calls() == (1, 1)
    derivs = model.derivatives_at([0.4, 0.2])
    assert calls() == (1, 1)
    assert model.state_at(np.array([0.4, 0.2])) is rho
    again = model.derivatives_at((0.4, 0.2))
    assert again is not derivs and len(again) == len(derivs)
    assert all(a is b for a, b in zip(again, derivs))
    assert all(a.base is b.base and a.base is not None for a, b in zip(again, derivs))
    assert rho.base is derivs[0].base           # one checked stack per point
    B, frame_rho, frame_derivs = model.frame_at([0.4, 0.2])
    assert B is None and frame_rho is rho
    assert all(a is b for a, b in zip(frame_derivs, derivs))
    assert calls() == (1, 1) and not rho.flags.writeable
    assert not any(d.flags.writeable for d in derivs)
    other = model.state_at([0.4, 0.3])              # a new point is evaluated
    assert calls() == (2, 2) and not np.array_equal(other, rho)
    assert states == derivatives == [(0.4, 0.2), (0.4, 0.3)]
    with pytest.raises(DomainError):                # and checked on every miss
        model.state_at([0.4, -0.1])
    with pytest.raises(DomainError):
        model.state_at([0.4, -0.1])
    assert calls() == (2, 2)


@pytest.mark.parametrize("order", list(itertools.permutations(
    ("state_at", "derivatives_at", "frame_at"))), ids="-".join)
def test_point_source_point_is_evaluated_once_by_any_accessors(order):
    # one domain check and one frame per point, whichever accessors read it
    # and however often; the dense operators are the lift of that frame
    model = point_source_model(PointSourceConfig(n_max=20, x_m=0.1))
    calls = {"_check_domain": 0, "_frame_fn": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(model, name)):
            calls[_name] += 1
            return _original(*args)
        setattr(model, name, counted)
    theta = [0.1, 0.4, 0.3]
    first = [getattr(model, name)(theta) for name in order]
    again = [getattr(model, name)(np.array(theta)) for name in order]
    assert calls == {"_check_domain": 1, "_frame_fn": 1}
    for a, b in zip(first, again):
        assert all(x is y for x, y in zip(a, b)) if isinstance(a, (list, tuple)) else a is b
    B, rho, derivs = model.frame_at(theta)
    np.testing.assert_array_equal(model.state_at(theta), _lift(B, rho))
    np.testing.assert_array_equal(np.asarray(model.derivatives_at(theta)),
                                  _lift(B, np.asarray(derivs)))
    model.state_at([0.1, 0.5, 0.3])                     # a new point is evaluated
    assert calls == {"_check_domain": 2, "_frame_fn": 2}


def test_a_point_record_builds_each_view_triple_on_first_read():
    # a dense model's cores are its lift, so one triple serves frame_at and
    # state_at, and the stack a two-copy model reads from it builds none
    qubit = qubit_phase_dephasing()
    dense = StatisticalModel(2, qubit.param_names, qubit.state_at, qubit.derivatives_at,
                             domain_fn=qubit._domain_fn)
    theta = [0.4, 0.2]
    fisher_bundle(tensor_model(dense, 2), theta, bell_povm())
    B, ops = dense._point(theta)
    assert B is None and dense._operators(theta) is ops
    assert dense._record[2] is None and dense._record[3] is None
    rho = dense.state_at(theta)
    assert dense._record[2][0] is ops and dense._record[2][1] is rho
    assert dense.frame_at(theta)[1] is rho and dense._record[3] is None
    # a frame model's lift is its own stack, read by _operators and state_at
    frame = point_source_model(PointSourceConfig(n_max=20, x_m=0.1))
    theta = [0.1, 0.4, 0.3]
    full = frame._operators(theta)
    assert frame._record[2] is None and frame._record[3][0] is full
    assert frame.state_at(theta) is frame._record[3][1] and frame._record[2] is None
    assert frame.frame_at(theta)[1] is frame._record[2][1]
    assert frame._record[2][0] is frame._point(theta)[1]


def test_tensor_povm_completeness():
    prod = tensor_povm(separable_povm(), separable_povm())
    assert len(prod) == 16
    assert validate_povm(prod, 1e-12).passed


def test_state_validity_random_points():
    # built-in models at random domain points: unit trace, PSD, traceless derivs
    rng = np.random.default_rng(21)
    qubit = qubit_phase_dephasing()
    ps = point_source_model(PointSourceConfig(n_max=20, x_m=0.0))
    for i in range(50):
        if i % 2 == 0:
            model = qubit
            theta = [rng.uniform(0, 2 * np.pi), rng.uniform(0.05, 2.0)]
        else:
            model = ps
            theta = [rng.uniform(-0.3, 0.3), rng.uniform(0.0, 1.0),
                     rng.uniform(0.1, 0.9)]
        rho = model.state_at(theta)
        assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10
        for d in model.derivatives_at(theta):
            assert abs(np.real(np.trace(d))) <= 1e-9


def test_povm_refuses_a_nan_element():
    elements = [np.eye(2) / 2.0, np.array([[0.5, np.nan], [np.nan, 0.5]])]
    with pytest.raises(HermiticityError, match=r"non-finite entry \(stack member 1\)"):
        Povm(elements)


@pytest.mark.parametrize("elements, labels, message", [
    ([], None, "a POVM needs at least one element"),
    ([np.eye(2), np.eye(3)], None, "POVM elements must be matrices of one Hilbert dimension"),
    ([np.ones(2)], None, "POVM elements must be matrices of one Hilbert dimension"),
    ([np.eye(2) / 2.0] * 2, ["a"], "need one label per element"),
], ids=["empty", "two-dimensions", "vector", "one-label-short"])
def test_povm_refuses_a_malformed_element_list(elements, labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Povm(elements, labels=labels)


def test_nan_state_is_refused_where_it_is_built():
    # a state function that returns NaN at a finite point is refused by the
    # state's Hermiticity check, not later as a diverging score
    qubit = qubit_phase_dephasing()
    broken = StatisticalModel(2, ("phi", "delta"), lambda v: np.full((2, 2), np.nan),
                              derivative_fn=qubit.derivatives_at)
    with pytest.raises(HermiticityError, match="non-finite entry"):
        fisher_bundle(broken, [0.7, 0.3], separable_povm())
