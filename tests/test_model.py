import itertools

import numpy as np
import pytest

from fisusc.fisher import fisher_bundle
from fisusc.linalg import HermiticityError, _lift
from fisusc.model import (DomainError, Povm, StatisticalModel, mix_povm,
                          tensor_model, tensor_povm, validate_povm)
from fisusc.models import (PointSourceConfig, bell_povm, hg_overlap,
                           optimal_povm_point_sources, point_source_model,
                           qubit_phase_dephasing, separable_povm)


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
    with pytest.raises(ValueError):
        mix_povm(M, N, 1.5)
    with pytest.raises(ValueError):
        mix_povm(M, Povm([np.eye(3)]), 0.5)


def test_tensor_model_identity_and_trace():
    model = qubit_phase_dephasing()
    assert tensor_model(model, 1) is model
    double = tensor_model(model, 2)
    assert double.dim == 4
    # an integral count of another type is taken as it is
    assert tensor_model(model, 1.0) is model
    assert tensor_model(model, 2.0).dim == tensor_model(model, np.int64(2)).dim == 4
    theta = [0.4, 0.2]
    assert np.trace(double.state_at(theta)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [2.7, True, 0, -1, float("nan"), float("inf")],
                         ids=["fractional", "bool", "zero", "negative", "nan", "inf"])
def test_tensor_model_refuses_a_copy_count_it_would_truncate(m):
    # int(2.7) is 2 and int(True) is 1: a truncated count builds the wrong model
    with pytest.raises(ValueError, match="integer m >= 1"):
        tensor_model(qubit_phase_dephasing(), m)


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=["fractional", "bool", "str"])
@pytest.mark.parametrize("build", [
    lambda n: StatisticalModel(n, ("a",), frame_fn=lambda v: None).dim,
    lambda n: hg_overlap(n, 0.3),
], ids=["model-dim", "hg-overlap-mode"])
def test_integer_arguments_are_refused_not_truncated(build, value):
    # int(2.5) is 2 and int("2") is 2, and True is mode 1: each is refused in
    # tensor_model's words, while an integral float or a numpy integer is taken
    with pytest.raises(ValueError, match=r"^need an integer (dim >= 1|n >= 0), got "):
        build(value)
    assert build(2.0) == build(np.int64(2)) == build(2)


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


def test_nan_state_is_refused_where_it_is_built():
    # a state function that returns NaN at a finite point is refused by the
    # state's Hermiticity check, not later as a diverging score
    qubit = qubit_phase_dephasing()
    broken = StatisticalModel(2, ("phi", "delta"), lambda v: np.full((2, 2), np.nan),
                              derivative_fn=qubit.derivatives_at)
    with pytest.raises(HermiticityError, match="non-finite entry"):
        fisher_bundle(broken, [0.7, 0.3], separable_povm())
