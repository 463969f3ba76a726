from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congested_transport.congestion import (
    CongestionSpec,
    EdgeCosts,
    _newton_power_prox,
)
from congested_transport.errors import CongestedTransportError

FAMILIES = [
    CongestionSpec.quadratic(),
    CongestionSpec.monomial(1.0),
    CongestionSpec.monomial(3.0),
    CongestionSpec.monomial(1.7),
    CongestionSpec.affine_power(1.0, 2.0),
    CongestionSpec.affine_power(0.5, 3.0),
]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.describe())
def test_h_zero_and_derivative(spec):
    assert float(spec.H(np.array(0.0))) == pytest.approx(0.0, abs=1e-12)
    for t in (0.1, 1.0, 10.0):
        fd = (float(spec.H(np.array(t + 1e-5))) - float(spec.H(np.array(t - 1e-5)))) / 2e-5
        assert abs(fd - float(spec.g(np.array(t)))) <= 1e-6


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.describe())
def test_prox_solves_the_pointwise_problem(spec):
    # golden-section oracle for argmin tau*H(s) + (s - z)^2 / 2
    rng = np.random.default_rng(5)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(12):
        z = float(rng.uniform(0, 4))
        tau = float(rng.uniform(0.05, 3))
        lo, hi = 0.0, max(z, 1.0) + 1.0
        for _ in range(200):
            c = hi - gr * (hi - lo)
            d = lo + gr * (hi - lo)
            fc = tau * float(spec.H(np.array(c))) + 0.5 * (c - z) ** 2
            fd = tau * float(spec.H(np.array(d))) + 0.5 * (d - z) ** 2
            if fc < fd:
                hi = d
            else:
                lo = c
        oracle = 0.5 * (lo + hi)
        got = float(spec.prox(np.array([z]), tau)[0])
        assert got == pytest.approx(oracle, abs=5e-7)


def _magnitudes(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(p=st.one_of(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
                   st.floats(2.0, 4.0, exclude_min=True)),
       tau=_magnitudes(-12, 12),
       shift=st.one_of(st.just(0.0), _magnitudes(-12, 6)),
       z=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=8))
def test_newton_power_prox_solves_its_equation(p, tau, shift, z):
    z = np.array(z)
    s = _newton_power_prox(z, tau, p, shift=shift)
    rhs = np.maximum(z - tau * shift, 0.0)

    def f(t):
        return tau * t ** (p - 1.0) + t - rhs

    assert np.all(s >= 0.0)
    assert np.all(s[rhs <= 0] == 0.0)
    # where the root is a subnormal or underflows to 0 the residual cannot
    # reach 1e-12 relative; there s must be within one ulp of the root instead
    solved = np.abs(f(s)) <= 1e-12 * rhs
    nearest = ((s < np.finfo(float).tiny) & (f(np.nextafter(s, 0.0)) <= 0.0)
               & (f(np.nextafter(s, np.inf)) >= 0.0))
    assert np.all(solved | nearest)


def test_affine_prox_shrinkage_threshold():
    # the prox of a*t + t^2/2 must return zero exactly when z <= a * tau
    a = 0.7
    spec = CongestionSpec.affine_power(a, 2.0)
    tau = 0.9
    z = np.linspace(0, 3, 301)
    out = spec.prox(z, tau)
    below = z <= a * tau
    assert np.all(out[below] == 0.0)
    assert np.all(out[~below] > 0.0)
    expect = (z[~below] - tau * a) / (1.0 + tau)
    assert np.allclose(out[~below], expect, atol=1e-12)


def test_conjugate_quadratic_and_affine():
    quad = CongestionSpec.quadratic()
    s = np.linspace(0, 5, 21)
    assert np.allclose(quad.conjugate(s), 0.5 * s * s)
    aff = CongestionSpec.affine_power(1.0, 2.0)
    # sup_t t*s - t - t^2/2 = ((s-1)_+)^2/2
    assert np.allclose(aff.conjugate(s), 0.5 * np.maximum(s - 1, 0.0) ** 2)


def test_from_config_round_trip():
    for text in ("quadratic", "affine_power 0.5 3", "monomial 2", "monomial 1.7",
                 "affine_power 0.123456789 2.718281828459045"):
        spec = CongestionSpec.from_config(text)
        back = CongestionSpec.from_config(spec.describe())
        assert (back.a, back.p) == (spec.a, spec.p)
    assert CongestionSpec.from_config("monomial 2") == CongestionSpec.quadratic()
    assert CongestionSpec.from_config("affine_power 0 3") == CongestionSpec.monomial(3.0)
    with pytest.raises(CongestedTransportError):
        CongestionSpec.from_config("nope")
    with pytest.raises(CongestedTransportError):
        CongestionSpec.from_config("monomial 0.5")
    with pytest.raises(CongestedTransportError):
        CongestionSpec.from_config("affine_power 1")


def test_parameters_outside_the_family_rejected():
    for a, p in ((-1.0, 2.0), (-1e-300, 3.0), (0.0, 0.999), (1.0, 0.0),
                 (np.nan, 2.0), (0.0, np.nan), (np.inf, 2.0), (0.0, np.inf), ("x", 2.0)):
        with pytest.raises(CongestedTransportError):
            CongestionSpec(a, p)
    for text in ("monomial x", "monomial nan", "monomial inf", "affine_power x 2",
                 "affine_power 1 -inf", "affine_power 1e400 2"):
        with pytest.raises(CongestedTransportError):
            CongestionSpec.from_config(text)


def test_prox_survives_replace_and_is_not_compared():
    spec = CongestionSpec.affine_power(0.5, 3.0)
    calls = []

    def counted(z, tau):
        calls.append(tau)
        return spec.prox(z, tau)

    wrapped = replace(spec, prox=counted)
    assert wrapped == spec
    assert np.array_equal(wrapped.prox(np.array([2.0]), 0.5), spec.prox(np.array([2.0]), 0.5))
    assert calls == [0.5]
    moved = replace(spec, a=0.0)
    assert np.array_equal(moved.prox(np.array([2.0]), 0.5),
                          CongestionSpec.monomial(3.0).prox(np.array([2.0]), 0.5))


def test_edge_costs_grouping_matches_per_edge_eval():
    quad = CongestionSpec.quadratic()
    lin = CongestionSpec.monomial(1.0)
    costs = EdgeCosts([quad, lin, quad], 3)
    flows = np.array([1.0, 2.0, 3.0])
    assert np.allclose(costs.H(flows), [0.5, 2.0, 4.5])
    assert np.allclose(costs.g(flows), [1.0, 1.0, 3.0])
    # single spec broadcasting
    same = EdgeCosts(quad, 3)
    assert np.allclose(same.H(flows), [0.5, 2.0, 4.5])
    with pytest.raises(CongestedTransportError):
        EdgeCosts([quad], 3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                          st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 4.0)),
                          st.floats(0.0, 1e3)),
                min_size=1, max_size=12))
def test_edge_cost_arrays_match_each_spec(edges):
    specs = [CongestionSpec(a, p) for a, p, _ in edges]
    flows = np.array([t for _, _, t in edges])
    costs = EdgeCosts(specs, len(specs))
    for i, spec in enumerate(specs):
        assert costs.H(flows)[i] == spec.H(flows)[i]
        assert costs.g(flows)[i] == spec.g(flows)[i]
