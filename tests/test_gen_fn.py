import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cbpopt import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    NoConvergence,
    NumericalError,
    criticality,
    eval_gen_fn,
    rho,
    rho_star,
    validate_cbp_model,
    validate_mechanism,
)
from cbpopt import gen_fn
from conftest import bisect_min_root, mechanism_st, supercritical_mechanism_st


def exact_gen_fn(mech, v: Fraction) -> Fraction:
    """sum_k b_k v^k in rational arithmetic on the float rates, with the
    diagonal b1 equal to minus their exact sum."""
    rates = {k: Fraction(r) for k, r in mech.support.items()}
    return -sum(rates.values()) * v + sum(r * v**k for k, r in rates.items())


def exact_min_root(mech, halvings: int = 64) -> Fraction:
    """Smallest root of a supercritical mechanism by rational bisection: the
    function is positive on [0, rho) and nonpositive on [rho, 1]."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(halvings):
        mid = (lo + hi) / 2
        if exact_gen_fn(mech, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@st.composite
def near_critical_st(draw):
    """Birth rates on k in 2..5 and a death rate that leaves the drift a
    fraction eps of the death rate, eps log-uniform in [1e-12, 1e-1]."""
    ks = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4, unique=True))
    births = {k: draw(st.floats(min_value=0.05, max_value=20.0)) for k in ks}
    eps = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-1.0))
    death = sum((k - 1) * r for k, r in births.items()) / (1.0 + eps)
    return validate_mechanism({0: death, **births})


class TestEvalGenFn:
    def test_at_one_vanishes(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert abs(eval_gen_fn(mech, 1.0)) <= 1e-15

    def test_at_zero_equals_b0(self):
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert eval_gen_fn(mech, 0.0) == 1.0

    def test_factored_root(self):
        # 1 - 3v + 2v^2 = (1 - v)(1 - 2v) vanishes at one half.
        mech = validate_mechanism({0: 1.0, 2: 2.0})
        assert abs(eval_gen_fn(mech, 0.5)) <= 1e-15

    @given(mechanism_st())
    def test_vanishes_at_one_generally(self, mech):
        assert abs(eval_gen_fn(mech, 1.0)) <= 1e-12 * mech.abs_b1


class TestRho:
    def test_supercritical_example(self):
        result = rho(validate_mechanism({0: 1.0, 2: 2.0}))
        assert result.criticality == SUPERCRITICAL
        assert abs(result.rho - 0.5) <= 1e-12

    def test_subcritical_returns_exactly_one(self):
        result = rho(validate_mechanism({0: 2.0, 2: 1.0}))
        assert result.rho == 1.0
        assert result.criticality == SUBCRITICAL

    def test_critical_returns_exactly_one(self):
        result = rho(validate_mechanism({0: 1.0, 2: 1.0}))
        assert result.rho == 1.0
        assert result.criticality == CRITICAL

    def test_no_death_root_zero(self):
        result = rho(validate_mechanism({0: 0.0, 2: 1.0}))
        assert result.rho == 0.0

    def test_max_iter_exhausted(self, monkeypatch):
        monkeypatch.setattr(gen_fn, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(NoConvergence):
            rho(validate_mechanism({0: 1.0, 2: 2.0}))

    def test_no_convergence_reports_last_step(self, monkeypatch):
        monkeypatch.setattr(gen_fn, "DEFAULT_MAX_ITER", 3)
        with pytest.raises(NoConvergence) as err:
            rho(validate_mechanism({0: 1.0, 2: 1.00001}))
        step = float(re.search(r"last step ([^,]+),", str(err.value)).group(1))
        assert step > 0.0

    @given(supercritical_mechanism_st())
    @settings(max_examples=60, deadline=None)
    def test_iterates_monotone_and_bounded(self, mech):
        trace: list[float] = []
        result = rho(mech, trace=trace)
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert all(0.0 <= v <= 1.0 for v in trace)
        assert 0.0 <= result.rho <= 1.0

    @given(mechanism_st())
    @settings(max_examples=60, deadline=None)
    def test_residual_scaled_bound(self, mech):
        result = rho(mech)
        assert result.residual <= 10.0 * 1e-13 * mech.abs_b1

    @given(mechanism_st())
    @settings(max_examples=60, deadline=None)
    def test_root_is_one_iff_not_supercritical(self, mech):
        result = rho(mech)
        assert (result.rho == 1.0) == (result.criticality in (SUBCRITICAL, CRITICAL))

    @given(mechanism_st(), st.sampled_from([0.5, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_rate_scaling_leaves_root_alone(self, mech, factor):
        scaled = validate_mechanism({k: factor * r for k, r in mech.support.items()})
        assert abs(rho(scaled).rho - rho(mech).rho) <= 1e-12

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_quadratic_closed_form(self, d, b):
        result = rho(validate_mechanism({0: d, 2: b}))
        assert abs(result.rho - min(1.0, d / b)) <= 1e-10

    @given(supercritical_mechanism_st())
    @settings(max_examples=40, deadline=None)
    def test_against_bisection_oracle(self, mech):
        assert abs(rho(mech).rho - bisect_min_root(mech)) <= 1e-10


class TestCertifiedRoot:
    @given(near_critical_st())
    @settings(max_examples=150, deadline=None)
    def test_bracket_holds_the_exact_root(self, mech):
        result = rho(mech)
        # A drift whose sign is lost in rounding pins the root to 1.
        assume(result.criticality == SUPERCRITICAL)
        lo, hi = result.bracket
        assert lo <= result.rho <= hi
        # The function is positive left of the smallest root and nonpositive
        # from it to 1, so these signs put that root in [lo, hi].
        assert exact_gen_fn(mech, Fraction(lo)) >= 0 >= exact_gen_fn(mech, Fraction(hi))
        assert abs(Fraction(result.rho) - exact_min_root(mech)) <= 1e-13

    @pytest.mark.parametrize("eps", [10.0**-p for p in range(2, 11)])
    def test_near_critical_ladder(self, eps):
        result = rho(validate_mechanism({0: 1.0, 2: 1.0 + eps}))
        assert abs(result.rho - 1.0 / (1.0 + eps)) <= 1e-12
        assert result.iterations <= 60

    @pytest.mark.parametrize("rates", [{2: 1.0}, {3: 2.0, 5: 0.5}])
    def test_no_death_root_is_exactly_zero(self, rates):
        result = rho(validate_mechanism(rates))
        assert result.rho == 0.0
        assert result.bracket == (0.0, 0.0)

    @pytest.mark.parametrize("rates", [{0: 2.0, 2: 1.0}, {0: 1.0, 2: 1.0}])
    def test_root_one_is_exact(self, rates):
        assert rho(validate_mechanism(rates)).bracket == (1.0, 1.0)

    def test_uncertifiable_root_is_a_numerical_error(self, monkeypatch):
        # No bracket is narrower than a few ulps, so a zero width cannot be met.
        monkeypatch.setattr(gen_fn, "ROOT_TIE_TOL", 0.0)
        with pytest.raises(NumericalError, match="cannot be certified"):
            rho(validate_mechanism({0: 1.0, 2: 2.0}))
        model = validate_cbp_model(1, {1: ["a1"]}, ["a1"], {"a1": {0: 1.0, 2: 2.0}})
        with pytest.raises(NumericalError, match="a1"):
            rho_star(model)


class TestCriticality:
    def test_drift_sign(self):
        assert criticality(validate_mechanism({0: 1.0, 2: 2.0})) == SUPERCRITICAL
        assert criticality(validate_mechanism({0: 2.0, 2: 1.0})) == SUBCRITICAL
        assert criticality(validate_mechanism({0: 1.0, 2: 1.0})) == CRITICAL

    @pytest.mark.parametrize("scale", [1e-13, 1.0])
    def test_label_does_not_depend_on_rate_units(self, scale):
        result = rho(validate_mechanism({0: 1.0 * scale, 2: 1.5 * scale}))
        assert result.criticality == SUPERCRITICAL
        assert result.rho == pytest.approx(2 / 3, abs=1e-15)

    @pytest.mark.parametrize("rates", [{0: 1.0, 2: 1.0}, {0: 0.1 + 0.2, 2: 0.3}])
    def test_drift_lost_in_rounding_is_critical(self, rates):
        result = rho(validate_mechanism(rates))
        assert result.criticality == CRITICAL
        assert result.bracket == (1.0, 1.0)


class TestRhoStar:
    def test_two_actions(self, two_action_model):
        roots = rho_star(two_action_model)
        assert roots.a_star == "a1"
        assert abs(roots.rho_star - 0.5) <= 1e-12
        assert roots.tied == ("a1",)

    def test_singleton(self):
        model = validate_cbp_model(1, {1: ["a1"]}, ["a1"], {"a1": {0: 1.0, 2: 2.0}})
        roots = rho_star(model)
        assert roots.a_star == "a1"
        assert roots.rho_star == roots.per_action["a1"].rho

    def test_tie_detection(self):
        # 2 - 6v + 4v^2 = 2 (1 - v)(1 - 2v): same root as the unscaled action.
        model = validate_cbp_model(
            1,
            {1: ["a1"]},
            ["a1", "a3"],
            {"a1": {0: 1.0, 2: 2.0}, "a3": {0: 2.0, 2: 4.0}},
        )
        assert abs(bisect_min_root(model.mechanism("a3")) - 0.5) <= 1e-9
        roots = rho_star(model)
        assert roots.tied == ("a1", "a3")
        assert roots.a_star == "a1"

    @pytest.mark.parametrize("smaller, larger", [("a1", "a2"), ("a2", "a1")])
    def test_disjoint_brackets_are_not_tied(self, smaller, larger):
        # Roots 5e-10 apart: within 1e-9 of each other, but their certified
        # brackets are disjoint, so only the smaller one can be the minimum.
        c = 1 + 1e-4
        model = validate_cbp_model(
            1,
            {1: [smaller]},
            ["a1", "a2"],
            {smaller: {0: 1.0, 2: c}, larger: {0: 1.0, 2: c - 5e-10 * c**2}},
        )
        roots = rho_star(model)
        assert roots.per_action[smaller].bracket[1] < roots.per_action[larger].bracket[0]
        assert roots.tied == (smaller,)
        assert roots.a_star == smaller
        assert roots.rho_star == roots.per_action[smaller].rho

    def test_overlapping_brackets_tie_and_a_star_keeps_its_root(self):
        # a2's root is a few ulps below a1's, inside a1's bracket: both may be
        # the minimum, and a1, the smaller id, is reported with its own root.
        model = validate_cbp_model(
            1,
            {1: ["a1"]},
            ["a1", "a2"],
            {"a1": {0: 1.0, 2: 2.0}, "a2": {0: 1.0, 2: 2.0 + 4 * math.ulp(2.0)}},
        )
        roots = rho_star(model)
        assert roots.per_action["a2"].rho < roots.per_action["a1"].rho
        assert roots.tied == ("a1", "a2")
        assert roots.a_star == "a1"
        assert roots.rho_star == roots.per_action["a1"].rho

    def test_no_convergence_names_action(self, monkeypatch):
        monkeypatch.setattr(gen_fn, "DEFAULT_MAX_ITER", 2)
        model = validate_cbp_model(1, {1: ["a1"]}, ["a1"], {"a1": {0: 1.0, 2: 2.0}})
        with pytest.raises(NoConvergence, match="a1"):
            rho_star(model)
