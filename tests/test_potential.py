import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprobe.potential import (
    Channel,
    PotentialModel,
    PowerTerm,
    effective_potential,
    eval_potential,
    validate_assumptions,
)


def test_parse_sum_model():
    model = PotentialModel.from_spec("1*r^4+0.5*r^6")
    assert [(t.exponent, t.coefficient) for t in model.terms] == [(4, 1.0), (6, 0.5)]
    assert model.growth_index == 2.0
    assert model.spec_string == "1*r^4+0.5*r^6"
    # round trip
    again = PotentialModel.from_spec(model.spec_string)
    assert again == model


def test_spec_string_is_exact():
    # %g would print 1.0000004 as 1 and so share the cache entry of 1*r^4
    for text, spec in [
        ("1.0000004*r^4", "1.0000004*r^4"),
        ("0.1*r^4+0.2*r^6", "0.1*r^4+0.2*r^6"),
        ("1e20*r^4", "1e20*r^4"),
    ]:
        model = PotentialModel.from_spec(text)
        assert model.spec_string == spec
        assert PotentialModel.from_spec(model.spec_string) == model
    third = PotentialModel.pure(4, 1.0 / 3.0)
    assert PotentialModel.from_spec(third.spec_string) == third
    assert third.spec_string != PotentialModel.pure(4, 0.333333).spec_string


def test_parse_bare_coefficient_defaults_to_one():
    model = PotentialModel.from_spec("r^4")
    assert model.terms[0].coefficient == 1.0


def test_parse_rejects_garbage():
    for bad in ["r^3", "1*r", "-1*r^4", "1*r^4 + ", "x^4"]:
        with pytest.raises(ValueError):
            PotentialModel.from_spec(bad)


def test_quadratic_requires_harmonic_flag():
    with pytest.raises(ValueError):
        PotentialModel.pure(2)
    model = PotentialModel.pure(2, harmonic=True)
    assert model.growth_index == 1.0


def test_duplicate_exponents_merge():
    model = PotentialModel((PowerTerm(4, 1.0), PowerTerm(4, 2.0)))
    assert len(model.terms) == 1
    assert model.terms[0].coefficient == 3.0


def test_eval_potential_values_and_derivatives():
    model = PotentialModel.from_spec("1*r^4+0.5*r^6")
    # V(2) = 16 + 32, V'(2) = 4*8 + 3*32, V''(2) = 12*4 + 15*16, V'''(2) = 24*2 + 60*8
    assert eval_potential(model, 2.0) == pytest.approx(48.0, rel=1e-14)
    assert eval_potential(model, 2.0, 1) == pytest.approx(128.0, rel=1e-14)
    assert eval_potential(model, 2.0, 2) == pytest.approx(288.0, rel=1e-14)
    assert eval_potential(model, 2.0, 3) == pytest.approx(528.0, rel=1e-14)


def test_eval_potential_array_and_domain():
    model = PotentialModel.pure(4)
    r = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(eval_potential(model, r), r**4, rtol=1e-14)
    with pytest.raises(ValueError):
        eval_potential(model, -1.0)
    with pytest.raises(ValueError):
        eval_potential(model, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        eval_potential(model, 1.0, order=4)


def test_channel_constants():
    assert Channel(3, 0).gamma == 0.0
    assert Channel(3, 1).gamma == 2.0
    assert Channel(4, 0).gamma == 0.75
    assert Channel(5, 2).gamma == 12.0
    assert Channel(3, 0).bessel_order == 0.5
    assert Channel(4, 1).bessel_order == 2.0
    assert Channel(3, 2).regular_exponent == 3.0
    with pytest.raises(ValueError):
        Channel(2, 0)
    with pytest.raises(ValueError):
        Channel(3, -1)


def test_effective_potential_adds_centrifugal_term():
    model = PotentialModel.pure(4)
    ch = Channel(3, 1)
    assert effective_potential(ch, model, 2.0) == pytest.approx(0.5 + 16.0, rel=1e-14)
    # derivative of gamma/r^2 is -2 gamma/r^3
    assert effective_potential(ch, model, 2.0, 1) == pytest.approx(
        -2.0 * 2.0 / 8.0 + 32.0, rel=1e-14
    )
    assert effective_potential(Channel(3, 0), model, 2.0) == eval_potential(model, 2.0)


def test_validate_pure_quartic():
    report = validate_assumptions(PotentialModel.pure(4), 1.0, 100.0)
    assert report.passed
    assert report.convexity_ok and report.growth_ok and report.superquadratic_ok
    # r V'/(2V) = 2 identically for a pure quartic
    assert report.max_admissible_c == pytest.approx(2.0, abs=1e-12)
    # r V'/V = 4, r V''/V' = 3, r V'''/V'' = 2 identically
    assert report.worst_ratios[0] == pytest.approx(4.0, rel=1e-12)
    assert report.worst_ratios[1] == pytest.approx(3.0, rel=1e-12)
    assert report.worst_ratios[2] == pytest.approx(2.0, rel=1e-12)


def test_validate_harmonic_fails_superquadratic():
    report = validate_assumptions(PotentialModel.pure(2, harmonic=True), 1.0, 100.0)
    assert not report.passed
    assert not report.superquadratic_ok
    assert report.max_admissible_c == pytest.approx(1.0, abs=1e-12)
    assert report.convexity_ok


def test_validate_sum_binds_at_window_left_edge():
    # r V'/(2V) = (2 + 3 r^2)/(1 + r^2) is increasing, so the sampled
    # infimum sits at the left edge of the window: 2.5 at r = 1.
    model = PotentialModel.from_spec("1*r^4+1*r^6")
    report = validate_assumptions(model, 1.0, 100.0)
    assert report.passed
    assert report.max_admissible_c == pytest.approx(2.5, rel=1e-12)
    assert report.admissible_argmin == pytest.approx(1.0, rel=1e-12)
    # the stored index is the smallest exponent over two
    assert report.growth_index == 2.0


def test_validate_window_argument_errors():
    model = PotentialModel.pure(4)
    with pytest.raises(ValueError):
        validate_assumptions(model, 2.0, 1.0)
    with pytest.raises(ValueError):
        validate_assumptions(model, 0.5, 10.0)  # undercuts threshold radius
    with pytest.raises(ValueError):
        validate_assumptions(model, 1.0, 10.0, samples=4)


@settings(max_examples=30, deadline=None)
@given(
    exponents=st.lists(
        st.sampled_from([4, 6, 8, 10]), min_size=1, max_size=3, unique=True
    ),
    coeffs=st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
)
def test_positive_even_sums_always_validate(exponents, coeffs):
    terms = tuple(PowerTerm(e, c) for e, c in zip(exponents, coeffs))
    model = PotentialModel(terms)
    report = validate_assumptions(model, 1.0, 50.0, samples=64)
    assert report.passed
    # the infimum of r V'/(2V) is at least the smallest c_m
    assert report.max_admissible_c >= model.growth_index - 1e-9


@settings(max_examples=20, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
def test_exact_growth_identity_pure_powers(r):
    # r V' - 2 c V vanishes identically for a pure power
    model = PotentialModel.pure(6, coefficient=0.3)
    v = eval_potential(model, r)
    dv = eval_potential(model, r, 1)
    assert abs(r * dv - 6.0 * v) <= 1e-12 * abs(6.0 * v)
