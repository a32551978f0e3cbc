import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprobe.model import PowerTerm, validate_assumptions
from specprobe.potential import Channel, PotentialModel, effective_potential, eval_potential


def test_parse_sum_model():
    model = PotentialModel.from_spec("1*r^4+0.5*r^6")
    assert [(t.exponent, t.coefficient) for t in model.terms] == [(4, 1.0), (6, 0.5)]
    # the paper's c is deg(V)/2, the growth at infinity
    assert model.growth_index == 3.0
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


def test_signed_exponent_coefficients_round_trip():
    # a "+" after an exponent marker belongs to the coefficient
    for text, terms in [
        ("1e+2*r^4", [(4, 100.0)]),
        ("1.5E+1*r^4+2*r^6", [(4, 15.0), (6, 2.0)]),
        ("2*r^4 + 3.25e-1*r^6+1E+20*r^8", [(4, 2.0), (6, 0.325), (8, 1e20)]),
    ]:
        model = PotentialModel.from_spec(text)
        assert [(t.exponent, t.coefficient) for t in model.terms] == terms
        assert PotentialModel.from_spec(model.spec_string) == model
    assert PotentialModel.from_spec("1e+2*r^4") == PotentialModel.from_spec("1e2*r^4")


def test_parse_bare_coefficient_defaults_to_one():
    model = PotentialModel.from_spec("r^4")
    assert model.terms[0].coefficient == 1.0


def test_parse_rejects_garbage():
    for bad in ["r^3", "1*r", "-1*r^4", "1*r^4 + ", "x^4", "1e+*r^4", "1*r^4+e+2*r^6"]:
        with pytest.raises(ValueError):
            PotentialModel.from_spec(bad)


def test_quadratic_builds_and_odd_or_zero_exponents_raise():
    # the model is its terms: whether r^2 growth is acceptable is the
    # command line's decision, read off growth_index
    model = PotentialModel.pure(2)
    assert model.growth_index == 1.0
    assert PotentialModel.from_spec("1*r^2+1*r^4").growth_index == 2.0
    for exponent in (0, 1, 3, 5, -2):
        with pytest.raises(ValueError):
            PotentialModel.pure(exponent)
    with pytest.raises(ValueError):
        PotentialModel((PowerTerm(4, 1.0), PowerTerm(3, 1.0)))
    with pytest.raises(ValueError):
        PowerTerm(4.0, 1.0)  # not an integer
    with pytest.raises(ValueError):
        PotentialModel.pure(4, 0.0)


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


def sampled_assumptions(model, r_lo, r_hi, samples=400):
    """The assumptions on a dense geometric sample of ``[r_lo, r_hi]``: the
    least and greatest ``r V'/(2V)``, the least ``V''`` and the greatest of
    each ratio ``r V^(j)/V^(j-1)``.  The reference for the closed forms."""
    r = np.geomspace(r_lo, r_hi, samples)
    v = [eval_potential(model, r, j) for j in range(4)]
    growth = r * v[1] / (2.0 * v[0])
    return {
        "growth": (float(growth.min()), float(growth.max())),
        "least_d2v": float(v[2].min()),
        "ratios": tuple(float(np.max(r * v[j] / v[j - 1])) for j in (1, 2, 3)),
    }


def test_validate_pure_quartic():
    report = validate_assumptions(PotentialModel.pure(4))
    assert report.superquadratic
    # r V'/(2V) = 2 identically for a pure quartic
    assert report.min_term_c == report.c == 2.0
    # r V'/V = 4, r V''/V' = 3, r V'''/V'' = 2 identically
    assert report.ratio_bounds == (4.0, 3.0, 2.0)
    sampled = sampled_assumptions(PotentialModel.pure(4), 1e-3, 1e3)
    assert sampled["ratios"] == pytest.approx((4.0, 3.0, 2.0), rel=1e-12)


def test_validate_harmonic_fails_superquadratic():
    report = validate_assumptions(PotentialModel.pure(2))
    assert not report.superquadratic
    assert report.min_term_c == report.c == 1.0
    assert report.ratio_bounds == (2.0, 1.0, 0.0)


def test_validate_sum_binds_at_window_left_edge():
    # r V'/(2V) = (2 + 3 r^2)/(1 + r^2) rises on all of r > 0: its infimum,
    # the smallest c_m, binds at the left edge r -> 0, and its supremum,
    # the growth index deg(V)/2, as r -> inf
    model = PotentialModel.from_spec("1*r^4+1*r^6")
    report = validate_assumptions(model)
    assert (report.min_term_c, report.c) == (2.0, 3.0) == (2.0, model.growth_index)
    assert report.ratio_bounds == (6.0, 5.0, 4.0)
    low, high = sampled_assumptions(model, 1e-3, 1e3)["growth"]
    assert low == pytest.approx(2.0 + 1e-6, rel=1e-9)
    assert high == pytest.approx(3.0 - 1e-6, rel=1e-9)
    assert sampled_assumptions(model, 1.0, 1.0, samples=1)["growth"][0] == 2.5


def test_validate_window_argument_errors():
    # the assumptions hold on all of r > 0: there is no window to pass
    model = PotentialModel.pure(4)
    with pytest.raises(TypeError):
        validate_assumptions(model, 1.0, 100.0)
    with pytest.raises(TypeError):
        validate_assumptions(model, r_lo=1.0)


@pytest.mark.parametrize("exponent", [2, 4, 6, 10])
def test_pure_power_infimum_sits_at_the_left_edge(exponent):
    # r V'/(2V) is constant, so its infimum as r -> 0 is its value everywhere
    model = PotentialModel.pure(exponent, 0.7)
    report = validate_assumptions(model)
    assert report.min_term_c == report.c == exponent / 2.0
    sampled = sampled_assumptions(model, 1e-3, 1e3)
    assert sampled["growth"] == pytest.approx((exponent / 2.0,) * 2, rel=1e-12)


def test_validate_survives_windows_whose_powers_overflow():
    # r^400 overflows past r of about 6; the closed forms form no power of r
    report = validate_assumptions(PotentialModel.from_spec("1*r^4+1e300*r^400"))
    assert report.superquadratic
    assert (report.min_term_c, report.c) == (2.0, 200.0)
    assert report.ratio_bounds == (400.0, 399.0, 398.0)


@settings(max_examples=60, deadline=None)
@given(
    exponents=st.lists(st.sampled_from([2, 4, 6, 8, 10]), min_size=1, max_size=3, unique=True),
    coeffs=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=3, max_size=3),
    edges=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2),
)
def test_exact_check_matches_dense_sampling(exponents, coeffs, edges):
    terms = tuple(PowerTerm(e, c) for e, c in zip(exponents, coeffs))
    model = PotentialModel(terms)
    r_lo, r_hi = (10.0**x for x in sorted(edges))
    report = validate_assumptions(model)
    assert (report.min_term_c, report.c) == (min(exponents) / 2.0, max(exponents) / 2.0)
    sampled = sampled_assumptions(model, r_lo, r_hi)
    low, high = sampled["growth"]
    tol = 1.0 + 1e-12
    assert report.min_term_c <= low * tol and high <= report.c * tol
    assert sampled["least_d2v"] > 0.0
    for ratio, bound in zip(sampled["ratios"], report.ratio_bounds):
        assert ratio <= bound * tol
    if len(exponents) == 1:  # a single term meets every bound at every r
        assert (low, high) == pytest.approx((report.c, report.c), rel=1e-12)
        assert sampled["ratios"] == pytest.approx(report.ratio_bounds, rel=1e-12)


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
    report = validate_assumptions(model)
    assert report.superquadratic
    # r V'/(2V) runs from the smallest c_m to deg(V)/2
    assert report.min_term_c == min(exponents) / 2.0
    assert report.c == model.growth_index == max(exponents) / 2.0
    assert report.ratio_bounds == (2.0 * report.c, 2.0 * report.c - 1.0, 2.0 * report.c - 2.0)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
def test_exact_growth_identity_pure_powers(r):
    # r V' - 2 c V vanishes identically for a pure power
    model = PotentialModel.pure(6, coefficient=0.3)
    v = eval_potential(model, r)
    dv = eval_potential(model, r, 1)
    assert abs(r * dv - 6.0 * v) <= 1e-12 * abs(6.0 * v)
