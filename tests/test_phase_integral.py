"""The vectorised phase integral and Bessel kernels against the per-point
and per-element loops they replaced.

``reference_zeta`` is the nested quadrature the error-control integral
used before: one adaptive ``integrate_sqrt_singular`` call from each
radius to the turning point.  ``reference_series`` and
``reference_hankel`` are the scalar Bessel loops, unchanged.  The array
kernels do the same arithmetic except that numpy's ``exp``/``log`` start
the ascending series and may differ from the C library's by one ulp; the
series then rounds along another path, so the two agree to a few ulps of
the sum of the absolute terms, ``I_nu(x)``, and not better.
"""

import math

import numpy as np
import pytest
from scipy import special

from specprobe import wkb
from specprobe.potential import Channel, PotentialModel, effective_potential
from specprobe.specfun import (
    _bessel_any_order,
    _series_crossover,
    bessel_j,
    integrate_sqrt_singular,
    langer_profile,
)

QUARTIC = PotentialModel.pure(4, 1.0)
MIXED = PotentialModel.from_spec("1*r^4+0.5*r^6")
HARMONIC = PotentialModel.pure(2, 1.0, harmonic=True)

CASES = {
    "quartic 3:0": (Channel(3, 0), QUARTIC, 150.0),
    "mixed 5:2": (Channel(5, 2), MIXED, 90.0),
    "harmonic 3:0": (Channel(3, 0), HARMONIC, 41.0),
}


def reference_zeta(channel, model, lam, big_t, rs):
    """Signed zeta by one adaptive quadrature per radius."""
    kernel = lambda r: np.sqrt(
        np.abs(lam - effective_potential(channel, model, np.asarray(r)))
    )
    out = np.empty(len(rs))
    for i, rv in enumerate(rs):
        rv = float(rv)
        if rv <= big_t:
            out[i] = -integrate_sqrt_singular(kernel, rv, big_t, "right", rel_tol=1e-11)
        else:
            out[i] = integrate_sqrt_singular(kernel, big_t, rv, "left", rel_tol=1e-11)
    return out


@pytest.mark.parametrize(
    "offset", [-1e-8, -1e-9, 1e-9, -1e-10, 1e-10, -1e-11, 1e-11, 1e-12]
)
def test_zeta_next_to_the_turning_point(offset):
    # lam - U carries rounding noise of about eps lam, far above 1e-11 of the
    # segment from these radii to T; asked for 1e-11 it raised
    # QuadratureError.  The leading term is taken about the exact root
    # lam^(1/4) of r^4 = lam: the bisected T lies about one ulp above it,
    # which is 1.3e-4 of |r - T| at the offset 1e-12.
    channel, model, lam = CASES["quartic 3:0"]
    big_t = wkb.turning_points(channel, model, lam).T
    root = lam**0.25
    r = big_t * (1.0 + offset)
    zeta = wkb.phase_and_zeta(channel, model, lam, r).zeta
    slope = effective_potential(channel, model, root, 1)
    lead = (2.0 / 3.0) * math.sqrt(slope) * abs(r - root) ** 1.5
    assert math.copysign(1.0, zeta) == math.copysign(1.0, offset)
    assert abs(abs(zeta) - lead) <= 1e-4 * lead


def random_radii(channel, model, lam, big_t, seed):
    """Radii on both sides of T, allowed below it, with repeats and near-T points."""
    rng = np.random.default_rng(seed)
    below = rng.uniform(0.2 * big_t, big_t, 40)
    below = below[effective_potential(channel, model, below) < lam]
    above = rng.uniform(big_t, 2.0 * big_t, 20)
    near = big_t * np.array([1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-3])
    rs = np.concatenate([below, above, near, below[:3], above[:2]])
    return rng.permutation(rs)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [11, 12])
def test_zeta_matches_per_point_quadrature(case, seed):
    channel, model, lam = CASES[case]
    big_t = wkb.turning_points(channel, model, lam).T
    rs = random_radii(channel, model, lam, big_t, seed)
    mine = wkb._zeta(channel, model, lam, big_t, rs)
    ref = reference_zeta(channel, model, lam, big_t, rs)
    np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=0)
    assert np.all(np.sign(mine) == np.sign(rs - big_t))
    # repeated radii get the same value, to the bit
    _, first, counts = np.unique(rs, return_index=True, return_counts=True)
    for r in rs[first[counts > 1]]:
        assert len(set(mine[rs == r].tolist())) == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_zeta_single_point_is_the_one_quadrature(case):
    channel, model, lam = CASES[case]
    big_t = wkb.turning_points(channel, model, lam).T
    for r in (0.5 * big_t, 1.5 * big_t):
        mine = wkb._zeta(channel, model, lam, big_t, np.array([r]))
        assert mine[0] == reference_zeta(channel, model, lam, big_t, [r])[0]
    assert wkb._zeta(channel, model, lam, big_t, np.array([big_t]))[0] == 0.0


@pytest.mark.parametrize("case", sorted(CASES))
def test_phase_is_a_difference_of_zetas(case):
    channel, model, lam = CASES[case]
    big_t = wkb.turning_points(channel, model, lam).T
    rs = random_radii(channel, model, lam, big_t, 7)
    pz = wkb.phase_and_zeta(channel, model, lam, rs)
    ref_1 = reference_zeta(channel, model, lam, big_t, [1.0])[0]
    ref = np.minimum(reference_zeta(channel, model, lam, big_t, rs), 0.0) - ref_1
    np.testing.assert_allclose(pz.phase, ref, rtol=0, atol=1e-10 * abs(ref_1))
    one = wkb.phase_and_zeta(channel, model, lam, float(rs[0]))
    assert type(one.phase) is float and type(one.zeta) is float
    assert one.phase == pytest.approx(pz.phase[0], rel=0, abs=1e-12 * abs(ref_1))


@pytest.mark.parametrize("lam", [400.0, 3200.0])
def test_appendix_parts_match_nested_quadrature(monkeypatch, lam):
    ch = Channel(3, 0)
    mine = wkb.appendix_error_integral(ch, QUARTIC, lam)
    monkeypatch.setattr(wkb, "_zeta", reference_zeta)
    ref = wkb.appendix_error_integral(ch, QUARTIC, lam)
    assert mine == pytest.approx(ref, rel=1e-8)


def reference_series(nu, x):
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    total = term
    q = -half * half
    for k in range(1, 500):
        term *= q / (k * (nu + k))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 5e-324:
            return total
    raise AssertionError("reference series did not converge")


def reference_hankel(nu, x):
    mu = 4.0 * nu * nu
    p_sum = 1.0
    q_sum = 0.0
    best_p, best_q = p_sum, q_sum
    term = 1.0
    smallest = 1.0
    for k in range(1, 200):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * x * k)
        sign = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            p_sum += sign * term
        else:
            q_sum += sign * term
        size = abs(term)
        if size <= smallest:
            smallest = size
            best_p, best_q = p_sum, q_sum
            if size <= 1e-17:
                break
        elif size > 10.0 * smallest and k > 4:
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (
        best_p * math.cos(chi) - best_q * math.sin(chi)
    )


def reference_bessel(nu, x):
    if x <= _series_crossover(nu):
        return reference_series(nu, x)
    return reference_hankel(nu, x)


def bessel_arguments(nu):
    xc = _series_crossover(nu)
    return np.concatenate(
        [np.geomspace(1e-6, 1.0, 25), np.linspace(1.0, xc, 60), [xc, np.nextafter(xc, 99.0)],
         np.linspace(xc, 4.0 * xc, 60)[1:], np.geomspace(4.0 * xc, 2000.0, 25)]
    )


# the channel orders n + (d-2)/2 for d = 3..5, n = 0..3, and the Langer orders
ORDERS = sorted({n + (d - 2) / 2.0 for d in (3, 4, 5) for n in range(4)} | {1 / 3, -1 / 3})


@pytest.mark.parametrize("nu", ORDERS)
def test_array_bessel_matches_scalar_loops(nu):
    xs = bessel_arguments(nu)
    mine = _bessel_any_order(nu, xs)
    ref = np.array([reference_bessel(nu, float(x)) for x in xs])
    hankel = xs > _series_crossover(nu)
    assert hankel.any() and not hankel.all()
    np.testing.assert_allclose(mine[hankel], ref[hankel], rtol=0, atol=1e-14)
    bound = 1e-14 + 4.0 * np.finfo(float).eps * special.iv(nu, xs[~hankel])
    assert np.all(np.abs(mine[~hankel] - ref[~hankel]) <= bound)
    if nu >= 0.0:
        np.testing.assert_array_equal(bessel_j(nu, xs[None, :])[0], mine)


def test_array_langer_matches_scalar_loops():
    zs = np.concatenate([bessel_arguments(1 / 3), [0.5, 2.0, 50.0, 200.0]])
    mine = langer_profile(zs)
    ref = np.array(
        [math.sqrt(math.pi * z / 6.0) * (reference_bessel(1 / 3, z) + reference_bessel(-1 / 3, z))
         for z in zs]
    )
    series = zs <= _series_crossover(1 / 3)
    np.testing.assert_allclose(mine[~series], ref[~series], rtol=0, atol=1e-14)
    zs = zs[series]
    bound = 1e-14 + 4.0 * np.finfo(float).eps * np.sqrt(np.pi * zs / 6.0) * (
        special.iv(1 / 3, zs) + special.iv(-1 / 3, zs)
    )
    assert np.all(np.abs(mine[series] - ref[series]) <= bound)


def test_scalars_return_floats():
    assert type(bessel_j(0.5, 3.0)) is float
    assert type(bessel_j(2.5, 40.0)) is float
    assert type(bessel_j(0.0, 0.0)) is float
    assert type(langer_profile(2.0)) is float
    assert bessel_j(0.5, 3.0) == bessel_j(0.5, np.array([3.0]))[0]
    assert bessel_j(1.5, np.zeros((2, 2))).shape == (2, 2)
