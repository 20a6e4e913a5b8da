"""Iteration backbone: derived constants, jets, orbits, Green's function."""

import math

import numpy as np
import pytest

from greenjulia.dynamics import (compose_jets, critical_orbit,
                                 derive_params, greens_value, iterate_jet,
                                 julia_cover, log_critical_values, preimages)
from greenjulia.errors import DomainError, IterationOverflowError

LAM_GRID = [2.1, 3.5, 6.0, 10.0, 100.0]


def test_derived_constants_lambda6():
    p = derive_params(6.0)
    assert abs(p.xi - 3.0) < 1e-12
    assert abs(p.eta - math.sqrt(3.0)) < 1e-12
    assert abs(p.rho - 6.0) < 1e-12
    assert abs(p.nu - 2.0) < 1e-12
    assert p.theorem_range


def test_derived_constants_chebyshev_boundary():
    p = derive_params(2.0)
    assert p.xi == 2.0
    assert p.eta == 0.0
    assert p.nu == 1.0
    assert p.a == 0.0
    assert not p.theorem_range


def test_theorem_range_edge():
    # 3.5 > 2 + sqrt(2) ~ 3.4142, 3.4 is not
    assert derive_params(3.5).theorem_range
    assert not derive_params(3.4).theorem_range


def test_lambda_below_two_rejected():
    with pytest.raises(DomainError):
        derive_params(1.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_non_finite_lambda_rejected(lam):
    # inf used to come back as a bundle with eta = nan
    with pytest.raises(DomainError, match="finite"):
        derive_params(lam)


@pytest.mark.parametrize("z", [math.nan, complex(0.5, math.nan), math.inf,
                               complex(1.0, -math.inf)])
def test_greens_value_rejects_non_finite_points(z):
    # nan used to read as a point of E0, g = 0
    with pytest.raises(DomainError, match="finite"):
        greens_value(derive_params(6.0), z)


def test_fixed_point_identities_grid():
    for lam in [2.0] + LAM_GRID:
        p = derive_params(lam)
        assert abs((p.xi * p.xi - lam) - p.xi) <= 1e-12 * p.xi
        assert abs((p.eta * p.eta - lam) + p.xi) <= 1e-12 * p.xi
        assert abs(p.nu * (p.nu + 1.0) - lam) <= 1e-12 * lam
        assert p.rho == 2.0 * p.xi


def test_iterate_jet_hand_values():
    p = derive_params(6.0)
    assert iterate_jet(p, 0.0, 2).value == 30.0  # P(0) = -6, P(-6) = 30
    for k in (1, 3, 5):
        jet = iterate_jet(p, p.xi, k)
        assert abs(jet.value - p.xi) < 1e-12
        assert abs(jet.d1 - p.rho ** k) < 1e-9 * p.rho ** k


def test_iterate_jet_product_formula():
    # (P^n)'(z) = 2^n P^{n-1}(z) ... P(z) z
    p = derive_params(6.0)
    for z in (1.0 + 1.0j, -2.3 + 0.4j, 0.7 - 1.1j):
        for n in (1, 2, 3, 5):
            prod = 1.0 + 0.0j
            v = z
            for _ in range(n):
                prod *= v
                v = v * v - p.lam
            jet = iterate_jet(p, z, n)
            expected = 2.0 ** n * prod
            assert abs(jet.d1 - expected) <= 1e-12 * abs(expected)


def test_jet_matches_finite_differences():
    p = derive_params(6.0)
    eps = 1e-6
    for z in (1.0 + 1.0j, 2.5 - 0.5j):
        for n in (2, 3):
            jet = iterate_jet(p, z, n)
            fp = (iterate_jet(p, z + eps, n).value
                  - iterate_jet(p, z - eps, n).value) / (2 * eps)
            fpp = (iterate_jet(p, z + eps, n).value
                   - 2 * jet.value + iterate_jet(p, z - eps, n).value) / eps ** 2
            assert abs(fp - jet.d1) <= 1e-5 * max(1.0, abs(jet.d1))
            assert abs(fpp - jet.d2) <= 1e-4 * max(1.0, abs(jet.d2))


def test_jet_composition_rule():
    p = derive_params(6.0)
    z = 1.3 + 0.8j
    inner = iterate_jet(p, z, 2)
    outer = iterate_jet(p, inner.value, 3)
    combined = compose_jets(outer, inner)
    direct = iterate_jet(p, z, 5)
    assert abs(combined.value - direct.value) <= 1e-12 * abs(direct.value)
    assert abs(combined.d1 - direct.d1) <= 1e-12 * abs(direct.d1)
    assert abs(combined.d2 - direct.d2) <= 1e-11 * abs(direct.d2)


def test_iterate_jet_overflow_carries_depth():
    p = derive_params(6.0)
    with pytest.raises(IterationOverflowError) as err:
        iterate_jet(p, 1e80, 10)
    assert 0 < err.value.depth < 10


def test_critical_orbit_hand_values():
    p = derive_params(6.0)
    assert critical_orbit(p, 3) == [-6.0, 30.0, 894.0]
    orbit = critical_orbit(p, 4)
    assert orbit[-1] == 894.0 ** 2 - 6.0 == 799230.0
    for a, b in zip(orbit, orbit[1:]):
        assert b == a * a - 6.0
    assert all(x > 0 and y > x for x, y in zip(orbit[1:], orbit[2:]))


def test_critical_orbit_truncates_on_overflow():
    p = derive_params(6.0)
    orbit = critical_orbit(p, 60)
    assert len(orbit) < 60
    assert all(math.isfinite(x) for x in orbit)


def test_log_critical_values_match_orbit():
    p = derive_params(6.0)
    orbit = critical_orbit(p, 6)
    logs = log_critical_values(p, 6)
    for x, lx in zip(orbit, logs):
        assert abs(lx - math.log(abs(x))) <= 1e-13 * max(1.0, abs(lx))


def test_preimages_depth_one():
    p = derive_params(6.0)
    ys = sorted(y.real for y in preimages(p, 3.0, 1))
    assert abs(ys[0] + 3.0) < 1e-12 and abs(ys[1] - 3.0) < 1e-12


def test_preimages_residual_and_derivative_bound():
    p = derive_params(6.0)
    ys = preimages(p, 3.0, 3)
    assert len(ys) == 8
    bound = 8.0 * p.eta ** 3  # = 8 * 3 sqrt(3) ~ 41.57
    for y in ys:
        jet = iterate_jet(p, y, 3)
        assert abs(jet.value - 3.0) <= 1e-10 * 3.0
        assert abs(jet.d1) >= bound * (1.0 - 1e-12)


def test_preimages_live_in_the_annulus():
    p = derive_params(6.0)
    for y in preimages(p, 3.0, 2):
        assert abs(y.imag) < 1e-12
        assert p.eta - 1e-12 <= abs(y.real) <= p.xi + 1e-12


def test_greens_chebyshev_oracle():
    p = derive_params(2.0)
    assert abs(greens_value(p, 3.0) - math.log((3 + math.sqrt(5)) / 2)) < 1e-12


def test_greens_zero_on_julia_set():
    for lam in [2.0] + LAM_GRID:
        p = derive_params(lam)
        assert greens_value(p, p.xi) == 0.0
        assert greens_value(p, -p.xi) == 0.0
    # eta is a preimage of -xi, hence on E0 for every lambda > 2
    p = derive_params(6.0)
    assert greens_value(p, p.eta) == 0.0


def test_greens_of_lambda_is_pi_a():
    p = derive_params(6.0)
    assert abs(greens_value(p, 6.0) - math.pi * p.a) < 1e-12


def test_greens_doubling_random_points():
    rng = np.random.default_rng(42)
    for lam in (3.5, 6.0, 10.0):
        p = derive_params(lam)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-2 * p.xi, 2 * p.xi),
                        rng.uniform(0.05, 2 * p.xi))
            g = greens_value(p, z)
            if g <= 0.0:
                continue
            count += 1
            assert abs(greens_value(p, z * z - lam) - 2.0 * g) < 1e-9


def test_julia_cover_level_one():
    p = derive_params(6.0)
    cover = julia_cover(p, 1)
    (a0, b0), (a1, b1) = cover.intervals
    s3 = math.sqrt(3.0)
    assert abs(a0 + 3.0) < 1e-12 and abs(b0 + s3) < 1e-12
    assert abs(a1 - s3) < 1e-12 and abs(b1 - 3.0) < 1e-12


def test_julia_cover_nesting_and_gap():
    p = derive_params(6.0)
    prev = julia_cover(p, 0)
    for n in range(1, 7):
        cover = julia_cover(p, n)
        assert len(cover.intervals) == 2 ** n
        for lo, hi in cover.intervals:
            assert -p.xi - 1e-12 <= lo < hi <= p.xi + 1e-12
            assert hi <= -p.eta + 1e-12 or lo >= p.eta - 1e-12
            assert any(plo - 1e-12 <= lo and hi <= phi + 1e-12
                       for plo, phi in prev.intervals)
        assert cover.total_length() < prev.total_length()
        assert cover.max_length() < prev.max_length()
        prev = cover


def test_julia_cover_shrinkage_rate():
    p = derive_params(6.0)
    for n in range(1, 7):
        ratio = julia_cover(p, n).max_length() / julia_cover(p, n - 1).max_length()
        assert ratio <= 1.0 / (2.0 * p.eta) + 1e-12


def test_julia_cover_degenerate_flag():
    cover = julia_cover(derive_params(2.0), 3)
    assert cover.degenerate
    assert abs(cover.total_length() - 4.0) < 1e-12


def test_precritical_greens_value():
    # P(0) = -lam, and g(0) = pi a / 2 via one halving
    p = derive_params(6.0)
    assert abs(greens_value(p, 0.0j) - math.pi * p.a / 2) < 1e-12


def test_cover_gap_midpoints_escape():
    # midpoints of the complementary gaps of the cover lie off E0, so their
    # Green's value is strictly positive
    p = derive_params(6.0)
    cover = julia_cover(p, 6)
    for (lo1, hi1), (lo2, _) in zip(cover.intervals, cover.intervals[1:]):
        mid = 0.5 * (hi1 + lo2)
        assert greens_value(p, mid) > 0.0
