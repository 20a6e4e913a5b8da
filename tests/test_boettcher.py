"""Green's/Boettcher data, the comb parameter a, and external rays.

The degenerate case lam = 2 supplies closed forms used as oracles:
the uniformizer is w + 1/w, so with s(z) the branch of sqrt(z^2-4)
asymptotic to z,

    G(z) = (z - s)/2,   g = log|(z + s)/2|,   L = -1/s,
    Lp = z / s^3,       density(h) = 2 pi e^{2 pi h}.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenjulia.angles import DirectionAngle
from greenjulia.boettcher import (angle_double_fold, compute_a,
                                  default_heights, log_deriv_jet,
                                  ray_csv_rows, ray_integrand, stack_samples,
                                  trace_ray, trace_rays)
from greenjulia.dynamics import derive_params, greens_value, julia_cover
from greenjulia.errors import (DyadicAngleError, NewtonDivergence,
                               NonEscapingError, ScheduleTooCoarse)
from greenjulia.goodset import membership


def _sqrt_branch(z):
    # sqrt(z^2 - 4) asymptotic to z at infinity
    return z * cmath.sqrt(1.0 - 4.0 / (z * z))


def test_compute_a_values():
    assert compute_a(derive_params(2.0)) == 0.0
    a6 = derive_params(6.0).a
    assert abs(a6 - 0.5408) < 1e-4


def test_compute_a_monotone():
    values = [derive_params(lam).a for lam in (3.0, 4.0, 5.0, 6.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_compute_a_against_comb_limit():
    # independent route: xi cosh(pi h(-2^m)) equals the critical value, and
    # h(-2^m)/2^m converges to a from below
    from greenjulia.poincare import comb_height
    p = derive_params(6.0)
    approx = comb_height(p, 2 ** 12).height / 2 ** 12
    assert abs(approx - p.a) < 1e-3


def test_log_deriv_chebyshev_oracle():
    p = derive_params(2.0)
    rng = np.random.default_rng(3)
    pts = [3.0 + 0j, 2.5 + 1.0j, -4.0 + 0.5j, 1.0 + 2.0j]
    pts += [complex(rng.uniform(-5, 5), rng.uniform(0.5, 4)) for _ in range(16)]
    for z in pts:
        s = _sqrt_branch(z)
        d = log_deriv_jet(p, z)
        assert abs(d.g - math.log(abs((z + s) / 2))) < 1e-9
        assert abs(d.L - (-1.0 / s)) < 1e-8
        assert abs(d.Lp - z / s ** 3) < 1e-8


def test_log_deriv_doubling_identity():
    p = derive_params(6.0)
    z = 4.0 + 0j
    d = log_deriv_jet(p, z)
    dP = log_deriv_jet(p, z * z - 6.0)
    assert abs(dP.L * (2 * z) - 2 * d.L) < 1e-10


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(2.0 + math.sqrt(2.0), 1e8, exclude_min=True),
       t=st.floats(1e-3, 10.0), theta=st.floats(0.0, 2.0 * math.pi))
def test_doubling_identity_property(lam, t, theta):
    # g(P(z)) = 2 g(z) and L(P(z)) P'(z) = 2 L(z) off the Julia set, over
    # the whole theorem range of lambda (measured worst: 1.4e-14 at 1e8)
    p = derive_params(lam)
    z = p.xi * (1.0 + t) * cmath.exp(1j * theta)
    d = log_deriv_jet(p, z)
    dP = log_deriv_jet(p, z * z - lam)
    assert abs(dP.g - 2.0 * d.g) <= 1e-12 * abs(2.0 * d.g)
    assert abs(dP.L * 2.0 * z - 2.0 * d.L) <= 1e-12 * abs(2.0 * d.L)


def test_boettcher_identities_random():
    rng = np.random.default_rng(11)
    for lam in (3.5, 6.0, 10.0):
        p = derive_params(lam)
        count = 0
        while count < 70:
            z = complex(rng.uniform(-2 * p.xi, 2 * p.xi),
                        rng.uniform(0.1, 2 * p.xi))
            try:
                d = log_deriv_jet(p, z)
            except NonEscapingError:
                continue
            if d.g <= 0:
                continue
            count += 1
            w = z * z - lam
            dP = log_deriv_jet(p, w)
            assert abs(dP.g - 2.0 * d.g) < 1e-9
            assert abs(dP.L * (2 * z) - 2.0 * d.L) < 1e-9 * max(1.0, abs(d.L))


def test_log_deriv_real_axis():
    # on (xi, inf): G real positive decreasing, so L is real negative
    p = derive_params(6.0)
    for x in (3.2, 4.0, 7.5, 20.0):
        d = log_deriv_jet(p, complex(x))
        assert abs(d.L.imag) < 1e-12
        assert d.L.real < 0


def test_log_deriv_second_ratio_vs_finite_difference():
    p = derive_params(6.0)
    z = 2.0 + 1.5j
    eps = 1e-6
    d = log_deriv_jet(p, z)
    dp = log_deriv_jet(p, z + eps)
    dm = log_deriv_jet(p, z - eps)
    assert abs((dp.L - dm.L) / (2 * eps) - d.Lp) < 1e-4 * max(1.0, abs(d.Lp))


def test_log_deriv_rejects_julia_points():
    p = derive_params(6.0)
    with pytest.raises(NonEscapingError):
        log_deriv_jet(p, complex(p.xi))


def test_log_deriv_array_matches_single_points():
    p = derive_params(6.0)
    pts = np.array([4.0 + 0j, 2.0 + 1.5j, -0.3 + 0.01j, 30.0 - 7.0j])
    batch = log_deriv_jet(p, pts)
    for k, z in enumerate(pts):
        d = log_deriv_jet(p, complex(z))
        assert isinstance(d.g, float) and isinstance(d.L, complex)
        # vector and scalar ufunc loops may round differently in the last bit
        assert abs(batch.g[k] - d.g) <= 1e-15 * abs(d.g)
        assert abs(batch.L[k] - d.L) <= 1e-15 * abs(d.L)
        assert abs(batch.Lp[k] - d.Lp) <= 1e-15 * abs(d.Lp)
        assert batch.depth[k] == d.depth


def test_log_deriv_array_marks_undefined_points_nan():
    p = derive_params(6.0)
    batch = log_deriv_jet(p, np.array([4.0 + 0j, complex(p.xi), 0j]))
    assert math.isfinite(batch.g[0])
    assert np.isnan(batch.g[1:]).all() and np.isnan(batch.L[1:]).all()


def test_ray_heights_reproduced_by_greens_series():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(2, 3), default_heights(p, 10))
    assert len(ray.samples) == 161
    hs = [s.h for s in ray.samples]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    for s in ray.samples:
        assert abs(greens_value(p, s.z) / math.pi - s.h) < 1e-9


def test_ray_conjugate_symmetry():
    # the ray at 1 - psi is the reflection z -> -conj(z) of the ray at psi
    p = derive_params(6.0)
    hs = default_heights(p, 4)
    r23 = trace_ray(p, DirectionAngle(2, 3), hs)
    r13 = trace_ray(p, DirectionAngle(1, 3), hs)
    for a, b in zip(r13.samples, r23.samples):
        assert abs(a.z - (-b.z.conjugate())) < 1e-10


def test_ray_pullback_matches_folded_ray():
    # P^n moves a sample to the n-fold shifted ray at height 2^n h, up to
    # the sign carried by the n-th bit
    p = derive_params(6.0)
    ang = DirectionAngle(2, 3)
    for n in (1, 2, 3):
        top = [p.a * 2.0 ** (-j / 8) for j in range(9)]
        deep = [h / 2 ** n for h in top]
        folded = trace_ray(p, ang.shift_n(n), top)
        direct = trace_ray(p, ang, deep)
        sign = -1.0 if ang.bit(n) else 1.0
        for wf, zd in zip(folded.samples, direct.samples):
            img = zd.z
            for _ in range(n):
                img = img * img - p.lam
            assert abs(img - sign * wf.z) < 1e-6


def test_ray_dyadic_tip():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(1, 2), default_heights(p, 6))
    assert ray.termination == "tip"
    assert abs(ray.tip.point) < 1e-6
    assert abs(ray.tip.height - p.a / 2) < 1e-8
    assert all(s.h > p.a / 2 for s in ray.samples)


def test_ray_dyadic_deeper_tip():
    # psi = 3/4: slit at depth 2, tip over a preimage of 0
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(3, 4), default_heights(p, 6))
    assert ray.termination == "tip"
    assert abs(ray.tip.height - p.a / 4) < 1e-12
    assert abs(ray.tip.point * ray.tip.point - p.lam) < 1e-6  # P(tip) = 0


def test_ray_small_angle_stays_near_real_axis():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(1, 2049), default_heights(p, 2))
    for s in ray.samples:
        assert s.z.real > p.xi
        assert abs(s.z.imag) < 0.05 * abs(s.z.real)


def test_ray_endpoint_lands_in_julia_cover():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(2, 3), default_heights(p, 10))
    z_end = ray.samples[-1].z
    cover = julia_cover(p, 10)
    assert abs(z_end.imag) < 0.05
    assert cover.contains(z_end.real, slack=0.05)


def test_schedule_too_coarse():
    p = derive_params(6.0)
    with pytest.raises(ScheduleTooCoarse):
        trace_ray(p, DirectionAngle(2, 3), [p.a, p.a / 8], arc_bound=1e-4)


def test_angle_double_fold():
    folded, flipped = angle_double_fold(DirectionAngle(2, 3))
    assert (folded.numerator, folded.denominator) == (1, 3)
    assert flipped
    folded, flipped = angle_double_fold(DirectionAngle(5, 12))
    assert (folded.numerator, folded.denominator) == (5, 6)
    assert not flipped
    with pytest.raises(DyadicAngleError):
        angle_double_fold(DirectionAngle(1, 2))


def test_fold_preserves_membership():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 10_000:
        bits = []
        run = 0
        bit = rng.integers(0, 2)
        for _ in range(24):
            if run == 2:
                bit = 1 - bit
                run = 0
            elif rng.random() < 0.5:
                bit = 1 - bit
                run = 0
            bits.append(int(bit))
            run += 1
        num = int("".join(map(str, bits)), 2)
        den = 2 ** 24 - 1  # purely periodic angle with the given word
        if num == 0 or math.gcd(num, den) > 1:
            continue
        ang = DirectionAngle(num, den)
        if ang.is_dyadic or not membership(ang, 2):
            continue
        folded, _ = angle_double_fold(ang)
        assert membership(folded, 2)
        checked += 1


def test_density_chebyshev_oracle():
    p = derive_params(2.0)
    for pq in ((2, 3), (3, 7)):
        ray = trace_ray(p, DirectionAngle(*pq),
                        [0.9 * 2.0 ** (-j / 8) for j in range(25)])
        for s in ray.samples:
            assert abs(ray_integrand(p, s)
                       - 2.0 * math.pi * math.exp(2 * math.pi * s.h)) < 1e-8


def test_density_mirror_invariance():
    p = derive_params(6.0)
    hs = default_heights(p, 3)
    r23 = trace_ray(p, DirectionAngle(2, 3), hs)
    r13 = trace_ray(p, DirectionAngle(1, 3), hs)
    for a, b in zip(r23.samples, r13.samples):
        assert abs(ray_integrand(p, a) - ray_integrand(p, b)) < 1e-10 * max(
            1.0, ray_integrand(p, a))


def test_density_array_matches_single_samples():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(3, 7), default_heights(p, 3))
    dens = ray_integrand(p, stack_samples(ray.samples))
    assert dens.shape == (len(ray.samples),)
    for s, d in zip(ray.samples, dens):
        single = ray_integrand(p, s)
        assert isinstance(single, float)
        assert abs(single - d) <= 1e-15 * single


def test_density_finite_down_the_ray():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(2, 3), default_heights(p, 12))
    vals = [ray_integrand(p, s) for s in ray.samples]
    assert all(math.isfinite(v) and v > 0 for v in vals)
    # continuity proxy: neighbouring samples stay within a mild factor
    for a, b in zip(vals, vals[1:]):
        assert 0.2 < b / a < 5.0


def test_ray_squeezes_past_slit_tip():
    # angles hugging 1/2: below height a/2 the ray bends around the slit
    # tip near z = 0, where |L| collapses and the density spikes
    p = derive_params(6.0)
    for pq in ((1023, 2047), (511, 1023)):
        ray = trace_ray(p, DirectionAngle(*pq), default_heights(p, 8))
        for s in ray.samples:
            assert abs(greens_value(p, s.z) / math.pi - s.h) < 1e-9
        peak = max(ray_integrand(p, s) for s in ray.samples)
        assert peak > 1e3  # genuinely near-singular, not smoothed away


def test_ray_heights_across_lambda_extremes():
    # near-degenerate and strongly expanding parameters
    for lam in (2.1, 100.0):
        p = derive_params(lam)
        ray = trace_ray(p, DirectionAngle(2, 3), default_heights(p, 3))
        for s in ray.samples:
            assert abs(greens_value(p, s.z) / math.pi - s.h) < 1e-9


def test_ray_chebyshev_closed_form_deep():
    # lambda = 2: B^{-1}(w) = w + 1/w, so gamma_psi(h) = 2 cosh(pi h + i pi psi)
    p = derive_params(2.0)
    hs = [2.0 ** (-j / 4) for j in range(30 * 4 + 1)]
    for pq in ((2, 3), (3, 7), (5, 11), (11, 31)):
        ang = DirectionAngle(*pq)
        ray = trace_ray(p, ang, hs)
        assert len(ray.samples) == len(hs)
        for s in ray.samples:
            exact = 2.0 * cmath.cosh(complex(math.pi * s.h, math.pi * ang.value))
            assert abs(s.z - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("lam", [3.6, 20.0])
def test_trace_rays_rows_are_single_rays(lam):
    # each row of the batch is trace_ray of its angle alone, bit for bit,
    # down to 24 scales where rows at lambda 20 break off at different depths
    p = derive_params(lam)
    hs = default_heights(p, 24, 32)
    angles = [DirectionAngle(*pq) for pq in ((2, 3), (3, 7), (5, 11), (11, 31),
                                             (1234, 4001), (20, 63))]
    for ang, (row, reason) in zip(angles, trace_rays(p, angles, hs)):
        try:
            ray, msg = trace_ray(p, ang, hs), None
        except NewtonDivergence as exc:
            ray, msg = exc.partial, str(exc)
        assert reason == msg
        assert [s.z for s in ray.samples] == row.z.tolist()
        assert [s.data.L for s in ray.samples] == row.data.L.tolist()
        assert [s.data.g for s in ray.samples] == row.data.g.tolist()


def _rays_or_partial(p, ang, hs):
    try:
        return trace_ray(p, ang, hs).samples
    except NewtonDivergence as exc:
        return exc.partial.samples


@settings(max_examples=40, deadline=None)
@given(q=st.integers(3, 4095), p_frac=st.floats(0.0, 1.0),
       lam=st.floats(3.5, 100.0))
def test_ray_mirror_and_contract_property(q, p_frac, lam):
    num = min(q - 1, 1 + int(p_frac * (q - 1)))
    ang = DirectionAngle(num, q)
    if ang.is_dyadic:
        return
    p = derive_params(lam)
    hs = default_heights(p, 10, 8)
    ray = _rays_or_partial(p, ang, hs)
    mirror = _rays_or_partial(p, ang.complement(), hs)
    for a, b in zip(ray, mirror):
        assert abs(b.z - (-a.z.conjugate())) <= 1e-12 * abs(a.z)
    for s in ray + mirror:
        assert abs(s.data.g / math.pi - s.h) < 1e-9
        # the scalar series rounds differently; near E0 that moves g by up
        # to half of |L| ulp(z) (measured), which the bound admits
        spread = abs(s.data.L) * 2.2e-16 * abs(s.z) / math.pi
        assert abs(greens_value(p, s.z) / math.pi - s.h) < 1e-9 + spread


def test_ray_large_lambda_breaks_loudly():
    # lambda = 1e4: the pulled-back points are exact to rounding, but g at
    # the rounded points misses h; the ray stops with its good samples
    p = derive_params(1e4)
    with pytest.raises(NewtonDivergence) as info:
        trace_ray(p, DirectionAngle(2, 3), default_heights(p, 16))
    partial = info.value.partial.samples
    assert 0 < len(partial) < 16 * 16 + 1
    assert info.value.last_sample == partial[-1]
    for s in partial:
        assert abs(greens_value(p, s.z) / math.pi - s.h) < 1e-9


def test_density_singular_near_critical_point():
    # |L| collapses at (pre)critical points, reachable only on dyadic rays
    from greenjulia.boettcher import LogDerivData, RaySample
    from greenjulia.errors import SingularSampleError
    p = derive_params(6.0)
    fake = RaySample(h=0.1, z=1e-9 + 0j,
                     data=LogDerivData(g=0.1, L=1e-15 + 0j, Lp=1.0 + 0j, depth=5))
    with pytest.raises(SingularSampleError):
        ray_integrand(p, fake)


def test_ray_csv_format():
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(2, 3), default_heights(p, 2))
    rows = list(ray_csv_rows(p, ray))
    assert rows[0] == ("h", "re_z", "im_z", "g", "re_L", "im_L", "density")
    assert len(rows) == len(ray.samples) + 1
    for row in rows[1:]:
        assert len(row) == 7
        # shortest round-trip formatting: parse -> repr is the identity
        assert all(repr(float(cell)) == cell for cell in row)
