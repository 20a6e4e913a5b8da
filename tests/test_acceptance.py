"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Each criterion also enforces its runtime budget.
"""

import cmath
import math
import time

import numpy as np
import pytest

import greenjulia as gj
from greenjulia.angles import DirectionAngle
from greenjulia.boettcher import default_heights, log_deriv_jet, trace_ray
from greenjulia.dynamics import derive_params, iterate_jet
from greenjulia.errors import DyadicAngleError
from greenjulia.goodset import (dimension_bound, dimension_word_rate,
                                generate_cover, membership, refine_once)
from greenjulia.poincare import comb_height, landmarks, poincare_jet
from greenjulia.radvar import radial_variation, pullback_check

from fractions import Fraction


def _report(num, text, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num:2d} ({elapsed:5.2f}s): {text}")


def test_criterion_01_parameter_chain():
    t0 = time.time()
    p = derive_params(6.0)
    assert abs(p.xi - 3.0) < 1e-12
    assert abs(p.eta - math.sqrt(3.0)) < 1e-12
    assert abs(p.rho - 6.0) < 1e-12
    assert abs(p.nu - 2.0) < 1e-12
    assert derive_params(2.0).a == 0.0
    a_vals = [derive_params(lam).a for lam in (3.0, 4.0, 5.0, 6.0)]
    assert all(x < y for x, y in zip(a_vals, a_vals[1:]))
    _report(1, "parameter chain exact, a(2)=0, a increasing", t0, 1.0)


def test_criterion_02_boettcher_oracle():
    t0 = time.time()
    p = derive_params(2.0)
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 20:
        z = complex(rng.uniform(-5, 5), rng.uniform(-4, 4))
        if abs(z.imag) < 0.3 and abs(z.real) <= 2.3:
            continue
        s = z * cmath.sqrt(1 - 4 / (z * z))
        g_exact = math.log(abs((z + s) / 2))
        if g_exact <= 0.01:
            continue
        d = log_deriv_jet(p, z)
        assert abs(d.g - g_exact) < 1e-9
        assert abs(d.L - (-1 / s)) < 1e-8
        checked += 1
    _report(2, "degenerate-case Green's/log-derivative oracle on 20 points", t0, 1.0)


def test_criterion_03_boettcher_identities():
    t0 = time.time()
    p = derive_params(6.0)
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-6, 6), rng.uniform(0.05, 6))
        try:
            d = log_deriv_jet(p, z)
        except gj.errors.NonEscapingError:
            continue
        if d.g <= 0:
            continue
        w = z * z - 6.0
        dP = log_deriv_jet(p, w)
        assert abs(dP.g - 2 * d.g) < 1e-9
        assert abs(dP.L * (2 * z) - 2 * d.L) < 1e-9
        checked += 1
    _report(3, "doubling identities for g and L on 200 points", t0, 5.0)


def test_criterion_04_poincare_oracle():
    t0 = time.time()
    p2 = derive_params(2.0)
    for w in np.linspace(-5.0, 5.0, 41):
        f, _ = poincare_jet(p2, w)
        assert abs(f - (2 * cmath.cosh(cmath.sqrt(complex(w))) - 2)) < 1e-8
    p6 = derive_params(6.0)
    for re in np.linspace(-4.0, 4.0, 20):
        for im in np.linspace(0.05, 3.0, 20):
            w = complex(re, im)
            f1, _ = poincare_jet(p6, w)
            f2, _ = poincare_jet(p6, 6.0 * w)
            assert abs(f1 * (f1 + 6.0) - f2) / max(1.0, abs(f2)) < 1e-8
    _report(4, "linearizer closed form (lam=2) and functional equation (lam=6)",
            t0, 10.0)


def test_criterion_05_comb_heights():
    t0 = time.time()
    p = derive_params(6.0)
    assert abs(comb_height(p, 1).height - math.acosh(2.0) / math.pi) < 1e-12
    assert abs(comb_height(p, 2).height - math.acosh(10.0) / math.pi) < 1e-12
    vals = [comb_height(p, 2 ** m).height / 2 ** m for m in range(1, 13)]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert all(v < p.a for v in vals)
    assert abs(vals[-1] - p.a) < 1e-3
    _report(5, "slit heights exact, h(-2^m)/2^m -> a monotonically", t0, 1.0)


def test_criterion_06_scaling_lemma():
    t0 = time.time()
    p6 = derive_params(6.0)
    lms = landmarks(p6, 2)
    assert abs(lms[1].c - 6.0 * lms[0].c) / abs(lms[1].c) < 1e-8
    p2 = derive_params(2.0)
    lms2 = landmarks(p2, 2)
    assert abs(lms2[0].c + math.pi ** 2) < 1e-8 * math.pi ** 2
    assert abs(lms2[1].c + 4 * math.pi ** 2) < 1e-8 * 4 * math.pi ** 2
    _report(6, "critical-point scaling c2 = rho c1; exact at lam=2", t0, 5.0)


def test_criterion_07_derivative_lower_bound():
    t0 = time.time()
    p = derive_params(6.0)
    count = 0
    for n in range(1, 7):
        for y in gj.preimages(p, p.xi, n):
            jet = iterate_jet(p, y, n)
            assert abs(jet.value - p.xi) < 1e-9 * p.xi
            assert abs(jet.d1) / (2.0 * p.eta) ** n >= 1.0 - 1e-12
            count += 1
    assert count == 126
    _report(7, "|(P^n)'(y)| >= (2 eta)^n on all 126 preimages of xi", t0, 1.0)


def test_criterion_08_tip_correspondence():
    t0 = time.time()
    p = derive_params(6.0)
    ray = trace_ray(p, DirectionAngle(1, 2), default_heights(p, 8))
    assert ray.termination == "tip"
    assert abs(ray.tip.point) < 1e-6
    assert abs(ray.tip.height - p.a / 2) < 1e-8
    _report(8, "dyadic ray 1/2 terminates on the tip over 0 at height a/2",
            t0, 5.0)


def test_criterion_09_good_set_machinery():
    t0 = time.time()
    rng = np.random.default_rng(9)
    for N in (1, 2, 3):
        checked = 0
        while checked < 3400:
            bits = []
            run = 0
            bit = int(rng.integers(0, 2))
            for _ in range(32):
                if run == N + 1 or (run > 0 and rng.random() < 0.4):
                    bit = 1 - bit
                    run = 0
                bits.append(bit)
                run += 1
            word = "".join(map(str, bits))
            assert membership(word, N)
            assert membership(word[1:], N)
            num, den = int(word, 2), 2 ** 32 - 1
            if num and math.gcd(num, den) == 1:
                ang = DirectionAngle(num, den)
                if not ang.is_dyadic and membership(ang, N):
                    assert membership(ang.shift(), N)
            checked += 1
    # exact rational cover identities
    for idx in ("0", "1"):
        keep, _ = refine_once(idx, 2)
        assert sum(Fraction(1, 2 ** len(i)) for i in keep) == \
            Fraction(5, 8) * Fraction(1, 2)
        assert all(Fraction(1, 2 ** len(i)) <= Fraction(1, 8) for i in keep)
    # kept measure per parent in integer units of 2^-top; the parent of
    # num/2^len is the longest proper prefix num >> (len - plen)
    for N in (2, 3):
        prev = generate_cover(N, 0)
        for k in range(1, 6):
            level = generate_cover(N, k)
            top = max(ln for _, ln in level.keep_pairs)
            kept = dict.fromkeys(prev.keep_pairs, 0)
            plens = sorted({plen for _, plen in kept}, reverse=True)
            for num, ln in level.keep_pairs:
                for plen in plens:
                    if plen >= ln:
                        continue
                    parent = (num >> (ln - plen), plen)
                    if parent in kept:
                        kept[parent] += 1 << (top - ln)
                        assert ln >= plen + N  # child length <= parent / 2^N
                        break
            assert all(2 * units >= 1 << (top - plen)
                       for (_, plen), units in kept.items())
            prev = level
    _report(9, "membership/shift invariance; exact cover measures N=2,3 k<=5",
            t0, 10.0)


def test_criterion_10_dimension():
    t0 = time.time()
    assert abs(dimension_bound(1) - 0.69424) < 1e-5
    assert abs(dimension_bound(2) - 0.87915) < 1e-5
    for N in (1, 2, 3, 4):
        assert abs(dimension_bound(N) - dimension_word_rate(N)) < 1e-3
    for N in range(1, 13):
        assert dimension_bound(N) >= 1.0 - 1.0 / N
    _report(10, "subshift dimension matches oracles and dominates 1-1/N", t0, 5.0)


def test_criterion_11_radial_variation():
    t0 = time.time()
    p = derive_params(6.0)
    psi = DirectionAngle(2, 3)
    assert membership(psi, 1)  # 2/3 is a level-1 good direction
    rep = radial_variation(p, psi, 17)
    assert rep.converged
    assert rep.tail_ratio <= 0.75
    ratios = [b.s_n / a.s_n for a, b in zip(rep.scales, rep.scales[1:])]
    for n in range(5, 17):
        assert ratios[n] < 0.9
    mirror = radial_variation(p, psi.complement(), 17)
    for a, b in zip(rep.scales, mirror.scales):
        assert abs(a.s_n - b.s_n) < 1e-10
    with pytest.raises(DyadicAngleError):
        radial_variation(p, DirectionAngle(1, 2), 17)
    _report(11, "scale decay, tail ratio, mirror symmetry, dyadic rejection",
            t0, 60.0)


def test_criterion_12_scale_shift_consistency():
    t0 = time.time()
    p = derive_params(6.0)
    for n in range(1, 7):
        assert pullback_check(p, DirectionAngle(2, 3), n) < 1e-5
    _report(12, "pullback of shifted rays matches direct trace, n <= 6", t0, 30.0)


def test_criterion_13_selfsimilarity_surrogate():
    t0 = time.time()
    p = derive_params(6.0)
    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    while checked < 50:
        z = complex(rng.uniform(-8.0, -0.2), rng.uniform(0.05, 1.5))
        try:
            worst = max(worst, gj.selfsim_greens_residual(p, z))
        except gj.errors.ToolkitError:
            continue
        checked += 1
    assert worst < 1e-7
    _report(13, f"self-similarity residual max {worst:.2e} over 50 samples",
            t0, 10.0)
