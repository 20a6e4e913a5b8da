"""Linearizer: limit evaluation, comb heights, landmarks, branch inversion.

At lam = 2 the linearizer is F(w) = 2 cosh(sqrt(w)) - 2 (check against
the functional equation: F(4w) = F(w)(F(w)+4)), with critical points
c_n = -(n pi)^2 exactly.
"""

import cmath
import math

import numpy as np
import pytest

from greenjulia.angles import DirectionAngle
from greenjulia.dynamics import derive_params, iterate_jet
from greenjulia.errors import DomainError, TargetOutOfRange
from greenjulia.poincare import (comb_height, comb_to_dict, invert_F_branch,
                                 landmarks, poincare_jet,
                                 selfsim_greens_residual)


def _cheb_F(w):
    return 2.0 * cmath.cosh(cmath.sqrt(complex(w))) - 2.0


def test_chebyshev_oracle_on_grid():
    p = derive_params(2.0)
    for i in range(41):
        w = -5.0 + 10.0 * i / 40.0
        f, fp = poincare_jet(p, w)
        assert abs(f - _cheb_F(w)) < 1e-8
    f, _ = poincare_jet(p, 1.0)
    assert abs(f - (2.0 * math.cosh(1.0) - 2.0)) < 1e-10


def test_normalization_at_zero():
    for lam in (2.0, 3.5, 6.0):
        f, fp = poincare_jet(derive_params(lam), 0.0)
        assert f == 0.0 and fp == 1.0


def test_derivative_matches_finite_difference():
    p = derive_params(6.0)
    eps = 1e-6
    for w in (0.5 + 0.5j, -2.0 + 1.0j, 3.0 - 0.2j):
        _, fp = poincare_jet(p, w)
        fplus, _ = poincare_jet(p, w + eps)
        fminus, _ = poincare_jet(p, w - eps)
        fd = (fplus - fminus) / (2 * eps)
        assert abs(fd - fp) < 1e-5 * max(1.0, abs(fp))


def test_functional_equation_grid():
    for lam in (3.5, 6.0):
        p = derive_params(lam)
        for re in np.linspace(-4.0, 4.0, 20):
            for im in np.linspace(0.05, 3.0, 20):
                w = complex(re, im)
                f1, _ = poincare_jet(p, w)
                f2, _ = poincare_jet(p, p.rho * w)
                resid = abs(f1 * (f1 + p.rho) - f2) / max(1.0, abs(f2))
                assert resid < 1e-8


def test_outside_disc_rejected():
    p = derive_params(6.0)
    with pytest.raises(DomainError):
        poincare_jet(p, p.rho ** 8 * 2.0)


def test_comb_heights_hand_values():
    p = derive_params(6.0)
    assert abs(comb_height(p, 1).height - math.acosh(2.0) / math.pi) < 1e-12
    assert abs(comb_height(p, 2).height - math.acosh(10.0) / math.pi) < 1e-12


def test_comb_heights_odd_positions_equal():
    p = derive_params(6.0)
    h1 = comb_height(p, 1).height
    for l in (3, 5, 7, 9, 11):
        assert comb_height(p, l).height == h1


def test_comb_heights_defining_identity():
    # xi cosh(pi h(-k 2^m)) equals the (m+1)-st critical orbit entry
    p = derive_params(6.0)
    from greenjulia.dynamics import critical_orbit
    orbit = critical_orbit(p, 8)
    for m in range(1, 8):
        h = comb_height(p, 2 ** m).height
        assert abs(p.xi * math.cosh(math.pi * h) - orbit[m]) < 1e-12 * orbit[m]


def test_comb_heights_monotone_in_level():
    p = derive_params(6.0)
    hs = [comb_height(p, 2 ** m).height for m in range(13)]
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_comb_height_limit_is_a():
    p = derive_params(6.0)
    vals = [comb_height(p, 2 ** m).height / 2 ** m for m in range(1, 13)]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # approach from below
    assert vals[-1] < p.a
    assert abs(vals[-1] - p.a) < 1e-3


def test_comb_json_shape():
    p = derive_params(6.0)
    d = comb_to_dict(p, 6)
    assert d["base"] == "pi_F"
    assert [s["l"] for s in d["slits"]] == [1, 2, 3, 4, 5, 6]
    assert all(s["h"] > 0 for s in d["slits"])


def test_landmarks_chebyshev_critical_points():
    p = derive_params(2.0)
    lms = landmarks(p, 6)
    for lm in lms:
        exact = -(lm.index * math.pi) ** 2
        assert abs(lm.c - exact) <= 1e-10 * abs(exact)
    # degenerate comb: zeros collapse onto the critical points
    assert lms[1].a == lms[1].b == lms[1].c


def test_landmark_scaling_lambda6():
    p = derive_params(6.0)
    lms = landmarks(p, 4)
    assert abs(lms[1].c - p.rho * lms[0].c) < 1e-8 * abs(lms[1].c)
    assert abs(lms[3].c - p.rho * lms[1].c) < 1e-8 * abs(lms[3].c)
    assert abs(lms[1].a - p.rho * lms[0].a) < 1e-8 * abs(lms[1].a)
    assert abs(lms[1].b - p.rho * lms[0].b) < 1e-8 * abs(lms[1].b)


def test_landmark_values_and_ordering():
    p = derive_params(6.0)
    lms = landmarks(p, 64)
    for lm in lms:
        f, fp = poincare_jet(p, complex(lm.c))
        assert abs(fp) < 1e-6 * max(1.0, abs(f))
        fa, _ = poincare_jet(p, complex(lm.a))
        fb, _ = poincare_jet(p, complex(lm.b))
        if lm.index % 2 == 0:
            assert abs(fa) < 1e-9 * max(1.0, abs(lm.a))
            assert abs(fb) < 1e-9 * max(1.0, abs(lm.b))
        else:
            assert abs(f + p.lam + p.xi) < 1e-8 * (p.lam + p.xi)
            assert abs(fa + 2 * p.xi) < 1e-8 * p.xi
            assert abs(fb + 2 * p.xi) < 1e-8 * p.xi
    for prev, cur in zip(lms, lms[1:]):
        assert cur.a < cur.c < cur.b < prev.a < prev.c < prev.b < 0.0
    # powers of two scale exactly through the multiplier
    for n in range(1, 7):
        idx = 2 ** n
        assert abs(lms[idx - 1].c - p.rho ** n * lms[0].c) < 1e-8 * abs(lms[idx - 1].c)


def test_invert_branch_basics():
    p = derive_params(6.0)
    lms = landmarks(p, 4)
    w = invert_F_branch(p, p.xi, 1)
    assert abs(w - lms[1].a) < 1e-10 * abs(w)
    w0 = invert_F_branch(p, p.xi, 0)
    assert abs(w0) < 1e-9  # a_0 = 0: F(0) + xi = xi
    with pytest.raises(TargetOutOfRange):
        invert_F_branch(p, -p.lam - 1.0, 1)


@pytest.mark.parametrize("n, side", [(3, "left"), (4, "right")])
def test_invert_branch_near_the_lambda_end(n, side):
    # regression: the snap to a branch end was scaled by the critical value
    # at the other end (~1e5 at lambda 20), so targets within 0.01 of -lambda
    # came back as the critical point itself
    p = derive_params(20.0)
    lms = landmarks(p, 2 * n + 2)
    for d in (1e-3, 5e-3, 1e-2):
        target = -p.lam + d
        w = invert_F_branch(p, target, n, side)
        f, _ = poincare_jet(p, w)
        assert abs(f.real + p.xi - target) < 1e-9 * p.lam
        assert w != lms[2 * n].c
    # the end value -lambda itself, and rounding beyond it, give that end;
    # the range tolerance is relative to -lambda too
    assert invert_F_branch(p, -p.lam * (1 + 1e-10), n, side) == lms[2 * n].c
    with pytest.raises(TargetOutOfRange):
        invert_F_branch(p, -p.lam * (1 + 1e-8), n, side)


def test_invert_branch_onto_interval():
    # the first inverse branch maps [-lam^2+lam, lam] onto [c_4, c_2]
    p = derive_params(6.0)
    lms = landmarks(p, 4)
    left = invert_F_branch(p, (p.lam ** 2 - p.lam) ** 2 - p.lam, 1, side="left")
    right = invert_F_branch(p, p.lam ** 2 - p.lam, 1, side="right")
    assert abs(left - lms[3].c) < 1e-8 * abs(lms[3].c)
    assert abs(right - lms[1].c) < 1e-8 * abs(lms[1].c)


def test_branch_composition_reproduces_iteration():
    # F(rho^n f_1(x)) + xi = P^(n+1)(x)
    p = derive_params(6.0)
    for x in (-1.0, 0.5, 1.5):
        side = "left" if x < 0 else "right"
        f1x = invert_F_branch(p, x * x - p.lam, 1, side=side)
        for n in range(5):
            F, _ = poincare_jet(p, p.rho ** n * f1x)
            v = iterate_jet(p, x, n + 1).value
            assert abs((F + p.xi) - v) < 1e-6 * abs(v)


def test_derivative_bound_along_shift_orbit():
    # 1/|F'(a_{2 m_n})| <= C (rho / (2 eta))^n with a stable fitted C
    p = derive_params(6.0)
    psi = DirectionAngle(2, 3)
    ms = []
    for n in range(2, 9):
        k = (2 ** n * psi.numerator) // psi.denominator
        ms.append(k // 2)
    lms = landmarks(p, 2 * max(ms))
    fits = []
    for n, m in zip(range(2, 9), ms):
        a2m = lms[2 * m - 1].a
        _, fp = poincare_jet(p, complex(a2m), max_radius=p.rho ** 10)
        rate = p.rho ** n / (2.0 * p.eta) ** n
        fits.append(1.0 / (abs(fp) * rate))
    assert max(fits) / min(fits) < 4.0


def test_selfsim_residual_point():
    p = derive_params(6.0)
    lms = landmarks(p, 2)
    assert selfsim_greens_residual(p, lms[0].c / 2 + 0.1j) < 1e-8


def test_selfsim_residual_on_zero_of_F():
    # a_2-type point: both Green's values vanish at xi
    p = derive_params(6.0)
    a2 = invert_F_branch(p, p.xi, 1)
    assert selfsim_greens_residual(p, complex(a2)) == 0.0


def test_selfsim_residual_sweep():
    p = derive_params(6.0)
    rng = np.random.default_rng(17)
    worst = 0.0
    count = 0
    while count < 50:
        z = complex(rng.uniform(-8.0, -0.2), rng.uniform(0.05, 1.5))
        try:
            worst = max(worst, selfsim_greens_residual(p, z))
        except Exception:
            continue
        count += 1
    assert worst < 1e-7
