"""Named runtime verification suites behind the `verify` subcommand.

Each check recomputes an identity with an independent route and reports a
residual against a fixed gate.  These are quick spot versions of the
full test suite, keyed by what they check rather than where they run.
"""

from __future__ import annotations

import math
import random

from . import boettcher, dynamics, goodset, poincare, radvar
from .angles import DirectionAngle


def _check_fixed_points(lam):
    worst = 0.0
    for l in (2.1, 3.5, 6.0, 10.0, 100.0):
        p = dynamics.derive_params(l)
        worst = max(worst,
                    abs(p.xi * p.xi - l - p.xi) / p.xi,
                    abs(p.eta * p.eta - l + p.xi) / max(p.eta, 1e-30))
    return worst, 1e-12, "fixed-point identities P(xi)=xi, P(eta)=-xi"


def _check_greens_doubling(lam):
    p = dynamics.derive_params(lam)
    rng = random.Random(7)
    worst = 0.0
    for _ in range(40):
        z = complex(rng.uniform(-2 * p.xi, 2 * p.xi),
                    rng.uniform(0.2, 2 * p.xi))
        try:
            worst = max(worst, abs(dynamics.greens_value(p, z * z - p.lam)
                                   - 2 * dynamics.greens_value(p, z)))
        except dynamics.NonEscapingError:
            continue
    return worst, 1e-9, "Green's doubling g(P(z)) = 2 g(z)"


def _check_boettcher_oracle(lam):
    p = dynamics.derive_params(2.0)
    worst = 0.0
    for z in (3.0 + 0j, 2.5 + 1.0j, -3.5 + 0.25j, 0.5 + 2.2j):
        s = z * (1 - 4 / (z * z)) ** 0.5
        d = boettcher.log_deriv_jet(p, z)
        worst = max(worst,
                    abs(d.g - math.log(abs((z + s) / 2))),
                    abs(d.L + 1 / s))
    return worst, 1e-9, "degenerate-case closed forms for (g, L)"


def _check_ray_heights(lam):
    p = dynamics.derive_params(lam)
    ray = boettcher.trace_ray(p, DirectionAngle(2, 3),
                              boettcher.default_heights(p, 6, per_scale=8))
    worst = max(abs(dynamics.greens_value(p, s.z) / math.pi - s.h)
                for s in ray.samples)
    return worst, 1e-9, "ray samples reproduce their Green's height"


def _check_tip(lam):
    p = dynamics.derive_params(lam)
    ray = boettcher.trace_ray(p, DirectionAngle(1, 2),
                              boettcher.default_heights(p, 4, per_scale=8))
    worst = max(abs(ray.tip.point), abs(ray.tip.height - p.a / 2))
    return worst, 1e-8, "dyadic ray terminates at the slit tip over 0"


def _check_poincare_equation(lam):
    p = dynamics.derive_params(lam)
    worst = 0.0
    for re in (-3.0, -0.7, 0.4, 2.0):
        for im in (0.1, 1.3):
            w = complex(re, im)
            f1, _ = poincare.poincare_jet(p, w)
            f2, _ = poincare.poincare_jet(p, p.rho * w)
            worst = max(worst, abs(f1 * (f1 + p.rho) - f2) / max(1.0, abs(f2)))
    return worst, 1e-8, "linearizer functional equation"


def _check_comb_heights(lam):
    p = dynamics.derive_params(lam)
    orbit = dynamics.critical_orbit(p, 5)
    worst = 0.0
    for m in range(1, 5):
        h = poincare.comb_height(p, 2 ** m).height
        worst = max(worst, abs(p.xi * math.cosh(math.pi * h) - orbit[m]) / orbit[m])
    return worst, 1e-12, "slit heights reproduce the critical orbit"


def _check_scaling(lam):
    p = dynamics.derive_params(lam)
    lms = poincare.landmarks(p, 4)
    worst = max(abs(lms[1].c - p.rho * lms[0].c) / abs(lms[1].c),
                abs(lms[3].c - p.rho * lms[1].c) / abs(lms[3].c),
                abs(lms[1].a - p.rho * lms[0].a) / abs(lms[1].a))
    return worst, 1e-8, "landmark scaling under the multiplier"


def _check_preimage_bound(lam):
    p = dynamics.derive_params(lam)
    worst_ratio = math.inf
    for n in range(1, 6):
        for y in dynamics.preimages(p, p.xi, n):
            jet = dynamics.iterate_jet(p, y, n)
            worst_ratio = min(worst_ratio,
                              abs(jet.d1) / (2.0 * p.eta) ** n)
    margin = 1.0 - worst_ratio  # negative when the bound holds
    return margin, 1e-12, "derivative lower bound on preimages of xi"


def _check_dimension(lam):
    worst = max(abs(goodset.dimension_bound(1) - 0.6942419136306174),
                abs(goodset.dimension_bound(2) - 0.8791464216066392))
    return worst, 1e-5, "subshift dimension eigenvalues"


def _check_cover_measure(lam):
    # exact kept measure per parent, in integer units of 2^-top
    level = goodset.generate_cover(2, 3)
    parents = goodset.generate_cover(2, 2)
    top = max(ln for _, ln in level.keep_pairs)
    worst_ok = True
    for pnum, plen in parents.keep_pairs:
        kept = sum(1 << (top - ln) for num, ln in level.keep_pairs
                   if ln >= plen and num >> (ln - plen) == pnum)
        if 2 * kept < 1 << (top - plen):
            worst_ok = False
    return (0.0 if worst_ok else 1.0), 0.5, "cover keeps half of every parent"


def _check_radvar(lam):
    p = dynamics.derive_params(lam)
    rep = radvar.radial_variation(p, DirectionAngle(2, 3), 8)
    ok = rep.converged and rep.tail_ratio < 0.9 and rep.total > 0
    return (0.0 if ok else 1.0), 0.5, "radial variation decays geometrically"


def _check_pullback(lam):
    p = dynamics.derive_params(lam)
    worst = max(radvar.pullback_check(p, DirectionAngle(2, 3), n)
                for n in (1, 2, 3))
    return worst, 1e-5, "scale/shift pullback consistency"


def _check_mirror(lam):
    p = dynamics.derive_params(lam)
    a = radvar.scale_contribution(p, DirectionAngle(2, 3), 0)
    b = radvar.scale_contribution(p, DirectionAngle(1, 3), 0)
    return abs(a.s_n - b.s_n), 1e-10, "mirror symmetry psi <-> 1-psi"


SUITES = {
    "params": [_check_fixed_points],
    "boettcher": [_check_greens_doubling, _check_boettcher_oracle,
                  _check_ray_heights, _check_tip],
    "poincare": [_check_poincare_equation, _check_comb_heights, _check_scaling],
    "goodset": [_check_dimension, _check_cover_measure],
    "radvar": [_check_preimage_bound, _check_radvar, _check_pullback,
               _check_mirror],
}
SUITES["all"] = [fn for checks in
                 (SUITES["params"], SUITES["boettcher"], SUITES["poincare"],
                  SUITES["goodset"], SUITES["radvar"]) for fn in checks]


def run(suite: str, lam: float = 6.0, out=print) -> bool:
    """Run one suite; prints a keyed pass/fail line per check."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; pick from {sorted(SUITES)}")
    all_ok = True
    for check in SUITES[suite]:
        value, gate, label = check(lam)
        ok = value < gate
        all_ok &= ok
        out(f"[{'ok' if ok else 'FAIL'}] {label}: residual {value:.3e} "
            f"(gate {gate:g})")
    out(f"suite {suite}: {'all checks passed' if all_ok else 'FAILURES'}")
    return all_ok
