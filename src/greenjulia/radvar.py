"""Radial variation along a direction, decomposed over dyadic height scales.

Everything is computed in the dynamical plane: the curvature integral of
the inverse Green's map over the ray piece at scale n is

    s_n = int_{a/2^{n+1}}^{a/2^n}  pi e^{pi h} |Lp + L^2| / |L|^3  dh,

evaluated by composite Simpson quadrature on a per-scale geometric grid
shared with the ray trace.  In the expanding regime the scales decay
geometrically (the theory predicts a ratio dominated by 1/eta), which
the report summarizes as a fitted tail ratio and a convergence verdict.

The scale/shift consistency check realizes the self-similar structure
numerically: the image of the ray under n iterations of P is, up to the
sign flip carried by the n-th bit of the angle, the ray of the n-fold
shifted angle at 2^n times the height, so pulling the shifted ray back
through the n inverse square-root branches must land on the original.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .angles import DirectionAngle
from .boettcher import ray_integrand, stack_samples, trace_ray
from .dynamics import PolyParams
from .errors import (AmbiguousBranch, DomainError, DyadicAngleError,
                     NewtonDivergence, ToolkitError)
from .goodset import good_set_level


@dataclass(frozen=True)
class QuadSettings:
    points_per_scale: int = 32   # multiple of 4, so the half-grid is Simpson-valid
    tol_rel: float = 1e-3
    tol_abs: float = 1e-8
    max_refine: int = 3


@dataclass(frozen=True)
class ScaleContribution:
    n: int
    h_lo: float
    h_hi: float
    s_n: float
    samples_used: int
    quad_error_est: float


@dataclass(frozen=True)
class RadVarReport:
    params: PolyParams
    angle: DirectionAngle
    good_level: int | None
    scales: tuple
    total: float
    tail_ratio: float
    converged: bool
    partial: bool = False


def _simpson(vals, dt):
    if len(vals) % 2 == 0:
        raise ValueError("Simpson needs an odd number of nodes")
    acc = vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum()
    return float(acc * dt / 3.0)


def _scale_from_samples(p, samples, n, h_hi):
    """Simpson value of one scale from its K+1 geometric ray samples."""
    k = len(samples) - 1
    batch = stack_samples(samples)
    # integrate in t with h = h_hi 2^{-t}: dh = -ln2 h dt
    vals = ray_integrand(p, batch) * batch.h * math.log(2.0)
    fine = _simpson(vals, 1.0 / k)
    coarse = _simpson(vals[::2], 2.0 / k)
    return ScaleContribution(n=n, h_lo=h_hi / 2.0, h_hi=h_hi, s_n=fine,
                             samples_used=k + 1,
                             quad_error_est=abs(fine - coarse) / 15.0)


def check_comb(p: PolyParams):
    """Radial variation lives on the heights (0, a]: reject a = 0 (lambda = 2)."""
    if not p.a > 0:
        raise DomainError(f"radial variation needs a > 0; lambda = {p.lam} "
                          f"gives a = {p.a}")


def _check_angle(p, angle):
    check_comb(p)
    if angle.is_dyadic:
        raise DyadicAngleError(
            f"radial variation undefined for dyadic angle {angle} (ray hits a slit tip)")
    if not p.theorem_range:
        warnings.warn(
            f"lambda = {p.lam} is outside the expanding-decay range (> 2+sqrt(2)); "
            "decay of the scale contributions is not guaranteed", stacklevel=3)


def scale_contribution(p: PolyParams, angle: DirectionAngle, n: int,
                       quad: QuadSettings = QuadSettings()) -> ScaleContribution:
    """Quadrature of the density over h in (a/2^{n+1}, a/2^n], refined to tolerance."""
    _check_angle(p, angle)
    if n < 0:
        raise DomainError("scale index must be >= 0")
    h_hi = p.a / 2.0 ** n
    k = quad.points_per_scale
    prev = None
    for _ in range(quad.max_refine + 1):
        heights = [h_hi * 2.0 ** (-j / k) for j in range(k + 1)]
        ray = trace_ray(p, angle, heights)
        cur = _scale_from_samples(p, ray.samples, n, h_hi)
        if prev is not None and abs(cur.s_n - prev.s_n) <= \
                max(quad.tol_abs, quad.tol_rel * abs(cur.s_n)):
            return cur
        prev = cur
        k *= 2
    return prev


def radial_variation(p: PolyParams, angle: DirectionAngle, n_max: int,
                     tol: float = 1e-3,
                     quad: QuadSettings = QuadSettings()) -> RadVarReport:
    """Scale decomposition s_0..s_{n_max} with a geometric-tail verdict.

    converged requires the geometric fit r over the last five ratios to
    sit below one and the tail estimate s_{n_max} r / (1 - r) to fall
    below tol * total (individual ratios of period-q angles oscillate
    with the shift orbit, so they are fitted, not tested one by one).
    On ray failure at deep scales the completed scales are reported with
    partial=True.
    """
    _check_angle(p, angle)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    k = quad.points_per_scale
    heights = [p.a * 2.0 ** (-i / k) for i in range(k * (n_max + 1) + 1)]
    partial = False
    try:
        ray = trace_ray(p, angle, heights)
        samples = ray.samples
    except NewtonDivergence as exc:
        if exc.partial is None or not exc.partial.samples:
            raise
        samples = exc.partial.samples
        partial = True

    scales = []
    n_full = (len(samples) - 1) // k
    for n in range(min(n_max + 1, n_full)):
        chunk = samples[n * k:(n + 1) * k + 1]
        scales.append(_scale_from_samples(p, chunk, n, p.a / 2.0 ** n))

    total = sum(s.s_n for s in scales)
    ratios = [b.s_n / a.s_n for a, b in zip(scales, scales[1:]) if a.s_n > 0]
    last = ratios[-5:]
    if len(last) == 5 and all(r > 0 for r in last):
        # geometric fit over the last five scales; individual ratios of
        # period-q angles oscillate with the shift orbit and may top 1
        tail_ratio = math.exp(sum(math.log(r) for r in last) / 5.0)
    else:
        tail_ratio = math.nan
    converged = (not partial and len(last) == 5
                 and 0.0 < tail_ratio < 1.0
                 and scales[-1].s_n * tail_ratio / (1.0 - tail_ratio) < tol * total)
    return RadVarReport(params=p, angle=angle,
                        good_level=good_set_level(angle),
                        scales=tuple(scales), total=total,
                        tail_ratio=tail_ratio, converged=converged,
                        partial=partial)


def pullback_check(p: PolyParams, angle: DirectionAngle, n: int,
                   points: int = 17) -> float:
    """Max deviation between the direct ray at scale n and the pulled-back
    n-fold shifted ray, realizing the scale identification numerically.

    P^n maps the ray point at height h to the shifted-angle ray point at
    height 2^n h, times (-1)^{eps_n}; the shifted trace is pulled back
    through n square-root branches chosen by continuity from the direct
    ray and compared pointwise.
    """
    _check_angle(p, angle)
    if not 1 <= n <= 10:
        raise DomainError("pullback depth limited to 1..10")
    folded = angle.shift_n(n)
    sign = -1.0 if angle.bit(n) else 1.0

    heights_top = [p.a * 2.0 ** (-j / (points - 1)) for j in range(points)]
    heights_deep = [h / 2.0 ** n for h in heights_top]
    ray_folded = trace_ray(p, folded, heights_top)
    ray_direct = trace_ray(p, angle, heights_deep)

    worst = 0.0
    for ws, zs in zip(ray_folded.samples, ray_direct.samples):
        guides = [zs.z]
        for _ in range(n):
            guides.append(guides[-1] * guides[-1] - p.lam)
        cur = sign * ws.z
        for k in range(n - 1, -1, -1):
            root = cmath.sqrt(cur + p.lam)
            d_plus = abs(root - guides[k])
            d_minus = abs(-root - guides[k])
            if abs(d_plus - d_minus) <= 1e-12 * max(d_plus, d_minus, 1e-300):
                raise AmbiguousBranch(
                    f"preimage branches equidistant at height {ws.h}")
            cur = root if d_plus < d_minus else -root
        worst = max(worst, abs(cur - zs.z))
    return worst


@dataclass(frozen=True)
class DirectionRow:
    angle: DirectionAngle
    report: RadVarReport | None
    error: str | None


def compare_directions(p: PolyParams, angles, n_max: int,
                       quad: QuadSettings = QuadSettings()) -> list[DirectionRow]:
    """Batch of reports over a shared schedule; per-row error capture."""
    ok, bad = [], []
    for ang in angles:
        try:
            rep = radial_variation(p, ang, n_max, quad=quad)
            ok.append(DirectionRow(angle=ang, report=rep, error=None))
        except ToolkitError as exc:
            bad.append(DirectionRow(angle=ang, report=None,
                                    error=f"{type(exc).__name__}: {exc}"))
    ok.sort(key=lambda row: row.report.total)
    return ok + bad


def report_to_dict(report: RadVarReport) -> dict:
    """JSON-ready radial-variation report."""
    return {
        "lambda": report.params.lam,
        "psi": {"num": report.angle.numerator, "den": report.angle.denominator},
        "a": report.params.a,
        "good_level": report.good_level,
        "scales": [{"n": s.n, "s_n": s.s_n, "err": s.quad_error_est}
                   for s in report.scales],
        "total": report.total,
        "tail_ratio": report.tail_ratio,
        "converged": report.converged,
        "partial": report.partial,
    }
