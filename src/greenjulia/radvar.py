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
from .boettcher import ray_integrand, trace_ray, trace_rays
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


def _weighted_density(p, row):
    """The integrand in t, h = h_hi 2^{-t}, at a RaySample of arrays:
    dh = -ln2 h dt."""
    return ray_integrand(p, row) * row.h * math.log(2.0)


def _scale(vals, n, h_hi):
    """Simpson value of one scale from its weighted density at K+1
    geometric ray samples."""
    k = len(vals) - 1
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


def _check_angle(p, angle, stacklevel=3):
    check_comb(p)
    if angle.is_dyadic:
        raise DyadicAngleError(
            f"radial variation undefined for dyadic angle {angle} (ray hits a slit tip)")
    if not p.theorem_range:
        warnings.warn(
            f"lambda = {p.lam} is outside the expanding-decay range (> 2+sqrt(2)); "
            "decay of the scale contributions is not guaranteed", stacklevel=stacklevel)


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
        (row, reason), = trace_rays(p, [angle], heights)
        if reason is not None:
            raise NewtonDivergence(reason)
        cur = _scale(_weighted_density(p, row), n, h_hi)
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
    partial=True.  The batch of one of direction_rows.
    """
    (rep,) = _reports(p, [angle], n_max, tol, quad)
    if isinstance(rep, ToolkitError):
        raise rep
    return rep


def _reports(p, angles, n_max, tol, quad) -> list:
    """Per angle, in input order, its RadVarReport or the ToolkitError
    that stopped it; every direction is traced in one trace_rays call."""
    out = []
    for angle in angles:
        try:
            _check_angle(p, angle, stacklevel=4)
            if n_max < 0:
                raise DomainError("n_max must be >= 0")
            out.append(None)
        except ToolkitError as exc:
            out.append(exc)
    todo = [i for i, rep in enumerate(out) if rep is None]
    if not todo:
        return out
    k = quad.points_per_scale
    heights = [p.a * 2.0 ** (-i / k) for i in range(k * (n_max + 1) + 1)]
    for i, (row, reason) in zip(todo, trace_rays(p, [angles[i] for i in todo], heights)):
        try:
            out[i] = _report(p, angles[i], row, reason, n_max, tol, k)
        except ToolkitError as exc:
            out[i] = exc
    return out


def _report(p, angle, row, reason, n_max, tol, k) -> RadVarReport:
    """The report of one traced row; a row that stopped early gives the
    scales it completed, with partial=True."""
    if reason is not None and not len(row.h):
        raise NewtonDivergence(reason)
    scales = []
    n_full = min(n_max + 1, (len(row.h) - 1) // k)
    if n_full:
        vals = _weighted_density(p, row.head(n_full * k + 1))
        scales = [_scale(vals[n * k:(n + 1) * k + 1], n, p.a / 2.0 ** n)
                  for n in range(n_full)]

    partial = reason is not None
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


def direction_rows(p: PolyParams, angles, n_max: int, tol: float = 1e-3,
                   quad: QuadSettings = QuadSettings()) -> list[DirectionRow]:
    """radial_variation of every angle, in input order, from one batched
    ray trace; a direction that fails gets its error as a row of its own."""
    angles = list(angles)
    return [DirectionRow(angle=ang, report=rep, error=None)
            if not isinstance(rep, ToolkitError) else
            DirectionRow(angle=ang, report=None, error=f"{type(rep).__name__}: {rep}")
            for ang, rep in zip(angles, _reports(p, angles, n_max, tol, quad))]


def compare_directions(p: PolyParams, angles, n_max: int,
                       quad: QuadSettings = QuadSettings()) -> list[DirectionRow]:
    """Batch of reports over a shared schedule, sorted by total; failed
    directions follow in input order."""
    rows = direction_rows(p, angles, n_max, quad=quad)
    ok = sorted((row for row in rows if row.report is not None),
                key=lambda row: row.report.total)
    return ok + [row for row in rows if row.report is None]


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
