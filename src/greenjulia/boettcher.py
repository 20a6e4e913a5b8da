"""Green's/Boettcher data with derivatives, and external-ray tracing.

Everything is expressed through the branch-free pair (g, L):

    g(z)  = -log|G(z)|           Green's function (dynamics.greens_value)
    L(z)  = G'(z) / G(z)         logarithmic derivative, single valued
    Lp(z) = L'(z)

obtained as limits of 2^{-n} (P^n)'(z)/P^n(z) via the same telescoping
series as g.  The doubling identity L(P(z)) P'(z) = 2 L(z) and the ratios
|G'| = e^{-g} |L|, G''/G = Lp + L^2 turn every curvature quantity of the
inverse map T = G^{-1} into (g, L, Lp) data; in particular the radial
variation density with respect to the Green's height h is

    pi e^{pi h} |Lp + L^2| / |L|^3.

Rays are traced by self-similarity, P(gamma_psi(h)) = (-1)^{eps_1}
gamma_{shift psi}(2h), which puts the ray point at height h on the ray of
psi_n = 2^n psi mod 1 at height 2^n h.  For each scheduled h take the
smallest depth n with e^{2^n pi h} above the squared escape radius,
Newton-solve log B(W) = 2^n pi h + i pi psi_n at depth 0, where B = 1/G
is normalized to the identity at infinity and log B is summed by the
same series, and pull W back n times through the square-root branch in
the upper half-plane:

    z_k = the root with Im > 0 of (-1)^{eps_{k+1}} z_{k+1} + lam.

The phase psi_n and the signs eps_k are exact integer arithmetic, so no
branch is ever tracked, and the whole schedule is solved at once on
arrays.  The depth n depends on h alone, so trace_rays solves many angles
over one schedule as one (angles x heights) array.  Each pullback contracts, so the points are as accurate as the
top solve.  Near E0 the series value of g at a rounded point is
ill-conditioned, so where it misses pi h the best of the point and its
one-ulp neighbours is kept, and the height every sample carries is
checked against the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import DirectionAngle
from .dynamics import PolyParams, greens_value, preimages
from .errors import (DomainError, DyadicAngleError, NewtonDivergence,
                     NonEscapingError, ScheduleTooCoarse, SingularSampleError)

_MAX_DEPTH = 64
_MIN_NEWTON_MODULUS = 100.0
_NEWTON_STEPS = 60
_HEIGHT_TOL = 1e-9        # README contract: |g(z)/pi - h| < 1e-9 on every sample
_EPS = 2.2e-16


@dataclass(frozen=True)
class LogDerivData:
    """Green's value with the log-derivative pair at one point (or, from
    an array call of log_deriv_jet, arrays over the points)."""

    g: float
    L: complex
    Lp: complex
    depth: int

    def second_ratio(self) -> complex:
        """G''/G = Lp + L^2."""
        return self.Lp + self.L * self.L


@dataclass(frozen=True)
class RaySample:
    h: float
    z: complex
    data: LogDerivData

    def head(self, m: int) -> RaySample:
        """The first m samples of a RaySample of arrays."""
        d = self.data
        return RaySample(h=self.h[:m], z=self.z[:m], data=LogDerivData(
            g=d.g[:m], L=d.L[:m], Lp=d.Lp[:m], depth=d.depth[:m]))


@dataclass(frozen=True)
class TipInfo:
    point: complex
    height: float


@dataclass(frozen=True)
class ExternalRay:
    """Trace of gamma_psi: samples at decreasing Green's height h."""

    angle: DirectionAngle
    samples: tuple
    termination: str          # "hmin" or "tip"
    tip: TipInfo | None = None


def compute_a(p: PolyParams) -> float:
    """Comb height a = g(lam) / pi; zero exactly at lam = 2."""
    return greens_value(p, complex(p.lam)) / math.pi


def log_deriv_jet(p: PolyParams, z, tol: float = 1e-12) -> LogDerivData:
    """(g, L, Lp) at escaping points, by term-wise differentiated series.

    z is one point or a 1-D array of points.  One point gives Python
    numbers and raises where the data is undefined; an array gives a
    LogDerivData of arrays over the points, with NaN fields at the points
    where a single call would raise.

    L = -(1/z + sum 2^{-(k+1)} 2 lam (P^k)'(z) / (z_k z_{k+1})) since the
    series is the log-derivative of B = 1/G.  Each term is formed from the
    forward jet, so no large-cancellation differences ever appear.  Each
    point stops summing once its iterate is past the escape radius and its
    terms are below tol.
    """
    lam, xi = p.lam, p.xi
    R = p.escape_radius()
    snap = 1e-9 * xi
    z0 = np.atleast_1d(np.asarray(z, dtype=complex))
    count = len(z0)
    g = np.full(count, np.nan)
    s = np.full(count, np.nan, dtype=complex)
    sp = np.full(count, np.nan, dtype=complex)
    depth = np.zeros(count, dtype=int)
    # 0 ok, 1 critical point, 2 on E0, 3 precritical, 4 no convergence
    fail = np.where(np.abs(z0) < 1e-150, 1, 0)

    act = np.flatnonzero(fail == 0)
    v = z0[act]
    gg = np.log(np.abs(v))
    ss = 1.0 / v
    ssp = -1.0 / (v * v)
    d1 = np.ones(len(act), dtype=complex)
    d2 = np.zeros(len(act), dtype=complex)
    half = 0.5
    with np.errstate(all="ignore"):
        for k in range(_MAX_DEPTH):
            if not act.size:
                break
            on_e0 = (np.abs(v - xi) <= snap) | (np.abs(v + xi) <= snap)
            vv = v * v
            w = vv - lam
            precrit = ~on_e0 & (np.abs(w) < 1e-150)
            gg = gg + half * np.log(np.abs(1.0 - lam / vv))
            vw = v * w
            term_s = half * 2.0 * lam * d1 / vw
            term_sp = half * 2.0 * lam * (d2 / vw - d1 * d1 * (w + 2.0 * vv) / (vw * vw))
            ss = ss + term_s
            ssp = ssp + term_sp
            done = ((np.abs(v) > R) & (np.abs(term_s) <= tol * (1.0 + np.abs(ss)))
                    & (np.abs(term_sp) <= tol * (1.0 + np.abs(ssp))))
            fail[act[on_e0]] = 2
            fail[act[precrit]] = 3
            depth[act[on_e0 | precrit]] = k
            ok = done & ~on_e0 & ~precrit
            i = act[ok]
            g[i], s[i], sp[i], depth[i] = gg[ok], ss[ok], ssp[ok], k + 1
            keep = ~(done | on_e0 | precrit)
            act, v, w, d1, d2 = act[keep], v[keep], w[keep], d1[keep], d2[keep]
            gg, ss, ssp = gg[keep], ss[keep], ssp[keep]
            d2 = 2.0 * (d1 * d1 + v * d2)
            d1 = 2.0 * v * d1
            v = w
            half *= 0.5
        fail[act] = 4

    if np.ndim(z) == 0:
        pt = complex(z)
        if fail[0] == 1:
            raise SingularSampleError("log-derivative data undefined at the critical point")
        if fail[0] == 2:
            raise NonEscapingError(f"{pt} is on (or numerically on) E0")
        if fail[0] == 3:
            raise SingularSampleError(
                f"orbit of {pt} hits a precritical point at depth {depth[0]}")
        if fail[0] == 4:
            raise NonEscapingError(
                f"orbit of {pt} did not converge the log-derivative series by depth {_MAX_DEPTH}")
        return LogDerivData(g=float(g[0]), L=complex(-s[0]), Lp=complex(-sp[0]),
                            depth=int(depth[0]))
    return LogDerivData(g=g, L=-s, Lp=-sp, depth=depth)


def stack_samples(samples) -> RaySample:
    """A sequence of ray samples as one RaySample whose fields are arrays."""
    return RaySample(
        h=np.array([s.h for s in samples], dtype=float),
        z=np.array([s.z for s in samples], dtype=complex),
        data=LogDerivData(g=np.array([s.data.g for s in samples], dtype=float),
                          L=np.array([s.data.L for s in samples], dtype=complex),
                          Lp=np.array([s.data.Lp for s in samples], dtype=complex),
                          depth=np.array([s.data.depth for s in samples], dtype=int)))


def ray_integrand(p: PolyParams, sample: RaySample):
    """Density of the radial-variation integral with respect to dh.

    |T''| |dw| = (|G''|/|G'|^2) |dz|, |G''|/|G'|^2 = e^g |Lp+L^2| / |L|^2,
    and |dz/dh| = pi / |L| along the ray, giving pi e^{pi h} |Lp+L^2|/|L|^3.
    One sample gives a float; a sample of arrays (stack_samples) gives an
    array, and its first singular entry raises.
    """
    h = np.asarray(sample.h)
    L = np.asarray(sample.data.L)
    abs_L = np.abs(L)
    singular = np.flatnonzero(abs_L < 1e-14)
    if singular.size:
        i = singular[0]
        raise SingularSampleError(
            f"|L| = {abs_L.flat[i]:.3e} at h = {h.flat[i]}: "
            "sample too close to a critical point")
    dens = np.pi * np.exp(np.pi * h) * np.abs(sample.data.Lp + L * L) / abs_L ** 3
    return float(dens) if dens.ndim == 0 else dens


def angle_double_fold(angle: DirectionAngle) -> tuple[DirectionAngle, bool]:
    """Fold the angle doubling back into (0, 1).

    Returns (frac(2 psi), flipped) where flipped records psi > 1/2, i.e.
    the doubled ray lands in the reflected half of the doubled comb.  The
    folded angle is the bit shift of the expansion; consumers restore the
    geometry with the sign flip P(gamma_psi(h)) = (-1)^{eps_1} gamma_{shift psi}(2h).
    """
    if angle.is_dyadic:
        raise DyadicAngleError(f"fold undefined for dyadic angle {angle}")
    return angle.shift(), angle.bit(1) == 1


def _log_boettcher(lam: float, w, tol: float = 1e-15):
    """log B(w) (principal per-term branches) and B'/B over an array of
    large points; callers guarantee |lam / w^2| well below 1/2 so every
    Log(1 - lam/w_k^2) stays on the principal branch.  The stop is shared
    by the whole array, but the terms decay doubly exponentially: a point
    whose own terms are already below tol gains from a later stop only
    terms below half an ulp of its sums, so its digits do not depend on
    the points summed beside it."""
    v = w
    ell = np.log(v)
    s = 1.0 / v
    d1 = np.ones_like(v)
    half = 0.5
    for _ in range(48):
        vv = v * v
        term = half * np.log(1.0 - lam / vv)
        ell = ell + term
        s = s + half * 2.0 * lam * d1 / (v * (vv - lam))
        if not np.abs(term).max(initial=0.0) >= tol:
            break
        d1 = 2.0 * v * d1
        v = vv - lam
        half *= 0.5
    return ell, s


def default_heights(p: PolyParams, scales: int, per_scale: int = 16,
                    h_top: float | None = None) -> list[float]:
    """Geometric schedule h_j = h_top 2^{-j/per_scale} down to h_top 2^{-scales}."""
    if h_top is None:
        h_top = p.a if p.a > 0 else 1.0
    return [h_top * 2.0 ** (-j / per_scale) for j in range(scales * per_scale + 1)]


def _newton_depth(h, log_r: float):
    """Smallest n >= 0 with 2^n pi h > log_r, for each height of an array."""
    ratio = log_r / (np.pi * np.asarray(h, dtype=float))
    n = np.maximum(np.frexp(ratio)[1], 0)
    if not np.isfinite(ratio).all() or n.max(initial=0) > 200:
        raise DomainError(f"height {np.min(h)} too small for ray continuation")
    return n


def _series_height_error(lam: float, z: np.ndarray, n: np.ndarray, h: np.ndarray):
    """g(z)/pi - h at points z of nondecreasing depth n along the last
    axis, with g summed as 2^-n Re log B(P^n(z)) and P^n iterated as the
    log-derivative series does."""
    v = z.copy()
    for k in range(int(n.max(initial=0))):
        deeper = v[..., np.searchsorted(n, k, side="right"):]
        deeper *= deeper
        deeper -= lam
    ell, _ = _log_boettcher(lam, v)
    return np.ldexp(ell.real, -n) / np.pi - h


def _polish(lam: float, z: np.ndarray, n: np.ndarray, h: np.ndarray):
    """Move each point whose series height misses h by a tenth of the
    contract or more to whichever of it and its eight one-ulp neighbours
    misses least.  Near E0 the series height of a rounded point is
    ill-conditioned, so neighbours within rounding of the same ray point
    can differ in it by more than the contract.  z holds one ray per row."""
    miss = ~(np.abs(_series_height_error(lam, z, n, h)) < _HEIGHT_TOL / 10)
    a, b = np.repeat([-1.0, 0.0, 1.0], 3), np.tile([-1.0, 0.0, 1.0], 3)
    for row in np.flatnonzero(miss.any(axis=1)):
        cols = np.flatnonzero(miss[row])
        re, im = z[row, cols].real[:, None], z[row, cols].imag[:, None]
        cands = (re + a * np.spacing(np.abs(re))) + 1j * (im + b * np.spacing(np.abs(im)))
        err = np.abs(_series_height_error(lam, cands.ravel(), np.repeat(n[cols], 9),
                                          np.repeat(h[cols], 9))).reshape(cands.shape)
        best = np.argmin(np.where(np.isnan(err), np.inf, err), axis=1)
        z[row, cols] = cands[np.arange(cols.size), best]
    return z


def _ray_points(p: PolyParams, angles, h: np.ndarray, log_r: float,
                newton_tol: float):
    """Ray points at the decreasing heights h, one row per angle, and
    whether each top solve converged: W on the ray of psi_n at height
    2^n h from depth 0, pulled back n times through the upper-half-plane
    square-root branch.  The depth n depends on h alone, so every row
    shares it; the phase psi_n and the pullback signs are per row."""
    lam = p.lam
    n = _newton_depth(h, log_r)
    depths, which = np.unique(n, return_inverse=True)
    phase = np.array([[(pow(2, int(d), a.denominator) * a.numerator) % a.denominator
                       / a.denominator for d in depths] for a in angles])
    target = np.ldexp(np.pi * h, n) + 1j * np.pi * phase[:, which]

    w = np.exp(target)
    done = np.zeros(w.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            ell, dell = _log_boettcher(lam, w)
            phi = ell - target
            phi.imag = np.remainder(phi.imag + np.pi, 2.0 * np.pi) - np.pi
            step = phi / dell
            w = np.where(done, w, w - step)
            # the step just taken squares the error, so a point is done once
            # its residual was below newton_tol or its step below the
            # representation quantum of w, where the residual floor
            # |dphi| ulp(w) may sit above newton_tol
            done |= (np.abs(phi) < newton_tol) | (np.abs(step) <= 8.0 * _EPS * np.abs(w))
            if done.all():
                break

        # n is nondecreasing along the schedule, so the points still being
        # pulled back at depth k are a suffix of every row
        z = w
        depth = int(n.max(initial=0))
        signs = np.array([[-1.0 if a.bit(k + 1) else 1.0 for k in range(depth)]
                          for a in angles])
        for k in range(depth - 1, -1, -1):
            start = np.searchsorted(n, k, side="right")
            root = np.sqrt(signs[:, k:k + 1] * z[:, start:] + lam)
            np.negative(root, out=root, where=root.imag < 0)
            z[:, start:] = root
        z = _polish(lam, z, n, h)
    return z, done


def _schedule(h_schedule) -> np.ndarray:
    """The heights as an array; raises unless strictly decreasing and positive."""
    h = np.array(h_schedule, dtype=float)
    if not h.size:
        raise DomainError("empty height schedule")
    if not (np.all(np.diff(h) < 0) and h[-1] > 0):
        raise DomainError("height schedule must be strictly decreasing and positive")
    return h


def trace_rays(p: PolyParams, angles, h_schedule, newton_tol: float = 1e-13,
               series_tol: float = 1e-12) -> list[tuple[RaySample, str | None]]:
    """External rays of several angles over one schedule of heights.

    Returns, per angle in input order, (sample, reason): a RaySample of
    arrays over the samples above the row's stop, and why the row stopped
    early, or None if every height was traced.  A row stops at its first
    depth-0 solve that misses newton_tol or its first sample that breaks
    the README contract |g/pi - h| < 1e-9.  Dyadic angles are traced like
    any other; their slit tips are trace_ray's business.
    """
    h = _schedule(h_schedule)
    angles = list(angles)
    if not angles:
        return []
    log_r = math.log(max(p.escape_radius() ** 2, _MIN_NEWTON_MODULUS))
    z, converged = _ray_points(p, angles, h, log_r, newton_tol)
    solved = np.where(converged.all(axis=1), len(h), np.argmin(converged, axis=1))
    data = log_deriv_jet(p, np.concatenate([zr[:s] for zr, s in zip(z, solved)]),
                         series_tol)
    rows = []
    for zr, s, end in zip(z, solved, np.cumsum(solved)):
        part = slice(end - s, end)
        row = RaySample(h=h[:s], z=zr[:s], data=LogDerivData(
            g=data.g[part], L=data.L[part], Lp=data.Lp[part], depth=data.depth[part]))
        height_err = np.abs(row.data.g / np.pi - row.h)
        broken = np.flatnonzero(~(height_err < _HEIGHT_TOL))
        stop = int(broken[0]) if broken.size else int(s)
        reason = None
        if stop == s < len(h):
            reason = f"depth-0 Newton solve did not reach tolerance at h={h[stop]}"
        elif stop < s and math.isnan(height_err[stop]):
            reason = f"no Green's data at h={h[stop]}: the point is on E0 or precritical"
        elif stop < s:
            reason = (f"height contract broken at h={h[stop]}: "
                      f"|g/pi - h| = {height_err[stop]:.3e} >= {_HEIGHT_TOL:g}")
        rows.append((row.head(stop), reason))
    return rows


def trace_ray(p: PolyParams, angle: DirectionAngle, h_schedule,
              newton_tol: float = 1e-13, series_tol: float = 1e-12,
              arc_bound: float | None = None,
              tip_margin: float = 1e-3) -> ExternalRay:
    """External ray at the given angle at every height of the schedule:
    the one-row case of trace_rays.

    Non-dyadic angles run to the smallest scheduled height.  Dyadic angles
    stop at the slit tip a/2^m: scheduled heights at or below the tip are
    dropped and the precritical tip point P^{-(m-1)}(0) (branch nearest
    the last sample) is reported as TipInfo.

    Every sample carries its Green's height: at the first sample whose
    series value misses |g/pi - h| < 1e-9, or whose depth-0 solve misses
    newton_tol, NewtonDivergence is raised with the samples before it as
    `partial`.  arc_bound caps the jump between consecutive points.
    """
    heights = _schedule(h_schedule).tolist()

    tip_h = None
    if angle.is_dyadic and p.a > 0:   # degenerate comb: no slits, no tips
        tip_h = p.a / 2.0 ** angle.dyadic_level
        heights = [h for h in heights if h > tip_h * (1.0 + tip_margin)]
    points = list(heights)
    if tip_h is not None:
        # unscheduled helper point just above the tip guides branch selection
        h_help = tip_h * (1.0 + tip_margin)
        if not heights or heights[-1] > h_help * (1.0 + 1e-9):
            points.append(h_help)

    (row, reason), = trace_rays(p, [angle], points, newton_tol, series_tol)
    z = row.z
    if arc_bound is not None:
        jumps = np.flatnonzero(np.abs(np.diff(z)) > arc_bound)
        if jumps.size:
            i = int(jumps[0]) + 1
            raise ScheduleTooCoarse(
                f"sample jump {abs(z[i] - z[i - 1]):.3e} exceeds arc bound {arc_bound:.3e}")

    kept = min(len(z), len(heights))
    samples = tuple(
        RaySample(h=hh, z=zz, data=LogDerivData(g=gg, L=ll, Lp=lp, depth=dd))
        for hh, zz, gg, ll, lp, dd in zip(
            heights[:kept], z[:kept].tolist(), row.data.g[:kept].tolist(),
            row.data.L[:kept].tolist(), row.data.Lp[:kept].tolist(),
            row.data.depth[:kept].tolist()))
    if reason is not None:
        raise NewtonDivergence(
            reason, last_sample=samples[-1] if samples else None,
            partial=ExternalRay(angle=angle, samples=samples, termination="hmin"))

    tip = None
    termination = "hmin"
    if tip_h is not None:
        m = angle.dyadic_level
        if m == 1:
            tip_point = 0.0 + 0.0j
        else:
            last = complex(z[-1])
            tip_point = min(preimages(p, 0.0j, m - 1), key=lambda c: abs(c - last))
        tip = TipInfo(point=tip_point, height=tip_h)
        termination = "tip"
    return ExternalRay(angle=angle, samples=samples, termination=termination, tip=tip)


RAY_CSV_COLUMNS = ("h", "re_z", "im_z", "g", "re_L", "im_L", "density")


def ray_csv_rows(p: PolyParams, ray: ExternalRay):
    """Yield the wire-format rows (header first) for a traced ray."""
    yield RAY_CSV_COLUMNS
    density = ray_integrand(p, stack_samples(ray.samples)).tolist()
    for s, dens in zip(ray.samples, density):
        yield (repr(s.h), repr(s.z.real), repr(s.z.imag), repr(s.data.g),
               repr(s.data.L.real), repr(s.data.L.imag), repr(dens))
