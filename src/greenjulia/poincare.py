"""The entire linearizer F of the repelling fixed point and its comb data.

F solves  Phat(F(w)) = F(rho w),  F(0) = 0,  F'(0) = 1,  where
Phat(u) = u (u + rho) is P conjugated to move the fixed point xi to the
origin and rho = 2 xi.  It is evaluated by the scaled-iteration limit

    F(w) = lim_n Phat^n (w / rho^n)

with jet propagation, depth chosen adaptively and confirmed by doubling.

On the negative real axis F oscillates with growing amplitude.  The
critical points c_1 > c_2 > ... (c_n the n-th zero of F' below 0), the
zeros a_{2n} < b_{2n} of F and the preimages a_{2n+1} < b_{2n+1} of the
slit-base value -2 xi interleave as

    ... a_{n+1} < c_{n+1} < b_{n+1} < a_n < c_n < b_n ...

and obey the scaling law c_{2^n} = rho^n c_1 (same for a, b).  Critical
values reproduce the critical orbit of P:  F(c_l) + xi = P^(m+1)(0) for
l = k 2^m with k odd (with the sign -lam for odd l), which also gives
the slit heights of the comb:  xi cosh(pi h(-l)) = |P^(m+1)(0)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (PolyParams, greens_value,
                       log_critical_values)
from .errors import (BracketFailure, DomainError, IterationOverflowError,
                     NoConvergence, TargetOutOfRange)

_DISC_POWER = 8       # evaluation disc |w| <= rho^_DISC_POWER
_DEPTH_CAP = 64


@dataclass(frozen=True)
class CombSlit:
    """Vertical slit of the linearizer comb at base point -position."""

    position: int
    height: float


@dataclass(frozen=True)
class RealLandmarks:
    """Negative-axis landmarks of index n: a_n < c_n < b_n."""

    index: int
    a: float
    b: float
    c: float


def _jet_eval(p: PolyParams, w: complex, depth: int, with_peak: bool = False):
    """Phat^depth(w / rho^depth) with first and second derivative."""
    rho = p.rho
    scale = rho ** (-depth)
    u = complex(w) * scale
    d1 = complex(scale)
    d2 = 0.0 + 0.0j
    peak = abs(u)
    for k in range(depth):
        if abs(u) > 1e150:
            raise IterationOverflowError(
                f"linearizer iterate exceeded range at depth {k}", depth=k)
        lin = 2.0 * u + rho
        d2 = 2.0 * d1 * d1 + lin * d2
        d1 = lin * d1
        u = u * (u + rho)
        if with_peak:
            peak = max(peak, abs(u))
    if with_peak:
        return u, d1, d2, peak
    return u, d1, d2


def _auto_depth(p: PolyParams, w: complex, tol: float) -> int:
    mag = max(abs(w), 1.0)
    need = (2.0 * math.log(mag) - math.log(tol)) / math.log(p.rho)
    return min(_DEPTH_CAP, max(8, int(need) + 4))


def poincare_jet(p: PolyParams, w: complex, tol: float = 1e-12,
                 max_radius: float | None = None):
    """(F(w), F'(w)), accepted once doubling the depth moves the value < tol.

    Shallow values reached through huge intermediates carry an absolute
    rounding floor of order eps * peak; the acceptance adds it so deep
    oscillation troughs still converge.
    """
    if max_radius is None:
        max_radius = p.rho ** _DISC_POWER
    if abs(w) > max_radius:
        raise DomainError(
            f"|w| = {abs(w):.3e} outside the evaluation disc {max_radius:.3e}")
    if w == 0:
        return 0.0 + 0.0j, 1.0 + 0.0j
    n = _auto_depth(p, w, tol)
    f1, fp1, _, _ = _jet_eval(p, w, n, with_peak=True)
    while True:
        n2 = min(2 * n, _DEPTH_CAP)
        f2, fp2, d2, peak = _jet_eval(p, w, n2, with_peak=True)
        # conditioning floor: quantizing w already moves F by eps |w| |F'|
        eps = 2.2e-16
        floor_f = eps * (8.0 * peak + 16.0 * abs(w) * abs(fp2))
        floor_fp = eps * (8.0 * peak + 16.0 * abs(w) * abs(d2))
        if abs(f2 - f1) <= tol * max(1.0, abs(f2)) + floor_f and \
                abs(fp2 - fp1) <= tol * max(1.0, abs(fp2)) + floor_fp:
            return f2, fp2
        if n2 >= _DEPTH_CAP:
            raise NoConvergence(f"linearizer limit not stable at depth {_DEPTH_CAP}")
        n, f1, fp1 = n2, f2, fp2


def _f_jet2(p: PolyParams, w: float, depth: int):
    """Real-axis fast path: (F, F', F'') at fixed depth."""
    u, d1, d2 = _jet_eval(p, complex(w), depth)
    return u.real, d1.real, d2.real


def _acosh_from_log(log_y: float) -> float:
    """acosh(y) given log y > 0, stable for huge y."""
    return log_y + math.log1p(math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * log_y))))


def comb_height(p: PolyParams, l: int) -> CombSlit:
    """Slit height h(-l) with xi cosh(pi h(-l)) = |P^(m+1)(0)|, l = k 2^m."""
    if l < 1:
        raise DomainError("slit position must be >= 1")
    m = (l & -l).bit_length() - 1  # 2-adic valuation
    if p.lam == 2.0:
        return CombSlit(position=l, height=0.0)
    log_val = log_critical_values(p, m + 1)[m]
    log_y = log_val - math.log(p.xi)
    if log_y <= 0:
        raise DomainError("critical value below xi; comb degenerate")
    return CombSlit(position=l, height=_acosh_from_log(log_y) / math.pi)


def _refine_root(p: PolyParams, lo: float, hi: float, func, dfunc,
                 bisections: int = 60) -> float:
    """Bisection on [lo, hi] (func(lo) func(hi) < 0) polished by Newton."""
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketFailure(f"no sign change on [{lo}, {hi}]")
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-15 * max(1.0, abs(lo)):
            break
    x = 0.5 * (lo + hi)
    for _ in range(3):
        d = dfunc(x)
        if d == 0.0:
            break
        step = func(x) / d
        if not math.isfinite(step) or abs(step) > (hi - lo) + 1e-12 * abs(x):
            break
        x -= step
        x = min(max(x, lo - (hi - lo)), hi + (hi - lo))
    return x


def landmarks(p: PolyParams, k_max: int) -> list[RealLandmarks]:
    """Locate (a_n, b_n, c_n) for n = 1..k_max on the negative axis.

    Even-index critical points follow the exact doubling law c_{2n} =
    rho c_n (Newton-polished and verified); the odd critical between two
    known evens is the unique interior minimum of F there, localized by
    golden section even when it squeezes against an endpoint.  The a/b
    landmarks are then plain sign changes of F (even index) or of
    F + 2 xi (odd index) on the monotone pieces in between.
    """
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    kappa = math.log2(p.rho)

    def fjet(w):
        depth = _auto_depth(p, complex(w), 1e-13)
        return _f_jet2(p, w, depth)

    fval = lambda w: fjet(w)[0]
    fp = lambda w: fjet(w)[1]
    fpp = lambda w: fjet(w)[2]

    # first critical point: F' > 0 on (c_1, 0]
    t = 0.25
    while fp(-t) > 0:
        t *= 1.5
        if t > p.rho ** _DISC_POWER:
            raise BracketFailure("no critical point found inside the disc")
    cmap = {0: 0.0, 1: _refine_root(p, -t, -t / 1.5, fp, fpp)}

    def newton_crit(x0, trust):
        x = x0
        for _ in range(40):
            d = fpp(x)
            if d == 0.0:
                raise BracketFailure(f"flat second derivative near {x0}")
            step = fp(x) / d
            x -= step
            if abs(x - x0) > trust:
                raise BracketFailure(f"critical-point polish left the trust region of {x0}")
            if abs(step) <= 1e-14 * abs(x):
                return x
        return x

    def crit(j):
        # even indices sit exactly at rho c_{j/2} (doubling law): Newton from
        # that seed, then verify the law, which also catches mislabeling.
        # Odd indices are the unique interior minimum of F between the two
        # flanking even criticals; golden-section localizes it even when it
        # is squeezed against an endpoint, Newton then polishes.
        if j in cmap:
            return cmap[j]
        if j % 2 == 0:
            seed = p.rho * crit(j // 2)
            root = newton_crit(seed, trust=0.01 * abs(seed))
            if abs(root - seed) > 1e-7 * abs(seed):
                raise BracketFailure(
                    f"critical point of index {j} not at rho c_{j // 2}")
            cmap[j] = root
        else:
            lo, hi = crit(j + 1), crit(j - 1)
            width0 = hi - lo
            gold = 0.5 * (math.sqrt(5.0) - 1.0)
            x1 = hi - gold * (hi - lo)
            x2 = lo + gold * (hi - lo)
            f1, f2 = fval(x1), fval(x2)
            while (x2 - x1) > 1e-9 * max(abs(lo), 1.0) and x1 < x2:
                if f1 <= f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - gold * (hi - lo)
                    f1 = fval(x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + gold * (hi - lo)
                    f2 = fval(x2)
            cmap[j] = newton_crit(0.5 * (x1 + x2), trust=0.6 * width0)
        return cmap[j]

    c = [crit(j) for j in range(1, k_max + 2)]
    for prev, cur in zip(c, c[1:]):
        if not cur < prev:
            raise BracketFailure("critical points out of order; walk mislabeled")

    # roots between consecutive critical points: b_{n+1} then a_n
    slit_base = -2.0 * p.xi

    def root_between(w_lo, w_hi, target):
        func = lambda w: fval(w) - target
        return _refine_root(p, w_lo, w_hi, func, fp)

    out = []
    for n in range(1, k_max + 1):
        target_n = 0.0 if n % 2 == 0 else slit_base
        if p.a == 0.0:
            # degenerate comb: zero slit heights collapse a_n = b_n = c_n
            out.append(RealLandmarks(index=n, a=c[n - 1], b=c[n - 1], c=c[n - 1]))
            continue
        a_n = root_between(c[n], c[n - 1], target_n)
        hi = c[n - 2] if n >= 2 else 0.0
        b_n = root_between(c[n - 1], hi, target_n)
        out.append(RealLandmarks(index=n, a=a_n, b=b_n, c=c[n - 1]))

    for prev, cur in zip(out, out[1:]):
        ordered = cur.a < cur.c < cur.b < prev.a < prev.c < prev.b
        if p.a > 0 and not ordered:
            raise BracketFailure(f"landmark ordering violated near index {cur.index}")
    return out


def invert_F_branch(p: PolyParams, target: float, n: int,
                    side: str = "right") -> float:
    """The unique w in the index-n monotone piece with F(w) + xi = target.

    side='right' inverts on [c_{2n+1}, c_{2n}] (F + xi increasing from
    -lam), side='left' on [c_{2n+2}, c_{2n+1}] (decreasing); together they
    realize the branch f_n(z) = invert(P(z)) for real z in [-xi, xi] with
    the side picked by the sign of z.
    """
    if n < 0:
        raise DomainError("branch index must be >= 0")
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    lms = landmarks(p, 2 * n + 2)
    c = {m: lms[m - 1].c for m in range(1, 2 * n + 3)}
    c[0] = 0.0

    def fxi(w):
        depth = _auto_depth(p, complex(w), 1e-13)
        val, _, _ = _f_jet2(p, w, depth)
        return val + p.xi

    def fprime(w):
        depth = _auto_depth(p, complex(w), 1e-13)
        return _f_jet2(p, w, depth)[1]

    if side == "right":
        w_lo, w_hi = c[2 * n + 1], c[2 * n]
    else:
        w_lo, w_hi = c[2 * n + 2], c[2 * n + 1]
    v_lo, v_hi = fxi(w_lo), fxi(w_hi)
    (v_min, w_min), (v_max, w_max) = sorted(((v_lo, w_lo), (v_hi, w_hi)))
    # tolerances scale with each endpoint's own value: the critical value at
    # the other end can be orders of magnitude larger
    if (target > v_max + 1e-9 * max(abs(v_max), 1.0)
            or target < v_min - 1e-9 * max(abs(v_min), 1.0)):
        raise TargetOutOfRange(
            f"target {target} outside branch range [{v_min:.6g}, {v_max:.6g}]")
    if target <= v_min + 1e-12 * max(abs(v_min), 1.0):
        return w_min
    if target >= v_max - 1e-12 * max(abs(v_max), 1.0):
        return w_max
    return _refine_root(p, w_lo, w_hi, lambda w: fxi(w) - target, fprime)


def selfsim_greens_residual(p: PolyParams, z: complex) -> float:
    """|g(F(rho z) + xi) - 2 g(F(z) + xi)|, the branch-free self-similarity.

    Exact zero in exact arithmetic: F(rho z) + xi = P(F(z) + xi) composed
    with the doubling of the Green's function.
    """
    f1, _ = poincare_jet(p, z)
    f2, _ = poincare_jet(p, p.rho * z)
    return abs(greens_value(p, f2 + p.xi) - 2.0 * greens_value(p, f1 + p.xi))


def comb_to_dict(p: PolyParams, l_max: int) -> dict:
    """JSON-ready description of the linearizer comb."""
    return {
        "base": "pi_F",
        "slits": [{"l": l, "h": comb_height(p, l).height} for l in range(1, l_max + 1)],
    }
