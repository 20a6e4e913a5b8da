"""Iteration backbone for P(z) = z^2 - lam with a real Cantor Julia set.

Derived constants, for lam > 2:

    xi  = (1 + sqrt(1 + 4 lam)) / 2     positive fixed point, P(xi) = xi
    eta = sqrt(lam - xi)                positive solution of P(eta) = -xi
    rho = 2 xi                          multiplier of P at xi
    nu  = xi - 1                        so that lam = nu (nu + 1)
    a   = g(lam) / pi                   comb height of the ray picture

The Julia set E0 sits inside [-xi, xi] and misses (-eta, eta).  Any point
off E0 escapes to infinity, doubling its Green's value g at every step:

    g(z) = log|z| + sum_{k>=0} 2^{-(k+1)} log|1 - lam / z_k^2|,
    z_k = P o...o P (z)   (k-fold),

a telescoping of g = lim 2^{-n} log|z_n| whose tail dies off doubly
exponentially once an iterate clears the escape radius.

lam = 2 is admitted as the degenerate (Chebyshev) boundary case:
E0 = [-2, 2], eta = 0, a = 0.  It supplies closed-form oracles and is
excluded from the expanding-regime assertions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import DomainError, IterationOverflowError, NonEscapingError

THEOREM_EDGE = 2.0 + math.sqrt(2.0)

_OVERFLOW_CAP = 1e150
_MAX_DEPTH = 64
_FIXED_SNAP = 1e-9       # relative distance to +-xi treated as "on E0"
_NEIGH_SLACK = 1e-8      # |z_k| <= xi + slack for all k  =>  g = 0


@dataclass(frozen=True)
class PolyParams:
    """Immutable bundle of the constants derived from lam."""

    lam: float
    xi: float
    eta: float
    rho: float
    nu: float
    a: float
    theorem_range: bool

    def escape_radius(self) -> float:
        """Once |z| exceeds this, the orbit provably escapes."""
        return max(2.0 * self.xi, abs(self.lam) + 2.0)


@dataclass(frozen=True)
class Jet2:
    """Value with first and second z-derivatives, for forward propagation."""

    value: complex
    d1: complex
    d2: complex


@dataclass(frozen=True)
class IntervalCover:
    """2^n closed real intervals whose union contains E0."""

    level: int
    intervals: tuple
    degenerate: bool = False

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def max_length(self) -> float:
        return max(hi - lo for lo, hi in self.intervals)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return any(lo - slack <= x <= hi + slack for lo, hi in self.intervals)


def derive_params(lam: float) -> PolyParams:
    """Derive (xi, eta, rho, nu, a) from a finite lam >= 2."""
    lam = float(lam)
    if not 2.0 <= lam < math.inf:
        raise DomainError(f"lambda must be finite and >= 2 (got {lam}); the "
                          "expanding real-Julia-set regime starts at lambda > 2")
    xi = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * lam))
    eta = math.sqrt(max(lam - xi, 0.0))
    p0 = PolyParams(lam=lam, xi=xi, eta=eta, rho=2.0 * xi, nu=xi - 1.0,
                    a=math.nan, theorem_range=lam > THEOREM_EDGE)
    from . import boettcher  # deferred: boettcher imports this module

    return replace(p0, a=boettcher.compute_a(p0))


def iterate_jet(p: PolyParams, z: complex, n: int) -> Jet2:
    """n-fold iterate of P at z together with its first two z-derivatives."""
    if n < 0:
        raise DomainError("iteration count must be >= 0")
    v = complex(z)
    d1 = 1.0 + 0.0j
    d2 = 0.0 + 0.0j
    for k in range(n):
        if abs(v) > _OVERFLOW_CAP:
            raise IterationOverflowError(
                f"iterate exceeded {_OVERFLOW_CAP:g} at depth {k}", depth=k)
        d2 = 2.0 * (d1 * d1 + v * d2)
        d1 = 2.0 * v * d1
        v = v * v - p.lam
    return Jet2(v, d1, d2)


def compose_jets(outer: Jet2, inner: Jet2) -> Jet2:
    """Jet of g o f from the jet of g at f(x) and the jet of f at x."""
    return Jet2(outer.value,
                outer.d1 * inner.d1,
                outer.d2 * inner.d1 * inner.d1 + outer.d1 * inner.d2)


def critical_orbit(p: PolyParams, m: int) -> list[float]:
    """P(0), P(P(0)), ... up to m entries; truncated if values overflow.

    A shorter-than-m result is the truncation flag: entries stay exactly
    representable, the recursion x -> x^2 - lam never rounds through inf.
    """
    if m < 1:
        raise DomainError("orbit length must be >= 1")
    out = [-p.lam]
    x = -p.lam
    for _ in range(m - 1):
        if abs(x) > 1e150:
            break
        x = x * x - p.lam
        out.append(x)
    return out


def log_critical_values(p: PolyParams, m: int) -> list[float]:
    """log |P^(k)(0)| for k = 1..m, carried in log space.

    Uses log x_{k+1} = 2 log x_k + log1p(-lam exp(-2 log x_k)); the
    correction is dropped once it falls below double precision.
    """
    if m < 1:
        raise DomainError("need m >= 1")
    lam = p.lam
    logs = [math.log(lam)]
    lx = math.log(lam)
    for k in range(1, m):
        if 2.0 * lx > 745.0:  # exp underflows; correction is exactly 0 here
            lx = 2.0 * lx
        else:
            x2 = math.exp(2.0 * lx)
            if x2 <= lam:
                raise DomainError("critical orbit not escaping (lambda = 2?)")
            lx = 2.0 * lx + math.log1p(-lam / x2)
        logs.append(lx)
    return logs


def preimages(p: PolyParams, target: complex, n: int) -> list[complex]:
    """All 2^n solutions of P^(n)(y) = target, by recursive +-sqrt(w + lam)."""
    if n < 1:
        raise DomainError("preimage depth must be >= 1")
    level = [complex(target)]
    for _ in range(n):
        nxt = []
        for w in level:
            r = cmath.sqrt(w + p.lam)
            nxt.append(r)
            nxt.append(-r)
        level = nxt
    return level


def greens_value(p: PolyParams, z: complex, tol: float = 1e-12,
                 max_depth: int = _MAX_DEPTH) -> float:
    """Green's function of the complement of E0 with pole at infinity.

    Returns 0 on E0 by convention.  Float orbits of exact E0 points drift
    away at rate rho per step, so boundedness alone cannot certify
    membership; iterates landing within _FIXED_SNAP of the fixed family
    +-xi are therefore snapped to g = 0 directly.
    """
    v = complex(z)
    if not cmath.isfinite(v):
        raise DomainError(f"Green's function needs a finite point, got {z}")
    lam, xi = p.lam, p.xi
    R = p.escape_radius()
    snap = _FIXED_SNAP * xi
    if abs(v) < 1e-120:
        # g(z) = g(P(z)) / 2 sidesteps the log|z| singularity at the origin
        return 0.5 * greens_value(p, v * v - lam, tol, max_depth)
    acc = math.log(abs(v))
    stayed_close = True
    half = 0.5
    for _ in range(max_depth):
        if abs(v - xi) <= snap or abs(v + xi) <= snap:
            return 0.0
        if abs(v) > xi + _NEIGH_SLACK:
            stayed_close = False
        w = v * v - lam
        if w == 0:
            # exact precritical hit: g(z) = 2^{-(k+1)} g(0)
            return half * greens_value(p, 0.0j, tol, max_depth)
        acc += half * math.log(abs(1.0 - lam / (v * v)))
        if abs(v) > R:
            # remaining terms are dominated by a 1/4-geometric series in
            # 2^{-(k+1)} 2 lam / |z_k|^2; factor 2 covers the whole tail
            tail = half * (2.0 * abs(lam) / (abs(w) * abs(w))) * 2.0
            if tail < tol:
                return acc
        v = w
        half *= 0.5
    if stayed_close:
        return 0.0
    raise NonEscapingError(
        f"orbit of {z} neither escaped nor stayed on E0 within depth {max_depth}")


def julia_cover(p: PolyParams, n: int) -> IntervalCover:
    """The 2^n real intervals P^(-n)([-xi, xi]), an interval cover of E0."""
    if n < 0:
        raise DomainError("cover level must be >= 0")
    degenerate = p.eta == 0.0
    intervals = [(-p.xi, p.xi)]
    for _ in range(n):
        nxt = []
        for lo, hi in intervals:
            s_lo = math.sqrt(max(lo + p.lam, 0.0))
            s_hi = math.sqrt(hi + p.lam)
            nxt.append((s_lo, s_hi))
            nxt.append((-s_hi, -s_lo))
        nxt.sort()
        intervals = nxt
    return IntervalCover(level=n, intervals=tuple(intervals), degenerate=degenerate)
