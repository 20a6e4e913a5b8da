"""Independent-route checks of greenjulia outputs.

Each check takes output as the program emitted it (parsed wire format or
returned values) and recomputes what it claims by another route.  It
returns a list of failure reasons; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re

from greenjulia import dynamics, goodset, poincare

# README contract: every ray sample reproduces its Green's height,
# |greens_value(z)/pi - h| < 1e-9
HEIGHT_TOL = 1e-9
MIRROR_RTOL = 1e-9        # total(psi) against total(1 - psi)
SUM_RTOL = 1e-12          # total against sum(s_n), summation order aside
SCALING_RTOL = 1e-8       # c_{2n} = rho c_n
SLIT_RTOL = 1e-9          # xi cosh(pi h(-l)) = |P^(m+1)(0)|
INVERT_RTOL = 1e-9        # F(w) + xi = target, plus the conditioning floor
DIM_TOL = 1e-3            # transfer-matrix rate against the word-count rate
_EPS = 2.2e-16


def height_errors(p, samples) -> list[float]:
    """|greens_value(z)/pi - h| for each (h, z); inf where g is undefined."""
    errs = []
    for h, z in samples:
        try:
            errs.append(abs(dynamics.greens_value(p, z) / math.pi - h))
        except dynamics.NonEscapingError:
            errs.append(math.inf)
    return errs


def check_heights(errs) -> list[str]:
    bad = [e for e in errs if not e < HEIGHT_TOL]
    if not bad:
        return []
    first = next(i for i, e in enumerate(errs) if not e < HEIGHT_TOL)
    return [f"height contract: {len(bad)} of {len(errs)} samples off by "
            f">= {HEIGHT_TOL:g} (first at sample {first}, worst {max(bad):.3g})"]


def check_ray_rows(rows, expected_samples: int) -> list[str]:
    """Shape of a ray CSV: header, sample count, strictly decreasing h."""
    if not rows or tuple(rows[0]) != ("h", "re_z", "im_z", "g", "re_L",
                                      "im_L", "density"):
        return ["ray csv: header missing or wrong"]
    reasons = []
    if len(rows) - 1 != expected_samples:
        reasons.append(f"ray csv: {len(rows) - 1} samples, "
                       f"expected {expected_samples}")
    hs = [float(r[0]) for r in rows[1:]]
    if any(not b < a for a, b in zip(hs, hs[1:])):
        reasons.append("ray csv: heights not strictly decreasing")
    return reasons


def check_report_sum(report) -> list[str]:
    parts = [s["s_n"] for s in report["scales"]]
    slack = SUM_RTOL * sum(abs(x) for x in parts)
    if not abs(report["total"] - math.fsum(parts)) <= slack:
        return [f"total {report['total']!r} != sum(s_n) {math.fsum(parts)!r}"]
    return []


def check_mirror(total, mirror_total) -> list[str]:
    if not abs(total - mirror_total) <= MIRROR_RTOL * max(abs(total),
                                                          abs(mirror_total)):
        return [f"mirror totals differ: {total!r} vs {mirror_total!r}"]
    return []


def check_landmarks(rows, rho: float) -> list[str]:
    """Interleaving ... a_{n+1} < c_{n+1} < b_{n+1} < a_n < c_n < b_n ...
    and the scaling law c_{2n} = rho c_n."""
    reasons = []
    for lm in rows:
        if not lm["a"] < lm["c"] < lm["b"]:
            reasons.append(f"landmark {lm['n']}: a < c < b violated")
    for prev, cur in zip(rows, rows[1:]):
        if not cur["b"] < prev["a"]:
            reasons.append(f"landmarks {cur['n']}, {prev['n']}: b_{{n+1}} < a_n violated")
    by_n = {lm["n"]: lm["c"] for lm in rows}
    for n, c in by_n.items():
        c2 = by_n.get(2 * n)
        if c2 is not None and not abs(c2 - rho * c) <= SCALING_RTOL * abs(c2):
            reasons.append(f"scaling law c_{2 * n} = rho c_{n} off by "
                           f"{abs(c2 - rho * c) / abs(c2):.3g}")
    return reasons


def check_slits(p, slits) -> list[str]:
    """Slit heights against the critical orbit, by float iteration of P."""
    reasons = []
    orbit = dynamics.critical_orbit(p, 16)
    for slit in slits:
        l = slit["l"]
        m = (l & -l).bit_length() - 1
        if m >= len(orbit):
            continue
        lhs = p.xi * math.cosh(math.pi * slit["h"])
        if not abs(lhs - abs(orbit[m])) <= SLIT_RTOL * abs(orbit[m]):
            reasons.append(f"slit {l}: xi cosh(pi h) = {lhs:.12g}, "
                           f"|P^{m + 1}(0)| = {abs(orbit[m]):.12g}")
    return reasons


def check_inverse(p, target: float, w: float) -> list[str]:
    """poincare_jet(w) + xi reproduces the inverted target."""
    f, fp = poincare.poincare_jet(p, complex(w))
    tol = INVERT_RTOL * max(1.0, abs(target)) + 64 * _EPS * abs(w) * abs(fp)
    if not abs(f.real + p.xi - target) <= tol:
        return [f"F(w) + xi = {f.real + p.xi!r} misses target {target!r}"]
    return []


def _longest_run(word: str) -> int:
    return max((len(m.group()) for m in re.finditer(r"0+|1+", word)), default=0)


def check_cover(payload, N: int, k: int) -> list[str]:
    """Every kept word has runs <= N and a consistent dyadic address."""
    reasons = []
    if payload.get("N") != N or payload.get("k") != k:
        reasons.append(f"cover header {payload.get('N')}, {payload.get('k')} != {N}, {k}")
    bad_run = bad_addr = 0
    zeros, ones = "0" * (N + 1), "1" * (N + 1)
    for iv in payload["keep"]:
        word = iv["index"]
        if zeros in word or ones in word:
            bad_run += 1
        if (set(word) - {"0", "1"} or iv["num"] != int(word, 2)
                or not iv["log2den"] == iv["len_log2den"] == len(word)):
            bad_addr += 1
    if bad_run:
        reasons.append(f"cover: {bad_run} kept words break the run bound {N}")
    if bad_addr:
        reasons.append(f"cover: {bad_addr} kept words with a wrong address")
    if not payload["keep"]:
        reasons.append("cover: nothing kept")
    return reasons


def check_dim_rows(rows, levels) -> list[str]:
    reasons = []
    if [r["N"] for r in rows] != list(levels):
        return [f"dim rows for {[r['N'] for r in rows]}, asked {list(levels)}"]
    for r in rows:
        rate = goodset.dimension_word_rate(r["N"])
        if not abs(r["dimension"] - rate) < DIM_TOL:
            reasons.append(f"dim N={r['N']}: {r['dimension']!r} vs word rate {rate!r}")
        if r["word_rate"] != rate:
            reasons.append(f"dim N={r['N']}: printed word rate {r['word_rate']!r} != {rate!r}")
        if not r["dimension"] >= 1.0 - 1.0 / r["N"]:
            reasons.append(f"dim N={r['N']}: below the cover exponent")
    return reasons


def expected_membership(num: int, den: int, N: int) -> bool:
    """Runs of the binary expansion of num/den, by long division: the
    expansion is eventually periodic, so prefix plus two periods holds
    every run."""
    seen, bits, r = {}, [], num
    while r not in seen:
        seen[r] = len(bits)
        r *= 2
        bits.append("1" if r >= den else "0")
        r %= den
    start = seen[r]
    word = "".join(bits) + "".join(bits[start:])
    return _longest_run(word) <= N + 1
