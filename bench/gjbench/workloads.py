"""The three seeded workloads and how each request is run and checked.

A workload hands out its requests one cycle at a time.  Each request
carries the inputs generated for it, the number of operations it holds
(a direction, a ray or the request itself), a `run` callable, which is
the only part timed, and a `check` callable that judges run's output by
an independent route afterwards.

Every workload runs whole cycles so that the mix of requests, and with
it every per-request statistic, does not depend on where the clock
stopped.  `cycle_s` is the time of one cycle at the default sizes on the
reference host in its fast state; it sizes the plan of a run.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from greenjulia import cli, goodset, poincare
from greenjulia.angles import DirectionAngle
from greenjulia.boettcher import trace_ray
from greenjulia.dynamics import derive_params
from greenjulia.errors import NewtonDivergence
from greenjulia.radvar import QuadSettings

from . import checks


@dataclass
class Outcome:
    """Verdict on one request, with the counts the metrics are built from."""

    ops: int
    failed: int = 0
    reasons: list = field(default_factory=list)
    samples: int = 0            # ray samples returned
    scales: int = 0             # s_n completed
    partial: int = 0            # reports that came back partial=True
    contract_ok: int = 0        # samples meeting the height contract
    height_err_max: float = 0.0
    cover_intervals: int = 0
    bytes_out: int = 0

    def fail(self, reason: str, ops: int = 1):
        self.failed += ops
        self.reasons.append(reason)

    def add_heights(self, errs):
        self.samples += len(errs)
        self.contract_ok += sum(1 for e in errs if e < checks.HEIGHT_TOL)
        if errs:
            self.height_err_max = max(self.height_err_max, min(max(errs), 1e300))


@dataclass
class Request:
    kind: str
    inputs: dict
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def cli_call(argv):
    """greenjulia.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _json_docs(text: str) -> list:
    """The JSON documents printed one after another on stdout."""
    dec, docs, i = json.JSONDecoder(), [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)


def _cli_failure(out, outcome: Outcome) -> bool:
    rc, stdout, stderr = out
    outcome.bytes_out += len(stdout.encode())
    if rc != 0:
        outcome.fail(f"exit code {rc}: {stderr.strip()[:200]}", outcome.ops)
        return True
    return False


def seeded_angle(rng: random.Random, max_den: int) -> DirectionAngle:
    """A uniformly drawn non-dyadic rational p/q in (0, 1), q <= max_den."""
    while True:
        q = rng.randint(3, max_den)
        angle = DirectionAngle(rng.randint(1, q - 1), q)
        if not angle.is_dyadic:
            return angle


def _distinct_angles(rng, count: int, max_den: int) -> list:
    out = []
    while len(out) < count:
        a = seeded_angle(rng, max_den)
        if a not in out and a.complement() not in out:
            out.append(a)
    return out


class RadvarWide:
    """One `radvar --nmax 12` over 8 seeded directions and their mirrors
    per request; lambda cycles through 3.6, 6, 20, 100."""

    name = "radvar-wide"
    lambdas = (3.6, 6.0, 20.0, 100.0)
    cycle_s = 1.2

    def __init__(self, seed: int, workdir: Path, nmax: int = 12,
                 pairs: int = 8, max_den: int = 4095):
        self.rng = random.Random(seed)
        self.nmax, self.pairs, self.max_den = nmax, pairs, max_den
        self.params = {lam: derive_params(lam) for lam in self.lambdas}

    def cycle(self) -> list:
        return [self._request(lam) for lam in self.lambdas]

    def _request(self, lam: float) -> Request:
        base = _distinct_angles(self.rng, self.pairs, self.max_den)
        psis = base + [a.complement() for a in base]
        argv = ["radvar", "--lambda", repr(lam), "--nmax", str(self.nmax)]
        for a in psis:
            argv += ["--psi", str(a)]
        return Request("radvar", {"argv": argv}, len(psis),
                       lambda: cli_call(argv),
                       lambda out: self.check(lam, psis, out))

    def check(self, lam, psis, out) -> Outcome:
        outcome = Outcome(ops=len(psis))
        if _cli_failure(out, outcome):
            return outcome
        docs = _json_docs(out[1])
        index, reports = docs[-1], docs[:-1]
        by_angle = {(r["psi"]["num"], r["psi"]["den"]): r for r in reports}
        status = {row["psi"]: row["status"] for row in index}
        p = self.params[lam]
        k = QuadSettings().points_per_scale
        reasons = {a: [] for a in psis}
        totals = {}
        for a in psis:
            rep = by_angle.get((a.numerator, a.denominator))
            if status.get(str(a)) != "ok" or rep is None:
                reasons[a].append(f"no report: {status.get(str(a))}")
                continue
            totals[a] = rep["total"]
            outcome.scales += len(rep["scales"])
            if rep["partial"]:
                outcome.partial += 1
                reasons[a].append("partial=True")
            reasons[a] += checks.check_report_sum(rep)
            # the report's own schedule, re-traced through the public API
            heights = [rep["a"] * 2.0 ** (-i / k)
                       for i in range(k * len(rep["scales"]) + 1)]
            try:
                samples = trace_ray(p, a, heights).samples
            except NewtonDivergence as exc:
                samples = exc.partial.samples if exc.partial else ()
                reasons[a].append("re-trace of the schedule diverged")
            errs = checks.height_errors(p, [(s.h, s.z) for s in samples])
            outcome.add_heights(errs)
            reasons[a] += checks.check_heights(errs)
        for a, m in zip(psis[:self.pairs], psis[self.pairs:]):
            if a in totals and m in totals:
                for r in checks.check_mirror(totals[a], totals[m]):
                    reasons[a].append(r)
                    reasons[m].append(r)
        for a, rs in reasons.items():
            if rs:
                outcome.fail(f"psi {a}: " + "; ".join(rs))
        return outcome


class RayDeep:
    """One `ray --scales 24 --per-scale 32 --csv` per request for a seeded
    short-period direction; lambda cycles through 3.6, 6, 20."""

    name = "ray-deep"
    lambdas = (3.6, 6.0, 20.0)
    cycle_s = 0.13

    def __init__(self, seed: int, workdir: Path, scales: int = 24,
                 per_scale: int = 32, max_den: int = 63):
        self.rng = random.Random(seed)
        self.scales, self.per_scale, self.max_den = scales, per_scale, max_den
        self.params = {lam: derive_params(lam) for lam in self.lambdas}
        self.csv_path = workdir / "ray.csv"

    def cycle(self) -> list:
        return [self._request(lam) for lam in self.lambdas]

    def _request(self, lam: float) -> Request:
        psi = seeded_angle(self.rng, self.max_den)
        argv = ["ray", "--lambda", repr(lam), "--psi", str(psi),
                "--scales", str(self.scales), "--per-scale", str(self.per_scale),
                "--csv", str(self.csv_path)]
        return Request("ray", {"argv": argv}, 1, lambda: cli_call(argv),
                       lambda out: self.check(lam, out))

    def check(self, lam, out) -> Outcome:
        outcome = Outcome(ops=1)
        try:
            if _cli_failure(out, outcome):
                return outcome
            with open(self.csv_path, newline="") as fh:
                text = fh.read()
        finally:
            self.csv_path.unlink(missing_ok=True)
        outcome.bytes_out += len(text.encode())
        rows = list(csv.reader(io.StringIO(text)))
        reasons = checks.check_ray_rows(rows, self.scales * self.per_scale + 1)
        p = self.params[lam]
        errs = checks.height_errors(
            p, [(float(r[0]), complex(float(r[1]), float(r[2]))) for r in rows[1:]])
        outcome.add_heights(errs)
        reasons += checks.check_heights(errs)
        if reasons:
            outcome.fail("; ".join(reasons))
        return outcome


class Oracles:
    """A fixed cycle of linearizer, inverse-branch, cover, dimension and
    membership requests; no ray is traced."""

    name = "oracles"
    lambdas = (3.6, 6.0, 20.0)
    cycle_s = 6.6

    def __init__(self, seed: int, workdir: Path, kmax: int = 16,
                 lmax: int = 64, branches: int = 6, targets: int = 7,
                 small_cover=(3, 4), small_covers: int = 10, big_cover=(4, 3),
                 dim_max: int = 12, member_angles: int = 32,
                 member_levels: int = 4):
        self.rng = random.Random(seed)
        self.kmax, self.lmax, self.branches, self.targets = kmax, lmax, branches, targets
        self.small_cover, self.small_covers = small_cover, small_covers
        self.big_cover, self.dim_max = big_cover, dim_max
        self.member_angles, self.member_levels = member_angles, member_levels
        self.params = {lam: derive_params(lam) for lam in self.lambdas}

    def cycle(self) -> list:
        # One big cover and 10 small ones per cycle: whatever the number of
        # cycles in a run, from 1 to 10, the tail percentile (10 requests
        # beyond it) then falls among the small covers, so a faster or
        # slower program does not move it to another kind of request.
        reqs = []
        for lam in self.lambdas:
            p = self.params[lam]
            argv = ["poincare", "--lambda", repr(lam), "--kmax", str(self.kmax)]
            reqs.append(self._cli("poincare", argv, self._check_poincare, p))
            argv = ["comb", "--lambda", repr(lam), "--lmax", str(self.lmax)]
            reqs.append(self._cli("comb", argv, self._check_comb, p))
            for n in range(self.branches):
                for side in ("right", "left"):
                    for _ in range(self.targets):
                        reqs.append(self._invert(p, n, side))
        reqs += [self._cover(*self.small_cover) for _ in range(self.small_covers)]
        reqs.append(self._cover(*self.big_cover))
        argv = ["dim", "--N", f"1..{self.dim_max}"]
        reqs.append(self._cli("dim", argv, self._check_dim, None))
        reqs.append(self._membership())
        return reqs

    def _cover(self, N: int, k: int) -> Request:
        argv = ["goodset", "--N", str(N), "--k", str(k)]
        return self._cli("goodset", argv, self._check_cover, (N, k))

    def _cli(self, kind, argv, check, ctx) -> Request:
        return Request(kind, {"argv": argv}, 1, lambda: cli_call(argv),
                       lambda out: check(out, ctx))

    def _check_poincare(self, out, p) -> Outcome:
        outcome = Outcome(ops=1)
        if not _cli_failure(out, outcome):
            rows = json.loads(out[1])["landmarks"]
            reasons = checks.check_landmarks(rows, p.rho)
            if len(rows) != self.kmax:
                reasons.append(f"{len(rows)} landmarks, asked {self.kmax}")
            if reasons:
                outcome.fail("; ".join(reasons))
        return outcome

    def _check_comb(self, out, p) -> Outcome:
        outcome = Outcome(ops=1)
        if not _cli_failure(out, outcome):
            slits = json.loads(out[1])["slits"]
            reasons = checks.check_slits(p, slits)
            if [s["l"] for s in slits] != list(range(1, self.lmax + 1)):
                reasons.append("comb slits do not run over 1..lmax")
            if reasons:
                outcome.fail("; ".join(reasons))
        return outcome

    def _invert(self, p, n: int, side: str) -> Request:
        target = self.rng.uniform(-p.xi, p.xi) ** 2 - p.lam   # P(z), z in E0's hull

        def check(w) -> Outcome:
            outcome = Outcome(ops=1)
            reasons = checks.check_inverse(p, target, w)
            if reasons:
                outcome.fail(reasons[0])
            return outcome

        inputs = {"lambda": p.lam, "target": target, "n": n, "side": side}
        return Request("invert", inputs, 1,
                       lambda: poincare.invert_F_branch(p, target, n, side), check)

    def _check_cover(self, out, nk) -> Outcome:
        outcome = Outcome(ops=1)
        if not _cli_failure(out, outcome):
            payload = json.loads(out[1])
            outcome.cover_intervals = len(payload["keep"])
            reasons = checks.check_cover(payload, *nk)
            if reasons:
                outcome.fail("; ".join(reasons))
        return outcome

    def _check_dim(self, out, _ctx) -> Outcome:
        outcome = Outcome(ops=1)
        if not _cli_failure(out, outcome):
            reasons = checks.check_dim_rows(json.loads(out[1]),
                                            range(1, self.dim_max + 1))
            if reasons:
                outcome.fail("; ".join(reasons))
        return outcome

    def _membership(self) -> Request:
        angles = [seeded_angle(self.rng, 4095) for _ in range(self.member_angles)]
        levels = range(1, self.member_levels + 1)

        def run():
            return [goodset.membership(a, N) for a in angles for N in levels]

        def check(got) -> Outcome:
            outcome = Outcome(ops=1)
            want = [checks.expected_membership(a.numerator, a.denominator, N)
                    for a in angles for N in levels]
            wrong = sum(g != w for g, w in zip(got, want))
            if wrong or len(got) != len(want):
                outcome.fail(f"membership: {wrong} of {len(want)} verdicts wrong")
            return outcome

        return Request("membership", {"angles": [str(a) for a in angles],
                                      "levels": list(levels)}, 1, run, check)


WORKLOADS = {w.name: w for w in (RadvarWide, RayDeep, Oracles)}
