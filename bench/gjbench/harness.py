"""Closed-loop harness: set-up timing, the measured load, metrics, run record.

One caller sends one request at a time and waits for it (closed loop,
no threads, `--jobs` at its default).  Only the request itself is timed;
its output is checked right after, outside the timed region.  With
tracing on, every request runs twice, untraced and traced in alternating
order, so the tracing overhead is measured on the same inputs.

The requests of a run are generated from the seed before the clock
starts: a plan of whole cycles whose size depends only on `--seconds`.
The loop runs the plan over and over until the request time is spent,
and always runs it at least once.  `attempted` and `failed` count the
operations of the plan, each once, so a seed gives the same counts
whatever the speed of the host or the program.

Request times in the end-to-end metrics are host-normalised: each is
divided by the host factor read by `host_probe` just before and just
after it (see bench/README.md, "Steadiness").
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

from . import tracer as tracing
from .workloads import WORKLOADS, Outcome

SETUP_REPEATS = 7
# the plan takes about this share of --seconds on the reference host
PLAN_SHARE = 0.5
TAIL_BEYOND = 10      # requests that must lie beyond the tail percentile
# host_probe() on the reference host (2 vCPU Intel Xeon under KVM) in its
# fast state; a host factor of 1 means the host runs that fast
PROBE_REF_S = 1.75e-3

# end-to-end metrics, printed with --trace 0; the last line carries only
# the never-zero ones, the summary prints all of them
E2E_UNITS = {"setup_s": "s", "requests_per_s": "1/s", "request_ms_p50": "ms",
             "request_ms_tail": "ms", "ok_frac": "ratio", "peak_rss_mib": "MiB"}
SUMMARY_ONLY = {"scales_per_s": "1/s", "samples_per_s": "1/s", "failed_frac": "ratio"}

_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import greenjulia.cli; "
               "from greenjulia.dynamics import derive_params; "
               "[derive_params(float(x)) for x in sys.argv[2:]]; "
               "print(time.perf_counter_ns())")


class Record(NamedTuple):
    """One run of one request: `key` names the request in the plan."""

    key: tuple
    kind: str
    inputs: dict
    seconds: float
    host: float
    outcome: Any


def plan_cycles(cycle_s: float, seconds: float) -> int:
    """Cycles in the plan of a run of `seconds`, for a workload whose cycle
    takes `cycle_s` on the reference host in its fast state."""
    return max(1, int(seconds * PLAN_SHARE / cycle_s))


def host_probe() -> float:
    """The host factor now: the time of a fixed pure-Python loop that runs
    no greenjulia code, over its time on the reference host."""
    t0 = time.perf_counter()
    acc, seen = 0j, {}
    for i in range(4000):
        z = complex(i % 7, i % 5) * 0.5
        acc = acc * 0.5 + z * z - 1.5
        seen[i & 63] = abs(acc)
    return (time.perf_counter() - t0) / PROBE_REF_S


def setup_once(src: Path, lambdas) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    greenjulia.cli and derived the workload's parameter bundles (the
    monotonic clock is shared with the child, so interpreter teardown is
    left out).  Not host-normalised: the child may run on another CPU
    than the probe, and its time does not follow the probe."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(src), *map(repr, lambdas)]
    t0 = time.perf_counter_ns()
    done = subprocess.run(cmd, check=True, timeout=120, capture_output=True,
                          text=True)
    return (int(done.stdout) - t0) / 1e9


def tail(times_s):
    """(ms, percentile, beyond): the highest percentile with at least
    TAIL_BEYOND requests beyond it; the maximum if there are too few."""
    s = sorted(times_s)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1] * 1e3, 100.0, 0
    return s[n - TAIL_BEYOND - 1] * 1e3, 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _timed(req):
    t0 = time.perf_counter()
    try:
        out = req.run()
    except Exception as exc:  # every raise is a failed operation, never a crash
        out = exc
    return out, time.perf_counter() - t0


def _judge(req, out):
    """(outcome, checked): checked is False when the checker itself broke."""
    if isinstance(out, Exception):
        o = Outcome(ops=req.ops)
        o.fail(f"raised {type(out).__name__}: {str(out)[:200]}", req.ops)
        return o, True
    try:
        return req.check(out), True
    except Exception as exc:
        o = Outcome(ops=req.ops)
        o.fail(f"unreadable output ({type(exc).__name__}: {exc})", req.ops)
        return o, False


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def load(workload, seconds: float, tr: tracing.Tracer | None = None,
         between_cycles=lambda busy: None):
    """Run the plan's cycles in turn until `seconds` of request time is
    spent and every cycle of the plan has run.

    Returns one Record per request run, when traced the untraced time of
    each, and whether every output was checked.  The host factor of a
    request is the mean of the probes taken just before and just after
    it.  `between_cycles(busy)` runs untimed before each cycle.
    """
    plan = [workload.cycle()
            for _ in range(plan_cycles(workload.cycle_s, seconds))]
    records, busy, complete = [], 0.0, True
    untraced_s, mismatches = [], 0
    done = 0
    while busy < seconds or done < len(plan):
        between_cycles(busy)
        before = host_probe()
        c = done % len(plan)
        done += 1
        for i, req in enumerate(plan[c]):
            if tr is None:
                out, dt = _timed(req)
                busy += dt
            else:
                rid = len(records) + 1
                first_untraced = rid % 2 == 1
                if first_untraced:
                    plain, dt_plain = _timed(req)
                tr.request_id = rid
                with tr.installed():
                    out, dt = _timed(req)
                if not first_untraced:
                    plain, dt_plain = _timed(req)
                untraced_s.append(dt_plain)
                mismatches += not _same(plain, out)
                busy += dt + dt_plain
            outcome, checked = _judge(req, out)
            out = plain = None   # free this output before the next request
            # the checks' garbage is not the next request's to collect, and
            # what survives is frozen so later collections skip it
            gc.collect()
            gc.freeze()
            complete &= checked
            after = host_probe()
            records.append(Record((c, i), req.kind, req.inputs, dt,
                                  (before + after) / 2, outcome))
            before = after
    return records, untraced_s, complete and mismatches == 0


def _sum(records, attr):
    return sum(getattr(r.outcome, attr) for r in records)


def plan_outcomes(records) -> dict:
    """The outcome of each request of the plan, from its first run that
    failed the most operations."""
    worst = {}
    for r in records:
        if r.key not in worst or r.outcome.failed > worst[r.key].failed:
            worst[r.key] = r.outcome
    return worst


def plan_counts(records):
    """(operations, failed operations) of the plan, each counted once."""
    plan = plan_outcomes(records).values()
    return sum(o.ops for o in plan), sum(o.failed for o in plan)


def unsteady_verdicts(records) -> int:
    """Requests of the plan whose runs failed different numbers of
    operations; the program is deterministic, so this should be 0."""
    seen = {}
    for r in records:
        seen.setdefault(r.key, set()).add(r.outcome.failed)
    return sum(len(v) > 1 for v in seen.values())


def e2e_metrics(records, setup_times, peak_rss_kib):
    """End-to-end values and their notes; request times are host-normalised,
    failures are counted over the plan."""
    raw = [r.seconds for r in records]
    times = [r.seconds / r.host for r in records]
    busy = sum(times)
    ops, failed = plan_counts(records)
    tail_ms, tail_pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(times) / busy,
        "request_ms_p50": statistics.median(times) * 1e3,
        "request_ms_tail": tail_ms,
        "ok_frac": (ops - failed) / ops,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "scales_per_s": _sum(records, "scales") / busy,
        "samples_per_s": _sum(records, "samples") / busy,
        "failed_frac": failed / ops,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "requests_per_s": f"over {busy:.4g} s of request time; raw {sum(raw):.4g} s",
        "request_ms_p50": f"{len(times)} requests; raw "
                          f"{statistics.median(raw) * 1e3:.4g} ms",
        "request_ms_tail": f"p{tail_pct:.1f}, {beyond} requests beyond it, "
                           f"{len(times)} in all; raw {tail(raw)[0]:.4g} ms",
        "failed_frac": f"{failed} of the plan's {ops} operations failed",
        "ok_frac": "1 - failed_frac",
    }
    return values, notes


def layer_metrics(records, untraced_s, summary):
    traced_s = sum(r.seconds for r in records)
    samples = _sum(records, "samples")
    inverts = summary["calls"]["poincare.invert_F_branch"]
    out = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = (summary["calls"][name], "count")
        out[f"{name}.self_s"] = (summary["self_s"][name], "s")
    for layer, n in summary["errors"].items():
        out[f"{layer}.errors"] = (n, "count")
    out.update({
        "boettcher.samples": (samples, "count"),
        # vacuously 1 when no sample was returned
        "boettcher.contract_ok_frac": (_sum(records, "contract_ok") / samples
                                       if samples else 1.0, "ratio"),
        "boettcher.height_err_max": (max((r.outcome.height_err_max
                                          for r in records), default=0.0), "1"),
        "radvar.scales": (_sum(records, "scales"), "count"),
        "radvar.partial": (_sum(records, "partial"), "count"),
        "goodset.cover_intervals": (_sum(records, "cover_intervals"), "count"),
        "poincare.landmarks_per_invert": (summary["landmarks_in_invert"] / inverts
                                          if inverts else 0.0, "ratio"),
        "cli.bytes_out": (_sum(records, "bytes_out"), "B"),
        "trace.overhead": (traced_s / sum(untraced_s) - 1.0, "ratio"),
        "trace.coverage": (summary["top_s"] / traced_s, "ratio"),
        "trace.spans": (summary["spans"], "count"),
    })
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path, out_dir: Path, sizes: dict | None = None,
        setup_repeats: int = SETUP_REPEATS):
    """One benchmark run; returns (result line dict, summary lines)."""
    cls = WORKLOADS[workload_name]
    src = root / "src"
    setup_times = []

    def sample_setup(busy):
        # set-up samples spread over the run, so that a slow spell of the
        # host moves at most a few of them
        if not trace and len(setup_times) < setup_repeats * min(1.0, busy / seconds):
            setup_times.append(setup_once(src, cls.lambdas))

    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(seed, work_dir, **(sizes or {}))
        tr = tracing.Tracer() if trace else None
        setup_times.append(setup_once(src, cls.lambdas))
        records, untraced_s, complete = load(workload, seconds, tr, sample_setup)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while not trace and len(setup_times) < setup_repeats:
            setup_times.append(setup_once(src, cls.lambdas))
    finally:
        for f in work_dir.glob("*"):
            f.unlink()
        work_dir.rmdir()

    plan = plan_outcomes(records)
    ops, failed = plan_counts(records)
    lines = [f"greenjulia benchmark: workload {workload_name}, seed {seed}, "
             f"{seconds:g} s of requests, trace {int(trace)}; closed loop, "
             f"1 caller, a plan of {len(plan)} requests with {ops} "
             f"operations, {len(records)} requests run"]
    if trace:
        layer = layer_metrics(records, untraced_s, tr.summary())
        recorded = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        lines += [f"  {k:<40} {v:.6g} {u}" for k, (v, u) in layer.items()]
        span_file = out_dir / f"{workload_name}-seed{seed}-spans.csv"
        tr.write(span_file)
        lines.append(f"spans written to {span_file}")
    else:
        values, notes = e2e_metrics(records, setup_times, peak_kib)
        units = {**E2E_UNITS, **SUMMARY_ONLY}
        recorded = {k: {"value": v, "unit": units[k], "note": notes.get(k)}
                    for k, v in values.items()}
        lines += [f"  {k:<16} {v:<12.6g} {units[k]:<5} {notes.get(k, '')}".rstrip()
                  for k, v in values.items()]
    # the result line: every per-layer metric, or the end-to-end ones
    # that are never 0
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in recorded.items() if trace or k in E2E_UNITS}

    by_reason = {}
    kinds = {r.key: r.kind for r in records}
    for k, o in plan.items():
        for r in o.reasons:
            key = f"{kinds[k]}: " + re.sub(r"^psi \S+: ", "", r).split(":")[0]
            by_reason[key] = by_reason.get(key, 0) + 1
    hosts = [r.host for r in records]
    lines.append(f"host factor: median {statistics.median(hosts):.3g}, "
                 f"range {min(hosts):.3g} to {max(hosts):.3g} "
                 f"(request times are divided by it)")
    unsteady = unsteady_verdicts(records)
    lines.append(f"checks: {ops - failed} of the plan's {ops} operations passed, "
                 f"{failed} failed (every run of every request checked)"
                 + ("" if complete else "; SOME OUTPUTS COULD NOT BE CHECKED")
                 + (f"; {unsteady} REQUESTS GOT OTHER VERDICTS ON A REPEAT"
                    if unsteady else ""))
    lines += [f"  FAIL x{n}: {k}" for k, n in sorted(by_reason.items())]

    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_sha": _git_sha(root),
        "python": sys.version, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "platform": platform.platform(),
        "metrics": recorded,
        "setup_s_samples": setup_times,
        "requests": [{"key": list(r.key), "kind": r.kind, "inputs": r.inputs,
                      "seconds": r.seconds, "host": r.host,
                      "ops": r.outcome.ops, "failed": r.outcome.failed,
                      "samples": r.outcome.samples, "scales": r.outcome.scales,
                      "reasons": r.outcome.reasons}
                     for r in records],
    }
    rec_file = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    rec_file.write_text(json.dumps(record, indent=1))
    lines.append(f"run record written to {rec_file}")

    result = {"correct": complete, "attempted": ops, "failed": failed,
              "metrics": metrics}
    return result, lines
