"""Command-line front end: parameter reports, ray/comb dumps, good-set
generation, radial-variation batches, verification suites and SVG plots.

Exit codes: 0 ok, 1 a verify suite failed, 2 domain error, 3 dyadic-tip
info, 4 resource cap, 5 partial result (a ray that broke off: the samples
before the break are written), 6 numerical failure (a toolkit check
failed), 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from . import boettcher, goodset, poincare, radvar, svg, verify
from .angles import DirectionAngle
from .dynamics import derive_params
from .errors import CapExceeded, DomainError, NewtonDivergence, ToolkitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_TIP = 3
EXIT_CAP = 4
EXIT_PARTIAL = 5
EXIT_NUMERIC = 6
EXIT_USAGE = 64

_KNOWN_TOLS = {"greens": 1e-12, "newton": 1e-13, "poincare": 1e-12,
               "quad": 1e-3}


@dataclass
class RunConfig:
    lam: float = 6.0
    tolerances: dict = field(default_factory=lambda: dict(_KNOWN_TOLS))
    out: Path | None = None
    fmt: str = "json"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _jdump(obj) -> str:
    return json.dumps(obj, indent=2)


def _emit(text: str, path: Path | None):
    if path is None:
        print(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    cfg.lam = args.lam
    for item in args.tol or []:
        key, _, val = item.partition("=")
        if key not in _KNOWN_TOLS:
            raise SystemExit(_usage_error(
                f"unknown tolerance key {key!r}; known: {sorted(_KNOWN_TOLS)}"))
        try:
            fval = float(val)
        except ValueError:
            raise SystemExit(_usage_error(f"tolerance {item!r} is not KEY=FLOAT"))
        if not fval > 0:
            raise SystemExit(_usage_error(f"tolerance {key} must be positive"))
        cfg.tolerances[key] = fval
    cfg.out = Path(args.out) if args.out else None
    cfg.fmt = args.format
    return cfg


def _usage_error(message: str) -> int:
    print(f"greenjulia: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _params_payload(p) -> dict:
    return {"lambda": p.lam, "xi": p.xi, "eta": p.eta, "rho": p.rho,
            "nu": p.nu, "a": p.a, "theorem_range": p.theorem_range}


def cmd_params(args) -> int:
    cfg = _config_from(args)
    try:
        p = derive_params(cfg.lam)
    except DomainError as exc:
        print(f"greenjulia params: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    payload = _params_payload(p)
    if p.lam == 2.0:
        payload["warning"] = ("degenerate boundary case: the Julia set is an "
                              "interval, a = 0, eta = 0")
    _emit(_jdump(payload), cfg.out / "params.json" if cfg.out else None)
    return EXIT_OK


def cmd_ray(args) -> int:
    cfg = _config_from(args)
    status = EXIT_OK
    try:
        p = derive_params(cfg.lam)
        angle = DirectionAngle.parse(args.psi)
        heights = boettcher.default_heights(p, args.scales, args.per_scale)
        ray = boettcher.trace_ray(p, angle, heights,
                                  newton_tol=cfg.tolerances["newton"],
                                  series_tol=cfg.tolerances["greens"])
    except DomainError as exc:
        print(f"greenjulia ray: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NewtonDivergence as exc:
        ray = exc.partial
        print(f"greenjulia ray: {exc}; writing the {len(ray.samples)} "
              f"samples above it", file=sys.stderr)
        status = EXIT_PARTIAL

    csv_path = Path(args.csv) if args.csv else None
    svg_path = Path(args.svg) if args.svg else None
    if csv_path is None and svg_path is None and cfg.out:
        base = cfg.out / f"ray_{angle.numerator}_{angle.denominator}"
        if cfg.fmt == "svg":
            svg_path = base.with_suffix(".svg")
        else:
            csv_path = base.with_suffix(".csv")
    if csv_path is not None:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(boettcher.ray_csv_rows(p, ray))
        print(f"wrote {csv_path} ({len(ray.samples)} samples)")
    if svg_path is not None:
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        svg.ray_figure(p, [ray]).write(svg_path)
        print(f"wrote {svg_path}")
    if csv_path is None and svg_path is None:
        for row in boettcher.ray_csv_rows(p, ray):
            print(",".join(row))

    if ray.termination == "tip":
        tip = ray.tip
        print(f"dyadic angle {angle}: ray terminates at slit tip "
              f"z = {tip.point:.6g} at height {tip.height:.12g}")
        return EXIT_TIP
    return status


def cmd_comb(args) -> int:
    cfg = _config_from(args)
    try:
        p = derive_params(cfg.lam)
    except DomainError as exc:
        print(f"greenjulia comb: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if cfg.fmt == "svg":
        target = cfg.out / "comb.svg" if cfg.out else None
        fig = svg.comb_figure(p, l_max=args.lmax)
        if target is None:
            print(fig.tostring())
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            fig.write(target)
            print(f"wrote {target}")
    else:
        payload = poincare.comb_to_dict(p, args.lmax)
        _emit(_jdump(payload), cfg.out / "comb.json" if cfg.out else None)
    return EXIT_OK


def cmd_poincare(args) -> int:
    cfg = _config_from(args)
    try:
        p = derive_params(cfg.lam)
        lms = poincare.landmarks(p, args.kmax)
    except DomainError as exc:
        print(f"greenjulia poincare: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    payload = {
        "lambda": p.lam,
        "landmarks": [{"n": lm.index, "a": lm.a, "b": lm.b, "c": lm.c}
                      for lm in lms],
        "scaling_residuals": [
            {"n": 2 * n, "rel": abs(lms[2 * n - 1].c - p.rho * lms[n - 1].c)
             / abs(lms[2 * n - 1].c)}
            for n in range(1, len(lms) // 2 + 1)],
    }
    _emit(_jdump(payload), cfg.out / "landmarks.json" if cfg.out else None)
    return EXIT_OK


def cmd_goodset(args) -> int:
    cfg = _config_from(args)
    try:
        level = goodset.generate_cover(args.N, args.k, cap=args.cap)
    except CapExceeded as exc:
        print(f"greenjulia goodset: {exc}", file=sys.stderr)
        return EXIT_CAP
    _emit(goodset.cover_json(level, args.N),
          cfg.out / f"cover_N{args.N}_k{args.k}.json" if cfg.out else None)
    return EXIT_OK


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


def cmd_dim(args) -> int:
    rows = []
    for n in _parse_range(args.N):
        rows.append({"N": n,
                     "dimension": goodset.dimension_bound(n),
                     "word_rate": goodset.dimension_word_rate(n),
                     "cover_exponent": 1.0 - 1.0 / n})
    cfg = _config_from(args)
    if cfg.fmt == "json":
        _emit(_jdump(rows), cfg.out / "dim.json" if cfg.out else None)
    else:
        print(f"{'N':>3} {'dimension':>12} {'word_rate':>12} {'1-1/N':>8}")
        for r in rows:
            print(f"{r['N']:>3} {r['dimension']:>12.5f} "
                  f"{r['word_rate']:>12.5f} {r['cover_exponent']:>8.5f}")
    return EXIT_OK


def cmd_radvar(args) -> int:
    cfg = _config_from(args)
    try:
        p = derive_params(cfg.lam)
        radvar.check_comb(p)
    except DomainError as exc:
        print(f"greenjulia radvar: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if not p.theorem_range:
        print(f"warning: lambda = {p.lam:g} is outside the decay range "
              f"(needs > 2+sqrt(2) ~ 3.4142); computing without decay claims",
              file=sys.stderr)
    angles = [DirectionAngle.parse(s) for s in args.psi]
    quad = radvar.QuadSettings(tol_rel=cfg.tolerances["quad"])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = radvar.direction_rows(p, angles, args.nmax, quad=quad)

    index = []
    for row in rows:
        name = f"radvar_{row.angle.numerator}_{row.angle.denominator}"
        if row.report is None:
            index.append({"psi": str(row.angle), "status": row.error})
            continue
        index.append({"psi": str(row.angle), "status": "ok",
                      "total": row.report.total,
                      "converged": row.report.converged})
        payload = _jdump(radvar.report_to_dict(row.report))
        if cfg.out:
            if cfg.fmt == "svg":
                svg.decay_figure(row.report).write(
                    (cfg.out / name).with_suffix(".svg"))
            _emit(payload, (cfg.out / name).with_suffix(".json"))
        else:
            print(payload)
    if cfg.out:
        _emit(_jdump(index), cfg.out / "index.json")
    else:
        print(_jdump(index))
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    ok = True
    suites = args.suite or ["all"]
    for suite in suites:
        try:
            ok &= verify.run(suite, lam=cfg.lam)
        except KeyError as exc:
            return _usage_error(str(exc))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lambda", dest="lam", type=float, default=6.0,
                        help="polynomial parameter (default 6)")
    common.add_argument("--tol", action="append", metavar="KEY=VAL",
                        help=f"override a tolerance; keys: {sorted(_KNOWN_TOLS)}")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=("json", "csv", "svg"),
                        default="json")

    ap = _Parser(prog="greenjulia",
                 description="Green's data, external rays and radial "
                             "variation for real quadratic Julia sets")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", parents=[common], help="derived constants")
    sp.set_defaults(fn=cmd_params)

    sp = sub.add_parser("ray", parents=[common], help="trace an external ray")
    sp.add_argument("--psi", required=True, metavar="P/Q")
    sp.add_argument("--scales", type=int, default=8,
                    help="trace down to a/2^scales")
    sp.add_argument("--per-scale", type=int, default=16)
    sp.add_argument("--csv", help="CSV output path")
    sp.add_argument("--svg", help="SVG output path")
    sp.set_defaults(fn=cmd_ray)

    sp = sub.add_parser("comb", parents=[common], help="comb domain data/plot")
    sp.add_argument("--lmax", type=int, default=12)
    sp.set_defaults(fn=cmd_comb)

    sp = sub.add_parser("poincare", parents=[common],
                        help="linearizer landmarks")
    sp.add_argument("--kmax", type=int, default=8)
    sp.set_defaults(fn=cmd_poincare)

    sp = sub.add_parser("goodset", parents=[common],
                        help="dyadic cover of a good-direction set")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cap", type=int, default=2_000_000)
    sp.set_defaults(fn=cmd_goodset)

    sp = sub.add_parser("dim", parents=[common], help="subshift dimensions")
    sp.add_argument("--N", required=True, metavar="N or LO..HI")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("radvar", parents=[common],
                        help="radial-variation reports")
    sp.add_argument("--psi", action="append", required=True, metavar="P/Q")
    sp.add_argument("--nmax", type=int, default=12)
    sp.set_defaults(fn=cmd_radvar)

    sp = sub.add_parser("verify", parents=[common],
                        help="run a verification suite")
    sp.add_argument("suite", nargs="*",
                    help=f"suites: {sorted(verify.SUITES)} (default all)")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except DomainError as exc:
        print(f"greenjulia: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapExceeded as exc:
        print(f"greenjulia: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ToolkitError as exc:
        print(f"greenjulia: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
