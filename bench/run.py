"""greenjulia benchmark: one closed-loop run of one seeded workload.

    python3 bench/run.py --workload radvar-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The last line of stdout is the result as one JSON object; the lines before
it print every metric with its unit and the check verdicts.  The run
record (generated inputs, per-request verdicts, host) and, with
`--trace 1`, the spans go to `.bench_out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("radvar-wide", "ray-deep", "oracles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="request time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (SRC / "greenjulia" / "__init__.py").is_file():
        print(f"bench: no greenjulia sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import greenjulia
    if Path(greenjulia.__file__).resolve().parent != SRC / "greenjulia":
        print(f"bench: imported greenjulia from {greenjulia.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from gjbench import harness
    result, lines = harness.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), ROOT, ROOT / ".bench_out")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
