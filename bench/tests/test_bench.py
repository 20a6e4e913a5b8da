"""The benchmark's own tests: tiny smoke runs of every workload, the
checkers rejecting corrupted output, and the names the benchmark emits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from gjbench import checks, harness  # noqa: E402
from gjbench.workloads import RadvarWide, RayDeep, _json_docs  # noqa: E402

TINY = {
    "radvar-wide": {"nmax": 3, "pairs": 1},
    "ray-deep": {"scales": 2, "per_scale": 4},
    "oracles": {"kmax": 4, "lmax": 8, "branches": 1, "targets": 1,
                "small_cover": (2, 2), "small_covers": 2,
                "big_cover": (2, 3), "dim_max": 3,
                "member_angles": 4, "member_levels": 2},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_emits_declared_metrics(tmp_path, workload, trace):
    result, lines = harness.run(workload, 7, 0.01, trace, ROOT, tmp_path,
                                sizes=TINY[workload], setup_repeats=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(m["value"], (int, float))
    json.dumps(result, allow_nan=False)
    assert lines[-1].startswith("run record written to")


def test_declared_names_and_units_are_well_formed():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)


def test_ray_check_rejects_a_perturbed_sample_height(tmp_path):
    wl = RayDeep(3, tmp_path, **TINY["ray-deep"])
    req = wl.cycle()[0]
    assert req.check(req.run()).failed == 0
    out = req.run()
    lines = wl.csv_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[0] = repr(float(cells[0]) * (1 + 1e-6))
    lines[3] = ",".join(cells)
    wl.csv_path.write_text("\n".join(lines) + "\n")
    outcome = req.check(out)
    assert outcome.failed == 1
    assert "height contract" in outcome.reasons[0]


def test_radvar_check_rejects_a_mismatched_mirror_total(tmp_path):
    wl = RadvarWide(5, tmp_path, **TINY["radvar-wide"])
    req = wl.cycle()[1]
    rc, stdout, stderr = req.run()
    assert req.check((rc, stdout, stderr)).failed == 0
    docs = _json_docs(stdout)
    # shift one scale of the mirror report and keep its total consistent,
    # so only the mirror comparison can catch it
    mirror = docs[1]
    mirror["scales"][0]["s_n"] += 1e-6
    mirror["total"] = sum(s["s_n"] for s in mirror["scales"])
    forged = "\n".join(json.dumps(d) for d in docs)
    outcome = req.check((rc, forged, stderr))
    assert outcome.failed == 2
    assert all("mirror totals differ" in r for r in outcome.reasons)


def test_checkers_reject_corrupted_values():
    report = {"total": 1.5, "scales": [{"s_n": 1.0}, {"s_n": 0.25}]}
    assert checks.check_report_sum(report)
    report["total"] = 1.25
    assert not checks.check_report_sum(report)
    cover = {"N": 3, "k": 1, "keep": [{"num": 5, "log2den": 4,
                                        "len_log2den": 4, "index": "0101"}]}
    assert not checks.check_cover(cover, 3, 1)
    cover["keep"].append({"num": 15, "log2den": 4, "len_log2den": 4,
                          "index": "1111"})
    assert checks.check_cover(cover, 3, 1)
    rows = [{"n": 1, "a": -3.0, "c": -2.0, "b": -1.0},
            {"n": 2, "a": -9.0, "c": -8.0, "b": -7.0}]
    assert not checks.check_landmarks(rows, rho=4.0)
    assert checks.check_landmarks(rows, rho=4.1)
    assert checks.check_heights([0.0, 2e-9])


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH / "gjbench", tmp_path / "bench" / "gjbench")
    shutil.copy(BENCH / "run.py", tmp_path / "bench" / "run.py")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "oracles", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repeats_of_the_plan_count_each_operation_once(tmp_path):
    wl = RadvarWide(11, tmp_path, **TINY["radvar-wide"])
    records, _, complete = harness.load(wl, 0.3)
    assert complete
    assert len({r.key for r in records}) == len(RadvarWide.lambdas)
    assert len(records) > len(RadvarWide.lambdas)
    assert harness.plan_counts(records) == (2 * len(RadvarWide.lambdas), 0)
