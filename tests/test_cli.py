"""Command-line surface: exit codes, wire formats, file outputs."""

import csv
import json
import math
import xml.etree.ElementTree as ET

from greenjulia.cli import main

# exit codes are part of the interface contract
OK, VERIFY_FAILED, DOMAIN, TIP, CAP, PARTIAL, NUMERIC, USAGE = 0, 1, 2, 3, 4, 5, 6, 64


def test_params_json(capsys):
    assert main(["params", "--lambda", "6"]) == OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["xi"] == 3.0
    assert abs(payload["eta"] - math.sqrt(3)) < 1e-12
    assert abs(payload["a"] - 0.5408) < 1e-4
    assert payload["theorem_range"] is True


def test_params_domain_error(capsys):
    assert main(["params", "--lambda", "1"]) == DOMAIN
    assert "lambda" in capsys.readouterr().err


def test_params_degenerate_warning(capsys):
    assert main(["params", "--lambda", "2"]) == OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == 0.0
    assert "degenerate" in payload["warning"]


def test_usage_error_exit_code():
    assert main(["ray"]) == USAGE
    assert main(["params", "--tol", "bogus=1"]) == USAGE
    assert main(["params", "--tol", "newton=-1"]) == USAGE


def test_ray_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "ray.csv"
    assert main(["ray", "--lambda", "6", "--psi", "2/3", "--scales", "6",
                 "--csv", str(out)]) == OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "re_z", "im_z", "g", "re_L", "im_L", "density"]
    hs = [float(r[0]) for r in rows[1:]]
    assert all(b < a for a, b in zip(hs, hs[1:]))
    # serialize -> parse -> serialize is byte-identical (shortest repr policy)
    for row in rows[1:]:
        assert [repr(float(cell)) for cell in row] == row


def test_ray_dyadic_tip_exit(tmp_path, capsys):
    out = tmp_path / "tip.csv"
    rc = main(["ray", "--lambda", "6", "--psi", "1/2", "--scales", "6",
               "--csv", str(out)])
    assert rc == TIP
    assert "slit tip" in capsys.readouterr().out


def test_ray_svg_well_formed(tmp_path, capsys):
    out = tmp_path / "ray.svg"
    assert main(["ray", "--lambda", "6", "--psi", "2/3", "--scales", "4",
                 "--svg", str(out)]) == OK
    root = ET.parse(out).getroot()
    rays = [e for e in root.iter() if e.tag.endswith("polyline")
            and e.get("class") == "ray"]
    assert len(rays) == 1
    assert [e for e in root.iter() if e.get("class") == "julia"]


def test_ray_partial_exit_writes_samples_before_the_break(tmp_path, capsys):
    # at lambda = 20 the height contract breaks before a/2^24: exit 5 with
    # the samples above the break, each of which meets the contract
    from greenjulia.dynamics import derive_params, greens_value
    out = tmp_path / "ray.csv"
    rc = main(["ray", "--lambda", "20", "--psi", "5/7", "--scales", "24",
               "--per-scale", "32", "--csv", str(out)])
    assert rc == PARTIAL
    err = capsys.readouterr().err
    assert "height contract" in err
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "h"
    assert 0 < len(rows) - 1 < 24 * 32 + 1
    p = derive_params(20.0)
    for row in rows[1:]:
        z = complex(float(row[1]), float(row[2]))
        assert abs(greens_value(p, z) / math.pi - float(row[0])) < 1e-9


def test_comb_json(tmp_path, capsys):
    assert main(["comb", "--lambda", "6", "--lmax", "8", "--out",
                 str(tmp_path)]) == OK
    payload = json.loads((tmp_path / "comb.json").read_text())
    assert payload["base"] == "pi_F"
    slits = {s["l"]: s["h"] for s in payload["slits"]}
    assert abs(slits[1] - math.acosh(2.0) / math.pi) < 1e-12
    assert abs(slits[2] - math.acosh(10.0) / math.pi) < 1e-12
    assert slits[3] == slits[1]


def test_comb_svg(tmp_path, capsys):
    assert main(["comb", "--lambda", "6", "--format", "svg", "--out",
                 str(tmp_path)]) == OK
    ET.parse(tmp_path / "comb.svg")


def test_poincare_landmarks_json(tmp_path, capsys):
    assert main(["poincare", "--lambda", "6", "--kmax", "4", "--out",
                 str(tmp_path)]) == OK
    payload = json.loads((tmp_path / "landmarks.json").read_text())
    assert len(payload["landmarks"]) == 4
    assert all(r["rel"] < 1e-8 for r in payload["scaling_residuals"])


def test_goodset_cover_json(tmp_path, capsys):
    assert main(["goodset", "--N", "2", "--k", "3", "--out",
                 str(tmp_path)]) == OK
    payload = json.loads((tmp_path / "cover_N2_k3.json").read_text())
    assert payload["N"] == 2 and payload["k"] == 3
    for entry in payload["keep"]:
        assert entry["num"] == int(entry["index"], 2)
        assert entry["log2den"] == len(entry["index"])


def test_goodset_writes_the_json_dump_of_the_cover(tmp_path, capsys):
    from greenjulia.goodset import cover_to_dict, generate_cover
    want = json.dumps(cover_to_dict(generate_cover(3, 3), 3), indent=2)
    assert main(["goodset", "--N", "3", "--k", "3"]) == OK
    assert capsys.readouterr().out == want + "\n"
    assert main(["goodset", "--N", "3", "--k", "3", "--out",
                 str(tmp_path)]) == OK
    assert (tmp_path / "cover_N3_k3.json").read_text() == want


def test_params_non_finite_lambda(capsys):
    assert main(["params", "--lambda", "inf"]) == DOMAIN
    assert "finite" in capsys.readouterr().err


def test_goodset_cap_exit(capsys):
    assert main(["goodset", "--N", "3", "--k", "6", "--cap", "50"]) == CAP


def test_dim_table(capsys):
    assert main(["dim", "--N", "1..4", "--format", "csv"]) == OK
    out = capsys.readouterr().out
    assert "0.69424" in out and "0.87915" in out


def test_radvar_single_report(tmp_path, capsys):
    assert main(["radvar", "--lambda", "6", "--psi", "2/3", "--nmax", "8",
                 "--out", str(tmp_path)]) == OK
    payload = json.loads((tmp_path / "radvar_2_3.json").read_text())
    assert payload["converged"] is True
    index = json.loads((tmp_path / "index.json").read_text())
    assert index[0]["status"] == "ok"


def test_radvar_warning_banner(tmp_path, capsys):
    assert main(["radvar", "--lambda", "3.2", "--psi", "2/3", "--nmax", "4",
                 "--out", str(tmp_path)]) == OK
    assert "outside the decay range" in capsys.readouterr().err


def test_radvar_error_row_isolated(tmp_path, capsys):
    assert main(["radvar", "--lambda", "6", "--psi", "1/2", "--psi", "2/3",
                 "--nmax", "6", "--out", str(tmp_path)]) == OK
    index = {row["psi"]: row for row in
             json.loads((tmp_path / "index.json").read_text())}
    assert "DyadicAngleError" in index["1/2"]["status"]
    assert index["2/3"]["status"] == "ok"


def test_radvar_batch_prints_the_bytes_of_single_runs(capsys):
    # several --psi print each direction's report as its own run would, in
    # input order, then one index of all rows; lambda 20 gives partial rows
    psis = ["2/3", "1/2", "1234/4001", "2767/4001", "3/7", "4/7", "100/999"]
    reports, index = [], []
    for psi in psis:
        assert main(["radvar", "--lambda", "20", "--psi", psi, "--nmax", "12"]) == OK
        out = capsys.readouterr().out
        head, sep, tail = out.rpartition("\n[\n")
        reports.append(head + "\n" if sep else "")
        index += json.loads(sep.strip() + tail if sep else out)
    argv = ["radvar", "--lambda", "20", "--nmax", "12"]
    for psi in psis:
        argv += ["--psi", psi]
    assert main(argv) == OK
    out = capsys.readouterr().out
    assert out == "".join(reports) + json.dumps(index, indent=2) + "\n"
    assert any(json.loads(r)["partial"] for r in reports if r)


def test_radvar_lambda_2_is_a_domain_error(tmp_path, capsys):
    # a = 0 at lambda = 2 leaves no heights to integrate over
    assert main(["radvar", "--lambda", "2", "--psi", "2/3", "--nmax", "4",
                 "--out", str(tmp_path)]) == DOMAIN
    assert "a > 0" in capsys.readouterr().err
    assert not (tmp_path / "index.json").exists()


def test_jobs_flag_removed(capsys):
    assert main(["radvar", "--psi", "2/3", "--jobs", "2"]) == USAGE


def test_radvar_decay_svg(tmp_path, capsys):
    assert main(["radvar", "--lambda", "6", "--psi", "2/3", "--nmax", "8",
                 "--format", "svg", "--out", str(tmp_path)]) == OK
    root = ET.parse(tmp_path / "radvar_2_3.svg").getroot()
    assert [e for e in root.iter() if e.get("class") == "decay"]


def test_verify_suite(capsys):
    assert main(["verify", "params"]) == OK
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out


def test_numerical_failure_exit_code(capsys, monkeypatch):
    # at lambda = 1e8 the landmark brackets fail: a documented exit code
    # and a one-line message, not a traceback
    assert main(["poincare", "--lambda", "1e8", "--kmax", "16"]) == NUMERIC
    err = capsys.readouterr().err
    assert "numerical failure: BracketFailure" in err and "Traceback" not in err
    from greenjulia import verify
    monkeypatch.setattr(verify, "run", lambda suite, lam: False)
    assert main(["verify", "params"]) == VERIFY_FAILED


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == USAGE


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "greenjulia.cli", "params", "--lambda", "6"],
        capture_output=True, text=True)
    assert proc.returncode == OK
    assert json.loads(proc.stdout)["xi"] == 3.0
