"""Radial-variation scales: decay, symmetry, pullback, batching."""

import json
import math
import random
import warnings

import pytest

from greenjulia import boettcher
from greenjulia.angles import DirectionAngle
from greenjulia.dynamics import derive_params
from greenjulia.errors import DomainError, DyadicAngleError, ToolkitError
from greenjulia.radvar import (QuadSettings, compare_directions,
                               direction_rows, pullback_check,
                               radial_variation, report_to_dict,
                               scale_contribution)

P6 = derive_params(6.0)
PSI = DirectionAngle(2, 3)


def test_scale_contribution_stable_under_refinement():
    coarse = scale_contribution(P6, PSI, 0, QuadSettings(points_per_scale=16))
    fine = scale_contribution(P6, PSI, 0, QuadSettings(points_per_scale=32))
    assert coarse.s_n > 0
    assert abs(fine.s_n - coarse.s_n) <= max(1e-8, 1e-3 * fine.s_n)
    assert fine.quad_error_est <= 1e-4 * fine.s_n
    assert fine.h_hi == P6.a and fine.h_lo == P6.a / 2


def test_scale_shift_coincidence():
    # 1/3 is simultaneously the shift and the mirror of 2/3
    for n in (0, 1, 2):
        s23 = scale_contribution(P6, DirectionAngle(2, 3), n)
        s13 = scale_contribution(P6, DirectionAngle(1, 3), n)
        assert abs(s23.s_n - s13.s_n) < 1e-8 * max(1.0, s23.s_n)


def test_scale_mirror_symmetry():
    for pq in ((2, 3), (3, 7), (4, 11)):
        ang = DirectionAngle(*pq)
        s = scale_contribution(P6, ang, 0)
        sm = scale_contribution(P6, ang.complement(), 0)
        assert abs(s.s_n - sm.s_n) < 1e-10 * max(1.0, s.s_n)


def test_radial_variation_report():
    rep = radial_variation(P6, PSI, 12)
    assert rep.converged and not rep.partial
    assert len(rep.scales) == 13
    assert abs(rep.total - sum(s.s_n for s in rep.scales)) < 1e-12 * rep.total
    assert 0 < rep.tail_ratio < 1
    assert rep.good_level == 1
    ratios = [b.s_n / a.s_n for a, b in zip(rep.scales, rep.scales[1:])]
    assert all(r < 0.9 for r in ratios[5:])


def test_radial_variation_rejects_dyadic():
    with pytest.raises(DyadicAngleError):
        radial_variation(P6, DirectionAngle(1, 2), 8)


def test_radial_variation_needs_positive_a():
    # lambda = 2 has a = 0: refused up front, not as a bad schedule
    p2 = derive_params(2.0)
    with pytest.raises(DomainError, match="a > 0"):
        radial_variation(p2, PSI, 4)
    with pytest.raises(DomainError, match="a > 0"):
        scale_contribution(p2, PSI, 0)


def test_windowed_decay_for_good_angles():
    # per-scale ratios of period-q angles oscillate with the shift orbit,
    # but five-scale windows decay uniformly
    for pq in ((2, 3), (3, 7), (5, 11), (11, 31)):
        rep = radial_variation(P6, DirectionAngle(*pq), 14)
        assert rep.converged
        scales = rep.scales
        for n in range(5, len(scales) - 5):
            window = (scales[n + 5].s_n / scales[n].s_n) ** 0.2
            assert window < 0.9


def test_outside_theorem_range_warns_but_computes():
    p = derive_params(3.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = radial_variation(p, PSI, 6)
    assert any("decay" in str(w.message) for w in caught)
    assert rep.total > 0


def test_partial_sums_cauchy():
    rep = radial_variation(P6, PSI, 16)
    tail = sum(s.s_n for s in rep.scales[10:])
    assert tail < 1e-2 * rep.total
    assert rep.scales[-1].s_n < 1e-4 * rep.total


def test_pullback_check_small_depths():
    assert pullback_check(P6, PSI, 1) < 1e-6
    for n in range(1, 7):
        assert pullback_check(P6, PSI, n) < 1e-5


def test_scale_via_pullback_route():
    # s_n from the folded ray pulled back through the inverse branches,
    # densities re-evaluated at the pulled-back points, against the direct
    # quadrature of the same scale
    import cmath
    from greenjulia.boettcher import log_deriv_jet, ray_integrand, RaySample, trace_ray

    k = 32
    for n in (1, 3):
        folded = PSI.shift_n(n)
        sign = -1.0 if PSI.bit(n) else 1.0
        tops = [P6.a * 2.0 ** (-j / k) for j in range(k + 1)]
        folded_ray = trace_ray(P6, folded, tops)
        direct_ray = trace_ray(P6, PSI, [h / 2 ** n for h in tops])
        vals = []
        for wf, zd in zip(folded_ray.samples, direct_ray.samples):
            cur = sign * wf.z
            guide = [zd.z]
            for _ in range(n):
                guide.append(guide[-1] * guide[-1] - P6.lam)
            for depth in range(n - 1, -1, -1):
                root = cmath.sqrt(cur + P6.lam)
                cur = root if abs(root - guide[depth]) < abs(-root - guide[depth]) \
                    else -root
            h = wf.h / 2 ** n
            sample = RaySample(h=h, z=cur, data=log_deriv_jet(P6, cur))
            vals.append(ray_integrand(P6, sample) * h * math.log(2.0))
        acc = vals[0] + vals[-1] + 4 * sum(vals[1:-1:2]) + 2 * sum(vals[2:-2:2])
        s_pullback = acc / (3.0 * k)
        s_direct = scale_contribution(P6, PSI, n,
                                      QuadSettings(points_per_scale=k)).s_n
        assert abs(s_pullback - s_direct) < 1e-5 * s_direct


def test_pullback_depth_limited():
    with pytest.raises(DomainError):
        pullback_check(P6, PSI, 11)


def test_pullback_folded_angle_is_shift():
    folded, flipped = PSI.shift(), PSI.bit(1) == 1
    assert str(folded) == "1/3" and flipped


def test_compare_directions_batch():
    rows = compare_directions(
        P6, [DirectionAngle(2, 3), DirectionAngle(3, 7), DirectionAngle(5, 11)], 12)
    assert len(rows) == 3
    assert all(r.report is not None and r.report.converged for r in rows)
    totals = [r.report.total for r in rows]
    assert totals == sorted(totals)


def test_compare_directions_empty():
    assert compare_directions(P6, [], 8) == []


def test_compare_directions_error_isolation():
    rows = compare_directions(
        P6, [DirectionAngle(2, 3), DirectionAngle(1, 2)], 8)
    ok = [r for r in rows if r.error is None]
    bad = [r for r in rows if r.error is not None]
    assert len(ok) == 1 and ok[0].report.converged
    assert len(bad) == 1 and "DyadicAngleError" in bad[0].error


def test_report_json_schema():
    rep = radial_variation(P6, PSI, 6)
    d = report_to_dict(rep)
    assert d["lambda"] == 6.0
    assert d["psi"] == {"num": 2, "den": 3}
    assert d["a"] == P6.a
    assert all(set(s) == {"n", "s_n", "err"} for s in d["scales"])
    assert isinstance(d["converged"], bool)
    assert d["total"] == rep.total


def test_long_run_angle_profile_smoke():
    # comparative report only: an angle carrying a run of eight equal bits
    # produces a larger early-scale peak than 2/3; values reported, the
    # comparison itself is not part of any bound
    long_run = DirectionAngle(170, 341)  # period 0111111110
    rep_long = radial_variation(P6, long_run, 6)
    rep_ref = radial_variation(P6, PSI, 6)
    assert rep_long.total > 0 and rep_ref.total > 0
    print(f"max s_n run-of-8 angle: {max(s.s_n for s in rep_long.scales):.3f} "
          f"vs 2/3: {max(s.s_n for s in rep_ref.scales):.3f}")


def test_quadrature_doubling_changes_total_little():
    rep1 = radial_variation(P6, PSI, 8, quad=QuadSettings(points_per_scale=16))
    rep2 = radial_variation(P6, PSI, 8, quad=QuadSettings(points_per_scale=32))
    assert abs(rep1.total - rep2.total) < 1e-3 * rep2.total


def _seeded_angles(seed, count, max_den=4095):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.randint(3, max_den)
        ang = DirectionAngle(rng.randint(1, q - 1), q)
        if not ang.is_dyadic and ang not in out:
            out.append(ang)
    return out + [a.complement() for a in out]


def _alone(p, angle, n_max):
    """The row radial_variation gives for one direction: its report as
    JSON text (NaN-safe to compare) or its error string."""
    try:
        return json.dumps(report_to_dict(radial_variation(p, angle, n_max))), None
    except ToolkitError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _assert_rows_match_single_directions(p, angles, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = direction_rows(p, angles, n_max)
        alone = [_alone(p, ang, n_max) for ang in angles]
    assert [row.angle for row in rows] == angles
    for row, (text, error) in zip(rows, alone):
        got = json.dumps(report_to_dict(row.report)) if row.report else None
        assert (got, row.error) == (text, error), str(row.angle)
    return rows


@pytest.mark.parametrize("lam", [3.6, 6.0, 20.0, 100.0])
def test_direction_rows_match_single_directions(lam):
    # every row of the batched trace is the report of its direction alone,
    # digit for digit, whether it is complete, partial or an error
    p = derive_params(lam)
    angles = _seeded_angles(int(lam * 10), 6) + [DirectionAngle(1, 2)]
    rows = _assert_rows_match_single_directions(p, angles, 12)
    assert "DyadicAngleError" in rows[-1].error
    partial = [row for row in rows if row.report and row.report.partial]
    assert bool(partial) == (lam >= 20)


def test_direction_rows_keep_singular_rows():
    # at lambda = 1e16 |L| at the top of the comb is below the singular
    # threshold: each row fails on its own with the single-direction error
    rows = _assert_rows_match_single_directions(
        derive_params(1e16), [DirectionAngle(2, 3), DirectionAngle(3, 7)], 2)
    assert all(row.error.startswith("SingularSampleError") for row in rows)


def test_direction_rows_keep_rows_that_break_at_the_first_sample(monkeypatch):
    # the top of the comb is well conditioned, so no supported input breaks
    # the contract at the first sample; a contract tightened to 1e-16 does
    # for some directions and not for others in the same batch
    monkeypatch.setattr(boettcher, "_HEIGHT_TOL", 1e-16)
    angles = [DirectionAngle(2, 3), DirectionAngle(2, 5), DirectionAngle(1, 7),
              DirectionAngle(3, 7), DirectionAngle(1, 4)]
    rows = _assert_rows_match_single_directions(derive_params(6.0), angles, 1)
    broken = [row for row in rows if row.error and "height contract" in row.error]
    assert broken and any(row.report for row in rows)


def test_compare_directions_is_the_sorted_batch():
    angles = _seeded_angles(5, 4) + [DirectionAngle(1, 2)]
    p = derive_params(20.0)
    rows = direction_rows(p, angles, 8)
    ok = sorted((r for r in rows if r.report), key=lambda r: r.report.total)
    assert compare_directions(p, angles, 8) == ok + [r for r in rows if not r.report]
